//! One function per table/figure of the paper's evaluation (§VI).
//!
//! Every function returns a printable table. Absolute times will differ
//! from the paper (2010 C++ testbed vs this Rust reproduction); the
//! *shapes* — who wins, trends over τ / |M| / k / h — are the target.

use crate::time_avg;
use crate::workload::{d7_workload, default_config, workload_for, DEFAULT_M};
use std::fmt::Write as _;
use uxm_assignment::murty::RankVariant;
use uxm_assignment::partition::{murty_top_h_mappings, partition, partition_top_h_with};
use uxm_core::aggregate::AggFunc;
use uxm_core::api::{EvaluatorHint, Query, QueryKind};
use uxm_core::block_tree::{BlockTree, BlockTreeConfig};
use uxm_core::compress::compression_ratio;
use uxm_core::engine::QueryEngine;
use uxm_core::json::Json;
use uxm_core::mapping::PossibleMappings;
use uxm_core::planner;
use uxm_core::stats::{avg_block_size, block_size_histogram, max_block_coverage, o_ratio};
use uxm_datagen::datasets::{Dataset, DatasetId};
use uxm_datagen::queries::paper_queries;
use uxm_twig::TwigPattern;
use uxm_xml::{Document, LabelId};
/// Shared knobs for the repro run.
#[derive(Clone, Debug)]
pub struct ReproConfig {
    /// Repetitions per timed data point (the paper uses 50).
    pub runs: usize,
    /// `|M|` for query experiments.
    pub m: usize,
    /// Knobs for the `soak` experiment.
    pub soak: crate::soak::SoakConfig,
    /// When set, `bench_layout` exits nonzero unless v3 cold hydration
    /// of the large `corpus` engine beats rebuilding its document with
    /// `Document::from_columns` (the CI latency gate).
    pub assert_hydration: bool,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            runs: 5,
            m: DEFAULT_M,
            soak: crate::soak::SoakConfig::default(),
            assert_hydration: false,
        }
    }
}

/// Nodes in the single large `corpus` document of `bench_layout` and
/// `bench_exec`.
const CORPUS_NODES: usize = 200_000;

/// The τ sweep used by Fig 9(a)/(b).
const TAU_SWEEP: [f64; 11] = [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Table II: dataset statistics, paper vs measured.
pub fn table2(cfg: &ReproConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table II — schema matching datasets (paper → measured)\n\
         {:<4} {:>5} {:>5} {:>4}  {:>9} {:>9}  {:>8} {:>8}",
        "ID", "|S|", "|T|", "opt", "Cap(ppr)", "Cap(msr)", "o-r(ppr)", "o-r(msr)"
    );
    for id in DatasetId::all() {
        let d = Dataset::load(id);
        let (s, t, cap_paper, o_paper) = id.paper_row();
        let (_, _, strategy) = id.spec();
        let pm = PossibleMappings::top_h(&d.matching, cfg.m);
        let o_measured = o_ratio(&pm);
        let _ = writeln!(
            out,
            "{:<4} {:>5} {:>5} {:>4}  {:>9} {:>9}  {:>8.2} {:>8.2}",
            id.name(),
            s,
            t,
            match strategy {
                uxm_matching::MatchStrategy::Fragment => "f",
                uxm_matching::MatchStrategy::Context => "c",
            },
            cap_paper,
            d.capacity(),
            o_paper,
            o_measured,
        );
    }
    out
}

/// Fig 9(a): compression ratio vs τ (D7, |M| = 100).
pub fn fig9a(cfg: &ReproConfig) -> String {
    let w = d7_workload(cfg.m, &default_config());
    let mut out = String::from("Fig 9(a) — compression ratio vs tau (D7)\n  tau   ratio\n");
    for tau in TAU_SWEEP {
        let tree = BlockTree::build(
            &w.dataset.matching.target,
            &w.mappings,
            &BlockTreeConfig {
                tau,
                ..default_config()
            },
        );
        let ratio = compression_ratio(&w.mappings, &tree);
        let _ = writeln!(out, "{:>5.2} {:>7.2}%", tau, ratio * 100.0);
    }
    out
}

/// Fig 9(b): number of c-blocks vs τ (D7, |M| = 100).
pub fn fig9b(cfg: &ReproConfig) -> String {
    let w = d7_workload(cfg.m, &default_config());
    let mut out = String::from("Fig 9(b) — #c-blocks vs tau (D7)\n  tau  blocks\n");
    for tau in TAU_SWEEP {
        let tree = BlockTree::build(
            &w.dataset.matching.target,
            &w.mappings,
            &BlockTreeConfig {
                tau,
                max_blocks: 5000,
                max_failures: 5000,
            },
        );
        let _ = writeln!(out, "{:>5.2} {:>7}", tau, tree.block_count());
    }
    out
}

/// Fig 9(c): distribution of c-block sizes (D7 defaults).
pub fn fig9c(cfg: &ReproConfig) -> String {
    let w = d7_workload(cfg.m, &default_config());
    let hist = block_size_histogram(&w.tree);
    let target = &w.dataset.matching.target;
    let mut out =
        String::from("Fig 9(c) — c-block size distribution (D7)\n  size  frac-of-T  count\n");
    for (size, &count) in hist.iter().enumerate() {
        if count > 0 {
            let _ = writeln!(
                out,
                "{:>5} {:>9.3} {:>6}",
                size,
                size as f64 / target.len() as f64,
                count
            );
        }
    }
    let _ = writeln!(
        out,
        "blocks: {}   avg size: {:.2}   largest covers {:.1}% of target nodes",
        w.tree.block_count(),
        avg_block_size(&w.tree),
        max_block_coverage(&w.tree, target) * 100.0
    );
    let multi = w.tree.blocks().iter().filter(|b| b.len() > 1).count();
    let _ = writeln!(
        out,
        "blocks larger than one correspondence: {:.0}%",
        100.0 * multi as f64 / w.tree.block_count().max(1) as f64
    );
    out
}

/// Fig 9(d): block-tree construction time per dataset, |M| ∈ {100, 200}.
pub fn fig9d(cfg: &ReproConfig) -> String {
    let mut out = String::from("Fig 9(d) — construction time Tc (s)\n  ID    |M|=100   |M|=200\n");
    for id in DatasetId::all() {
        let d = Dataset::load(id);
        let mut cells = Vec::new();
        for m in [100usize, 200] {
            let pm = PossibleMappings::top_h(&d.matching, m);
            let tc = time_avg(cfg.runs, || {
                let tree = BlockTree::build(&d.matching.target, &pm, &default_config());
                let _ = uxm_core::compress::compress(&pm, &tree);
                std::hint::black_box(tree.block_count());
            });
            cells.push(tc);
        }
        let _ = writeln!(out, "{:<5} {:>8.4} {:>9.4}", id.name(), cells[0], cells[1]);
    }
    out
}

/// Fig 9(e): construction time vs MAX_B (D7).
pub fn fig9e(cfg: &ReproConfig) -> String {
    let d = Dataset::load(DatasetId::D7);
    let pm = PossibleMappings::top_h(&d.matching, cfg.m);
    let mut out = String::from("Fig 9(e) — Tc vs MAX_B (D7)\n  MAX_B      Tc(s)  blocks\n");
    for max_b in [20, 60, 100, 160, 200, 260, 300] {
        let config = BlockTreeConfig {
            max_blocks: max_b,
            ..default_config()
        };
        let mut blocks = 0;
        let tc = time_avg(cfg.runs, || {
            let tree = BlockTree::build(&d.matching.target, &pm, &config);
            blocks = tree.block_count();
        });
        let _ = writeln!(out, "{:>7} {:>10.4} {:>7}", max_b, tc, blocks);
    }
    out
}

/// Mean seconds per `engine.run(query)` over `runs` runs. The engine
/// memoizes nothing for the recursive evaluators, so every run of a
/// query pinned to Algorithm 3 or 4 recomputes all of its work.
fn time_query(runs: usize, engine: &QueryEngine, query: &Query) -> f64 {
    time_avg(runs, || {
        std::hint::black_box(engine.run(query).expect("valid query").len());
    })
}

/// Fig 9(f) / Fig 10(a): per-query time, basic vs block-tree, plus the
/// served plan on a warm `QueryEngine` (the auto plan, which compiles
/// and runs its program — the reproduction's service-layer extension).
pub fn fig9f_10a(cfg: &ReproConfig, m: usize) -> String {
    let w = d7_workload(m, &default_config());
    let engine = w.engine();
    let queries = paper_queries();
    let mut out = format!(
        "Fig {} — query time Tq (s), |M| = {m}\n  Q     basic  block-tree   speedup  engine(warm)\n",
        if m <= DEFAULT_M { "9(f)" } else { "10(a)" }
    );
    let mut total_basic = 0.0;
    let mut total_tree = 0.0;
    let mut total_engine = 0.0;
    for (i, q) in queries.iter().enumerate() {
        let basic_query = Query::ptq(q.clone()).with_evaluator(EvaluatorHint::Naive);
        let tree_query = Query::ptq(q.clone()).with_evaluator(EvaluatorHint::BlockTree);
        let served = Query::ptq(q.clone());
        let tb = time_query(cfg.runs, &engine, &basic_query);
        let tt = time_query(cfg.runs, &engine, &tree_query);
        // One untimed run first, so no timed run pays first-touch faults.
        std::hint::black_box(engine.run(&served).expect("valid query").len());
        let te = time_query(cfg.runs, &engine, &served);
        total_basic += tb;
        total_tree += tt;
        total_engine += te;
        let _ = writeln!(
            out,
            "  Q{:<3} {:>7.4} {:>10.4} {:>8.1}% {:>12.4}",
            i + 1,
            tb,
            tt,
            (1.0 - tt / tb) * 100.0,
            te
        );
    }
    let _ = writeln!(
        out,
        "  avg  {:>7.4} {:>10.4} {:>8.1}% {:>12.4}",
        total_basic / 10.0,
        total_tree / 10.0,
        (1.0 - total_tree / total_basic) * 100.0,
        total_engine / 10.0
    );
    out
}

/// Fig 10(b): Q10 time vs τ (block-tree algorithm).
pub fn fig10b(cfg: &ReproConfig) -> String {
    let w = d7_workload(cfg.m, &default_config());
    let q10 = Query::ptq(paper_queries()[9].clone()).with_evaluator(EvaluatorHint::BlockTree);
    let mut out = String::from("Fig 10(b) — Tq vs tau (D7, Q10, block-tree)\n  tau      Tq(s)\n");
    for tau in [0.02, 0.12, 0.22, 0.32, 0.42, 0.52, 0.65] {
        let tree = BlockTree::build(
            &w.dataset.matching.target,
            &w.mappings,
            &BlockTreeConfig {
                tau,
                ..default_config()
            },
        );
        let engine = QueryEngine::new(w.mappings.clone(), w.doc.clone(), tree);
        let tq = time_query(cfg.runs, &engine, &q10);
        let _ = writeln!(out, "{:>5.2} {:>10.4}", tau, tq);
    }
    out
}

/// Fig 10(c): Q10 time vs |M|, basic vs block-tree.
pub fn fig10c(cfg: &ReproConfig) -> String {
    let q10 = &paper_queries()[9];
    let basic = Query::ptq(q10.clone()).with_evaluator(EvaluatorHint::Naive);
    let block_tree = Query::ptq(q10.clone()).with_evaluator(EvaluatorHint::BlockTree);
    let mut out = String::from("Fig 10(c) — Tq vs |M| (D7, Q10)\n   |M|    basic  block-tree\n");
    for m in [30, 50, 70, 100, 140, 200] {
        let engine = d7_workload(m, &default_config()).engine();
        let tb = time_query(cfg.runs, &engine, &basic);
        let tt = time_query(cfg.runs, &engine, &block_tree);
        let _ = writeln!(out, "{:>6} {:>8.4} {:>10.4}", m, tb, tt);
    }
    out
}

/// Fig 10(d): top-k PTQ time vs k (D7, Q10), both with the block tree.
pub fn fig10d(cfg: &ReproConfig) -> String {
    let engine = d7_workload(cfg.m, &default_config()).engine();
    let q10 = &paper_queries()[9];
    let block_tree = Query::ptq(q10.clone()).with_evaluator(EvaluatorHint::BlockTree);
    let normal = time_query(cfg.runs, &engine, &block_tree);
    let mut out = String::from("Fig 10(d) — top-k PTQ vs k (D7, Q10)\n    k     top-k    normal\n");
    for k in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
        let topk = Query::topk(q10.clone(), k).with_evaluator(EvaluatorHint::BlockTree);
        let tk = time_query(cfg.runs, &engine, &topk);
        let _ = writeln!(out, "{:>5} {:>9.4} {:>9.4}", k, tk, normal);
    }
    out
}

/// Fig 10(e): top-h generation time per dataset, murty vs partition
/// (h = 100). Also reports the partition count, which the paper cites
/// (23 for D3 up to 966 for D7).
pub fn fig10e(cfg: &ReproConfig) -> String {
    let mut out = String::from(
        "Fig 10(e) — generation time Tg (s), h = 100\n  ID     murty  partition  #parts   improve\n",
    );
    for id in DatasetId::all() {
        let d = Dataset::load(id);
        let parts = partition(&d.matching).len();
        let tm = time_avg(cfg.runs.min(3), || {
            std::hint::black_box(
                murty_top_h_mappings(&d.matching, 100, RankVariant::PascoalLazy).len(),
            );
        });
        let tp = time_avg(cfg.runs.min(3), || {
            std::hint::black_box(
                partition_top_h_with(&d.matching, 100, RankVariant::PascoalLazy).len(),
            );
        });
        let _ = writeln!(
            out,
            "{:<5} {:>8.4} {:>10.4} {:>7} {:>8.1}%",
            id.name(),
            tm,
            tp,
            parts,
            (1.0 - tp / tm) * 100.0
        );
    }
    out
}

/// Fig 10(f): generation time vs h on D1, murty vs partition.
pub fn fig10f(cfg: &ReproConfig) -> String {
    let d = Dataset::load(DatasetId::D1);
    let mut out = String::from("Fig 10(f) — Tg vs h (D1)\n     h     murty  partition   improve\n");
    for h in [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000] {
        let tm = time_avg(cfg.runs.min(3), || {
            std::hint::black_box(
                murty_top_h_mappings(&d.matching, h, RankVariant::PascoalLazy).len(),
            );
        });
        let tp = time_avg(cfg.runs.min(3), || {
            std::hint::black_box(
                partition_top_h_with(&d.matching, h, RankVariant::PascoalLazy).len(),
            );
        });
        let _ = writeln!(
            out,
            "{:>6} {:>9.4} {:>10.4} {:>9.1}%",
            h,
            tm,
            tp,
            (1.0 - tp / tm) * 100.0
        );
    }
    out
}

/// Ablations for the design choices called out in DESIGN.md §6.
pub fn ablation(cfg: &ReproConfig) -> String {
    use uxm_twig::structural_join::{nested_loop_join, structural_join};
    use uxm_twig::Axis;

    let mut out = String::from("Ablations\n");

    // 1. Eager Murty vs Pascoal lazy evaluation (D4, h = 200).
    let d = Dataset::load(DatasetId::D4);
    let te = time_avg(cfg.runs.min(3), || {
        std::hint::black_box(murty_top_h_mappings(&d.matching, 200, RankVariant::MurtyEager).len());
    });
    let tl = time_avg(cfg.runs.min(3), || {
        std::hint::black_box(
            murty_top_h_mappings(&d.matching, 200, RankVariant::PascoalLazy).len(),
        );
    });
    let _ = writeln!(
        out,
        "  murty eager vs lazy (D4, h=200): {te:.4}s vs {tl:.4}s ({:+.1}%)",
        (1.0 - tl / te) * 100.0
    );

    // 2. Lazy heap merge vs eager product merge.
    {
        use uxm_assignment::merge::{merge_top_h, merge_top_h_eager, RankedMapping};
        let mk = |n: usize| -> Vec<RankedMapping> {
            (0..n)
                .map(|i| RankedMapping {
                    pairs: vec![],
                    score: 1.0 / (i + 1) as f64,
                })
                .collect()
        };
        let (a, b) = (mk(1000), mk(1000));
        let t_lazy = time_avg(cfg.runs, || {
            std::hint::black_box(merge_top_h(&a, &b, 1000).len());
        });
        let t_eager = time_avg(cfg.runs, || {
            std::hint::black_box(merge_top_h_eager(&a, &b, 1000).len());
        });
        let _ = writeln!(
            out,
            "  merge lazy vs eager (1000x1000, h=1000): {t_lazy:.4}s vs {t_eager:.4}s"
        );
    }

    // 3. Stack-based structural join vs nested loop, on the two most
    //    frequent document labels (the hot case in Algorithm 4).
    {
        let w = d7_workload(10, &default_config());
        let doc = &w.doc;
        let root = doc.root();
        let mut by_freq: Vec<(usize, String)> = (0..doc.label_count() as u32)
            .map(uxm_xml::LabelId)
            .map(|l| {
                (
                    doc.nodes_with_label_id(l).len(),
                    doc.label_name(l).to_string(),
                )
            })
            .collect();
        by_freq.sort_by_key(|x| std::cmp::Reverse(x.0));
        let a: Vec<_> = std::iter::once(root)
            .chain(doc.children(root).iter().copied())
            .collect();
        let b: Vec<_> = doc.nodes_with_label(&by_freq[0].1).to_vec();
        let t_stack = time_avg(cfg.runs * 10, || {
            std::hint::black_box(structural_join(doc, &a, &b, Axis::Descendant).len());
        });
        let t_nested = time_avg(cfg.runs * 10, || {
            std::hint::black_box(nested_loop_join(doc, &a, &b, Axis::Descendant).len());
        });
        let _ = writeln!(
            out,
            "  structural join stack vs nested-loop ({}x{}): {t_stack:.6}s vs {t_nested:.6}s",
            a.len(),
            b.len()
        );
    }

    // 4. Block-tree construction with Lemma 2 pruning statistics.
    {
        let w = d7_workload(DEFAULT_M, &default_config());
        let _ = writeln!(
            out,
            "  lemma-2 skips during D7 build: {} (of {} target nodes)",
            w.tree.stats.lemma2_skips,
            w.dataset.matching.target.len()
        );
    }
    out
}

/// The columnar-layout benchmark behind `BENCH_layout.json`: for every
/// Table II dataset plus one 200k-node `corpus` document (the soak
/// schema family, bigger than any paper dataset), the engine's resident
/// per-component footprint, the snapshot size, hydration (decode)
/// latency, and the warm 10-query latency through the unified
/// `QueryEngine::run` path. Writes `BENCH_layout.json` (canonical JSON)
/// into the current directory and returns a printable summary. With
/// [`ReproConfig::assert_hydration`] the run exits nonzero unless
/// hydrating the whole `corpus` engine beats rebuilding its document
/// alone with `Document::from_columns` — the `soak-smoke` CI latency
/// gate.
pub fn bench_layout(cfg: &ReproConfig) -> String {
    use uxm_core::storage::{decode_engine_snapshot, encode_engine_snapshot};
    let queries = paper_queries();
    let mut out = format!(
        "BENCH_layout — columnar arena + snapshot v3, |M| = {}\n  \
         ID      resident   v3 bytes   hydrate   warm 10q\n",
        cfg.m
    );
    let mut rows = Vec::new();
    let mut gate = None;
    let engines = DatasetId::all()
        .into_iter()
        .map(|id| {
            let w = workload_for(id, cfg.m, &default_config());
            (id.name().to_string(), w.engine())
        })
        .chain(std::iter::once((
            "corpus".to_string(),
            crate::soak::corpus_engine(CORPUS_NODES),
        )));
    for (name, engine) in engines {
        let v3 = encode_engine_snapshot(&engine);
        let hydrate = time_avg(cfg.runs, || {
            std::hint::black_box(
                decode_engine_snapshot(&v3)
                    .expect("snapshot decodes")
                    .approx_bytes(),
            );
        });
        if name == "corpus" {
            gate = Some((hydrate, rebuild_document_s(engine.document(), cfg.runs)));
        }
        let fp = engine.footprint();
        let typed: Vec<Query> = queries.iter().map(|q| Query::ptq(q.clone())).collect();
        for q in &typed {
            std::hint::black_box(engine.run(q).expect("valid query").len());
        }
        let warm = time_avg(cfg.runs, || {
            for q in &typed {
                std::hint::black_box(engine.run(q).expect("valid query").len());
            }
        });
        let _ = writeln!(
            out,
            "  {:<6} {:>9} B {:>10} {:>8.4}s {:>9.4}s",
            name,
            fp.total(),
            v3.len(),
            hydrate,
            warm,
        );
        rows.push(Json::Obj(vec![
            ("hydrate_s".into(), Json::Num(hydrate)),
            ("id".into(), Json::str(&name)),
            (
                "resident_bytes".into(),
                Json::Obj(vec![
                    ("block_tree".into(), Json::uint(fp.block_tree as u64)),
                    ("document".into(), Json::uint(fp.document as u64)),
                    ("mappings".into(), Json::uint(fp.mappings as u64)),
                    ("path_index".into(), Json::uint(fp.path_index as u64)),
                    ("schemas".into(), Json::uint(fp.schemas as u64)),
                    ("session".into(), Json::uint(fp.session as u64)),
                    ("total".into(), Json::uint(fp.total() as u64)),
                ]),
            ),
            ("snapshot_bytes".into(), Json::uint(v3.len() as u64)),
            ("warm_query_s".into(), Json::Num(warm)),
        ]));
    }
    let (v3_s, rebuild_s) = gate.expect("corpus row ran");
    let report = Json::Obj(vec![
        ("corpus_from_columns_s".into(), Json::Num(rebuild_s)),
        ("datasets".into(), Json::Arr(rows)),
        ("m".into(), Json::uint(cfg.m as u64)),
        ("queries".into(), Json::uint(queries.len() as u64)),
        ("runs".into(), Json::uint(cfg.runs as u64)),
    ]);
    let path = "BENCH_layout.json";
    match std::fs::write(path, format!("{report}\n")) {
        Ok(()) => {
            let _ = writeln!(out, "wrote {path}");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write {path}: {e}");
        }
    }
    let verdict = format!("corpus v3 {v3_s:.4}s vs from_columns {rebuild_s:.4}s");
    if cfg.assert_hydration {
        if v3_s < rebuild_s {
            let _ = writeln!(out, "hydration gate PASS: {verdict}");
        } else {
            println!("{out}");
            eprintln!("hydration gate FAIL: {verdict}");
            std::process::exit(1);
        }
    }
    out
}

/// Mean seconds for `Document::from_columns` to rebuild `doc` from its
/// primary columns, deriving post-order ranks, levels and both CSR
/// indexes — the work a v2 snapshot decode did on top of varint
/// parsing. Only the constructor is timed, not the input clones.
fn rebuild_document_s(doc: &Document, runs: usize) -> f64 {
    let c = doc.raw_columns();
    let labels: Vec<LabelId> = c.labels.iter().map(|&l| LabelId(l)).collect();
    let counts: Vec<u32> = c.attr_offsets.windows(2).map(|w| w[1] - w[0]).collect();
    let mut total = 0.0;
    for _ in 0..runs {
        let (names, labels, parents) = (c.label_names.to_vec(), labels.clone(), c.parents.to_vec());
        let (text, spans) = (c.text_buf.to_string(), c.text_spans.to_vec());
        let (attrs, counts, aspans) = (c.attr_buf.into(), counts.clone(), c.attr_spans.to_vec());
        let start = std::time::Instant::now();
        let rebuilt =
            Document::from_columns(names, labels, parents, text, spans, attrs, counts, aspans);
        total += start.elapsed().as_secs_f64();
        std::hint::black_box(rebuilt.expect("a live document's columns are valid").len());
    }
    total / runs as f64
}

/// The execution benchmark behind `BENCH_exec.json`, and the evidence
/// for the planner's per-kind defaults (`uxm_core::planner`). For every
/// Table II dataset (the paper's 10 queries) plus one 200k-node
/// `corpus` document (the soak schema family, timed on its own target
/// patterns), each query kind — `ptq`, `ptq_nodes`, `topk` and `count`
/// aggregates — runs on one warm engine pinned to each backend, each
/// timed once. Auto runs exactly what the backend [`planner::choose`]
/// picks for the kind runs, so auto's cell is that backend's cell, and
/// a row's `auto_over_best` — auto's latency over the fastest
/// backend's, per kind — measures the plan table, not the noise between
/// two timings of one program. A compiled cell includes compiling the
/// program, which every compiled run does. Writes `BENCH_exec.json`
/// (canonical JSON, see `uxm_core::json`) into the current directory
/// and returns a printable summary.
pub fn bench_exec(cfg: &ReproConfig) -> String {
    /// The `corpus` row's workload: target-schema twigs of the soak
    /// schema family.
    const CORPUS_QUERIES: [&str; 6] = [
        "//Qty",
        "//PName",
        "//Ref",
        "PO//Amount",
        "PO/Line[./Qty]/Amount",
        "PO/Purchaser//PEMail",
    ];
    /// `k` of the `topk` kind.
    const TOPK: usize = 5;
    /// Rows whose `auto_over_best` the summary checks against
    /// `AUTO_BOUND`; the µs-scale Table II rows are reported only.
    const GATED: [&str; 2] = ["D7", "corpus"];
    const AUTO_BOUND: f64 = 1.10;
    let kinds = [
        ("ptq", QueryKind::Ptq),
        ("ptq_nodes", QueryKind::PtqNodes),
        ("topk", QueryKind::TopK),
        ("count", QueryKind::Aggregate),
    ];
    let make = |kind: &str, q: &TwigPattern| match kind {
        "ptq" => Query::ptq(q.clone()),
        "ptq_nodes" => Query::ptq_nodes(q.clone()),
        "topk" => Query::topk(q.clone(), TOPK),
        _ => Query::aggregate(q.clone(), AggFunc::Count),
    };
    let hints = [
        ("compiled", EvaluatorHint::Compiled),
        ("naive", EvaluatorHint::Naive),
        ("block_tree", EvaluatorHint::BlockTree),
    ];
    let mut out = format!(
        "BENCH_exec — per-row workload latency (s) by query kind, |M| = {}, warm engine\n  \
         ID     kind            auto   compiled      naive  block-tree   auto/best\n",
        cfg.m
    );
    let corpus_queries: Vec<TwigPattern> = CORPUS_QUERIES
        .iter()
        .map(|p| TwigPattern::parse(p).expect("corpus twig"))
        .collect();
    let table2 = DatasetId::all().into_iter().map(|id| {
        let w = workload_for(id, cfg.m, &default_config());
        (id.name().to_string(), w.engine(), paper_queries())
    });
    let corpus = std::iter::once_with(|| {
        (
            "corpus".to_string(),
            crate::soak::corpus_engine(CORPUS_NODES),
            corpus_queries.clone(),
        )
    });
    let mut rows = Vec::new();
    let mut worst_gated = 0.0f64;
    for (name, engine, queries) in table2.chain(corpus) {
        let mut latency = Vec::new();
        let mut ratios = Vec::new();
        for (kind, query_kind) in kinds {
            let pinned: Vec<(&str, Vec<Query>)> = hints
                .iter()
                .map(|&(hint_name, hint)| {
                    let qs = queries
                        .iter()
                        .map(|q| make(kind, q).with_evaluator(hint))
                        .collect();
                    (hint_name, qs)
                })
                .collect();
            // Warm every backend before timing any of them, so each cell
            // runs against equally hot data and no backend pays
            // first-touch page faults inside its timing.
            for (_, qs) in &pinned {
                for q in qs {
                    std::hint::black_box(engine.run(q).expect("valid query").len());
                }
            }
            // Take many short samples, interleaved across cells and
            // rotating which cell goes first, and keep each cell's minimum:
            // on a shared host, noise comes in episodes longer than a
            // sample, and the minimum picks a quiet window. Each sample
            // runs the workload `INNER` times so the timer itself stays
            // below the noise floor.
            const INNER: usize = 16;
            let rounds = 5 * cfg.runs;
            let mut cells: Vec<(&str, f64)> = pinned.iter().map(|&(n, _)| (n, f64::MAX)).collect();
            for round in 0..rounds {
                for i in 0..cells.len() {
                    let c = (i + round) % cells.len();
                    let qs = &pinned[c].1;
                    let t = time_avg(INNER, || {
                        for q in qs {
                            std::hint::black_box(engine.run(q).expect("valid query").len());
                        }
                    });
                    cells[c].1 = cells[c].1.min(t);
                }
            }
            let best = cells.iter().map(|c| c.1).fold(f64::MAX, f64::min);
            let plan = |hint| planner::choose(hint, query_kind).evaluator;
            let auto_cell = hints
                .iter()
                .position(|&(_, hint)| plan(hint) == plan(EvaluatorHint::Auto))
                .expect("auto picks one of the timed backends");
            let auto = cells[auto_cell].1;
            let ratio = auto / best.max(1e-12);
            if GATED.contains(&name.as_str()) {
                worst_gated = worst_gated.max(ratio);
            }
            let _ = writeln!(
                out,
                "  {:<6} {:<9} {:>10.6} {:>10.6} {:>10.6} {:>11.6}   {:.2}x",
                name, kind, auto, cells[0].1, cells[1].1, cells[2].1, ratio,
            );
            cells.push(("auto", auto));
            cells.sort_by(|a, b| a.0.cmp(b.0));
            latency.push((
                kind.to_string(),
                Json::Obj(
                    cells
                        .iter()
                        .map(|&(n, t)| (n.into(), Json::Num(t)))
                        .collect(),
                ),
            ));
            ratios.push((kind.to_string(), Json::Num(ratio)));
        }
        latency.sort_by(|a, b| a.0.cmp(&b.0));
        ratios.sort_by(|a, b| a.0.cmp(&b.0));
        rows.push(Json::Obj(vec![
            ("auto_over_best".into(), Json::Obj(ratios)),
            ("id".into(), Json::str(&name)),
            ("latency_s".into(), Json::Obj(latency)),
            ("queries".into(), Json::uint(queries.len() as u64)),
        ]));
    }
    let _ = writeln!(
        out,
        "  auto/best on {}: worst {worst_gated:.2}x ({} {AUTO_BOUND:.2}x)",
        GATED.join(" + "),
        if worst_gated <= AUTO_BOUND {
            "within"
        } else {
            "OVER"
        },
    );

    let report = Json::Obj(vec![
        ("datasets".into(), Json::Arr(rows)),
        ("m".into(), Json::uint(cfg.m as u64)),
        ("runs".into(), Json::uint(cfg.runs as u64)),
        ("topk_k".into(), Json::uint(TOPK as u64)),
    ]);
    let path = "BENCH_exec.json";
    match std::fs::write(path, format!("{report}\n")) {
        Ok(()) => {
            let _ = writeln!(out, "wrote {path}");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write {path}: {e}");
        }
    }
    out
}

/// The predicate benchmark behind `BENCH_predicate.json`: a
/// **selectivity sweep** on D7 — numeric thresholds placed at the
/// quantiles of the document's numeric text values drive the match
/// fraction of `//*[.>=T]` from everything to nothing, and each point
/// is timed under the compiled bytecode backend and the naive
/// recursive evaluator on one warm engine. Also times the four
/// aggregate functions over the median-selectivity predicate. Writes
/// `BENCH_predicate.json` (canonical JSON) and returns a printable
/// summary.
pub fn bench_predicates(cfg: &ReproConfig) -> String {
    let w = workload_for(DatasetId::D7, cfg.m, &default_config());
    let engine = w.engine();
    let doc = engine.document();

    // Thresholds at the quantiles of the numeric text values, so the
    // sweep tracks the generated distribution instead of guessing it.
    let mut values: Vec<f64> = doc
        .ids()
        .filter_map(|n| doc.text(n))
        .filter_map(|t| t.trim().parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let quantile = |q: f64| -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        values[((values.len() - 1) as f64 * q) as usize]
    };
    let points: Vec<(String, String)> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&q| {
            (
                format!("q{:02}", (q * 100.0) as u32),
                format!("//*[.>={}]", quantile(q)),
            )
        })
        .chain(std::iter::once((
            "none".to_string(),
            format!("//*[.>{}]", quantile(1.0)),
        )))
        .collect();

    // Baseline match volume (no predicate) for observed selectivity.
    let total: usize = engine
        .run(&Query::ptq(TwigPattern::parse("//*").expect("wildcard")))
        .expect("valid query")
        .answers
        .iter()
        .map(|a| a.matches.len())
        .sum();

    let mut out = format!(
        "BENCH_predicate — selectivity sweep on D7, |M| = {}, warm engine\n  \
         point   selectivity  compiled(s)  naive(s)\n",
        cfg.m
    );
    let mut rows = Vec::new();
    const INNER: usize = 8;
    for (name, form) in &points {
        let pattern = TwigPattern::parse(form).expect("sweep pattern");
        let matched: usize = engine
            .run(&Query::ptq(pattern.clone()))
            .expect("valid query")
            .answers
            .iter()
            .map(|a| a.matches.len())
            .sum();
        let selectivity = matched as f64 / (total.max(1)) as f64;
        let mut cells = [
            ("compiled", EvaluatorHint::Compiled, f64::MAX),
            ("naive", EvaluatorHint::Naive, f64::MAX),
        ];
        // Warm both backends, then interleave timed repetitions and keep
        // the minimum (same discipline as `bench_exec`).
        for (_, hint, _) in &cells {
            let q = Query::ptq(pattern.clone()).with_evaluator(*hint);
            std::hint::black_box(engine.run(&q).expect("valid query").len());
        }
        for _ in 0..3 {
            for (_, hint, best) in &mut cells {
                let q = Query::ptq(pattern.clone()).with_evaluator(*hint);
                let t = time_avg(cfg.runs, || {
                    for _ in 0..INNER {
                        std::hint::black_box(engine.run(&q).expect("valid query").len());
                    }
                });
                *best = best.min(t / INNER as f64);
            }
        }
        let _ = writeln!(
            out,
            "  {:<7} {:>10.3}   {:>9.5} {:>9.5}",
            name, selectivity, cells[0].2, cells[1].2,
        );
        rows.push(Json::Obj(vec![
            (
                "latency_s".into(),
                Json::Obj(vec![
                    ("compiled".into(), Json::Num(cells[0].2)),
                    ("naive".into(), Json::Num(cells[1].2)),
                ]),
            ),
            ("pattern".into(), Json::str(form)),
            ("point".into(), Json::str(name)),
            ("selectivity".into(), Json::Num(selectivity)),
        ]));
    }

    // Aggregates over the median-selectivity predicate: the fold rides
    // the same match stream, so the delta vs the plain PTQ is the
    // aggregation overhead.
    let median = TwigPattern::parse(&points[2].1).expect("median pattern");
    let mut agg_rows = Vec::new();
    let mut agg_text = String::new();
    for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
        let q = Query::aggregate(median.clone(), func);
        std::hint::black_box(engine.run(&q).expect("valid query").len());
        let t = time_avg(cfg.runs, || {
            for _ in 0..INNER {
                std::hint::black_box(engine.run(&q).expect("valid query").len());
            }
        }) / INNER as f64;
        let _ = write!(agg_text, " {func}={t:.5}s");
        agg_rows.push((func.wire_name().to_string(), Json::Num(t)));
    }
    let _ = writeln!(out, "  aggregates over {}:{agg_text}", points[2].1);

    let report = Json::Obj(vec![
        ("aggregate_latency_s".into(), Json::Obj(agg_rows)),
        ("dataset".into(), Json::str(DatasetId::D7.name())),
        ("m".into(), Json::uint(cfg.m as u64)),
        ("points".into(), Json::Arr(rows)),
        ("runs".into(), Json::uint(cfg.runs as u64)),
        ("total_matches".into(), Json::uint(total as u64)),
    ]);
    let path = "BENCH_predicate.json";
    match std::fs::write(path, format!("{report}\n")) {
        Ok(()) => {
            let _ = writeln!(out, "wrote {path}");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write {path}: {e}");
        }
    }
    out
}

/// All experiment ids accepted by the `repro` binary.
pub const EXPERIMENTS: [&str; 19] = [
    "table2",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig9d",
    "fig9e",
    "fig9f",
    "fig10a",
    "fig10b",
    "fig10c",
    "fig10d",
    "fig10e",
    "fig10f",
    "bench_layout",
    "bench_exec",
    "bench_predicates",
    "ablation",
    "soak",
    "shard",
];

/// Runs one experiment by id.
pub fn run_experiment(id: &str, cfg: &ReproConfig) -> Option<String> {
    Some(match id {
        "table2" => table2(cfg),
        "fig9a" => fig9a(cfg),
        "fig9b" => fig9b(cfg),
        "fig9c" => fig9c(cfg),
        "fig9d" => fig9d(cfg),
        "fig9e" => fig9e(cfg),
        "fig9f" => fig9f_10a(cfg, cfg.m),
        "fig10a" => fig9f_10a(cfg, 500),
        "fig10b" => fig10b(cfg),
        "fig10c" => fig10c(cfg),
        "fig10d" => fig10d(cfg),
        "fig10e" => fig10e(cfg),
        "fig10f" => fig10f(cfg),
        "bench_layout" => bench_layout(cfg),
        "bench_exec" => bench_exec(cfg),
        "bench_predicates" => bench_predicates(cfg),
        "ablation" => ablation(cfg),
        "soak" => crate::soak::soak(&cfg.soak),
        "shard" => crate::shard::shard_bench(&cfg.soak),
        _ => return None,
    })
}
