//! Criterion benches for Fig 9(f)/10(a)–(d) on the `QueryEngine` session
//! layer: one warm engine session serving repeated block-tree and top-k
//! queries from its interned labels and relevance bitsets. The basic vs
//! block-tree timings of the figures themselves come from `repro fig9f` /
//! `fig10a`–`fig10d`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uxm_bench::workload::{d7_workload, default_config};
use uxm_core::api::{EvaluatorHint, Query};
use uxm_datagen::queries::paper_queries;

fn bench_query(c: &mut Criterion) {
    let w = d7_workload(100, &default_config());
    // One shared session for every engine benchmark: caches are keyed by
    // query string, so sharing changes nothing except setup cost.
    let engine = w.engine();
    let tree_queries: Vec<Query> = paper_queries()
        .into_iter()
        .map(|q| Query::ptq(q).with_evaluator(EvaluatorHint::BlockTree))
        .collect();
    let run = |q: &Query| engine.run(q).expect("valid query").len();

    let mut g = c.benchmark_group("fig10_query");
    g.sample_size(10);

    // Representative queries: Q2 (linear), Q7 (the paper's default), Q10
    // (the sweep query).
    for qi in [2usize, 7, 10] {
        let q = &tree_queries[qi - 1];
        // Engine, warm session: the repeated-query workload. The call in
        // the setup warms the caches; every timed iteration is then a
        // cache-served evaluation.
        std::hint::black_box(run(q));
        g.bench_with_input(
            BenchmarkId::new("engine_warm", format!("Q{qi}")),
            q,
            |b, q| {
                b.iter(|| std::hint::black_box(run(q)));
            },
        );
    }

    // Fig 10(d): top-k at k = 10 on Q10.
    let topk = Query::topk(paper_queries()[9].clone(), 10);
    std::hint::black_box(run(&topk));
    g.bench_function("engine_topk_k10_Q10", |b| {
        b.iter(|| std::hint::black_box(run(&topk)));
    });

    // The whole 10-query paper workload served twice over — the
    // repeated-query service scenario the engine targets.
    g.bench_function("engine_session_q1_q10_x2", |b| {
        b.iter(|| {
            let mut n = 0;
            for q in &tree_queries {
                n += run(q);
                n += run(q);
            }
            std::hint::black_box(n)
        });
    });

    g.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
