//! The sharding differential harness: a [`Router`] over N shard
//! registries must be **observably identical** to one big single
//! registry — same `answers` subtrees for `/query`, same per-item
//! results in `/batch` (in request order), byte-exact `/topk` and
//! `/aggregate` bodies including cross-shard score ties, and the same
//! status and body for typed errors — across all 10 Table II datasets
//! at 1, 2, and 4 shards.
//!
//! Everything runs over real sockets: a reference `Server` on a single
//! registry and a router front, both hydrating from the same snapshot
//! directory, driven by the same wire-format requests. Only the
//! `answers` subtree is compared for `/query`/`/batch` (execution
//! stats legitimately differ per process); `/topk` bodies carry no
//! stats and are compared whole, byte for byte.

use std::path::PathBuf;
use std::sync::Arc;

use uxm::core::aggregate::AggFunc;
use uxm::core::api::Query;
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::engine::QueryEngine;
use uxm::core::json::Json;
use uxm::core::mapping::PossibleMappings;
use uxm::core::registry::{BatchQuery, EngineRegistry};
use uxm::core::router::{Router, RouterConfig};
use uxm::core::server::{Client, Server, ServerConfig, ServerHandle};
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::datagen::queries::paper_queries;
use uxm::twig::TwigPattern;
use uxm::xml::{DocGenConfig, Document};

/// One dataset's engine, sized to keep a 10-dataset × 3-ring sweep
/// affordable in debug builds.
fn dataset_engine(id: DatasetId) -> QueryEngine {
    let d = Dataset::load(id);
    let pm = PossibleMappings::top_h(&d.matching, 12);
    let doc = Document::generate(
        &d.matching.source,
        &DocGenConfig {
            target_nodes: 300,
            max_repeat: 3,
            text_prob: 0.7,
        },
        0x0D0C,
    );
    let tree = BlockTree::build(
        &d.matching.target,
        &pm,
        &BlockTreeConfig {
            tau: 0.2,
            ..BlockTreeConfig::default()
        },
    );
    QueryEngine::new(pm, doc, tree)
}

/// Snapshots all ten dataset engines (named `d1`..`d10`) into a fresh
/// directory both deployments hydrate from.
fn seed_datasets(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uxm-shard-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = EngineRegistry::new().snapshot_dir(&dir);
    for (i, id) in DatasetId::all().into_iter().enumerate() {
        registry.insert(format!("d{}", i + 1), dataset_engine(id));
    }
    registry.save_all().expect("seed snapshots");
    dir
}

fn start_single(dir: &PathBuf) -> ServerHandle {
    let registry = Arc::new(EngineRegistry::new().snapshot_dir(dir));
    Server::bind(
        registry,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind single server")
    .start()
}

fn start_router(dir: &PathBuf, shards: usize) -> (Arc<Router>, ServerHandle) {
    let router = Router::start(
        dir,
        RouterConfig {
            shards,
            ..RouterConfig::default()
        },
    )
    .expect("start router");
    let front = router
        .bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind front")
        .start();
    (router, front)
}

/// The `answers` subtree of a response body, re-rendered canonically —
/// the part that must be byte-identical across deployments.
fn answers_subtree(body: &str) -> String {
    Json::parse(body)
        .unwrap_or_else(|e| panic!("unparsable body {body:?}: {e}"))
        .get("answers")
        .unwrap_or_else(|| panic!("no answers subtree in {body}"))
        .to_string()
}

const ENGINES: [&str; 10] = ["d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10"];

/// The spot queries (1-based indices into the paper workload) the
/// per-engine sweep runs — the same picks as `engine_equivalence.rs`.
const SPOT: [usize; 3] = [2, 7, 10];

#[test]
fn router_matches_single_registry_across_datasets_and_ring_sizes() {
    let dir = seed_datasets("main");
    let single = start_single(&dir);
    let mut sc = Client::connect(single.addr()).unwrap();
    let workload = paper_queries();

    for shards in [1usize, 2, 4] {
        let (router, front) = start_router(&dir, shards);
        let mut rc = Client::connect(front.addr()).unwrap();

        // -- per-engine /query: ptq, top-k, keyword ------------------
        for name in ENGINES {
            for &qi in &SPOT {
                let pattern = workload[qi - 1].clone();
                for query in [Query::ptq(pattern.clone()), Query::topk(pattern.clone(), 5)] {
                    let (s_status, s_body) = sc.query(name, &query).unwrap();
                    let (r_status, r_body) = rc.query(name, &query).unwrap();
                    assert_eq!(s_status, r_status, "{shards} shards, {name} Q{qi}");
                    assert_eq!(s_status, 200, "{name} Q{qi}: {s_body}");
                    assert_eq!(
                        answers_subtree(&s_body),
                        answers_subtree(&r_body),
                        "{shards} shards, {name} Q{qi}: answers diverge"
                    );
                }
            }
            let kw = Query::keyword(vec!["laptop".into()]);
            let (s_status, s_body) = sc.query(name, &kw).unwrap();
            let (r_status, r_body) = rc.query(name, &kw).unwrap();
            assert_eq!((s_status, 200), (r_status, s_status));
            assert_eq!(
                answers_subtree(&s_body),
                answers_subtree(&r_body),
                "{shards} shards, {name}: keyword answers diverge"
            );

            // -- the grown grammar: predicates and wildcards route the
            //    same (single-node forms keep the sweep affordable) ----
            for form in ["//*[contains(.,'a')]", "//*[.>=0]", "//*[@id='1']"] {
                let query = Query::ptq(TwigPattern::parse(form).unwrap());
                let (s_status, s_body) = sc.query(name, &query).unwrap();
                let (r_status, r_body) = rc.query(name, &query).unwrap();
                assert_eq!((s_status, 200), (r_status, s_status), "{name} {form}");
                assert_eq!(
                    answers_subtree(&s_body),
                    answers_subtree(&r_body),
                    "{shards} shards, {name} {form}: answers diverge"
                );
            }
        }

        // -- unknown engine: same typed 404 through either front -----
        let probe = Query::ptq(TwigPattern::parse("A//B").unwrap());
        let (s_status, s_body) = sc.query("ghost", &probe).unwrap();
        let (r_status, r_body) = rc.query("ghost", &probe).unwrap();
        assert_eq!((s_status, s_body), (r_status, r_body), "{shards} shards");
        assert_eq!(s_status, 404);

        // -- /batch: interleaved engines + a failing item, spliced
        //    back in request order ----------------------------------
        let mut batch = Vec::new();
        for (i, name) in ENGINES.iter().enumerate() {
            let pattern = workload[SPOT[i % SPOT.len()] - 1].clone();
            batch.push(BatchQuery::ptq(*name, pattern.clone()));
            if i == 4 {
                batch.push(BatchQuery::ptq("ghost", pattern.clone()));
            }
            batch.push(BatchQuery::topk(*name, pattern, 3));
        }
        let (s_status, s_body) = sc.batch(&batch).unwrap();
        let (r_status, r_body) = rc.batch(&batch).unwrap();
        assert_eq!((s_status, r_status), (200, 200), "{shards} shards batch");
        let s_results = Json::parse(&s_body).unwrap();
        let r_results = Json::parse(&r_body).unwrap();
        let s_items = s_results.get("results").unwrap().as_arr().unwrap();
        let r_items = r_results.get("results").unwrap().as_arr().unwrap();
        assert_eq!(s_items.len(), batch.len());
        assert_eq!(s_items.len(), r_items.len(), "{shards} shards batch len");
        for (i, (s_item, r_item)) in s_items.iter().zip(r_items).enumerate() {
            match s_item.get("answers") {
                Some(answers) => assert_eq!(
                    answers.to_string(),
                    r_item
                        .get("answers")
                        .map(|a| a.to_string())
                        .unwrap_or_default(),
                    "{shards} shards, batch item {i} answers diverge"
                ),
                // Error items (the ghost engine) must match whole.
                None => assert_eq!(
                    s_item.to_string(),
                    r_item.to_string(),
                    "{shards} shards, batch item {i} error diverges"
                ),
            }
        }

        // -- /topk: whole-body byte-exact, default set and subset ----
        let pattern = workload[SPOT[0] - 1].clone();
        for (engines, k) in [(None, 1usize), (None, 7), (Some(vec!["d2", "d5", "d9"]), 5)] {
            let mut members = Vec::new();
            if let Some(list) = &engines {
                members.push((
                    "engines".to_string(),
                    Json::Arr(list.iter().map(|n| Json::str(*n)).collect()),
                ));
            }
            members.push((
                "query".to_string(),
                Query::topk(pattern.clone(), k).to_json(),
            ));
            let body = Json::Obj(members).to_string();
            let (s_status, s_body) = sc.post("/topk", &body).unwrap();
            let (r_status, r_body) = rc.post("/topk", &body).unwrap();
            assert_eq!(
                (s_status, r_status),
                (200, 200),
                "{shards} shards: {s_body}"
            );
            assert_eq!(
                s_body, r_body,
                "{shards} shards, k={k}, engines={engines:?}: topk body diverges"
            );
        }

        // -- /aggregate: whole-body byte-exact, default set and subset.
        //    The router recomputes the merged value from the
        //    concatenated name-ascending entries, so the fan-out must
        //    be invisible — including the fold order of the marginal.
        for (engines, func) in [
            (None, AggFunc::Count),
            (None, AggFunc::Sum),
            (Some(vec!["d2", "d5", "d9"]), AggFunc::Min),
            (Some(vec!["d1", "d10"]), AggFunc::Max),
        ] {
            let mut members = Vec::new();
            if let Some(list) = &engines {
                members.push((
                    "engines".to_string(),
                    Json::Arr(list.iter().map(|n| Json::str(*n)).collect()),
                ));
            }
            members.push((
                "query".to_string(),
                Query::aggregate(TwigPattern::parse("//*[.>=0]").unwrap(), func).to_json(),
            ));
            let body = Json::Obj(members).to_string();
            let (s_status, s_body) = sc.post("/aggregate", &body).unwrap();
            let (r_status, r_body) = rc.post("/aggregate", &body).unwrap();
            assert_eq!(
                (s_status, r_status),
                (200, 200),
                "{shards} shards: {s_body}"
            );
            assert_eq!(
                s_body, r_body,
                "{shards} shards, {func}, engines={engines:?}: aggregate body diverges"
            );
            // Entries come back name-ascending regardless of fan-out.
            let parsed = Json::parse(&r_body).unwrap();
            let entries = parsed.get("engines").unwrap().as_arr().unwrap();
            let names: Vec<&str> = entries
                .iter()
                .map(|e| e.get("engine").unwrap().as_str().unwrap())
                .collect();
            let mut ordered = names.clone();
            ordered.sort_unstable();
            assert_eq!(names, ordered, "{shards} shards, {func}: entry order");
        }

        // -- typed errors: the same status and byte-identical body
        //    through either front — an unknown name among known ones
        //    (the first missing name in sorted order), the wrong query
        //    kind, an unknown member, a batch that is not an array ----
        let topk_query = Query::topk(pattern.clone(), 3).to_json();
        let aggregate_query =
            Query::aggregate(TwigPattern::parse("//*[.>=0]").unwrap(), AggFunc::Count).to_json();
        let with_ghost = |query: &Json| {
            Json::Obj(vec![
                (
                    "engines".to_string(),
                    Json::Arr(["d2", "ghost", "d5"].map(Json::str).to_vec()),
                ),
                ("query".to_string(), query.clone()),
            ])
            .to_string()
        };
        let error_cases = [
            ("/topk", with_ghost(&topk_query), 404),
            ("/aggregate", with_ghost(&aggregate_query), 404),
            (
                "/topk",
                Json::Obj(vec![(
                    "query".to_string(),
                    Query::ptq(pattern.clone()).to_json(),
                )])
                .to_string(),
                400,
            ),
            (
                "/aggregate",
                Json::Obj(vec![
                    ("bogus".to_string(), Json::uint(1)),
                    ("query".to_string(), aggregate_query.clone()),
                ])
                .to_string(),
                400,
            ),
            (
                "/batch",
                BatchQuery::ptq("d1", pattern.clone()).to_json_string(),
                400,
            ),
        ];
        for (path, body, status) in &error_cases {
            let single = sc.post(path, body).unwrap();
            let routed = rc.post(path, body).unwrap();
            assert_eq!(single.0, *status, "POST {path} {body}: {}", single.1);
            assert_eq!(
                single, routed,
                "{shards} shards, POST {path} {body}: error diverges"
            );
        }

        front.shutdown();
        router.shutdown();
    }

    single.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deliberately tied scores across shards: six byte-identical engines
/// under different names (so the ring spreads them) produce top-k
/// answer sets where *every* probability ties — the merge must resolve
/// them by the pinned order (probability desc, then engine name, then
/// mapping ids) and stay byte-exact with the single registry.
#[test]
fn cross_shard_topk_ties_resolve_by_pinned_order() {
    let dir = std::env::temp_dir().join(format!("uxm-shard-diff-ties-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let names = ["tie0", "tie1", "tie2", "tie3", "tie4", "tie5"];
    {
        // One engine, snapshotted once, file-copied under five more
        // names: the six engines are byte-identical by construction,
        // so every cross-engine probability comparison ties. D7's
        // target standard is Apertum — the schema the paper workload
        // is posed on — so the queries actually answer.
        let registry = EngineRegistry::new().snapshot_dir(&dir);
        registry.insert(names[0], dataset_engine(DatasetId::D7));
        let first = registry.save(names[0]).expect("seed tie snapshot");
        for name in &names[1..] {
            std::fs::copy(&first, dir.join(format!("{name}.uxm"))).expect("copy tie snapshot");
        }
    }

    let single = start_single(&dir);
    let mut sc = Client::connect(single.addr()).unwrap();
    // The tie assertions need a query that actually answers on this
    // dataset: probe the workload and take the first that does.
    let pattern = paper_queries()
        .into_iter()
        .find(|q| {
            let (status, body) = sc.query("tie0", &Query::topk(q.clone(), 4)).unwrap();
            status == 200 && !answers_subtree(&body).starts_with("[]")
        })
        .expect("some paper query answers on D7");

    for shards in [2usize, 4] {
        let (router, front) = start_router(&dir, shards);

        // The test is only meaningful if the ring actually separates
        // the tied engines; the hash is deterministic, so this holds
        // forever once it holds at all.
        let owners: std::collections::BTreeSet<u64> =
            names.iter().map(|n| router.owner(n)).collect();
        assert!(
            owners.len() >= 2,
            "ring with {shards} shards put every tied engine on one shard"
        );

        let mut rc = Client::connect(front.addr()).unwrap();
        // One engine's full answer count for this query: the k that
        // provably spans engines is just past it.
        let (_, probe_body) = sc
            .query(names[0], &Query::topk(pattern.clone(), 10_000))
            .unwrap();
        let per_engine = Json::parse(&probe_body)
            .unwrap()
            .get("answers")
            .unwrap()
            .as_arr()
            .unwrap()
            .len();
        assert!(per_engine >= 1);
        let spanning = per_engine + 3;
        for k in [1usize, 4, spanning] {
            let body = Json::Obj(vec![(
                "query".to_string(),
                Query::topk(pattern.clone(), k).to_json(),
            )])
            .to_string();
            let (s_status, s_body) = sc.post("/topk", &body).unwrap();
            let (r_status, r_body) = rc.post("/topk", &body).unwrap();
            assert_eq!((s_status, r_status), (200, 200), "{s_body}");
            assert_eq!(s_body, r_body, "{shards} shards, k={k}: tie merge diverges");

            // And the documented order holds on the wire: probability
            // descending, then engine name, then mapping ids.
            let parsed = Json::parse(&r_body).unwrap();
            let answers = parsed.get("answers").unwrap().as_arr().unwrap();
            let keys: Vec<(f64, String, Vec<u64>)> = answers
                .iter()
                .map(|a| {
                    (
                        a.get("probability").unwrap().as_f64().unwrap(),
                        a.get("engine").unwrap().as_str().unwrap().to_string(),
                        a.get("mappings")
                            .unwrap()
                            .as_arr()
                            .unwrap()
                            .iter()
                            .map(|m| m.as_f64().unwrap() as u64)
                            .collect(),
                    )
                })
                .collect();
            for pair in keys.windows(2) {
                let (pa, ea, ma) = &pair[0];
                let (pb, eb, mb) = &pair[1];
                assert!(
                    pa > pb || (pa == pb && (ea < eb || (ea == eb && ma <= mb))),
                    "{shards} shards, k={k}: order violated at {pair:?}"
                );
            }
            // With identical engines the ties are real: past one
            // engine's answer count, the window must span several
            // engines (engine name breaks the probability tie, so
            // whole engines appear in name order).
            if k == spanning {
                assert_eq!(keys.len(), spanning, "k={spanning} must fill");
                assert!(
                    keys.windows(2).any(|w| w[0].1 != w[1].1),
                    "tied answers must come from multiple engines: {keys:?}"
                );
            }
        }

        // -- /aggregate over byte-identical engines: every per-engine
        //    marginal ties exactly, so the merged value exposes any
        //    fold-order difference between deployments. Whole-body
        //    byte-exact for all four functions.
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            let body = Json::Obj(vec![(
                "query".to_string(),
                Query::aggregate(pattern.clone(), func).to_json(),
            )])
            .to_string();
            let (s_status, s_body) = sc.post("/aggregate", &body).unwrap();
            let (r_status, r_body) = rc.post("/aggregate", &body).unwrap();
            assert_eq!((s_status, r_status), (200, 200), "{func}: {s_body}");
            assert_eq!(
                s_body, r_body,
                "{shards} shards, {func}: tied aggregate merge diverges"
            );
            // All six entries are byte-identical engines: identical
            // marginals, and entries in name order.
            let parsed = Json::parse(&r_body).unwrap();
            let entries = parsed.get("engines").unwrap().as_arr().unwrap();
            assert_eq!(entries.len(), names.len(), "{func}");
            let marginals: Vec<String> = entries
                .iter()
                .map(|e| e.get("marginal").unwrap().to_string())
                .collect();
            assert!(
                marginals.windows(2).all(|w| w[0] == w[1]),
                "{func}: identical engines must tie: {marginals:?}"
            );
        }
        front.shutdown();
        router.shutdown();
    }
    single.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
