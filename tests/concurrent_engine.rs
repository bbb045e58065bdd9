//! Determinism under concurrency: N threads hammer ONE shared
//! [`QueryEngine`] through the unified `run` entry point with a mixed
//! ptq / top-k / node / keyword workload, and every single answer must be
//! identical to the single-threaded evaluation of the same request. This
//! is the contract the `EngineRegistry` serving layer builds on — the
//! session state is immutable and every compiled run compiles its own
//! program, so nothing one query does can change another's answers. Each query's own `ExecStats` relevance count
//! must stay exact while other queries share the engine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use uxm::core::api::{Answer, EvaluatorHint, Granularity, Query};
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::PossibleMappings;
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::datagen::queries::paper_queries;
use uxm::twig::TwigPattern;
use uxm::xml::{DocGenConfig, Document};

const THREADS: usize = 8;
/// Total requests pulled off the shared work queue by all threads.
const REQUESTS: usize = 400;

fn engine(id: DatasetId, m: usize, nodes: usize) -> QueryEngine {
    let d = Dataset::load(id);
    let pm = PossibleMappings::top_h(&d.matching, m);
    let doc = Document::generate(
        &d.matching.source,
        &DocGenConfig {
            target_nodes: nodes,
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

/// The mixed request stream: request `i` deterministically selects one of
/// the query kinds (with varying hints and granularity) over the paper
/// queries / keyword lists.
fn request(queries: &[TwigPattern], terms: &[Vec<&str>], i: usize) -> Query {
    let q = queries[i % queries.len()].clone();
    match i % 6 {
        0 => Query::ptq(q).with_evaluator(EvaluatorHint::BlockTree),
        1 => Query::ptq(q).with_evaluator(EvaluatorHint::Naive),
        2 => Query::ptq(q).with_granularity(Granularity::Distinct),
        3 => Query::topk(q, 1 + i % 7),
        4 => Query::ptq_nodes(q),
        _ => Query::keyword(
            terms[i % terms.len()]
                .iter()
                .map(|t| t.to_string())
                .collect(),
        ),
    }
}

fn run_request(engine: &QueryEngine, query: &Query) -> Vec<Answer> {
    engine.run(query).expect("valid request").answers
}

#[test]
fn hammered_engine_matches_single_threaded_evaluation() {
    let shared = Arc::new(engine(DatasetId::D7, 20, 400));
    let queries = paper_queries();
    // One vocabulary term (a target label) plus value terms.
    let vocab = {
        let t = &shared.mappings().target;
        t.label(t.children(t.root())[0]).to_string()
    };
    let terms: Vec<Vec<&str>> = vec![
        vec![vocab.as_str()],
        vec!["order"],
        vec![vocab.as_str(), "item"],
    ];
    let requests: Vec<Query> = (0..REQUESTS)
        .map(|i| request(&queries, &terms, i))
        .collect();

    // Single-threaded ground truth from a FRESH engine, one
    // answer per request index.
    let fresh = engine(DatasetId::D7, 20, 400);
    let expected: Vec<Vec<Answer>> = requests.iter().map(|q| run_request(&fresh, q)).collect();

    // Hammer the shared engine: threads pull request indices off a shared
    // counter, so interleavings vary freely.
    let next = AtomicUsize::new(0);
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let requests = &requests;
                let next = &next;
                let expected = &expected;
                scope.spawn(move || {
                    let mut bad = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= REQUESTS {
                            break;
                        }
                        let got = run_request(&shared, &requests[i]);
                        if got != expected[i] {
                            bad.push(format!("request {i} diverged"));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("stress worker panicked"))
            .collect()
    });
    assert!(mismatches.is_empty(), "{mismatches:?}");
}

#[test]
fn warm_and_cold_answers_agree_across_threads() {
    // A second shape of the race: every thread runs the SAME query on
    // one shared engine at once.
    let shared = Arc::new(engine(DatasetId::D7, 12, 250));
    let query = Query::ptq(paper_queries()[1].clone());
    let expected = run_request(&engine(DatasetId::D7, 12, 250), &query);
    let answers: Vec<Vec<Answer>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let query = &query;
                scope.spawn(move || {
                    (0..20)
                        .map(|_| run_request(&shared, query))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for (i, a) in answers.iter().enumerate() {
        assert_eq!(a, &expected, "run {i}");
    }
}

#[test]
fn per_query_relevant_counts_are_exact_under_concurrency() {
    // A query's relevant-mapping count is fixed by the query, whichever
    // backend runs it: the compiled VM reads it off its id register, the
    // recursive evaluators off the relevance filter. So every count must
    // equal the same query's count run alone, whatever the other threads
    // are doing on the shared engine.
    let queries = paper_queries();
    let requests: Vec<Query> = (0..REQUESTS / 2)
        .map(|i| {
            let q = queries[i % queries.len()].clone();
            match i % 4 {
                0 => Query::ptq(q).with_evaluator(EvaluatorHint::Naive),
                1 => Query::ptq(q).with_evaluator(EvaluatorHint::BlockTree),
                2 => Query::ptq_nodes(q),
                _ => Query::topk(q, 1 + i % 7),
            }
        })
        .collect();
    let lookups = |engine: &QueryEngine, query: &Query| {
        engine.run(query).expect("valid request").stats.relevant
    };
    let solo = engine(DatasetId::D7, 20, 400);
    let alone: Vec<usize> = requests.iter().map(|q| lookups(&solo, q)).collect();
    assert!(
        alone.iter().any(|&n| n > 0),
        "workload has relevant mappings"
    );

    let shared = engine(DatasetId::D7, 20, 400);
    let next = AtomicUsize::new(0);
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut bad = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= requests.len() {
                            break;
                        }
                        let got = lookups(&shared, &requests[i]);
                        if got != alone[i] {
                            bad.push(format!("request {i}: {got} relevant, {} alone", alone[i]));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("stress worker panicked"))
            .collect()
    });
    assert!(mismatches.is_empty(), "{mismatches:?}");
}
