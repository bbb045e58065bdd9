//! The `QueryEngine` session layer must answer a query identically
//! however many queries it has served — same answers, same order, same
//! floats — across the Table II datasets and the paper's query workload.
//! The reference is a cold session: a fresh engine over the same data.
//! The suite pins (a) shared-session runs ≡ cold-session runs, (b)
//! repeated runs ≡ first runs, and (c) the mapping ids the engine evaluates ≡ the string-based
//! `filter_mappings` / `topk_mappings` references.
//!
//! It also hosts the **planner differential suite**: `QueryEngine::run`
//! must return identical answers under every forced evaluator hint and
//! the auto plan, for every query kind, across all Table II datasets —
//! the guarantee that lets the planner treat evaluator choice as a pure
//! performance decision.

use uxm::core::aggregate::AggFunc;
use uxm::core::api::{Answer, EvaluatorHint, Granularity, Query};
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::{MappingId, PossibleMappings};
use uxm::core::path_ptq::filter_mappings_nodes;
use uxm::core::registry::{BatchQuery, EngineRegistry};
use uxm::core::rewrite::filter_mappings;
use uxm::core::topk::topk_mappings;
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::datagen::queries::paper_queries;
use uxm::twig::TwigPattern;
use uxm::xml::{DocGenConfig, Document};

/// Builds the session pieces for one dataset, sized to keep the full
/// sweep affordable in debug builds.
fn session(id: DatasetId, m: usize, nodes: usize) -> QueryEngine {
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

/// `query`'s answers on a cold session over `engine`'s data.
fn cold(engine: &QueryEngine, query: &Query) -> Vec<Answer> {
    let fresh = QueryEngine::new(
        engine.mappings().clone(),
        engine.document().clone(),
        engine.tree().clone(),
    );
    fresh.run(query).unwrap().answers
}

/// The mapping each per-mapping answer was computed under.
fn ids(answers: &[Answer]) -> Vec<MappingId> {
    answers.iter().map(|a| a.mappings[0]).collect()
}

/// A label-granularity PTQ pinned to `hint`.
fn pinned(q: &TwigPattern, hint: EvaluatorHint) -> Query {
    Query::ptq(q.clone()).with_evaluator(hint)
}

/// Asserts, on `queries`, that every evaluator's first and repeated runs
/// on the shared `engine` equal a cold session's, and that the evaluated
/// mappings are the string-based references' relevant and top-k sets.
fn assert_equivalent(engine: &QueryEngine, queries: &[usize], dataset: &str) {
    let all = paper_queries();
    let pm = engine.mappings();
    for &qi in queries {
        let q = &all[qi - 1];
        let label = format!("{dataset} Q{qi}");

        for hint in [EvaluatorHint::Naive, EvaluatorHint::BlockTree] {
            let query = pinned(q, hint);
            let first = engine.run(&query).unwrap().answers;
            assert_eq!(first, cold(engine, &query), "{label}: {hint:?}");
            assert_eq!(
                first,
                engine.run(&query).unwrap().answers,
                "{label}: warm {hint:?}"
            );
            assert_eq!(ids(&first), filter_mappings(q, pm), "{label}: relevant");
        }

        let topk = Query::topk(q.clone(), 5).with_evaluator(EvaluatorHint::BlockTree);
        let top = engine.run(&topk).unwrap().answers;
        assert_eq!(top, cold(engine, &topk), "{label}: topk");
        assert_eq!(ids(&top), topk_mappings(q, pm, 5), "{label}: topk ids");
    }
}

#[test]
fn engine_equals_legacy_on_small_datasets_full_workload() {
    for id in [
        DatasetId::D1,
        DatasetId::D2,
        DatasetId::D3,
        DatasetId::D4,
        DatasetId::D5,
    ] {
        let engine = session(id, 40, 800);
        assert_equivalent(&engine, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], id.name());
    }
}

#[test]
fn engine_equals_legacy_on_large_datasets_spot_queries() {
    for id in [
        DatasetId::D6,
        DatasetId::D7,
        DatasetId::D8,
        DatasetId::D9,
        DatasetId::D10,
    ] {
        let engine = session(id, 20, 400);
        assert_equivalent(&engine, &[2, 7, 10], id.name());
    }
}

/// The serving stack adds no semantics: for every request kind, the
/// registry batch path returns exactly what a cold session returns
/// (registry ≡ engine).
#[test]
fn registry_batch_equals_engine_equals_legacy() {
    let registry = EngineRegistry::new();
    let all = paper_queries();
    // Two resident engines so the batch exercises cross-engine routing.
    for (name, id) in [("d4", DatasetId::D4), ("d7", DatasetId::D7)] {
        registry.insert(name, session(id, 20, 400));
    }
    for (name, id) in [("d4", DatasetId::D4), ("d7", DatasetId::D7)] {
        let reference = session(id, 20, 400);
        let pm = reference.mappings();
        let vocab = pm
            .target
            .label(pm.target.children(pm.target.root())[0])
            .to_string();
        for qi in [2usize, 7, 10] {
            let q = &all[qi - 1];
            let requests = [
                BatchQuery::ptq(name, q.clone()),
                BatchQuery::basic(name, q.clone()),
                BatchQuery::topk(name, q.clone(), 5),
                BatchQuery::keyword(name, vec![vocab.clone(), "order".to_string()]),
            ];
            let answers = registry.batch(&requests);
            for (request, answer) in requests.iter().zip(&answers) {
                assert_eq!(
                    answer.as_ref().unwrap().answers,
                    cold(&reference, &request.query),
                    "{} Q{qi}: registry {} vs engine",
                    id.name(),
                    request.query
                );
            }
        }
    }
}

/// The planner differential suite: for every Table II dataset and every
/// query kind, `run()` answers are identical under the auto plan and
/// every pinned evaluator — including the compiled bytecode backend —
/// and equal to a cold session's naive (PTQ) and block-tree (top-k)
/// answers.
#[test]
fn run_is_plan_invariant_across_all_datasets() {
    let hints = [
        EvaluatorHint::Auto,
        EvaluatorHint::Naive,
        EvaluatorHint::BlockTree,
        EvaluatorHint::Compiled,
    ];
    let all = paper_queries();
    for id in DatasetId::all() {
        let engine = session(id, 20, 400);
        for qi in [2usize, 7, 10] {
            let q = &all[qi - 1];
            let label = format!("{} Q{qi}", id.name());

            // Label granularity: auto and every pin agree with Algorithm 3.
            let expected = cold(&engine, &pinned(q, EvaluatorHint::Naive));
            for hint in hints {
                let got = engine
                    .run(&Query::ptq(q.clone()).with_evaluator(hint))
                    .unwrap();
                assert_eq!(got.answers, expected, "{label}: ptq {hint:?}");
            }

            // Node granularity: all hints agree with each other.
            let node_reference = engine.run(&Query::ptq_nodes(q.clone())).unwrap();
            for hint in hints {
                let got = engine
                    .run(&Query::ptq_nodes(q.clone()).with_evaluator(hint))
                    .unwrap();
                assert_eq!(
                    got.answers, node_reference.answers,
                    "{label}: ptq-nodes {hint:?}"
                );
            }

            // Top-k: all hints agree with each other and with Algorithm 4.
            let top_expected = cold(
                &engine,
                &Query::topk(q.clone(), 5).with_evaluator(EvaluatorHint::BlockTree),
            );
            for hint in hints {
                let got = engine
                    .run(&Query::topk(q.clone(), 5).with_evaluator(hint))
                    .unwrap();
                assert_eq!(got.answers, top_expected, "{label}: topk {hint:?}");
            }

            // Distinct granularity: identical across plans, and its mass
            // matches the per-mapping mass.
            let distinct_reference = engine
                .run(&Query::ptq(q.clone()).with_granularity(Granularity::Distinct))
                .unwrap();
            for hint in hints {
                let got = engine
                    .run(
                        &Query::ptq(q.clone())
                            .with_granularity(Granularity::Distinct)
                            .with_evaluator(hint),
                    )
                    .unwrap();
                assert_eq!(
                    got.answers, distinct_reference.answers,
                    "{label}: distinct {hint:?}"
                );
            }
            let mapping_mass: f64 = expected.iter().map(|a| a.probability).sum();
            assert!(
                (distinct_reference.total_probability() - mapping_mass).abs() < 1e-9,
                "{label}: distinct mass"
            );
        }
    }
}

/// The response must name the evaluator it actually ran: pinned hints
/// are honored verbatim (plan *and* backend), and the auto plan always
/// picks one of the three. Every backend must also report the same
/// relevant-mapping count: `|M_q|`, or `min(k, |M_q|)` for top-k.
#[test]
fn run_reports_the_pinned_evaluator() {
    use uxm::core::planner::{Evaluator, PlanReason};
    let engine = session(DatasetId::D4, 20, 400);
    let q = &paper_queries()[6];
    for (hint, expected) in [
        (EvaluatorHint::Naive, Evaluator::Naive),
        (EvaluatorHint::BlockTree, Evaluator::BlockTree),
        (EvaluatorHint::Compiled, Evaluator::Compiled),
    ] {
        let got = engine
            .run(&Query::ptq(q.clone()).with_evaluator(hint))
            .unwrap();
        assert_eq!(got.stats.plan.evaluator, expected);
        assert_eq!(got.stats.backend, expected);
        assert_eq!(got.stats.plan.reason, PlanReason::Pinned);
    }
    let auto = engine.run(&Query::ptq(q.clone())).unwrap();
    assert_ne!(auto.stats.plan.reason, PlanReason::Pinned);
    assert_eq!(auto.stats.backend, auto.stats.plan.evaluator);
    assert_eq!(auto.stats.relevant, engine.relevant_mappings(q).len());

    const K: usize = 5;
    let hints = [
        EvaluatorHint::Auto,
        EvaluatorHint::Naive,
        EvaluatorHint::BlockTree,
        EvaluatorHint::Compiled,
    ];
    for id in DatasetId::all() {
        let engine = session(id, 20, 400);
        for qi in [2usize, 7, 10] {
            let q = &paper_queries()[qi - 1];
            let relevant = engine.relevant_mappings(q).len();
            for (kind, query, want) in [
                ("ptq", Query::ptq(q.clone()), relevant),
                ("ptq_nodes", Query::ptq_nodes(q.clone()), relevant),
                ("topk", Query::topk(q.clone(), K), relevant.min(K)),
                (
                    "count",
                    Query::aggregate(q.clone(), AggFunc::Count),
                    relevant,
                ),
            ] {
                for hint in hints {
                    let got = engine.run(&query.clone().with_evaluator(hint)).unwrap();
                    assert_eq!(
                        got.stats.relevant,
                        want,
                        "{} Q{qi} {kind} {hint:?}",
                        id.name()
                    );
                }
            }
        }
    }
}

#[test]
fn engine_equals_legacy_node_granularity_and_keyword() {
    let engine = session(DatasetId::D4, 30, 600);
    let pm = engine.mappings();
    let all = paper_queries();
    for qi in [2usize, 7, 10] {
        let q = &all[qi - 1];
        for hint in [EvaluatorHint::Naive, EvaluatorHint::BlockTree] {
            let query = Query::ptq_nodes(q.clone()).with_evaluator(hint);
            let got = engine.run(&query).unwrap().answers;
            assert_eq!(got, cold(&engine, &query), "D4 Q{qi}: ptq_nodes {hint:?}");
            assert_eq!(
                ids(&got),
                filter_mappings_nodes(q, pm),
                "D4 Q{qi}: ptq_nodes {hint:?} relevant"
            );
        }
    }
    // Keyword: one vocabulary term (a target label) and one value term.
    let vocab = pm
        .target
        .label(pm.target.children(pm.target.root())[0])
        .to_string();
    for terms in [
        vec![vocab.as_str()],
        vec!["order"],
        vec![vocab.as_str(), "order"],
    ] {
        let query = Query::keyword(terms.iter().map(|t| t.to_string()).collect());
        assert_eq!(
            engine.run(&query).unwrap().answers,
            cold(&engine, &query),
            "keyword {terms:?}"
        );
    }
}

/// The compiled backend matches each shape group once and hands every
/// mapping of the group the same match-set allocation. On D7 at
/// |M| = 100 over the `Order.xml`-sized document, every paper query's
/// relevant mappings form one group, so each response holds exactly one
/// match-set allocation. A backend that copies the set per mapping
/// again gives equal answers but fails the pointer check. The naive
/// pin is the by-value reference.
#[test]
fn compiled_answers_share_one_match_set_per_group() {
    use std::sync::Arc;
    let d = Dataset::load(DatasetId::D7);
    let pm = PossibleMappings::top_h(&d.matching, 100);
    let doc = Document::generate(&d.matching.source, &DocGenConfig::order_xml(), 0x0D0C);
    let engine = QueryEngine::build(pm, doc);
    for (qi, q) in paper_queries().iter().enumerate() {
        let label = format!("D7 Q{}", qi + 1);
        for (kind, query) in [
            ("ptq", Query::ptq(q.clone())),
            ("topk", Query::topk(q.clone(), 3)),
            ("count", Query::aggregate(q.clone(), AggFunc::Count)),
        ] {
            let got = engine.run(&query).unwrap();
            let naive = engine
                .run(&query.clone().with_evaluator(EvaluatorHint::Naive))
                .unwrap();
            assert_eq!(got.answers, naive.answers, "{label} {kind}: answers");
            assert_eq!(got.aggregate, naive.aggregate, "{label} {kind}: rows");
            if kind == "count" {
                let rows = &got.aggregate.as_ref().unwrap().rows;
                assert!(rows.len() > 1, "{label}: {} rows", rows.len());
                continue;
            }
            assert!(
                got.answers.len() > 1,
                "{label} {kind}: {} answers",
                got.answers.len()
            );
            let first = &got.answers[0].matches;
            for a in &got.answers {
                assert!(
                    Arc::ptr_eq(&a.matches, first),
                    "{label} {kind}: mapping {:?} holds its own copy",
                    a.mappings
                );
            }
        }
    }
}
