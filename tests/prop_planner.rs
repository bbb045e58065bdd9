//! Property-based planner differential: over *random* twig patterns (not
//! just the paper's workload), `QueryEngine::run` must return identical
//! answers under the auto plan and both pinned evaluators, for every
//! query kind — the planner can only ever change performance, never
//! results.

use proptest::prelude::*;
use std::sync::OnceLock;
use uxm::core::api::{Answer, EvaluatorHint, Granularity, Query};
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::PossibleMappings;
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::twig::{Axis, TwigPattern};
use uxm::xml::{DocGenConfig, Document};

/// One shared session (building an engine per proptest case would drown
/// the suite in matcher work). D4 has repeated labels and enough blocks
/// for both evaluators to take interesting paths.
fn engine() -> &'static QueryEngine {
    static ENGINE: OnceLock<QueryEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let d = Dataset::load(DatasetId::D4);
        let pm = PossibleMappings::top_h(&d.matching, 24);
        let doc = Document::generate(
            &d.matching.source,
            &DocGenConfig {
                target_nodes: 400,
                max_repeat: 3,
                text_prob: 0.7,
            },
            0xBEEF,
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
    })
}

/// The label pool random twigs draw from: real target labels (so queries
/// are frequently relevant) plus one label that exists nowhere.
fn label_pool() -> &'static Vec<String> {
    static POOL: OnceLock<Vec<String>> = OnceLock::new();
    POOL.get_or_init(|| {
        let target = &engine().mappings().target;
        let mut pool: Vec<String> = target
            .ids()
            .take(15)
            .map(|id| target.label(id).to_string())
            .collect();
        pool.push("NoSuchLabelAnywhere".to_string());
        pool
    })
}

/// Node `i + 1` attaches under node `parent % (i + 1)` with the given
/// axis; labels index into the pool.
fn twig_from_spec(spec: &[(u8, u8, bool)]) -> TwigPattern {
    let pool = label_pool();
    let (l0, _, d0) = spec.first().copied().unwrap_or((0, 0, true));
    let mut q = TwigPattern::single(
        pool[l0 as usize % pool.len()].clone(),
        if d0 { Axis::Descendant } else { Axis::Child },
    );
    let mut nodes = vec![q.root()];
    for &(label, parent, descendant) in spec.iter().skip(1) {
        let parent = nodes[parent as usize % nodes.len()];
        let id = q.add_child(
            parent,
            pool[label as usize % pool.len()].clone(),
            if descendant {
                Axis::Descendant
            } else {
                Axis::Child
            },
        );
        nodes.push(id);
    }
    q
}

fn answers(query: &Query) -> Vec<Answer> {
    engine().run(query).expect("valid query").answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The planner differential on random twigs: every hint, every query
    /// kind, identical answers.
    #[test]
    fn random_twigs_are_plan_invariant(
        spec in proptest::collection::vec((0u8..16, 0u8..8, proptest::prop::bool::ANY), 1..5),
        k in 0usize..30,
    ) {
        let pattern = twig_from_spec(&spec);
        let hints = [EvaluatorHint::Naive, EvaluatorHint::BlockTree];
        for base in [
            Query::ptq(pattern.clone()),
            Query::ptq_nodes(pattern.clone()),
            Query::topk(pattern.clone(), k),
            Query::ptq(pattern.clone()).with_granularity(Granularity::Distinct),
        ] {
            let auto = answers(&base);
            for hint in hints {
                let pinned = answers(&base.clone().with_evaluator(hint));
                prop_assert_eq!(
                    &pinned,
                    &auto,
                    "{} under {:?} diverged from auto",
                    &base,
                    hint
                );
            }
        }
    }

    /// Warm-cache runs (same engine, repeated query) agree with the
    /// first run regardless of plan — replaying a cached program must be
    /// invisible in the answers.
    #[test]
    fn repeated_runs_are_stable(
        spec in proptest::collection::vec((0u8..16, 0u8..8, proptest::prop::bool::ANY), 1..4),
    ) {
        let query = Query::ptq(twig_from_spec(&spec));
        let first = answers(&query);
        for _ in 0..3 {
            prop_assert_eq!(&answers(&query), &first);
        }
    }
}
