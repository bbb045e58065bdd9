//! Property-based differential over the **grown query language**: random
//! twig patterns drawn from the full grammar — value predicates (string,
//! numeric, attribute targets), descendant axes, wildcards — combined
//! with every query kind including aggregates and random options, must
//! (a) return identical answers under the naive, block-tree, and
//! compiled evaluators and the auto plan, (b) serialize → parse →
//! serialize byte-stably both as pattern strings and as wire JSON, and
//! (c) answer identically when run again on the same engine.
//!
//! This is `tests/prop_exec.rs` extended over the new shape space; the
//! exhaustive per-form oracle differential lives in
//! `tests/query_lang_differential.rs`.

use proptest::prelude::*;
use std::sync::OnceLock;
use uxm::core::aggregate::AggFunc;
use uxm::core::api::{EvaluatorHint, Granularity, Query, QueryResponse};
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::PossibleMappings;
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::twig::{Axis, PredOp, PredTarget, TwigPattern, ValuePred};
use uxm::xml::{DocGenConfig, Document};

/// One shared session (building an engine per proptest case would drown
/// the suite in matcher work). D4 has repeated labels and enough blocks
/// for every backend to take interesting paths; the generated document
/// carries text on ~70% of nodes so value predicates select for real.
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

/// The label pool random twigs draw from: real target labels (so
/// queries are frequently relevant), the wildcard, and one label that
/// exists nowhere (the irrelevant-mapping / clear-bits path).
fn label_pool() -> &'static Vec<String> {
    static POOL: OnceLock<Vec<String>> = OnceLock::new();
    POOL.get_or_init(|| {
        let target = &engine().mappings().target;
        let mut pool: Vec<String> = target
            .ids()
            .take(14)
            .map(|id| target.label(id).to_string())
            .collect();
        pool.push("*".to_string());
        pool.push("NoSuchLabelAnywhere".to_string());
        pool
    })
}

/// One generated predicate. Thresholds land in a small range around the
/// generated text values so comparisons flip both ways; `contains`
/// substrings are short enough to hit generated text sometimes.
fn pred_from_spec(op: u8, on_attr: bool, n: i32) -> ValuePred {
    let x = n as f64 / 4.0 - 5.0;
    ValuePred {
        target: if on_attr {
            PredTarget::Attr("id".into())
        } else {
            PredTarget::Text
        },
        op: match op % 6 {
            0 => PredOp::Eq(format!("{n}")),
            1 => PredOp::Contains(["a", "e", "1", "q z"][n as usize % 4].into()),
            2 => PredOp::Lt(x),
            3 => PredOp::Le(x),
            4 => PredOp::Gt(x),
            _ => PredOp::Ge(x),
        },
    }
}

/// Node `i + 1` attaches under node `parent % (i + 1)` with the given
/// axis; labels index into the pool; each node carries 0–2 predicates.
fn twig_from_spec(spec: &[(u8, u8, bool, u8, u8, bool, i32)]) -> TwigPattern {
    let pool = label_pool();
    let axis = |d: bool| if d { Axis::Descendant } else { Axis::Child };
    let (l0, _, d0, ..) = *spec.first().expect("non-empty spec");
    let mut q = TwigPattern::single(pool[l0 as usize % pool.len()].clone(), axis(d0));
    let mut nodes = vec![q.root()];
    for &(label, parent, descendant, ..) in spec.iter().skip(1) {
        let parent = nodes[parent as usize % nodes.len()];
        let id = q.add_child(
            parent,
            pool[label as usize % pool.len()].clone(),
            axis(descendant),
        );
        nodes.push(id);
    }
    for (node, &(_, _, _, preds, op, on_attr, n)) in nodes.iter().zip(spec) {
        for i in 0..(preds % 3) {
            q.add_pred(*node, pred_from_spec(op + i, on_attr, n + i as i32));
        }
    }
    q
}

fn run(query: &Query) -> QueryResponse {
    engine().run(query).expect("valid query")
}

const FUNCS: [AggFunc; 4] = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full-grammar differential: for random patterns with
    /// predicates, wildcards, and mixed axes, every query kind returns
    /// identical answers (and aggregate blocks) under every evaluator
    /// hint, and running a query again is indistinguishable from its
    /// first run.
    #[test]
    fn all_backends_agree_on_the_grown_grammar(
        spec in proptest::collection::vec(
            (0u8..16, 0u8..8, proptest::prop::bool::ANY, 0u8..3, 0u8..6,
             proptest::prop::bool::ANY, 0i32..40),
            1..5,
        ),
        k in 0usize..20,
        func in 0u8..4,
        min_p16 in 0u8..=8,
    ) {
        let pattern = twig_from_spec(&spec);
        let mut bases = vec![
            Query::ptq(pattern.clone()),
            Query::ptq_nodes(pattern.clone()),
            Query::topk(pattern.clone(), k),
            Query::ptq(pattern.clone()).with_granularity(Granularity::Distinct),
            Query::aggregate(pattern.clone(), FUNCS[func as usize]),
        ];
        if min_p16 > 0 {
            bases.push(
                Query::aggregate(pattern.clone(), FUNCS[func as usize])
                    .with_min_probability(min_p16 as f64 / 16.0),
            );
        }
        for base in bases {
            let naive = run(&base.clone().with_evaluator(EvaluatorHint::Naive));
            for hint in [
                EvaluatorHint::Auto,
                EvaluatorHint::BlockTree,
                EvaluatorHint::Compiled,
            ] {
                let query = base.clone().with_evaluator(hint);
                let cold = run(&query);
                prop_assert_eq!(&cold.answers, &naive.answers,
                    "{} {:?} diverged from naive", &base, hint);
                prop_assert_eq!(&cold.aggregate, &naive.aggregate,
                    "{} {:?} aggregate diverged from naive", &base, hint);
                let warm = run(&query);
                prop_assert_eq!(&warm.answers, &cold.answers,
                    "{} {:?} warm replay diverged", &base, hint);
                prop_assert_eq!(&warm.aggregate, &cold.aggregate,
                    "{} {:?} warm aggregate diverged", &base, hint);
            }
        }
    }

    /// Grammar byte-stability over the same shape space: rendering the
    /// generated pattern, parsing it back, and rendering again is a
    /// fixpoint, and so is the wire JSON of every query kind around it.
    #[test]
    fn grown_grammar_serialization_is_byte_stable(
        spec in proptest::collection::vec(
            (0u8..16, 0u8..8, proptest::prop::bool::ANY, 0u8..3, 0u8..6,
             proptest::prop::bool::ANY, 0i32..40),
            1..5,
        ),
        func in 0u8..4,
    ) {
        let generated = twig_from_spec(&spec);
        let rendered = generated.to_string();
        let parsed = TwigPattern::parse(&rendered)
            .map_err(|e| TestCaseError::fail(format!("{rendered}: {e}")))?;
        prop_assert_eq!(parsed.to_string(), rendered.clone(), "pattern fixpoint");

        for query in [
            Query::ptq(parsed.clone()),
            Query::aggregate(parsed.clone(), FUNCS[func as usize]),
        ] {
            let once = query.to_json_string();
            let back = Query::from_json_str(&once)
                .map_err(|e| TestCaseError::fail(format!("reparse of {once}: {e}")))?;
            prop_assert_eq!(&back, &query, "lossless: {}", &once);
            prop_assert_eq!(back.to_json_string(), once.clone(), "byte-stable: {}", &once);
        }
    }
}
