//! Top-k probabilistic twig queries (Definition 5, §IV-C).
//!
//! Only the k answer tuples with the highest probabilities are wanted. As
//! the paper observes, those must come from the k most-probable *relevant*
//! mappings, so the mapping set is pruned right after `filter_mappings` —
//! before any query evaluation happens.
//!
//! Evaluate one with [`QueryEngine::run`](crate::engine::QueryEngine::run)
//! and [`Query::topk`](crate::api::Query::topk). [`topk_mappings`] is the
//! string-based reference for the pruning step.

use crate::mapping::{MappingId, PossibleMappings};
use crate::rewrite::filter_mappings;
use uxm_twig::TwigPattern;

/// The k most-probable relevant mappings for `q` (ties broken by id).
pub fn topk_mappings(q: &TwigPattern, pm: &PossibleMappings, k: usize) -> Vec<MappingId> {
    let mut ids = filter_mappings(q, pm);
    ids.sort_by(|&a, &b| {
        pm.mapping(b)
            .prob
            .total_cmp(&pm.mapping(a).prob)
            .then(a.cmp(&b))
    });
    ids.truncate(k);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Answer, EvaluatorHint, Query};
    use crate::engine::QueryEngine;
    use uxm_xml::{parse_document, Schema};

    fn setup() -> QueryEngine {
        let source = Schema::parse_outline("Order(BP(BCN RCN OCN))").unwrap();
        let target = Schema::parse_outline("ORDER(IP(ICN))").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (vec![(s("BP"), t("IP")), (s("BCN"), t("ICN"))], 3.0),
                (vec![(s("BP"), t("IP")), (s("RCN"), t("ICN"))], 2.0),
                (vec![(s("BP"), t("IP")), (s("OCN"), t("ICN"))], 1.0),
            ],
        );
        let doc = parse_document(
            "<Order><BP><BCN>Cathy</BCN><RCN>Bob</RCN><OCN>Alice</OCN></BP></Order>",
        )
        .unwrap();
        QueryEngine::build(pm, doc)
    }

    /// A block-tree top-k PTQ of //IP//ICN.
    fn topk(engine: &QueryEngine, k: usize) -> Vec<Answer> {
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let query = Query::topk(q, k).with_evaluator(EvaluatorHint::BlockTree);
        engine.run(&query).unwrap().answers
    }

    #[test]
    fn returns_k_highest_probability_answers() {
        let res = topk(&setup(), 2);
        assert_eq!(res.len(), 2);
        assert!(res[0].probability >= res[1].probability);
        assert!((res[0].probability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_mappings_returns_all() {
        assert_eq!(topk(&setup(), 10).len(), 3);
    }

    #[test]
    fn topk_answers_subset_of_full_ptq() {
        let engine = setup();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let full = engine
            .run(&Query::ptq(q).with_evaluator(EvaluatorHint::Naive))
            .unwrap();
        for a in topk(&engine, 2) {
            let in_full = full
                .answers
                .iter()
                .find(|f| f.mappings == a.mappings)
                .expect("top-k answer exists in full result");
            assert_eq!(in_full.matches, a.matches);
        }
    }

    #[test]
    fn k_zero_is_empty() {
        assert!(topk(&setup(), 0).is_empty());
    }

    #[test]
    fn pruning_happens_before_evaluation() {
        let engine = setup();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let ids = topk_mappings(&q, engine.mappings(), 1);
        assert_eq!(ids, vec![MappingId(0)], "highest-probability mapping kept");
        let top = engine.run(&Query::topk(q, 1)).unwrap();
        assert_eq!(top.stats.relevant, 1, "only the kept mapping is evaluated");
    }
}
