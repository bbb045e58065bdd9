//! The probabilistic twig query (Definition 4) and its per-mapping
//! result.
//!
//! A PTQ returns, per relevant mapping `m_i`, the match set `R_i` of the
//! rewritten query on the source document together with `p_i` — the
//! probability that `R_i` is the correct answer. Evaluate one with
//! [`QueryEngine::run`](crate::engine::QueryEngine::run) and
//! [`Query::ptq`](crate::api::Query::ptq); pin Algorithm 3 with
//! [`EvaluatorHint::Naive`](crate::api::EvaluatorHint::Naive).

use crate::mapping::MappingId;
use std::sync::Arc;
use uxm_twig::TwigMatch;

/// One `(R_i, pr(R_i))` tuple of a PTQ result.
#[derive(Clone, Debug, PartialEq)]
pub struct PtqAnswer {
    /// The mapping this answer was computed under.
    pub mapping: MappingId,
    /// `p_i` — the probability the mapping (and hence this answer) is
    /// correct.
    pub probability: f64,
    /// The matches of the rewritten query on the document (may be empty:
    /// the mapping is relevant but the document has no occurrence).
    /// Shared: the compiled backend hands every mapping of one shape
    /// group the same allocation.
    pub matches: Arc<[TwigMatch]>,
}

/// A full PTQ result: one answer per relevant mapping, in mapping order.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PtqResult {
    /// The per-mapping answers.
    pub answers: Vec<PtqAnswer>,
}

impl PtqResult {
    /// Iterate over answers.
    pub fn iter(&self) -> std::slice::Iter<'_, PtqAnswer> {
        self.answers.iter()
    }

    /// Number of answers (relevant mappings).
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True when no mapping was relevant.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// Total probability mass of the answers.
    pub fn total_probability(&self) -> f64 {
        self.answers.iter().map(|a| a.probability).sum()
    }

    /// Groups identical match sets, summing their probabilities — the
    /// "distinct answers" view of the paper's introduction example
    /// (`{("Cathy", .3), ("Bob", .3), ("Alice", .2)}`). Sorted by
    /// probability descending.
    pub fn aggregate(&self) -> Vec<(Vec<TwigMatch>, f64)> {
        let mut groups: Vec<(Vec<TwigMatch>, f64)> = Vec::new();
        for a in &self.answers {
            match groups.iter_mut().find(|(m, _)| m[..] == a.matches[..]) {
                Some((_, p)) => *p += a.probability,
                None => groups.push((a.matches.to_vec(), a.probability)),
            }
        }
        groups.sort_by(|a, b| b.1.total_cmp(&a.1));
        groups
    }

    /// Sorts answers by mapping id (the canonical order for comparisons).
    pub fn normalize(&mut self) {
        self.answers.sort_by_key(|a| a.mapping);
    }
}

#[cfg(test)]
impl PtqResult {
    /// The per-mapping result behind a [`Granularity::Mapping`] response
    /// (test fixtures feed it to the [`crate::semantics`] functions).
    ///
    /// [`Granularity::Mapping`]: crate::api::Granularity::Mapping
    pub(crate) fn from_response(response: crate::api::QueryResponse) -> PtqResult {
        let answers = response
            .answers
            .into_iter()
            .map(|a| PtqAnswer {
                mapping: a.mappings[0],
                probability: a.probability,
                matches: a.matches,
            })
            .collect();
        PtqResult { answers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{EvaluatorHint, Query};
    use crate::engine::QueryEngine;
    use crate::mapping::PossibleMappings;
    use uxm_twig::TwigPattern;
    use uxm_xml::{parse_document, Document, Schema, SchemaNodeId};

    /// The paper's introduction example: query //IP//ICN over Fig. 2's
    /// document with three mappings for ICN.
    fn intro_example() -> (PossibleMappings, Document) {
        let source =
            Schema::parse_outline("Order(BP(BOC(BCN) ROC(RCN) OOC(OCN)) SP(SCN))").unwrap();
        let target = Schema::parse_outline("ORDER(IP(ICN))").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        // probabilities .3, .3, .2 (plus .2 of an irrelevant mapping)
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (vec![(s("BP"), t("IP")), (s("BCN"), t("ICN"))], 0.3),
                (vec![(s("BP"), t("IP")), (s("RCN"), t("ICN"))], 0.3),
                (vec![(s("BP"), t("IP")), (s("OCN"), t("ICN"))], 0.2),
                (vec![(s("Order"), t("ORDER"))], 0.2),
            ],
        );
        let doc = parse_document(
            "<Order><BP><BOC><BCN>Cathy</BCN></BOC><ROC><RCN>Bob</RCN></ROC>\
             <OOC><OCN>Alice</OCN></OOC></BP><SP><SCN>Dave</SCN></SP></Order>",
        )
        .unwrap();
        (pm, doc)
    }

    /// Algorithm 3 (`query_basic`) on a fresh session.
    fn basic(q: &TwigPattern, pm: PossibleMappings, doc: Document) -> PtqResult {
        let engine = QueryEngine::build(pm, doc);
        let query = Query::ptq(q.clone()).with_evaluator(EvaluatorHint::Naive);
        PtqResult::from_response(engine.run(&query).unwrap())
    }

    #[test]
    fn intro_example_answers() {
        let (pm, doc) = intro_example();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let res = basic(&q, pm, doc.clone());
        assert_eq!(res.len(), 3, "irrelevant mapping filtered");
        // Answers carry the mapping probabilities and find one name each.
        let names: Vec<(&str, f64)> = res
            .iter()
            .map(|a| {
                assert_eq!(a.matches.len(), 1);
                let icn_node = a.matches[0].nodes[1];
                (doc.text(icn_node).unwrap(), a.probability)
            })
            .collect();
        assert_eq!(names[0].0, "Cathy");
        assert_eq!(names[1].0, "Bob");
        assert_eq!(names[2].0, "Alice");
        assert!((names[0].1 - 0.3).abs() < 1e-9);
        assert!((names[2].1 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn aggregate_groups_identical_answers() {
        let (pm, doc) = intro_example();
        let q = TwigPattern::parse("//IP").unwrap();
        let res = basic(&q, pm, doc);
        // All three relevant mappings rewrite IP to BP: identical answers.
        let agg = res.aggregate();
        assert_eq!(agg.len(), 1);
        assert!((agg[0].1 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn empty_match_answers_are_kept() {
        let (pm, _) = intro_example();
        let doc = parse_document("<Order><Other/></Order>").unwrap();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let res = basic(&q, pm, doc);
        assert_eq!(res.len(), 3);
        assert!(res.iter().all(|a| a.matches.is_empty()));
    }

    #[test]
    fn total_probability_bounded_by_one() {
        let (pm, doc) = intro_example();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let p = basic(&q, pm, doc).total_probability();
        assert!(p > 0.0 && p <= 1.0 + 1e-9);
    }

    #[test]
    fn unknown_query_label_yields_empty_result() {
        let (pm, doc) = intro_example();
        let q = TwigPattern::parse("//IP//MISSING").unwrap();
        assert!(basic(&q, pm, doc).is_empty());
    }

    #[test]
    fn text_predicate_respected_through_rewrite() {
        let (pm, doc) = intro_example();
        let mut q = TwigPattern::parse("//IP//ICN").unwrap();
        q.set_text_eq(uxm_twig::PatternNodeId(1), "Bob");
        let res = basic(&q, pm, doc);
        // only the RCN mapping finds "Bob"
        let non_empty: Vec<_> = res.iter().filter(|a| !a.matches.is_empty()).collect();
        assert_eq!(non_empty.len(), 1);
        assert!((non_empty[0].probability - 0.3).abs() < 1e-9);
    }

    #[test]
    fn schema_node_ids_are_stable_in_pairs() {
        // guard: from_pairs + source_for_target interact correctly
        let (pm, _) = intro_example();
        let t_icn = pm.target.nodes_with_label("ICN")[0];
        let m0 = pm.mapping(MappingId(0));
        assert_eq!(
            m0.source_for_target(t_icn),
            Some(pm.source.nodes_with_label("BCN")[0] as SchemaNodeId)
        );
    }
}
