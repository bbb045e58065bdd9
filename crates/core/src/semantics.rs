//! Alternative answer semantics over PTQ results.
//!
//! The paper's PTQ follows the *by-table* model of Dong, Halevy, Yu
//! (VLDB'07): one mapping governs the whole document, so an answer is a
//! `(match set, probability)` pair per mapping. Two other views are useful
//! and cheap to derive:
//!
//! * **per-match (by-tuple flavoured)** — the probability that a given
//!   *individual match* is correct, i.e. the total mass of mappings that
//!   produce it ([`match_probabilities`]);
//! * **aggregates under uncertainty** (Gal, Martinez, Simari,
//!   Subrahmanian, ICDE'09) — the distribution of `COUNT(matches)` over
//!   mappings, plus its expectation ([`count_distribution`],
//!   [`expected_count`]).

use crate::ptq::PtqResult;
use uxm_twig::TwigMatch;

/// Per-match probabilities: for every distinct match occurring under any
/// mapping, the summed probability of the mappings producing it. Sorted by
/// probability descending, ties by match.
pub fn match_probabilities(result: &PtqResult) -> Vec<(TwigMatch, f64)> {
    let mut agg: Vec<(TwigMatch, f64)> = Vec::new();
    for answer in result.iter() {
        for m in answer.matches.iter() {
            match agg.iter_mut().find(|(x, _)| x == m) {
                Some((_, p)) => *p += answer.probability,
                None => agg.push((m.clone(), answer.probability)),
            }
        }
    }
    agg.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    agg
}

/// The distribution of the number of matches: `(count, probability)`
/// pairs, sorted by count. Probabilities of mappings with equal match
/// counts are summed.
pub fn count_distribution(result: &PtqResult) -> Vec<(usize, f64)> {
    let mut dist: Vec<(usize, f64)> = Vec::new();
    for answer in result.iter() {
        let c = answer.matches.len();
        match dist.iter_mut().find(|(x, _)| *x == c) {
            Some((_, p)) => *p += answer.probability,
            None => dist.push((c, answer.probability)),
        }
    }
    dist.sort_by_key(|&(c, _)| c);
    dist
}

/// The expected number of matches under the mapping distribution,
/// normalized over the relevant mappings' mass.
pub fn expected_count(result: &PtqResult) -> f64 {
    let mass = result.total_probability();
    if mass == 0.0 {
        return 0.0;
    }
    result
        .iter()
        .map(|a| a.matches.len() as f64 * a.probability)
        .sum::<f64>()
        / mass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{EvaluatorHint, Query};
    use crate::engine::QueryEngine;
    use crate::mapping::PossibleMappings;
    use uxm_twig::TwigPattern;
    use uxm_xml::{parse_document, Document, Schema};

    /// Algorithm 3 on a fresh session, as a per-mapping result.
    fn ptq_basic(q: &TwigPattern, pm: &PossibleMappings, doc: &Document) -> PtqResult {
        let engine = QueryEngine::build(pm.clone(), doc.clone());
        let query = Query::ptq(q.clone()).with_evaluator(EvaluatorHint::Naive);
        PtqResult::from_response(engine.run(&query).unwrap())
    }

    fn setup() -> PtqResult {
        let source = Schema::parse_outline("Order(BP(BCN RCN) SP(SCN))").unwrap();
        let target = Schema::parse_outline("ORDER(IP(ICN))").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                // two mappings agree on BP~IP but pick different contacts;
                // a third maps the seller party (no matches in the doc
                // below beyond SCN).
                (vec![(s("BP"), t("IP")), (s("BCN"), t("ICN"))], 0.4),
                (vec![(s("BP"), t("IP")), (s("RCN"), t("ICN"))], 0.4),
                (vec![(s("SP"), t("IP")), (s("SCN"), t("ICN"))], 0.2),
            ],
        );
        let doc = parse_document(
            "<Order><BP><BCN>Cathy</BCN><RCN>Bob</RCN></BP><SP><SCN>Dave</SCN></SP></Order>",
        )
        .unwrap();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        ptq_basic(&q, &pm, &doc)
    }

    #[test]
    fn match_probabilities_sum_mapping_mass() {
        let res = setup();
        let per_match = match_probabilities(&res);
        assert_eq!(per_match.len(), 3, "Cathy, Bob, Dave");
        // Each match produced by exactly one mapping here.
        let total: f64 = per_match.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((per_match[0].1 - 0.4).abs() < 1e-9);
    }

    #[test]
    fn shared_match_accumulates() {
        // Two mappings producing the same match should sum.
        let source = Schema::parse_outline("O(A B)").unwrap();
        let target = Schema::parse_outline("R(X Y)").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (
                    vec![(s("O"), t("R")), (s("A"), t("X")), (s("B"), t("Y"))],
                    0.7,
                ),
                (vec![(s("O"), t("R")), (s("A"), t("X"))], 0.3),
            ],
        );
        let doc = parse_document("<O><A>v</A><B>w</B></O>").unwrap();
        let q = TwigPattern::parse("R/X").unwrap();
        let res = ptq_basic(&q, &pm, &doc);
        let per_match = match_probabilities(&res);
        assert_eq!(per_match.len(), 1);
        assert!((per_match[0].1 - 1.0).abs() < 1e-9, "0.7 + 0.3");
    }

    #[test]
    fn count_distribution_sums_to_relevant_mass() {
        let res = setup();
        let dist = count_distribution(&res);
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - res.total_probability()).abs() < 1e-9);
        // every mapping yields exactly 1 match here
        assert_eq!(dist, vec![(1, 1.0)]);
    }

    #[test]
    fn expected_count_weighted_mean() {
        let res = setup();
        assert!((expected_count(&res) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_result_yields_zero() {
        let res = PtqResult::default();
        assert_eq!(expected_count(&res), 0.0);
        assert!(count_distribution(&res).is_empty());
        assert!(match_probabilities(&res).is_empty());
    }
}
