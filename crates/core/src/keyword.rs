//! Keyword queries under uncertain schema matching — the paper's §VII
//! future work ("we would consider how the block tree can facilitate the
//! evaluation of other types of XML queries (e.g., XQuery and keyword
//! query)").
//!
//! A keyword query is a bag of terms; following the standard XML keyword
//! search semantics, its answers are the *smallest lowest common
//! ancestors* (SLCA): document nodes whose subtree contains every keyword
//! while no proper descendant's subtree does.
//!
//! Keywords are interpreted in the *target* vocabulary where possible: a
//! term equal to a target element label is rewritten, per possible
//! mapping, to the mapped source elements' labels (vocabulary terms);
//! terms that match no target label are *value* terms and match document
//! text directly, independent of the mapping. Like PTQ, the result is one
//! SLCA set per relevant mapping, weighted by the mapping's probability —
//! and mappings whose rewrites agree share one evaluation. A mapping is
//! irrelevant (and skipped) when some vocabulary term has no
//! correspondence under it; value terms never filter mappings.
//!
//! Evaluate one with [`QueryEngine::run`](crate::engine::QueryEngine::run)
//! and [`Query::keyword`](crate::api::Query::keyword); malformed inputs
//! surface as [`KeywordError`] instead of panicking.

use crate::mapping::MappingId;
use std::fmt;
use uxm_xml::DocNodeId;

/// One per-mapping keyword answer.
#[derive(Clone, Debug, PartialEq)]
pub struct KeywordAnswer {
    /// The mapping this answer was computed under.
    pub mapping: MappingId,
    /// The probability that the mapping (and hence the answer) is correct.
    pub probability: f64,
    /// SLCA nodes, in document order.
    pub slcas: Vec<DocNodeId>,
}

/// Rejected keyword queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeywordError {
    /// The keyword list was empty — no SLCA is defined.
    Empty,
    /// More keywords than the 64-bit coverage bitmask can track.
    TooMany {
        /// How many keywords were supplied.
        count: usize,
    },
}

impl fmt::Display for KeywordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeywordError::Empty => write!(f, "keyword query needs at least one keyword"),
            KeywordError::TooMany { count } => {
                write!(
                    f,
                    "keyword query has {count} keywords; at most 64 are supported"
                )
            }
        }
    }
}

impl std::error::Error for KeywordError {}

impl KeywordError {
    /// Validates a keyword list against the evaluator's limits.
    pub fn check(keywords: &[&str]) -> Result<(), KeywordError> {
        if keywords.is_empty() {
            return Err(KeywordError::Empty);
        }
        if keywords.len() > 64 {
            return Err(KeywordError::TooMany {
                count: keywords.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Query;
    use crate::engine::{contains_word, QueryEngine};
    use crate::error::UxmError;
    use crate::mapping::PossibleMappings;
    use uxm_xml::{parse_document, Document, Schema};

    /// Runs a keyword query on a fresh session over [`setup`]'s data.
    fn keyword_query(terms: &[&str]) -> Result<Vec<KeywordAnswer>, UxmError> {
        let (pm, doc) = setup();
        let engine = QueryEngine::build(pm, doc);
        let query = Query::keyword(terms.iter().map(|t| t.to_string()).collect());
        let answers = engine
            .run(&query)?
            .answers
            .into_iter()
            .map(|a| KeywordAnswer {
                mapping: a.mappings[0],
                probability: a.probability,
                slcas: a.matches.iter().map(|m| m.nodes[0]).collect(),
            })
            .collect();
        Ok(answers)
    }

    fn setup() -> (PossibleMappings, Document) {
        let source = Schema::parse_outline("Order(BP(BCN RCN) SP(SCN))").unwrap();
        let target = Schema::parse_outline("ORDER(IP(ICN))").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (vec![(s("BP"), t("IP")), (s("BCN"), t("ICN"))], 0.5),
                (vec![(s("BP"), t("IP")), (s("RCN"), t("ICN"))], 0.3),
                (vec![(s("SP"), t("IP")), (s("SCN"), t("ICN"))], 0.2),
            ],
        );
        let doc = parse_document(
            "<Order><BP><BCN>Cathy</BCN><RCN>Bob</RCN></BP><SP><SCN>Dave</SCN></SP></Order>",
        )
        .unwrap();
        (pm, doc)
    }

    #[test]
    fn vocabulary_keyword_rewrites_per_mapping() {
        let (_, doc) = setup();
        // "ICN" is a target label; each mapping sends it elsewhere.
        let answers = keyword_query(&["ICN"]).unwrap();
        assert_eq!(answers.len(), 3);
        // m0: ICN -> BCN: SLCA is the BCN node itself.
        let bcn = doc.nodes_with_label("BCN")[0];
        assert_eq!(answers[0].slcas, vec![bcn]);
        let scn = doc.nodes_with_label("SCN")[0];
        assert_eq!(answers[2].slcas, vec![scn]);
    }

    #[test]
    fn value_keyword_is_mapping_independent() {
        let (_, doc) = setup();
        let answers = keyword_query(&["Bob"]).unwrap();
        assert_eq!(answers.len(), 3, "no filtering by value terms");
        let rcn = doc.nodes_with_label("RCN")[0];
        for a in &answers {
            assert_eq!(a.slcas, vec![rcn]);
        }
    }

    #[test]
    fn mixed_terms_compute_slca() {
        let (_, doc) = setup();
        // "IP" rewrites to BP (m0, m1) or SP (m2); "Bob" sits under BP.
        let answers = keyword_query(&["IP", "Bob"]).unwrap();
        assert_eq!(answers.len(), 3);
        let bp = doc.nodes_with_label("BP")[0];
        // Under m0/m1 both keywords are inside BP; the RCN node holds
        // "Bob" but not the IP-rewrite, so the SLCA is BP itself.
        assert_eq!(answers[0].slcas, vec![bp]);
        assert_eq!(answers[1].slcas, vec![bp]);
        // Under m2, IP -> SP but Bob is under BP: the only common subtree
        // is the root.
        assert_eq!(answers[2].slcas, vec![doc.root()]);
    }

    #[test]
    fn slca_prefers_deepest_cover() {
        let (_, doc) = setup();
        // Both terms match the same node: SLCA is that node, not its
        // ancestors.
        let answers = keyword_query(&["ICN", "Cathy"]).unwrap();
        let bcn = doc.nodes_with_label("BCN")[0];
        assert_eq!(answers[0].slcas, vec![bcn]);
        // m1 (ICN->RCN): RCN doesn't contain "Cathy" -> SLCA is BP.
        let bp = doc.nodes_with_label("BP")[0];
        assert_eq!(answers[1].slcas, vec![bp]);
    }

    #[test]
    fn missing_keyword_yields_empty_slca() {
        let answers = keyword_query(&["zzz-not-present"]).unwrap();
        assert_eq!(answers.len(), 3);
        assert!(answers.iter().all(|a| a.slcas.is_empty()));
    }

    #[test]
    fn shared_rewrites_share_results() {
        // "IP" rewrites identically for m0 and m1 -> identical SLCA sets.
        let answers = keyword_query(&["IP"]).unwrap();
        assert_eq!(answers[0].slcas, answers[1].slcas);
        assert_ne!(answers[0].slcas, answers[2].slcas);
    }

    #[test]
    fn probabilities_carried_through() {
        let answers = keyword_query(&["ICN"]).unwrap();
        let total: f64 = answers.iter().map(|a| a.probability).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_keyword_list_is_an_error() {
        assert_eq!(
            keyword_query(&[]).unwrap_err(),
            UxmError::Keyword(KeywordError::Empty)
        );
    }

    #[test]
    fn too_many_keywords_is_an_error() {
        let many: Vec<&str> = vec!["ICN"; 65];
        assert_eq!(
            keyword_query(&many).unwrap_err(),
            UxmError::Keyword(KeywordError::TooMany { count: 65 })
        );
        // 64 keywords is still fine (the bitmask boundary).
        let at_limit: Vec<&str> = vec!["ICN"; 64];
        assert!(keyword_query(&at_limit).is_ok());
    }

    #[test]
    fn whole_word_matching() {
        assert!(contains_word("Bob Smith", "bob"));
        assert!(!contains_word("Bobby", "bob"));
        assert!(contains_word("a,bob;c", "Bob"));
    }
}
