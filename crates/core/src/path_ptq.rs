//! Node-granularity PTQ evaluation.
//!
//! Label-granularity PTQ ([`Query::ptq`](crate::api::Query::ptq))
//! rewrites a query node's *label*: any source element carrying a rewritten label may
//! match. That is exact when element labels are unique (as in the paper's
//! figures, where the three ContactName elements are labelled BCN/RCN/OCN),
//! but coarser than the mapping itself when labels repeat.
//!
//! This module implements the finer semantics: a mapping sends a query
//! node to specific source *schema nodes*, and only document nodes
//! instantiating those schema nodes (identified by their root label path
//! via [`PathIndex`]) may match. This is the reproduction's main extension
//! beyond the paper's experimental prototype.
//!
//! Evaluate one with [`QueryEngine::run`](crate::engine::QueryEngine::run)
//! and [`Query::ptq_nodes`](crate::api::Query::ptq_nodes); this module
//! holds the string-based node rewrites and the schema-to-document step
//! the engine shares.

use crate::mapping::{MappingId, PossibleMappings};
use uxm_twig::TwigPattern;
use uxm_xml::{DocNodeId, PathIndex, Schema, SchemaNodeId};

/// Rewrites `q` through mapping `id` at node granularity: per query node,
/// the source schema nodes it may match. `None` when irrelevant.
pub fn rewrite_nodes_with_mapping(
    q: &TwigPattern,
    pm: &PossibleMappings,
    id: MappingId,
) -> Option<Vec<Vec<SchemaNodeId>>> {
    let mut sets = Vec::with_capacity(q.len());
    for node in q.ids() {
        let nodes = pm.source_nodes_for(id, &q.node(node).label);
        if nodes.is_empty() {
            return None;
        }
        sets.push(nodes);
    }
    Some(sets)
}

/// Node-granularity rewrite through a raw correspondence set (sorted by
/// target) — the c-block analogue.
pub fn rewrite_nodes_with_pairs(
    q: &TwigPattern,
    target: &Schema,
    pairs: &[(SchemaNodeId, SchemaNodeId)],
) -> Option<Vec<Vec<SchemaNodeId>>> {
    let source_for = |t: SchemaNodeId| -> Option<SchemaNodeId> {
        pairs
            .binary_search_by_key(&t, |&(_, tt)| tt)
            .ok()
            .map(|i| pairs[i].0)
    };
    let mut sets = Vec::with_capacity(q.len());
    for node in q.ids() {
        let mut nodes: Vec<SchemaNodeId> = target
            .nodes_with_label(&q.node(node).label)
            .into_iter()
            .filter_map(source_for)
            .collect();
        if nodes.is_empty() {
            return None;
        }
        nodes.sort_unstable();
        nodes.dedup();
        sets.push(nodes);
    }
    Some(sets)
}

/// Maps source schema nodes to the document nodes instantiating them
/// (matched by root label path).
pub fn schema_nodes_to_doc(
    sets: &[Vec<SchemaNodeId>],
    source: &Schema,
    index: &PathIndex,
) -> Vec<Vec<DocNodeId>> {
    sets.iter()
        .map(|nodes| {
            let mut out = Vec::new();
            for &s in nodes {
                out.extend_from_slice(index.nodes(&source.path(s).replace('.', "/")));
            }
            out
        })
        .collect()
}

/// The node-granularity `filter_mappings`.
pub fn filter_mappings_nodes(q: &TwigPattern, pm: &PossibleMappings) -> Vec<MappingId> {
    pm.ids()
        .filter(|&id| rewrite_nodes_with_mapping(q, pm, id).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Answer, EvaluatorHint, Query};
    use crate::block_tree::{BlockTree, BlockTreeConfig};
    use crate::engine::QueryEngine;
    use uxm_xml::{parse_document, Document};

    /// `q`'s answers at label (`nodes == false`) or node granularity,
    /// with the evaluator pinned.
    fn run(engine: &QueryEngine, q: &str, nodes: bool, hint: EvaluatorHint) -> Vec<Answer> {
        let q = TwigPattern::parse(q).unwrap();
        let query = if nodes {
            Query::ptq_nodes(q)
        } else {
            Query::ptq(q)
        };
        engine.run(&query.with_evaluator(hint)).unwrap().answers
    }

    /// Shared labels that label-mode cannot tell apart: all three contacts
    /// are `ContactName`.
    fn ambiguous_setup() -> (PossibleMappings, Document, PathIndex) {
        let source =
            Schema::parse_outline("Order(BP(BOC(ContactName) ROC(ContactName) OOC(ContactName)))")
                .unwrap();
        let target = Schema::parse_outline("ORDER(IP(ICN))").unwrap();
        let bp = source.nodes_with_label("BP")[0];
        let cns = source.nodes_with_label("ContactName");
        let t = |l: &str| target.nodes_with_label(l)[0];
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (vec![(bp, t("IP")), (cns[0], t("ICN"))], 0.3),
                (vec![(bp, t("IP")), (cns[1], t("ICN"))], 0.3),
                (vec![(bp, t("IP")), (cns[2], t("ICN"))], 0.2),
            ],
        );
        let doc = parse_document(
            "<Order><BP><BOC><ContactName>Cathy</ContactName></BOC>\
             <ROC><ContactName>Bob</ContactName></ROC>\
             <OOC><ContactName>Alice</ContactName></OOC></BP></Order>",
        )
        .unwrap();
        let index = PathIndex::new(&doc);
        (pm, doc, index)
    }

    #[test]
    fn node_mode_disambiguates_shared_labels() {
        let (pm, doc, _) = ambiguous_setup();
        let engine = QueryEngine::build(pm, doc);
        let res = run(&engine, "//IP//ICN", true, EvaluatorHint::Naive);
        assert_eq!(res.len(), 3);
        let names: Vec<&str> = res
            .iter()
            .map(|a| {
                assert_eq!(a.matches.len(), 1, "exactly one contact per mapping");
                engine.document().text(a.matches[0].nodes[1]).unwrap()
            })
            .collect();
        assert_eq!(names, ["Cathy", "Bob", "Alice"]);
    }

    #[test]
    fn label_mode_merges_shared_labels() {
        // The contrast: label-granularity returns all three contacts for
        // every mapping.
        let (pm, doc, _) = ambiguous_setup();
        let engine = QueryEngine::build(pm, doc);
        let res = run(&engine, "//IP//ICN", false, EvaluatorHint::Naive);
        assert!(res.iter().all(|a| a.matches.len() == 3));
    }

    #[test]
    fn tree_agrees_with_basic_in_node_mode() {
        let (pm, doc, _) = ambiguous_setup();
        let config = BlockTreeConfig {
            tau: 0.4,
            ..BlockTreeConfig::default()
        };
        let tree = BlockTree::build(&pm.target, &pm, &config);
        let engine = QueryEngine::new(pm, doc, tree);
        for qs in ["//IP//ICN", "//ICN", "ORDER//ICN", "ORDER"] {
            assert_eq!(
                run(&engine, qs, true, EvaluatorHint::Naive),
                run(&engine, qs, true, EvaluatorHint::BlockTree),
                "query {qs}"
            );
        }
    }

    #[test]
    fn node_mode_agrees_with_label_mode_when_labels_unique() {
        // On unique-label schemas the two semantics coincide.
        let source = Schema::parse_outline("Ord(A(X) B(Y))").unwrap();
        let target = Schema::parse_outline("PO(P(Q))").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (vec![(s("A"), t("P")), (s("X"), t("Q"))], 2.0),
                (vec![(s("B"), t("P")), (s("Y"), t("Q"))], 1.0),
            ],
        );
        let doc = parse_document("<Ord><A><X>1</X></A><B><Y>2</Y></B></Ord>").unwrap();
        let engine = QueryEngine::build(pm, doc);
        assert_eq!(
            run(&engine, "PO/P/Q", false, EvaluatorHint::Naive),
            run(&engine, "PO/P/Q", true, EvaluatorHint::Naive)
        );
    }

    #[test]
    fn path_index_resolves_instances() {
        let (_, _doc, index) = ambiguous_setup();
        assert_eq!(index.nodes("Order/BP/BOC/ContactName").len(), 1);
        assert_eq!(index.nodes("Order/BP").len(), 1);
        assert_eq!(index.nodes("Nope").len(), 0);
        assert!(index.len() >= 7);
    }
}
