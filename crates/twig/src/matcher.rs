//! Production twig matcher: bottom-up semi-join pruning + enumeration.
//!
//! Phase 1 computes, for every pattern node in post-order, its *satisfier
//! set*: the document nodes that match the node's label/text predicate AND
//! can root an embedding of the node's whole pattern subtree. A parent's
//! candidates are filtered by probing each child's satisfier set within the
//! candidate's subtree interval (binary search — document ids are pre-order
//! ranks). This is the list-pruning idea of TwigList (Qin et al., DASFAA'07).
//!
//! Phase 2 enumerates embeddings top-down over the pruned sets only. Since
//! every satisfier is extensible by construction, the enumeration does no
//! dead-end backtracking.

use crate::pattern::{Axis, PatternNodeId};
use crate::resolve::{ResolvedPattern, TwigMatch};
use uxm_xml::{DocNodeId, Document};

/// Finds every match of `resolved` in `doc`.
///
/// Output is identical (same order, same contents) to
/// [`crate::naive::match_twig_naive`].
pub fn match_twig(doc: &Document, resolved: &ResolvedPattern) -> Vec<TwigMatch> {
    let pattern = &resolved.pattern;
    let end = doc.subtree_end_table();

    // Post-order satisfier sets (sorted by node id).
    let mut sat: Vec<Vec<DocNodeId>> = vec![Vec::new(); pattern.len()];
    let order = post_order(pattern);
    for &p in &order {
        let mut cands = resolved.candidates(p, doc);
        let children = &pattern.node(p).children;
        if !children.is_empty() {
            cands.retain(|&n| {
                children.iter().all(|&c| {
                    has_satisfier_under(doc, &end, &sat[c.idx()], n, pattern.node(c).axis)
                })
            });
        }
        sat[p.idx()] = cands;
    }

    // Enumerate top-down.
    let mut out = Vec::new();
    let mut assignment = vec![DocNodeId(0); pattern.len()];
    for &root in &sat[pattern.root().idx()] {
        if !resolved.root_position_ok(root, doc) {
            continue;
        }
        assignment[0] = root;
        let work: Vec<(PatternNodeId, PatternNodeId)> = pattern
            .node(pattern.root())
            .children
            .iter()
            .map(|&c| (c, pattern.root()))
            .collect();
        enumerate(doc, resolved, &end, &sat, &work, &mut assignment, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// True iff `sat_child` contains a node related to `n` by `axis`.
fn has_satisfier_under(
    doc: &Document,
    end: &[u32],
    sat_child: &[DocNodeId],
    n: DocNodeId,
    axis: Axis,
) -> bool {
    match axis {
        Axis::Descendant => {
            // Any satisfier with id in (n, end[n]]?
            let lo = sat_child.partition_point(|&m| m.0 <= n.0);
            lo < sat_child.len() && sat_child[lo].0 <= end[n.idx()]
        }
        Axis::Child => {
            // Probe whichever side is smaller: n's children or the set.
            let children = doc.children(n);
            if children.len() <= sat_child.len() {
                children.iter().any(|c| sat_child.binary_search(c).is_ok())
            } else {
                let lo = sat_child.partition_point(|&m| m.0 <= n.0);
                sat_child[lo..]
                    .iter()
                    .take_while(|&&m| m.0 <= end[n.idx()])
                    .any(|&m| doc.parent(m) == Some(n))
            }
        }
    }
}

/// Children of `n` (per `axis`) inside `sat_child`, in document order.
fn satisfiers_under(
    doc: &Document,
    end: &[u32],
    sat_child: &[DocNodeId],
    n: DocNodeId,
    axis: Axis,
) -> Vec<DocNodeId> {
    let lo = sat_child.partition_point(|&m| m.0 <= n.0);
    let in_subtree = sat_child[lo..]
        .iter()
        .take_while(|&&m| m.0 <= end[n.idx()])
        .copied();
    match axis {
        Axis::Descendant => in_subtree.collect(),
        Axis::Child => in_subtree.filter(|&m| doc.parent(m) == Some(n)).collect(),
    }
}

fn enumerate(
    doc: &Document,
    resolved: &ResolvedPattern,
    end: &[u32],
    sat: &[Vec<DocNodeId>],
    work: &[(PatternNodeId, PatternNodeId)],
    assignment: &mut Vec<DocNodeId>,
    out: &mut Vec<TwigMatch>,
) {
    let Some(&(child, parent)) = work.first() else {
        out.push(TwigMatch {
            nodes: assignment.clone(),
        });
        return;
    };
    let parent_doc = assignment[parent.idx()];
    let axis = resolved.pattern.node(child).axis;
    for cand in satisfiers_under(doc, end, &sat[child.idx()], parent_doc, axis) {
        assignment[child.idx()] = cand;
        let mut next: Vec<(PatternNodeId, PatternNodeId)> = work[1..].to_vec();
        for &gc in &resolved.pattern.node(child).children {
            next.push((gc, child));
        }
        enumerate(doc, resolved, end, sat, &next, assignment, out);
    }
}

/// Pattern node ids in post-order (children before parents).
fn post_order(pattern: &crate::pattern::TwigPattern) -> Vec<PatternNodeId> {
    let mut out = Vec::with_capacity(pattern.len());
    fn rec(p: &crate::pattern::TwigPattern, n: PatternNodeId, out: &mut Vec<PatternNodeId>) {
        for &c in &p.node(n).children {
            rec(p, c, out);
        }
        out.push(n);
    }
    rec(pattern, pattern.root(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::match_twig_naive;
    use crate::pattern::TwigPattern;
    use uxm_xml::{parse_document, DocGenConfig, Schema};

    fn check(doc_xml: &str, query: &str) {
        let doc = parse_document(doc_xml).unwrap();
        let q = TwigPattern::parse(query).unwrap();
        let Some(r) = ResolvedPattern::new(&q, &doc) else {
            return;
        };
        let fast = match_twig(&doc, &r);
        let slow = match_twig_naive(&doc, &r);
        assert_eq!(fast, slow, "doc={doc_xml} q={query}");
    }

    #[test]
    fn agrees_with_naive_on_basics() {
        check("<a><b><c/></b><b><c/><c/></b></a>", "a/b/c");
        check("<a><x><b><y><c/></y></b></x></a>", "a//c");
        check("<a><b><c/></b><b><d/></b><b><c/><d/></b></a>", "a/b[./c]/d");
        check("<a><a><a/></a><a/></a>", "//a//a");
        check("<a><b/><b/></a>", "//b");
    }

    #[test]
    fn pruning_rejects_unextensible_candidates() {
        // first b has no d below, must be pruned before enumeration
        let doc = parse_document("<a><b><c/></b><b><c/><d/></b></a>").unwrap();
        let q = TwigPattern::parse("a/b[./c]/d").unwrap();
        let r = ResolvedPattern::new(&q, &doc).unwrap();
        let ms = match_twig(&doc, &r);
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn agrees_with_naive_on_generated_documents() {
        let schema = Schema::parse_outline(
            "Order(Buyer(Name Contact(EMail)) DeliverTo(Address(City Street) Contact(EMail)) \
             POLine*(LineNo Quantity UP))",
        )
        .unwrap();
        let cfg = DocGenConfig {
            target_nodes: 300,
            max_repeat: 4,
            text_prob: 0.8,
        };
        let doc = uxm_xml::Document::generate(&schema, &cfg, 17);
        for query in [
            "Order/POLine/Quantity",
            "Order//EMail",
            "Order[./Buyer/Contact]/POLine[./LineNo]/Quantity",
            "Order/DeliverTo[./Address/City]/Contact/EMail",
            "Order//Contact/EMail",
            "//POLine[./UP]//LineNo",
            "Order/DeliverTo/Address[./City]/Street",
        ] {
            let q = TwigPattern::parse(query).unwrap();
            let Some(r) = ResolvedPattern::new(&q, &doc) else {
                continue;
            };
            let fast = match_twig(&doc, &r);
            let slow = match_twig_naive(&doc, &r);
            assert_eq!(fast, slow, "q={query}");
            assert!(!fast.is_empty(), "expected matches for {query}");
        }
    }

    #[test]
    fn label_set_queries_agree() {
        let doc = parse_document("<a><b1><c/></b1><b2><c/></b2></a>").unwrap();
        let q = TwigPattern::parse("a/b/c").unwrap();
        let sets = vec![
            vec!["a".to_string()],
            vec!["b1".to_string(), "b2".to_string()],
            vec!["c".to_string()],
        ];
        let r = ResolvedPattern::with_label_sets(&q, &doc, &sets).unwrap();
        let fast = match_twig(&doc, &r);
        let slow = match_twig_naive(&doc, &r);
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 2);
    }

    #[test]
    fn text_predicates_agree() {
        let doc = parse_document("<a><n>Bob</n><n>Alice</n><m><n>Bob</n></m></a>").unwrap();
        let mut q = TwigPattern::parse("a//n").unwrap();
        q.set_text_eq(crate::pattern::PatternNodeId(1), "Bob");
        let r = ResolvedPattern::new(&q, &doc).unwrap();
        assert_eq!(match_twig(&doc, &r).len(), 2);
        assert_eq!(match_twig(&doc, &r), match_twig_naive(&doc, &r));
    }
}
