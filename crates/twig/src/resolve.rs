//! Binding a pattern to a document, with per-node label *sets*.
//!
//! Query rewriting across a schema mapping (paper §IV) turns each target
//! query label into one or more source labels. Rather than multiplying the
//! query out into one pattern per label combination, the matchers here take
//! a [`ResolvedPattern`]: the original pattern structure with, per query
//! node, the set of interned document labels it may match.

use crate::pattern::{Axis, PatternNodeId, PredOp, PredTarget, TwigPattern, ValuePred};
use uxm_xml::{DocNodeId, Document, LabelId};

impl ValuePred {
    /// True iff document node `n` satisfies this predicate.
    ///
    /// The read value is the node's text content ([`PredTarget::Text`])
    /// or the named attribute ([`PredTarget::Attr`]); a node without
    /// that value satisfies nothing. Numeric comparisons parse the value
    /// as an `f64` (surrounding whitespace trimmed); a value that does
    /// not parse, or parses to `NaN`, satisfies no numeric comparison.
    pub fn accepts(&self, n: DocNodeId, doc: &Document) -> bool {
        let value = match &self.target {
            PredTarget::Text => doc.text(n),
            PredTarget::Attr(name) => doc.attr(n, name),
        };
        let Some(value) = value else {
            return false;
        };
        match &self.op {
            PredOp::Eq(want) => value == want,
            PredOp::Contains(want) => value.contains(want.as_str()),
            PredOp::Lt(x) => numeric(value).is_some_and(|v| v < *x),
            PredOp::Le(x) => numeric(value).is_some_and(|v| v <= *x),
            PredOp::Gt(x) => numeric(value).is_some_and(|v| v > *x),
            PredOp::Ge(x) => numeric(value).is_some_and(|v| v >= *x),
        }
    }
}

/// Parses a document value as a finite number for range predicates and
/// aggregates (shared so both agree byte-for-byte on what is numeric).
pub fn numeric(value: &str) -> Option<f64> {
    let v: f64 = value.trim().parse().ok()?;
    v.is_finite().then_some(v)
}

/// A pattern resolved against one document.
///
/// Two resolution modes exist:
///
/// * **label sets** (the default) — each query node carries the interned
///   labels it may match;
/// * **node candidates** — each query node carries an explicit sorted list
///   of acceptable document nodes (used by node-granularity rewriting,
///   where a mapping pins a query node to specific source schema nodes).
#[derive(Clone, Debug)]
pub struct ResolvedPattern {
    /// Parallel to the pattern's nodes: accepted interned labels, sorted.
    /// Ignored when `node_candidates` is set.
    pub allowed: Vec<Vec<LabelId>>,
    /// Explicit acceptable document nodes per query node (sorted, unique),
    /// overriding label resolution when present.
    pub node_candidates: Option<Vec<Vec<DocNodeId>>>,
    /// The underlying pattern (structure, axes, text predicates).
    pub pattern: TwigPattern,
}

/// One embedding of a pattern into a document.
///
/// `nodes[i]` is the document node matched by pattern node `i`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TwigMatch {
    /// Document nodes, indexed by pattern node id.
    pub nodes: Vec<DocNodeId>,
}

impl TwigMatch {
    /// The document node matched by the pattern root.
    pub fn root(&self) -> DocNodeId {
        self.nodes[0]
    }
}

impl ResolvedPattern {
    /// Resolves a pattern against `doc` with its own labels (the
    /// single-schema case). Returns `None` when some label does not occur
    /// in the document at all — then no match can exist. Wildcard nodes
    /// accept every label; their `allowed` entry is empty and unused.
    pub fn new(pattern: &TwigPattern, doc: &Document) -> Option<ResolvedPattern> {
        let mut allowed = Vec::with_capacity(pattern.len());
        for id in pattern.ids() {
            if pattern.node(id).is_wildcard() {
                allowed.push(Vec::new());
                continue;
            }
            let label = doc.resolve_label(&pattern.node(id).label)?;
            allowed.push(vec![label]);
        }
        Some(ResolvedPattern {
            allowed,
            node_candidates: None,
            pattern: pattern.clone(),
        })
    }

    /// Resolves a pattern with explicit acceptable document nodes per
    /// query node. Returns `None` when some node's candidate list is empty
    /// — no match can exist. Lists are sorted and deduplicated.
    pub fn with_node_candidates(
        pattern: &TwigPattern,
        candidates: Vec<Vec<DocNodeId>>,
    ) -> Option<ResolvedPattern> {
        assert_eq!(
            candidates.len(),
            pattern.len(),
            "one candidate list per query node"
        );
        let mut lists = Vec::with_capacity(candidates.len());
        for mut list in candidates {
            if list.is_empty() {
                return None;
            }
            list.sort_unstable();
            list.dedup();
            lists.push(list);
        }
        Some(ResolvedPattern {
            allowed: vec![Vec::new(); pattern.len()],
            node_candidates: Some(lists),
            pattern: pattern.clone(),
        })
    }

    /// Resolves a pattern where query node `i` may match any of
    /// `label_sets[i]` (strings). Returns `None` when some node's set has
    /// no label present in the document.
    ///
    /// This is the `&str` shim over [`ResolvedPattern::with_label_ids`];
    /// sessions that already hold interned labels (the query engine) call
    /// the id-based entry point directly and skip the string hashing here.
    pub fn with_label_sets(
        pattern: &TwigPattern,
        doc: &Document,
        label_sets: &[Vec<String>],
    ) -> Option<ResolvedPattern> {
        assert_eq!(
            label_sets.len(),
            pattern.len(),
            "one label set per query node"
        );
        let ids = label_sets
            .iter()
            .map(|set| set.iter().filter_map(|l| doc.resolve_label(l)).collect())
            .collect();
        Self::with_label_ids(pattern, ids)
    }

    /// Resolves a pattern from per-node sets of *document-interned* label
    /// ids. Returns `None` when some non-wildcard node's set is empty —
    /// then no match can exist (a wildcard node ignores its set and
    /// accepts every label). Sets are sorted and deduplicated.
    ///
    /// This is the entry point for rewritten (target → source) queries.
    pub fn with_label_ids(
        pattern: &TwigPattern,
        label_sets: Vec<Vec<LabelId>>,
    ) -> Option<ResolvedPattern> {
        assert_eq!(
            label_sets.len(),
            pattern.len(),
            "one label set per query node"
        );
        let mut allowed = Vec::with_capacity(label_sets.len());
        for (ids, id) in label_sets.into_iter().zip(pattern.ids()) {
            let mut ids = ids;
            if ids.is_empty() && !pattern.node(id).is_wildcard() {
                return None;
            }
            ids.sort_unstable();
            ids.dedup();
            allowed.push(ids);
        }
        Some(ResolvedPattern {
            allowed,
            node_candidates: None,
            pattern: pattern.clone(),
        })
    }

    /// Document nodes that pattern node `id` may match on label/candidate
    /// and value-predicate grounds alone (no structure), in document
    /// order. A wildcard node's label candidates are every document node.
    pub fn candidates(&self, id: PatternNodeId, doc: &Document) -> Vec<DocNodeId> {
        let mut out = match &self.node_candidates {
            Some(lists) => lists[id.idx()].clone(),
            None if self.pattern.node(id).is_wildcard() => doc.ids().collect(),
            None => {
                let mut v = Vec::new();
                for &label in &self.allowed[id.idx()] {
                    v.extend_from_slice(doc.nodes_with_label_id(label));
                }
                v.sort_unstable();
                v
            }
        };
        let preds = &self.pattern.node(id).preds;
        if !preds.is_empty() {
            out.retain(|&n| preds.iter().all(|p| p.accepts(n, doc)));
        }
        out
    }

    /// True iff document node `n` satisfies pattern node `id`'s
    /// label/candidate requirement and every value predicate.
    #[inline]
    pub fn node_accepts(&self, id: PatternNodeId, n: DocNodeId, doc: &Document) -> bool {
        let node_ok = match &self.node_candidates {
            Some(lists) => lists[id.idx()].binary_search(&n).is_ok(),
            None => {
                self.pattern.node(id).is_wildcard()
                    || self.allowed[id.idx()].contains(&doc.label(n))
            }
        };
        node_ok
            && self
                .pattern
                .node(id)
                .preds
                .iter()
                .all(|p| p.accepts(n, doc))
    }

    /// True iff `n` is a valid position for the pattern *root* (which may
    /// be anchored at the document root for `Axis::Child`).
    #[inline]
    pub fn root_position_ok(&self, n: DocNodeId, doc: &Document) -> bool {
        match self.pattern.node(self.pattern.root()).axis {
            Axis::Child => n == doc.root(),
            Axis::Descendant => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uxm_xml::parse_document;

    fn doc() -> Document {
        parse_document("<a><b><c>x</c></b><b><c>y</c></b></a>").unwrap()
    }

    #[test]
    fn resolve_simple() {
        let d = doc();
        let q = TwigPattern::parse("a/b/c").unwrap();
        let r = ResolvedPattern::new(&q, &d).unwrap();
        assert_eq!(r.allowed.len(), 3);
        assert_eq!(r.candidates(PatternNodeId(2), &d).len(), 2);
    }

    #[test]
    fn resolve_missing_label_is_none() {
        let d = doc();
        let q = TwigPattern::parse("a/zzz").unwrap();
        assert!(ResolvedPattern::new(&q, &d).is_none());
    }

    #[test]
    fn label_sets_union_candidates() {
        let d = doc();
        let q = TwigPattern::parse("a/x").unwrap();
        let sets = vec![
            vec!["a".to_string()],
            vec!["b".to_string(), "c".to_string()],
        ];
        let r = ResolvedPattern::with_label_sets(&q, &d, &sets).unwrap();
        // node 1 may be any b or c
        assert_eq!(r.candidates(PatternNodeId(1), &d).len(), 4);
    }

    #[test]
    fn label_sets_all_missing_is_none() {
        let d = doc();
        let q = TwigPattern::parse("a/x").unwrap();
        let sets = vec![vec!["a".to_string()], vec!["nope".to_string()]];
        assert!(ResolvedPattern::with_label_sets(&q, &d, &sets).is_none());
    }

    #[test]
    fn text_predicate_filters_candidates() {
        let d = doc();
        let mut q = TwigPattern::parse("a//c").unwrap();
        q.set_text_eq(PatternNodeId(1), "x");
        let r = ResolvedPattern::new(&q, &d).unwrap();
        assert_eq!(r.candidates(PatternNodeId(1), &d).len(), 1);
    }

    #[test]
    fn label_ids_agree_with_string_shim() {
        let d = doc();
        let q = TwigPattern::parse("a/x").unwrap();
        let sets = vec![
            vec!["a".to_string()],
            vec!["b".to_string(), "c".to_string()],
        ];
        let via_str = ResolvedPattern::with_label_sets(&q, &d, &sets).unwrap();
        let ids = sets
            .iter()
            .map(|s| s.iter().filter_map(|l| d.resolve_label(l)).collect())
            .collect();
        let via_ids = ResolvedPattern::with_label_ids(&q, ids).unwrap();
        assert_eq!(via_str.allowed, via_ids.allowed);
        assert!(ResolvedPattern::with_label_ids(&q, vec![vec![], vec![]]).is_none());
    }

    #[test]
    fn wildcard_accepts_every_label() {
        let d = doc();
        let q = TwigPattern::parse("a/*/c").unwrap();
        let r = ResolvedPattern::new(&q, &d).unwrap();
        // The wildcard's candidates are all 7 nodes; node_accepts agrees.
        assert_eq!(r.candidates(PatternNodeId(1), &d).len(), d.len());
        assert!(d.ids().all(|n| r.node_accepts(PatternNodeId(1), n, &d)));
        // Empty rewrite sets are fine for wildcards, fatal otherwise.
        let sets = vec![vec!["a".into()], vec![], vec!["c".to_string()]];
        assert!(ResolvedPattern::with_label_sets(&q, &d, &sets).is_some());
    }

    #[test]
    fn value_predicates_filter_candidates() {
        let d =
            parse_document("<a><p n=\"1\">10</p><p n=\"2\">7.5</p><p>x</p><q n=\"1\">3</q></a>")
                .unwrap();
        let cands = |q: &str| {
            let q = TwigPattern::parse(q).unwrap();
            let r = ResolvedPattern::new(&q, &d).unwrap();
            r.candidates(PatternNodeId(1), &d).len()
        };
        assert_eq!(cands("a/p[.>=7.5]"), 2);
        assert_eq!(cands("a/p[.>7.5]"), 1);
        assert_eq!(cands("a/p[.<8]"), 1);
        assert_eq!(cands("a/p[.<=10]"), 2); // "x" is not numeric
        assert_eq!(cands("a/p[@n='1']"), 1);
        assert_eq!(cands("a/p[contains(.,'.')]"), 1);
        assert_eq!(cands("a/p[@n<2]"), 1);
        assert_eq!(cands("a/p[@n>=1]"), 2);
        assert_eq!(cands("a/p[.>=7.5][@n='2']"), 1); // conjunction
        let q = TwigPattern::parse("a/*[@n='1']").unwrap();
        let r = ResolvedPattern::new(&q, &d).unwrap();
        assert_eq!(r.candidates(PatternNodeId(1), &d).len(), 2); // p and q
    }

    #[test]
    fn numeric_parses_trimmed_finite_values() {
        assert_eq!(numeric(" 3.5 "), Some(3.5));
        assert_eq!(numeric("-2"), Some(-2.0));
        assert_eq!(numeric("x"), None);
        assert_eq!(numeric("NaN"), None);
        assert_eq!(numeric("inf"), None);
        assert_eq!(numeric(""), None);
    }

    #[test]
    fn root_anchoring() {
        let d = doc();
        let q_abs = TwigPattern::parse("b").unwrap(); // absolute: must be doc root
        let r = ResolvedPattern::new(&q_abs, &d).unwrap();
        let b = d.nodes_with_label("b")[0];
        assert!(!r.root_position_ok(b, &d));
        assert!(r.root_position_ok(d.root(), &d));

        let q_rel = TwigPattern::parse("//b").unwrap();
        let r = ResolvedPattern::new(&q_rel, &d).unwrap();
        assert!(r.root_position_ok(b, &d));
    }
}
