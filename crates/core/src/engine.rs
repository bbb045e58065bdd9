//! The query-session layer: [`QueryEngine`].
//!
//! Every query evaluates through this module's one entry point,
//! [`QueryEngine::run`]: Algorithm 3 (naive PTQ), Algorithm 4
//! (block-tree PTQ), top-k, node granularity ([`crate::path_ptq`]) and
//! keyword queries ([`crate::keyword`]) all live here. A [`QueryEngine`]
//! owns one session's data — `(source schema, target schema,
//! PossibleMappings, Document)` — plus derived state built once per
//! session instead of once per query:
//!
//! * a [`SymbolTable`] interning every label of both schemas and the
//!   document, so rewriting and filtering compare dense `u32` symbols,
//!   never strings;
//! * per-symbol target-node and document-label inverted indexes;
//! * per-symbol *relevance bitsets* over the mapping set, turning the
//!   paper's `filter_mappings` into a handful of bitwise ANDs.
//!
//! All of it is immutable after build: a query is a pure function of the
//! query and the session. The compiled backend compiles a fresh program
//! per evaluation ([`crate::exec`]) and keeps nothing, so concurrent
//! queries on one shared engine meet only in the two lazily built
//! indexes: the path index (node granularity) and the block tree, which
//! only a pinned `block-tree` plan reads. An engine from
//! [`QueryEngine::build`] or a snapshot builds its tree on that first
//! pinned run, with [`BlockTreeConfig::default`]. Answers on a
//! long-lived engine are pinned to fresh-session answers by
//! `tests/engine_equivalence.rs`.

use crate::aggregate::{self, AggFunc, AggregateResult};
use crate::api::{ExecStats, Query, QueryResponse};
use crate::block_tree::{BlockTree, BlockTreeConfig};
use crate::error::UxmError;
use crate::exec::{self, Explain, RunOutput, SetMode};
use crate::keyword::{KeywordAnswer, KeywordError};
use crate::mapping::{MappingId, PossibleMappings};
use crate::planner::{self, Evaluator};
use crate::ptq::{PtqAnswer, PtqResult};
use std::collections::HashMap;
use std::sync::OnceLock;
use uxm_twig::structural_join::structural_join;
use uxm_twig::{match_twig, Axis, PatternNodeId, ResolvedPattern, TwigMatch, TwigPattern};
use uxm_xml::{DocNodeId, Document, LabelId, PathIndex, Schema, SchemaNodeId, Symbol, SymbolTable};

// ---------------------------------------------------------------------
// relevance bitsets

/// A fixed-width bitset over mapping ids.
#[derive(Clone, Debug, PartialEq, Eq)]
struct MappingBits {
    words: Vec<u64>,
    len: usize,
}

impl MappingBits {
    #[cfg(test)]
    fn empty(len: usize) -> MappingBits {
        MappingBits {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    fn full(len: usize) -> MappingBits {
        let mut b = MappingBits {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        // Clear the tail beyond `len`.
        if !len.is_multiple_of(64) {
            if let Some(last) = b.words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        b
    }

    #[cfg(test)]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn and_assign(&mut self, other: &[u64]) {
        for (w, o) in self.words.iter_mut().zip(other) {
            *w &= o;
        }
    }

    fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Set bits in ascending order, as mapping ids.
    fn ids(&self) -> Vec<MappingId> {
        let mut out = Vec::new();
        for (wi, &w) in self.words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push(MappingId((wi * 64 + bit) as u32));
                w &= w - 1;
            }
        }
        out
    }
}

/// Per-symbol relevance bitsets over the mapping set, stored flat — one
/// allocation for all symbols, which keeps session construction cheap.
struct RelevanceIndex {
    words_per_sym: usize,
    words: Vec<u64>,
}

impl RelevanceIndex {
    fn new(n_syms: usize, n_mappings: usize) -> RelevanceIndex {
        let words_per_sym = n_mappings.div_ceil(64);
        RelevanceIndex {
            words_per_sym,
            words: vec![0; n_syms * words_per_sym],
        }
    }

    #[inline]
    fn set(&mut self, sym: Symbol, mapping: usize) {
        self.words[sym.idx() * self.words_per_sym + mapping / 64] |= 1 << (mapping % 64);
    }

    /// The bitset words for `sym`'s label.
    #[inline]
    fn of(&self, sym: Symbol) -> &[u64] {
        let start = sym.idx() * self.words_per_sym;
        &self.words[start..start + self.words_per_sym]
    }
}

/// The distinct correspondences of the mapping set, CSR over target
/// schema nodes: per target, the sources that some mapping assigns to
/// it, each with the bitset of mappings holding that `(target, source)`
/// pair. Possible mappings share most of their correspondences (the
/// observation behind the paper's c-blocks), so this is far smaller than
/// the mappings' own rows: on D7 (|M| = 100) 14,700 pairs collapse to
/// 157 entries.
struct CorrespondenceIndex {
    /// Target `t`'s entries are `offsets[t]..offsets[t + 1]`.
    offsets: Vec<u32>,
    /// Per entry: the source node.
    sources: Vec<SchemaNodeId>,
    /// Per entry: `words` words of mapping bits.
    bits: Vec<u64>,
    words: usize,
}

impl CorrespondenceIndex {
    /// Builds the index in O(total pairs): bucket the pairs by target
    /// (a counting sort), then group each bucket's few sources with a
    /// per-source stamp. A mapping contributes only the first of several
    /// pairs sharing a target, the one a merge walk of its
    /// target-sorted row meets first.
    fn build(pm: &PossibleMappings) -> CorrespondenceIndex {
        let n_targets = pm.target.len();
        let words = pm.len().div_ceil(64);
        // Every `(source, target, mapping)`, first pair per target only.
        let pairs = || {
            pm.iter().flat_map(|(mid, m)| {
                m.pairs
                    .iter()
                    .enumerate()
                    .filter(move |&(i, &(_, t))| i == 0 || m.pairs[i - 1].1 != t)
                    .map(move |(_, &(s, t))| (s, t, mid.0))
            })
        };
        let mut starts = vec![0u32; n_targets + 1];
        for (_, t, _) in pairs() {
            starts[t.idx() + 1] += 1;
        }
        for t in 0..n_targets {
            starts[t + 1] += starts[t];
        }
        let mut fill = starts.clone();
        let mut bucket = vec![(SchemaNodeId(0), 0u32); starts[n_targets] as usize];
        for (s, t, m) in pairs() {
            bucket[fill[t.idx()] as usize] = (s, m);
            fill[t.idx()] += 1;
        }

        let mut offsets = Vec::with_capacity(n_targets + 1);
        offsets.push(0u32);
        let (mut sources, mut bits) = (Vec::new(), Vec::new());
        // `stamp[s]` is the last target whose bucket met source `s`, and
        // `entry[s]` the entry it got there.
        let mut stamp = vec![u32::MAX; pm.source.len()];
        let mut entry = vec![0usize; pm.source.len()];
        for t in 0..n_targets {
            for &(s, m) in &bucket[starts[t] as usize..starts[t + 1] as usize] {
                if stamp[s.idx()] != t as u32 {
                    stamp[s.idx()] = t as u32;
                    entry[s.idx()] = sources.len();
                    sources.push(s);
                    bits.resize(bits.len() + words, 0);
                }
                bits[entry[s.idx()] * words + m as usize / 64] |= 1 << (m % 64);
            }
            offsets.push(sources.len() as u32);
        }
        CorrespondenceIndex {
            offsets,
            sources,
            bits,
            words,
        }
    }

    fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.len() * size_of::<u32>()
            + self.sources.len() * size_of::<SchemaNodeId>()
            + self.bits.len() * size_of::<u64>()
    }
}

// ---------------------------------------------------------------------
// session state

/// One query node as the session sees it: its interned label symbol
/// (`None` when the label occurs in neither schema nor the document),
/// and whether it is the wildcard `*` — which constrains nothing: it
/// never filters mappings, and its rewrite set is empty-but-fine (every
/// document node is a candidate at match time).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct QuerySym {
    /// The interned label, for labelled nodes known to the session.
    pub(crate) sym: Option<Symbol>,
    /// True for `*` nodes.
    pub(crate) wild: bool,
}

impl QuerySym {
    /// A wildcard query node.
    pub(crate) const WILD: QuerySym = QuerySym {
        sym: None,
        wild: true,
    };

    /// A labelled query node.
    pub(crate) fn label(sym: Option<Symbol>) -> QuerySym {
        QuerySym { sym, wild: false }
    }
}

/// Rewrite sets per query node — interned labels, sorted and deduplicated.
type SymbolSets = Vec<Vec<Symbol>>;
/// Node-granularity rewrite sets per query node.
type NodeSets = Vec<Vec<SchemaNodeId>>;

/// Everything derivable from `(PossibleMappings, Document)` that query
/// evaluation wants precomputed. Built once per [`QueryEngine`] and
/// immutable afterwards.
pub(crate) struct SessionState {
    symbols: SymbolTable,
    /// Per source schema node: its label's symbol.
    source_syms: Vec<Symbol>,
    /// Per symbol: target schema nodes carrying it (pre-order).
    target_nodes_by_sym: Vec<Vec<SchemaNodeId>>,
    /// Per symbol: the document's interned id for that label, if present.
    sym_doc_label: Vec<Option<LabelId>>,
    /// Per symbol: mappings covering ≥1 target node with that label.
    relevance: RelevanceIndex,
    /// Per target node: its distinct sources and their mapping bitsets.
    correspondences: CorrespondenceIndex,
    n_mappings: usize,
}

impl SessionState {
    pub(crate) fn build(pm: &PossibleMappings, doc: &Document) -> SessionState {
        let mut symbols = SymbolTable::new();
        let source_syms: Vec<Symbol> = pm
            .source
            .ids()
            .map(|id| symbols.intern(pm.source.label(id)))
            .collect();
        let target_syms: Vec<Symbol> = pm
            .target
            .ids()
            .map(|id| symbols.intern(pm.target.label(id)))
            .collect();
        let doc_label_syms: Vec<(Symbol, LabelId)> = (0..doc.label_count() as u32)
            .map(|l| (symbols.intern(doc.label_name(LabelId(l))), LabelId(l)))
            .collect();

        let mut target_nodes_by_sym = vec![Vec::new(); symbols.len()];
        for (id, &sym) in pm.target.ids().zip(&target_syms) {
            target_nodes_by_sym[sym.idx()].push(id);
        }

        let mut sym_doc_label = vec![None; symbols.len()];
        for (sym, l) in doc_label_syms {
            sym_doc_label[sym.idx()] = Some(l);
        }

        let n_mappings = pm.len();
        let mut relevance = RelevanceIndex::new(symbols.len(), n_mappings);
        for (mid, m) in pm.iter() {
            for &(_, t) in m.pairs {
                relevance.set(target_syms[t.idx()], mid.idx());
            }
        }

        SessionState {
            symbols,
            source_syms,
            target_nodes_by_sym,
            sym_doc_label,
            relevance,
            correspondences: CorrespondenceIndex::build(pm),
            n_mappings,
        }
    }

    /// Resident heap bytes of the precomputed session state: the
    /// relevance bitsets, the correspondence index, per-symbol indexes,
    /// and symbol-table strings.
    fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        self.relevance.words.len() * size_of::<u64>()
            + self.correspondences.arena_bytes()
            + self.source_syms.len() * size_of::<Symbol>()
            + self
                .target_nodes_by_sym
                .iter()
                .map(|v| v.len() * size_of::<SchemaNodeId>() + size_of::<Vec<SchemaNodeId>>())
                .sum::<usize>()
            + self.sym_doc_label.len() * size_of::<Option<LabelId>>()
            + self
                .symbols
                .iter()
                .map(|(_, n)| n.len() + size_of::<String>())
                .sum::<usize>()
    }

    /// Per pattern node: the session's view of it (label symbol, or
    /// wildcard).
    pub(crate) fn query_syms(&self, q: &TwigPattern) -> Vec<QuerySym> {
        q.ids()
            .map(|id| {
                let node = q.node(id);
                if node.is_wildcard() {
                    QuerySym::WILD
                } else {
                    QuerySym {
                        sym: self.symbols.resolve(&node.label),
                        wild: false,
                    }
                }
            })
            .collect()
    }

    /// Target schema nodes whose label is `sym`.
    #[inline]
    pub(crate) fn target_nodes(&self, sym: Option<Symbol>) -> &[SchemaNodeId] {
        match sym {
            Some(s) => &self.target_nodes_by_sym[s.idx()],
            None => &[],
        }
    }

    /// Number of mappings in the session — the width every liveness
    /// bitset (including a compiled program's) is sized to.
    pub(crate) fn n_mappings(&self) -> usize {
        self.n_mappings
    }

    /// The relevance bitset column for `sym` (bit `i` ⇔ mapping `i`
    /// covers a target node with that label) — what a compiled
    /// program's `and-relevance` op ANDs.
    pub(crate) fn relevance_words(&self, sym: Symbol) -> &[u64] {
        self.relevance.of(sym)
    }

    /// The correspondence-index entries of target node `t`: one per
    /// distinct source some mapping assigns to `t`.
    pub(crate) fn correspondences(&self, t: SchemaNodeId) -> std::ops::Range<usize> {
        let offsets = &self.correspondences.offsets;
        offsets[t.idx()] as usize..offsets[t.idx() + 1] as usize
    }

    /// The source node of correspondence-index entry `e`.
    pub(crate) fn correspondence_source(&self, e: usize) -> SchemaNodeId {
        self.correspondences.sources[e]
    }

    /// The bitset words (`⌈|M|/64⌉`) of the mappings holding
    /// correspondence-index entry `e`.
    pub(crate) fn correspondence_bits(&self, e: usize) -> &[u64] {
        let words = self.correspondences.words;
        &self.correspondences.bits[e * words..(e + 1) * words]
    }

    /// The source-label symbol of a source schema node (the compiled
    /// label-granularity projection).
    pub(crate) fn source_sym(&self, s: SchemaNodeId) -> Symbol {
        self.source_syms[s.idx()]
    }

    /// The document label for a raw symbol id — the VM's shape-class
    /// rows store symbols as raw `u32`s.
    pub(crate) fn doc_label_raw(&self, raw: u32) -> Option<LabelId> {
        self.sym_doc_label[raw as usize]
    }

    /// The paper's `filter_mappings` via bitset intersection. Ids come
    /// out in ascending order, matching `filter_mappings`.
    pub(crate) fn relevant(&self, q: &TwigPattern) -> Vec<MappingId> {
        let mut bits = MappingBits::full(self.n_mappings);
        for qs in self.query_syms(q) {
            // A wildcard matches under every mapping: it filters nothing.
            if qs.wild {
                continue;
            }
            match qs.sym {
                Some(s) => bits.and_assign(self.relevance.of(s)),
                None => bits.clear(),
            }
        }
        bits.ids()
    }

    /// One query node's rewrite through a correspondence set sorted by
    /// target (a mapping's pairs, or a c-block acting as a mini-mapping):
    /// the target nodes carrying its label, mapped to their sources and
    /// projected by `project`; sorted, deduped, `None` when empty (the
    /// node — hence the mapping — is irrelevant). A wildcard node
    /// rewrites to the *empty* set without killing the mapping: it has no
    /// label to rewrite, and the matchers treat its empty set as "any
    /// document node".
    fn rewrite_one<T: Ord>(
        &self,
        qs: QuerySym,
        pairs: &[(SchemaNodeId, SchemaNodeId)],
        project: impl Fn(SchemaNodeId) -> T,
    ) -> Option<Vec<T>> {
        if qs.wild {
            return Some(Vec::new());
        }
        let source_for = |t| {
            pairs
                .binary_search_by_key(&t, |&(_, tt)| tt)
                .ok()
                .map(|i| pairs[i].0)
        };
        let mut out: Vec<T> = self
            .target_nodes(qs.sym)
            .iter()
            .filter_map(|&t| source_for(t).map(&project))
            .collect();
        if out.is_empty() {
            return None;
        }
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    /// [`Self::rewrite_one`] across all query nodes; `None` as soon as any
    /// (non-wildcard) node comes up empty.
    fn rewrite_all<T: Ord>(
        &self,
        qsyms: &[QuerySym],
        pairs: &[(SchemaNodeId, SchemaNodeId)],
        project: impl Fn(SchemaNodeId) -> T + Copy,
    ) -> Option<Vec<Vec<T>>> {
        qsyms
            .iter()
            .map(|&qs| self.rewrite_one(qs, pairs, project))
            .collect()
    }

    /// Rewrites `q` through a correspondence set sorted by target (a
    /// mapping's pairs, or a c-block's): per query node, the source-label
    /// symbols it may match; `None` when the set is irrelevant.
    fn rewrite(
        &self,
        qsyms: &[QuerySym],
        pairs: &[(SchemaNodeId, SchemaNodeId)],
    ) -> Option<SymbolSets> {
        self.rewrite_all(qsyms, pairs, |s| self.source_syms[s.idx()])
    }

    /// Node-granularity rewrite: the source *schema nodes* per query node.
    fn rewrite_nodes(
        &self,
        qsyms: &[QuerySym],
        pairs: &[(SchemaNodeId, SchemaNodeId)],
    ) -> Option<NodeSets> {
        self.rewrite_all(qsyms, pairs, |s| s)
    }

    /// Binds rewritten symbol sets to the document, skipping symbols whose
    /// label the document never uses.
    fn resolve(&self, q: &TwigPattern, sets: &[Vec<Symbol>]) -> Option<ResolvedPattern> {
        let ids = sets
            .iter()
            .map(|set| {
                set.iter()
                    .filter_map(|s| self.sym_doc_label[s.idx()])
                    .collect()
            })
            .collect();
        ResolvedPattern::with_label_ids(q, ids)
    }
}

// ---------------------------------------------------------------------
// label-granularity evaluation (Algorithms 3 and 4)

/// Algorithm 3 over a pre-filtered mapping subset.
fn eval_basic_over(
    q: &TwigPattern,
    pm: &PossibleMappings,
    doc: &Document,
    state: &SessionState,
    ids: &[MappingId],
) -> PtqResult {
    let qsyms = state.query_syms(q);
    let answers = ids
        .iter()
        .filter_map(|&id| {
            let sets = state.rewrite(&qsyms, pm.mapping(id).pairs)?;
            let matches = match state.resolve(q, &sets) {
                Some(resolved) => match_twig(doc, &resolved),
                None => Vec::new(), // rewritten labels absent from the document
            };
            Some(PtqAnswer {
                mapping: id,
                probability: pm.mapping(id).prob,
                matches: matches.into(),
            })
        })
        .collect();
    PtqResult { answers }
}

/// Algorithm 4 over a pre-filtered mapping subset.
fn eval_tree_over(
    q: &TwigPattern,
    pm: &PossibleMappings,
    doc: &Document,
    tree: &BlockTree,
    state: &SessionState,
    ids: &[MappingId],
) -> PtqResult {
    let per = eval_tree_rec(q, pm, doc, tree, state, ids);
    let answers = ids
        .iter()
        .zip(per)
        .map(|(&id, matches)| PtqAnswer {
            mapping: id,
            probability: pm.mapping(id).prob,
            matches: matches.into(),
        })
        .collect();
    PtqResult { answers }
}

/// The paper's `twig_query_tree` recursion: per mapping in `ids`, the
/// match set of `q`.
fn eval_tree_rec(
    q: &TwigPattern,
    pm: &PossibleMappings,
    doc: &Document,
    tree: &BlockTree,
    state: &SessionState,
    ids: &[MappingId],
) -> Vec<Vec<TwigMatch>> {
    let qsyms = state.query_syms(q);
    if let Some(t) = anchor_for(q, &qsyms, pm, state, tree) {
        return query_subtree(q, &qsyms, t, pm, doc, tree, state, ids);
    }
    if q.len() == 1 || !any_subquery_anchors(q, pm, state, tree) {
        // No decomposition can reach a c-block: splitting would only pay
        // join overhead. Evaluate directly (the paper's `twig_query`).
        return direct(q, pm, doc, state, ids);
    }

    // Split: root-only query + one subquery per child (`split_query`).
    let q0 = q.node_only(q.root());
    let r0 = direct(&q0, pm, doc, state, ids);

    let children = q.node(q.root()).children.clone();
    let mut child_results: Vec<Vec<Vec<TwigMatch>>> = Vec::with_capacity(children.len());
    let mut child_maps = Vec::with_capacity(children.len());
    let mut child_axes = Vec::with_capacity(children.len());
    for &c in &children {
        let (mut sub, map) = q.subpattern_with_map(c);
        child_axes.push(q.node(c).axis);
        // The parent edge is re-imposed by the join below; standalone the
        // subquery may root anywhere.
        sub.set_axis(sub.root(), Axis::Descendant);
        child_results.push(eval_tree_rec(&sub, pm, doc, tree, state, ids));
        child_maps.push(map);
    }

    // Per mapping: stack-join the root candidates with each child's
    // sub-matches, then stitch combined matches.
    (0..ids.len())
        .map(|k| {
            let child_matches: Vec<&[TwigMatch]> =
                child_results.iter().map(|cr| cr[k].as_slice()).collect();
            join_at_root(q, doc, &r0[k], &child_matches, &child_maps, &child_axes)
        })
        .collect()
}

/// Finds a block-tree anchor usable for the whole (sub)query: the query
/// root's label must denote a unique target element `t`, `t` must carry
/// c-blocks, and every query label must occur only inside `t`'s subtree
/// (otherwise a full mapping could rewrite a query label through an
/// occurrence outside the block's coverage).
pub(crate) fn anchor_for(
    q: &TwigPattern,
    qsyms: &[QuerySym],
    pm: &PossibleMappings,
    state: &SessionState,
    tree: &BlockTree,
) -> Option<SchemaNodeId> {
    let [t] = state.target_nodes(qsyms[q.root().idx()].sym) else {
        return None;
    };
    let t = *t;
    if !tree.has_blocks(t) {
        return None;
    }
    let mut subtree = pm.target.subtree(t);
    subtree.sort_unstable();
    // Wildcards never rewrite, so they cannot reach outside the block's
    // coverage; their `sym` is `None` and contributes no target nodes.
    let mut distinct: Vec<QuerySym> = qsyms.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    for qs in distinct {
        for &n in state.target_nodes(qs.sym) {
            if subtree.binary_search(&n).is_err() {
                return None;
            }
        }
    }
    Some(t)
}

/// True iff some proper subquery of `q` would find a usable anchor — the
/// condition under which splitting can pay off.
fn any_subquery_anchors(
    q: &TwigPattern,
    pm: &PossibleMappings,
    state: &SessionState,
    tree: &BlockTree,
) -> bool {
    q.ids().skip(1).any(|n| {
        let (sub, _) = q.subpattern_with_map(n);
        let sub_syms = state.query_syms(&sub);
        anchor_for(&sub, &sub_syms, pm, state, tree).is_some()
    })
}

/// The paper's `query_subtree`: answer once per c-block, replicate to the
/// block's mappings, evaluate the rest directly.
#[allow(clippy::too_many_arguments)]
fn query_subtree(
    q: &TwigPattern,
    qsyms: &[QuerySym],
    t: SchemaNodeId,
    pm: &PossibleMappings,
    doc: &Document,
    tree: &BlockTree,
    state: &SessionState,
    ids: &[MappingId],
) -> Vec<Vec<TwigMatch>> {
    let pos: HashMap<MappingId, usize> = ids.iter().enumerate().map(|(k, &id)| (id, k)).collect();
    let mut out: Vec<Option<Vec<TwigMatch>>> = vec![None; ids.len()];

    // Evaluate q once per block, then replicate in block order (later
    // blocks overwrite earlier ones).
    for &bid in tree.blocks_at(t) {
        let b = tree.block(bid);
        let y = match state.rewrite(qsyms, &b.corrs) {
            Some(sets) => match state.resolve(q, &sets) {
                Some(resolved) => match_twig(doc, &resolved),
                None => Vec::new(),
            },
            None => Vec::new(),
        };
        for mid in &b.mappings {
            if let Some(&k) = pos.get(mid) {
                out[k] = Some(y.clone());
            }
        }
    }

    // Mappings not covered by any block: evaluate directly (with match
    // sharing among mappings whose rewrites agree).
    let uncovered: Vec<MappingId> = out
        .iter()
        .enumerate()
        .filter(|(_, slot)| slot.is_none())
        .map(|(k, _)| ids[k])
        .collect();
    let mut rest = direct(q, pm, doc, state, &uncovered).into_iter();
    out.into_iter()
        .map(|slot| match slot {
            Some(m) => m,
            None => rest.next().expect("one result per uncovered mapping"),
        })
        .collect()
}

/// Direct evaluation inside the block-tree algorithm, sharing work across
/// mappings whose *rewrites agree* — the generalization of c-block
/// replication to query fragments without an anchor.
fn direct(
    q: &TwigPattern,
    pm: &PossibleMappings,
    doc: &Document,
    state: &SessionState,
    ids: &[MappingId],
) -> Vec<Vec<TwigMatch>> {
    let qsyms = state.query_syms(q);
    let mut groups: HashMap<SymbolSets, Vec<usize>> = HashMap::new();
    for (k, &id) in ids.iter().enumerate() {
        if let Some(sets) = state.rewrite(&qsyms, pm.mapping(id).pairs) {
            groups.entry(sets).or_default().push(k);
        }
    }
    let mut out: Vec<Vec<TwigMatch>> = vec![Vec::new(); ids.len()];
    for (sets, members) in groups {
        let matches = match state.resolve(q, &sets) {
            Some(resolved) => match_twig(doc, &resolved),
            None => Vec::new(),
        };
        let (last, rest) = members.split_last().expect("non-empty group");
        for &k in rest {
            out[k] = matches.clone();
        }
        out[*last] = matches;
    }
    out
}

/// Combines root-only matches with per-child sub-matches using the
/// structural join on root document nodes, then stitches full matches.
fn join_at_root(
    q: &TwigPattern,
    doc: &Document,
    r0: &[TwigMatch],
    child_matches: &[&[TwigMatch]],
    child_maps: &[Vec<PatternNodeId>],
    child_axes: &[Axis],
) -> Vec<TwigMatch> {
    if r0.is_empty() || child_matches.iter().any(|c| c.is_empty()) {
        return Vec::new();
    }
    // Root candidates (single-node matches, already sorted and unique).
    let roots: Vec<DocNodeId> = r0.iter().map(|m| m.nodes[0]).collect();

    // For each child: sorted (root, child-match indices) association built
    // from the structural join — no hashing on the per-mapping hot path.
    let mut per_child: Vec<Vec<(DocNodeId, Vec<usize>)>> = Vec::with_capacity(child_matches.len());
    for (j, cms) in child_matches.iter().enumerate() {
        // Child matches are sorted, so their roots arrive non-decreasing.
        let mut child_roots: Vec<DocNodeId> = Vec::new();
        let mut back_refs: Vec<Vec<usize>> = Vec::new();
        for (i, m) in cms.iter().enumerate() {
            if child_roots.last() == Some(&m.nodes[0]) {
                back_refs.last_mut().expect("parallel").push(i);
            } else {
                child_roots.push(m.nodes[0]);
                back_refs.push(vec![i]);
            }
        }
        let pairs = structural_join(doc, &roots, &child_roots, child_axes[j]);
        // Group by ancestor.
        let mut assoc: Vec<(DocNodeId, Vec<usize>)> = Vec::new();
        let mut sorted_pairs = pairs;
        sorted_pairs.sort_unstable_by_key(|&(a, d)| (a, d));
        for (a, d) in sorted_pairs {
            let refs = &back_refs[child_roots.binary_search(&d).expect("joined root")];
            if assoc.last().map(|(x, _)| *x) == Some(a) {
                assoc.last_mut().expect("grouped").1.extend_from_slice(refs);
            } else {
                assoc.push((a, refs.clone()));
            }
        }
        per_child.push(assoc);
    }

    // Per root: cross product of joinable child matches.
    let mut out = Vec::new();
    let empty: Vec<usize> = Vec::new();
    for &root in &roots {
        let lists: Vec<&Vec<usize>> = per_child
            .iter()
            .map(|assoc| {
                assoc
                    .binary_search_by_key(&root, |&(a, _)| a)
                    .map(|i| &assoc[i].1)
                    .unwrap_or(&empty)
            })
            .collect();
        if lists.iter().any(|l| l.is_empty()) {
            continue;
        }
        let mut idx = vec![0usize; lists.len()];
        loop {
            let mut nodes = vec![DocNodeId(0); q.len()];
            nodes[0] = root;
            for (j, list) in lists.iter().enumerate() {
                let cm = &child_matches[j][list[idx[j]]];
                for (i, &orig) in child_maps[j].iter().enumerate() {
                    nodes[orig.idx()] = cm.nodes[i];
                }
            }
            out.push(TwigMatch { nodes });
            // Advance odometer.
            let mut j = 0;
            loop {
                if j == idx.len() {
                    break;
                }
                idx[j] += 1;
                if idx[j] < lists[j].len() {
                    break;
                }
                idx[j] = 0;
                j += 1;
            }
            if j == idx.len() {
                break;
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

// ---------------------------------------------------------------------
// node-granularity evaluation (path_ptq semantics)

pub(crate) fn node_sets_to_matches(
    q: &TwigPattern,
    sets: &[Vec<SchemaNodeId>],
    pm: &PossibleMappings,
    doc: &Document,
    index: &PathIndex,
) -> Vec<TwigMatch> {
    let mut candidates = crate::path_ptq::schema_nodes_to_doc(sets, &pm.source, index);
    // A wildcard node has no schema nodes to pin: every document node is
    // a candidate (its rewrite set is empty by construction).
    for (list, id) in candidates.iter_mut().zip(q.ids()) {
        if q.node(id).is_wildcard() {
            *list = doc.ids().collect();
        }
    }
    match ResolvedPattern::with_node_candidates(q, candidates) {
        Some(resolved) => match_twig(doc, &resolved),
        None => Vec::new(),
    }
}

/// Node-granularity `query_basic` over the relevant mapping ids.
fn eval_basic_nodes(
    q: &TwigPattern,
    pm: &PossibleMappings,
    doc: &Document,
    index: &PathIndex,
    state: &SessionState,
    ids: &[MappingId],
) -> PtqResult {
    let qsyms = state.query_syms(q);
    let answers = ids
        .iter()
        .map(|&id| {
            let sets = state
                .rewrite_nodes(&qsyms, pm.mapping(id).pairs)
                .expect("filtered");
            PtqAnswer {
                mapping: id,
                probability: pm.mapping(id).prob,
                matches: node_sets_to_matches(q, &sets, pm, doc, index).into(),
            }
        })
        .collect();
    PtqResult { answers }
}

/// Node-granularity PTQ with the block tree over the relevant mapping
/// ids: blocks anchored at target nodes answer once per block;
/// everything else shares work across mappings whose node-rewrites
/// agree.
///
/// Node candidates pin query nodes to exact source elements, so a block's
/// answer is valid for precisely `b.M` — no label-uniqueness side
/// condition is needed (unlike the label-mode evaluator).
fn eval_tree_nodes(
    q: &TwigPattern,
    pm: &PossibleMappings,
    doc: &Document,
    index: &PathIndex,
    tree: &BlockTree,
    state: &SessionState,
    ids: &[MappingId],
) -> PtqResult {
    let qsyms = state.query_syms(q);

    let mut out: Vec<Option<Vec<TwigMatch>>> = vec![None; ids.len()];
    if let Some(t) = anchor_for(q, &qsyms, pm, state, tree) {
        let pos: HashMap<MappingId, usize> =
            ids.iter().enumerate().map(|(k, &id)| (id, k)).collect();
        for &bid in tree.blocks_at(t) {
            let b = tree.block(bid);
            let matches = match state.rewrite_nodes(&qsyms, &b.corrs) {
                Some(sets) => node_sets_to_matches(q, &sets, pm, doc, index),
                None => Vec::new(),
            };
            for mid in &b.mappings {
                if let Some(&k) = pos.get(mid) {
                    out[k] = Some(matches.clone());
                }
            }
        }
    }

    // Everything uncovered: group by identical node rewrites.
    let mut groups: HashMap<NodeSets, Vec<usize>> = HashMap::new();
    for (k, &id) in ids.iter().enumerate() {
        if out[k].is_none() {
            let sets = state
                .rewrite_nodes(&qsyms, pm.mapping(id).pairs)
                .expect("filtered");
            groups.entry(sets).or_default().push(k);
        }
    }
    for (sets, members) in groups {
        let matches = node_sets_to_matches(q, &sets, pm, doc, index);
        for &k in &members {
            out[k] = Some(matches.clone());
        }
    }

    let answers = ids
        .iter()
        .zip(out)
        .map(|(&id, matches)| PtqAnswer {
            mapping: id,
            probability: pm.mapping(id).prob,
            matches: matches.expect("all slots filled").into(),
        })
        .collect();
    PtqResult { answers }
}

// ---------------------------------------------------------------------
// keyword evaluation

/// Keyword query over every possible mapping (SLCA semantics); mappings
/// whose rewrites agree share one evaluation.
fn eval_keyword(
    keywords: &[&str],
    pm: &PossibleMappings,
    doc: &Document,
    state: &SessionState,
) -> Result<Vec<KeywordAnswer>, KeywordError> {
    KeywordError::check(keywords)?;

    // Split vocabulary terms from value terms once: a term is vocabulary
    // iff the target schema uses it as a label.
    let term_syms: Vec<Option<Symbol>> =
        keywords.iter().map(|k| state.symbols.resolve(k)).collect();
    let is_vocab: Vec<bool> = term_syms
        .iter()
        .map(|&sym| !state.target_nodes(sym).is_empty())
        .collect();

    // Group mappings by the rewritten symbol sets of the vocabulary terms.
    let mut groups: HashMap<Vec<Vec<Symbol>>, Vec<MappingId>> = HashMap::new();
    'mapping: for (id, m) in pm.iter() {
        let mut key = Vec::new();
        for (&sym, &vocab) in term_syms.iter().zip(&is_vocab) {
            if vocab {
                let rewrite = state.rewrite_one(QuerySym::label(sym), m.pairs, |s| {
                    state.source_syms[s.idx()]
                });
                match rewrite {
                    Some(labels) => key.push(labels),
                    None => continue 'mapping, // irrelevant
                }
            }
        }
        groups.entry(key).or_default().push(id);
    }

    let mut answers = Vec::new();
    for (rewrites, ids) in groups {
        let slcas = slca(keywords, &is_vocab, &rewrites, doc, state);
        for id in ids {
            answers.push(KeywordAnswer {
                mapping: id,
                probability: pm.mapping(id).prob,
                slcas: slcas.clone(),
            });
        }
    }
    answers.sort_by_key(|a| a.mapping);
    Ok(answers)
}

/// Computes the SLCA set for one rewrite. `rewrites` holds, in order, the
/// source-symbol sets of the vocabulary keywords.
fn slca(
    keywords: &[&str],
    is_vocab: &[bool],
    rewrites: &[Vec<Symbol>],
    doc: &Document,
    state: &SessionState,
) -> Vec<DocNodeId> {
    let k = keywords.len();
    // Per node: bitmask of keywords matched *at* the node.
    let mut own = vec![0u64; doc.len()];
    let mut rewrite_iter = rewrites.iter();
    for (bit, (term, &vocab)) in keywords.iter().zip(is_vocab).enumerate() {
        let mask = 1u64 << bit;
        if vocab {
            let labels = rewrite_iter.next().expect("one rewrite per vocab term");
            for &sym in labels {
                if let Some(l) = state.sym_doc_label[sym.idx()] {
                    for &n in doc.nodes_with_label_id(l) {
                        own[n.idx()] |= mask;
                    }
                }
            }
        } else {
            // Value term: whole-word containment in text content.
            for n in doc.ids() {
                if doc.text(n).is_some_and(|t| contains_word(t, term)) {
                    own[n.idx()] |= mask;
                }
            }
        }
    }

    // Subtree masks bottom-up (children have larger ids).
    let full = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
    let mut subtree = own;
    for i in (0..doc.len()).rev() {
        if let Some(p) = doc.parent(DocNodeId(i as u32)) {
            let m = subtree[i];
            subtree[p.idx()] |= m;
        }
    }

    // SLCA: full mask, and no child with a full mask.
    doc.ids()
        .filter(|&n| {
            subtree[n.idx()] == full && !doc.children(n).iter().any(|c| subtree[c.idx()] == full)
        })
        .collect()
}

/// Case-insensitive whole-word containment.
pub(crate) fn contains_word(text: &str, word: &str) -> bool {
    text.split(|c: char| !c.is_alphanumeric())
        .any(|w| w.eq_ignore_ascii_case(word))
}

// ---------------------------------------------------------------------
// the engine

/// Per-component resident-size breakdown of one [`QueryEngine`] session,
/// in bytes — every field is the exact heap size of a columnar arena (see
/// [`QueryEngine::footprint`]). `uxm stats` prints this, and
/// [`QueryEngine::approx_bytes`] (the registry's LRU currency) is its
/// total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineFootprint {
    /// The document arena: node columns, CSR child/label indexes, and the
    /// contiguous text/attribute buffers.
    pub document: usize,
    /// The columnar mapping store: score/probability columns and the flat
    /// correspondence CSR.
    pub mappings: usize,
    /// The lazily built block tree (block arrays, CSR per-node block
    /// lists, path hash); 0 until a pinned `block-tree` query or
    /// [`QueryEngine::tree`] builds it. Only [`QueryEngine::new`] starts
    /// with it built.
    pub block_tree: usize,
    /// Both schemas (node tables and label strings).
    pub schemas: usize,
    /// Session state: relevance bitsets, the symbol table, and the
    /// per-symbol inverted indexes.
    pub session: usize,
    /// The lazily built path index; 0 until a node-granularity query
    /// forces construction.
    pub path_index: usize,
}

impl EngineFootprint {
    /// Sum of all components.
    pub fn total(&self) -> usize {
        self.document
            + self.mappings
            + self.block_tree
            + self.schemas
            + self.session
            + self.path_index
    }
}

/// Exact label bytes plus a fixed per-node table cost for one schema.
fn schema_bytes(s: &Schema) -> usize {
    s.ids().map(|id| s.label(id).len()).sum::<usize>()
        + s.len() * std::mem::size_of::<uxm_xml::SchemaNode>()
        + s.name.len()
}

/// A query session over one `(mappings, document)` pair.
///
/// Build it once, then serve any number of typed [`Query`] requests
/// through [`QueryEngine::run`] — the one query entry point; label
/// interning, relevance bitsets and the correspondence index amortize
/// across calls. Evaluation strategy (naive, block-tree or compiled) is
/// chosen by the [`crate::planner`] unless the query pins it, and never
/// affects the answers.
///
/// ```
/// use uxm_core::api::Query;
/// use uxm_core::engine::QueryEngine;
/// use uxm_core::mapping::PossibleMappings;
/// use uxm_matching::Matcher;
/// use uxm_twig::TwigPattern;
/// use uxm_xml::{DocGenConfig, Document, Schema};
///
/// let source = Schema::parse_outline("Order(Buyer(Name) Item(Price))").unwrap();
/// let target = Schema::parse_outline("PO(Vendor(ContactName) Line(UnitPrice))").unwrap();
/// let matching = Matcher::default().match_schemas(&source, &target);
/// let pm = PossibleMappings::top_h(&matching, 8);
/// let doc = Document::generate(&source, &DocGenConfig::small(), 7);
///
/// let engine = QueryEngine::build(pm, doc);
/// let q = TwigPattern::parse("PO//ContactName").unwrap();
/// let response = engine.run(&Query::ptq(q)).unwrap();
/// for answer in &response.answers {
///     assert!(answer.probability > 0.0);
/// }
/// ```
pub struct QueryEngine {
    pm: PossibleMappings,
    doc: Document,
    tree: OnceLock<BlockTree>,
    state: SessionState,
    path_index: OnceLock<PathIndex>,
}

// The registry shares one engine across many serving threads; everything
// but the once-built tree and path index is immutable, so this holds by
// construction — enforce it at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>();
};

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("source", &self.pm.source.name)
            .field("target", &self.pm.target.name)
            .field("mappings", &self.pm.len())
            .field("doc_nodes", &self.doc.len())
            .field("blocks", &self.tree.get().map(BlockTree::block_count))
            .finish()
    }
}

impl QueryEngine {
    /// Builds the session state only; the block tree is built on first
    /// use (see [`QueryEngine::tree`]).
    pub fn build(pm: PossibleMappings, doc: Document) -> QueryEngine {
        let state = SessionState::build(&pm, &doc);
        QueryEngine {
            pm,
            doc,
            tree: OnceLock::new(),
            state,
            path_index: OnceLock::new(),
        }
    }

    /// Wraps an already-built block tree, which a pinned `block-tree`
    /// plan then reads.
    pub fn new(pm: PossibleMappings, doc: Document, tree: BlockTree) -> QueryEngine {
        let engine = QueryEngine::build(pm, doc);
        let _ = engine.tree.set(tree);
        engine
    }

    /// The possible-mapping set this session serves.
    pub fn mappings(&self) -> &PossibleMappings {
        &self.pm
    }

    /// The source document queries run against.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The session's block tree: the one [`QueryEngine::new`] was
    /// given, else built here on first use with
    /// [`BlockTreeConfig::default`] (the paper's τ = 0.2, `MAX_B` =
    /// `MAX_F` = 500). Answers never depend on the tree.
    pub fn tree(&self) -> &BlockTree {
        self.tree.get_or_init(|| {
            BlockTree::build(&self.pm.target, &self.pm, &BlockTreeConfig::default())
        })
    }

    /// The source schema.
    pub fn source(&self) -> &Schema {
        &self.pm.source
    }

    /// The target schema (queries are posed in its vocabulary).
    pub fn target(&self) -> &Schema {
        &self.pm.target
    }

    /// The lazily built path index (node-granularity evaluation).
    pub fn path_index(&self) -> &PathIndex {
        self.path_index.get_or_init(|| PathIndex::new(&self.doc))
    }

    /// Per-component resident-size breakdown of this session, computed
    /// from the **real columnar arena sizes** (exact array and buffer
    /// lengths), not encode-time estimates. It covers everything the
    /// engine holds.
    pub fn footprint(&self) -> EngineFootprint {
        EngineFootprint {
            document: self.doc.arena_bytes(),
            mappings: self.pm.arena_bytes(),
            block_tree: self.tree.get().map_or(0, BlockTree::arena_bytes),
            schemas: schema_bytes(self.source()) + schema_bytes(self.target()),
            session: self.state.arena_bytes(),
            path_index: self.path_index.get().map_or(0, PathIndex::arena_bytes),
        }
    }

    /// Resident size of the session's owned data, in bytes — the total of
    /// [`QueryEngine::footprint`].
    ///
    /// The [`crate::registry::EngineRegistry`] charges this against its
    /// memory budget when deciding evictions; since it reads the actual
    /// arena sizes, hydrated and freshly built engines account
    /// identically.
    pub fn approx_bytes(&self) -> usize {
        self.footprint().total()
    }

    /// The paper's `filter_mappings`: ids of mappings relevant to `q`, in
    /// id order — computed by bitset intersection.
    pub fn relevant_mappings(&self, q: &TwigPattern) -> Vec<MappingId> {
        self.state.relevant(q)
    }

    /// The k most-probable relevant mappings for `q` (ties by id), in
    /// evaluation order.
    fn topk_ids(&self, q: &TwigPattern, k: usize) -> Vec<MappingId> {
        let mut ids = self.state.relevant(q);
        ids.sort_by(|&a, &b| {
            self.pm
                .mapping(b)
                .prob
                .total_cmp(&self.pm.mapping(a).prob)
                .then(a.cmp(&b))
        });
        ids.truncate(k);
        ids
    }

    /// Evaluates a PTQ-shaped query under `evaluator`. The compiled
    /// backend compiles the query's program and runs it over the session
    /// arenas; the recursive evaluators run over the relevant (or top-k)
    /// mapping ids. Aggregate rows come only from a compiled `agg-fold`.
    fn eval_ptq(&self, (pattern, mode, k, agg): PtqShape<'_>, evaluator: Evaluator) -> RunOutput {
        let ids = match evaluator {
            Evaluator::Compiled => {
                let ctx = exec::EngineCtx {
                    pm: &self.pm,
                    doc: &self.doc,
                    state: &self.state,
                    index: matches!(mode, SetMode::SchemaNodes).then(|| self.path_index()),
                };
                return exec::compile(pattern, mode, k, agg, &self.state).run(&ctx);
            }
            _ => match k {
                Some(k) => self.topk_ids(pattern, k),
                None => self.state.relevant(pattern),
            },
        };
        let (pm, doc, state) = (&self.pm, &self.doc, &self.state);
        let result = match (mode, evaluator) {
            (SetMode::Symbols, Evaluator::BlockTree) => {
                eval_tree_over(pattern, pm, doc, self.tree(), state, &ids)
            }
            (SetMode::Symbols, _) => eval_basic_over(pattern, pm, doc, state, &ids),
            (SetMode::SchemaNodes, Evaluator::BlockTree) => eval_tree_nodes(
                pattern,
                pm,
                doc,
                self.path_index(),
                self.tree(),
                state,
                &ids,
            ),
            (SetMode::SchemaNodes, _) => {
                eval_basic_nodes(pattern, pm, doc, self.path_index(), state, &ids)
            }
        };
        RunOutput {
            result,
            agg_rows: None,
            relevant: ids.len(),
        }
    }

    /// The observability hook behind `uxm explain` and the `/query`
    /// `explain: true` option: the plan [`Self::run`] executes for
    /// `query`, and the compiled program listing (always included for
    /// PTQ-shaped queries, whatever the plan picks) — the same program
    /// a compiled run of `query` compiles.
    pub fn explain<'q>(&self, query: &'q Query) -> Result<Explain<'q>, UxmError> {
        query.validate()?;
        Ok(Explain {
            plan: planner::choose(query.options().evaluator, query.kind()),
            program: ptq_shape(query)
                .map(|(pattern, mode, k, agg)| exec::compile(pattern, mode, k, agg, &self.state)),
        })
    }

    /// Runs one typed [`Query`] — the single query entry point.
    ///
    /// Parsed options are validated first; the evaluator comes from
    /// [`crate::planner::choose`]'s fixed table (the pinned hint, or
    /// the query kind's default). The returned [`QueryResponse`]
    /// carries the answers (with per-answer mapping provenance) and an
    /// [`ExecStats`] block reporting the plan, the relevant-mapping count
    /// and the elapsed time. Answers are independent of the chosen plan
    /// by construction — pinned by the planner differential suite in
    /// `tests/engine_equivalence.rs`.
    pub fn run(&self, query: &Query) -> Result<QueryResponse, UxmError> {
        query.validate()?;
        let start = std::time::Instant::now();
        let options = *query.options();
        let plan = planner::choose(options.evaluator, query.kind());
        let mut aggregate = None;
        let (answers, relevant) = match ptq_shape(query) {
            Some(shape) => {
                let (pattern, _, k, agg) = shape;
                let out = self.eval_ptq(shape, plan.evaluator);
                let mut answers = out.result.answers;
                if let Some(func) = agg {
                    // Per-mapping rows are folded from the *unfiltered*
                    // match sets (each row's value is independent of
                    // which other rows survive), so the min-probability
                    // option can prune rows after the fold without
                    // changing any surviving one.
                    let mut rows = out.agg_rows.unwrap_or_else(|| {
                        let shaped = crate::api::shape_ptq_answers(
                            answers,
                            &crate::api::QueryOptions::default(),
                        );
                        aggregate::rows_of(func, &shaped, pattern, &self.doc)
                    });
                    if options.min_probability > 0.0 {
                        rows.retain(|r| r.probability >= options.min_probability);
                    }
                    aggregate = Some(AggregateResult::new(func, rows));
                    (Vec::new(), out.relevant)
                } else {
                    if k.is_some() {
                        answers.sort_by(|a, b| {
                            b.probability
                                .total_cmp(&a.probability)
                                .then(a.mapping.cmp(&b.mapping))
                        });
                    }
                    (
                        crate::api::shape_ptq_answers(answers, &options),
                        out.relevant,
                    )
                }
            }
            None => {
                let Query::Keyword { terms, .. } = query else {
                    unreachable!("every query but a keyword query is PTQ-shaped")
                };
                let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
                let raw = eval_keyword(&refs, &self.pm, &self.doc, &self.state)?;
                let relevant = raw.len();
                (crate::api::shape_keyword_answers(raw, &options), relevant)
            }
        };
        Ok(QueryResponse {
            answers,
            aggregate,
            stats: ExecStats::new(plan, relevant, start.elapsed().as_micros() as u64),
        })
    }
}

/// A PTQ-shaped query's compile parameters: its pattern, rewrite
/// granularity, top-k bound and aggregate function.
type PtqShape<'q> = (&'q TwigPattern, SetMode, Option<usize>, Option<AggFunc>);

/// The [`PtqShape`] of `query`; `None` for keyword queries.
fn ptq_shape(query: &Query) -> Option<PtqShape<'_>> {
    Some(match query {
        Query::Ptq { pattern, .. } => (pattern, SetMode::Symbols, None, None),
        Query::PtqNodes { pattern, .. } => (pattern, SetMode::SchemaNodes, None, None),
        Query::TopK { pattern, k, .. } => (pattern, SetMode::Symbols, Some(*k), None),
        Query::Aggregate { pattern, func, .. } => (pattern, SetMode::Symbols, None, Some(*func)),
        Query::Keyword { .. } => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Answer, EvaluatorHint, Granularity};
    use std::sync::Arc;
    use uxm_matching::Matcher;
    use uxm_xml::{parse_document, DocGenConfig};

    fn engine() -> QueryEngine {
        let source = Schema::parse_outline(
            "Order(Buyer(Name Contact(EMail)) DeliverTo(Address(City Street)) \
             POLine*(LineNo Quantity UnitPrice))",
        )
        .unwrap();
        let target = Schema::parse_outline(
            "PO(Purchaser(PName PContact(PEMail)) ShipTo(Addr(Town Road)) \
             Line(No Qty UnitPrice))",
        )
        .unwrap();
        let matching = Matcher::context().match_schemas(&source, &target);
        let pm = PossibleMappings::top_h(&matching, 16);
        let doc = Document::generate(&source, &DocGenConfig::small(), 11);
        QueryEngine::build(pm, doc)
    }

    /// `q`'s label-granularity answers with the evaluator pinned.
    fn pinned(e: &QueryEngine, q: &TwigPattern, hint: EvaluatorHint) -> Vec<Answer> {
        e.run(&Query::ptq(q.clone()).with_evaluator(hint))
            .unwrap()
            .answers
    }

    #[test]
    fn warm_engine_matches_fresh_sessions() {
        let e = engine();
        for qs in [
            "PO/Line/Qty",
            "//Line//No",
            "//UnitPrice",
            "//Addr/Town",
            "PO",
        ] {
            let q = TwigPattern::parse(qs).unwrap();
            // Run twice on the shared engine, then compare against a
            // fresh session.
            for hint in [EvaluatorHint::Naive, EvaluatorHint::BlockTree] {
                pinned(&e, &q, hint);
                assert_eq!(
                    pinned(&e, &q, hint),
                    pinned(&engine(), &q, hint),
                    "{qs} {hint:?}"
                );
            }
            let topk = Query::topk(q.clone(), 5);
            e.run(&topk).unwrap();
            assert_eq!(
                e.run(&topk).unwrap().answers,
                engine().run(&topk).unwrap().answers,
                "topk {qs}"
            );
        }
    }

    #[test]
    fn relevant_mappings_match_filter_mappings() {
        let e = engine();
        for qs in ["PO/Line/Qty", "PO//PEMail", "//Nope", "PO"] {
            let q = TwigPattern::parse(qs).unwrap();
            assert_eq!(
                e.relevant_mappings(&q),
                crate::rewrite::filter_mappings(&q, e.mappings()),
                "query {qs}"
            );
        }
    }

    #[test]
    fn unknown_label_yields_empty_everywhere() {
        let e = engine();
        let q = TwigPattern::parse("PO//DoesNotExist").unwrap();
        assert!(e.relevant_mappings(&q).is_empty());
        assert!(pinned(&e, &q, EvaluatorHint::Naive).is_empty());
        assert!(pinned(&e, &q, EvaluatorHint::BlockTree).is_empty());
    }

    #[test]
    fn run_is_invariant_under_every_hint() {
        let e = engine();
        let hints = [
            EvaluatorHint::Auto,
            EvaluatorHint::Naive,
            EvaluatorHint::BlockTree,
        ];
        for qs in ["PO/Line/Qty", "//Line//No", "//UnitPrice", "PO"] {
            let q = TwigPattern::parse(qs).unwrap();
            let reference = pinned(&e, &q, EvaluatorHint::BlockTree);
            for hint in hints {
                assert_eq!(pinned(&e, &q, hint), reference, "{qs} {hint:?}");
            }
            // Top-k keeps the k most-probable relevant mappings and their
            // full answers, and node granularity answers one row per
            // relevant mapping, under every hint.
            let top_ids = crate::topk::topk_mappings(&q, e.mappings(), 3);
            for hint in hints {
                let top = e
                    .run(&Query::topk(q.clone(), 3).with_evaluator(hint))
                    .unwrap();
                let ids: Vec<MappingId> = top.answers.iter().map(|a| a.mappings[0]).collect();
                assert_eq!(ids, top_ids, "{qs} topk {hint:?}");
                for a in &top.answers {
                    assert!(reference.contains(a), "{qs} topk {hint:?}");
                }
                let nodes = e
                    .run(&Query::ptq_nodes(q.clone()).with_evaluator(hint))
                    .unwrap();
                assert_eq!(nodes.len(), reference.len(), "{qs} nodes {hint:?}");
            }
        }
    }

    #[test]
    fn run_reports_plan_and_exec_stats() {
        let e = engine();
        // `build` makes no block tree, and neither naive nor auto does.
        assert_eq!(e.footprint().block_tree, 0);
        let q = TwigPattern::parse("//Line//No").unwrap();
        let pinned = e
            .run(&Query::ptq(q.clone()).with_evaluator(EvaluatorHint::Naive))
            .unwrap();
        assert_eq!(pinned.stats.plan.evaluator, Evaluator::Naive);
        assert_eq!(pinned.stats.plan.reason, crate::planner::PlanReason::Pinned);
        assert_eq!(pinned.stats.relevant, e.relevant_mappings(&q).len());
        // The auto plan reports the same relevant set and answers.
        let auto = e.run(&Query::ptq(q.clone())).unwrap();
        assert_eq!(auto.stats.relevant, pinned.stats.relevant);
        assert_eq!(auto.answers, pinned.answers);
        assert_eq!(e.footprint().block_tree, 0);
    }

    #[test]
    fn auto_runs_each_kinds_default_backend() {
        use crate::planner::PlanReason;
        let e = engine();
        let q = TwigPattern::parse("//Line//No").unwrap();
        let compiled = [
            Query::ptq(q.clone()),
            Query::ptq_nodes(q.clone()),
            Query::topk(q.clone(), 3),
            Query::aggregate(q.clone(), AggFunc::Count),
        ];
        for query in &compiled {
            let stats = e.run(query).unwrap().stats;
            assert_eq!(stats.plan.evaluator, Evaluator::Compiled, "{query}");
            assert_eq!(stats.plan.reason, PlanReason::KindDefault, "{query}");
            assert_eq!(stats.backend, Evaluator::Compiled, "{query}");
        }
        let keyword = e.run(&Query::keyword(vec!["No".into()])).unwrap().stats;
        assert_eq!(keyword.plan.evaluator, Evaluator::Naive);
        assert_eq!(keyword.plan.reason, PlanReason::KindDefault);
        assert_eq!(keyword.backend, Evaluator::Naive);
    }

    #[test]
    fn run_distinct_granularity_aggregates_with_provenance() {
        let e = engine();
        let q = TwigPattern::parse("//Line//No").unwrap();
        let per_mapping = e.run(&Query::ptq(q.clone())).unwrap();
        let distinct = e
            .run(&Query::ptq(q.clone()).with_granularity(Granularity::Distinct))
            .unwrap();
        assert!(distinct.len() <= per_mapping.len());
        // Mass is conserved and provenance partitions the relevant set.
        assert!((distinct.total_probability() - per_mapping.total_probability()).abs() < 1e-9);
        let mut provenance: Vec<MappingId> = distinct
            .answers
            .iter()
            .flat_map(|a| a.mappings.iter().copied())
            .collect();
        provenance.sort_unstable();
        assert_eq!(provenance, e.relevant_mappings(&q));
        // The threshold drops low-mass answers.
        let thresholded = e.run(&Query::ptq(q).with_min_probability(1.0)).unwrap();
        assert!(thresholded.len() <= per_mapping.len());
        assert!(thresholded.answers.iter().all(|a| a.probability >= 1.0));
    }

    #[test]
    fn run_keyword_matches_evaluator_and_validates() {
        let e = engine();
        let resp = e.run(&Query::keyword(vec!["UnitPrice".into()])).unwrap();
        let raw = eval_keyword(&["UnitPrice"], &e.pm, &e.doc, &e.state).unwrap();
        assert_eq!(resp.len(), raw.len());
        for (a, r) in resp.answers.iter().zip(&raw) {
            assert_eq!(a.mappings, vec![r.mapping]);
            let slcas: Vec<_> = a.matches.iter().map(|m| m.nodes[0]).collect();
            assert_eq!(slcas, r.slcas);
        }
        assert!(matches!(
            e.run(&Query::keyword(vec![])),
            Err(UxmError::Keyword(KeywordError::Empty))
        ));
        let q = TwigPattern::parse("PO").unwrap();
        assert!(matches!(
            e.run(&Query::ptq(q).with_min_probability(2.0)),
            Err(UxmError::InvalidQuery(_))
        ));
    }

    /// The paper's running example (Fig. 2 and 4) with c-blocks at τ =
    /// 0.4: the Algorithm 4 fixture.
    fn paper_engine() -> QueryEngine {
        let source =
            Schema::parse_outline("Order(BP(BOC(BCN) ROC(RCN) OOC(OCN)) SP(SCN_src))").unwrap();
        let target = Schema::parse_outline("ORDER(IP(ICN) SP2(SCN))").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        let order = (s("Order"), t("ORDER"));
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (
                    vec![
                        order,
                        (s("BP"), t("IP")),
                        (s("BCN"), t("ICN")),
                        (s("RCN"), t("SCN")),
                    ],
                    3.0,
                ),
                (
                    vec![
                        order,
                        (s("BP"), t("IP")),
                        (s("BCN"), t("ICN")),
                        (s("OCN"), t("SCN")),
                    ],
                    2.5,
                ),
                (
                    vec![
                        order,
                        (s("SP"), t("IP")),
                        (s("RCN"), t("ICN")),
                        (s("OCN"), t("SCN")),
                    ],
                    2.0,
                ),
                (
                    vec![
                        order,
                        (s("BP"), t("IP")),
                        (s("RCN"), t("ICN")),
                        (s("BCN"), t("SCN")),
                    ],
                    1.5,
                ),
                (
                    vec![
                        order,
                        (s("BP"), t("IP")),
                        (s("OCN"), t("ICN")),
                        (s("BCN"), t("SCN")),
                    ],
                    1.0,
                ),
            ],
        );
        let doc = parse_document(
            "<Order><BP><BOC><BCN>Cathy</BCN></BOC><ROC><RCN>Bob</RCN></ROC>\
             <OOC><OCN>Alice</OCN></OOC></BP><SP><SCN_src>Dave</SCN_src></SP></Order>",
        )
        .unwrap();
        let cfg = BlockTreeConfig {
            tau: 0.4,
            ..BlockTreeConfig::default()
        };
        let tree = BlockTree::build(&pm.target, &pm, &cfg);
        QueryEngine::new(pm, doc, tree)
    }

    /// The anchor Algorithm 4 would use for `q`.
    fn anchor_of(e: &QueryEngine, q: &TwigPattern) -> Option<SchemaNodeId> {
        anchor_for(q, &e.state.query_syms(q), &e.pm, &e.state, e.tree())
    }

    fn assert_block_tree_agrees(e: &QueryEngine, queries: &[&str]) {
        for qs in queries {
            let q = TwigPattern::parse(qs).unwrap();
            assert_eq!(
                pinned(e, &q, EvaluatorHint::Naive),
                pinned(e, &q, EvaluatorHint::BlockTree),
                "query {qs}"
            );
        }
    }

    #[test]
    fn block_tree_agrees_with_basic_on_paper_example() {
        assert_block_tree_agrees(
            &paper_engine(),
            &[
                "//IP//ICN",
                "//ICN",
                "ORDER//ICN",
                "ORDER/IP/ICN",
                "ORDER[./IP/ICN]//SCN",
                "ORDER",
                "//SCN",
            ],
        );
    }

    #[test]
    fn block_path_is_taken_for_anchored_query() {
        let e = paper_engine();
        // //IP//ICN anchors at IP (unique label, has blocks, all labels in
        // subtree).
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let t_ip = e.target().nodes_with_label("IP")[0];
        assert_eq!(anchor_of(&e, &q), Some(t_ip));
        assert_eq!(pinned(&e, &q, EvaluatorHint::BlockTree).len(), 5);
    }

    #[test]
    fn anchor_rejected_when_label_leaks_outside_subtree() {
        // A query whose label also occurs outside the anchored subtree.
        let e = paper_engine();
        let q = TwigPattern::parse("ORDER//ICN").unwrap();
        // ORDER is the root; root has no blocks -> no anchor, fine.
        assert_eq!(anchor_of(&e, &q), None);
    }

    #[test]
    fn replication_uses_block_mappings() {
        let e = paper_engine();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let res = pinned(&e, &q, EvaluatorHint::BlockTree);
        // m1, m2 share (BP~IP, BCN~ICN): identical "Cathy" answers.
        assert_eq!(res[0].matches, res[1].matches);
        assert_eq!(e.document().text(res[0].matches[0].nodes[1]), Some("Cathy"));
    }

    #[test]
    fn block_tree_agrees_on_generated_documents_random_mappings() {
        let source = Schema::parse_outline(
            "Order(Buyer(Name Contact(EMail)) DeliverTo(Address(City Street) Contact(EMail)) \
             POLine*(LineNo Quantity UP))",
        )
        .unwrap();
        let target = Schema::parse_outline(
            "PO(Purchaser(PName PContact(PEMail)) ShipTo(Addr(Town Road)) \
             Line(No Qty UnitPrice))",
        )
        .unwrap();
        let matching = Matcher::context().match_schemas(&source, &target);
        let pm = PossibleMappings::top_h(&matching, 24);
        let doc = Document::generate(
            &source,
            &DocGenConfig {
                target_nodes: 200,
                max_repeat: 3,
                text_prob: 0.7,
            },
            5,
        );
        let e = QueryEngine::build(pm, doc);
        assert_block_tree_agrees(
            &e,
            &[
                "PO/Line/Qty",
                "PO//PEMail",
                "PO[./Purchaser/PContact]/Line[./No]/Qty",
                "//Line[./UnitPrice]//No",
                "PO/ShipTo/Addr[./Town]/Road",
                "//Addr/Town",
            ],
        );
    }

    /// A mapping set where the mappings disagree, for the VM's shape
    /// classes: `Q` is carried by two target nodes, two source `Name`
    /// nodes share a label, the classes of `Tgt[./U/V]//Q` split at `U`,
    /// `V` and (for source nodes) `Q`, and `m6`/`m7` are irrelevant to
    /// the `Q` and `Tgt` queries.
    fn partition_engine() -> QueryEngine {
        let source = Schema::parse_outline("Src(A(Name) B(Name) C(Item) D(Item Code) E)").unwrap();
        let target = Schema::parse_outline("Tgt(P(Q) R(Q) U(V))").unwrap();
        let s = |l: &str, i: usize| source.nodes_with_label(l)[i];
        let t = |l: &str, i: usize| target.nodes_with_label(l)[i];
        let root = (s("Src", 0), t("Tgt", 0));
        let (name_a, name_b) = (s("Name", 0), s("Name", 1));
        let (q_p, q_r) = (t("Q", 0), t("Q", 1));
        let (cu, du) = ((s("C", 0), t("U", 0)), (s("D", 0), t("U", 0)));
        let (item_v, code_v) = ((s("Item", 0), t("V", 0)), (s("Code", 0), t("V", 0)));
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (
                    vec![root, (s("A", 0), t("P", 0)), (name_a, q_p), cu, item_v],
                    8.0,
                ),
                (
                    vec![root, (s("B", 0), t("P", 0)), (name_b, q_p), cu, item_v],
                    7.0,
                ),
                (
                    vec![root, (s("A", 0), t("P", 0)), (name_a, q_p), du, code_v],
                    6.0,
                ),
                (
                    vec![root, (s("A", 0), t("R", 0)), (name_a, q_r), cu, item_v],
                    5.0,
                ),
                (
                    vec![root, (s("A", 0), t("P", 0)), (name_a, q_p), cu, code_v],
                    4.0,
                ),
                (
                    vec![
                        root,
                        (s("A", 0), t("P", 0)),
                        (name_a, q_p),
                        (s("B", 0), t("R", 0)),
                        (name_b, q_r),
                        cu,
                        item_v,
                    ],
                    3.0,
                ),
                (vec![root, cu, (s("Item", 1), t("V", 0))], 2.0),
                (vec![(s("E", 0), t("U", 0)), item_v], 1.0),
            ],
        );
        let doc = parse_document(
            "<Src><A><Name>a</Name></A><B><Name>b</Name></B><C><Item>1</Item></C>\
             <D><Item>2</Item></D><E>e</E></Src>",
        )
        .unwrap();
        QueryEngine::build(pm, doc)
    }

    /// Runs the compiled program for one query shape directly, optionally
    /// without its `and-relevance` ops (so irrelevant mappings reach the
    /// rewrite and must be killed there).
    fn run_program(
        e: &QueryEngine,
        q: &TwigPattern,
        (mode, k, agg): (SetMode, Option<usize>, Option<AggFunc>),
        strip_relevance: bool,
    ) -> RunOutput {
        let mut program = exec::compile(q, mode, k, agg, &e.state);
        if strip_relevance {
            program
                .ops
                .retain(|op| !matches!(op, exec::Op::AndRelevance { .. }));
        }
        program.run(&exec::EngineCtx {
            pm: &e.pm,
            doc: &e.doc,
            state: &e.state,
            index: matches!(mode, SetMode::SchemaNodes).then(|| e.path_index()),
        })
    }

    #[test]
    fn shape_classes_are_the_distinct_rewrite_rows() {
        let e = partition_engine();
        let all: Vec<MappingId> = (0..e.pm.len() as u32).map(MappingId).collect();
        let mut split = 0;
        for qs in [
            "Tgt[./U/V]//Q",
            "//Q",
            "Tgt/*/Q",
            "*//V",
            "//U/V",
            "Tgt[./*/V]//Q",
        ] {
            let q = TwigPattern::parse(qs).unwrap();
            let qsyms = e.state.query_syms(&q);
            for mode in [SetMode::Symbols, SetMode::SchemaNodes] {
                // Distinct rewrite rows over the mappings `ids` keeps
                // live, by the oracle's rewrite.
                let rows = |ids: &[MappingId]| {
                    let mut rows: Vec<Vec<u32>> = Vec::new();
                    for &id in ids {
                        let pairs = e.pm.mapping(id).pairs;
                        let row = match mode {
                            SetMode::Symbols => e.state.rewrite(&qsyms, pairs).map(|sets| {
                                sets.iter()
                                    .flat_map(|r| r.iter().map(|s| s.0).chain([u32::MAX]))
                                    .collect()
                            }),
                            SetMode::SchemaNodes => {
                                e.state.rewrite_nodes(&qsyms, pairs).map(|sets| {
                                    sets.iter()
                                        .flat_map(|r| r.iter().map(|s| s.0).chain([u32::MAX]))
                                        .collect()
                                })
                            }
                        };
                        rows.extend(row.filter(|r| !rows.contains(r)));
                    }
                    rows.len()
                };
                let naive = |ids: &[MappingId]| match mode {
                    SetMode::Symbols => eval_basic_over(&q, &e.pm, &e.doc, &e.state, ids),
                    SetMode::SchemaNodes => {
                        eval_basic_nodes(&q, &e.pm, &e.doc, e.path_index(), &e.state, ids)
                    }
                };
                let arcs = |out: &RunOutput| {
                    let mut seen: Vec<*const u8> = Vec::new();
                    for a in &out.result.answers {
                        let p = Arc::as_ptr(&a.matches).cast::<u8>();
                        if !seen.contains(&p) {
                            seen.push(p);
                        }
                    }
                    seen.len()
                };
                let relevant = e.state.relevant(&q);
                let mut shapes = vec![(None, None, relevant.clone())];
                for k in [1, 2, 3] {
                    shapes.push((Some(k), None, e.topk_ids(&q, k)));
                }
                if mode == SetMode::Symbols {
                    shapes.push((None, Some(AggFunc::Count), relevant.clone()));
                }
                for (k, agg, ids) in shapes {
                    let what = format!("{qs} {mode:?} k={k:?} agg={agg:?}");
                    let out = run_program(&e, &q, (mode, k, agg), false);
                    assert_eq!(out.result, naive(&ids), "{what}");
                    assert_eq!(arcs(&out), rows(&ids), "{what}");
                    split += usize::from(rows(&ids) > 1);
                    if let Some(func) = agg {
                        let naive_rows = crate::aggregate::rows_of(
                            func,
                            &crate::api::shape_ptq_answers(
                                naive(&ids).answers,
                                &crate::api::QueryOptions::default(),
                            ),
                            &q,
                            &e.doc,
                        );
                        assert_eq!(out.agg_rows, Some(naive_rows), "{what}");
                    }
                    if k.is_none() {
                        // Without the relevance ANDs every mapping reaches
                        // the rewrite; the irrelevant ones are killed there.
                        let stripped = run_program(&e, &q, (mode, k, agg), true);
                        assert_eq!(stripped.result, naive(&relevant), "{what} stripped");
                        assert_eq!(arcs(&stripped), rows(&all), "{what} stripped");
                    }
                }
            }
        }
        assert!(split > 10, "the fixture must split classes: {split}");
        // The served path agrees with the naive pin for every kind.
        for qs in ["Tgt[./U/V]//Q", "//Q", "Tgt/*/Q"] {
            let q = TwigPattern::parse(qs).unwrap();
            for query in [
                Query::ptq(q.clone()),
                Query::ptq_nodes(q.clone()),
                Query::topk(q.clone(), 2),
                Query::aggregate(q.clone(), AggFunc::Count),
            ] {
                let auto = e.run(&query).unwrap();
                let naive = e
                    .run(&query.clone().with_evaluator(EvaluatorHint::Naive))
                    .unwrap();
                assert_eq!(auto.stats.backend, Evaluator::Compiled, "{query}");
                assert_eq!(auto.answers, naive.answers, "{query}");
                assert_eq!(auto.aggregate, naive.aggregate, "{query}");
            }
        }
    }

    #[test]
    fn bitset_ids_roundtrip() {
        let mut b = MappingBits::empty(130);
        for i in [0usize, 63, 64, 65, 129] {
            b.set(i);
        }
        let ids: Vec<u32> = b.ids().iter().map(|m| m.0).collect();
        assert_eq!(ids, vec![0, 63, 64, 65, 129]);
        let full = MappingBits::full(70);
        assert_eq!(full.ids().len(), 70);
    }
}
