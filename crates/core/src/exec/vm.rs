//! The interpreter VM: one branch-light match-on-opcode loop over flat
//! registers.
//!
//! Register model (see `docs/execution.md`):
//!
//! * `bits` — the mapping liveness bitset (`⌈|M|/64⌉` words). Seeded by
//!   `init-bits`, narrowed by `and-relevance`, and used as the kill set
//!   by `intersect-csr` when a rewrite comes up empty.
//! * `ids` — the materialized mapping-id list; its order is the answer
//!   order (ascending, or top-k order after `topk-heap`).
//! * the **shape classes** — a partition of the live mappings in `ids`
//!   by their rewrite rows so far: each class holds a mapping bitset and,
//!   per query node, a range into one flat `u32` row arena (its sorted
//!   rewrite set: source symbols or source schema nodes). The rewrite
//!   ops refine the partition node by node with the session's
//!   correspondence index, so a correspondence shared by many mappings is
//!   visited once, not once per mapping (the paper's c-block sharing).
//!   Class bitsets and spans live in two reused flat buffers, double
//!   buffered across nodes; nothing is allocated per class.
//!
//! The loop allocates output only for the answer (and row) vectors and
//! once per shape class: `match-shapes` builds each class's match set
//! as one shared `Arc<[TwigMatch]>`, `fold-prob` hands every member of
//! the class a reference to it, and `agg-fold` folds it once. Everything
//! else is reused flat storage.

use super::program::{FoldMode, Op, Program, SetMode};
use crate::aggregate::{self, AggRow};
use crate::engine::{node_sets_to_matches, SessionState};
use crate::mapping::{MappingId, PossibleMappings};
use crate::ptq::{PtqAnswer, PtqResult};
use std::sync::Arc;
use uxm_twig::{match_twig, ResolvedPattern, TwigMatch};
use uxm_xml::{Document, LabelId, PathIndex, SchemaNodeId};

/// What a program runs against: borrowed views of one engine session's
/// columnar arenas. Node-granularity programs additionally carry the
/// engine's path index.
pub(crate) struct EngineCtx<'a> {
    /// The mapping set (CSR correspondence rows + probability column).
    pub pm: &'a PossibleMappings,
    /// The document the twig matcher scans.
    pub doc: &'a Document,
    /// The session state (relevance bitset columns, symbol projections).
    pub state: &'a SessionState,
    /// The path index; `Some` for [`SetMode::SchemaNodes`] programs.
    pub index: Option<&'a PathIndex>,
}

/// What one program run produced.
pub(crate) struct RunOutput {
    /// The raw per-mapping result (the same shape the recursive
    /// evaluators produce; the engine applies granularity shaping on
    /// top).
    pub result: PtqResult,
    /// The per-mapping aggregate rows; `Some` when the program ends in
    /// an `agg-fold` op.
    pub agg_rows: Option<Vec<AggRow>>,
    /// `|M_q|`: the length of the `ids` register after
    /// `materialize-ids` (and `topk-heap`, which prunes it to `k`) —
    /// the relevant mappings the program evaluated.
    pub relevant: usize,
}

impl Program<'_> {
    /// Executes the program against one engine session.
    pub(crate) fn run(&self, ctx: &EngineCtx<'_>) -> RunOutput {
        let n_words = self.n_mappings.div_ceil(64);
        let n_nodes = self.n_nodes;

        // Registers.
        let mut bits: Vec<u64> = vec![0; n_words];
        let mut ids: Vec<MappingId> = Vec::new();
        let mut classes = Classes::new(n_words, n_nodes);
        // Per mapping id: its shape class, filled by `group-shapes` for
        // the live mappings of `ids`.
        let mut class_of: Vec<u32> = Vec::new();
        let mut group_matches: Vec<Arc<[TwigMatch]>> = Vec::new();
        let mut answers: Vec<PtqAnswer> = Vec::new();
        let mut agg_rows: Option<Vec<AggRow>> = None;

        let alive = |bits: &[u64], id: MappingId| bits[id.0 as usize / 64] >> (id.0 % 64) & 1 == 1;

        for op in &self.ops {
            match op {
                Op::InitBits => {
                    bits.fill(!0u64);
                    let tail = self.n_mappings % 64;
                    if tail != 0 {
                        *bits.last_mut().expect("n_mappings > 0 when tail > 0") =
                            (1u64 << tail) - 1;
                    }
                }
                Op::AndRelevance { sym, .. } => {
                    for (w, r) in bits.iter_mut().zip(ctx.state.relevance_words(*sym)) {
                        *w &= r;
                    }
                }
                Op::ClearBits { .. } => bits.fill(0),
                Op::MaterializeIds => {
                    ids.clear();
                    for (wi, &word) in bits.iter().enumerate() {
                        let mut w = word;
                        while w != 0 {
                            let b = w.trailing_zeros();
                            ids.push(MappingId((wi * 64) as u32 + b));
                            w &= w - 1;
                        }
                    }
                }
                Op::TopKHeap { k } => {
                    ids.sort_by(|&a, &b| {
                        ctx.pm
                            .mapping(b)
                            .prob
                            .total_cmp(&ctx.pm.mapping(a).prob)
                            .then(a.cmp(&b))
                    });
                    ids.truncate(*k);
                }
                Op::IntersectCsr { node, targets } => {
                    if *node == 0 {
                        classes.seed(&bits, &ids);
                    }
                    let tgts = &self.targets[targets.start as usize..targets.end as usize];
                    let state = ctx.state;
                    match self.mode {
                        SetMode::Symbols => classes.refine(
                            *node as usize,
                            tgts,
                            state,
                            |s| state.source_sym(s).0,
                            &mut bits,
                        ),
                        SetMode::SchemaNodes => {
                            classes.refine(*node as usize, tgts, state, |s| s.0, &mut bits)
                        }
                    }
                }
                Op::WildcardSet { node } => {
                    // A wildcard has no rewrite set: every class gets an
                    // empty row (the matcher reads the empty set as "any
                    // document node") and nothing is killed.
                    if *node == 0 {
                        classes.seed(&bits, &ids);
                    }
                    classes.push_empty(*node as usize);
                }
                Op::GroupShapes => {
                    // Only mappings that are live after the rewrite are
                    // looked up, and each of them is in a class.
                    class_of.clear();
                    if !classes.bits.is_empty() {
                        class_of.resize(self.n_mappings, u32::MAX);
                    }
                    for (c, class) in classes.bits.chunks_exact(classes.words).enumerate() {
                        for (wi, &word) in class.iter().enumerate() {
                            let mut w = word;
                            while w != 0 {
                                class_of[wi * 64 + w.trailing_zeros() as usize] = c as u32;
                                w &= w - 1;
                            }
                        }
                    }
                }
                Op::MatchShapes { mode } => {
                    group_matches = (0..classes.len())
                        .map(|c| {
                            let matches = match mode {
                                SetMode::Symbols => {
                                    let label_sets: Vec<Vec<LabelId>> = (0..n_nodes)
                                        .map(|j| {
                                            classes
                                                .row(c, j)
                                                .iter()
                                                .filter_map(|&raw| ctx.state.doc_label_raw(raw))
                                                .collect()
                                        })
                                        .collect();
                                    match ResolvedPattern::with_label_ids(self.pattern, label_sets)
                                    {
                                        Some(resolved) => match_twig(ctx.doc, &resolved),
                                        None => Vec::new(),
                                    }
                                }
                                SetMode::SchemaNodes => {
                                    let sets: Vec<Vec<SchemaNodeId>> = (0..n_nodes)
                                        .map(|j| {
                                            classes
                                                .row(c, j)
                                                .iter()
                                                .map(|&raw| SchemaNodeId(raw))
                                                .collect()
                                        })
                                        .collect();
                                    node_sets_to_matches(
                                        self.pattern,
                                        &sets,
                                        ctx.pm,
                                        ctx.doc,
                                        ctx.index
                                            .expect("node-granularity programs carry an index"),
                                    )
                                }
                            };
                            Arc::from(matches)
                        })
                        .collect();
                }
                Op::FoldProb { mode } => {
                    answers = ids
                        .iter()
                        .filter(|&&id| alive(&bits, id))
                        .map(|&id| PtqAnswer {
                            mapping: id,
                            probability: ctx.pm.mapping(id).prob,
                            matches: Arc::clone(&group_matches[class_of[id.idx()] as usize]),
                        })
                        .collect();
                    debug_assert!(
                        match mode {
                            FoldMode::PerMapping =>
                                answers.windows(2).all(|w| w[0].mapping < w[1].mapping),
                            FoldMode::TopOrder => answers.windows(2).all(|w| {
                                w[0].probability > w[1].probability
                                    || (w[0].probability == w[1].probability
                                        && w[0].mapping < w[1].mapping)
                            }),
                        },
                        "fold-prob emission order violated"
                    );
                }
                Op::AggFold { func } => {
                    let subject = self.pattern.spine_leaf();
                    let values: Vec<Option<f64>> = group_matches
                        .iter()
                        .map(|m| aggregate::row_value(*func, m, subject, ctx.doc))
                        .collect();
                    agg_rows = Some(
                        ids.iter()
                            .filter(|&&id| alive(&bits, id))
                            .map(|&id| AggRow {
                                mapping: id,
                                probability: ctx.pm.mapping(id).prob,
                                value: values[class_of[id.idx()] as usize],
                            })
                            .collect(),
                    );
                }
                Op::EmitAnswers => {}
            }
        }
        RunOutput {
            result: PtqResult { answers },
            agg_rows,
            relevant: ids.len(),
        }
    }
}

/// The shape-class registers: a partition of the live mappings by their
/// rewrite rows so far. Class `c`'s mapping bitset is
/// `bits[c * words..(c + 1) * words]`, and its row set for query node
/// `j` is `rows[spans[c * n_nodes + j]]`; `next_*` are the buffers a
/// refinement writes into before the two are swapped.
#[derive(Default)]
struct Classes {
    words: usize,
    n_nodes: usize,
    bits: Vec<u64>,
    spans: Vec<(u32, u32)>,
    rows: Vec<u32>,
    next_bits: Vec<u64>,
    next_spans: Vec<(u32, u32)>,
    /// Per part during a refinement: the class it was split from.
    origin: Vec<u32>,
    /// Per refinement: the node's distinct keys (ascending) and, per
    /// key, the union of its correspondences' mapping bitsets.
    keys: Vec<u32>,
    unions: Vec<u64>,
    /// Per refinement: `(key, entry)` pairs of the node's index entries.
    hits: Vec<(u32, usize)>,
}

impl Classes {
    fn new(words: usize, n_nodes: usize) -> Classes {
        Classes {
            // One word even for an empty mapping set, so chunking works.
            words: words.max(1),
            n_nodes,
            ..Classes::default()
        }
    }

    fn len(&self) -> usize {
        self.bits.len() / self.words
    }

    /// Starts from one class: the live mappings of `ids` (none when no
    /// id is live).
    fn seed(&mut self, live: &[u64], ids: &[MappingId]) {
        self.bits.clear();
        self.spans.clear();
        self.rows.clear();
        for &id in ids {
            let (w, bit) = (id.idx() / 64, 1u64 << (id.0 % 64));
            if live[w] & bit != 0 {
                if self.bits.is_empty() {
                    self.bits.resize(self.words, 0);
                    self.spans.resize(self.n_nodes, (0, 0));
                }
                self.bits[w] |= bit;
            }
        }
    }

    /// Gives every class an empty row at `node` (a wildcard).
    fn push_empty(&mut self, node: usize) {
        let end = self.rows.len() as u32;
        for c in 0..self.len() {
            self.spans[c * self.n_nodes + node] = (end, end);
        }
    }

    /// Refines every class at query node `node` by the correspondences
    /// into `targets`: a mapping's row is the set of keys (`key(source)`)
    /// of the entries holding it. Entries are first merged per key, so
    /// two sources with one key (two source nodes sharing a label, under
    /// symbols) count once; each class then splits by membership in each
    /// key's union. A part holding no key has an empty rewrite and is
    /// killed: cleared from `live` and dropped.
    fn refine(
        &mut self,
        node: usize,
        targets: &[SchemaNodeId],
        state: &SessionState,
        key: impl Fn(SchemaNodeId) -> u32,
        live: &mut [u64],
    ) {
        if self.bits.is_empty() {
            return; // no live mapping left to rewrite
        }
        let w = self.words;
        // The node's distinct keys, each with the union of its entries.
        self.hits.clear();
        for &t in targets {
            for e in state.correspondences(t) {
                self.hits.push((key(state.correspondence_source(e)), e));
            }
        }
        self.hits.sort_unstable();
        self.keys.clear();
        self.unions.clear();
        for &(k, e) in &self.hits {
            if self.keys.last() != Some(&k) {
                self.keys.push(k);
                self.unions.resize(self.unions.len() + w, 0);
            }
            let at = self.unions.len() - w;
            for (u, &b) in self.unions[at..]
                .iter_mut()
                .zip(state.correspondence_bits(e))
            {
                *u |= b;
            }
        }

        // Split every part by every key's union, in place; a split-off
        // part is appended and remembers its class.
        self.origin.clear();
        self.origin.extend(0..self.len() as u32);
        for union in self.unions.chunks_exact(w) {
            for p in 0..self.origin.len() {
                let part = &self.bits[p * w..(p + 1) * w];
                let inside = part.iter().zip(union).any(|(&x, &u)| x & u != 0);
                let outside = part.iter().zip(union).any(|(&x, &u)| x & !u != 0);
                if inside && outside {
                    for (i, &u) in union.iter().enumerate() {
                        let x = self.bits[p * w + i];
                        self.bits.push(x & !u);
                        self.bits[p * w + i] = x & u;
                    }
                    self.origin.push(self.origin[p]);
                }
            }
        }

        // Each part's members agree on every key: read its row off any
        // member, then keep the part as a class or kill it.
        self.next_bits.clear();
        self.next_spans.clear();
        for (p, &from) in self.origin.iter().enumerate() {
            let part = &self.bits[p * w..(p + 1) * w];
            let member = part
                .iter()
                .enumerate()
                .find(|&(_, &x)| x != 0)
                .map(|(i, &x)| i * 64 + x.trailing_zeros() as usize)
                .expect("parts are never empty");
            let start = self.rows.len();
            for (&k, union) in self.keys.iter().zip(self.unions.chunks_exact(w)) {
                if union[member / 64] >> (member % 64) & 1 == 1 {
                    self.rows.push(k);
                }
            }
            if self.rows.len() == start {
                for (l, &x) in live.iter_mut().zip(part) {
                    *l &= !x;
                }
                continue;
            }
            self.next_bits.extend_from_slice(part);
            let base = from as usize * self.n_nodes;
            self.next_spans
                .extend_from_slice(&self.spans[base..base + self.n_nodes]);
            let last = self.next_spans.len() - self.n_nodes + node;
            self.next_spans[last] = (start as u32, self.rows.len() as u32);
        }
        std::mem::swap(&mut self.bits, &mut self.next_bits);
        std::mem::swap(&mut self.spans, &mut self.next_spans);
    }

    /// Class `c`'s row set at query node `j`.
    fn row(&self, c: usize, j: usize) -> &[u32] {
        let (start, end) = self.spans[c * self.n_nodes + j];
        &self.rows[start as usize..end as usize]
    }
}
