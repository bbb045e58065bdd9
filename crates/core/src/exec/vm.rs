//! The interpreter VM: one branch-light match-on-opcode loop over flat
//! registers.
//!
//! Register model (see `docs/execution.md`):
//!
//! * `bits` — the mapping liveness bitset (`⌈|M|/64⌉` words). Seeded by
//!   `init-bits`, narrowed by `and-relevance`, and used as the kill set
//!   by `intersect-csr` when a rewrite comes up empty.
//! * `ids` — the materialized mapping-id list; its order is the answer
//!   order (ascending, or top-k order after `topk-heap`). Slot `i` of
//!   every later register refers to `ids[i]`.
//! * the **shape arena** — one flat `u32` buffer holding every slot's
//!   per-node rewrite set (source symbols or source schema nodes),
//!   node-major, with a flat offset table beside it. No per-mapping or
//!   per-op allocation: both buffers grow once and are sliced.
//!
//! The loop allocates output only for the answer (and row) vectors and
//! once per shape group: `match-shapes` builds each group's match set
//! as one shared `Arc<[TwigMatch]>`, `fold-prob` hands every member of
//! the group a reference to it, and `agg-fold` folds it once. Everything
//! else is reused flat storage.

use super::program::{FoldMode, Op, Program, SetMode};
use crate::aggregate::{self, AggRow};
use crate::engine::{node_sets_to_matches, SessionState};
use crate::mapping::{MappingId, PossibleMappings};
use crate::ptq::{PtqAnswer, PtqResult};
use std::cmp::Ordering;
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

impl Program {
    /// Executes the program against one engine session.
    pub(crate) fn run(&self, ctx: &EngineCtx<'_>) -> RunOutput {
        let n_words = self.n_mappings.div_ceil(64);
        let n_nodes = self.n_nodes;

        // Registers.
        let mut bits: Vec<u64> = vec![0; n_words];
        let mut ids: Vec<MappingId> = Vec::new();
        // The two reusable scratch buffers: the shape arena and its
        // offset table. `offsets[0] == 0`; the span of (node j, slot i)
        // is `offsets[j*n_slots + i] .. offsets[j*n_slots + i + 1]`.
        let mut arena: Vec<u32> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        // Grouping state produced by `group-shapes`, consumed downstream.
        let mut reps: Vec<u32> = Vec::new();
        let mut group_of: Vec<u32> = Vec::new();
        let mut group_matches: Vec<Arc<[TwigMatch]>> = Vec::new();
        let mut answers: Vec<PtqAnswer> = Vec::new();
        let mut agg_rows: Option<Vec<AggRow>> = None;

        let alive = |bits: &[u64], id: MappingId| bits[id.0 as usize / 64] >> (id.0 % 64) & 1 == 1;
        let kill =
            |bits: &mut [u64], id: MappingId| bits[id.0 as usize / 64] &= !(1 << (id.0 % 64));
        // Lexicographic comparison of two slots' shape rows, node by node.
        let row_cmp = |arena: &[u32], offsets: &[u32], n_slots: usize, a: usize, b: usize| {
            for j in 0..n_nodes {
                let (asr, aer) = (offsets[j * n_slots + a], offsets[j * n_slots + a + 1]);
                let (bsr, ber) = (offsets[j * n_slots + b], offsets[j * n_slots + b + 1]);
                match arena[asr as usize..aer as usize].cmp(&arena[bsr as usize..ber as usize]) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            Ordering::Equal
        };

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
                    let n_slots = ids.len();
                    if *node == 0 {
                        arena.clear();
                        offsets.clear();
                        offsets.reserve(n_nodes * n_slots + 1);
                        offsets.push(0);
                    }
                    let tgts = &self.targets[targets.start as usize..targets.end as usize];
                    for &id in ids.iter().take(n_slots) {
                        let start = arena.len();
                        if alive(&bits, id) {
                            // Merge-intersect the mapping's CSR row
                            // (sorted by target) with the compiled
                            // candidates (sorted), projecting hits.
                            let pairs = ctx.pm.mapping(id).pairs;
                            let (mut pi, mut ti) = (0usize, 0usize);
                            while pi < pairs.len() && ti < tgts.len() {
                                let (s, t) = pairs[pi];
                                match t.cmp(&tgts[ti]) {
                                    Ordering::Less => pi += 1,
                                    Ordering::Greater => ti += 1,
                                    Ordering::Equal => {
                                        arena.push(match self.mode {
                                            SetMode::Symbols => ctx.state.source_sym(s).0,
                                            SetMode::SchemaNodes => s.0,
                                        });
                                        pi += 1;
                                        ti += 1;
                                    }
                                }
                            }
                            if arena.len() == start {
                                kill(&mut bits, id);
                            } else {
                                arena[start..].sort_unstable();
                                let mut w = start + 1;
                                for r in start + 1..arena.len() {
                                    if arena[r] != arena[w - 1] {
                                        arena[w] = arena[r];
                                        w += 1;
                                    }
                                }
                                arena.truncate(w);
                            }
                        }
                        offsets.push(arena.len() as u32);
                    }
                }
                Op::WildcardSet { node } => {
                    // A wildcard has no rewrite set: push one empty row
                    // per slot (the matcher reads the empty set as "any
                    // document node") and kill nothing.
                    let n_slots = ids.len();
                    if *node == 0 {
                        arena.clear();
                        offsets.clear();
                        offsets.reserve(n_nodes * n_slots + 1);
                        offsets.push(0);
                    }
                    for _ in 0..n_slots {
                        offsets.push(arena.len() as u32);
                    }
                }
                Op::GroupShapes => {
                    let n_slots = ids.len();
                    reps.clear();
                    group_of.clear();
                    group_of.resize(n_slots, u32::MAX);
                    let mut order: Vec<u32> = (0..n_slots as u32)
                        .filter(|&i| alive(&bits, ids[i as usize]))
                        .collect();
                    order.sort_unstable_by(|&a, &b| {
                        row_cmp(&arena, &offsets, n_slots, a as usize, b as usize)
                    });
                    for &slot in &order {
                        let fresh = match reps.last() {
                            None => true,
                            Some(&p) => {
                                row_cmp(&arena, &offsets, n_slots, slot as usize, p as usize)
                                    != Ordering::Equal
                            }
                        };
                        if fresh {
                            reps.push(slot);
                        }
                        group_of[slot as usize] = (reps.len() - 1) as u32;
                    }
                }
                Op::MatchShapes { mode } => {
                    let n_slots = ids.len();
                    group_matches = reps
                        .iter()
                        .map(|&slot| {
                            let slot = slot as usize;
                            let span = |j: usize| {
                                let base = j * n_slots + slot;
                                &arena[offsets[base] as usize..offsets[base + 1] as usize]
                            };
                            let matches = match mode {
                                SetMode::Symbols => {
                                    let label_sets: Vec<Vec<LabelId>> = (0..n_nodes)
                                        .map(|j| {
                                            span(j)
                                                .iter()
                                                .filter_map(|&raw| ctx.state.doc_label_raw(raw))
                                                .collect()
                                        })
                                        .collect();
                                    match ResolvedPattern::with_label_ids(&self.pattern, label_sets)
                                    {
                                        Some(resolved) => match_twig(ctx.doc, &resolved),
                                        None => Vec::new(),
                                    }
                                }
                                SetMode::SchemaNodes => {
                                    let sets: Vec<Vec<SchemaNodeId>> = (0..n_nodes)
                                        .map(|j| {
                                            span(j).iter().map(|&raw| SchemaNodeId(raw)).collect()
                                        })
                                        .collect();
                                    node_sets_to_matches(
                                        &self.pattern,
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
                        .enumerate()
                        .filter(|&(_, &id)| alive(&bits, id))
                        .map(|(i, &id)| PtqAnswer {
                            mapping: id,
                            probability: ctx.pm.mapping(id).prob,
                            matches: Arc::clone(&group_matches[group_of[i] as usize]),
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
                            .enumerate()
                            .filter(|&(_, &id)| alive(&bits, id))
                            .map(|(i, &id)| AggRow {
                                mapping: id,
                                probability: ctx.pm.mapping(id).prob,
                                value: values[group_of[i] as usize],
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
