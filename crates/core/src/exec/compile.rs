//! Lowering a planner-annotated query into a flat [`Program`].
//!
//! Compilation resolves every name once — query labels to interned
//! symbols, symbols to target-schema candidate lists — and inlines the
//! results into the program as constants, so the interpreter never
//! touches the symbol table, the schemas, or any per-node tree walk.
//! The pipeline mirrors Algorithm 3's phases exactly (filter → rewrite
//! → resolve → match → fold), which is what makes the compiled backend
//! answer-identical to the recursive evaluators by construction.

use super::program::{FoldMode, Op, Program, SetMode};
use crate::aggregate::AggFunc;
use crate::engine::SessionState;
use uxm_twig::TwigPattern;

/// Lowers `pattern` into a [`Program`] against one engine session.
///
/// The emitted shape is fixed:
///
/// ```text
/// init-bits
/// and-relevance / clear-bits     (one per distinct non-wildcard label)
/// materialize-ids
/// topk-heap k                    (top-k queries only)
/// intersect-csr / wildcard-set   (one per query node)
/// group-shapes
/// match-shapes
/// fold-prob
/// agg-fold                       (aggregate queries only)
/// emit-answers
/// ```
///
/// A wildcard query node contributes nothing to phase 1 (it constrains
/// no mapping) and lowers to `wildcard-set` in phase 2. Value predicates
/// need no ops of their own: the pattern travels with the program and
/// the shared matcher interprets them at `match-shapes`, exactly as the
/// recursive evaluators do.
///
/// Programs embed session symbols and schema node ids, so they are only
/// valid against the engine whose [`SessionState`] compiled them; the
/// engine compiles one per evaluation and drops it after the run.
pub(crate) fn compile<'q>(
    pattern: &'q TwigPattern,
    mode: SetMode,
    k: Option<usize>,
    agg: Option<AggFunc>,
    state: &SessionState,
) -> Program<'q> {
    let qsyms = state.query_syms(pattern);
    let n_nodes = qsyms.len();
    // Two ops per query node, plus at most eight fixed ones.
    let mut ops: Vec<Op> = Vec::with_capacity(n_nodes * 2 + 8);

    // Phase 1 — the paper's filter_mappings as bitset ANDs, one op per
    // distinct query label, at the first node carrying it (ANDing a
    // column twice is a no-op; compile it out). Wildcards match under
    // every mapping and compile to nothing here.
    ops.push(Op::InitBits);
    for (id, qs) in pattern.ids().zip(&qsyms) {
        let label = &pattern.node(id).label;
        let first = pattern.ids().find(|&j| pattern.node(j).label == *label);
        if qs.wild || first != Some(id) {
            continue;
        }
        ops.push(match qs.sym {
            Some(sym) => Op::AndRelevance { sym, node: id.0 },
            None => Op::ClearBits { node: id.0 },
        });
    }
    ops.push(Op::MaterializeIds);
    if let Some(k) = k {
        ops.push(Op::TopKHeap { k });
    }

    // Phase 2 — per-node rewrites: inline each node's target-candidate
    // list into one flat arena; the VM looks each candidate up in the
    // session's correspondence index. Wildcards have no candidates:
    // they give every shape class an empty-but-satisfiable row.
    let mut targets = Vec::new();
    for (node, qs) in qsyms.iter().enumerate() {
        if qs.wild {
            ops.push(Op::WildcardSet { node: node as u32 });
            continue;
        }
        let start = targets.len() as u32;
        targets.extend_from_slice(state.target_nodes(qs.sym));
        ops.push(Op::IntersectCsr {
            node: node as u32,
            targets: start..targets.len() as u32,
        });
    }

    // Phase 3 — share the matcher across identical shapes, then fold the
    // probability column into per-mapping answers (and, for aggregate
    // queries, each answer's match set into one scalar row).
    ops.push(Op::GroupShapes);
    ops.push(Op::MatchShapes { mode });
    ops.push(Op::FoldProb {
        mode: if k.is_some() {
            FoldMode::TopOrder
        } else {
            FoldMode::PerMapping
        },
    });
    if let Some(func) = agg {
        ops.push(Op::AggFold { func });
    }
    ops.push(Op::EmitAnswers);

    Program {
        pattern,
        mode,
        ops,
        targets,
        n_nodes,
        n_mappings: state.n_mappings(),
    }
}
