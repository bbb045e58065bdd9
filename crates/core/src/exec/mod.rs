//! Compiled query execution: flat bytecode programs over the columnar
//! arenas.
//!
//! The recursive evaluators (Algorithms 3 and 4 in [`crate::engine`], at
//! label and node granularity, plus top-k) re-interpret the query shape on
//! every evaluation — per-node dispatch, per-mapping rewrite calls, and
//! tree walks through branchy logic. This module lowers a
//! planner-annotated query in one pass into a flat [`Program`] — a
//! `Vec<Op>` over register slots, every symbol resolved and every
//! constant inlined at compile time — and runs it once. Compiling is
//! cheap (the program borrows the query's pattern and copies only the
//! per-node target candidates), so every evaluation compiles afresh and
//! nothing is kept beside the engine: one compiled object per query, as
//! with tree-sitter's query objects.
//!
//! The two pieces:
//!
//! * **compiler** (`compile`, crate-internal) — lowers a twig pattern
//!   into the fixed pipeline `init-bits → and-relevance* →
//!   materialize-ids → [topk-heap] → (intersect-csr|wildcard-set)* →
//!   group-shapes → match-shapes → fold-prob → [agg-fold] →
//!   emit-answers`, mirroring Algorithm 3's phases exactly (value
//!   predicates travel with the pattern and are interpreted by the
//!   shared matcher at `match-shapes`);
//! * **VM** (`Program::run`, crate-internal) — one match-on-opcode loop
//!   over a mapping bitset, an id register, and the shape classes (a
//!   partition of the live mappings by rewrite row, refined node by node
//!   through the session's correspondence index); no per-class
//!   allocation.
//!
//! **Determinism contract:** a compiled program is answer-identical to
//! the recursive evaluators on every run — same answers, same order,
//! same floats, same provenance — pinned by
//! `tests/engine_equivalence.rs` and `tests/prop_exec.rs`. See
//! `docs/execution.md` for the instruction set and register model.
//!
//! # Examples
//!
//! Inspect the plan and the compiled listing for a query via
//! [`QueryEngine::explain`](crate::engine::QueryEngine::explain) (what
//! `uxm explain` prints):
//!
//! ```
//! use uxm_core::api::Query;
//! use uxm_core::engine::QueryEngine;
//! use uxm_core::block_tree::BlockTreeConfig;
//! use uxm_core::mapping::PossibleMappings;
//! use uxm_matching::Matcher;
//! use uxm_twig::TwigPattern;
//! use uxm_xml::{DocGenConfig, Document, Schema};
//!
//! let source = Schema::parse_outline("Order(Buyer(Name) Item(Price))").unwrap();
//! let target = Schema::parse_outline("PO(Vendor(ContactName) Line(UnitPrice))").unwrap();
//! let matching = Matcher::default().match_schemas(&source, &target);
//! let pm = PossibleMappings::top_h(&matching, 8);
//! let doc = Document::generate(&source, &DocGenConfig::small(), 7);
//! let engine = QueryEngine::build(pm, doc, &BlockTreeConfig::default());
//!
//! let query = Query::ptq(TwigPattern::parse("PO//ContactName").unwrap());
//! let explain = engine.explain(&query).unwrap();
//! let program = explain.program.as_ref().unwrap();
//! assert!(program.len() >= 7, "filter, rewrite, match, fold phases");
//! let listing = program.listing().join("\n");
//! assert!(listing.contains("intersect-csr"));
//! // Running the same query honors the plan `explain` reported.
//! let response = engine.run(&query).unwrap();
//! assert_eq!(response.stats.plan.evaluator, explain.plan.evaluator);
//! ```

mod compile;
mod program;
mod vm;

pub use program::{FoldMode, Op, Program, SetMode};

pub(crate) use compile::compile;
pub(crate) use vm::{EngineCtx, RunOutput};

use crate::json::Json;
use crate::planner::Plan;
use std::fmt;

/// What `uxm explain` (and `explain: true` on `/query`) reports: the
/// chosen plan and the compiled program listing.
///
/// Returned by
/// [`QueryEngine::explain`](crate::engine::QueryEngine::explain). For
/// PTQ-shaped queries the program is always included — when the plan
/// picks a recursive evaluator, it is the program a
/// [`EvaluatorHint::Compiled`](crate::api::EvaluatorHint::Compiled)
/// pin would run. Keyword queries have a
/// single evaluator and no compiled form. The program borrows the
/// query's pattern, so an `Explain` lives no longer than its query.
#[derive(Clone, Debug)]
pub struct Explain<'q> {
    /// The plan [`QueryEngine::run`](crate::engine::QueryEngine::run)
    /// executes for this query.
    pub plan: Plan,
    /// The compiled program; `None` for keyword queries.
    pub program: Option<Program<'q>>,
}

impl Explain<'_> {
    /// The canonical JSON form (alphabetical keys), embedded in `/query`
    /// responses under `"explain"` when requested.
    pub fn to_json(&self) -> Json {
        let program = match &self.program {
            None => Json::Null,
            Some(p) => Json::Arr(p.listing().into_iter().map(Json::str).collect()),
        };
        Json::Obj(vec![
            (
                "evaluator".into(),
                Json::str(self.plan.evaluator.wire_name()),
            ),
            (
                "plan_reason".into(),
                Json::str(self.plan.reason.wire_name()),
            ),
            ("program".into(), program),
        ])
    }
}

impl fmt::Display for Explain<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan: {} ({})", self.plan.evaluator, self.plan.reason)?;
        match &self.program {
            Some(program) => write!(f, "{program}"),
            None => writeln!(f, "no compiled form (single-evaluator query kind)"),
        }
    }
}
