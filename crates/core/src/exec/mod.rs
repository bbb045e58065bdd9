//! Compiled query execution: flat bytecode programs over the columnar
//! arenas.
//!
//! The recursive evaluators (Algorithms 3 and 4 in [`crate::engine`], at
//! label and node granularity, plus top-k) re-interpret the query shape on
//! every evaluation — per-node dispatch, per-mapping rewrite calls, and
//! tree walks through branchy logic. This module lowers a
//! planner-annotated query **once** into a flat [`Program`] — a
//! `Vec<Op>` over register slots, every symbol resolved and every
//! constant inlined at compile time — and replays it from a sharded
//! per-engine [`program cache`](ProgramCacheStats) on every repeated
//! query (the compile-once/run-many shape of tree-sitter's query
//! programs).
//!
//! The three pieces:
//!
//! * **compiler** (`compile`, crate-internal) — lowers a twig pattern
//!   into the fixed pipeline `init-bits → and-relevance* →
//!   materialize-ids → [topk-heap] → (intersect-csr|wildcard-set)* →
//!   group-shapes → match-shapes → fold-prob → [agg-fold] →
//!   emit-answers`, mirroring Algorithm 3's phases exactly (value
//!   predicates travel with the pattern and are interpreted by the
//!   shared matcher at `match-shapes`);
//! * **VM** (`Program::run`, crate-internal) — one match-on-opcode loop
//!   over a mapping bitset, an id register, and a flat node-major shape
//!   arena; no per-op allocation on the warm path;
//! * **program cache** — sharded, keyed by canonical query shape
//!   (granularity tag + top-k bound + canonical pattern rendering),
//!   with hit/miss/compile counters surfaced through
//!   [`crate::api::ExecStats`] and `GET /stats`.
//!
//! **Determinism contract:** a compiled program is answer-identical to
//! the recursive evaluators at every epoch — same answers, same order,
//! same floats, same provenance — pinned by
//! `tests/engine_equivalence.rs` and `tests/prop_exec.rs`, and a warm
//! replay is identical to a cold compile. See `docs/execution.md` for
//! the instruction set and register model.
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

mod cache;
mod compile;
mod program;
mod vm;

pub use cache::ProgramCacheStats;
pub use program::{FoldMode, Op, Program, SetMode};

pub(crate) use cache::ProgramCache;
pub(crate) use compile::compile;
pub(crate) use vm::EngineCtx;

use crate::api::EvaluatorHint;
use crate::json::Json;
use crate::planner::{Evaluator, Plan, PlannerStats};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The `UXM_EXEC` environment toggle, read once per process: `force`
/// (or `on`) makes every *auto* plan run the compiled backend, `off`
/// remaps auto compiled plans to the recursive naive evaluator. Pinned
/// evaluator hints are always honored — the toggle is the differential
/// harness's switch, not a policy override for explicit requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ExecMode {
    /// Follow the planner (unset or unrecognized value).
    Planner,
    /// Auto plans always execute compiled.
    Force,
    /// Auto plans never execute compiled.
    Off,
}

pub(crate) fn exec_mode() -> ExecMode {
    static MODE: OnceLock<ExecMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("UXM_EXEC").as_deref() {
        Ok("force") | Ok("on") => ExecMode::Force,
        Ok("off") => ExecMode::Off,
        _ => ExecMode::Planner,
    })
}

/// Applies the `UXM_EXEC` toggle to an auto plan (pinned hints pass
/// through untouched). The plan *reason* is preserved: the toggle
/// swaps the backend, it does not rewrite why the planner chose it.
pub(crate) fn apply_env(hint: EvaluatorHint, plan: Plan) -> Plan {
    if hint != EvaluatorHint::Auto {
        return plan;
    }
    match exec_mode() {
        ExecMode::Planner => plan,
        ExecMode::Force => Plan {
            evaluator: Evaluator::Compiled,
            reason: plan.reason,
        },
        ExecMode::Off => match plan.evaluator {
            Evaluator::Compiled => Plan {
                evaluator: Evaluator::Naive,
                reason: plan.reason,
            },
            _ => plan,
        },
    }
}

/// What `uxm explain` (and `explain: true` on `/query`) reports: the
/// chosen plan, the planner's inputs, and the compiled program listing.
///
/// Returned by
/// [`QueryEngine::explain`](crate::engine::QueryEngine::explain). For
/// PTQ-shaped queries the program is always included — when the plan
/// picks a recursive evaluator, it is the program a
/// [`EvaluatorHint::Compiled`] pin would run. Keyword queries have a
/// single evaluator and no compiled form.
#[derive(Clone, Debug)]
pub struct Explain {
    /// The plan [`QueryEngine::run`](crate::engine::QueryEngine::run)
    /// would execute right now (cache warmth included).
    pub plan: Plan,
    /// The measured statistics the planner decided from; `None` for
    /// keyword queries (no planning happens).
    pub planner: Option<PlannerStats>,
    /// The compiled program; `None` for keyword queries.
    pub program: Option<Arc<Program>>,
}

impl Explain {
    /// The canonical JSON form (alphabetical keys), embedded in `/query`
    /// responses under `"explain"` when requested.
    pub fn to_json(&self) -> Json {
        let planner = match &self.planner {
            None => Json::Null,
            Some(p) => Json::Obj(vec![
                ("avg_block_fanout".into(), Json::Num(p.avg_block_fanout)),
                ("block_count".into(), Json::uint(p.block_count as u64)),
                ("cache_warm".into(), Json::Bool(p.cache_warm)),
                (
                    "min_rewrite_postings".into(),
                    Json::uint(p.min_rewrite_postings as u64),
                ),
                ("pred_selectivity".into(), Json::Num(p.pred_selectivity)),
                (
                    "relevant_mappings".into(),
                    Json::uint(p.relevant_mappings as u64),
                ),
                (
                    "total_rewrite_postings".into(),
                    Json::uint(p.total_rewrite_postings as u64),
                ),
                (
                    "value_predicates".into(),
                    Json::uint(p.value_predicates as u64),
                ),
                ("wildcard_nodes".into(), Json::uint(p.wildcard_nodes as u64)),
            ]),
        };
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
            ("planner".into(), planner),
            ("program".into(), program),
        ])
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan: {} ({})", self.plan.evaluator, self.plan.reason)?;
        if let Some(p) = &self.planner {
            writeln!(
                f,
                "planner: relevant={} blocks={} fanout={:.2} postings(min/total)={}/{} \
                 warm={} preds={} sel={:.2} wild={}",
                p.relevant_mappings,
                p.block_count,
                p.avg_block_fanout,
                p.min_rewrite_postings,
                p.total_rewrite_postings,
                p.cache_warm,
                p.value_predicates,
                p.pred_selectivity,
                p.wildcard_nodes
            )?;
        }
        match &self.program {
            Some(program) => write!(f, "{program}"),
            None => writeln!(f, "no compiled form (single-evaluator query kind)"),
        }
    }
}
