//! The query planner behind
//! [`QueryEngine::run`](crate::engine::QueryEngine::run).
//!
//! The paper has two PTQ evaluation strategies — naive per-mapping
//! rewriting (Algorithm 3) and block-tree sharing (Algorithm 4). The
//! engine adds a third: the [`crate::exec`] backend, which lowers the
//! query into a flat compiled [`Program`](crate::exec::Program) and
//! runs it. The planner picks one of the three from a
//! fixed table keyed on the query's [`EvaluatorHint`] and its
//! [`QueryKind`]:
//!
//! | hint | query kind | evaluator | reason |
//! |---|---|---|---|
//! | pinned | PTQ-shaped | the pinned one | [`PlanReason::Pinned`] |
//! | `Auto` | `Ptq`, `PtqNodes`, `TopK`, `Aggregate` | [`Evaluator::Compiled`] | [`PlanReason::KindDefault`] |
//! | any | `Keyword` | [`Evaluator::Naive`] | [`PlanReason::KindDefault`] |
//!
//! The defaults come from `BENCH_exec.json` (see `docs/benchmarks.md`):
//! the compiled VM is within 10 % of the fastest backend for every
//! PTQ-shaped kind on D7 and on the 200k-node corpus document. The
//! engine holds no cache, so every backend does all its work on every
//! run; the recursive evaluators remain as pinned plans and test
//! oracles. Keyword queries have a single strategy, so their hint is
//! ignored.
//!
//! All evaluators return answers that are **identical by construction**
//! (pinned by `tests/engine_equivalence.rs`, `tests/prop_exec.rs`, and
//! the planner differential suite), so the plan choice is a pure
//! performance decision — it can never change a result.
//!
//! # Examples
//!
//! The planner is a pure function from hint + query kind to a [`Plan`];
//! a query's [`crate::api::ExecStats`] reports what it picked and why:
//!
//! ```
//! use uxm_core::api::{EvaluatorHint, QueryKind};
//! use uxm_core::planner::{choose, Evaluator, Plan, PlanReason};
//!
//! assert_eq!(
//!     choose(EvaluatorHint::Auto, QueryKind::Ptq),
//!     Plan { evaluator: Evaluator::Compiled, reason: PlanReason::KindDefault },
//! );
//! // Node granularity runs compiled too.
//! assert_eq!(
//!     choose(EvaluatorHint::Auto, QueryKind::PtqNodes).evaluator,
//!     Evaluator::Compiled,
//! );
//!
//! // A pinned hint always wins...
//! let pinned = choose(EvaluatorHint::Naive, QueryKind::TopK);
//! assert_eq!(
//!     (pinned.evaluator, pinned.reason),
//!     (Evaluator::Naive, PlanReason::Pinned),
//! );
//! // ...except on keyword queries, which have one evaluator.
//! assert_eq!(
//!     choose(EvaluatorHint::Compiled, QueryKind::Keyword).evaluator,
//!     Evaluator::Naive,
//! );
//! ```

use crate::api::{EvaluatorHint, QueryKind};
use std::fmt;

/// A PTQ evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evaluator {
    /// Algorithm 3: rewrite and evaluate per mapping.
    Naive,
    /// Algorithm 4: share work through the block tree.
    BlockTree,
    /// The [`crate::exec`] backend: the query is lowered to a flat
    /// [`Program`](crate::exec::Program) over the columnar arenas,
    /// compiled afresh for each run. Answer-identical to
    /// [`Evaluator::Naive`] by construction.
    Compiled,
}

impl Evaluator {
    /// The kebab-case wire name (`naive` / `block-tree` / `compiled`).
    pub fn wire_name(self) -> &'static str {
        match self {
            Evaluator::Naive => "naive",
            Evaluator::BlockTree => "block-tree",
            Evaluator::Compiled => "compiled",
        }
    }
}

impl fmt::Display for Evaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// Why the planner picked its evaluator (reported in
/// [`crate::api::ExecStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanReason {
    /// The query's [`EvaluatorHint`] pinned the evaluator.
    Pinned,
    /// The query kind's default evaluator ([`default_for`]): the hint
    /// was [`EvaluatorHint::Auto`], or the kind has one evaluator.
    KindDefault,
}

impl PlanReason {
    /// The kebab-case wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            PlanReason::Pinned => "pinned",
            PlanReason::KindDefault => "kind-default",
        }
    }
}

impl fmt::Display for PlanReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// The planner's decision: which evaluator, and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The strategy the engine will run.
    pub evaluator: Evaluator,
    /// Why it was chosen.
    pub reason: PlanReason,
}

/// The evaluator a query kind runs under [`EvaluatorHint::Auto`].
pub fn default_for(kind: QueryKind) -> Evaluator {
    match kind {
        QueryKind::Keyword => Evaluator::Naive,
        _ => Evaluator::Compiled,
    }
}

/// Picks the evaluator for one query: a pinned hint wins, except on
/// keyword queries (one evaluator); otherwise the kind's
/// [`default_for`].
pub fn choose(hint: EvaluatorHint, kind: QueryKind) -> Plan {
    let pinned = match hint {
        EvaluatorHint::Auto => None,
        EvaluatorHint::Naive => Some(Evaluator::Naive),
        EvaluatorHint::BlockTree => Some(Evaluator::BlockTree),
        EvaluatorHint::Compiled => Some(Evaluator::Compiled),
    };
    match pinned {
        Some(evaluator) if kind != QueryKind::Keyword => Plan {
            evaluator,
            reason: PlanReason::Pinned,
        },
        _ => Plan {
            evaluator: default_for(kind),
            reason: PlanReason::KindDefault,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_hint_and_kind_follows_the_table() {
        use Evaluator::*;
        use QueryKind::*;
        let plan = |evaluator, reason| Plan { evaluator, reason };
        let auto = [
            (Ptq, Compiled),
            (PtqNodes, Compiled),
            (TopK, Compiled),
            (Keyword, Naive),
            (Aggregate, Compiled),
        ];
        let pins = [
            (EvaluatorHint::Naive, Naive),
            (EvaluatorHint::BlockTree, BlockTree),
            (EvaluatorHint::Compiled, Compiled),
        ];
        for (kind, default) in auto {
            assert_eq!(
                choose(EvaluatorHint::Auto, kind),
                plan(default, PlanReason::KindDefault),
                "{kind:?}"
            );
            for (hint, pinned) in pins {
                let expected = if kind == Keyword {
                    plan(Naive, PlanReason::KindDefault)
                } else {
                    plan(pinned, PlanReason::Pinned)
                };
                assert_eq!(choose(hint, kind), expected, "{hint:?} x {kind:?}");
            }
        }
    }

    #[test]
    fn wire_names_are_kebab_case() {
        assert_eq!(Evaluator::BlockTree.wire_name(), "block-tree");
        assert_eq!(Evaluator::Compiled.wire_name(), "compiled");
        assert_eq!(PlanReason::Pinned.to_string(), "pinned");
        assert_eq!(PlanReason::KindDefault.to_string(), "kind-default");
    }
}
