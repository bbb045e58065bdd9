//! The compiled program representation: a flat instruction stream over
//! register slots, plus the constants the compiler inlined.

use crate::aggregate::AggFunc;
use std::fmt;
use std::ops::Range;
use uxm_twig::{PatternNodeId, TwigPattern};
use uxm_xml::{SchemaNodeId, Symbol};

/// What a program's rewrite sets contain — the execution-time analogue
/// of the engine's two evaluation granularities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetMode {
    /// Label granularity: rewrite sets hold source-label symbols, bound
    /// to the document's label ids at match time (`Query::Ptq`,
    /// `Query::TopK`).
    Symbols,
    /// Node granularity: rewrite sets hold source schema nodes, bound to
    /// document nodes through the path index (`Query::PtqNodes`).
    SchemaNodes,
}

impl SetMode {
    /// The listing name.
    pub fn name(self) -> &'static str {
        match self {
            SetMode::Symbols => "symbols",
            SetMode::SchemaNodes => "schema-nodes",
        }
    }
}

/// The answer-emission order a [`Op::FoldProb`] op commits to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldMode {
    /// One answer per surviving mapping, ascending mapping id (the order
    /// of Algorithm 3 over the relevant set).
    PerMapping,
    /// Answers in the id register's top-k order: probability descending,
    /// ties by ascending id (the order of the engine's top-k pruning).
    TopOrder,
}

impl FoldMode {
    /// The listing name.
    pub fn name(self) -> &'static str {
        match self {
            FoldMode::PerMapping => "per-mapping",
            FoldMode::TopOrder => "top-order",
        }
    }
}

/// One instruction of a compiled [`Program`].
///
/// Ops read and write the VM's registers (the mapping bitset, the id
/// list, and the shape classes — see `docs/execution.md`); every operand
/// was resolved at compile time, so the interpreter loop never consults
/// the symbol table or the schemas.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `bits ← all mappings` — start from the full mapping set.
    InitBits,
    /// `bits &= relevance[sym]` — AND one query label's precomputed
    /// relevance bitset column. The node is kept for listings only.
    AndRelevance {
        /// The interned label symbol whose bitset column is ANDed.
        sym: Symbol,
        /// The first query node carrying the label; the listing prints
        /// its label.
        node: u32,
    },
    /// `bits ← ∅` — a query label unknown to schemas and document; every
    /// answer is provably empty.
    ClearBits {
        /// The first query node carrying the unknown label; the listing
        /// prints its label.
        node: u32,
    },
    /// `ids ← bits` — materialize the surviving mapping ids, ascending.
    MaterializeIds,
    /// `ids ← top-k(ids)` — keep the `k` most probable ids (probability
    /// descending, ties by ascending id), read off the probability
    /// column.
    TopKHeap {
        /// How many mappings survive.
        k: usize,
    },
    /// For query node `node`: refine the shape classes by the session's
    /// correspondence index. Each candidate target of the compiled range
    /// (a slice of the program's target arena) contributes its distinct
    /// `(target, source)` entries; entries are merged per key (source
    /// symbol or source schema node per [`SetMode`]), and every class
    /// splits by each key's mapping bitset, so each part's row is its
    /// sorted key set. A part whose set comes up empty is killed: its
    /// mappings can never produce an answer (Algorithm 3 drops them at
    /// rewrite time). At node 0 the classes start as one: the live
    /// mappings of the id register.
    IntersectCsr {
        /// The query-node index this op rewrites.
        node: u32,
        /// The target-candidate slice of the program's target arena.
        targets: Range<u32>,
    },
    /// For wildcard query node `node`: give every shape class one
    /// **empty** row. A wildcard imposes no label constraint, so
    /// its rewrite set is empty-but-satisfiable — the matcher treats the
    /// empty set as "any document node" — and no mapping is killed.
    WildcardSet {
        /// The query-node index this op covers.
        node: u32,
    },
    /// Map each live mapping to its shape class. The classes are exactly
    /// the groups of identical rewrite rows: each is matched once and
    /// shared.
    GroupShapes,
    /// Run the twig matcher once per shape class (label sets via the
    /// document's label column, node sets via the path index), keeping
    /// each class's match set as one shared allocation.
    MatchShapes {
        /// What the shape rows contain.
        mode: SetMode,
    },
    /// Zip each live mapping's probability (from the probability column)
    /// with its shape class's match set into one raw answer per mapping.
    /// The answer references the class's shared set (an `Arc` clone); no
    /// match is copied.
    FoldProb {
        /// The emission order this program commits to.
        mode: FoldMode,
    },
    /// Fold each shape class's match set into one aggregate value (the
    /// shared `crate::aggregate::row_value` semantics over the pattern's
    /// spine leaf), once per class, and fan it out to one row per live
    /// mapping, in answer order.
    AggFold {
        /// The aggregate function folded per mapping.
        func: AggFunc,
    },
    /// Finish: package the folded answers as the program result.
    EmitAnswers,
}

impl Op {
    /// Writes this op's listing line; `pattern` supplies the query labels
    /// the relevance ops name.
    fn write(&self, f: &mut impl fmt::Write, pattern: &TwigPattern) -> fmt::Result {
        let label = |node: u32| &pattern.node(PatternNodeId(node)).label;
        match self {
            Op::InitBits => write!(f, "init-bits"),
            Op::AndRelevance { sym, node } => {
                write!(f, "and-relevance {} (sym {})", label(*node), sym.0)
            }
            Op::ClearBits { node } => write!(f, "clear-bits {} (unknown label)", label(*node)),
            Op::MaterializeIds => write!(f, "materialize-ids"),
            Op::TopKHeap { k } => write!(f, "topk-heap k={k}"),
            Op::IntersectCsr { node, targets } => write!(
                f,
                "intersect-csr node={node} targets[{}..{}]",
                targets.start, targets.end
            ),
            Op::WildcardSet { node } => {
                write!(f, "wildcard-set node={node} (unconstrained)")
            }
            Op::GroupShapes => write!(f, "group-shapes"),
            Op::MatchShapes { mode } => write!(f, "match-shapes {}", mode.name()),
            Op::FoldProb { mode } => write!(f, "fold-prob {}", mode.name()),
            Op::AggFold { func } => write!(f, "agg-fold {func}"),
            Op::EmitAnswers => write!(f, "emit-answers"),
        }
    }
}

/// A compiled query: a flat `Vec<Op>` plus the inlined constants it runs
/// over. A program borrows the pattern of the query it was compiled for
/// and lives as long as that one evaluation (or `explain` call);
/// `Display` renders the numbered listing `uxm explain` prints.
#[derive(Clone, Debug)]
pub struct Program<'q> {
    /// The twig pattern the program answers (structure and predicates
    /// are interpreted by the shared matcher at `MatchShapes`).
    pub(crate) pattern: &'q TwigPattern,
    /// Rewrite-set granularity.
    pub(crate) mode: SetMode,
    /// The instruction stream, executed front to back exactly once.
    pub(crate) ops: Vec<Op>,
    /// Flat arena of per-query-node target-schema candidates;
    /// [`Op::IntersectCsr`] ops slice it by range.
    pub(crate) targets: Vec<SchemaNodeId>,
    /// Number of query nodes (rows per shape class).
    pub(crate) n_nodes: usize,
    /// Mapping-set width the bitset register is sized to.
    pub(crate) n_mappings: usize,
}

impl Program<'_> {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for a program with no instructions (never produced by the
    /// compiler; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The instruction stream, for inspection.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The listing as one line per op (what [`Program`]'s `Display`
    /// joins with newlines) — the JSON form of `explain` emits this as
    /// an array.
    pub fn listing(&self) -> Vec<String> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let mut line = format!("{i:>3}  ");
                op.write(&mut line, self.pattern)
                    .expect("writing to a String cannot fail");
                line
            })
            .collect()
    }
}

impl fmt::Display for Program<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program for `{}` ({}, {} ops, {} target candidates, |M|={})",
            self.pattern,
            self.mode.name(),
            self.ops.len(),
            self.targets.len(),
            self.n_mappings
        )?;
        for line in self.listing() {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}
