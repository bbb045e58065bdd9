//! The unified query API: one typed request/response surface from the
//! CLI down to the engine. It consists of:
//!
//! * a typed [`Query`] AST ([`Query::Ptq`], [`Query::PtqNodes`],
//!   [`Query::TopK`], [`Query::Keyword`], [`Query::Aggregate`]), each
//!   carrying a [`TwigPattern`] (or keyword terms) plus shared
//!   [`QueryOptions`] — probability threshold, answer granularity, and
//!   an [`EvaluatorHint`] for the [`crate::planner`]. Patterns may use
//!   descendant axes (`//`), wildcards (`*`), and value predicates
//!   (`[.='v']`, `[contains(.,'v')]`, `[.>=10]`, `[@attr='v']` — see
//!   `docs/query-language.md`);
//! * a uniform [`QueryResponse`]: [`Answer`]s with per-answer
//!   provenance (contributing [`MappingId`]s and the summed
//!   probability) plus an [`ExecStats`] block (plan chosen, relevant
//!   mappings, elapsed time);
//! * a canonical JSON wire format (see [`crate::json`]) — the same
//!   bytes whether they come from `uxm query --json`, a `uxm batch`
//!   file, or a registry batch. Serialization is *byte-stable*:
//!   `to_json_string` of a parsed query reproduces the input exactly
//!   (object keys are emitted alphabetically, patterns in the twig
//!   grammar's canonical rendering).
//!
//! # Examples
//!
//! The one entry point is
//! [`QueryEngine::run`](crate::engine::QueryEngine::run):
//!
//! ```
//! use uxm_core::api::{EvaluatorHint, Query};
//! use uxm_core::engine::QueryEngine;
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
//! let engine = QueryEngine::build(pm, doc);
//!
//! let query = Query::ptq(TwigPattern::parse("PO//ContactName").unwrap());
//! let response = engine.run(&query).unwrap();
//! for answer in &response.answers {
//!     assert!(answer.probability > 0.0);
//!     assert!(!answer.mappings.is_empty(), "provenance is always present");
//! }
//! // The plan the engine chose is part of the response...
//! let auto_plan = response.stats.plan.evaluator;
//! // ...and pinning either evaluator returns identical answers.
//! let pinned = engine
//!     .run(&query.clone().with_evaluator(EvaluatorHint::Naive))
//!     .unwrap();
//! assert_eq!(response.answers, pinned.answers);
//! # let _ = auto_plan;
//! ```

use crate::aggregate::{AggFunc, AggregateResult};
use crate::error::UxmError;
use crate::json::{Json, Writer};
use crate::keyword::{KeywordAnswer, KeywordError};
use crate::mapping::MappingId;
use crate::planner::{Evaluator, Plan};
use crate::ptq::PtqAnswer;
use std::fmt;
use std::sync::Arc;
use uxm_twig::{TwigMatch, TwigPattern};
use uxm_xml::DocNodeId;

// ---------------------------------------------------------------------
// options

/// How answers are grouped in a [`QueryResponse`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Granularity {
    /// One answer per relevant mapping, in the evaluator's order (the
    /// paper's by-table shape; top-k orders by probability descending).
    #[default]
    Mapping,
    /// Identical match sets merged into one answer whose probability is
    /// the summed mass and whose provenance lists every contributing
    /// mapping — the "distinct answers" view of the paper's introduction
    /// example. Ordered by probability descending.
    Distinct,
}

impl Granularity {
    /// The kebab-case wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            Granularity::Mapping => "mapping",
            Granularity::Distinct => "distinct",
        }
    }
}

/// The caller's say over the [`crate::planner`]: pin an evaluator, or
/// take the query kind's default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvaluatorHint {
    /// Run the query kind's default evaluator
    /// ([`crate::planner::default_for`]).
    #[default]
    Auto,
    /// Pin Algorithm 3 (per-mapping evaluation).
    Naive,
    /// Pin Algorithm 4 (block-tree evaluation).
    BlockTree,
    /// Pin the [`crate::exec`] compiled-program backend.
    Compiled,
}

impl EvaluatorHint {
    /// The kebab-case wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            EvaluatorHint::Auto => "auto",
            EvaluatorHint::Naive => "naive",
            EvaluatorHint::BlockTree => "block-tree",
            EvaluatorHint::Compiled => "compiled",
        }
    }
}

/// Options shared by every [`Query`] kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryOptions {
    /// Answers with probability strictly below this are dropped from the
    /// response (applied after any [`Granularity::Distinct`]
    /// aggregation). Must be finite and within `[0, 1]`; default `0`.
    pub min_probability: f64,
    /// Answer grouping; default [`Granularity::Mapping`].
    pub granularity: Granularity,
    /// Evaluator choice; default [`EvaluatorHint::Auto`].
    pub evaluator: EvaluatorHint,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        QueryOptions {
            min_probability: 0.0,
            granularity: Granularity::Mapping,
            evaluator: EvaluatorHint::Auto,
        }
    }
}

impl QueryOptions {
    fn validate(&self) -> Result<(), UxmError> {
        if !self.min_probability.is_finite() || !(0.0..=1.0).contains(&self.min_probability) {
            return Err(UxmError::InvalidQuery(format!(
                "min_probability must be within [0, 1], got {}",
                self.min_probability
            )));
        }
        Ok(())
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("evaluator".into(), Json::str(self.evaluator.wire_name())),
            (
                "granularity".into(),
                Json::str(self.granularity.wire_name()),
            ),
            ("min_probability".into(), Json::Num(self.min_probability)),
        ])
    }

    fn from_json(v: &Json) -> Result<QueryOptions, UxmError> {
        let members = v
            .as_obj()
            .ok_or_else(|| UxmError::Json("options must be an object".into()))?;
        let mut options = QueryOptions::default();
        for (key, val) in members {
            match key.as_str() {
                "evaluator" => {
                    options.evaluator = match val.as_str() {
                        Some("auto") => EvaluatorHint::Auto,
                        Some("naive") => EvaluatorHint::Naive,
                        Some("block-tree") => EvaluatorHint::BlockTree,
                        Some("compiled") => EvaluatorHint::Compiled,
                        _ => {
                            return Err(UxmError::Json(format!(
                                "evaluator must be auto | naive | block-tree | compiled, got {val}"
                            )))
                        }
                    }
                }
                "granularity" => {
                    options.granularity = match val.as_str() {
                        Some("mapping") => Granularity::Mapping,
                        Some("distinct") => Granularity::Distinct,
                        _ => {
                            return Err(UxmError::Json(format!(
                                "granularity must be mapping | distinct, got {val}"
                            )))
                        }
                    }
                }
                "min_probability" => {
                    options.min_probability = val
                        .as_f64()
                        .ok_or_else(|| UxmError::Json("min_probability must be a number".into()))?
                }
                other => {
                    return Err(UxmError::Json(format!("unknown options key {other:?}")));
                }
            }
        }
        Ok(options)
    }
}

// ---------------------------------------------------------------------
// the query AST

/// A typed query — the single request shape every layer speaks.
///
/// Construct with [`Query::ptq`] / [`Query::ptq_nodes`] /
/// [`Query::topk`] / [`Query::keyword`] and refine with the builder
/// methods; evaluate with
/// [`QueryEngine::run`](crate::engine::QueryEngine::run).
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// A probabilistic twig query at label granularity (the paper's
    /// PTQ, Definition 4).
    Ptq {
        /// The twig pattern, in the target schema's vocabulary.
        pattern: TwigPattern,
        /// Shared options.
        options: QueryOptions,
    },
    /// A PTQ at node granularity: mappings pin query nodes to specific
    /// source *schema nodes* (exact when labels repeat — see
    /// [`crate::path_ptq`]).
    PtqNodes {
        /// The twig pattern.
        pattern: TwigPattern,
        /// Shared options.
        options: QueryOptions,
    },
    /// A top-k PTQ (Definition 5): only the `k` most-probable relevant
    /// mappings are evaluated.
    TopK {
        /// The twig pattern.
        pattern: TwigPattern,
        /// How many answers to keep.
        k: usize,
        /// Shared options.
        options: QueryOptions,
    },
    /// A keyword query (SLCA semantics) over every possible mapping.
    Keyword {
        /// The keyword terms (vocabulary terms rewrite per mapping;
        /// value terms match document text directly).
        terms: Vec<String>,
        /// Shared options (the evaluator hint is ignored — keyword
        /// evaluation has a single strategy).
        options: QueryOptions,
    },
    /// An aggregate over a PTQ's matches: COUNT / SUM / MIN / MAX of
    /// the pattern's spine-leaf values, reported per mapping and as a
    /// probability-weighted marginal (see [`crate::aggregate`]).
    Aggregate {
        /// The twig pattern, evaluated exactly like [`Query::Ptq`].
        pattern: TwigPattern,
        /// The function folded over each mapping's matches.
        func: AggFunc,
        /// Shared options (the granularity must stay
        /// [`Granularity::Mapping`] — rows are inherently per mapping).
        options: QueryOptions,
    },
}

/// The shape of a [`Query`] without its payload — what the
/// [`crate::planner`]'s plan table is keyed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// [`Query::Ptq`].
    Ptq,
    /// [`Query::PtqNodes`].
    PtqNodes,
    /// [`Query::TopK`].
    TopK,
    /// [`Query::Keyword`].
    Keyword,
    /// [`Query::Aggregate`].
    Aggregate,
}

impl Query {
    /// A label-granularity PTQ with default options (auto plan).
    pub fn ptq(pattern: TwigPattern) -> Query {
        Query::Ptq {
            pattern,
            options: QueryOptions::default(),
        }
    }

    /// A node-granularity PTQ with default options.
    pub fn ptq_nodes(pattern: TwigPattern) -> Query {
        Query::PtqNodes {
            pattern,
            options: QueryOptions::default(),
        }
    }

    /// A top-k PTQ with default options.
    pub fn topk(pattern: TwigPattern, k: usize) -> Query {
        Query::TopK {
            pattern,
            k,
            options: QueryOptions::default(),
        }
    }

    /// A keyword query with default options.
    pub fn keyword(terms: Vec<String>) -> Query {
        Query::Keyword {
            terms,
            options: QueryOptions::default(),
        }
    }

    /// An aggregate query with default options.
    pub fn aggregate(pattern: TwigPattern, func: AggFunc) -> Query {
        Query::Aggregate {
            pattern,
            func,
            options: QueryOptions::default(),
        }
    }

    /// The query's kind.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Ptq { .. } => QueryKind::Ptq,
            Query::PtqNodes { .. } => QueryKind::PtqNodes,
            Query::TopK { .. } => QueryKind::TopK,
            Query::Keyword { .. } => QueryKind::Keyword,
            Query::Aggregate { .. } => QueryKind::Aggregate,
        }
    }

    /// The query's shared options.
    pub fn options(&self) -> &QueryOptions {
        match self {
            Query::Ptq { options, .. }
            | Query::PtqNodes { options, .. }
            | Query::TopK { options, .. }
            | Query::Keyword { options, .. }
            | Query::Aggregate { options, .. } => options,
        }
    }

    /// Mutable access to the shared options.
    pub fn options_mut(&mut self) -> &mut QueryOptions {
        match self {
            Query::Ptq { options, .. }
            | Query::PtqNodes { options, .. }
            | Query::TopK { options, .. }
            | Query::Keyword { options, .. }
            | Query::Aggregate { options, .. } => options,
        }
    }

    /// The twig pattern, for PTQ-shaped queries.
    pub fn pattern(&self) -> Option<&TwigPattern> {
        match self {
            Query::Ptq { pattern, .. }
            | Query::PtqNodes { pattern, .. }
            | Query::TopK { pattern, .. }
            | Query::Aggregate { pattern, .. } => Some(pattern),
            Query::Keyword { .. } => None,
        }
    }

    /// Returns the query with the evaluator hint replaced.
    pub fn with_evaluator(mut self, evaluator: EvaluatorHint) -> Query {
        self.options_mut().evaluator = evaluator;
        self
    }

    /// Returns the query with the answer granularity replaced.
    pub fn with_granularity(mut self, granularity: Granularity) -> Query {
        self.options_mut().granularity = granularity;
        self
    }

    /// Returns the query with the probability threshold replaced.
    pub fn with_min_probability(mut self, min_probability: f64) -> Query {
        self.options_mut().min_probability = min_probability;
        self
    }

    /// Checks the query is evaluable: options in range, keyword lists
    /// within the evaluator's limits.
    pub fn validate(&self) -> Result<(), UxmError> {
        self.options().validate()?;
        if let Query::Keyword { terms, .. } = self {
            let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
            KeywordError::check(&refs)?;
        }
        if let Query::Aggregate { options, .. } = self {
            if options.granularity == Granularity::Distinct {
                return Err(UxmError::InvalidQuery(
                    "aggregate queries report per-mapping rows; \
                     granularity \"distinct\" does not apply"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    /// The canonical JSON form (see the module docs for the format).
    pub fn to_json(&self) -> Json {
        match self {
            Query::Ptq { pattern, options } => Json::Obj(vec![
                ("options".into(), options.to_json()),
                ("pattern".into(), Json::str(pattern.to_string())),
                ("type".into(), Json::str("ptq")),
            ]),
            Query::PtqNodes { pattern, options } => Json::Obj(vec![
                ("options".into(), options.to_json()),
                ("pattern".into(), Json::str(pattern.to_string())),
                ("type".into(), Json::str("ptq-nodes")),
            ]),
            Query::TopK {
                pattern,
                k,
                options,
            } => Json::Obj(vec![
                ("k".into(), Json::uint(*k as u64)),
                ("options".into(), options.to_json()),
                ("pattern".into(), Json::str(pattern.to_string())),
                ("type".into(), Json::str("topk")),
            ]),
            Query::Keyword { terms, options } => Json::Obj(vec![
                ("options".into(), options.to_json()),
                (
                    "terms".into(),
                    Json::Arr(terms.iter().map(Json::str).collect()),
                ),
                ("type".into(), Json::str("keyword")),
            ]),
            Query::Aggregate {
                pattern,
                func,
                options,
            } => Json::Obj(vec![
                ("func".into(), Json::str(func.wire_name())),
                ("options".into(), options.to_json()),
                ("pattern".into(), Json::str(pattern.to_string())),
                ("type".into(), Json::str("aggregate")),
            ]),
        }
    }

    /// [`Query::to_json`] rendered canonically.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a query from its JSON form. Strict: unknown keys are
    /// rejected, so a round trip through [`Query::to_json_string`] is
    /// lossless and byte-stable.
    pub fn from_json(v: &Json) -> Result<Query, UxmError> {
        let members = v
            .as_obj()
            .ok_or_else(|| UxmError::Json("query must be an object".into()))?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| UxmError::Json("query needs a \"type\" string".into()))?;
        let mut options = QueryOptions::default();
        let mut pattern: Option<TwigPattern> = None;
        let mut k: Option<usize> = None;
        let mut terms: Option<Vec<String>> = None;
        let mut func: Option<AggFunc> = None;
        for (key, val) in members {
            match key.as_str() {
                "type" => {}
                "options" => options = QueryOptions::from_json(val)?,
                "func" => {
                    func = Some(val.as_str().and_then(AggFunc::from_wire).ok_or_else(|| {
                        UxmError::Json(format!("func must be count | sum | min | max, got {val}"))
                    })?)
                }
                "pattern" => {
                    let text = val
                        .as_str()
                        .ok_or_else(|| UxmError::Json("pattern must be a string".into()))?;
                    pattern = Some(TwigPattern::parse(text)?);
                }
                "k" => {
                    k = Some(
                        val.as_usize()
                            .ok_or_else(|| UxmError::Json("k must be a whole number".into()))?,
                    )
                }
                "terms" => {
                    let items = val
                        .as_arr()
                        .ok_or_else(|| UxmError::Json("terms must be an array".into()))?;
                    terms = Some(
                        items
                            .iter()
                            .map(|t| {
                                t.as_str()
                                    .map(str::to_string)
                                    .ok_or_else(|| UxmError::Json("terms must be strings".into()))
                            })
                            .collect::<Result<_, _>>()?,
                    );
                }
                other => return Err(UxmError::Json(format!("unknown query key {other:?}"))),
            }
        }
        let need_pattern = |p: Option<TwigPattern>| {
            p.ok_or_else(|| UxmError::Json(format!("{kind} query needs a \"pattern\"")))
        };
        let reject = |present: bool, name: &str| -> Result<(), UxmError> {
            if present {
                Err(UxmError::Json(format!(
                    "{kind} query does not take {name:?}"
                )))
            } else {
                Ok(())
            }
        };
        let query = match kind {
            "ptq" => {
                reject(k.is_some(), "k")?;
                reject(terms.is_some(), "terms")?;
                reject(func.is_some(), "func")?;
                Query::Ptq {
                    pattern: need_pattern(pattern)?,
                    options,
                }
            }
            "ptq-nodes" => {
                reject(k.is_some(), "k")?;
                reject(terms.is_some(), "terms")?;
                reject(func.is_some(), "func")?;
                Query::PtqNodes {
                    pattern: need_pattern(pattern)?,
                    options,
                }
            }
            "topk" => {
                reject(terms.is_some(), "terms")?;
                reject(func.is_some(), "func")?;
                Query::TopK {
                    pattern: need_pattern(pattern)?,
                    k: k.ok_or_else(|| UxmError::Json("topk query needs \"k\"".into()))?,
                    options,
                }
            }
            "keyword" => {
                reject(k.is_some(), "k")?;
                reject(pattern.is_some(), "pattern")?;
                reject(func.is_some(), "func")?;
                Query::Keyword {
                    terms: terms
                        .ok_or_else(|| UxmError::Json("keyword query needs \"terms\"".into()))?,
                    options,
                }
            }
            "aggregate" => {
                reject(k.is_some(), "k")?;
                reject(terms.is_some(), "terms")?;
                Query::Aggregate {
                    pattern: need_pattern(pattern)?,
                    func: func
                        .ok_or_else(|| UxmError::Json("aggregate query needs \"func\"".into()))?,
                    options,
                }
            }
            other => {
                return Err(UxmError::Json(format!(
                    "unknown query type {other:?} \
                     (ptq | ptq-nodes | topk | keyword | aggregate)"
                )))
            }
        };
        Ok(query)
    }

    /// Parses a query from JSON text.
    pub fn from_json_str(text: &str) -> Result<Query, UxmError> {
        Query::from_json(&Json::parse(text)?)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Ptq { pattern, .. } => write!(f, "ptq {pattern}"),
            Query::PtqNodes { pattern, .. } => write!(f, "ptq-nodes {pattern}"),
            Query::TopK { pattern, k, .. } => write!(f, "topk {k} {pattern}"),
            Query::Keyword { terms, .. } => write!(f, "keyword {}", terms.join(" ")),
            Query::Aggregate { pattern, func, .. } => {
                write!(f, "aggregate {func} {pattern}")
            }
        }
    }
}

// ---------------------------------------------------------------------
// the response

/// One answer of a [`QueryResponse`], with provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// The probability this answer is correct: one mapping's mass under
    /// [`Granularity::Mapping`], the contributing mappings' summed mass
    /// under [`Granularity::Distinct`].
    pub probability: f64,
    /// The contributing mappings, ascending (always non-empty; a
    /// singleton under [`Granularity::Mapping`]).
    pub mappings: Vec<MappingId>,
    /// The matches of the rewritten query on the document. Keyword
    /// answers encode each SLCA node as a single-node match. Answers
    /// with one match set share one allocation where the evaluator
    /// found it once.
    pub matches: Arc<[TwigMatch]>,
}

/// How a query was executed — returned with every response.
///
/// Every field is exact per-query accounting, also on an engine serving
/// concurrent queries.
#[derive(Clone, Copy, Debug)]
pub struct ExecStats {
    /// The plan the [`crate::planner`] chose (and why).
    pub plan: Plan,
    /// The backend that ran: always `plan.evaluator`, because every
    /// plan runs as chosen (a keyword query's plan is always naive, its
    /// only evaluator, and no plan falls back to another backend). It
    /// is the wire's `"backend"` member.
    pub backend: Evaluator,
    /// `|M_q|` — mappings the evaluator actually ran (after filtering,
    /// and for top-k after pruning).
    pub relevant: usize,
    /// Always `0`, and not on the wire: the engine keeps no program
    /// cache (every compiled run compiles its program). Kept only
    /// because the `uxmbench` benchmark still reads it.
    pub program_cache_hits: u64,
    /// Always `0`, and not on the wire, like the field above.
    pub program_cache_misses: u64,
    /// Wall-clock evaluation time, in microseconds.
    pub elapsed_us: u64,
}

impl ExecStats {
    /// The stats of a query that ran `plan`: the backend is the plan's
    /// evaluator, because every plan runs as chosen.
    pub fn new(plan: Plan, relevant: usize, elapsed_us: u64) -> ExecStats {
        ExecStats {
            plan,
            backend: plan.evaluator,
            relevant,
            program_cache_hits: 0,
            program_cache_misses: 0,
            elapsed_us,
        }
    }
}

/// The uniform response every query kind returns.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The answers, grouped per the query's [`Granularity`]. Empty for
    /// aggregate queries, whose result lives in `aggregate`.
    pub answers: Vec<Answer>,
    /// The aggregate block; `Some` exactly for [`Query::Aggregate`]
    /// (and only then present on the wire).
    pub aggregate: Option<AggregateResult>,
    /// Execution statistics.
    pub stats: ExecStats,
}

impl QueryResponse {
    /// Number of answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True when no answer survived filtering.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// Total probability mass of the answers.
    pub fn total_probability(&self) -> f64 {
        self.answers.iter().map(|a| a.probability).sum()
    }

    /// The expected number of matches under the answer distribution,
    /// normalized over the answers' mass (cf.
    /// [`crate::semantics::expected_count`]).
    pub fn expected_count(&self) -> f64 {
        let mass = self.total_probability();
        if mass == 0.0 {
            return 0.0;
        }
        self.answers
            .iter()
            .map(|a| a.matches.len() as f64 * a.probability)
            .sum::<f64>()
            / mass
    }

    /// Per-match probabilities: for every distinct match, the summed
    /// probability of the answers producing it; sorted by probability
    /// descending, ties by match (cf.
    /// [`crate::semantics::match_probabilities`]).
    pub fn match_probabilities(&self) -> Vec<(TwigMatch, f64)> {
        let mut agg: Vec<(TwigMatch, f64)> = Vec::new();
        for answer in &self.answers {
            for m in answer.matches.iter() {
                match agg.iter_mut().find(|(x, _)| x == m) {
                    Some((_, p)) => *p += answer.probability,
                    None => agg.push((m.clone(), answer.probability)),
                }
            }
        }
        agg.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        agg
    }

    /// The canonical JSON form.
    pub fn to_json(&self) -> Json {
        let answers = self
            .answers
            .iter()
            .map(|a| {
                Json::Obj(vec![
                    (
                        "mappings".into(),
                        Json::Arr(a.mappings.iter().map(|m| Json::uint(m.0 as u64)).collect()),
                    ),
                    (
                        "matches".into(),
                        Json::Arr(
                            a.matches
                                .iter()
                                .map(|m| {
                                    Json::Arr(
                                        m.nodes.iter().map(|n| Json::uint(n.0 as u64)).collect(),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                    ("probability".into(), Json::Num(a.probability)),
                ])
            })
            .collect();
        let stats = Json::Obj(vec![
            ("backend".into(), Json::str(self.stats.backend.wire_name())),
            ("elapsed_us".into(), Json::uint(self.stats.elapsed_us)),
            (
                "evaluator".into(),
                Json::str(self.stats.plan.evaluator.wire_name()),
            ),
            (
                "plan_reason".into(),
                Json::str(self.stats.plan.reason.wire_name()),
            ),
            ("relevant".into(), Json::uint(self.stats.relevant as u64)),
        ]);
        let mut members = Vec::with_capacity(3);
        if let Some(aggregate) = &self.aggregate {
            members.push(("aggregate".into(), aggregate.to_json()));
        }
        members.push(("answers".into(), Json::Arr(answers)));
        members.push(("stats".into(), stats));
        Json::Obj(members)
    }

    /// The canonical JSON text: the bytes of [`QueryResponse::to_json`],
    /// rendered by [`QueryResponse::write_json`] without building the
    /// tree.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(self.json_size_hint());
        self.write_json(&mut Writer::new(&mut out));
        out
    }

    /// Streams the canonical form into `w`: the same bytes as
    /// [`QueryResponse::to_json`], with no tree in between.
    pub fn write_json(&self, w: &mut Writer<'_>) {
        self.write_json_with(w, None);
    }

    /// [`QueryResponse::write_json`] with an optional `explain` member,
    /// as `POST /query` serves it. `explain` goes second, right after
    /// the first member (`answers`, or `aggregate` when present).
    pub(crate) fn write_json_with(&self, w: &mut Writer<'_>, explain: Option<&Json>) {
        let write_explain = |w: &mut Writer<'_>| {
            if let Some(explain) = explain {
                w.key("explain");
                w.value(explain);
            }
        };
        w.begin_obj();
        if let Some(aggregate) = &self.aggregate {
            w.key("aggregate");
            aggregate.write_json(w);
            write_explain(w);
        }
        w.key("answers");
        w.begin_arr();
        for a in &self.answers {
            w.begin_obj();
            write_provenance(w, &a.mappings, &a.matches);
            w.key("probability");
            w.num(a.probability);
            w.end_obj();
        }
        w.end_arr();
        if self.aggregate.is_none() {
            write_explain(w);
        }
        let stats = &self.stats;
        w.key("stats");
        w.begin_obj();
        w.key("backend");
        w.str(stats.backend.wire_name());
        w.key("elapsed_us");
        w.uint(stats.elapsed_us);
        w.key("evaluator");
        w.str(stats.plan.evaluator.wire_name());
        w.key("plan_reason");
        w.str(stats.plan.reason.wire_name());
        w.key("relevant");
        w.uint(stats.relevant as u64);
        w.end_obj();
        w.end_obj();
    }

    /// A rough byte count of the canonical form, to size its buffer once.
    pub(crate) fn json_size_hint(&self) -> usize {
        let answers: usize = self
            .answers
            .iter()
            .map(|a| {
                64 + 6 * a.mappings.len()
                    + a.matches
                        .iter()
                        .map(|m| 2 + 7 * m.nodes.len())
                        .sum::<usize>()
            })
            .sum();
        let rows = self.aggregate.as_ref().map_or(0, |a| 64 * a.rows.len());
        256 + answers + rows
    }
}

/// Writes the `"mappings"` and `"matches"` members of an answer: the
/// contributing mapping ids, then each match as its node ids. A match
/// set shared with earlier answers of the body is rendered once and
/// copied ([`Writer::match_set`]).
pub(crate) fn write_provenance(
    w: &mut Writer<'_>,
    mappings: &[MappingId],
    matches: &Arc<[TwigMatch]>,
) {
    w.key("mappings");
    w.uints(mappings.iter().map(|m| u64::from(m.0)));
    w.key("matches");
    w.match_set(matches);
}

// ---------------------------------------------------------------------
// shaping evaluator output into answers

/// Applies granularity and the probability threshold to raw per-mapping
/// PTQ answers. Used by the engine; the per-mapping input order is
/// preserved under [`Granularity::Mapping`].
pub(crate) fn shape_ptq_answers(raw: Vec<PtqAnswer>, options: &QueryOptions) -> Vec<Answer> {
    let per_mapping = raw.into_iter().map(|a| Answer {
        probability: a.probability,
        mappings: vec![a.mapping],
        matches: a.matches,
    });
    shape(per_mapping.collect(), options)
}

/// Keyword counterpart of [`shape_ptq_answers`]: each SLCA node becomes
/// a single-node match.
pub(crate) fn shape_keyword_answers(
    raw: Vec<KeywordAnswer>,
    options: &QueryOptions,
) -> Vec<Answer> {
    let per_mapping = raw.into_iter().map(|a| Answer {
        probability: a.probability,
        mappings: vec![a.mapping],
        matches: a
            .slcas
            .into_iter()
            .map(|n: DocNodeId| TwigMatch { nodes: vec![n] })
            .collect(),
    });
    shape(per_mapping.collect(), options)
}

fn shape(per_mapping: Vec<Answer>, options: &QueryOptions) -> Vec<Answer> {
    let mut answers = match options.granularity {
        Granularity::Mapping => per_mapping,
        Granularity::Distinct => {
            let mut groups: Vec<Answer> = Vec::new();
            for a in per_mapping {
                // Answers of one shape group share an allocation; two
                // groups may still find equal sets (empty ones, say).
                let same =
                    |g: &&mut Answer| Arc::ptr_eq(&g.matches, &a.matches) || g.matches == a.matches;
                match groups.iter_mut().find(same) {
                    Some(g) => {
                        g.probability += a.probability;
                        g.mappings.extend(a.mappings);
                    }
                    None => groups.push(a),
                }
            }
            for g in &mut groups {
                g.mappings.sort_unstable();
            }
            // Probability descending; ties by first contributing mapping
            // for a deterministic order.
            groups.sort_by(|a, b| {
                b.probability
                    .total_cmp(&a.probability)
                    .then_with(|| a.mappings.cmp(&b.mappings))
            });
            groups
        }
    };
    if options.min_probability > 0.0 {
        answers.retain(|a| a.probability >= options.min_probability);
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Evaluator, PlanReason};

    fn q(s: &str) -> TwigPattern {
        TwigPattern::parse(s).unwrap()
    }

    #[test]
    fn json_roundtrip_is_byte_stable_for_all_kinds() {
        let queries = [
            Query::ptq(q("PO//ICN")),
            Query::ptq_nodes(q("ORDER/IP[./ICN]/SCN")),
            Query::topk(q("//IP//ICN"), 5),
            Query::keyword(vec!["ICN".into(), "Bob".into()]),
            Query::ptq(q("A[.='v']//B"))
                .with_evaluator(EvaluatorHint::Naive)
                .with_granularity(Granularity::Distinct)
                .with_min_probability(0.25),
            Query::ptq(q("A[contains(.,'v')]/*[.>=1.5]//B[@id='x']")),
            Query::aggregate(q("PO/Line/UnitPrice"), AggFunc::Sum),
            Query::aggregate(q("//Line[.<10]"), AggFunc::Count)
                .with_evaluator(EvaluatorHint::Compiled)
                .with_min_probability(0.1),
        ];
        for query in queries {
            let once = query.to_json_string();
            let parsed = Query::from_json_str(&once).unwrap();
            assert_eq!(parsed, query, "{once}");
            assert_eq!(parsed.to_json_string(), once, "byte-stable");
        }
    }

    #[test]
    fn parsing_defaults_missing_options() {
        let parsed = Query::from_json_str("{\"pattern\":\"//A\",\"type\":\"ptq\"}").unwrap();
        assert_eq!(parsed, Query::ptq(q("//A")));
        let partial = Query::from_json_str(
            "{\"options\":{\"granularity\":\"distinct\"},\"pattern\":\"//A\",\"type\":\"ptq\"}",
        )
        .unwrap();
        assert_eq!(partial.options().granularity, Granularity::Distinct);
        assert_eq!(partial.options().evaluator, EvaluatorHint::Auto);
    }

    #[test]
    fn parsing_rejects_malformed_queries() {
        for bad in [
            "{\"type\":\"ptq\"}",                             // no pattern
            "{\"pattern\":\"//A\",\"type\":\"nope\"}",        // unknown type
            "{\"pattern\":\"//A\",\"type\":\"topk\"}",        // topk without k
            "{\"k\":2,\"pattern\":\"//A\",\"type\":\"ptq\"}", // stray k
            "{\"pattern\":\"//A\",\"type\":\"keyword\"}",     // keyword w/o terms
            "{\"pattern\":\"//A\",\"type\":\"ptq\",\"x\":1}", // unknown key
            "{\"pattern\":\"A[\",\"type\":\"ptq\"}",          // bad twig
            "{\"options\":{\"evaluator\":\"fast\"},\"pattern\":\"//A\",\"type\":\"ptq\"}",
            "[]",
            "{\"pattern\":\"//A\",\"type\":\"aggregate\"}", // aggregate w/o func
            "{\"func\":\"avg\",\"pattern\":\"//A\",\"type\":\"aggregate\"}",
            "{\"func\":\"sum\",\"pattern\":\"//A\",\"type\":\"ptq\"}", // stray func
        ] {
            assert!(Query::from_json_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn validate_checks_options_and_terms() {
        assert!(Query::ptq(q("//A")).validate().is_ok());
        assert!(matches!(
            Query::ptq(q("//A")).with_min_probability(-0.1).validate(),
            Err(UxmError::InvalidQuery(_))
        ));
        assert!(matches!(
            Query::ptq(q("//A"))
                .with_min_probability(f64::NAN)
                .validate(),
            Err(UxmError::InvalidQuery(_))
        ));
        assert_eq!(
            Query::keyword(vec![]).validate(),
            Err(UxmError::Keyword(KeywordError::Empty))
        );
        assert_eq!(
            Query::keyword(vec!["t".into(); 65]).validate(),
            Err(UxmError::Keyword(KeywordError::TooMany { count: 65 }))
        );
        assert!(Query::aggregate(q("//A"), AggFunc::Sum).validate().is_ok());
        assert!(matches!(
            Query::aggregate(q("//A"), AggFunc::Sum)
                .with_granularity(Granularity::Distinct)
                .validate(),
            Err(UxmError::InvalidQuery(_))
        ));
    }

    fn raw(entries: &[(u32, f64, &[u32])]) -> Vec<PtqAnswer> {
        entries
            .iter()
            .map(|&(id, p, nodes)| PtqAnswer {
                mapping: MappingId(id),
                probability: p,
                matches: nodes
                    .iter()
                    .map(|&n| TwigMatch {
                        nodes: vec![DocNodeId(n)],
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn mapping_granularity_preserves_order_and_provenance() {
        let answers = shape_ptq_answers(
            raw(&[(0, 0.3, &[4]), (2, 0.2, &[5])]),
            &QueryOptions::default(),
        );
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].mappings, vec![MappingId(0)]);
        assert_eq!(answers[1].mappings, vec![MappingId(2)]);
    }

    #[test]
    fn distinct_granularity_merges_identical_match_sets() {
        let options = QueryOptions {
            granularity: Granularity::Distinct,
            ..QueryOptions::default()
        };
        let answers = shape_ptq_answers(
            raw(&[(0, 0.3, &[4]), (1, 0.3, &[7]), (2, 0.2, &[4])]),
            &options,
        );
        assert_eq!(answers.len(), 2);
        // {4} collects mappings 0 and 2 with mass 0.5, ahead of {7}.
        assert!((answers[0].probability - 0.5).abs() < 1e-12);
        assert_eq!(answers[0].mappings, vec![MappingId(0), MappingId(2)]);
        assert_eq!(answers[1].mappings, vec![MappingId(1)]);
    }

    #[test]
    fn threshold_drops_low_mass_answers() {
        let options = QueryOptions {
            min_probability: 0.25,
            ..QueryOptions::default()
        };
        let answers = shape_ptq_answers(raw(&[(0, 0.3, &[4]), (1, 0.2, &[7])]), &options);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].mappings, vec![MappingId(0)]);
        // Under Distinct the threshold applies to the aggregated mass.
        let distinct = QueryOptions {
            min_probability: 0.25,
            granularity: Granularity::Distinct,
            ..QueryOptions::default()
        };
        let merged = shape_ptq_answers(raw(&[(0, 0.15, &[4]), (1, 0.15, &[4])]), &distinct);
        assert_eq!(merged.len(), 1, "0.15 + 0.15 clears the 0.25 threshold");
    }

    #[test]
    fn response_json_shape() {
        let response = QueryResponse {
            answers: vec![Answer {
                probability: 0.5,
                mappings: vec![MappingId(0), MappingId(3)],
                matches: vec![TwigMatch {
                    nodes: vec![DocNodeId(1), DocNodeId(4)],
                }]
                .into(),
            }],
            aggregate: None,
            stats: ExecStats::new(
                Plan {
                    evaluator: Evaluator::BlockTree,
                    reason: PlanReason::KindDefault,
                },
                7,
                123,
            ),
        };
        let text = response.to_json_string();
        assert_eq!(
            text,
            "{\"answers\":[{\"mappings\":[0,3],\"matches\":[[1,4]],\"probability\":0.5}],\
             \"stats\":{\"backend\":\"block-tree\",\"elapsed_us\":123,\
             \"evaluator\":\"block-tree\",\"plan_reason\":\"kind-default\",\
             \"relevant\":7}}"
        );
        // Emitted JSON is canonical: re-parsing and re-writing is stable.
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
        // An aggregate block, when present, leads the response object.
        let mut with_agg = response.clone();
        with_agg.answers = Vec::new();
        with_agg.aggregate = Some(AggregateResult::new(
            AggFunc::Count,
            vec![crate::aggregate::AggRow {
                mapping: MappingId(1),
                probability: 0.5,
                value: Some(2.0),
            }],
        ));
        let text = with_agg.to_json_string();
        assert_eq!(
            text,
            "{\"aggregate\":{\"func\":\"count\",\"marginal\":2,\
             \"rows\":[{\"mapping\":1,\"probability\":0.5,\"value\":2}]},\
             \"answers\":[],\
             \"stats\":{\"backend\":\"block-tree\",\"elapsed_us\":123,\
             \"evaluator\":\"block-tree\",\"plan_reason\":\"kind-default\",\
             \"relevant\":7}}"
        );
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn display_names_the_kind() {
        assert_eq!(Query::ptq(q("//A")).to_string(), "ptq //A");
        assert_eq!(Query::topk(q("//A"), 3).to_string(), "topk 3 //A");
        assert_eq!(
            Query::keyword(vec!["a".into(), "b".into()]).to_string(),
            "keyword a b"
        );
        assert_eq!(
            Query::aggregate(q("//A"), AggFunc::Max).to_string(),
            "aggregate max //A"
        );
    }
}
