//! # uxm-core — block trees and probabilistic twig queries
//!
//! The paper's primary contribution:
//!
//! * [`mapping`] — possible mappings with probabilities (§I, §V),
//! * [`block`] — blocks and c-blocks (Definitions 1–2),
//! * [`block_tree`] — the block tree and its bottom-up construction
//!   (Definition 3, Algorithms 1–2, Lemmas 1–2),
//! * [`compress`] — mapping compression and storage accounting (the
//!   compression-ratio metric of §VI),
//! * [`rewrite`] — target→source query rewriting under a mapping,
//! * [`ptq`] — the probabilistic twig query and its per-mapping result
//!   (Definition 4),
//! * [`topk`] — top-k PTQ (Definition 5),
//! * [`stats`] — o-ratio and c-block distribution metrics (§VI),
//! * [`path_ptq`] — node-granularity PTQ (an extension: exact semantics
//!   when element labels repeat),
//! * [`engine`] — the [`engine::QueryEngine`] session layer every query
//!   evaluates through, home of PTQ evaluation with and without the
//!   block tree (Algorithms 3 and 4): interned labels and precomputed
//!   relevance bitsets, immutable after build (the engine is
//!   `Send + Sync` and holds no per-query state),
//! * [`api`] — the unified query surface: the typed [`api::Query`] AST
//!   (PTQ, top-k, keyword, and aggregate forms; twig patterns carry
//!   value predicates, wildcards, and descendant axes), the uniform
//!   [`api::QueryResponse`] with provenance and execution stats, and
//!   its canonical JSON wire format,
//! * [`aggregate`] — COUNT/SUM/MIN/MAX aggregate answers over PTQ
//!   matches: per-mapping rows, the probability-weighted marginal, and
//!   the associative cross-shard merge,
//! * [`planner`] — the fixed per-kind plan table choosing between
//!   naive, block-tree, and compiled evaluation (compiled for PTQs,
//!   top-k and aggregates, block-tree for node granularity) unless a
//!   query pins it,
//! * [`exec`] — compiled query execution: a flat bytecode program
//!   lowered in one pass per query and interpreted by a register VM
//!   over the engine's columnar arenas,
//! * [`error`] — the crate-wide [`error::UxmError`] every layer fails
//!   with,
//! * [`json`] — the minimal canonical-JSON support under the wire
//!   format,
//! * [`registry`] — the [`registry::EngineRegistry`] serving layer:
//!   many named engines, concurrent batched queries, LRU eviction under
//!   a memory budget, and lazy hydration from engine snapshots,
//! * [`server`] — the [`server::Server`] HTTP/JSON front end over a
//!   registry: a dependency-free threaded HTTP/1.1 server (plus the
//!   [`server::Client`] test helper) speaking the canonical wire
//!   format over real sockets — what `uxm serve` runs,
//! * [`router`] — horizontal scale-out: a [`router::Router`]
//!   scatter-gathering over N shard registries (each with its own
//!   budget and thrash gate) behind a consistent-hash ring, with an
//!   exact cross-shard top-k merge — what `uxm serve --shards N` runs,
//! * [`storage`] — binary codecs for mapping sets and whole engine
//!   snapshots (see the snapshot format/version notes there).
//!
//! The layer stack, bottom to top (the prose version lives in
//! `docs/architecture.md`):
//!
//! ```text
//! uxm-xml / uxm-twig          schemas, documents, twig patterns
//!   └─ mapping / block_tree   possible mappings, c-blocks (§III)
//!        └─ engine            one (schemas, mappings, document) session
//!             └─ api+planner  typed Query/QueryResponse, plan choice
//!                  └─ registry   many named engines, snapshots, LRU
//!                       └─ server   HTTP/1.1 JSON over the registry
//!                            └─ router   N shard registries behind a
//!                                        consistent-hash ring
//! ```
//!
//! # Quickstart
//!
//! Build a [`engine::QueryEngine`] once per `(mappings, document)`
//! session, then serve typed [`api::Query`] requests through
//! [`engine::QueryEngine::run`] — the one entry point:
//!
//! ```
//! use uxm_core::api::Query;
//! use uxm_core::block_tree::BlockTreeConfig;
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
//!
//! let engine = QueryEngine::build(pm, doc, &BlockTreeConfig::default());
//! let q = TwigPattern::parse("PO//ContactName").unwrap();
//! let full = engine.run(&Query::ptq(q.clone())).unwrap();
//! let top2 = engine.run(&Query::topk(q, 2)).unwrap();
//! // "laptop" matches no target label — a value term, never filtered.
//! let kw = engine.run(&Query::keyword(vec!["laptop".into()])).unwrap();
//! assert!(top2.len() <= full.len());
//! assert_eq!(kw.len(), engine.mappings().len());
//! ```
//!
//! Pin Algorithm 3 or 4 with
//! [`api::EvaluatorHint::Naive`] or [`api::EvaluatorHint::BlockTree`];
//! answers never depend on the choice.
//!
//! To serve **many** schema-pair/document sessions at once — with
//! snapshot persistence and a memory budget — put engines behind an
//! [`registry::EngineRegistry`]; its module docs hold a worked example.

pub mod aggregate;
pub mod api;
pub mod block;
pub mod block_tree;
pub mod compress;
pub mod engine;
pub mod error;
pub mod exec;
mod http;
pub mod json;
pub mod keyword;
pub mod mapping;
pub mod path_ptq;
pub mod planner;
pub mod ptq;
pub mod registry;
pub mod rewrite;
pub mod router;
pub mod semantics;
pub mod server;
pub mod stats;
pub mod storage;
pub(crate) mod sync;
pub mod topk;

pub use aggregate::{AggFunc, AggRow, AggregateResult};
pub use api::{Answer, EvaluatorHint, Granularity, Query, QueryKind, QueryOptions, QueryResponse};
pub use block::{Block, BlockId};
pub use block_tree::{BlockTree, BlockTreeConfig};
pub use engine::QueryEngine;
pub use error::UxmError;
pub use keyword::{KeywordAnswer, KeywordError};
pub use mapping::{Mapping, MappingId, PossibleMappings};
pub use planner::{Evaluator, Plan, PlanReason};
pub use ptq::{PtqAnswer, PtqResult};
pub use registry::{BatchQuery, EngineRegistry, RegistryConfig, RegistryStats, Request, Response};
pub use router::{Ring, Router, RouterConfig, TopKAnswer};
pub use server::{Server, ServerConfig, ServerHandle};
