//! # uxm — Managing Uncertainty of XML Schema Matching
//!
//! Umbrella crate re-exporting the full reproduction of Cheng, Gong, Cheung,
//! *"Managing Uncertainty of XML Schema Matching"*, ICDE 2010.
//!
//! The pipeline, end to end:
//!
//! 1. [`xml`] — XML schema and document trees (the substrate).
//! 2. [`matching`] — a COMA++-style matcher producing a scored
//!    correspondence set (a *schema matching*) between two schemas.
//! 3. [`assignment`] — turns a schema matching into its top-*h* possible
//!    mappings via ranked bipartite assignment (Murty/Pascoal), accelerated
//!    by connected-component partitioning (the paper's §V contribution).
//! 4. [`core`] — the *block tree* compressing the possible-mapping set, and
//!    probabilistic twig query (PTQ / top-k PTQ) evaluation over it.
//! 5. [`twig`] — the twig-pattern query engine used underneath PTQ.
//! 6. [`datagen`] — synthetic e-commerce datasets reproducing the paper's
//!    Table II workloads.
//!
//! ```
//! use uxm::prelude::*;
//!
//! // Two tiny purchase-order schemas.
//! let source = Schema::parse_outline("Order(Buyer(Name) Item(Price))").unwrap();
//! let target = Schema::parse_outline("PO(Vendor(ContactName) Line(UnitPrice))").unwrap();
//!
//! // Match them and derive possible mappings.
//! let matching = Matcher::default().match_schemas(&source, &target);
//! let mappings = PossibleMappings::top_h(&matching, 8);
//!
//! // Open a query session: the engine builds its interned labels and
//! // relevance bitsets — once.
//! let doc = Document::generate(&source, &DocGenConfig::small(), 7);
//! let engine = QueryEngine::build(mappings, doc);
//!
//! // Ask typed queries through the one entry point; the planner picks
//! // the evaluation strategy from the query kind.
//! let q = TwigPattern::parse("PO//ContactName").unwrap();
//! let answers = engine.run(&Query::ptq(q.clone())).unwrap();
//! for ans in &answers.answers {
//!     assert!(ans.probability > 0.0);
//! }
//! let top1 = engine.run(&Query::topk(q, 1)).unwrap();
//! assert!(top1.len() <= answers.len());
//! ```

pub use uxm_assignment as assignment;
pub use uxm_core as core;
pub use uxm_datagen as datagen;
pub use uxm_matching as matching;
pub use uxm_twig as twig;
pub use uxm_xml as xml;

/// One-stop imports for the common pipeline.
pub mod prelude {
    pub use uxm_assignment::{
        bipartite::Bipartite, murty::murty_top_h, partition::partition_top_h,
    };
    pub use uxm_core::{
        api::{Answer, EvaluatorHint, Granularity, Query, QueryOptions, QueryResponse},
        block_tree::{BlockTree, BlockTreeConfig},
        engine::QueryEngine,
        error::UxmError,
        keyword::{KeywordAnswer, KeywordError},
        mapping::{Mapping, PossibleMappings},
        ptq::PtqAnswer,
        registry::{BatchQuery, EngineRegistry, RegistryConfig},
        server::{Server, ServerConfig, ServerHandle},
    };
    pub use uxm_datagen::datasets::{Dataset, DatasetId};
    pub use uxm_matching::{matcher::Matcher, SchemaMatching};
    pub use uxm_twig::pattern::TwigPattern;
    pub use uxm_xml::{docgen::DocGenConfig, document::Document, schema::Schema};
}
