//! The three workloads: what each builds at set-up, the serving stack it
//! stands up, and the seeded pool of requests its clients draw from —
//! each request paired with the reference answer computed in process by
//! `QueryEngine::run`.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use uxm_core::aggregate::{merge_marginals, AggFunc};
use uxm_core::api::{Query, QueryResponse};
use uxm_core::block_tree::{BlockTree, BlockTreeConfig};
use uxm_core::engine::QueryEngine;
use uxm_core::json::Json;
use uxm_core::mapping::PossibleMappings;
use uxm_core::registry::{BatchQuery, EngineRegistry, RegistryConfig};
use uxm_core::router::{merge_topk, Router, RouterConfig, TopKAnswer};
use uxm_core::server::{Server, ServerConfig, ServerHandle};
use uxm_datagen::corpus::{corpus_document, CorpusConfig};
use uxm_datagen::datasets::{Dataset, DatasetId};
use uxm_datagen::queries::paper_queries;
use uxm_matching::Matcher;
use uxm_twig::TwigPattern;
use uxm_xml::{DocGenConfig, Document, Schema};

use crate::util::{ratio, Rng};

/// Closed-loop client threads, and worker threads per server: the
/// two-core host this benchmark is sized for.
pub const CLIENTS: usize = 2;

/// Paper defaults of §VI-A: `|M| = 100`, `τ = 0.2`, `MAX_B = MAX_F = 500`,
/// and the `Order.xml` stand-in document (3 473 nodes, fixed seed).
const PAPER_M: usize = 100;
const ORDER_XML_SEED: u64 = 0x0D0C;

fn paper_config() -> BlockTreeConfig {
    BlockTreeConfig {
        tau: 0.2,
        max_blocks: 500,
        max_failures: 500,
    }
}

/// `k` of every top-k PTQ. Fixed, so that the seed changes which
/// requests are sent and in what order, never how costly each one is.
const TOP_K: usize = 3;

/// The nine small Table II datasets served by `table2_routed` (D7 has
/// a workload of its own).
const TABLE2: [DatasetId; 9] = [
    DatasetId::D1,
    DatasetId::D2,
    DatasetId::D3,
    DatasetId::D4,
    DatasetId::D5,
    DatasetId::D6,
    DatasetId::D8,
    DatasetId::D9,
    DatasetId::D10,
];

/// The soak schema family every corpus engine shares; only the
/// documents differ per engine.
const CORPUS_SOURCE: &str = "Order(Buyer(Name Contact(EMail)) \
     POLine*(LineNo Quantity UnitPrice) Note*(Text) Attachment*(Uri))";
const CORPUS_TARGET: &str = "PO(Purchaser(PName PContact(PEMail)) \
     Line(No Qty Amount) Memo(Body) Doc(Ref))";
const CORPUS_M: usize = 16;
const CORPUS_DOCS: usize = 64;
const CORPUS_NODES: usize = 160_000;
/// Zipf exponent of document sizes, label skew and engine popularity.
const CORPUS_ALPHA: f64 = 1.0;
/// The registry budget as a share of the corpus's resident bytes.
const CORPUS_BUDGET_SHARE: f64 = 0.6;
/// Requests in one pass of the corpus deck.
const CORPUS_DECK: usize = 2048;
/// Target-schema patterns the corpus clients ask for.
const CORPUS_PATTERNS: [&str; 5] = ["//Ref", "//Body", "//PEMail", "//PName", "PO//Amount"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    D7Hot,
    Table2Routed,
    CorpusCold,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::D7Hot,
        Workload::Table2Routed,
        Workload::CorpusCold,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::D7Hot => "d7_hot",
            Workload::Table2Routed => "table2_routed",
            Workload::CorpusCold => "corpus_cold",
        }
    }

    /// Whether the measured stack is the router (otherwise one server).
    pub fn routed(self) -> bool {
        self == Workload::Table2Routed
    }

    /// The per-registry configuration of the measured stack, given the
    /// resident bytes of everything built.
    pub fn registry_config(self, resident_bytes: u64) -> RegistryConfig {
        match self {
            Workload::CorpusCold => RegistryConfig {
                memory_budget: (resident_bytes as f64 * CORPUS_BUDGET_SHARE) as usize,
                // The thrash gate is off: every miss pays its hydration.
                thrash_evictions: 0,
                ..RegistryConfig::default()
            },
            _ => RegistryConfig::default(),
        }
    }
}

// ---------------------------------------------------------------------
// set-up

/// Wall time of one set-up, and of each build layer summed over it.
#[derive(Clone, Debug, Default)]
pub struct BuildTimes {
    /// The whole set-up, seconds.
    pub total_s: f64,
    pub engines: usize,
    pub match_ms: f64,
    pub top_h_ms: f64,
    pub docgen_ms: f64,
    pub block_tree_ms: f64,
    pub engine_ms: f64,
    pub encode_ms: f64,
    pub start_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Block tree, then engine, each timed.
fn assemble(pm: PossibleMappings, doc: Document, times: &mut BuildTimes) -> QueryEngine {
    let t = Instant::now();
    let tree = BlockTree::build(&pm.target, &pm, &paper_config());
    times.block_tree_ms += ms_since(t);
    let t = Instant::now();
    let engine = QueryEngine::new(pm, doc, tree);
    times.engine_ms += ms_since(t);
    engine
}

/// One Table II engine. Schema generation is folded into the matching
/// time; it is under a millisecond even for the 1 076-element schemas.
fn dataset_engine(id: DatasetId, times: &mut BuildTimes) -> QueryEngine {
    let t = Instant::now();
    let dataset = Dataset::load(id);
    times.match_ms += ms_since(t);
    let t = Instant::now();
    let pm = PossibleMappings::top_h(&dataset.matching, PAPER_M);
    times.top_h_ms += ms_since(t);
    let t = Instant::now();
    let doc = Document::generate(
        &dataset.matching.source,
        &DocGenConfig::order_xml(),
        ORDER_XML_SEED,
    );
    times.docgen_ms += ms_since(t);
    assemble(pm, doc, times)
}

fn corpus_engines(seed: u64, times: &mut BuildTimes) -> Vec<(String, QueryEngine)> {
    let source = Schema::parse_outline(CORPUS_SOURCE).expect("corpus source outline");
    let target = Schema::parse_outline(CORPUS_TARGET).expect("corpus target outline");
    let t = Instant::now();
    let matching = Matcher::context().match_schemas(&source, &target);
    times.match_ms += ms_since(t);
    let t = Instant::now();
    let pm = PossibleMappings::top_h(&matching, CORPUS_M);
    times.top_h_ms += ms_since(t);
    let corpus = CorpusConfig {
        documents: CORPUS_DOCS,
        total_nodes: CORPUS_NODES,
        alpha: CORPUS_ALPHA,
        seed,
    };
    corpus
        .doc_sizes()
        .into_iter()
        .enumerate()
        .map(|(i, nodes)| {
            let t = Instant::now();
            let doc = corpus_document(&source, nodes, CORPUS_ALPHA, corpus.doc_seed(i));
            times.docgen_ms += ms_since(t);
            (corpus_name(i), assemble(pm.clone(), doc, times))
        })
        .collect()
}

/// Engine `i` of the corpus; `i` is also its popularity rank.
fn corpus_name(i: usize) -> String {
    format!("c{i:03}")
}

fn dataset_name(id: DatasetId) -> String {
    id.name().to_ascii_lowercase()
}

fn build_engines(w: Workload, seed: u64, times: &mut BuildTimes) -> Vec<(String, QueryEngine)> {
    match w {
        Workload::D7Hot => vec![(
            dataset_name(DatasetId::D7),
            dataset_engine(DatasetId::D7, times),
        )],
        Workload::Table2Routed => TABLE2
            .iter()
            .map(|&id| (dataset_name(id), dataset_engine(id, times)))
            .collect(),
        Workload::CorpusCold => corpus_engines(seed, times),
    }
}

/// A serving stack on a loopback port: one [`Server`] over a registry,
/// or the [`Router`]'s front over two shard registries.
pub struct Stack {
    pub addr: SocketAddr,
    handle: ServerHandle,
    backend: Backend,
}

enum Backend {
    Single(Arc<EngineRegistry>),
    Routed(Arc<Router>),
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: CLIENTS,
        ..ServerConfig::default()
    }
}

impl Stack {
    fn single(dir: &Path, registry: RegistryConfig) -> Result<Stack, String> {
        let registry = Arc::new(EngineRegistry::with_config(registry).snapshot_dir(dir));
        let server = Server::bind(Arc::clone(&registry), "127.0.0.1:0", server_config())
            .map_err(|e| format!("bind server: {e}"))?;
        let addr = server.local_addr();
        Ok(Stack {
            addr,
            handle: server.start(),
            backend: Backend::Single(registry),
        })
    }

    /// A router over two shards; `registry` is the whole budget, split
    /// evenly between the shards.
    fn routed(dir: &Path, mut registry: RegistryConfig) -> Result<Stack, String> {
        const SHARDS: usize = 2;
        registry.memory_budget /= SHARDS;
        let router = Router::start(
            dir,
            RouterConfig {
                shards: SHARDS,
                registry,
                shard_server: server_config(),
                ..RouterConfig::default()
            },
        )
        .map_err(|e| format!("start router: {e}"))?;
        let front = router
            .bind("127.0.0.1:0", server_config())
            .map_err(|e| format!("bind router: {e}"))?;
        let addr = front.local_addr();
        Ok(Stack {
            addr,
            handle: front.start(),
            backend: Backend::Routed(router),
        })
    }

    pub fn start(routed: bool, dir: &Path, registry: RegistryConfig) -> Result<Stack, String> {
        if routed {
            Stack::routed(dir, registry)
        } else {
            Stack::single(dir, registry)
        }
    }

    /// Engines evicted so far, summed over shards.
    pub fn evictions(&self) -> u64 {
        match &self.backend {
            Backend::Single(registry) => registry.eviction_count(),
            Backend::Routed(router) => router.shard_stats().iter().map(|(_, s)| s.evictions).sum(),
        }
    }

    /// Stops the front and, behind a router, every shard; returns once
    /// all their threads have ended. Close client connections first.
    pub fn shutdown(self) {
        self.handle.shutdown();
        if let Backend::Routed(router) = &self.backend {
            router.shutdown();
        }
    }
}

/// One set-up: the engines built in process, their snapshots on disk,
/// and the stack serving them.
pub struct SetUp {
    pub stack: Stack,
    pub engines: Vec<(String, Arc<QueryEngine>)>,
    pub times: BuildTimes,
    /// Bytes of all snapshot files written.
    pub disk_bytes: u64,
    /// Σ `QueryEngine::approx_bytes` over the engines built.
    pub resident_bytes: u64,
    pub registry: RegistryConfig,
}

/// Builds every engine, writes its snapshot into `dir` through
/// `EngineRegistry::save`, and starts the workload's stack over `dir`.
pub fn set_up(w: Workload, seed: u64, dir: &Path) -> Result<SetUp, String> {
    let start = Instant::now();
    let mut times = BuildTimes::default();
    let built = build_engines(w, seed, &mut times);
    times.engines = built.len();
    let staging = EngineRegistry::new().snapshot_dir(dir);
    let mut engines = Vec::with_capacity(built.len());
    let mut disk_bytes = 0;
    for (name, engine) in built {
        let engine = staging.insert(name.as_str(), engine);
        let t = Instant::now();
        let path = staging
            .save(&name)
            .map_err(|e| format!("save {name}: {e}"))?;
        times.encode_ms += ms_since(t);
        staging.remove(&name);
        disk_bytes += std::fs::metadata(&path)
            .map_err(|e| format!("stat {}: {e}", path.display()))?
            .len();
        engines.push((name, engine));
    }
    let resident_bytes = engines.iter().map(|(_, e)| e.approx_bytes() as u64).sum();
    let registry = w.registry_config(resident_bytes);
    let t = Instant::now();
    let stack = Stack::start(w.routed(), dir, registry.clone())?;
    times.start_ms += ms_since(t);
    times.total_s = start.elapsed().as_secs_f64();
    Ok(SetUp {
        stack,
        engines,
        times,
        disk_bytes,
        resident_bytes,
        registry,
    })
}

// ---------------------------------------------------------------------
// requests and their reference answers

/// What a request asks, in typed form (the traced run replays it
/// through each layer's entry point).
pub enum Call {
    Query {
        engine: String,
        query: Query,
    },
    Batch(Vec<BatchQuery>),
    TopK {
        engines: Vec<String>,
        query: Query,
        k: usize,
    },
    Aggregate {
        engines: Vec<String>,
        query: Query,
        func: AggFunc,
    },
}

pub struct Request {
    pub call: Call,
    pub path: String,
    pub body: String,
    pub expect: Expect,
}

/// The reference a served body is byte-compared against.
pub enum Expect {
    /// A `/query` response: `{[aggregate,]answers,` then the run's own
    /// flat `stats` object.
    Response(String),
    /// A `/batch` response: one `Response` prefix per item, in order.
    Batch(Vec<String>),
    /// `/topk` and `/aggregate` bodies carry no timing: whole-body equality.
    Exact(String),
}

/// Everything of a serialized [`QueryResponse`] up to its `stats` value.
fn response_prefix(response: &QueryResponse) -> String {
    let Json::Obj(mut members) = response.to_json() else {
        unreachable!("a response serializes to an object");
    };
    members.retain(|(key, _)| key != "stats");
    let mut text = Json::Obj(members).to_string();
    text.pop();
    text.push_str(",\"stats\":");
    text
}

/// Strips `prefix`, a flat `{...}` stats object and the response's
/// closing brace from the front of `body`.
fn strip_response<'a>(body: &'a str, prefix: &str) -> Option<&'a str> {
    let rest = body.strip_prefix(prefix)?.strip_prefix('{')?;
    let close = rest.find('}')?;
    if rest[..close].contains('{') {
        return None;
    }
    rest[close + 1..].strip_prefix('}')
}

impl Expect {
    pub fn matches(&self, body: &str) -> bool {
        match self {
            Expect::Response(prefix) => strip_response(body, prefix) == Some(""),
            Expect::Batch(prefixes) => {
                let Some(mut rest) = body.strip_prefix("{\"results\":[") else {
                    return false;
                };
                for (i, prefix) in prefixes.iter().enumerate() {
                    if i > 0 {
                        let Some(r) = rest.strip_prefix(',') else {
                            return false;
                        };
                        rest = r;
                    }
                    let Some(r) = strip_response(rest, prefix) else {
                        return false;
                    };
                    rest = r;
                }
                rest == "]}"
            }
            Expect::Exact(expected) => body == expected,
        }
    }
}

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

fn sorted_names(names: &[String]) -> Vec<String> {
    let mut names = names.to_vec();
    names.sort();
    names.dedup();
    names
}

/// In-process references: every answer of the pool computed once by
/// `QueryEngine::run` on the engines built at set-up.
struct Oracle<'a> {
    engines: &'a [(String, Arc<QueryEngine>)],
}

impl Oracle<'_> {
    fn engine(&self, name: &str) -> Result<&QueryEngine, String> {
        self.engines
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| e.as_ref())
            .ok_or_else(|| format!("no engine {name}"))
    }

    fn run(&self, name: &str, query: &Query) -> Result<QueryResponse, String> {
        self.engine(name)?
            .run(query)
            .map_err(|e| format!("reference run on {name}: {e}"))
    }

    fn request(&self, call: Call) -> Result<Request, String> {
        let (path, body, expect) = match &call {
            Call::Query { engine, query } => (
                format!("/query/{engine}"),
                query.to_json_string(),
                Expect::Response(response_prefix(&self.run(engine, query)?)),
            ),
            Call::Batch(items) => (
                "/batch".to_string(),
                Json::Arr(items.iter().map(BatchQuery::to_json).collect()).to_string(),
                Expect::Batch(
                    items
                        .iter()
                        .map(|b| Ok(response_prefix(&self.run(&b.engine, &b.query)?)))
                        .collect::<Result<_, String>>()?,
                ),
            ),
            Call::TopK { engines, query, k } => {
                let mut all = Vec::new();
                for name in sorted_names(engines) {
                    let response = self.run(&name, query)?;
                    all.extend(response.answers.into_iter().map(|a| TopKAnswer {
                        engine: name.clone(),
                        probability: a.probability,
                        mappings: a.mappings,
                        matches: a.matches,
                    }));
                }
                let body = Json::Obj(vec![
                    (
                        "answers".into(),
                        Json::Arr(
                            merge_topk(all, *k)
                                .iter()
                                .map(TopKAnswer::to_json)
                                .collect(),
                        ),
                    ),
                    ("k".into(), Json::uint(*k as u64)),
                ]);
                (
                    "/topk".to_string(),
                    fan_out_body(engines, query),
                    Expect::Exact(body.to_string()),
                )
            }
            Call::Aggregate {
                engines,
                query,
                func,
            } => {
                let mut entries = Vec::new();
                let mut marginals = Vec::new();
                for name in sorted_names(engines) {
                    let aggregate = self
                        .run(&name, query)?
                        .aggregate
                        .ok_or_else(|| format!("aggregate on {name} returned no aggregate"))?;
                    marginals.push(aggregate.marginal);
                    entries.push(Json::Obj(vec![
                        ("engine".into(), Json::str(name.as_str())),
                        ("marginal".into(), opt_num(aggregate.marginal)),
                        ("rows".into(), aggregate.rows_json()),
                    ]));
                }
                let body = Json::Obj(vec![
                    ("engines".into(), Json::Arr(entries)),
                    ("func".into(), Json::str(func.wire_name())),
                    ("value".into(), opt_num(merge_marginals(*func, marginals))),
                ]);
                (
                    "/aggregate".to_string(),
                    fan_out_body(engines, query),
                    Expect::Exact(body.to_string()),
                )
            }
        };
        Ok(Request {
            call,
            path,
            body,
            expect,
        })
    }
}

/// The `/topk` and `/aggregate` request body.
fn fan_out_body(engines: &[String], query: &Query) -> String {
    Json::Obj(vec![
        (
            "engines".into(),
            Json::Arr(engines.iter().map(|n| Json::str(n.as_str())).collect()),
        ),
        ("query".into(), query.to_json()),
    ])
    .to_string()
}

/// The distinct requests of a workload and the deck clients draw them
/// from: every request as many times as its share of the traffic.
pub struct Pool {
    pub requests: Vec<Request>,
    deck: Vec<usize>,
}

/// One client's request sequence: the pool's deck, reshuffled by the
/// client's seeded generator before every pass, so each pass carries the
/// workload's exact mix in a fresh order.
pub struct Stream {
    rng: Rng,
    order: Vec<usize>,
    next: usize,
}

impl Stream {
    pub fn new(rng: Rng) -> Stream {
        Stream {
            rng,
            order: Vec::new(),
            next: 0,
        }
    }

    /// The index of the next request in `pool.requests`.
    pub fn next(&mut self, pool: &Pool) -> usize {
        if self.next == self.order.len() {
            self.order.clone_from(&pool.deck);
            for i in (1..self.order.len()).rev() {
                let j = self.rng.below(i + 1);
                self.order.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

impl Pool {
    /// Every single-engine query of the pool (batch items included),
    /// each once, in pool order.
    pub fn engine_queries(&self) -> Vec<(String, Query)> {
        let mut out: Vec<(String, Query)> = Vec::new();
        let mut add = |engine: &str, query: &Query| {
            if !out.iter().any(|(e, q)| e == engine && q == query) {
                out.push((engine.to_string(), query.clone()));
            }
        };
        for request in &self.requests {
            match &request.call {
                Call::Query { engine, query } => add(engine, query),
                Call::Batch(items) => items.iter().for_each(|b| add(&b.engine, &b.query)),
                Call::TopK { .. } | Call::Aggregate { .. } => {}
            }
        }
        out
    }
}

fn twig(text: &str) -> TwigPattern {
    TwigPattern::parse(text).expect("benchmark pattern parses")
}

/// `//L` over every target label some mapping maps whose top-3 answer
/// carries between one and [`CHEAP_MATCHES`] matches: queries that find
/// something yet stay cheap to evaluate and render.
fn cheap_patterns(engine: &QueryEngine) -> Vec<TwigPattern> {
    let target = engine.target();
    let mut labels: Vec<&str> = engine
        .mappings()
        .pairs_flat()
        .iter()
        .map(|&(_, t)| target.label(t))
        .collect();
    labels.sort_unstable();
    labels.dedup();
    labels
        .into_iter()
        .map(|label| twig(&format!("//{label}")))
        .filter(|p| {
            engine.run(&Query::topk(p.clone(), 3)).is_ok_and(|r| {
                let matches: usize = r.answers.iter().map(|a| a.matches.len()).sum();
                (1..=CHEAP_MATCHES).contains(&matches)
            })
        })
        .collect()
}

/// The most matches a `table2_routed` label query may return.
const CHEAP_MATCHES: usize = 24;

/// Builds the workload's request pool from `seed` and computes every
/// reference answer on the engines built at set-up.
pub fn pool(
    w: Workload,
    seed: u64,
    engines: &[(String, Arc<QueryEngine>)],
) -> Result<Pool, String> {
    let oracle = Oracle { engines };
    let (calls, deck) = match w {
        Workload::D7Hot => {
            // The ten paper queries, each as a PTQ and as a top-k PTQ;
            // PTQs are two thirds of the traffic, so the
            // median falls inside their cluster, not in the gap between
            // the cheap top-k requests and the PTQs.
            let engine = &engines[0].0;
            let mut calls = Vec::new();
            let mut deck = Vec::new();
            for q in paper_queries() {
                deck.extend([calls.len(), calls.len(), calls.len() + 1]);
                calls.push(Call::Query {
                    engine: engine.clone(),
                    query: Query::ptq(q.clone()),
                });
                calls.push(Call::Query {
                    engine: engine.clone(),
                    query: Query::topk(q, TOP_K),
                });
            }
            (calls, deck)
        }
        Workload::Table2Routed => table2_calls(engines, &mut Rng::new(seed ^ 0x9001)),
        Workload::CorpusCold => {
            // Per engine: a top-k PTQ per pattern and two aggregates.
            // Engine popularity is Zipf over the corpus rank, the giant
            // head most popular: rank r holds a deck share of 1/(r+1),
            // at least one slot, its slots dealt round its requests.
            let weights: Vec<f64> = (0..engines.len())
                .map(|r| 1.0 / ((r + 1) as f64).powf(CORPUS_ALPHA))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut calls = Vec::new();
            let mut deck = Vec::new();
            for (rank, (name, _)) in engines.iter().enumerate() {
                let first = calls.len();
                for pattern in CORPUS_PATTERNS {
                    calls.push(Call::Query {
                        engine: name.clone(),
                        query: Query::topk(twig(pattern), TOP_K),
                    });
                }
                for (pattern, func) in [("//Ref", AggFunc::Count), ("PO//Amount", AggFunc::Max)] {
                    calls.push(Call::Query {
                        engine: name.clone(),
                        query: Query::aggregate(twig(pattern), func),
                    });
                }
                let group = calls.len() - first;
                let slots = ((CORPUS_DECK as f64 * weights[rank] / total).round() as usize).max(1);
                deck.extend((0..slots).map(|j| first + (j + rank) % group));
            }
            (calls, deck)
        }
    };
    let requests = calls
        .into_iter()
        .map(|call| oracle.request(call))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Pool { requests, deck })
}

/// The distinct calls of a workload and its deck (see [`Pool`]).
type Calls = (Vec<Call>, Vec<usize>);

/// Mostly `/query`, with some `/batch`, `/topk` and `/aggregate` over
/// three engines each. The queries are the paper's ten PTQs, which find
/// no relevant mapping on these datasets and evaluate in about a
/// microsecond, plus top-k PTQs and counts over cheap matched labels.
fn table2_calls(engines: &[(String, Arc<QueryEngine>)], rng: &mut Rng) -> Calls {
    let cheap: Vec<Vec<TwigPattern>> = engines.iter().map(|(_, e)| cheap_patterns(e)).collect();
    let per_engine: Vec<Vec<Query>> = cheap
        .iter()
        .map(|patterns| {
            let mut queries: Vec<Query> = paper_queries().into_iter().map(Query::ptq).collect();
            for p in patterns {
                queries.push(Query::topk(p.clone(), TOP_K));
                queries.push(Query::aggregate(p.clone(), AggFunc::Count));
            }
            queries
        })
        .collect();
    let all_cheap: Vec<&TwigPattern> = cheap.iter().flatten().collect();
    let pick = |rng: &mut Rng| {
        let e = rng.below(engines.len());
        let q = per_engine[e][rng.below(per_engine[e].len())].clone();
        (engines[e].0.clone(), q)
    };
    let three = |rng: &mut Rng| -> Vec<String> {
        (0..3)
            .map(|_| engines[rng.below(engines.len())].0.clone())
            .collect()
    };
    let mut calls = Vec::new();
    for _ in 0..480 {
        let (engine, query) = pick(rng);
        calls.push(Call::Query { engine, query });
    }
    for _ in 0..64 {
        let items = (0..3)
            .map(|_| {
                let (engine, query) = pick(rng);
                BatchQuery::new(engine, query)
            })
            .collect();
        calls.push(Call::Batch(items));
    }
    for _ in 0..48 {
        let pattern = all_cheap[rng.below(all_cheap.len())].clone();
        calls.push(Call::TopK {
            engines: three(rng),
            query: Query::topk(pattern, TOP_K),
            k: TOP_K,
        });
    }
    for _ in 0..48 {
        let pattern = all_cheap[rng.below(all_cheap.len())].clone();
        calls.push(Call::Aggregate {
            engines: three(rng),
            query: Query::aggregate(pattern, AggFunc::Count),
            func: AggFunc::Count,
        });
    }
    let deck = (0..calls.len()).collect();
    (calls, deck)
}

/// Σ snapshot bytes / Σ resident bytes.
pub fn amplification(set_up: &SetUp) -> f64 {
    ratio(set_up.disk_bytes as f64, set_up.resident_bytes as f64)
}
