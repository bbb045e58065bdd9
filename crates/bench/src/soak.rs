//! `repro soak` — sustained mixed-traffic overload against a
//! budget-constrained serving stack, writing `BENCH_soak.json`.
//!
//! The `uxmbench` workloads measure steady-state serving; this harness
//! measures *survival*. It builds a power-law corpus of engines
//! ([`uxm_datagen::corpus`]) whose working set
//! exceeds the registry's memory budget, puts them behind a
//! [`uxm_core::server::Server`] with tight admission limits, and then
//! drives it two ways at once for a configurable duration:
//!
//! * **closed-loop clients** — persistent connections issuing a mixed
//!   `/query` + `/batch` + `/stats` workload with Zipf-distributed
//!   engine popularity (a hot head, a cold tail that forces hydrations
//!   and evictions), plus periodic panic injections through the
//!   `/debug/panic` instrumentation route and periodic hostile requests
//!   (a `/batch` body nested 50,000 deep, a `/query` pattern 50,000
//!   branches wide, a request head over 16 KiB) that must each get
//!   their typed 400 or 431;
//! * **an open-loop connection storm** — half-written requests held
//!   open from a spray of short-lived sockets, the slow-loris shape
//!   that historically wedged worker pools.
//!
//! Throughout, the harness samples process RSS against the registry's
//! own accounting ([`uxm_core::registry::RegistryStats`]) to expose
//! eviction drift. At the end it asserts the invariants this bug class
//! is about: every response was typed canonical JSON with a known
//! status, every hostile request got its typed refusal (or was shed),
//! no closed-loop client was shed more often than its back-off allows,
//! and every worker still answers after the storm — zero wedged
//! workers, or the run fails loudly.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uxm_core::api::Query;
use uxm_core::engine::QueryEngine;
use uxm_core::error::UxmError;
use uxm_core::json::Json;
use uxm_core::mapping::PossibleMappings;
use uxm_core::registry::{BatchQuery, EngineRegistry, RegistryConfig, RegistryStats};
use uxm_core::router::{Router, RouterConfig};
use uxm_core::server::{Client, Server, ServerConfig};
use uxm_datagen::corpus::{corpus_document, CorpusConfig};
use uxm_matching::Matcher;
use uxm_twig::TwigPattern;
use uxm_xml::Schema;

use crate::percentile;

/// Knobs for `repro soak` (all overridable from the command line).
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// How long the mixed-traffic phase runs.
    pub duration: Duration,
    /// Engines in the corpus (one document each).
    pub documents: usize,
    /// Total corpus nodes, split power-law across documents.
    pub total_nodes: usize,
    /// Registry memory budget in bytes; `0` derives ~40 % of the built
    /// corpus footprint, guaranteeing the working set exceeds it.
    pub budget: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Master seed — corpus, per-document, and per-client streams all
    /// derive from it, so a run is reproducible end to end.
    pub seed: u64,
    /// Shard count: `0` soaks a single registry behind [`Server`]; `N`
    /// puts `N` shard registries behind the consistent-hash
    /// [`Router`], splitting the budget evenly, and the report gains
    /// per-shard eviction/shed/thrash counters.
    pub shards: usize,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            duration: Duration::from_secs(30),
            documents: 24,
            total_nodes: 300_000,
            budget: 0,
            clients: 6,
            seed: 42,
            shards: 0,
        }
    }
}

/// Power-law exponent shared by document sizes, label skew, and the
/// clients' engine-popularity distribution.
const ALPHA: f64 = 1.0;
/// Worker threads for the soak server (small on purpose — overload must
/// be reachable on any host).
const WORKERS: usize = 4;
/// Connection-queue depth (small on purpose, see [`WORKERS`]).
const QUEUE_DEPTH: usize = 32;
/// The `Retry-After` the soak server sends with every 429/503, in ms. A
/// closed-loop client that is shed waits this long plus a seeded jitter
/// in `[0, RETRY_AFTER_MS)` before it reconnects.
const RETRY_AFTER_MS: u64 = 100;
/// Connections the storm tries to hold open concurrently.
const STORM_HELD: usize = 60;
/// Closed-loop requests between panic injections (per client). Small
/// enough that injections happen even when overload throttles each
/// client to a few requests per second.
const PANIC_EVERY: usize = 53;
/// Closed-loop requests between hostile injections (per client), which
/// rotate through [`HOSTILE`].
const HOSTILE_EVERY: usize = 37;
/// The hostile request kinds and the typed refusal each must get: its
/// status and error `kind`.
const HOSTILE: [(&str, u16, &str); 3] = [
    ("big_head", 431, "usage"),
    ("deep_batch", 400, "json"),
    ("wide_query", 400, "parse"),
];

/// The source/target schema family every corpus engine shares (the
/// *documents* differ per engine; matching is computed once).
const SOURCE_OUTLINE: &str = "Order(Buyer(Name Contact(EMail)) \
     POLine*(LineNo Quantity UnitPrice) Note*(Text) Attachment*(Uri))";
const TARGET_OUTLINE: &str = "PO(Purchaser(PName PContact(PEMail)) \
     Line(No Qty Amount) Memo(Body) Doc(Ref))";

/// Per-endpoint observations from one closed-loop client.
#[derive(Default)]
struct ClientTally {
    /// Latencies in µs keyed by endpoint ("query" | "batch" | "stats").
    latencies: HashMap<&'static str, Vec<u64>>,
    /// Response counts by HTTP status.
    statuses: HashMap<u16, u64>,
    /// Error-body `kind` counts for non-2xx responses.
    kinds: HashMap<String, u64>,
    /// Responses whose body was not parseable canonical JSON.
    malformed: u64,
    /// Reconnects after an I/O failure (sheds at connect included).
    reconnects: u64,
    /// 429/503 answers to this client. Not summed by
    /// [`ClientTally::absorb`]: the soak checks it per client.
    sheds: u64,
    /// Response counts by HTTP status, per [`HOSTILE`] kind.
    hostile: HashMap<&'static str, HashMap<u16, u64>>,
}

impl ClientTally {
    fn absorb(&mut self, other: ClientTally) {
        for (k, mut v) in other.latencies {
            self.latencies.entry(k).or_default().append(&mut v);
        }
        for (k, v) in other.statuses {
            *self.statuses.entry(k).or_default() += v;
        }
        for (k, v) in other.kinds {
            *self.kinds.entry(k).or_default() += v;
        }
        self.malformed += other.malformed;
        self.reconnects += other.reconnects;
        for (kind, statuses) in other.hostile {
            let mine = self.hostile.entry(kind).or_default();
            for (status, n) in statuses {
                *mine.entry(status).or_default() += n;
            }
        }
    }
}

/// `VmRSS` of this process in bytes (0 where `/proc` is unavailable).
fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// The serving stack under soak: one registry behind a [`Server`], or
/// `N` shard registries behind the [`Router`].
enum Backend {
    Single(Arc<EngineRegistry>),
    Sharded(Arc<Router>),
}

impl Backend {
    /// Registry counters, summed across shards when sharded.
    fn stats(&self) -> RegistryStats {
        match self {
            Backend::Single(registry) => registry.stats(),
            Backend::Sharded(router) => router.shard_stats().into_iter().fold(
                RegistryStats {
                    resident_engines: 0,
                    resident_bytes: 0,
                    unreclaimed_bytes: 0,
                    evictions: 0,
                    shed_hydrations: 0,
                    hydrations: 0,
                    hydrate_p50_us: 0,
                    hydrate_max_us: 0,
                },
                |mut sum, (_, s)| {
                    sum.resident_engines += s.resident_engines;
                    sum.resident_bytes += s.resident_bytes;
                    sum.unreclaimed_bytes += s.unreclaimed_bytes;
                    sum.evictions += s.evictions;
                    sum.shed_hydrations += s.shed_hydrations;
                    sum.hydrations += s.hydrations;
                    // Latency percentiles do not sum: keep the worst
                    // shard's view, which is what an operator alerts on.
                    sum.hydrate_p50_us = sum.hydrate_p50_us.max(s.hydrate_p50_us);
                    sum.hydrate_max_us = sum.hydrate_max_us.max(s.hydrate_max_us);
                    sum
                },
            ),
        }
    }

    /// Per-shard counters (empty for the single-registry backend).
    fn per_shard(&self) -> Vec<(u64, RegistryStats)> {
        match self {
            Backend::Single(_) => Vec::new(),
            Backend::Sharded(router) => router.shard_stats(),
        }
    }
}

/// One large corpus engine: the soak schema family over a single
/// `nodes`-node Zipf document. Shared with `figures::bench_layout`,
/// which uses it as the "bigger than any Table II dataset" row.
pub(crate) fn corpus_engine(nodes: usize) -> QueryEngine {
    let source = Schema::parse_outline(SOURCE_OUTLINE).expect("source outline");
    let target = Schema::parse_outline(TARGET_OUTLINE).expect("target outline");
    let matching = Matcher::context().match_schemas(&source, &target);
    let mappings = PossibleMappings::top_h(&matching, 16);
    let doc = corpus_document(&source, nodes, ALPHA, 1);
    QueryEngine::build(mappings, doc)
}

/// Builds the corpus engines, snapshots them into `dir`, and returns
/// `(names, total engine bytes)`.
pub(crate) fn build_corpus(cfg: &SoakConfig, dir: &std::path::Path) -> (Vec<String>, usize) {
    let source = Schema::parse_outline(SOURCE_OUTLINE).expect("source outline");
    let target = Schema::parse_outline(TARGET_OUTLINE).expect("target outline");
    let matching = Matcher::context().match_schemas(&source, &target);
    let mappings = PossibleMappings::top_h(&matching, 16);
    let corpus = CorpusConfig {
        documents: cfg.documents,
        total_nodes: cfg.total_nodes,
        alpha: ALPHA,
        seed: cfg.seed,
    };
    let sizes = corpus.doc_sizes();
    let builder = EngineRegistry::new().snapshot_dir(dir);
    let mut names = Vec::with_capacity(cfg.documents);
    let mut total_bytes = 0usize;
    for (i, &nodes) in sizes.iter().enumerate() {
        let doc = corpus_document(&source, nodes, ALPHA, corpus.doc_seed(i));
        let engine = QueryEngine::build(mappings.clone(), doc);
        total_bytes += engine.approx_bytes();
        let name = format!("e{i:04}");
        builder.insert(&name, engine);
        builder.save(&name).expect("snapshot save");
        builder.remove(&name); // keep the build phase itself lean
        names.push(name);
    }
    (names, total_bytes)
}

/// The query mix (target-schema twigs the rewrite layer resolves).
fn query_bodies() -> Vec<String> {
    ["//Qty", "//PName", "PO//Amount", "//Body", "//Ref"]
        .iter()
        .map(|p| Query::ptq(TwigPattern::parse(p).expect("twig")).to_json_string())
        .collect()
}

/// Zipf(`ALPHA`) cumulative weights over `n` ranks.
fn zipf_cum(n: usize) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n);
    let mut running = 0.0;
    for i in 0..n {
        running += 1.0 / ((i + 1) as f64).powf(ALPHA);
        cum.push(running);
    }
    cum
}

fn zipf_pick(cum: &[f64], rng: &mut StdRng) -> usize {
    let total = *cum.last().expect("non-empty corpus");
    let x = rng.gen_range(0.0..total);
    cum.partition_point(|&c| c <= x).min(cum.len() - 1)
}

/// The hostile request bodies, built once.
struct Hostile {
    /// A request head over the server's 16 KiB cap, sent raw: [`Client`]
    /// sends fixed headers.
    big_head: String,
    /// A `/batch` body nested 50,000 arrays deep.
    deep_batch: String,
    /// A `/query` body whose twig pattern has 50,000 branches.
    wide_query: String,
}

impl Hostile {
    fn new() -> Hostile {
        let pattern = "a".to_string() + &"[./b]".repeat(50_000);
        Hostile {
            big_head: format!(
                "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
                "x".repeat(20 * 1024)
            ),
            deep_batch: "[".repeat(50_000) + &"]".repeat(50_000),
            wide_query: Json::Obj(vec![
                ("pattern".into(), Json::str(&pattern)),
                ("type".into(), Json::str("ptq")),
            ])
            .to_string(),
        }
    }

    /// Sends the hostile request `kind`: the bodies over `c`, the head
    /// on a fresh raw connection read until the server closes it.
    fn send(
        &self,
        kind: &str,
        c: &mut Client,
        addr: std::net::SocketAddr,
        engine: &str,
    ) -> Result<(u16, String), UxmError> {
        match kind {
            "deep_batch" => c.post("/batch", &self.deep_batch),
            "wide_query" => c.post(&format!("/query/{engine}"), &self.wide_query),
            _ => {
                let io = |e: std::io::Error| UxmError::io("raw oversized head", e);
                let mut stream = TcpStream::connect(addr).map_err(io)?;
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .map_err(io)?;
                stream.write_all(self.big_head.as_bytes()).map_err(io)?;
                let mut wire = String::new();
                stream.read_to_string(&mut wire).map_err(io)?;
                let (head, body) = wire.split_once("\r\n\r\n").unwrap_or((&wire, ""));
                let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok());
                let status =
                    status.ok_or_else(|| UxmError::Io(format!("no status line in {head:?}")))?;
                Ok((status, body.to_string()))
            }
        }
    }
}

/// One closed-loop client: mixed `/query` + `/batch` + `/stats` traffic
/// (with periodic panic and hostile injections) over a persistent
/// connection until `deadline`, reconnecting whenever the server sheds
/// or closes it — after a shed, only once the back-off of
/// [`RETRY_AFTER_MS`] plus jitter has passed.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: std::net::SocketAddr,
    deadline: Instant,
    names: &[String],
    cum: &[f64],
    queries: &[String],
    id: usize,
    seed: u64,
    panics_sent: &AtomicU64,
    hostile: &Hostile,
) -> ClientTally {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xC11E47 + id as u64));
    let mut tally = ClientTally::default();
    let mut client: Option<Client> = None;
    let mut sent = 0usize;
    while Instant::now() < deadline {
        let c = match client.as_mut() {
            Some(c) => c,
            None => {
                match Client::connect(addr).and_then(|c| c.read_timeout(Duration::from_secs(5))) {
                    Ok(c) => {
                        tally.reconnects += 1;
                        client.insert(c)
                    }
                    Err(_) => {
                        // Shed at accept (the server answered 429/503
                        // and closed) or transient socket trouble: back
                        // off a beat and retry.
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                }
            }
        };
        sent += 1;
        let started = Instant::now();
        let (endpoint, outcome) = if sent.is_multiple_of(PANIC_EVERY) {
            ("panic", c.post("/debug/panic", "{}"))
        } else if sent.is_multiple_of(HOSTILE_EVERY) {
            let (kind, _, _) = HOSTILE[(sent / HOSTILE_EVERY) % HOSTILE.len()];
            (kind, hostile.send(kind, c, addr, &names[0]))
        } else {
            match rng.gen_range(0u32..10) {
                0..=6 => {
                    let engine = &names[zipf_pick(cum, &mut rng)];
                    let body = &queries[rng.gen_range(0..queries.len())];
                    ("query", c.post(&format!("/query/{engine}"), body))
                }
                7 | 8 => {
                    let mut items = Vec::new();
                    for _ in 0..rng.gen_range(2usize..=4) {
                        let e = &names[zipf_pick(cum, &mut rng)];
                        let q = &queries[rng.gen_range(0..queries.len())];
                        items.push(
                            BatchQuery::new(e.as_str(), Query::from_json_str(q).expect("query"))
                                .to_json(),
                        );
                    }
                    let body = Json::Arr(items).to_string();
                    ("batch", c.post("/batch", &body))
                }
                _ => ("stats", c.get("/stats")),
            }
        };
        match outcome {
            Ok((status, body)) => {
                if endpoint == "panic" {
                    // Count only injections the handler actually ran:
                    // one sent into a dead keep-alive connection gets
                    // no response, and one sent on a freshly shed
                    // connection (accepted at the TCP level, answered
                    // 429/503 inline, closed) reads the shed response
                    // instead of reaching the route.
                    if status == 500 {
                        panics_sent.fetch_add(1, Ordering::Relaxed);
                    }
                } else if HOSTILE.iter().any(|&(kind, _, _)| kind == endpoint) {
                    *tally
                        .hostile
                        .entry(endpoint)
                        .or_default()
                        .entry(status)
                        .or_default() += 1;
                } else {
                    tally
                        .latencies
                        .entry(endpoint)
                        .or_default()
                        .push(started.elapsed().as_micros() as u64);
                }
                *tally.statuses.entry(status).or_default() += 1;
                match Json::parse(&body) {
                    Ok(parsed) => {
                        if status >= 400 {
                            if let Some(kind) = parsed
                                .get("error")
                                .and_then(|e| e.get("kind"))
                                .and_then(|k| k.as_str())
                            {
                                *tally.kinds.entry(kind.to_string()).or_default() += 1;
                            } else {
                                tally.malformed += 1;
                            }
                        }
                    }
                    Err(_) => tally.malformed += 1,
                }
                if endpoint == "panic" || status == 429 || status == 503 {
                    // Shed and panic responses close the connection.
                    client = None;
                }
                if status == 429 || status == 503 {
                    // Honour the server's Retry-After, jittered so shed
                    // clients do not come back in lockstep.
                    tally.sheds += 1;
                    let jitter = rng.gen_range(0..RETRY_AFTER_MS);
                    std::thread::sleep(Duration::from_millis(RETRY_AFTER_MS + jitter));
                }
            }
            Err(_) => {
                // Connection died (keep-alive timeout, shed at the
                // socket, contained panic upstream): reconnect next
                // iteration.
                client = None;
            }
        }
    }
    tally
}

/// The open-loop storm: spray connections, send half a request, hold
/// them open — classic slow-loris pressure on the queue and the
/// per-client cap. Returns how many connections it opened.
fn storm(addr: std::net::SocketAddr, deadline: Instant) -> u64 {
    let mut held: std::collections::VecDeque<TcpStream> = std::collections::VecDeque::new();
    let mut opened = 0u64;
    while Instant::now() < deadline {
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                opened += 1;
                stream
                    .set_write_timeout(Some(Duration::from_millis(100)))
                    .ok();
                // Half a request: a valid start, then silence.
                let _ = stream.write_all(b"POST /query/e0000 HTTP/1.1\r\ncontent-length: 100\r\n");
                held.push_back(stream);
                while held.len() > STORM_HELD {
                    held.pop_front(); // drop = close the oldest
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    opened
}

fn stat_u64(stats: &Json, section: &str, key: &str) -> u64 {
    stats
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_usize)
        .unwrap_or(0) as u64
}

/// Runs the soak. Returns the printable report (and writes
/// `BENCH_soak.json`); panics — failing the run — if a protocol or
/// liveness invariant is violated.
pub fn soak(cfg: &SoakConfig) -> String {
    let scratch = std::env::temp_dir().join(format!("uxm-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "BENCH_soak — {}s mixed-traffic soak: {} engines, {} corpus nodes, seed {}{}",
        cfg.duration.as_secs(),
        cfg.documents,
        cfg.total_nodes,
        cfg.seed,
        if cfg.shards > 0 {
            format!(", {} shard(s)", cfg.shards)
        } else {
            String::new()
        }
    );

    let build_start = Instant::now();
    let (names, corpus_bytes) = build_corpus(cfg, &scratch);
    let budget = if cfg.budget > 0 {
        cfg.budget
    } else {
        (corpus_bytes * 2 / 5).max(1)
    };
    let _ = writeln!(
        out,
        "  corpus built in {:.1}s: {} bytes of engines, budget {} bytes ({}%)",
        build_start.elapsed().as_secs_f64(),
        corpus_bytes,
        budget,
        budget * 100 / corpus_bytes.max(1)
    );

    let server_config = ServerConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        max_conns_per_client: cfg.clients + 40,
        keep_alive_timeout: Duration::from_secs(1),
        retry_after_ms: RETRY_AFTER_MS,
        debug_panic_route: true,
        ..ServerConfig::default()
    };
    let registry_config = RegistryConfig {
        // A cluster budget of B over N shards is B/N per shard.
        memory_budget: budget / cfg.shards.max(1),
        thrash_evictions: 6,
        thrash_window: 512,
    };
    let (backend, addr, handle) = if cfg.shards > 0 {
        let router = Router::start(
            &scratch,
            RouterConfig {
                shards: cfg.shards,
                registry: registry_config,
                ..RouterConfig::default()
            },
        )
        .expect("router start");
        let front = router
            .bind("127.0.0.1:0", server_config)
            .expect("bind loopback");
        let addr = front.local_addr();
        (Backend::Sharded(router), addr, front.start())
    } else {
        let registry =
            Arc::new(EngineRegistry::with_config(registry_config).snapshot_dir(&scratch));
        let server = Server::bind(Arc::clone(&registry), "127.0.0.1:0", server_config)
            .expect("bind loopback");
        let addr = server.local_addr();
        (Backend::Single(registry), addr, server.start())
    };

    let queries = query_bodies();
    let cum = zipf_cum(names.len());
    let deadline = Instant::now() + cfg.duration;
    let panics_sent = AtomicU64::new(0);
    let hostile = Hostile::new();

    let (tally, most_sheds, storm_opened, rss_samples) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..cfg.clients)
            .map(|id| {
                let (names, cum, queries, panics_sent) = (&names, &cum, &queries, &panics_sent);
                let hostile = &hostile;
                scope.spawn(move || {
                    closed_loop(
                        addr,
                        deadline,
                        names,
                        cum,
                        queries,
                        id,
                        cfg.seed,
                        panics_sent,
                        hostile,
                    )
                })
            })
            .collect();
        let storm_thread = scope.spawn(move || storm(addr, deadline));

        // Main thread meanwhile samples RSS vs the registries' own
        // accounting (summed across shards when sharded).
        let mut samples: Vec<(u64, u64)> = Vec::new();
        while Instant::now() < deadline {
            let stats = backend.stats();
            samples.push((rss_bytes(), stats.footprint_bytes() as u64));
            std::thread::sleep(Duration::from_millis(250));
        }

        let mut tally = ClientTally::default();
        let mut most_sheds = 0;
        for c in clients {
            let client = c.join().expect("client thread");
            most_sheds = most_sheds.max(client.sheds);
            tally.absorb(client);
        }
        let storm_opened = storm_thread.join().expect("storm thread");
        (tally, most_sheds, storm_opened, samples)
    });

    // Give the queue a moment to drain the storm's leftovers, then
    // prove every worker still serves: WORKERS concurrent connections
    // must all answer.
    std::thread::sleep(Duration::from_millis(1500));
    let mut probes: Vec<Client> = Vec::new();
    for i in 0..WORKERS {
        let client = Client::connect(addr)
            .and_then(|c| c.read_timeout(Duration::from_secs(10)))
            .unwrap_or_else(|e| panic!("probe {i} could not connect: {e}"));
        probes.push(client);
    }
    for (i, probe) in probes.iter_mut().enumerate() {
        let (status, body) = probe
            .get("/healthz")
            .unwrap_or_else(|e| panic!("worker probe {i} wedged: {e}"));
        assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
    }
    let (_, stats_json) = probes[0].get("/stats").expect("final stats");
    let server_stats = Json::parse(&stats_json).expect("stats body parses");
    drop(probes);

    // Every hostile shape also gets its typed refusal from the quiet
    // server, so each is exercised even when overload shed them all.
    let mut c = Client::connect(addr)
        .and_then(|c| c.read_timeout(Duration::from_secs(10)))
        .expect("hostile probe connects");
    for (kind, want, want_kind) in HOSTILE {
        let (status, body) = hostile
            .send(kind, &mut c, addr, &names[0])
            .unwrap_or_else(|e| panic!("hostile {kind} got no answer: {e}"));
        assert_eq!(status, want, "hostile {kind}: {body}");
        let parsed = Json::parse(&body).expect("typed error body");
        let got = parsed.get("error").and_then(|e| e.get("kind"));
        assert_eq!(got.and_then(Json::as_str), Some(want_kind), "{kind}");
    }
    drop(c);

    // Protocol invariant: every closed-loop response was typed JSON
    // with a known status.
    assert_eq!(
        tally.malformed, 0,
        "non-typed response bodies observed under overload"
    );
    let known = [200u16, 400, 404, 405, 413, 429, 431, 500, 503];
    for status in tally.statuses.keys() {
        assert!(known.contains(status), "unexpected status {status}");
    }
    // Hostile invariant: every hostile request that was not shed got
    // its typed refusal.
    for (kind, want, _) in HOSTILE {
        for status in tally.hostile.get(kind).into_iter().flat_map(HashMap::keys) {
            assert!(
                [want, 429, 503].contains(status),
                "hostile {kind} answered {status}, not {want}"
            );
        }
    }

    // Back-off invariant: every shed costs its client at least
    // RETRY_AFTER_MS, so no client can be shed more often than that.
    let shed_bound = cfg.duration.as_millis() as u64 / RETRY_AFTER_MS + 1;
    assert!(
        most_sheds <= shed_bound,
        "a closed-loop client was shed {most_sheds} times in {:?} (bound {shed_bound})",
        cfg.duration
    );

    let reg_stats = backend.stats();
    let shard_rows = backend.per_shard();
    let shed_queue = stat_u64(&server_stats, "server", "shed_queue_full");
    let shed_client = stat_u64(&server_stats, "server", "shed_per_client");
    let panics_contained = stat_u64(&server_stats, "server", "panics_contained");

    // Liveness invariant: every injected panic was contained (the
    // server's counter can exceed ours only if a storm conn tripped
    // one, never fall short).
    assert!(
        panics_contained >= panics_sent.load(Ordering::Relaxed),
        "injected {} panics but the server contained {} (statuses {:?}, kinds {:?})",
        panics_sent.load(Ordering::Relaxed),
        panics_contained,
        tally.statuses,
        tally.kinds
    );

    handle.shutdown();
    if let Backend::Sharded(router) = &backend {
        router.shutdown();
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // ----- report -----
    let mut endpoint_rows: Vec<(String, Json)> = Vec::new();
    let _ = writeln!(
        out,
        "  endpoint     count     p50(µs)     p99(µs)    p999(µs)     max(µs)"
    );
    let mut endpoints: Vec<&&str> = tally.latencies.keys().collect();
    endpoints.sort();
    for &&endpoint in &endpoints {
        let mut lats = tally.latencies[endpoint].clone();
        lats.sort_unstable();
        let (p50, p99, p999) = (
            percentile(&lats, 50.0),
            percentile(&lats, 99.0),
            percentile(&lats, 99.9),
        );
        let max = lats.last().copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "  {endpoint:<10} {:>7} {p50:>11} {p99:>11} {p999:>11} {max:>11}",
            lats.len()
        );
        endpoint_rows.push((
            endpoint.to_string(),
            Json::Obj(vec![
                ("count".into(), Json::uint(lats.len() as u64)),
                ("max_us".into(), Json::uint(max)),
                ("p50_us".into(), Json::uint(p50)),
                ("p99_us".into(), Json::uint(p99)),
                ("p999_us".into(), Json::uint(p999)),
            ]),
        ));
    }

    let mut statuses: Vec<(u16, u64)> = tally.statuses.iter().map(|(&s, &n)| (s, n)).collect();
    statuses.sort();
    let status_line = statuses
        .iter()
        .map(|(s, n)| format!("{s}:{n}"))
        .collect::<Vec<_>>()
        .join(" ");
    let _ = writeln!(out, "  statuses: {status_line}");
    let mut kinds: Vec<(&String, &u64)> = tally.kinds.iter().collect();
    kinds.sort();
    let kind_line = kinds
        .iter()
        .map(|(k, n)| format!("{k}:{n}"))
        .collect::<Vec<_>>()
        .join(" ");
    let _ = writeln!(out, "  error kinds: {kind_line}");
    let mut hostile_rows = Vec::new();
    for (kind, _, _) in HOSTILE {
        let mut counts: Vec<(u16, u64)> = tally
            .hostile
            .get(kind)
            .map(|m| m.iter().map(|(&s, &n)| (s, n)).collect())
            .unwrap_or_default();
        counts.sort();
        let line = counts
            .iter()
            .map(|(s, n)| format!("{s}:{n}"))
            .collect::<Vec<_>>();
        let _ = writeln!(out, "  hostile {kind}: {}", line.join(" "));
        let row = counts.iter().map(|&(s, n)| (s.to_string(), Json::uint(n)));
        hostile_rows.push((kind.to_string(), Json::Obj(row.collect())));
    }
    let _ = writeln!(
        out,
        "  sheds: queue-full {shed_queue}, per-client {shed_client}; \
         storm opened {storm_opened} conns; {} reconnects; \
         most sheds of one client {most_sheds} (bound {shed_bound})",
        tally.reconnects
    );
    let _ = writeln!(
        out,
        "  registry: {} evictions, {} shed hydrations, resident {} B, unreclaimed {} B",
        reg_stats.evictions,
        reg_stats.shed_hydrations,
        reg_stats.resident_bytes,
        reg_stats.unreclaimed_bytes
    );
    for (id, s) in &shard_rows {
        let _ = writeln!(
            out,
            "    shard {id}: {} evictions, {} thrash-shed hydrations, \
             {} resident engine(s), resident {} B, unreclaimed {} B",
            s.evictions,
            s.shed_hydrations,
            s.resident_engines,
            s.resident_bytes,
            s.unreclaimed_bytes
        );
    }
    let max_rss = rss_samples.iter().map(|&(r, _)| r).max().unwrap_or(0);
    let max_drift = rss_samples
        .iter()
        .map(|&(rss, fp)| rss.saturating_sub(fp))
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "  rss: max {} B, max rss-vs-footprint drift {} B over {} samples",
        max_rss,
        max_drift,
        rss_samples.len()
    );
    let _ = writeln!(
        out,
        "  panics: injected {}, contained {} — all workers alive at end",
        panics_sent.load(Ordering::Relaxed),
        panics_contained
    );

    let report = Json::Obj(vec![
        (
            "config".into(),
            Json::Obj(vec![
                ("budget_bytes".into(), Json::uint(budget as u64)),
                ("clients".into(), Json::uint(cfg.clients as u64)),
                ("documents".into(), Json::uint(cfg.documents as u64)),
                ("duration_s".into(), Json::uint(cfg.duration.as_secs())),
                ("seed".into(), Json::uint(cfg.seed)),
                ("shards".into(), Json::uint(cfg.shards as u64)),
                ("total_nodes".into(), Json::uint(cfg.total_nodes as u64)),
                ("workers".into(), Json::uint(WORKERS as u64)),
            ]),
        ),
        ("endpoints".into(), Json::Obj(endpoint_rows)),
        ("hostile".into(), Json::Obj(hostile_rows)),
        (
            "panics".into(),
            Json::Obj(vec![
                ("contained".into(), Json::uint(panics_contained)),
                (
                    "injected".into(),
                    Json::uint(panics_sent.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "registry".into(),
            Json::Obj(vec![
                ("corpus_bytes".into(), Json::uint(corpus_bytes as u64)),
                ("evictions".into(), Json::uint(reg_stats.evictions)),
                (
                    "hydrate_max_us".into(),
                    Json::uint(reg_stats.hydrate_max_us),
                ),
                (
                    "hydrate_p50_us".into(),
                    Json::uint(reg_stats.hydrate_p50_us),
                ),
                ("hydrations".into(), Json::uint(reg_stats.hydrations)),
                (
                    "resident_bytes".into(),
                    Json::uint(reg_stats.resident_bytes as u64),
                ),
                (
                    "shed_hydrations".into(),
                    Json::uint(reg_stats.shed_hydrations),
                ),
                (
                    "unreclaimed_bytes".into(),
                    Json::uint(reg_stats.unreclaimed_bytes as u64),
                ),
            ]),
        ),
        (
            "rss".into(),
            Json::Obj(vec![
                ("max_drift_bytes".into(), Json::uint(max_drift)),
                ("max_rss_bytes".into(), Json::uint(max_rss)),
                ("samples".into(), Json::uint(rss_samples.len() as u64)),
            ]),
        ),
        (
            "shards".into(),
            Json::Arr(
                shard_rows
                    .iter()
                    .map(|(id, s)| {
                        Json::Obj(vec![
                            ("evictions".into(), Json::uint(s.evictions)),
                            ("id".into(), Json::uint(*id)),
                            ("resident_bytes".into(), Json::uint(s.resident_bytes as u64)),
                            (
                                "resident_engines".into(),
                                Json::uint(s.resident_engines as u64),
                            ),
                            ("shed_hydrations".into(), Json::uint(s.shed_hydrations)),
                            (
                                "unreclaimed_bytes".into(),
                                Json::uint(s.unreclaimed_bytes as u64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sheds".into(),
            Json::Obj(vec![
                ("most_of_one_client".into(), Json::uint(most_sheds)),
                ("per_client".into(), Json::uint(shed_client)),
                ("queue_full".into(), Json::uint(shed_queue)),
                ("storm_connections".into(), Json::uint(storm_opened)),
            ]),
        ),
        (
            "statuses".into(),
            Json::Obj(
                statuses
                    .iter()
                    .map(|&(s, n)| (s.to_string(), Json::uint(n)))
                    .collect(),
            ),
        ),
    ]);
    let path = "BENCH_soak.json";
    match std::fs::write(path, format!("{report}\n")) {
        Ok(()) => {
            let _ = writeln!(out, "wrote {path}");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write {path}: {e}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cum_is_monotonic_and_skewed() {
        let cum = zipf_cum(10);
        assert_eq!(cum.len(), 10);
        assert!(cum.windows(2).all(|w| w[0] < w[1]));
        // Rank 0's mass is the largest single share.
        assert!(cum[0] > cum[9] - cum[8]);
    }

    #[test]
    fn zipf_pick_prefers_the_head() {
        let cum = zipf_cum(20);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 20];
        for _ in 0..10_000 {
            counts[zipf_pick(&cum, &mut rng)] += 1;
        }
        assert!(counts[0] > counts[19] * 3, "head {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn rss_reads_on_linux() {
        // On Linux this must be non-zero; elsewhere 0 is the contract.
        if cfg!(target_os = "linux") {
            assert!(rss_bytes() > 0);
        }
    }

    /// Both mini soaks write `BENCH_soak.json` in the working
    /// directory — serialize them so neither reads the other's file.
    static REPORT_FILE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A miniature end-to-end soak — seconds, not minutes — exercising
    /// the whole harness: corpus build, overload, panic injection,
    /// invariant checks, and the JSON report.
    #[test]
    fn mini_soak_completes_with_typed_responses() {
        let _guard = REPORT_FILE.lock().unwrap_or_else(|p| p.into_inner());
        let cfg = SoakConfig {
            duration: Duration::from_secs(3),
            documents: 6,
            total_nodes: 12_000,
            budget: 0,
            clients: 3,
            seed: 7,
            shards: 0,
        };
        let report = soak(&cfg);
        assert!(report.contains("wrote BENCH_soak.json"));
        assert!(report.contains("all workers alive"));
        let written = std::fs::read_to_string("BENCH_soak.json").expect("report file");
        let parsed = Json::parse(written.trim()).expect("canonical JSON");
        assert!(parsed.get("endpoints").is_some());
        assert!(parsed.get("sheds").is_some());
        let hostile = parsed.get("hostile").expect("hostile section");
        for (kind, _, _) in HOSTILE {
            assert!(hostile.get(kind).is_some(), "hostile row {kind}");
        }
        assert_eq!(
            parsed.get("shards").and_then(Json::as_arr).map(|a| a.len()),
            Some(0)
        );
    }

    /// The same harness against the sharded router: the report must
    /// carry one eviction/shed/thrash row per shard.
    #[test]
    fn mini_sharded_soak_reports_per_shard_counters() {
        let _guard = REPORT_FILE.lock().unwrap_or_else(|p| p.into_inner());
        let cfg = SoakConfig {
            duration: Duration::from_secs(3),
            documents: 6,
            total_nodes: 12_000,
            budget: 0,
            clients: 3,
            seed: 7,
            shards: 2,
        };
        let report = soak(&cfg);
        assert!(report.contains("wrote BENCH_soak.json"));
        assert!(report.contains("2 shard(s)"));
        assert!(report.contains("shard 0:"));
        assert!(report.contains("shard 1:"));
        let written = std::fs::read_to_string("BENCH_soak.json").expect("report file");
        let parsed = Json::parse(written.trim()).expect("canonical JSON");
        let rows = parsed
            .get("shards")
            .and_then(Json::as_arr)
            .expect("shards array");
        assert_eq!(rows.len(), 2);
        for row in rows {
            for key in ["evictions", "id", "resident_bytes", "shed_hydrations"] {
                assert!(row.get(key).is_some(), "shard row missing {key}");
            }
        }
    }
}
