//! The HTTP serving layer: [`Server`] — a threaded HTTP/1.1 JSON
//! front end over an [`EngineRegistry`].
//!
//! The build is offline, so this is a dependency-free server on
//! `std::net` alone: a blocking accept loop feeds a bounded connection
//! queue drained by a fixed pool of worker threads, every worker speaks
//! plain HTTP/1.1 (persistent connections included), and every body on
//! the wire is the canonical JSON of [`crate::json`] — the exact bytes
//! [`crate::api::Query::to_json_string`] and
//! [`crate::api::QueryResponse::to_json_string`] produce. Because the
//! registry and its engines are `Send + Sync`, all workers share one
//! warm cache set: a query repeated by any client reuses the rewrites
//! computed for every other client.
//!
//! # Routes
//!
//! | Route                  | Body in                      | Body out |
//! |------------------------|------------------------------|----------|
//! | `POST /query/<engine>` | one [`Query`] | one [`QueryResponse`]: `run()`'s response, its `answers` byte-identical to a direct run |
//! | `POST /batch`          | JSON array of `{"engine":…,"query":…}` | `{"results":[…]}`, one response or error object per request |
//! | `POST /topk`           | `{"engines":[…],"query":…}` (top-k query; `engines` optional) | `{"answers":[…],"k":…}` — the best *k* answers across the named (default: all known) engines in the pinned cross-engine order (see [`crate::router`]) |
//! | `POST /aggregate`      | `{"engines":[…],"query":…}` (aggregate query; `engines` optional) | `{"engines":[…],"func":…,"value":…}` — per-engine rows + marginals in name-ascending order, and the fleet value folded by [`crate::aggregate::merge_marginals`] |
//! | `GET /engines`         | —                            | registry listing with `approx_bytes`, eviction count, on-disk snapshots |
//! | `GET /stats`           | —                            | per-engine request/plan/cache aggregates + latency percentiles |
//! | `GET /healthz`         | —                            | `{"status":"ok"}` |
//!
//! The same serving shell (accept loop, worker pool, admission control,
//! panic containment) also fronts the sharded deployment: a
//! [`crate::router::Router`] binds it with its own routing, which
//! resolves each engine name to its owning shard's in-process registry,
//! runs the same route code as above, and adds `GET /shards`.
//!
//! Failures never panic a worker: every error is a typed
//! [`UxmError`] rendered as `{"error":{"kind":…,"message":…}}` with the
//! status mapped from the error's kind (unknown engine → 404, malformed
//! request → 400, storage/I-O trouble → 500, oversized body → 413).
//! Even a request handler that *does* panic is contained: the one
//! request is answered with a typed 500 and the worker (and every
//! shared lock) keeps serving. The full wire grammar lives in
//! `docs/wire-format.md`.
//!
//! # Admission control
//!
//! Overload degrades into fast typed refusals, never an unbounded
//! backlog or a wedged accept loop:
//!
//! * a full connection queue ([`ServerConfig::queue_depth`]) sheds new
//!   connections with **503** (`"kind":"overloaded"`, `Retry-After`
//!   set) straight from the accept loop;
//! * one client IP holding more than
//!   [`ServerConfig::max_conns_per_client`] connections is shed with
//!   **429** (`"kind":"rate-limited"`, `Retry-After` set);
//! * a registry whose working set exceeds its memory budget refuses
//!   cold hydrations with **503** while evictions are thrashing (see
//!   [`crate::registry::RegistryConfig::thrash_evictions`]).
//!
//! Shed counts and contained panics are reported in the `"server"`
//! section of `GET /stats`; registry memory accounting (including
//! `unreclaimed_bytes`, the footprint of evicted-but-still-referenced
//! engines) in its `"registry"` section.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use uxm_core::api::Query;
//! use uxm_core::block_tree::BlockTreeConfig;
//! use uxm_core::engine::QueryEngine;
//! use uxm_core::mapping::PossibleMappings;
//! use uxm_core::registry::EngineRegistry;
//! use uxm_core::server::{Client, Server, ServerConfig};
//! use uxm_matching::Matcher;
//! use uxm_twig::TwigPattern;
//! use uxm_xml::{DocGenConfig, Document, Schema};
//!
//! // One small engine behind a registry...
//! let source = Schema::parse_outline("Order(Buyer(Name) Item(Price))").unwrap();
//! let target = Schema::parse_outline("PO(Vendor(ContactName) Line(UnitPrice))").unwrap();
//! let matching = Matcher::default().match_schemas(&source, &target);
//! let pm = PossibleMappings::top_h(&matching, 8);
//! let doc = Document::generate(&source, &DocGenConfig::small(), 7);
//! let registry = Arc::new(EngineRegistry::new());
//! let engine = registry.insert("orders", QueryEngine::build(pm, doc, &BlockTreeConfig::default()));
//!
//! // ...served over a real socket by two workers.
//! let server = Server::bind(
//!     Arc::clone(&registry),
//!     "127.0.0.1:0",
//!     ServerConfig { workers: 2, ..ServerConfig::default() },
//! )
//! .unwrap();
//! let handle = server.start();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let (status, body) = client.get("/healthz").unwrap();
//! assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
//!
//! // A served query returns the same answer bytes as a direct engine
//! // run (`stats.elapsed_us` is wall time, so whole bodies differ).
//! use uxm_core::json::Json;
//! let query = Query::ptq(TwigPattern::parse("PO//ContactName").unwrap());
//! let (status, body) = client.query("orders", &query).unwrap();
//! assert_eq!(status, 200);
//! let served = Json::parse(&body).unwrap();
//! let direct = engine.run(&query).unwrap().to_json();
//! assert_eq!(
//!     served.get("answers").unwrap().to_string(),
//!     direct.get("answers").unwrap().to_string(),
//! );
//!
//! handle.shutdown(); // graceful: in-flight requests complete first
//! ```

#![deny(missing_docs)]

use crate::api::{Query, QueryResponse};
use crate::engine::QueryEngine;
use crate::error::UxmError;
use crate::exec::Explain;
use crate::json::{Json, Writer};
use crate::planner::Evaluator;
use crate::registry::{BatchQuery, EngineRegistry};
use crate::sync;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

// ---------------------------------------------------------------------
// configuration

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads draining the connection queue; `0` means
    /// `available_parallelism`.
    pub workers: usize,
    /// Largest accepted request body, in bytes; beyond it the request is
    /// rejected with HTTP 413 and the connection closes. Default 1 MiB.
    pub max_body_bytes: usize,
    /// Connections the accept loop may queue ahead of the workers.
    /// Arrivals beyond this depth are **shed**: answered inline with a
    /// typed 503 (`kind":"overloaded"`, `Retry-After` set) and closed,
    /// instead of blocking the accept loop — under overload the server
    /// stays responsive and tells clients to back off. Default 1024.
    pub queue_depth: usize,
    /// How long a worker waits on a persistent connection — for the next
    /// request to *start*, and for a started request to finish arriving —
    /// before closing it. Bounds worker occupancy: idle keep-alive
    /// clients (and slow-loris senders) release their worker after this
    /// long instead of pinning it forever. Default 5 s.
    pub keep_alive_timeout: Duration,
    /// Per-client fairness: the most connections one peer IP may hold
    /// (queued plus being served) before its next connection is shed
    /// with a typed 429 (`"kind":"rate-limited"`, `Retry-After` set).
    /// Keeps one hot client from occupying the whole queue and starving
    /// everyone else. `0` disables the cap. Default 256.
    pub max_conns_per_client: usize,
    /// The back-off hint carried in `Retry-After` headers (rounded up
    /// to whole seconds on the wire) and in shed error bodies.
    /// Default 250 ms.
    pub retry_after_ms: u64,
    /// Test instrumentation: when set, `POST /debug/panic` panics inside
    /// the request handler. The panic is contained (answered with a
    /// typed 500, worker and locks keep serving) — this route exists so
    /// tests and the soak harness can prove that. Off by default and
    /// never enabled by `uxm serve`.
    pub debug_panic_route: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            max_body_bytes: 1 << 20,
            queue_depth: 1024,
            keep_alive_timeout: Duration::from_secs(5),
            max_conns_per_client: 256,
            retry_after_ms: 250,
            debug_panic_route: false,
        }
    }
}

impl ServerConfig {
    /// The worker count actually spawned: `workers`, with `0` resolving
    /// to `available_parallelism` (what `uxm serve` reports at startup).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    }
}

// ---------------------------------------------------------------------
// statistics

/// Bucket `i` of the latency histogram counts evaluations with
/// `elapsed_us < 2^(i+1)`; the last bucket is unbounded. 26 buckets
/// cover 2 µs … ~67 s.
const LATENCY_BUCKETS: usize = 26;

/// A fixed-bucket (powers-of-two) latency histogram with lock-free
/// recording; percentiles are read back as the upper bound of the
/// bucket holding the requested rank, clamped to the observed maximum.
struct Latency {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Latency {
    fn new() -> Latency {
        Latency {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn record(&self, us: u64) {
        let bucket = (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// The `pct`-th percentile in microseconds (0 when nothing recorded).
    fn percentile(&self, pct: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let target = (((pct / 100.0) * count as f64).ceil() as u64).clamp(1, count);
        let max = self.max_us.load(Ordering::Relaxed);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                let upper = if i + 1 >= LATENCY_BUCKETS {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
                return upper.min(max);
            }
        }
        max
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "count".into(),
                Json::uint(self.count.load(Ordering::Relaxed)),
            ),
            (
                "max".into(),
                Json::uint(self.max_us.load(Ordering::Relaxed)),
            ),
            ("p50".into(), Json::uint(self.percentile(50.0))),
            ("p90".into(), Json::uint(self.percentile(90.0))),
            ("p99".into(), Json::uint(self.percentile(99.0))),
        ])
    }
}

/// Per-engine aggregates behind `GET /stats`.
struct EngineCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    plans_naive: AtomicU64,
    plans_block_tree: AtomicU64,
    plans_compiled: AtomicU64,
    /// The backend that actually executed (`ExecStats::backend`).
    backends_naive: AtomicU64,
    backends_block_tree: AtomicU64,
    backends_compiled: AtomicU64,
    program_cache_hits: AtomicU64,
    program_cache_misses: AtomicU64,
    rewrite_hits: AtomicU64,
    rewrite_misses: AtomicU64,
    /// Engine evaluation time per request ([`crate::api::ExecStats`]'
    /// `elapsed_us`), so the histogram measures serving work, not
    /// socket weather.
    latency: Latency,
}

impl EngineCounters {
    fn new() -> EngineCounters {
        EngineCounters {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            plans_naive: AtomicU64::new(0),
            plans_block_tree: AtomicU64::new(0),
            plans_compiled: AtomicU64::new(0),
            backends_naive: AtomicU64::new(0),
            backends_block_tree: AtomicU64::new(0),
            backends_compiled: AtomicU64::new(0),
            program_cache_hits: AtomicU64::new(0),
            program_cache_misses: AtomicU64::new(0),
            rewrite_hits: AtomicU64::new(0),
            rewrite_misses: AtomicU64::new(0),
            latency: Latency::new(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "backends".into(),
                Json::Obj(vec![
                    (
                        "block-tree".into(),
                        Json::uint(self.backends_block_tree.load(Ordering::Relaxed)),
                    ),
                    (
                        "compiled".into(),
                        Json::uint(self.backends_compiled.load(Ordering::Relaxed)),
                    ),
                    (
                        "naive".into(),
                        Json::uint(self.backends_naive.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "errors".into(),
                Json::uint(self.errors.load(Ordering::Relaxed)),
            ),
            ("latency_us".into(), self.latency.to_json()),
            (
                "plans".into(),
                Json::Obj(vec![
                    (
                        "block-tree".into(),
                        Json::uint(self.plans_block_tree.load(Ordering::Relaxed)),
                    ),
                    (
                        "compiled".into(),
                        Json::uint(self.plans_compiled.load(Ordering::Relaxed)),
                    ),
                    (
                        "naive".into(),
                        Json::uint(self.plans_naive.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "program_cache".into(),
                Json::Obj(vec![
                    (
                        "hits".into(),
                        Json::uint(self.program_cache_hits.load(Ordering::Relaxed)),
                    ),
                    (
                        "misses".into(),
                        Json::uint(self.program_cache_misses.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "requests".into(),
                Json::uint(self.requests.load(Ordering::Relaxed)),
            ),
            (
                "rewrite_hits".into(),
                Json::uint(self.rewrite_hits.load(Ordering::Relaxed)),
            ),
            (
                "rewrite_misses".into(),
                Json::uint(self.rewrite_misses.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// Server-wide counters plus the per-engine map. Engines enter the map
/// on their first *successfully resolved* request — requests naming
/// unknown engines only count server-wide, so garbage names cannot grow
/// the map without bound.
pub(crate) struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    http_errors: AtomicU64,
    /// Connections shed with 503 because the queue was full.
    shed_queue_full: AtomicU64,
    /// Connections shed with 429 because one client held too many.
    shed_per_client: AtomicU64,
    /// Request-handler panics contained (answered 500, worker kept).
    panics_contained: AtomicU64,
    engines: RwLock<HashMap<String, Arc<EngineCounters>>>,
}

impl ServerStats {
    fn new() -> ServerStats {
        ServerStats {
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            http_errors: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_per_client: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            engines: RwLock::new(HashMap::new()),
        }
    }

    fn engine(&self, name: &str) -> Arc<EngineCounters> {
        if let Some(c) = sync::read(&self.engines).get(name) {
            return Arc::clone(c);
        }
        let mut map = sync::write(&self.engines);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(EngineCounters::new())),
        )
    }

    /// Records one resolved request's outcome under `name`.
    fn record(&self, name: &str, outcome: &Result<crate::api::QueryResponse, UxmError>) {
        let c = self.engine(name);
        c.requests.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(response) => {
                match response.stats.plan.evaluator {
                    Evaluator::Naive => c.plans_naive.fetch_add(1, Ordering::Relaxed),
                    Evaluator::BlockTree => c.plans_block_tree.fetch_add(1, Ordering::Relaxed),
                    Evaluator::Compiled => c.plans_compiled.fetch_add(1, Ordering::Relaxed),
                };
                match response.stats.backend {
                    Evaluator::Naive => c.backends_naive.fetch_add(1, Ordering::Relaxed),
                    Evaluator::BlockTree => c.backends_block_tree.fetch_add(1, Ordering::Relaxed),
                    Evaluator::Compiled => c.backends_compiled.fetch_add(1, Ordering::Relaxed),
                };
                c.program_cache_hits
                    .fetch_add(response.stats.program_cache_hits, Ordering::Relaxed);
                c.program_cache_misses
                    .fetch_add(response.stats.program_cache_misses, Ordering::Relaxed);
                c.rewrite_hits
                    .fetch_add(response.stats.rewrite_hits, Ordering::Relaxed);
                c.rewrite_misses
                    .fetch_add(response.stats.rewrite_misses, Ordering::Relaxed);
                c.latency.record(response.stats.elapsed_us);
            }
            Err(_) => {
                c.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        let map = sync::read(&self.engines);
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        let engines = names
            .into_iter()
            .map(|n| (n.clone(), map[n].to_json()))
            .collect();
        Json::Obj(vec![
            ("engines".into(), Json::Obj(engines)),
            (
                "server".into(),
                Json::Obj(vec![
                    (
                        "connections".into(),
                        Json::uint(self.connections.load(Ordering::Relaxed)),
                    ),
                    (
                        "http_errors".into(),
                        Json::uint(self.http_errors.load(Ordering::Relaxed)),
                    ),
                    (
                        "panics_contained".into(),
                        Json::uint(self.panics_contained.load(Ordering::Relaxed)),
                    ),
                    (
                        "requests".into(),
                        Json::uint(self.requests.load(Ordering::Relaxed)),
                    ),
                    (
                        "shed_per_client".into(),
                        Json::uint(self.shed_per_client.load(Ordering::Relaxed)),
                    ),
                    (
                        "shed_queue_full".into(),
                        Json::uint(self.shed_queue_full.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// the server

/// The connection queue between the accept loop and the workers. Each
/// entry remembers the peer IP so the per-client connection count can
/// be released when the worker finishes with it.
struct Queue {
    conns: VecDeque<(TcpStream, IpAddr)>,
    /// Set once the accept loop exits; workers drain what is queued,
    /// then stop.
    closed: bool,
}

/// The routing half of a server: maps one parsed request to a status
/// and a canonical-JSON body. A single [`EngineRegistry`] and the shard
/// router ([`crate::router::Router`]) plug into the same serving shell
/// (accept loop, worker pool, admission control, panic containment)
/// through this trait.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Routes one request.
    fn handle(&self, stats: &ServerStats, request: &Request) -> (u16, String);
}

struct Shared {
    handler: Arc<dyn Handler>,
    config: ServerConfig,
    stats: ServerStats,
    queue: Mutex<Queue>,
    /// Signals workers that a connection (or closure) is available.
    available: Condvar,
    /// Live (queued + serving) connection count per peer IP, for the
    /// per-client fairness cap.
    clients: Mutex<HashMap<IpAddr, u64>>,
    shutdown: AtomicBool,
}

/// A bound-but-not-yet-serving server: the socket is listening (so
/// [`Server::local_addr`] is final and clients may already connect and
/// queue in the OS backlog), but no thread runs until [`Server::start`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A running server; dropping the handle **without** calling
/// [`ServerHandle::shutdown`] detaches the threads (they keep serving
/// until the process exits — what `uxm serve` wants).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port)
    /// over `registry`. The registry is shared — inserts, saves, and
    /// evictions made elsewhere are visible to the server immediately.
    pub fn bind(
        registry: Arc<EngineRegistry>,
        addr: impl ToSocketAddrs + std::fmt::Display,
        config: ServerConfig,
    ) -> Result<Server, UxmError> {
        Server::bind_handler(registry, addr, config)
    }

    /// [`Server::bind`] over any [`Handler`] — how the router reuses
    /// the serving shell with its own routing.
    pub(crate) fn bind_handler(
        handler: Arc<dyn Handler>,
        addr: impl ToSocketAddrs + std::fmt::Display,
        config: ServerConfig,
    ) -> Result<Server, UxmError> {
        let listener = TcpListener::bind(&addr).map_err(|e| UxmError::io(&addr, e))?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                handler,
                config,
                stats: ServerStats::new(),
                queue: Mutex::new(Queue {
                    conns: VecDeque::new(),
                    closed: false,
                }),
                available: Condvar::new(),
                clients: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address — the real port when `addr` asked for `:0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Spawns the accept loop and the worker pool and returns the
    /// running server's handle.
    pub fn start(self) -> ServerHandle {
        let addr = self.local_addr();
        let workers = (0..self.shared.config.effective_workers())
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("uxm-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let accept = std::thread::Builder::new()
            .name("uxm-accept".into())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn accept loop");
        ServerHandle {
            addr,
            shared: self.shared,
            accept,
            workers,
        }
    }
}

impl ServerHandle {
    /// The address the server answers on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server stops (which, short of
    /// [`ServerHandle::shutdown`] from another thread, is never) —
    /// `uxm serve`'s foreground mode.
    pub fn wait(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Graceful stop: the listener closes, queued connections are
    /// drained, in-flight requests run to completion and their
    /// responses are written (with `Connection: close`) before the
    /// workers exit.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Writes a typed shed response (429/503 with `Retry-After`) straight
/// from the accept loop and closes the connection. A short write
/// timeout keeps a non-reading peer from stalling accepts.
fn shed(shared: &Shared, mut stream: TcpStream, status: u16, error: &UxmError) {
    stream.set_nodelay(true).ok();
    stream
        .set_write_timeout(Some(Duration::from_millis(250)))
        .ok();
    shared.stats.http_errors.fetch_add(1, Ordering::Relaxed);
    let _ = write_response_with(
        &mut stream,
        status,
        &error_body(error),
        false,
        Some(shared.config.retry_after_ms),
    );
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let conn = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, peer)) = conn else {
            // Persistent accept failures (e.g. EMFILE under fd
            // exhaustion) must not hot-loop the accept thread; back off
            // a tick so the workers can drain and release descriptors.
            std::thread::sleep(READ_TICK);
            continue;
        };
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        let ip = peer.ip();

        // Per-client fairness: one peer holding its cap's worth of
        // connections gets 429s, not more of the queue.
        let cap = shared.config.max_conns_per_client;
        if !try_acquire_client(shared, ip) {
            shared.stats.shed_per_client.fetch_add(1, Ordering::Relaxed);
            shed(
                shared,
                stream,
                429,
                &UxmError::RateLimited {
                    reason: format!("client holds {cap} connections (the per-client cap)"),
                    retry_after_ms: shared.config.retry_after_ms,
                },
            );
            continue;
        }

        // Load shedding: a full queue answers 503 immediately instead of
        // blocking the accept loop until a worker frees space — overload
        // degrades into fast typed refusals, never an unbounded backlog.
        let mut queue = sync::lock(&shared.queue);
        if queue.conns.len() >= shared.config.queue_depth {
            drop(queue);
            release_client(shared, ip);
            shared.stats.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            shed(
                shared,
                stream,
                503,
                &UxmError::Overloaded {
                    reason: format!(
                        "connection queue full ({} waiting)",
                        shared.config.queue_depth
                    ),
                    retry_after_ms: shared.config.retry_after_ms,
                },
            );
            continue;
        }
        queue.conns.push_back((stream, ip));
        drop(queue);
        shared.available.notify_one();
    }
    let mut queue = sync::lock(&shared.queue);
    queue.closed = true;
    drop(queue);
    shared.available.notify_all();
}

/// Takes one unit of `ip`'s per-client connection count; `false` means
/// the client is at its cap and the connection must be shed.
fn try_acquire_client(shared: &Shared, ip: IpAddr) -> bool {
    let cap = shared.config.max_conns_per_client;
    if cap == 0 {
        return true;
    }
    let mut clients = sync::lock(&shared.clients);
    let held = clients.entry(ip).or_insert(0);
    if *held >= cap as u64 {
        return false;
    }
    *held += 1;
    true
}

/// Releases one unit of `ip`'s per-client connection count.
fn release_client(shared: &Shared, ip: IpAddr) {
    if shared.config.max_conns_per_client == 0 {
        return;
    }
    let mut clients = sync::lock(&shared.clients);
    if let Some(held) = clients.get_mut(&ip) {
        *held = held.saturating_sub(1);
        if *held == 0 {
            clients.remove(&ip);
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let next = {
            let mut queue = sync::lock(&shared.queue);
            loop {
                if let Some(entry) = queue.conns.pop_front() {
                    break Some(entry);
                }
                if queue.closed {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match next {
            Some((stream, ip)) => {
                // A panic anywhere in connection handling is contained
                // to this one connection: the worker survives, and the
                // per-client count is released either way.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = serve_connection(shared, stream);
                }));
                release_client(shared, ip);
                if result.is_err() {
                    shared
                        .stats
                        .panics_contained
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            None => return,
        }
    }
}

// ---------------------------------------------------------------------
// one connection

/// How long a blocked read sleeps before re-checking the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(25);

/// One parsed HTTP request, as the [`Handler`] sees it.
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) body: String,
    keep_alive: bool,
}

enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed (or shutdown arrived while idle): close quietly.
    Closed,
    /// Protocol trouble: respond with this status/error, then close.
    Reject(u16, UxmError),
}

/// Serves one connection until the peer closes, the keep-alive budget
/// runs out, or an error response ends it.
fn serve_connection(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK)).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        // One budget covers both waiting for the next request to start
        // and receiving it in full, so neither an idle keep-alive peer
        // nor a slow sender can pin this worker past the timeout.
        let deadline = std::time::Instant::now() + shared.config.keep_alive_timeout;
        let request = match read_request(shared, &mut reader, deadline) {
            Ok(ReadOutcome::Request(r)) => r,
            Ok(ReadOutcome::Closed) | Err(_) => return Ok(()),
            Ok(ReadOutcome::Reject(status, error)) => {
                shared.stats.http_errors.fetch_add(1, Ordering::Relaxed);
                write_response(&mut writer, status, &error_body(&error), false)?;
                return Ok(());
            }
        };
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let mut keep_alive = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
        // A handler panic is contained to this one request: the worker
        // answers a typed 500 and keeps serving (the shared locks are
        // poison-tolerant, so other workers never notice).
        let (status, body) = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            route(shared, &request)
        })) {
            Ok(answer) => answer,
            Err(panic) => {
                shared
                    .stats
                    .panics_contained
                    .fetch_add(1, Ordering::Relaxed);
                keep_alive = false;
                let msg = panic_message(&panic);
                let e = UxmError::Internal(format!("request handler panicked: {msg}"));
                (500, error_body(&e))
            }
        };
        if status >= 400 {
            shared.stats.http_errors.fetch_add(1, Ordering::Relaxed);
        }
        let retry_after = matches!(status, 429 | 503).then_some(shared.config.retry_after_ms);
        write_response_with(&mut writer, status, &body, keep_alive, retry_after)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Reads one line, retrying on read-timeout ticks until `shutdown` or
/// `deadline` (the partial line survives across retries because
/// `read_line` appends).
fn read_line_patient(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    deadline: std::time::Instant,
) -> std::io::Result<usize> {
    loop {
        match reader.read_line(line) {
            Ok(n) => return Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) || std::time::Instant::now() >= deadline {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn read_request(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    deadline: std::time::Instant,
) -> std::io::Result<ReadOutcome> {
    // Wait for the first byte of a request without consuming anything,
    // so an idle keep-alive connection can notice shutdown (or run out
    // its keep-alive budget and free this worker) and close.
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(ReadOutcome::Closed),
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) || std::time::Instant::now() >= deadline {
                    return Ok(ReadOutcome::Closed);
                }
            }
            Err(e) => return Err(e),
        }
    }

    let reject = |status: u16, msg: String| Ok(ReadOutcome::Reject(status, UxmError::Usage(msg)));

    let mut line = String::new();
    if read_line_patient(shared, reader, &mut line, deadline)? == 0 {
        return Ok(ReadOutcome::Closed);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return reject(400, format!("malformed request line {:?}", line.trim_end()));
    };
    if !version.starts_with("HTTP/1.") {
        return reject(400, format!("unsupported protocol {version:?}"));
    }
    let (method, path) = (method.to_string(), path.to_string());
    // HTTP/1.1 defaults to persistent connections; 1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";

    let mut content_length: Option<usize> = None;
    for _ in 0..100 {
        let mut header = String::new();
        if read_line_patient(shared, reader, &mut header, deadline)? == 0 {
            return Ok(ReadOutcome::Closed);
        }
        let header = header.trim_end();
        if header.is_empty() {
            let body = match content_length {
                None | Some(0) => String::new(),
                Some(len) if len > shared.config.max_body_bytes => {
                    return reject(
                        413,
                        format!(
                            "body of {len} bytes exceeds the {}-byte limit",
                            shared.config.max_body_bytes
                        ),
                    );
                }
                Some(len) => {
                    let mut buf = vec![0u8; len];
                    let mut filled = 0;
                    while filled < len {
                        if std::time::Instant::now() >= deadline {
                            return Ok(ReadOutcome::Closed);
                        }
                        match reader.read(&mut buf[filled..]) {
                            Ok(0) => return Ok(ReadOutcome::Closed),
                            Ok(n) => filled += n,
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                                ) =>
                            {
                                if shared.shutdown.load(Ordering::SeqCst) {
                                    return Ok(ReadOutcome::Closed);
                                }
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    match String::from_utf8(buf) {
                        Ok(s) => s,
                        Err(_) => return reject(400, "body is not valid UTF-8".into()),
                    }
                }
            };
            return Ok(ReadOutcome::Request(Request {
                method,
                path,
                body,
                keep_alive,
            }));
        }
        let Some((name, value)) = header.split_once(':') else {
            return reject(400, format!("malformed header {header:?}"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // `1*DIGIT` only: `usize::from_str` would also take a `+`.
            let len = match value.parse::<usize>() {
                Ok(len) if value.bytes().all(|b| b.is_ascii_digit()) => len,
                _ => return reject(400, format!("bad content-length {value:?}")),
            };
            if content_length.is_some_and(|first| first != len) {
                return reject(
                    400,
                    format!("conflicting content-length headers ({value:?})"),
                );
            }
            content_length = Some(len);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Only content-length framing is implemented. Reading on
            // would take the chunk lines for the next request, so the
            // connection closes after this one answer.
            return reject(
                501,
                format!("transfer-encoding {value:?} is not supported; send a content-length body"),
            );
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    reject(400, "too many headers".into())
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "",
    }
}

fn write_response(
    writer: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_with(writer, status, body, keep_alive, None)
}

/// [`write_response`] plus an optional `Retry-After` header (the HTTP
/// header is whole seconds, so the hint rounds up — never to zero).
fn write_response_with(
    writer: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after_ms: Option<u64>,
) -> std::io::Result<()> {
    let retry_after = match retry_after_ms {
        Some(ms) => format!("retry-after: {}\r\n", ms.div_ceil(1000).max(1)),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-length: {}\r\ncontent-type: application/json\r\n{retry_after}connection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

// ---------------------------------------------------------------------
// routing

/// The canonical error body: `{"error":{"kind":…,"message":…}}`.
pub fn error_body(e: &UxmError) -> String {
    let mut out = String::with_capacity(128);
    write_error(&mut Writer::new(&mut out), e);
    out
}

/// Writes `{"error":{"kind":…,"message":…}}` — an error body, or an
/// inline `/batch` item.
fn write_error(w: &mut Writer<'_>, e: &UxmError) {
    w.begin_obj();
    w.key("error");
    w.begin_obj();
    w.key("kind");
    w.str(e.kind());
    w.key("message");
    w.str(&e.to_string());
    w.end_obj();
    w.end_obj();
}

/// The `POST /query` response body: the response's canonical form,
/// plus an `"explain"` member when `explain` is given (see
/// [`QueryResponse::to_json_string`]).
pub fn query_body(response: &QueryResponse, explain: Option<&Explain>) -> String {
    let explain = explain.map(Explain::to_json);
    let mut out = String::with_capacity(response.json_size_hint());
    response.write_json_with(&mut Writer::new(&mut out), explain.as_ref());
    out
}

/// The `POST /batch` response body, `{"results":[…]}`: per item the
/// response's canonical form or an inline `{"error":…}` object, in
/// order.
pub fn batch_body(results: &[Result<QueryResponse, UxmError>]) -> String {
    let size: usize = results
        .iter()
        .map(|r| r.as_ref().map_or(128, QueryResponse::json_size_hint))
        .sum();
    let mut out = String::with_capacity(16 + size);
    let mut w = Writer::new(&mut out);
    w.begin_obj();
    w.key("results");
    w.begin_arr();
    for outcome in results {
        match outcome {
            Ok(response) => response.write_json(&mut w),
            Err(e) => write_error(&mut w, e),
        }
    }
    w.end_arr();
    w.end_obj();
    out
}

/// The HTTP status carrying `e`: bad inputs are the client's fault
/// (400), unknown names are absences (404), storage/I-O trouble is the
/// server's (500).
pub(crate) fn status_for(e: &UxmError) -> u16 {
    match e {
        UxmError::UnknownEngine(_) => 404,
        UxmError::RateLimited { .. } => 429,
        UxmError::Decode(_)
        | UxmError::Io(_)
        | UxmError::Input(_)
        | UxmError::Internal(_)
        | UxmError::NoSnapshotDir => 500,
        UxmError::Overloaded { .. } | UxmError::ShardUnavailable { .. } => 503,
        _ => 400,
    }
}

/// Generic dispatch: the routes every server kind answers itself
/// (`/healthz`, the debug panic hook), then the bound [`Handler`].
fn route(shared: &Shared, request: &Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "{\"status\":\"ok\"}".into()),
        ("POST", "/debug/panic") if shared.config.debug_panic_route => {
            panic!("debug panic route")
        }
        _ => shared.handler.handle(&shared.stats, request),
    }
}

/// Where the engine routes find their engines: one [`EngineRegistry`],
/// or, behind a [`crate::router::Router`], the registry of each name's
/// owning shard. `/query`, `/batch`, `/topk` and `/aggregate` are
/// written once against this trait ([`route_engines`]).
pub(crate) trait Engines {
    /// The engine under `name`, hydrated when cold
    /// ([`EngineRegistry::fetch`]).
    fn fetch(&self, name: &str) -> Result<Arc<QueryEngine>, UxmError>;
    /// A batch answered in request order ([`EngineRegistry::batch`]).
    fn batch(&self, queries: &[BatchQuery]) -> Vec<Result<QueryResponse, UxmError>>;
    /// Every name that can be served, resident or snapshotted, sorted
    /// and deduplicated.
    fn known_names(&self) -> Vec<String>;
}

impl Engines for EngineRegistry {
    fn fetch(&self, name: &str) -> Result<Arc<QueryEngine>, UxmError> {
        EngineRegistry::fetch(self, name)
    }

    fn batch(&self, queries: &[BatchQuery]) -> Vec<Result<QueryResponse, UxmError>> {
        EngineRegistry::batch(self, queries)
    }

    fn known_names(&self) -> Vec<String> {
        let mut names = self.names();
        names.extend(self.snapshot_names());
        names.sort();
        names.dedup();
        names
    }
}

/// The engine routes every server kind answers the same way over its
/// [`Engines`]: `POST /query/<engine>`, `/batch`, `/topk` and
/// `/aggregate`, plus the 404/405 answers for anything else.
/// `get_routes` lists the kind's own `GET` routes for the 404 message.
pub(crate) fn route_engines(
    engines: &dyn Engines,
    stats: &ServerStats,
    request: &Request,
    get_routes: &str,
) -> (u16, String) {
    let result = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/batch") => handle_batch(engines, stats, &request.body),
        ("POST", "/topk") => crate::router::topk(engines, &request.body),
        ("POST", "/aggregate") => crate::router::aggregate(engines, &request.body),
        ("POST", path) if path.starts_with("/query/") => {
            handle_query(engines, stats, &path["/query/".len()..], &request.body)
        }
        ("GET" | "POST", _) => {
            let e = UxmError::Usage(format!(
                "no route {} {} (POST /query/<engine>, POST /batch, POST /topk, \
                 POST /aggregate, GET {get_routes})",
                request.method, request.path
            ));
            return (404, error_body(&e));
        }
        (method, _) => {
            let e = UxmError::Usage(format!("method {method} not allowed"));
            return (405, error_body(&e));
        }
    };
    match result {
        Ok(body) => (200, body),
        Err(e) => (status_for(&e), error_body(&e)),
    }
}

/// The single-registry routing behind [`Server::bind`]: every route of
/// the module-level table over one [`EngineRegistry`].
impl Handler for EngineRegistry {
    fn handle(&self, stats: &ServerStats, request: &Request) -> (u16, String) {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/engines") => (200, engines_body(self)),
            ("GET", "/stats") => (200, stats_body(self, stats)),
            _ => route_engines(self, stats, request, "/engines|/stats|/healthz"),
        }
    }
}

/// `POST /query/<engine>`: one canonical-JSON [`Query`] in, one
/// [`crate::api::QueryResponse`] out — exactly what
/// [`QueryEngine::run`](crate::engine::QueryEngine::run) returned on
/// the serving engine, serialized canonically (so the `answers`
/// subtree is byte-identical to a direct run; the timing stats are
/// this run's own).
///
/// The body may additionally carry `"explain": true` — a serving-layer
/// envelope option, not part of the query wire format — which adds an
/// `"explain"` object (plan and compiled program listing;
/// see [`crate::exec::Explain`]) to the response.
fn handle_query(
    engines: &dyn Engines,
    stats: &ServerStats,
    name: &str,
    body: &str,
) -> Result<String, UxmError> {
    if name.is_empty() {
        return Err(UxmError::UnknownEngine(String::new()));
    }
    // Strip the envelope option before the strict query parser (which
    // rejects unknown members) sees the object.
    let mut parsed = Json::parse(body)?;
    let explain = match &mut parsed {
        Json::Obj(members) => match members.iter().position(|(k, _)| k == "explain") {
            None => false,
            Some(i) => match members.remove(i).1 {
                Json::Bool(b) => b,
                other => {
                    return Err(UxmError::Json(format!(
                        "explain must be a boolean, got {other}"
                    )))
                }
            },
        },
        _ => false,
    };
    let query = Query::from_json(&parsed)?;
    let engine = engines.fetch(name)?;
    let outcome = engine.run(&query);
    stats.record(name, &outcome);
    let response = outcome?;
    let explanation = explain.then(|| engine.explain(&query)).transpose()?;
    Ok(query_body(&response, explanation.as_ref()))
}

/// `POST /batch`: a JSON array of `{"engine":…,"query":…}` objects in,
/// `{"results":[…]}` out — per entry either a response object or an
/// `{"error":…}` object, in request order (exactly what
/// [`EngineRegistry::batch`] returns).
fn handle_batch(
    engines: &dyn Engines,
    stats: &ServerStats,
    body: &str,
) -> Result<String, UxmError> {
    let parsed = Json::parse(body)?;
    let items = parsed
        .as_arr()
        .ok_or_else(|| UxmError::Json("batch body must be a JSON array".into()))?;
    let queries = items
        .iter()
        .map(BatchQuery::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let answers = engines.batch(&queries);
    for (q, outcome) in queries.iter().zip(&answers) {
        // Unknown-engine failures stay server-level (see ServerStats).
        if !matches!(outcome, Err(UxmError::UnknownEngine(_))) {
            stats.record(&q.engine, outcome);
        }
    }
    Ok(batch_body(&answers))
}

/// `GET /engines`: resident engines with sizes, plus what could be
/// hydrated from the snapshot directory.
fn engines_body(registry: &EngineRegistry) -> String {
    let resident = registry.resident();
    let resident_names: Vec<&str> = resident.iter().map(|(n, _)| n.as_str()).collect();
    let mut entries: Vec<Json> = resident
        .iter()
        .map(|(name, bytes)| {
            Json::Obj(vec![
                ("approx_bytes".into(), Json::uint(*bytes as u64)),
                ("name".into(), Json::str(name)),
                ("resident".into(), Json::Bool(true)),
            ])
        })
        .collect();
    for name in registry.snapshot_names() {
        if !resident_names.contains(&name.as_str()) {
            entries.push(Json::Obj(vec![
                ("name".into(), Json::str(name)),
                ("resident".into(), Json::Bool(false)),
            ]));
        }
    }
    Json::Obj(vec![
        ("engines".into(), Json::Arr(entries)),
        ("evictions".into(), Json::uint(registry.eviction_count())),
        (
            "resident_bytes".into(),
            Json::uint(registry.resident_bytes() as u64),
        ),
        (
            "unreclaimed_bytes".into(),
            Json::uint(registry.unreclaimed_bytes() as u64),
        ),
    ])
    .to_string()
}

/// `GET /stats`: the per-engine and server-wide counters of
/// [`ServerStats`] plus a `"registry"` section with the memory
/// accounting of [`crate::registry::RegistryStats`] — including
/// `unreclaimed_bytes`, the drift between what the LRU budget thinks it
/// freed and what evicted-but-still-referenced engines actually hold —
/// and measured hydration telemetry: total `hydrations`,
/// `hydrate_p50_us` / `hydrate_max_us` wall times, and a per-engine
/// `engines` object (`last_us`, `count`, on-disk `snapshot_version`).
fn stats_body(registry: &EngineRegistry, stats: &ServerStats) -> String {
    let Json::Obj(mut members) = stats.to_json() else {
        unreachable!("ServerStats::to_json is an object");
    };
    // Keys stay alphabetical: engines < registry < server.
    members.insert(1, ("registry".into(), registry_json(registry)));
    Json::Obj(members).to_string()
}

/// The `"registry"` section of `GET /stats`: one registry's memory
/// accounting and hydration telemetry.
pub(crate) fn registry_json(registry: &EngineRegistry) -> Json {
    let r = registry.stats();
    let hydrated: Vec<(String, Json)> = registry
        .hydration_stats()
        .into_iter()
        .map(|(name, h)| {
            (
                name,
                Json::Obj(vec![
                    ("count".into(), Json::uint(h.count)),
                    ("last_us".into(), Json::uint(h.last_us)),
                    ("snapshot_version".into(), Json::uint(h.snapshot_version)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("engines".into(), Json::Obj(hydrated)),
        ("evictions".into(), Json::uint(r.evictions)),
        ("hydrate_max_us".into(), Json::uint(r.hydrate_max_us)),
        ("hydrate_p50_us".into(), Json::uint(r.hydrate_p50_us)),
        ("hydrations".into(), Json::uint(r.hydrations)),
        (
            "memory_budget".into(),
            Json::uint(registry.memory_budget() as u64),
        ),
        ("resident_bytes".into(), Json::uint(r.resident_bytes as u64)),
        (
            "resident_engines".into(),
            Json::uint(r.resident_engines as u64),
        ),
        ("shed_hydrations".into(), Json::uint(r.shed_hydrations)),
        (
            "unreclaimed_bytes".into(),
            Json::uint(r.unreclaimed_bytes as u64),
        ),
    ])
}

// ---------------------------------------------------------------------
// the client

/// A minimal blocking HTTP/1.1 client speaking the server's protocol
/// over one persistent connection — the in-process test/bench helper
/// (and a worked example of the wire format).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running [`Server`] with the default 30 s read
    /// deadline (see [`Client::read_timeout`]).
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> Result<Client, UxmError> {
        let stream = TcpStream::connect(&addr).map_err(|e| UxmError::io(&addr, e))?;
        stream.set_nodelay(true).ok();
        // Every read is deadline-bounded: a peer that stops sending
        // mid-response (headers or body bytes alike) fails the request
        // with a typed error instead of blocking this thread forever.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| UxmError::io(&addr, e))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| UxmError::io(&addr, e))?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Replaces the per-read deadline (default 30 s from
    /// [`Client::connect`]). A read stalled past it — including body
    /// bytes trickled by a slow peer — fails with [`UxmError::Io`]
    /// rather than pinning the calling thread indefinitely.
    pub fn read_timeout(self, timeout: Duration) -> Result<Client, UxmError> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(timeout))
            .map_err(|e| UxmError::io("set_read_timeout", e))?;
        Ok(self)
    }

    /// Sends `GET path`; returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), UxmError> {
        self.request("GET", path, None)
    }

    /// Sends `POST path` with a JSON body; returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> Result<(u16, String), UxmError> {
        self.request("POST", path, Some(body))
    }

    /// Serializes `query` canonically and posts it to
    /// `/query/<engine>`.
    pub fn query(&mut self, engine: &str, query: &Query) -> Result<(u16, String), UxmError> {
        self.post(&format!("/query/{engine}"), &query.to_json_string())
    }

    /// Posts `requests` as one `/batch` call.
    pub fn batch(&mut self, requests: &[BatchQuery]) -> Result<(u16, String), UxmError> {
        let body = Json::Arr(requests.iter().map(BatchQuery::to_json).collect()).to_string();
        self.post("/batch", &body)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), UxmError> {
        let io = |e: std::io::Error| UxmError::io(format!("{method} {path}"), e);
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: uxm\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes()).map_err(io)?;
        self.writer.write_all(body.as_bytes()).map_err(io)?;
        self.writer.flush().map_err(io)?;

        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).map_err(io)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                UxmError::Io(format!(
                    "{method} {path}: malformed status line {:?}",
                    status_line.trim_end()
                ))
            })?;
        let mut content_length: Option<usize> = None;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header).map_err(io)? == 0 {
                return Err(UxmError::Io(format!(
                    "{method} {path}: connection closed mid-headers"
                )));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = Some(value.trim().parse().map_err(|_| {
                        UxmError::Io(format!("{method} {path}: bad content-length {value:?}"))
                    })?);
                }
            }
        }
        // A response without Content-Length must be an error, not an
        // empty body: this client frames bodies by length alone, so a
        // missing header means the response cannot be parsed.
        let content_length = content_length.ok_or_else(|| {
            UxmError::Io(format!("{method} {path}: response missing content-length"))
        })?;
        let mut buf = vec![0u8; content_length];
        self.reader.read_exact(&mut buf).map_err(io)?;
        String::from_utf8(buf)
            .map(|body| (status, body))
            .map_err(|_| UxmError::Io(format!("{method} {path}: non-UTF-8 body")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_percentiles() {
        let lat = Latency::new();
        assert_eq!(lat.percentile(50.0), 0, "empty histogram");
        for us in [1u64, 2, 3, 100, 1000, 100_000] {
            lat.record(us);
        }
        // p50 of 6 samples is the 3rd: bucket of 3 µs has upper bound 4.
        assert_eq!(lat.percentile(50.0), 4);
        // p99 lands in the last occupied bucket, clamped to the max seen.
        assert_eq!(lat.percentile(99.0), 100_000);
        assert_eq!(lat.percentile(100.0), 100_000);
    }

    #[test]
    fn latency_histogram_clamps_huge_values() {
        let lat = Latency::new();
        lat.record(u64::MAX);
        assert_eq!(lat.percentile(50.0), u64::MAX);
    }

    #[test]
    fn status_mapping_is_stable() {
        assert_eq!(status_for(&UxmError::UnknownEngine("x".into())), 404);
        assert_eq!(status_for(&UxmError::Json("bad".into())), 400);
        assert_eq!(status_for(&UxmError::Io("disk".into())), 500);
        assert_eq!(
            status_for(&UxmError::Decode(crate::storage::DecodeError::BadMagic)),
            500
        );
    }

    #[test]
    fn error_bodies_are_canonical_json() {
        let body = error_body(&UxmError::UnknownEngine("po".into()));
        assert_eq!(
            body,
            "{\"error\":{\"kind\":\"unknown-engine\",\"message\":\"no engine named \\\"po\\\"\"}}"
        );
        assert_eq!(Json::parse(&body).unwrap().to_string(), body);
    }
}
