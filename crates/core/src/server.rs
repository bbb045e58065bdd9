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
//! registry and its engines are `Send + Sync` and immutable, all
//! workers share each engine without locking it.
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
//! | `GET /stats`           | —                            | per-engine request/error/plan counters + latency percentiles |
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
//! request → 400, storage/I-O trouble → 500, oversized body → 413,
//! request head over 16 KiB → 431).
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
//! let engine = registry.insert("orders", QueryEngine::build(pm, doc));
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
use crate::http::{self, Conn, Request};
use crate::json::{Json, Writer};
use crate::planner::Evaluator;
use crate::registry::{BatchQuery, EngineRegistry};
use crate::sync;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

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
    /// Plans chosen per [`Evaluator`], indexed by `evaluator as usize`.
    /// Every plan runs as chosen, so these also count the backends
    /// that executed.
    plans: [AtomicU64; 3],
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
            plans: Default::default(),
            latency: Latency::new(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "errors".into(),
                Json::uint(self.errors.load(Ordering::Relaxed)),
            ),
            ("latency_us".into(), self.latency.to_json()),
            ("plans".into(), per_evaluator_json(&self.plans)),
            (
                "requests".into(),
                Json::uint(self.requests.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// `{"block-tree":…,"compiled":…,"naive":…}` from per-[`Evaluator`]
/// counters (keys in canonical, alphabetical order).
fn per_evaluator_json(counts: &[AtomicU64; 3]) -> Json {
    let order = [Evaluator::BlockTree, Evaluator::Compiled, Evaluator::Naive];
    let count = |e: Evaluator| Json::uint(counts[e as usize].load(Ordering::Relaxed));
    Json::Obj(order.map(|e| (e.wire_name().into(), count(e))).into())
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
                c.plans[response.stats.plan.evaluator as usize].fetch_add(1, Ordering::Relaxed);
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
fn shed(shared: &Shared, mut stream: TcpStream, error: &UxmError) {
    stream.set_nodelay(true).ok();
    stream
        .set_write_timeout(Some(Duration::from_millis(250)))
        .ok();
    shared.stats.http_errors.fetch_add(1, Ordering::Relaxed);
    let (mut out, body) = (Vec::new(), error_body(error));
    let retry_after = Some(shared.config.retry_after_ms);
    http::encode_response(&mut out, status_for(error), &body, false, retry_after);
    let _ = stream.write_all(&out);
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

/// Serves one connection until the peer closes, the keep-alive budget
/// runs out, or an error response ends it.
fn serve_connection(shared: &Shared, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK)).ok();
    let (mut conn, mut out) = (Conn::new(), Vec::new());
    loop {
        // One budget covers both waiting for the next request to start
        // and receiving it in full, so neither an idle keep-alive peer
        // nor a slow sender can pin this worker past the timeout.
        let deadline = Instant::now() + shared.config.keep_alive_timeout;
        let (status, body, keep_alive) =
            match next_request(shared, &mut stream, &mut conn, deadline) {
                Ok(None) => return Ok(()),
                Ok(Some(request)) => answer(shared, &request),
                Err(reject) => {
                    let body = error_body(&UxmError::Usage(reject.message));
                    (reject.status, body, false)
                }
            };
        if status >= 400 {
            shared.stats.http_errors.fetch_add(1, Ordering::Relaxed);
        }
        let retry_after = matches!(status, 429 | 503).then_some(shared.config.retry_after_ms);
        out.clear();
        http::encode_response(&mut out, status, &body, keep_alive, retry_after);
        stream.write_all(&out)?;
        if !keep_alive {
            linger(shared, &mut stream, deadline);
            return Ok(());
        }
    }
}

/// Routes one request: its status, body, and whether the connection
/// stays open.
fn answer(shared: &Shared, request: &Request) -> (u16, String, bool) {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let keep_alive = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
    // A handler panic is contained to this one request: the worker
    // answers a typed 500 and keeps serving (the shared locks are
    // poison-tolerant, so other workers never notice).
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(shared, request))) {
        Ok((status, body)) => (status, body, keep_alive),
        Err(panic) => {
            shared
                .stats
                .panics_contained
                .fetch_add(1, Ordering::Relaxed);
            let msg = panic_message(&panic);
            let e = UxmError::Internal(format!("request handler panicked: {msg}"));
            (500, error_body(&e), false)
        }
    }
}

/// Reads until `conn` frames the next request. `Ok(None)` closes the
/// connection quietly: the peer closed, or shutdown or `deadline`
/// arrived first.
fn next_request(
    shared: &Shared,
    stream: &mut TcpStream,
    conn: &mut Conn,
    deadline: Instant,
) -> Result<Option<Request>, http::Reject> {
    loop {
        if let Some(request) = conn.request(shared.config.max_body_bytes)? {
            return Ok(Some(request));
        }
        match conn.fill(stream) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            // A read tick: keep waiting unless the server is stopping.
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(_) => return Ok(None),
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
    }
}

/// Closes a connection from the server's side. Closing with unread
/// input resets the connection, and the reset can destroy the last
/// response before the peer reads it (a refused request is typically
/// still arriving), so the write side is shut first and the peer's
/// bytes are discarded until it closes, goes quiet for a read tick, or
/// `deadline` passes.
fn linger(shared: &Shared, stream: &mut TcpStream, deadline: Instant) {
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 4096];
    while Instant::now() < deadline && !shared.shutdown.load(Ordering::SeqCst) {
        if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
            return;
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
    stream: TcpStream,
    /// Response bytes read and not yet framed.
    conn: Conn,
    /// The request being sent, reused across requests.
    out: Vec<u8>,
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
        Ok(Client {
            stream,
            conn: Conn::new(),
            out: Vec::new(),
        })
    }

    /// Replaces the per-read deadline (default 30 s from
    /// [`Client::connect`]). A read stalled past it — including body
    /// bytes trickled by a slow peer — fails with [`UxmError::Io`]
    /// rather than pinning the calling thread indefinitely.
    pub fn read_timeout(self, timeout: Duration) -> Result<Client, UxmError> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| UxmError::io("set_read_timeout", e))?;
        Ok(self)
    }

    /// Sends `GET path`; returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), UxmError> {
        self.request("GET", path, "")
    }

    /// Sends `POST path` with a JSON body; returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> Result<(u16, String), UxmError> {
        self.request("POST", path, body)
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

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), UxmError> {
        let fail = |why: &dyn std::fmt::Display| UxmError::Io(format!("{method} {path}: {why}"));
        self.out.clear();
        http::encode_request(&mut self.out, method, path, body);
        self.stream.write_all(&self.out).map_err(|e| fail(&e))?;
        loop {
            if let Some(answer) = self.conn.response().map_err(|r| fail(&r.message))? {
                return Ok(answer);
            }
            if self.conn.fill(&mut self.stream).map_err(|e| fail(&e))? == 0 {
                return Err(fail(&"connection closed mid-response"));
            }
        }
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
