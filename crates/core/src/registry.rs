//! Multi-engine serving: the [`EngineRegistry`].
//!
//! A [`crate::engine::QueryEngine`] is one session over one
//! `(schema pair, document)`; a service serves *many* such sessions at
//! once. The registry manages named engines behind `Arc`s so any number
//! of threads can query them concurrently (the engine is `Send + Sync`),
//! answers whole request batches in one call, and keeps resident memory
//! under a configurable budget by evicting the least-recently-used
//! engines. An engine holds no per-query state, so a shared engine
//! answers every client exactly as a private one would.
//!
//! The registry speaks the unified query surface of [`crate::api`]: a
//! batch item is an engine name plus a typed [`Query`] ([`BatchQuery`]),
//! every answer is a [`QueryResponse`], every failure a
//! [`UxmError`] — exactly the wire format `uxm batch` files carry (see
//! [`BatchQuery::from_json`]).
//!
//! Engines can also live on disk as snapshots (see
//! [`crate::storage::encode_engine_snapshot`]): point the registry at a
//! snapshot directory and [`EngineRegistry::fetch`] lazily hydrates
//! `name` from `<dir>/<name>.uxm` on first use, so a restarted service
//! warms up from disk instead of re-matching schemas. To serve a
//! registry over the network, see [`crate::server`].
//!
//! # Examples
//!
//! ```
//! use uxm_core::api::Query;
//! use uxm_core::engine::QueryEngine;
//! use uxm_core::mapping::PossibleMappings;
//! use uxm_core::registry::{BatchQuery, EngineRegistry};
//! use uxm_matching::Matcher;
//! use uxm_twig::TwigPattern;
//! use uxm_xml::{DocGenConfig, Document, Schema};
//!
//! fn engine(src: &str, tgt: &str, seed: u64) -> QueryEngine {
//!     let source = Schema::parse_outline(src).unwrap();
//!     let target = Schema::parse_outline(tgt).unwrap();
//!     let matching = Matcher::context().match_schemas(&source, &target);
//!     let pm = PossibleMappings::top_h(&matching, 8);
//!     let doc = Document::generate(&source, &DocGenConfig::small(), seed);
//!     QueryEngine::build(pm, doc)
//! }
//!
//! let registry = EngineRegistry::new();
//! registry.insert(
//!     "orders",
//!     engine(
//!         "Order(Buyer(Name) POLine(Quantity UnitPrice))",
//!         "PO(Purchaser(PName) Line(Qty UnitPrice))",
//!         7,
//!     ),
//! );
//! registry.insert(
//!     "invoices",
//!     engine("Invoice(Payer(PayerName) Total)", "Bill(Customer(CName) Total)", 11),
//! );
//!
//! // One batch, many engines; answers come back in request order.
//! let answers = registry.batch(&[
//!     BatchQuery::new("orders", Query::ptq(TwigPattern::parse("//UnitPrice").unwrap())),
//!     BatchQuery::new("orders", Query::topk(TwigPattern::parse("//Line//Qty").unwrap(), 2)),
//!     BatchQuery::new("invoices", Query::ptq(TwigPattern::parse("//Total").unwrap())),
//! ]);
//! assert_eq!(answers.len(), 3);
//! for a in &answers {
//!     let response = a.as_ref().unwrap();
//!     assert!(response.total_probability() > 0.0);
//! }
//! ```

use crate::api::{Query, QueryResponse};
use crate::engine::QueryEngine;
use crate::error::UxmError;
use crate::json::Json;
use crate::storage::{decode_engine_snapshot, encode_engine_snapshot, snapshot_version};
use crate::sync;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use uxm_twig::TwigPattern;

/// Registry tuning knobs.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Upper bound, in approximate bytes (see
    /// [`QueryEngine::approx_bytes`]), on the resident engine set; `0`
    /// means unlimited. When an insert or hydration pushes the total over
    /// budget, least-recently-used engines other than the newcomer are
    /// evicted until the total fits (the newest engine is always kept, so
    /// one engine larger than the whole budget still serves).
    pub memory_budget: usize,
    /// Hydration admission gate: when at least this many evictions
    /// happened within the last [`RegistryConfig::thrash_window`] LRU
    /// clock ticks, cold [`EngineRegistry::fetch`]es are refused with
    /// [`UxmError::Overloaded`] instead of decoding yet another snapshot
    /// that the budget would immediately evict something for. `0`
    /// disables the gate. Already-resident engines always serve.
    pub thrash_evictions: usize,
    /// Width of the thrash-detection window, in LRU clock ticks (every
    /// touch, insert, or hydration advances the clock by one).
    pub thrash_window: u64,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig {
            memory_budget: 0,
            thrash_evictions: 0,
            thrash_window: 256,
        }
    }
}

/// A point-in-time accounting summary of a registry — the numbers
/// behind the server's `GET /stats` `"registry"` section and the soak
/// harness's drift tracking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegistryStats {
    /// Number of resident engines.
    pub resident_engines: usize,
    /// Sum of [`QueryEngine::approx_bytes`] over resident engines.
    pub resident_bytes: usize,
    /// Bytes belonging to engines the budget evicted that are still
    /// alive because callers hold `Arc` handles — memory the budget
    /// thinks it freed but the process still pays for. See
    /// [`EngineRegistry::unreclaimed_bytes`].
    pub unreclaimed_bytes: usize,
    /// Total engines evicted by the memory budget so far.
    pub evictions: u64,
    /// Cold hydrations refused by the thrash gate so far.
    pub shed_hydrations: u64,
    /// Total snapshot hydrations performed so far.
    pub hydrations: u64,
    /// Median measured hydration wall time over the most recent
    /// hydrations (a bounded window), in microseconds; `0` before the
    /// first hydration.
    pub hydrate_p50_us: u64,
    /// Maximum measured hydration wall time so far, in microseconds.
    pub hydrate_max_us: u64,
}

impl RegistryStats {
    /// [`RegistryStats::resident_bytes`] plus
    /// [`RegistryStats::unreclaimed_bytes`]: what the engine set
    /// actually costs the process right now, evicted-but-referenced
    /// engines included.
    pub fn footprint_bytes(&self) -> usize {
        self.resident_bytes + self.unreclaimed_bytes
    }
}

/// The request shape a registry batch carries: the typed [`Query`] of
/// [`crate::api`].
pub type Request = Query;

/// The answer shape: the uniform [`QueryResponse`] of [`crate::api`].
pub type Response = QueryResponse;

/// One request of a [`EngineRegistry::batch`] call: an engine name plus
/// the typed [`Query`] to ask it.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchQuery {
    /// Which engine serves this request.
    pub engine: String,
    /// The query itself.
    pub query: Query,
}

impl BatchQuery {
    /// Pairs an engine name with a query.
    pub fn new(engine: impl Into<String>, query: Query) -> BatchQuery {
        BatchQuery {
            engine: engine.into(),
            query,
        }
    }

    /// A PTQ request pinned to the block tree (Algorithm 4) — the legacy
    /// `ptq` request kind.
    pub fn ptq(engine: impl Into<String>, q: TwigPattern) -> BatchQuery {
        BatchQuery::new(
            engine,
            Query::ptq(q).with_evaluator(crate::api::EvaluatorHint::BlockTree),
        )
    }

    /// A PTQ request pinned to naive evaluation (Algorithm 3) — the
    /// legacy `basic` request kind.
    pub fn basic(engine: impl Into<String>, q: TwigPattern) -> BatchQuery {
        BatchQuery::new(
            engine,
            Query::ptq(q).with_evaluator(crate::api::EvaluatorHint::Naive),
        )
    }

    /// A top-k PTQ request.
    pub fn topk(engine: impl Into<String>, q: TwigPattern, k: usize) -> BatchQuery {
        BatchQuery::new(engine, Query::topk(q, k))
    }

    /// A keyword (SLCA) request.
    pub fn keyword(engine: impl Into<String>, terms: Vec<String>) -> BatchQuery {
        BatchQuery::new(engine, Query::keyword(terms))
    }

    /// The canonical JSON form: `{"engine":...,"query":{...}}` — one
    /// line of a `uxm batch` file.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("engine".into(), Json::str(&self.engine)),
            ("query".into(), self.query.to_json()),
        ])
    }

    /// [`BatchQuery::to_json`] rendered canonically.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses the canonical JSON form (strict: unknown keys rejected).
    pub fn from_json(v: &Json) -> Result<BatchQuery, UxmError> {
        let members = v
            .as_obj()
            .ok_or_else(|| UxmError::Json("batch request must be an object".into()))?;
        let mut engine: Option<String> = None;
        let mut query: Option<Query> = None;
        for (key, val) in members {
            match key.as_str() {
                "engine" => {
                    engine = Some(
                        val.as_str()
                            .ok_or_else(|| UxmError::Json("engine must be a string".into()))?
                            .to_string(),
                    )
                }
                "query" => query = Some(Query::from_json(val)?),
                other => {
                    return Err(UxmError::Json(format!(
                        "unknown batch request key {other:?}"
                    )))
                }
            }
        }
        Ok(BatchQuery {
            engine: engine
                .ok_or_else(|| UxmError::Json("batch request needs an \"engine\"".into()))?,
            query: query.ok_or_else(|| UxmError::Json("batch request needs a \"query\"".into()))?,
        })
    }

    /// Parses one batch-file line.
    pub fn from_json_str(text: &str) -> Result<BatchQuery, UxmError> {
        BatchQuery::from_json(&Json::parse(text)?)
    }
}

struct Entry {
    engine: Arc<QueryEngine>,
    bytes: usize,
    last_used: AtomicU64,
}

/// Per-engine hydration record (see
/// [`EngineRegistry::hydration_stats`]): what `GET /stats` and
/// `uxm stats` surface per engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineHydration {
    /// Wall time of this engine's most recent hydration, in
    /// microseconds.
    pub last_us: u64,
    /// How many times this engine has been hydrated from disk.
    pub count: u64,
    /// Snapshot format version of the most recently hydrated file.
    pub snapshot_version: u64,
}

/// How many of the most recent hydration timings feed the p50 (a ring
/// buffer — old samples are overwritten deterministically).
const HYDRATION_WINDOW: usize = 4096;

/// Measured hydration telemetry: a bounded ring of recent wall times
/// plus per-engine last-hydration records.
#[derive(Default)]
struct HydrationLog {
    /// Ring of the most recent hydration wall times, µs; the slot for
    /// hydration `i` is `i % HYDRATION_WINDOW`.
    samples: Vec<u64>,
    /// Total hydrations recorded (may exceed the ring length).
    total: u64,
    /// Maximum wall time ever recorded, µs.
    max_us: u64,
    /// Last hydration per engine name.
    engines: HashMap<String, EngineHydration>,
}

impl HydrationLog {
    fn record(&mut self, name: &str, us: u64, version: u64) {
        let slot = (self.total % HYDRATION_WINDOW as u64) as usize;
        if slot < self.samples.len() {
            self.samples[slot] = us;
        } else {
            self.samples.push(us);
        }
        self.total += 1;
        self.max_us = self.max_us.max(us);
        let entry = self
            .engines
            .entry(name.to_string())
            .or_insert(EngineHydration {
                last_us: 0,
                count: 0,
                snapshot_version: 0,
            });
        entry.last_us = us;
        entry.count += 1;
        entry.snapshot_version = version;
    }

    /// Median of the retained window; `0` with no samples.
    fn p50_us(&self) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut window = self.samples.clone();
        window.sort_unstable();
        window[window.len() / 2]
    }
}

/// An engine the budget evicted while callers still held `Arc` handles:
/// its bytes left the budget's ledger but not the process. The `Weak`
/// lets accounting notice when the last handle finally drops.
struct Zombie {
    bytes: usize,
    engine: Weak<QueryEngine>,
}

/// A concurrent collection of named [`QueryEngine`]s with LRU eviction
/// under a memory budget and lazy hydration from snapshot files.
///
/// All methods take `&self`; the registry is `Send + Sync` and meant to
/// be shared (e.g. in an `Arc`) across serving threads. See the [module
/// docs](self) for a worked example.
pub struct EngineRegistry {
    config: RegistryConfig,
    snapshot_dir: Option<PathBuf>,
    engines: RwLock<HashMap<String, Entry>>,
    /// Logical LRU clock: bumped on every touch, never wraps in practice.
    clock: AtomicU64,
    evictions: AtomicU64,
    /// Clock stamps of recent evictions, oldest first — the thrash
    /// gate's evidence. Bounded by pruning against `thrash_window`.
    recent_evictions: Mutex<VecDeque<u64>>,
    /// Evicted-but-still-referenced engines (see [`Zombie`]).
    zombies: Mutex<Vec<Zombie>>,
    shed_hydrations: AtomicU64,
    /// Measured hydration wall times (see [`HydrationLog`]).
    hydration_log: Mutex<HydrationLog>,
}

impl Default for EngineRegistry {
    fn default() -> EngineRegistry {
        EngineRegistry::new()
    }
}

impl EngineRegistry {
    /// An empty registry with no memory budget and no snapshot directory.
    pub fn new() -> EngineRegistry {
        EngineRegistry::with_config(RegistryConfig::default())
    }

    /// An empty registry with the given configuration.
    pub fn with_config(config: RegistryConfig) -> EngineRegistry {
        EngineRegistry {
            config,
            snapshot_dir: None,
            engines: RwLock::new(HashMap::new()),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            recent_evictions: Mutex::new(VecDeque::new()),
            zombies: Mutex::new(Vec::new()),
            shed_hydrations: AtomicU64::new(0),
            hydration_log: Mutex::new(HydrationLog::default()),
        }
    }

    /// Sets the directory used for snapshot persistence and lazy
    /// hydration (`<dir>/<name>.uxm`).
    pub fn snapshot_dir(mut self, dir: impl Into<PathBuf>) -> EngineRegistry {
        self.snapshot_dir = Some(dir.into());
        self
    }

    fn touch(&self, entry: &Entry) {
        entry.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }

    /// Registers (or replaces) `name`, returning the shared handle.
    /// May evict colder engines to honor the memory budget; the engine
    /// just inserted is never the victim.
    pub fn insert(&self, name: impl Into<String>, engine: QueryEngine) -> Arc<QueryEngine> {
        let name = name.into();
        let engine = Arc::new(engine);
        let entry = Entry {
            engine: Arc::clone(&engine),
            bytes: engine.approx_bytes(),
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed) + 1),
        };
        let mut map = sync::write(&self.engines);
        map.insert(name.clone(), entry);
        self.evict_over_budget(&mut map, &name);
        engine
    }

    /// The resident engine under `name`, if any; touches its LRU stamp.
    /// Does **not** read from disk — see [`EngineRegistry::fetch`].
    pub fn get(&self, name: &str) -> Option<Arc<QueryEngine>> {
        let map = sync::read(&self.engines);
        map.get(name).map(|entry| {
            self.touch(entry);
            Arc::clone(&entry.engine)
        })
    }

    /// The engine under `name`, hydrating `<dir>/<name>.uxm` when it is
    /// not resident. Two threads racing on the same cold name may both
    /// decode the snapshot; the engines are identical and one wins the
    /// map slot — harmless beyond the duplicated work.
    /// Cold fetches additionally pass the hydration admission gate:
    /// when [`RegistryConfig::thrash_evictions`] is set and the budget
    /// has evicted that many engines within the last
    /// [`RegistryConfig::thrash_window`] clock ticks, the working set
    /// no longer fits and decoding another snapshot would only thrash —
    /// the fetch is refused with [`UxmError::Overloaded`] instead.
    pub fn fetch(&self, name: &str) -> Result<Arc<QueryEngine>, UxmError> {
        if let Some(engine) = self.get(name) {
            return Ok(engine);
        }
        self.admit_hydration()?;
        let path = match self.snapshot_path(name) {
            // Nowhere to hydrate from: the name is simply unknown.
            Err(UxmError::NoSnapshotDir) => return Err(UxmError::UnknownEngine(name.to_string())),
            other => other?,
        };
        let start = std::time::Instant::now();
        let bytes = std::fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                UxmError::UnknownEngine(name.to_string())
            } else {
                UxmError::io(path.display(), e)
            }
        })?;
        let version = snapshot_version(&bytes).unwrap_or(0);
        let engine = decode_engine_snapshot(&bytes)?;
        drop(bytes);
        let us = start.elapsed().as_micros() as u64;
        sync::lock(&self.hydration_log).record(name, us, version);
        Ok(self.insert(name, engine))
    }

    /// Writes `name`'s snapshot to `<dir>/<name>.uxm` in the current
    /// format version ([`crate::storage::SNAPSHOT_VERSION`], the only one
    /// written), creating the directory if needed. Returns the file path.
    pub fn save(&self, name: &str) -> Result<PathBuf, UxmError> {
        let engine = self
            .get(name)
            .ok_or_else(|| UxmError::UnknownEngine(name.to_string()))?;
        let path = self.snapshot_path(name)?;
        let dir = path.parent().expect("snapshot path has a directory");
        std::fs::create_dir_all(dir).map_err(|e| UxmError::io(dir.display(), e))?;
        std::fs::write(&path, encode_engine_snapshot(&engine))
            .map_err(|e| UxmError::io(path.display(), e))?;
        Ok(path)
    }

    /// Snapshots every resident engine; returns the written paths in
    /// name order. Engines that cannot be snapshotted by name are
    /// skipped, not errors: one evicted by another thread mid-call
    /// (`UnknownEngine`), or one registered under a name unusable as a
    /// file stem (`InvalidName` — `insert` accepts any name).
    pub fn save_all(&self) -> Result<Vec<PathBuf>, UxmError> {
        let mut out = Vec::new();
        for name in self.names() {
            match self.save(&name) {
                Ok(path) => out.push(path),
                Err(UxmError::UnknownEngine(_) | UxmError::InvalidName(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Drops the resident engine under `name` (its snapshot, if any,
    /// stays on disk). Returns whether it was resident. Outstanding
    /// `Arc` handles keep serving until dropped.
    pub fn remove(&self, name: &str) -> bool {
        sync::write(&self.engines).remove(name).is_some()
    }

    /// Resident engine names, sorted.
    pub fn names(&self) -> Vec<String> {
        let map = sync::read(&self.engines);
        let mut names: Vec<String> = map.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of resident engines.
    pub fn len(&self) -> usize {
        sync::read(&self.engines).len()
    }

    /// True when no engine is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of [`QueryEngine::approx_bytes`] over resident engines.
    pub fn resident_bytes(&self) -> usize {
        let map = sync::read(&self.engines);
        map.values().map(|e| e.bytes).sum()
    }

    /// Resident engines with their approximate sizes
    /// ([`QueryEngine::approx_bytes`]), name-sorted — the listing
    /// behind the server's `GET /engines`.
    pub fn resident(&self) -> Vec<(String, usize)> {
        let map = sync::read(&self.engines);
        let mut entries: Vec<(String, usize)> = map
            .iter()
            .map(|(name, entry)| (name.clone(), entry.bytes))
            .collect();
        entries.sort();
        entries
    }

    /// Stems of the `*.uxm` snapshot files in the snapshot directory,
    /// sorted; empty when no directory is configured or it cannot be
    /// read (a service listing hydratable names must not fail on a
    /// missing directory).
    pub fn snapshot_names(&self) -> Vec<String> {
        let Some(dir) = self.snapshot_dir.as_deref() else {
            return Vec::new();
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "uxm"))
            .filter_map(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        names
    }

    /// How many engines the memory budget has evicted so far.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// How many cold hydrations the thrash gate has refused so far.
    pub fn shed_hydration_count(&self) -> u64 {
        self.shed_hydrations.load(Ordering::Relaxed)
    }

    /// Bytes held by engines the budget evicted whose `Arc` handles are
    /// still alive somewhere — memory [`EngineRegistry::resident_bytes`]
    /// no longer counts but the process has not actually reclaimed.
    /// Engines whose last handle has since dropped are pruned here.
    pub fn unreclaimed_bytes(&self) -> usize {
        let mut zombies = sync::lock(&self.zombies);
        zombies.retain(|z| z.engine.strong_count() > 0);
        zombies.iter().map(|z| z.bytes).sum()
    }

    /// A point-in-time accounting summary (see [`RegistryStats`]).
    pub fn stats(&self) -> RegistryStats {
        let (hydrations, hydrate_p50_us, hydrate_max_us) = {
            let log = sync::lock(&self.hydration_log);
            (log.total, log.p50_us(), log.max_us)
        };
        RegistryStats {
            resident_engines: self.len(),
            resident_bytes: self.resident_bytes(),
            unreclaimed_bytes: self.unreclaimed_bytes(),
            evictions: self.eviction_count(),
            shed_hydrations: self.shed_hydration_count(),
            hydrations,
            hydrate_p50_us,
            hydrate_max_us,
        }
    }

    /// Per-engine hydration records, name-sorted: the most recent
    /// measured hydration wall time, lifetime hydration count, and the
    /// snapshot format version last read for each engine that has ever
    /// hydrated from disk.
    pub fn hydration_stats(&self) -> Vec<(String, EngineHydration)> {
        let log = sync::lock(&self.hydration_log);
        let mut out: Vec<(String, EngineHydration)> = log
            .engines
            .iter()
            .map(|(name, h)| (name.clone(), h.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The configured memory budget in bytes (`0` = unlimited).
    pub fn memory_budget(&self) -> usize {
        self.config.memory_budget
    }

    /// The hydration admission gate (see [`EngineRegistry::fetch`]).
    fn admit_hydration(&self) -> Result<(), UxmError> {
        let threshold = self.config.thrash_evictions;
        if threshold == 0 || self.config.memory_budget == 0 {
            return Ok(());
        }
        let now = self.clock.load(Ordering::Relaxed);
        let horizon = now.saturating_sub(self.config.thrash_window);
        let mut recent = sync::lock(&self.recent_evictions);
        while recent.front().is_some_and(|&stamp| stamp < horizon) {
            recent.pop_front();
        }
        if recent.len() >= threshold {
            let seen = recent.len();
            drop(recent);
            self.shed_hydrations.fetch_add(1, Ordering::Relaxed);
            return Err(UxmError::Overloaded {
                reason: format!(
                    "hydration gate: {seen} evictions in the last {} operations \
                     (working set exceeds the memory budget)",
                    self.config.thrash_window
                ),
                retry_after_ms: 500,
            });
        }
        Ok(())
    }

    /// Answers a whole batch through
    /// [`QueryEngine::run`](crate::engine::QueryEngine::run); answers
    /// come back in request order. Each distinct engine is resolved once
    /// (hydrating cold ones from disk).
    ///
    /// Engines are served **one group at a time**, in order of first
    /// appearance, and each engine's handle is dropped before the next
    /// hydrates. Under a memory budget, resident memory therefore stays
    /// bounded by the budget plus the engine currently being served — a
    /// batch naming more engines than the budget fits cannot blow past
    /// it.
    pub fn batch(&self, queries: &[BatchQuery]) -> Vec<Result<QueryResponse, UxmError>> {
        // One group of request indices per distinct engine, in
        // first-appearance order.
        let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
        let mut group_of: HashMap<&str, usize> = HashMap::new();
        for (i, q) in queries.iter().enumerate() {
            match group_of.get(q.engine.as_str()) {
                Some(&g) => groups[g].1.push(i),
                None => {
                    group_of.insert(q.engine.as_str(), groups.len());
                    groups.push((q.engine.as_str(), vec![i]));
                }
            }
        }

        // The handle drops before the next group hydrates, so only the
        // registry's (budgeted) residency carries engines between groups.
        let mut out: Vec<Option<Result<QueryResponse, UxmError>>> = vec![None; queries.len()];
        for (name, idxs) in &groups {
            let engine = self.fetch(name);
            for &i in idxs {
                out[i] = Some(match &engine {
                    Err(e) => Err(e.clone()),
                    Ok(engine) => engine.run(&queries[i].query),
                });
            }
        }
        out.into_iter()
            .map(|a| a.expect("every request answered"))
            .collect()
    }

    /// `<dir>/<name>.uxm`, rejecting names that would escape the
    /// directory.
    fn snapshot_path(&self, name: &str) -> Result<PathBuf, UxmError> {
        // ':' also guards Windows drive-prefixed names ("C:evil"), whose
        // join would replace the base directory outright.
        if name.is_empty() || name.contains(['/', '\\', ':']) || name.contains("..") {
            return Err(UxmError::InvalidName(name.to_string()));
        }
        let dir: &Path = self
            .snapshot_dir
            .as_deref()
            .ok_or(UxmError::NoSnapshotDir)?;
        Ok(dir.join(format!("{name}.uxm")))
    }

    fn evict_over_budget(&self, map: &mut HashMap<String, Entry>, keep: &str) {
        let budget = self.config.memory_budget;
        if budget == 0 {
            return;
        }
        let mut total: usize = map.values().map(|e| e.bytes).sum();
        while map.len() > 1 && total > budget {
            // Oldest stamp wins; ties break by name for determinism.
            let victim = map
                .iter()
                .filter(|(name, _)| name.as_str() != keep)
                .min_by(|(an, a), (bn, b)| {
                    let (sa, sb) = (
                        a.last_used.load(Ordering::Relaxed),
                        b.last_used.load(Ordering::Relaxed),
                    );
                    sa.cmp(&sb).then_with(|| an.as_str().cmp(bn.as_str()))
                })
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    if let Some(entry) = map.remove(&name) {
                        total -= entry.bytes;
                        // Removal drops the map's Arc below; any count
                        // beyond it is an outstanding caller handle, so
                        // the bytes just subtracted are not actually
                        // free yet — record the drift.
                        if Arc::strong_count(&entry.engine) > 1 {
                            sync::lock(&self.zombies).push(Zombie {
                                bytes: entry.bytes,
                                engine: Arc::downgrade(&entry.engine),
                            });
                        }
                    }
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    sync::lock(&self.recent_evictions)
                        .push_back(self.clock.load(Ordering::Relaxed));
                }
                None => return,
            }
        }
    }
}

impl fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineRegistry")
            .field("engines", &self.names())
            .field("resident_bytes", &self.resident_bytes())
            .field("memory_budget", &self.config.memory_budget)
            .field("snapshot_dir", &self.snapshot_dir)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyword::KeywordError;
    use crate::mapping::PossibleMappings;
    use uxm_matching::Matcher;
    use uxm_xml::{DocGenConfig, Document, Schema};

    fn engine(seed: u64) -> QueryEngine {
        let source = Schema::parse_outline(
            "Order(Buyer(Name Contact(EMail)) POLine*(LineNo Quantity UnitPrice))",
        )
        .unwrap();
        let target =
            Schema::parse_outline("PO(Purchaser(PName PContact(PEMail)) Line(No Qty Amount))")
                .unwrap();
        let matching = Matcher::context().match_schemas(&source, &target);
        let pm = PossibleMappings::top_h(&matching, 12);
        let doc = Document::generate(&source, &DocGenConfig::small(), seed);
        QueryEngine::build(pm, doc)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uxm-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_get_remove() {
        let registry = EngineRegistry::new();
        assert!(registry.is_empty());
        registry.insert("a", engine(1));
        registry.insert("b", engine(2));
        assert_eq!(registry.names(), vec!["a".to_string(), "b".to_string()]);
        assert!(registry.get("a").is_some());
        assert!(registry.get("missing").is_none());
        assert!(registry.remove("a"));
        assert!(!registry.remove("a"));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn batch_matches_direct_runs() {
        let registry = EngineRegistry::new();
        let handle = registry.insert("po", engine(3));
        let q = uxm_twig::TwigPattern::parse("PO//Qty").unwrap();
        let requests = [
            BatchQuery::ptq("po", q.clone()),
            BatchQuery::basic("po", q.clone()),
            BatchQuery::topk("po", q.clone(), 3),
            BatchQuery::keyword("po", vec!["Qty".to_string()]),
            BatchQuery::ptq("nope", q.clone()),
        ];
        let answers = registry.batch(&requests);
        for (req, answer) in requests.iter().take(4).zip(&answers) {
            let direct = handle.run(&req.query).unwrap();
            assert_eq!(
                answer.as_ref().unwrap().answers,
                direct.answers,
                "batch {} differs from direct run",
                req.query
            );
        }
        assert_eq!(
            answers[4].clone().unwrap_err(),
            UxmError::UnknownEngine("nope".to_string())
        );
    }

    #[test]
    fn interleaved_batch_is_budget_invariant() {
        // Engines a and b live on disk; the batch interleaves them with an
        // unknown engine and a keyword request with no terms.
        let dir = scratch_dir("interleaved");
        let builder = EngineRegistry::new().snapshot_dir(&dir);
        for (name, seed) in [("a", 30), ("b", 31)] {
            builder.insert(name, engine(seed));
            builder.save(name).unwrap();
        }
        drop(builder);
        let q = uxm_twig::TwigPattern::parse("PO//Qty").unwrap();
        let requests = [
            BatchQuery::ptq("a", q.clone()),
            BatchQuery::topk("b", q.clone(), 3),
            BatchQuery::keyword("a", vec![]),
            BatchQuery::basic("nope", q.clone()),
            BatchQuery::keyword("b", vec!["Qty".to_string(), "order".to_string()]),
        ];
        let (a, b) = (engine(30), engine(31));
        let expected = [
            a.run(&requests[0].query),
            b.run(&requests[1].query),
            Err(UxmError::Keyword(KeywordError::Empty)),
            Err(UxmError::UnknownEngine("nope".to_string())),
            b.run(&requests[4].query),
        ]
        .map(|r| r.map(|resp| resp.answers));

        // Unlimited, and room for only one engine at a time.
        let one = a.approx_bytes().max(b.approx_bytes());
        for (budget, evictions) in [(0, 0), (one + one / 2, 1)] {
            let registry = EngineRegistry::with_config(RegistryConfig {
                memory_budget: budget,
                ..RegistryConfig::default()
            })
            .snapshot_dir(&dir);
            let got: Vec<_> = registry
                .batch(&requests)
                .into_iter()
                .map(|r| r.map(|resp| resp.answers))
                .collect();
            assert_eq!(got, expected, "budget {budget}");
            assert_eq!(registry.eviction_count(), evictions, "budget {budget}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keyword_errors_surface_per_request() {
        let registry = EngineRegistry::new();
        registry.insert("po", engine(4));
        let answers = registry.batch(&[BatchQuery::keyword("po", vec![])]);
        assert_eq!(
            answers[0].clone().unwrap_err(),
            UxmError::Keyword(KeywordError::Empty)
        );
    }

    #[test]
    fn batch_query_json_roundtrip_is_byte_stable() {
        let q = uxm_twig::TwigPattern::parse("PO/Line[./No]//Qty").unwrap();
        for request in [
            BatchQuery::ptq("po", q.clone()),
            BatchQuery::basic("orders", q.clone()),
            BatchQuery::topk("po", q.clone(), 7),
            BatchQuery::keyword("po", vec!["Qty".into(), "order".into()]),
        ] {
            let once = request.to_json_string();
            let parsed = BatchQuery::from_json_str(&once).unwrap();
            assert_eq!(parsed, request);
            assert_eq!(parsed.to_json_string(), once, "byte-stable: {once}");
        }
        assert!(BatchQuery::from_json_str("{\"engine\":\"po\"}").is_err());
        assert!(BatchQuery::from_json_str("{\"query\":{},\"engine\":\"po\",\"x\":1}").is_err());
    }

    #[test]
    fn memory_budget_evicts_lru() {
        let one = engine(5).approx_bytes();
        // Room for two engines, not three.
        let registry = EngineRegistry::with_config(RegistryConfig {
            memory_budget: one * 2 + one / 2,
            ..RegistryConfig::default()
        });
        registry.insert("a", engine(5));
        registry.insert("b", engine(6));
        // Touch "a" so "b" is the LRU when "c" arrives.
        assert!(registry.get("a").is_some());
        registry.insert("c", engine(7));
        assert_eq!(registry.names(), vec!["a".to_string(), "c".to_string()]);
        assert_eq!(registry.eviction_count(), 1);
        assert!(registry.resident_bytes() <= one * 2 + one / 2);
    }

    #[test]
    fn eviction_with_live_handle_counts_as_unreclaimed() {
        let one = engine(5).approx_bytes();
        let registry = EngineRegistry::with_config(RegistryConfig {
            memory_budget: one + one / 2,
            ..RegistryConfig::default()
        });
        // Hold a handle to "a" across its eviction.
        let held = registry.insert("a", engine(5));
        registry.insert("b", engine(6));
        assert_eq!(registry.names(), vec!["b".to_string()]);
        assert_eq!(registry.eviction_count(), 1);
        // The budget's ledger dropped "a", but the process still pays
        // for it as long as `held` lives.
        assert_eq!(registry.unreclaimed_bytes(), one);
        let stats = registry.stats();
        assert_eq!(stats.footprint_bytes(), stats.resident_bytes + one);
        drop(held);
        assert_eq!(registry.unreclaimed_bytes(), 0, "last handle dropped");
        assert_eq!(
            registry.stats().footprint_bytes(),
            registry.resident_bytes()
        );
    }

    #[test]
    fn thrash_gate_refuses_cold_hydrations() {
        let dir = scratch_dir("thrash");
        // Build snapshots for three engines the budget can hold one of.
        let builder = EngineRegistry::new().snapshot_dir(&dir);
        let one = engine(20).approx_bytes();
        for (name, seed) in [("a", 20), ("b", 21), ("c", 22)] {
            builder.insert(name, engine(seed));
            builder.save(name).unwrap();
        }
        drop(builder);

        let registry = EngineRegistry::with_config(RegistryConfig {
            memory_budget: one + one / 2,
            thrash_evictions: 2,
            thrash_window: 1_000,
        })
        .snapshot_dir(&dir);
        // Cycling cold names evicts on every hydration; after two
        // evictions land in the window, the gate closes.
        registry.fetch("a").unwrap();
        registry.fetch("b").unwrap();
        registry.fetch("c").unwrap();
        let err = registry.fetch("a").unwrap_err();
        assert_eq!(err.kind(), "overloaded");
        assert!(registry.shed_hydration_count() >= 1);
        // Resident engines still serve through the gate.
        assert!(registry.fetch("c").is_ok(), "warm fetch is never gated");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_engine_survives_alone() {
        let registry = EngineRegistry::with_config(RegistryConfig {
            memory_budget: 1,
            ..RegistryConfig::default()
        });
        registry.insert("big", engine(8));
        assert_eq!(registry.len(), 1, "the newest engine is never evicted");
        registry.insert("bigger", engine(9));
        assert_eq!(registry.names(), vec!["bigger".to_string()]);
    }

    #[test]
    fn snapshot_save_and_lazy_hydration() {
        let dir = scratch_dir("hydrate");
        let saved = EngineRegistry::new().snapshot_dir(&dir);
        let original = saved.insert("po", engine(10));
        let path = saved.save("po").unwrap();
        assert!(path.ends_with("po.uxm"));

        // A fresh registry (a restarted process) hydrates lazily.
        let restarted = EngineRegistry::new().snapshot_dir(&dir);
        assert!(restarted.get("po").is_none(), "not resident yet");
        let q = uxm_twig::TwigPattern::parse("PO//Amount").unwrap();
        let request = BatchQuery::ptq("po", q.clone());
        let answers = restarted.batch(std::slice::from_ref(&request));
        assert_eq!(
            answers[0].as_ref().unwrap().answers,
            original.run(&request.query).unwrap().answers
        );
        assert_eq!(restarted.len(), 1, "hydrated engine is now resident");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_requires_dir_and_valid_names() {
        let registry = EngineRegistry::new();
        registry.insert("po", engine(11));
        assert_eq!(registry.save("po"), Err(UxmError::NoSnapshotDir));
        let with_dir = EngineRegistry::new().snapshot_dir(scratch_dir("names"));
        with_dir.insert("../evil", engine(12));
        assert_eq!(
            with_dir.save("../evil"),
            Err(UxmError::InvalidName("../evil".to_string()))
        );
        assert_eq!(
            with_dir.fetch("a/b").unwrap_err(),
            UxmError::InvalidName("a/b".to_string())
        );
    }

    #[test]
    fn corrupt_snapshot_reports_decode_error() {
        let dir = scratch_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.uxm"), b"UXMSgarbage").unwrap();
        let registry = EngineRegistry::new().snapshot_dir(&dir);
        assert!(matches!(
            registry.fetch("bad").unwrap_err(),
            UxmError::Decode(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
