//! Horizontal scale-out: a [`Router`] over sharded [`EngineRegistry`]
//! instances behind a consistent-hash ring.
//!
//! The single-registry deployment of [`crate::server`] scales
//! vertically: one registry owns every engine, one LRU budget, one
//! thrash gate. This module partitions the collection instead. A
//! [`Router`] holds N **shards** — each an in-process registry with its
//! own [`RegistryConfig`] memory budget, LRU and thrash gate, all
//! hydrating from one shared snapshot directory — and fronts them with
//! the same serving shell, routing by a [`Ring`]:
//!
//! ```text
//!                      clients
//!                         │
//!                 ┌───────▼────────┐
//!                 │  front Server  │   POST /query/<e>  POST /batch
//!                 │    (Router)    │   POST /topk  GET /stats /shards
//!                 └───────┬────────┘
//!            consistent-hash ring on engine name
//!           ┌─────────────┼─────────────┐
//!     ┌─────▼─────┐ ┌─────▼─────┐ ┌─────▼─────┐
//!     │  shard 0  │ │  shard 1  │ │  shard 2  │   each: an in-process
//!     │ registry  │ │ registry  │ │ registry  │   registry (budget,
//!     └─────┬─────┘ └─────┬─────┘ └─────┬─────┘   LRU, thrash gate)
//!           └─────────────┴─────────────┘
//!              one shared snapshot directory
//! ```
//!
//! The front answers every route itself, with one parse and one render
//! per request: it resolves each engine name to its owner's registry
//! and runs the route code a single server runs.
//!
//! * `POST /query/<engine>` runs on the owner's registry.
//! * `POST /batch` is split by owner, each group runs through its
//!   shard's [`EngineRegistry::batch`] in turn, and the results are
//!   spliced back **in request order** — the body is byte-identical to
//!   a single big registry's.
//! * `POST /topk` (served by single-registry servers too) walks the
//!   sorted, deduplicated engine names, fetches each from its owner,
//!   and merges the answers by the **pinned total order** of
//!   [`merge_topk`] — probability descending, then engine name, then
//!   [`MappingId`] list — so the result is independent of the shard
//!   count.
//! * `POST /aggregate` (served by single-registry servers too) walks
//!   the same name-ascending order and folds the per-engine marginals
//!   with [`merge_marginals`] in that order (count/sum add, min/max
//!   take the extremum), so the sharded body is byte-identical to the
//!   unsharded one.
//! * `GET /shards` reports the ring layout plus per-shard footprint,
//!   evictions, and shed hydrations; `GET /stats` reports the front's
//!   counters plus each shard's registry accounting.
//!
//! # Rebalancing
//!
//! [`Router::add_shard`] / [`Router::remove_shard`] publish a new shard
//! set and ring (rebuild-per-epoch), drop residents from shards that no
//! longer own them, and let the new owner re-hydrate from the **shared
//! snapshot directory** on first touch. A request keeps the epoch it
//! started under, so one that races a removal is answered by the
//! removed shard's registry, which can still hydrate every engine:
//! there is no window where a routed name 404s.

#![deny(missing_docs)]

use crate::aggregate::{merge_marginals, AggFunc, AggregateResult};
use crate::api::{write_provenance, Query, QueryResponse};
use crate::engine::QueryEngine;
use crate::error::UxmError;
use crate::http::Request;
use crate::json::{Json, Writer};
use crate::mapping::MappingId;
use crate::registry::{BatchQuery, EngineRegistry, RegistryConfig, RegistryStats};
use crate::server::{
    registry_json, route_engines, Engines, Handler, Server, ServerConfig, ServerStats,
};
use crate::sync;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use uxm_twig::TwigMatch;

// ---------------------------------------------------------------------
// the ring

/// FNV-1a (64-bit) with a murmur-style avalanche finalizer: a tiny,
/// dependency-free, stable hash. Both ring point placement and
/// engine-name lookup use it, so ownership is a pure function of
/// (shard ids, vnodes, name) — identical across processes and
/// releases. The finalizer matters: raw FNV-1a of short keys differing
/// only in the last characters (engine names like `e0001`, vnode keys
/// like `shard-0/63`) spans a sliver of the 64-bit space, which skews
/// ring arcs badly; full-width mixing restores a uniform spread.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// A consistent-hash ring: each shard contributes `vnodes` points
/// (hashes of `"shard-<id>/<v>"`), and an engine name is owned by the
/// first point at or clockwise-after the name's hash.
///
/// Virtual nodes smooth the partition (64 per shard keeps the largest
/// shard within a few tens of percent of fair share), and consistent
/// hashing keeps rebalancing minimal: adding a shard moves only the
/// names whose arc the new points claim.
#[derive(Clone, Debug)]
pub struct Ring {
    vnodes: usize,
    /// Sorted `(hash, shard_id)` points.
    points: Vec<(u64, u64)>,
}

impl Ring {
    /// Builds the ring for `shard_ids` with `vnodes` points per shard.
    pub fn build(shard_ids: &[u64], vnodes: usize) -> Ring {
        let mut points: Vec<(u64, u64)> = shard_ids
            .iter()
            .flat_map(|&id| {
                (0..vnodes).map(move |v| (fnv1a(format!("shard-{id}/{v}").as_bytes()), id))
            })
            .collect();
        // Ties (identical hashes) sort by shard id — deterministic.
        points.sort_unstable();
        Ring { vnodes, points }
    }

    /// The shard owning `name`.
    ///
    /// # Panics
    ///
    /// Panics on an empty ring; the router never drops below one shard.
    pub fn owner(&self, name: &str) -> u64 {
        assert!(!self.points.is_empty(), "ring has no shards");
        let h = fnv1a(name.as_bytes());
        let i = self.points.partition_point(|&(p, _)| p < h);
        self.points[if i == self.points.len() { 0 } else { i }].1
    }

    /// Points per shard.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Total points on the ring (`shards × vnodes`).
    pub fn points(&self) -> usize {
        self.points.len()
    }
}

// ---------------------------------------------------------------------
// cross-shard top-k

/// One answer of a cross-engine top-k: an [`crate::api::Answer`]
/// tagged with the engine that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKAnswer {
    /// The engine this answer came from.
    pub engine: String,
    /// The answer's probability.
    pub probability: f64,
    /// The contributing mappings, ascending.
    pub mappings: Vec<MappingId>,
    /// The matches of the rewritten query on the document.
    pub matches: Vec<TwigMatch>,
}

impl TopKAnswer {
    /// The canonical JSON form (keys alphabetical:
    /// `engine < mappings < matches < probability`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("engine".into(), Json::str(&self.engine)),
            (
                "mappings".into(),
                Json::Arr(
                    self.mappings
                        .iter()
                        .map(|m| Json::uint(m.0 as u64))
                        .collect(),
                ),
            ),
            (
                "matches".into(),
                Json::Arr(
                    self.matches
                        .iter()
                        .map(|m| {
                            Json::Arr(m.nodes.iter().map(|n| Json::uint(n.0 as u64)).collect())
                        })
                        .collect(),
                ),
            ),
            ("probability".into(), Json::Num(self.probability)),
        ])
    }

    /// Streams the canonical form into `w`: the bytes of
    /// [`TopKAnswer::to_json`], with no tree in between.
    pub fn write_json(&self, w: &mut Writer<'_>) {
        w.begin_obj();
        w.key("engine");
        w.str(&self.engine);
        write_provenance(w, &self.mappings, &self.matches);
        w.key("probability");
        w.num(self.probability);
        w.end_obj();
    }
}

/// Sorts `answers` by the **pinned cross-engine total order** and keeps
/// the best `k`:
///
/// 1. probability **descending** (IEEE `total_cmp`, so ties are exact);
/// 2. engine name **ascending**;
/// 3. contributing [`MappingId`] list **ascending** (lexicographic).
///
/// The order is total and the selection associative: the top-k of a
/// union equals the top-k of the per-shard top-k's, which is what makes
/// the router's cross-shard merge byte-identical to an unsharded
/// evaluation. Documented in `docs/wire-format.md`; changing it is a
/// wire-format break.
pub fn merge_topk(mut answers: Vec<TopKAnswer>, k: usize) -> Vec<TopKAnswer> {
    answers.sort_by(|a, b| {
        b.probability
            .total_cmp(&a.probability)
            .then_with(|| a.engine.cmp(&b.engine))
            .then_with(|| a.mappings.cmp(&b.mappings))
    });
    answers.truncate(k);
    answers
}

// ---------------------------------------------------------------------
// cross-engine /topk and /aggregate

/// Parses a `/topk` or `/aggregate` body, `{"engines":[…],"query":{…}}`
/// with `engines` optional, strictly (unknown members rejected, like the
/// rest of the wire format). `endpoint` names the route in errors.
fn parse_fan_out(body: &str, endpoint: &str) -> Result<(Option<Vec<String>>, Query), UxmError> {
    let parsed = Json::parse(body)?;
    let Json::Obj(members) = &parsed else {
        return Err(UxmError::Json(format!("{endpoint} body must be an object")));
    };
    let mut engines = None;
    let mut query = None;
    for (key, value) in members {
        match key.as_str() {
            "engines" => {
                let arr = value
                    .as_arr()
                    .ok_or_else(|| UxmError::Json("engines must be an array of names".into()))?;
                engines = Some(
                    arr.iter()
                        .map(|v| {
                            v.as_str().map(str::to_string).ok_or_else(|| {
                                UxmError::Json("engine names must be strings".into())
                            })
                        })
                        .collect::<Result<Vec<String>, _>>()?,
                );
            }
            "query" => query = Some(Query::from_json(value)?),
            other => {
                return Err(UxmError::Json(format!(
                    "unknown {endpoint} member {other:?}"
                )))
            }
        }
    }
    let query =
        query.ok_or_else(|| UxmError::Json(format!("{endpoint} body needs a \"query\"")))?;
    Ok((engines, query))
}

/// The engines a `/topk` or `/aggregate` request walks: its explicit
/// list sorted and deduplicated — so the first missing name, and with
/// it the error, is the same at every shard count — or, when the list
/// is omitted, every known engine.
fn fan_out_names(engines: &dyn Engines, explicit: Option<Vec<String>>) -> Vec<String> {
    match explicit {
        Some(mut names) => {
            names.sort();
            names.dedup();
            names
        }
        None => engines.known_names(),
    }
}

/// `POST /topk`: runs one top-k query on every requested engine, in
/// name order, and renders the best `k` answers under [`merge_topk`]
/// as `{"answers":[…],"k":…}`.
pub(crate) fn topk(engines: &dyn Engines, body: &str) -> Result<String, UxmError> {
    let (names, query) = parse_fan_out(body, "topk")?;
    let Query::TopK { k, .. } = query else {
        return Err(UxmError::InvalidQuery(
            "the /topk endpoint needs a top-k query (kind \"topk\")".into(),
        ));
    };
    let mut all = Vec::new();
    for name in fan_out_names(engines, names) {
        let response = engines.fetch(&name)?.run(&query)?;
        all.extend(response.answers.into_iter().map(|a| TopKAnswer {
            engine: name.clone(),
            probability: a.probability,
            mappings: a.mappings,
            matches: a.matches,
        }));
    }
    Ok(topk_body(&merge_topk(all, k), k))
}

/// The `/topk` response body, `{"answers":[…],"k":…}`, for answers
/// already ordered and cut by [`merge_topk`].
pub fn topk_body(answers: &[TopKAnswer], k: usize) -> String {
    let mut out = String::with_capacity(64 + 128 * answers.len());
    let mut w = Writer::new(&mut out);
    w.begin_obj();
    w.key("answers");
    w.begin_arr();
    for a in answers {
        a.write_json(&mut w);
    }
    w.end_arr();
    w.key("k");
    w.uint(k as u64);
    w.end_obj();
    out
}

/// `POST /aggregate`: runs one aggregate query on every requested
/// engine, in name order, and renders the per-engine entries in that
/// order together with the fleet value [`merge_marginals`] folds over
/// it: `{"engines":[…],"func":…,"value":…}`. Documented in
/// `docs/wire-format.md`.
pub(crate) fn aggregate(engines: &dyn Engines, body: &str) -> Result<String, UxmError> {
    let (names, query) = parse_fan_out(body, "aggregate")?;
    let Query::Aggregate { func, .. } = query else {
        return Err(UxmError::InvalidQuery(
            "the /aggregate endpoint needs an aggregate query (kind \"aggregate\")".into(),
        ));
    };
    let mut entries = Vec::new();
    for name in fan_out_names(engines, names) {
        let response = engines.fetch(&name)?.run(&query)?;
        let agg = response.aggregate.ok_or_else(|| {
            UxmError::Internal("aggregate query returned no aggregate block".into())
        })?;
        entries.push((name, agg));
    }
    Ok(aggregate_body(func, &entries))
}

/// The `/aggregate` response body, `{"engines":[…],"func":…,"value":…}`:
/// one `{"engine":…,"marginal":…,"rows":[…]}` entry per `(name, result)`
/// in the given order, and the fleet value [`merge_marginals`] folds
/// over the entries' marginals in that order.
pub fn aggregate_body(func: AggFunc, entries: &[(String, AggregateResult)]) -> String {
    let rows: usize = entries.iter().map(|(_, a)| a.rows.len()).sum();
    let mut out = String::with_capacity(64 + 64 * entries.len() + 64 * rows);
    let mut w = Writer::new(&mut out);
    w.begin_obj();
    w.key("engines");
    w.begin_arr();
    for (name, agg) in entries {
        w.begin_obj();
        w.key("engine");
        w.str(name);
        w.key("marginal");
        w.opt_num(agg.marginal);
        w.key("rows");
        agg.write_rows(&mut w);
        w.end_obj();
    }
    w.end_arr();
    w.key("func");
    w.str(func.wire_name());
    w.key("value");
    w.opt_num(merge_marginals(
        func,
        entries.iter().map(|(_, a)| a.marginal),
    ));
    w.end_obj();
    out
}

// ---------------------------------------------------------------------
// the router

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// How many shards to create at start. Must be at least 1.
    pub shards: usize,
    /// Virtual nodes per shard on the [`Ring`]. Default 64.
    pub vnodes: usize,
    /// The per-shard registry configuration — note
    /// [`RegistryConfig::memory_budget`] is **per shard**, so a cluster
    /// budget of B over N shards wants `B / N` here.
    pub registry: RegistryConfig,
    /// Unused: shards are in-process registries with no server of their
    /// own, so nothing reads this field. It is kept so that existing
    /// callers that set it still compile.
    pub shard_server: ServerConfig,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            shards: 2,
            vnodes: 64,
            registry: RegistryConfig::default(),
            shard_server: ServerConfig::default(),
        }
    }
}

/// One shard: a registry with its own budget, LRU and thrash gate.
struct Shard {
    /// Monotonic, never reused — removed ids stay dead.
    id: u64,
    registry: EngineRegistry,
}

/// One epoch's shard set and its ring. A rebalance publishes a new
/// `State`; a request keeps the one it started under.
struct State {
    shards: Vec<Arc<Shard>>,
    ring: Ring,
}

impl State {
    fn new(shards: Vec<Arc<Shard>>, vnodes: usize) -> State {
        let ids: Vec<u64> = shards.iter().map(|s| s.id).collect();
        State {
            ring: Ring::build(&ids, vnodes),
            shards,
        }
    }

    /// The index into `shards` of the shard owning `name`.
    fn owner_index(&self, name: &str) -> usize {
        let id = self.ring.owner(name);
        self.shards
            .iter()
            .position(|s| s.id == id)
            .expect("ring ids are current shards")
    }

    /// Evicts residents from shards that no longer own them under this
    /// ring (the re-hydration half of a rebalance is lazy).
    fn drop_misplaced(&self) {
        for shard in &self.shards {
            for name in shard.registry.names() {
                if self.ring.owner(&name) != shard.id {
                    shard.registry.remove(&name);
                }
            }
        }
    }

    /// `GET /shards`: the ring layout plus per-shard ownership and
    /// registry accounting (footprint, evictions, hydrations, shed
    /// hydrations).
    fn shards_body(&self) -> String {
        let known = self.known_names();
        let mut entries: Vec<(u64, Json)> = self
            .shards
            .iter()
            .map(|shard| {
                let stats = shard.registry.stats();
                let owned: Vec<Json> = known
                    .iter()
                    .filter(|n| self.ring.owner(n) == shard.id)
                    .map(|n| Json::str(n.as_str()))
                    .collect();
                let entry = Json::Obj(vec![
                    ("engines".into(), Json::Arr(owned)),
                    ("evictions".into(), Json::uint(stats.evictions)),
                    (
                        "footprint_bytes".into(),
                        Json::uint(stats.footprint_bytes() as u64),
                    ),
                    ("hydrations".into(), Json::uint(stats.hydrations)),
                    ("id".into(), Json::uint(shard.id)),
                    (
                        "resident_bytes".into(),
                        Json::uint(stats.resident_bytes as u64),
                    ),
                    (
                        "resident_engines".into(),
                        Json::uint(stats.resident_engines as u64),
                    ),
                    ("shed_hydrations".into(), Json::uint(stats.shed_hydrations)),
                    (
                        "unreclaimed_bytes".into(),
                        Json::uint(stats.unreclaimed_bytes as u64),
                    ),
                ]);
                (shard.id, entry)
            })
            .collect();
        entries.sort_by_key(|&(id, _)| id);
        Json::Obj(vec![
            (
                "ring".into(),
                Json::Obj(vec![
                    ("points".into(), Json::uint(self.ring.points() as u64)),
                    ("vnodes".into(), Json::uint(self.ring.vnodes() as u64)),
                ]),
            ),
            (
                "shards".into(),
                Json::Arr(entries.into_iter().map(|(_, e)| e).collect()),
            ),
        ])
        .to_string()
    }

    /// The router's `GET /stats`: the front's per-engine and server
    /// counters, the same `engines` and `server` sections a single
    /// server reports, plus a `registry` section per shard.
    fn stats_body(&self, stats: &ServerStats) -> String {
        let Json::Obj(mut members) = stats.to_json() else {
            unreachable!("ServerStats::to_json is an object");
        };
        let mut entries: Vec<(u64, Json)> = self
            .shards
            .iter()
            .map(|shard| {
                let entry = Json::Obj(vec![
                    ("id".into(), Json::uint(shard.id)),
                    ("registry".into(), registry_json(&shard.registry)),
                ]);
                (shard.id, entry)
            })
            .collect();
        entries.sort_by_key(|&(id, _)| id);
        // Keys stay alphabetical: engines < server < shards.
        members.push((
            "shards".into(),
            Json::Arr(entries.into_iter().map(|(_, e)| e).collect()),
        ));
        Json::Obj(members).to_string()
    }

    /// The router's `GET /engines`: every known name with its owning
    /// shard and whether the owner has it resident, plus cluster-wide
    /// totals. Residency is read without touching any LRU stamp, so a
    /// monitoring poll never changes what is evicted next.
    fn engines_body(&self) -> String {
        let resident: Vec<Vec<String>> = self.shards.iter().map(|s| s.registry.names()).collect();
        let entries: Vec<Json> = self
            .known_names()
            .iter()
            .map(|name| {
                let owner = self.owner_index(name);
                Json::Obj(vec![
                    ("name".into(), Json::str(name.as_str())),
                    (
                        "resident".into(),
                        Json::Bool(resident[owner].binary_search(name).is_ok()),
                    ),
                    ("shard".into(), Json::uint(self.shards[owner].id)),
                ])
            })
            .collect();
        let mut evictions = 0u64;
        let mut resident_bytes = 0u64;
        let mut unreclaimed = 0u64;
        for shard in &self.shards {
            let stats = shard.registry.stats();
            evictions += stats.evictions;
            resident_bytes += stats.resident_bytes as u64;
            unreclaimed += stats.unreclaimed_bytes as u64;
        }
        Json::Obj(vec![
            ("engines".into(), Json::Arr(entries)),
            ("evictions".into(), Json::uint(evictions)),
            ("resident_bytes".into(), Json::uint(resident_bytes)),
            ("unreclaimed_bytes".into(), Json::uint(unreclaimed)),
        ])
        .to_string()
    }
}

/// Each name is served by its owner's registry.
impl Engines for State {
    fn fetch(&self, name: &str) -> Result<Arc<QueryEngine>, UxmError> {
        self.shards[self.owner_index(name)].registry.fetch(name)
    }

    /// Splits the batch by owner, runs each group through its shard's
    /// [`EngineRegistry::batch`] in turn (in order of first appearance),
    /// and splices the answers back in request order.
    fn batch(&self, queries: &[BatchQuery]) -> Vec<Result<QueryResponse, UxmError>> {
        let owners: Vec<usize> = queries
            .iter()
            .map(|q| self.owner_index(&q.engine))
            .collect();
        let mut order: Vec<usize> = Vec::new();
        for &owner in &owners {
            if !order.contains(&owner) {
                order.push(owner);
            }
        }
        if let [only] = order[..] {
            return self.shards[only].registry.batch(queries);
        }
        let mut out: Vec<Option<Result<QueryResponse, UxmError>>> = vec![None; queries.len()];
        for owner in order {
            let idxs: Vec<usize> = (0..queries.len()).filter(|&i| owners[i] == owner).collect();
            let group: Vec<BatchQuery> = idxs.iter().map(|&i| queries[i].clone()).collect();
            let answers = self.shards[owner].registry.batch(&group);
            for (i, answer) in idxs.into_iter().zip(answers) {
                out[i] = Some(answer);
            }
        }
        out.into_iter()
            .map(|a| a.expect("every request answered"))
            .collect()
    }

    /// Residents of every shard plus the shared directory's snapshots.
    fn known_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.registry.names())
            .collect();
        if let Some(first) = self.shards.first() {
            names.extend(first.registry.snapshot_names());
        }
        names.sort();
        names.dedup();
        names
    }
}

/// The sharded front over N in-process shard registries. See the module
/// docs for the architecture; construct with [`Router::start`], serve
/// with [`Router::bind`], reshape with [`Router::add_shard`] /
/// [`Router::remove_shard`].
pub struct Router {
    snapshot_dir: PathBuf,
    config: RouterConfig,
    state: RwLock<Arc<State>>,
    next_id: AtomicU64,
}

impl Router {
    /// Creates `config.shards` shard registries over `snapshot_dir`
    /// (every shard hydrates from the same directory) and builds the
    /// ring.
    pub fn start(
        snapshot_dir: impl Into<PathBuf>,
        mut config: RouterConfig,
    ) -> Result<Arc<Router>, UxmError> {
        if config.shards == 0 {
            return Err(UxmError::Usage("a router needs at least 1 shard".into()));
        }
        config.vnodes = config.vnodes.max(1);
        let router = Arc::new(Router {
            snapshot_dir: snapshot_dir.into(),
            state: RwLock::new(Arc::new(State::new(Vec::new(), config.vnodes))),
            next_id: AtomicU64::new(0),
            config,
        });
        for _ in 0..router.config.shards {
            router.add_shard()?;
        }
        Ok(router)
    }

    /// Binds the front server on `addr`; it answers every route in
    /// process over the shard registries.
    pub fn bind(
        self: &Arc<Self>,
        addr: impl std::net::ToSocketAddrs + std::fmt::Display,
        config: ServerConfig,
    ) -> Result<Server, UxmError> {
        Server::bind_handler(Arc::clone(self) as Arc<dyn Handler>, addr, config)
    }

    fn new_shard(&self) -> Arc<Shard> {
        Arc::new(Shard {
            id: self.next_id.fetch_add(1, Ordering::SeqCst),
            registry: EngineRegistry::with_config(self.config.registry.clone())
                .snapshot_dir(&self.snapshot_dir),
        })
    }

    /// The current epoch.
    fn state(&self) -> Arc<State> {
        Arc::clone(&sync::read(&self.state))
    }

    /// Current shard ids, ascending.
    pub fn shard_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.state().shards.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Current shard count.
    pub fn shard_count(&self) -> usize {
        self.state().shards.len()
    }

    /// Per-shard registry accounting, ascending by shard id — what the
    /// soak harness samples for per-shard footprint and shed counters.
    pub fn shard_stats(&self) -> Vec<(u64, RegistryStats)> {
        let mut stats: Vec<(u64, RegistryStats)> = self
            .state()
            .shards
            .iter()
            .map(|s| (s.id, s.registry.stats()))
            .collect();
        stats.sort_unstable_by_key(|&(id, _)| id);
        stats
    }

    /// The shard currently owning `name`.
    pub fn owner(&self, name: &str) -> u64 {
        self.state().ring.owner(name)
    }

    /// Every name the cluster can serve (resident anywhere or
    /// snapshotted), sorted.
    pub fn known_names(&self) -> Vec<String> {
        self.state().known_names()
    }

    /// Adds one shard: publishes the grown shard set and ring, and drops
    /// now-misplaced residents so the new owners re-hydrate from the
    /// shared snapshot directory on first touch. Returns the new
    /// shard's id.
    pub fn add_shard(&self) -> Result<u64, UxmError> {
        let shard = self.new_shard();
        let id = shard.id;
        let mut st = sync::write(&self.state);
        let mut shards = st.shards.clone();
        shards.push(shard);
        *st = Arc::new(State::new(shards, self.config.vnodes));
        st.drop_misplaced();
        Ok(id)
    }

    /// Removes shard `id`: publishes the shard set and ring without it
    /// and drops misplaced residents. A request already holding the old
    /// epoch finishes on the removed shard's registry. The last shard
    /// cannot be removed.
    pub fn remove_shard(&self, id: u64) -> Result<(), UxmError> {
        let mut st = sync::write(&self.state);
        if st.shards.len() <= 1 {
            return Err(UxmError::Usage("cannot remove the last shard".into()));
        }
        let Some(pos) = st.shards.iter().position(|s| s.id == id) else {
            return Err(UxmError::ShardUnavailable {
                shard: id,
                reason: "no such shard".into(),
            });
        };
        let mut shards = st.shards.clone();
        shards.remove(pos);
        *st = Arc::new(State::new(shards, self.config.vnodes));
        st.drop_misplaced();
        Ok(())
    }

    /// Releases every shard's resident engines; the snapshots on disk
    /// stay. Shards run no threads of their own, so there is nothing
    /// else to stop — the front server's handle is owned by the caller
    /// of [`Router::bind`].
    pub fn shutdown(&self) {
        for shard in &self.state().shards {
            for name in shard.registry.names() {
                shard.registry.remove(&name);
            }
        }
    }
}

/// The front server's routing: every route answered in process over
/// the current epoch's shards.
impl Handler for Router {
    fn handle(&self, stats: &ServerStats, request: &Request) -> (u16, String) {
        let state = self.state();
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/shards") => (200, state.shards_body()),
            ("GET", "/stats") => (200, state.stats_body(stats)),
            ("GET", "/engines") => (200, state.engines_body()),
            _ => route_engines(&*state, stats, request, "/engines|/stats|/shards|/healthz"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_ownership_is_deterministic() {
        let a = Ring::build(&[0, 1, 2], 64);
        let b = Ring::build(&[0, 1, 2], 64);
        for name in ["orders", "po", "e0001", "catalog", ""] {
            assert_eq!(a.owner(name), b.owner(name));
        }
        assert_eq!(a.points(), 3 * 64);
        assert_eq!(a.vnodes(), 64);
    }

    #[test]
    fn ring_spreads_names_across_shards() {
        let ring = Ring::build(&[0, 1, 2, 3], 64);
        let mut per_shard = [0usize; 4];
        for i in 0..1000 {
            per_shard[ring.owner(&format!("e{i:04}")) as usize] += 1;
        }
        for (id, &count) in per_shard.iter().enumerate() {
            assert!(
                count > 50,
                "shard {id} owns only {count}/1000 names: {per_shard:?}"
            );
        }
    }

    #[test]
    fn ring_growth_moves_only_some_names() {
        let before = Ring::build(&[0, 1], 64);
        let after = Ring::build(&[0, 1, 2], 64);
        let names: Vec<String> = (0..1000).map(|i| format!("e{i:04}")).collect();
        let moved = names
            .iter()
            .filter(|n| before.owner(n) != after.owner(n))
            .count();
        // Consistent hashing: only the arcs claimed by the new shard
        // move — roughly 1/3 of names, never anywhere near all of them.
        assert!(moved > 0, "a new shard must claim something");
        assert!(
            moved < 600,
            "{moved}/1000 names moved — ring is not consistent"
        );
        // Names that moved all moved *to* the new shard.
        for name in &names {
            if before.owner(name) != after.owner(name) {
                assert_eq!(after.owner(name), 2, "{name} moved to an old shard");
            }
        }
    }

    #[test]
    fn merge_topk_pins_the_total_order() {
        let answer = |engine: &str, p: f64, mapping: u32| TopKAnswer {
            engine: engine.into(),
            probability: p,
            mappings: vec![MappingId(mapping)],
            matches: vec![],
        };
        let merged = merge_topk(
            vec![
                answer("b", 0.5, 0),
                answer("a", 0.5, 1),
                answer("a", 0.5, 0),
                answer("c", 0.9, 7),
                answer("b", 0.1, 2),
            ],
            4,
        );
        let order: Vec<(String, f64, u32)> = merged
            .iter()
            .map(|a| (a.engine.clone(), a.probability, a.mappings[0].0))
            .collect();
        // Probability desc, then engine asc, then mappings asc; k=4
        // cuts the 0.1 tail.
        assert_eq!(
            order,
            vec![
                ("c".into(), 0.9, 7),
                ("a".into(), 0.5, 0),
                ("a".into(), 0.5, 1),
                ("b".into(), 0.5, 0),
            ]
        );
    }

    #[test]
    fn merge_topk_is_associative() {
        // top-k(union) == top-k(top-k(left) ∪ top-k(right)) — the
        // property the cross-shard merge relies on.
        let mk = |engine: &str, p: f64, m: u32| TopKAnswer {
            engine: engine.into(),
            probability: p,
            mappings: vec![MappingId(m)],
            matches: vec![],
        };
        let left = vec![mk("a", 0.9, 0), mk("a", 0.4, 1), mk("a", 0.2, 2)];
        let right = vec![mk("b", 0.8, 0), mk("b", 0.4, 1), mk("b", 0.1, 2)];
        let k = 3;
        let mut union = left.clone();
        union.extend(right.clone());
        let direct = merge_topk(union, k);
        let mut pre = merge_topk(left, k);
        pre.extend(merge_topk(right, k));
        let nested = merge_topk(pre, k);
        assert_eq!(direct, nested);
    }

    #[test]
    fn topk_answer_renders_canonically() {
        let a = TopKAnswer {
            engine: "orders".into(),
            probability: 0.125,
            mappings: vec![MappingId(0), MappingId(3)],
            matches: vec![TwigMatch {
                nodes: vec![uxm_xml::DocNodeId(1), uxm_xml::DocNodeId(5)],
            }],
        };
        assert_eq!(
            a.to_json().to_string(),
            "{\"engine\":\"orders\",\"mappings\":[0,3],\"matches\":[[1,5]],\"probability\":0.125}"
        );
    }

    #[test]
    fn fan_out_requests_are_strict() {
        for body in ["[]", "{}", "{\"bogus\":1}"] {
            assert!(parse_fan_out(body, "topk").is_err(), "{body}");
        }
        // A non-topk query is rejected with invalid-query.
        let q = Query::ptq(uxm_twig::TwigPattern::parse("A//B").unwrap());
        let body = Json::Obj(vec![("query".into(), q.to_json())]).to_string();
        assert!(matches!(
            topk(&EngineRegistry::new(), &body),
            Err(UxmError::InvalidQuery(_))
        ));
        let q = Query::topk(uxm_twig::TwigPattern::parse("A//B").unwrap(), 5);
        let body = Json::Obj(vec![
            ("engines".into(), Json::Arr(vec![Json::str("x")])),
            ("query".into(), q.to_json()),
        ])
        .to_string();
        let (engines, query) = parse_fan_out(&body, "topk").unwrap();
        assert_eq!(engines.as_deref(), Some(&["x".to_string()][..]));
        assert_eq!(query, q);
    }
}
