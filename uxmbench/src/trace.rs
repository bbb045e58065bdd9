//! The traced run: the same seeded request sequence, replayed with a
//! span around every layer call the benchmark makes.
//!
//! Each traced request is sent to the measured stack and to a second
//! stack over the same snapshots (a single server when the measured one
//! is routed, a router otherwise), then replayed in process through the
//! public entry point of each layer on a shadow registry that hydrates
//! from the same snapshot files: `api` parse, `registry` get and fetch,
//! `storage` read and decode on a miss, `engine` run, `api` render.
//! Spans stay in memory and are written out when the run ends.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uxm_core::aggregate::merge_marginals;
use uxm_core::api::{EvaluatorHint, Query, QueryResponse};
use uxm_core::engine::QueryEngine;
use uxm_core::json::Json;
use uxm_core::planner::Evaluator;
use uxm_core::registry::{BatchQuery, EngineRegistry};
use uxm_core::router::{merge_topk, TopKAnswer};
use uxm_core::storage::decode_engine_snapshot;

use crate::load::{Conn, Outcome, Tally};
use crate::util::{median, micros, ratio};
use crate::workload::{Call, Pool, Request, Stream};

/// One timed interval. `parent` is `0` for a request's root span.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A client thread's spans; ids are unique across threads because each
/// thread numbers from its own base.
pub struct Recorder {
    epoch: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(epoch: Instant, client: usize) -> Recorder {
        Recorder {
            epoch,
            next_id: (client as u32) << 26,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Recorder::close`].
    fn open(&mut self, name: &'static str, request: u32, parent: u32) -> u32 {
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.next_id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.next_id
    }

    fn close(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("closing an open span");
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e3
    }

    /// Runs `f` inside a span; returns its result and duration in µs.
    fn time<T>(&mut self, name: &'static str, at: (u32, u32), f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, at.0, at.1);
        let out = f();
        (out, self.close(id))
    }
}

/// Counts and timings measured at the layer boundaries.
#[derive(Default)]
pub struct Layers {
    pub requests: u64,
    pub main: Tally,
    pub compare: Tally,
    pub parse_us: Vec<f64>,
    pub render_us: Vec<f64>,
    pub response_bytes: Vec<f64>,
    pub run_us: Vec<f64>,
    pub relevant: Vec<f64>,
    pub backends: [u64; 3],
    pub program_hits: u64,
    pub program_misses: u64,
    pub fetch_hit_us: Vec<f64>,
    pub fetch_miss_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub snapshot_bytes: Vec<f64>,
    /// Per request: single-server RTT minus parse + fetch + run + render.
    pub server_overhead_us: Vec<f64>,
    /// Per request: routed RTT minus single-server RTT.
    pub router_hop_us: Vec<f64>,
    /// Main-stack RTTs of successful traced requests.
    pub main_rtt_us: Vec<f64>,
    pub failed_replays: u64,
}

impl Layers {
    fn absorb(&mut self, mut o: Layers) {
        self.requests += o.requests;
        self.main.absorb(std::mem::take(&mut o.main));
        self.compare.absorb(std::mem::take(&mut o.compare));
        for (dst, src) in [
            (&mut self.parse_us, &mut o.parse_us),
            (&mut self.render_us, &mut o.render_us),
            (&mut self.response_bytes, &mut o.response_bytes),
            (&mut self.run_us, &mut o.run_us),
            (&mut self.relevant, &mut o.relevant),
            (&mut self.fetch_hit_us, &mut o.fetch_hit_us),
            (&mut self.fetch_miss_us, &mut o.fetch_miss_us),
            (&mut self.read_us, &mut o.read_us),
            (&mut self.decode_us, &mut o.decode_us),
            (&mut self.snapshot_bytes, &mut o.snapshot_bytes),
            (&mut self.server_overhead_us, &mut o.server_overhead_us),
            (&mut self.router_hop_us, &mut o.router_hop_us),
            (&mut self.main_rtt_us, &mut o.main_rtt_us),
        ] {
            dst.append(src);
        }
        for (a, b) in self.backends.iter_mut().zip(o.backends) {
            *a += b;
        }
        self.program_hits += o.program_hits;
        self.program_misses += o.program_misses;
        self.failed_replays += o.failed_replays;
    }
}

/// The in-process half of a traced request.
struct Replay<'a> {
    shadow: &'a EngineRegistry,
    dir: &'a Path,
}

/// Time spent in the server-side layers by one replayed request, µs.
#[derive(Default)]
struct Work {
    parse: f64,
    fetch: f64,
    run: f64,
    render: f64,
}

impl Replay<'_> {
    fn fetch(
        &self,
        rec: &mut Recorder,
        at: (u32, u32),
        name: &str,
        layers: &mut Layers,
        work: &mut Work,
    ) -> Option<Arc<QueryEngine>> {
        let (hit, _) = rec.time("registry.get", at, || self.shadow.get(name).is_some());
        let (engine, us) = rec.time("registry.fetch", at, || self.shadow.fetch(name));
        work.fetch += us;
        if hit {
            layers.fetch_hit_us.push(us);
        } else {
            layers.fetch_miss_us.push(us);
            // The registry hydrates privately; read and decode the same
            // file again to time the storage layer on its own.
            let path = self.dir.join(format!("{name}.uxm"));
            let (bytes, us) = rec.time("storage.read", at, || std::fs::read(&path));
            layers.read_us.push(us);
            if let Ok(bytes) = bytes {
                layers.snapshot_bytes.push(bytes.len() as f64);
                let (_, us) = rec.time("storage.decode", at, || decode_engine_snapshot(&bytes));
                layers.decode_us.push(us);
            }
        }
        engine.ok()
    }

    fn run(
        &self,
        rec: &mut Recorder,
        at: (u32, u32),
        engine: &QueryEngine,
        query: &Query,
        layers: &mut Layers,
        work: &mut Work,
    ) -> Option<QueryResponse> {
        let (response, us) = rec.time("engine.run", at, || engine.run(query));
        work.run += us;
        let response = response.ok()?;
        layers.run_us.push(us);
        layers.relevant.push(response.stats.relevant as f64);
        layers.backends[match response.stats.backend {
            Evaluator::Compiled => 0,
            Evaluator::BlockTree => 1,
            Evaluator::Naive => 2,
        }] += 1;
        layers.program_hits += response.stats.program_cache_hits;
        layers.program_misses += response.stats.program_cache_misses;
        Some(response)
    }

    /// Parses `engines` and `query` of a `/topk` or `/aggregate` body.
    fn fan_out_request(body: &str) -> Option<(Vec<String>, Query)> {
        let parsed = Json::parse(body).ok()?;
        let mut names: Vec<String> = parsed
            .get("engines")?
            .as_arr()?
            .iter()
            .map(|n| n.as_str().map(str::to_string))
            .collect::<Option<_>>()?;
        names.sort();
        names.dedup();
        Some((names, Query::from_json(parsed.get("query")?).ok()?))
    }

    /// Replays one request through the layers; `None` if a layer failed.
    fn replay(
        &self,
        rec: &mut Recorder,
        at: (u32, u32),
        request: &Request,
        layers: &mut Layers,
    ) -> Option<Work> {
        let mut work = Work::default();
        let body = match &request.call {
            Call::Query { engine, .. } => {
                let (query, us) = rec.time("api.parse", at, || Query::from_json_str(&request.body));
                work.parse = us;
                let engine = self.fetch(rec, at, engine, layers, &mut work)?;
                let response = self.run(rec, at, &engine, &query.ok()?, layers, &mut work)?;
                let (body, us) = rec.time("api.render", at, || response.to_json_string());
                work.render = us;
                body
            }
            Call::Batch(_) => {
                let (items, us) = rec.time("api.parse", at, || {
                    Json::parse(&request.body).ok().and_then(|v| {
                        v.as_arr()?
                            .iter()
                            .map(|item| BatchQuery::from_json(item).ok())
                            .collect::<Option<Vec<_>>>()
                    })
                });
                work.parse = us;
                let mut responses = Vec::new();
                for item in items? {
                    let engine = self.fetch(rec, at, &item.engine, layers, &mut work)?;
                    responses.push(self.run(rec, at, &engine, &item.query, layers, &mut work)?);
                }
                let (body, us) = rec.time("api.render", at, || {
                    let results = responses.iter().map(QueryResponse::to_json).collect();
                    Json::Obj(vec![("results".into(), Json::Arr(results))]).to_string()
                });
                work.render = us;
                body
            }
            Call::TopK { k, .. } => {
                let (parsed, us) =
                    rec.time("api.parse", at, || Self::fan_out_request(&request.body));
                work.parse = us;
                let (names, query) = parsed?;
                let mut all = Vec::new();
                for name in names {
                    let engine = self.fetch(rec, at, &name, layers, &mut work)?;
                    let response = self.run(rec, at, &engine, &query, layers, &mut work)?;
                    all.extend(response.answers.into_iter().map(|a| TopKAnswer {
                        engine: name.clone(),
                        probability: a.probability,
                        mappings: a.mappings,
                        matches: a.matches,
                    }));
                }
                let (body, us) = rec.time("api.render", at, || {
                    let answers = merge_topk(all, *k)
                        .iter()
                        .map(TopKAnswer::to_json)
                        .collect();
                    Json::Obj(vec![
                        ("answers".into(), Json::Arr(answers)),
                        ("k".into(), Json::uint(*k as u64)),
                    ])
                    .to_string()
                });
                work.render = us;
                body
            }
            Call::Aggregate { func, .. } => {
                let (parsed, us) =
                    rec.time("api.parse", at, || Self::fan_out_request(&request.body));
                work.parse = us;
                let (names, query) = parsed?;
                let mut entries = Vec::new();
                for name in names {
                    let engine = self.fetch(rec, at, &name, layers, &mut work)?;
                    let response = self.run(rec, at, &engine, &query, layers, &mut work)?;
                    entries.push((name, response.aggregate?));
                }
                let (body, us) = rec.time("api.render", at, || {
                    let rows = entries
                        .iter()
                        .map(|(name, agg)| {
                            Json::Obj(vec![
                                ("engine".into(), Json::str(name.as_str())),
                                (
                                    "marginal".into(),
                                    agg.marginal.map_or(Json::Null, Json::Num),
                                ),
                                ("rows".into(), agg.rows_json()),
                            ])
                        })
                        .collect();
                    let value = merge_marginals(*func, entries.iter().map(|(_, a)| a.marginal));
                    Json::Obj(vec![
                        ("engines".into(), Json::Arr(rows)),
                        ("func".into(), Json::str(func.wire_name())),
                        ("value".into(), value.map_or(Json::Null, Json::Num)),
                    ])
                    .to_string()
                });
                work.render = us;
                body
            }
        };
        layers.response_bytes.push(body.len() as f64);
        layers.parse_us.push(work.parse);
        layers.render_us.push(work.render);
        Some(work)
    }
}

/// The stacks a traced request goes to.
pub struct Targets<'a> {
    /// Whether the measured stack is the router.
    pub routed: bool,
    pub main: &'a mut [Conn],
    pub compare: &'a mut [Conn],
}

/// Replays the clients' seeded streams with tracing until `duration`
/// has passed. Returns the merged layer measurements and every span.
pub fn traced_phase(
    targets: Targets<'_>,
    streams: &mut [Stream],
    pool: &Pool,
    shadow: &EngineRegistry,
    dir: &Path,
    duration: Duration,
) -> (Layers, Vec<Span>) {
    let epoch = Instant::now();
    let deadline = epoch + duration;
    let replay = Replay { shadow, dir };
    let routed = targets.routed;
    let (main_name, compare_name) = if routed {
        ("router", "server")
    } else {
        ("server", "router")
    };
    let per_client: Vec<(Layers, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .main
            .iter_mut()
            .zip(targets.compare.iter_mut())
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(client, ((main, compare), stream))| {
                let replay = &replay;
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, client);
                    let mut layers = Layers::default();
                    let mut request_id = (client as u32) << 26;
                    while Instant::now() < deadline {
                        request_id += 1;
                        let request = &pool.requests[stream.next(pool)];
                        let root = rec.open("client", request_id, 0);
                        let at = (request_id, root);
                        let (outcome, main_us) = rec.time(main_name, at, || main.send(request));
                        let main_ok = matches!(outcome, Outcome::Ok);
                        layers.main.record(&outcome);
                        let (outcome, compare_us) =
                            rec.time(compare_name, at, || compare.send(request));
                        let compare_ok = matches!(outcome, Outcome::Ok);
                        layers.compare.record(&outcome);
                        let work = replay.replay(&mut rec, at, request, &mut layers);
                        rec.close(root);
                        layers.requests += 1;
                        let Some(work) = work else {
                            layers.failed_replays += 1;
                            continue;
                        };
                        if main_ok && compare_ok {
                            let (single, hop) = if routed {
                                (compare_us, main_us)
                            } else {
                                (main_us, compare_us)
                            };
                            layers.main_rtt_us.push(main_us);
                            layers.router_hop_us.push(hop - single);
                            layers
                                .server_overhead_us
                                .push(single - (work.parse + work.fetch + work.run + work.render));
                        }
                    }
                    (layers, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced client panicked"))
            .collect()
    });
    let mut layers = Layers::default();
    let mut spans = Vec::new();
    for (l, rec) in per_client {
        layers.absorb(l);
        spans.extend(rec.spans);
    }
    (layers, spans)
}

/// The layers spans are named after: the first segment of a span name.
pub const LAYERS: [&str; 7] = [
    "api", "client", "engine", "registry", "router", "server", "storage",
];

/// Mean self time per request of each of [`LAYERS`], µs: a span's
/// duration minus the part its child spans cover, summed by layer.
pub fn self_times(spans: &[Span], requests: u64) -> [(&'static str, f64); 7] {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
    }
    let mut by_layer = LAYERS.map(|layer| (layer, 0.0));
    for span in spans {
        let layer = span.name.split('.').next().expect("split yields a segment");
        let own =
            (span.end_ns - span.start_ns).saturating_sub(*child_ns.get(&span.id).unwrap_or(&0));
        let slot = by_layer
            .iter_mut()
            .find(|(l, _)| *l == layer)
            .expect("every span is named after a layer");
        slot.1 += own as f64;
    }
    by_layer.map(|(layer, ns)| (layer, ratio(ns / 1e3, requests as f64)))
}

/// Writes one JSON object per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"end_ns\":{},\"id\":{},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{}}}",
            s.end_ns, s.id, s.name, s.parent, s.request, s.start_ns
        )?;
    }
    out.flush()
}

/// Σ auto / Σ min(pinned) over `queries`: each query timed warm under
/// every evaluator hint, median of several runs.
pub fn auto_over_best(shadow: &EngineRegistry, queries: &[(String, Query)]) -> f64 {
    const RUNS: usize = 5;
    let time = |engine: &QueryEngine, query: &Query| {
        let _ = engine.run(query);
        let mut runs: Vec<f64> = (0..RUNS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(engine.run(query).map(|r| r.len()).unwrap_or(0));
                micros(t.elapsed())
            })
            .collect();
        median(&mut runs)
    };
    let (mut auto, mut best) = (0.0, 0.0);
    for (name, query) in queries {
        let Ok(engine) = shadow.fetch(name) else {
            continue;
        };
        let at = |hint| time(&engine, &query.clone().with_evaluator(hint));
        auto += at(EvaluatorHint::Auto);
        best += [
            EvaluatorHint::Naive,
            EvaluatorHint::BlockTree,
            EvaluatorHint::Compiled,
        ]
        .map(at)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    }
    ratio(auto, best)
}
