//! `repro shard` — scatter-gather benchmark for the sharded registry,
//! writing `BENCH_shard.json`.
//!
//! Two phases, each run at 1 shard (the degenerate router — one
//! registry behind the scatter-gather front) and at 4 shards:
//!
//! * **Phase 1 — work split.** An open corpus sweep (`/query`
//!   round-robin over every engine plus periodic `/topk` scatter-
//!   gathers) with an unconstrained budget. The consistent-hash ring
//!   pins each engine to one owner, so the interesting number is the
//!   *largest single shard's* resident footprint: at 4 shards it
//!   should be roughly a quarter of the corpus — no shard ever does
//!   the whole cluster's hydration work.
//!
//! * **Phase 2 — tail isolation.** A tight per-shard budget plus a
//!   thrash gate, then two populations at once: *aggressors* cycling
//!   the cold tail of engines owned by one "hot" shard (a worst-case
//!   LRU churn), and *victims* querying a small set of engines that
//!   the 4-shard ring places on **other** shards. At 1 shard the
//!   aggressors evict the victims' engines from under them; at 4 the
//!   churn is confined to the hot shard and the victims' tail stays
//!   flat. The per-shard eviction/shed counters in the report show
//!   exactly where the thrash landed.
//!
//! No wall-clock assertion gates the run — the JSON report records
//! the latency distributions and counters for inspection; structural
//! invariants (typed responses, reachable engines) are asserted.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use uxm_core::api::Query;
use uxm_core::json::Json;
use uxm_core::registry::{RegistryConfig, RegistryStats};
use uxm_core::router::{Ring, Router, RouterConfig};
use uxm_core::server::{Client, ServerConfig};
use uxm_twig::TwigPattern;

use crate::percentile;
use crate::soak::{build_corpus, SoakConfig};

/// Shard counts each phase compares.
const SHARD_COUNTS: [usize; 2] = [1, 4];
/// Driver threads per population.
const THREADS: usize = 3;
/// Every n-th phase-1 request is a `/topk` scatter-gather.
const TOPK_EVERY: usize = 16;
/// Victim engines sampled from the non-hot shards in phase 2.
const VICTIMS: usize = 4;

/// One phase's wall-clock slice of the overall `--duration` budget
/// (four timed runs total, floor 2 s so tiny test runs still drive
/// real traffic).
fn phase_duration(cfg: &SoakConfig) -> Duration {
    (cfg.duration / 6).max(Duration::from_secs(2))
}

/// Starts a router (with its front server) over `dir`.
fn start_stack(
    dir: &std::path::Path,
    shards: usize,
    registry: RegistryConfig,
) -> (
    std::sync::Arc<Router>,
    std::net::SocketAddr,
    uxm_core::server::ServerHandle,
) {
    let router = Router::start(
        dir,
        RouterConfig {
            shards,
            registry,
            ..RouterConfig::default()
        },
    )
    .expect("router start");
    let front = router
        .bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
    let addr = front.local_addr();
    let handle = front.start();
    (router, addr, handle)
}

/// Drives `names` round-robin from `THREADS` persistent connections
/// until `deadline`: mostly `/query`, every [`TOPK_EVERY`]-th request
/// a `/topk` scatter-gather. Returns `(latencies µs, errors)` —
/// any non-200 is an error (phase 1 runs unconstrained, nothing may
/// shed), and each thread asserts its bodies stay typed JSON.
fn drive_sweep(
    addr: std::net::SocketAddr,
    deadline: Instant,
    names: &[String],
    query: &str,
    topk_body: &str,
) -> (Vec<u64>, u64) {
    let errors = AtomicU64::new(0);
    let mut latencies = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let errors = &errors;
                scope.spawn(move || {
                    let mut lats = Vec::new();
                    let mut client: Option<Client> = None;
                    let mut i = t; // offset start so threads interleave
                    while Instant::now() < deadline {
                        let c = match client.as_mut() {
                            Some(c) => c,
                            None => match Client::connect(addr)
                                .and_then(|c| c.read_timeout(Duration::from_secs(10)))
                            {
                                Ok(c) => client.insert(c),
                                Err(_) => continue,
                            },
                        };
                        let started = Instant::now();
                        let outcome = if i % TOPK_EVERY == 0 {
                            c.post("/topk", topk_body)
                        } else {
                            c.post(&format!("/query/{}", names[i % names.len()]), query)
                        };
                        i += 1;
                        match outcome {
                            Ok((status, body)) => {
                                lats.push(started.elapsed().as_micros() as u64);
                                assert!(Json::parse(&body).is_ok(), "untyped body: {body}");
                                if status != 200 {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    client = None;
                                }
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                client = None;
                            }
                        }
                    }
                    lats
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.append(&mut h.join().expect("sweep thread"));
        }
        all
    });
    latencies.sort_unstable();
    (latencies, errors.load(Ordering::Relaxed))
}

/// Phase-2 population: cycles `names` in a fixed order (aggressors —
/// worst-case LRU churn) or round-robin over a small hot set
/// (victims), recording latencies. 429/503 sheds are expected under
/// thrash; they close the connection and the thread reconnects.
fn drive_population(
    addr: std::net::SocketAddr,
    deadline: Instant,
    names: &[String],
    query: &str,
) -> (Vec<u64>, u64, u64) {
    let sheds = AtomicU64::new(0);
    let requests = AtomicU64::new(0);
    let mut latencies = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (sheds, requests) = (&sheds, &requests);
                scope.spawn(move || {
                    let mut lats = Vec::new();
                    let mut client: Option<Client> = None;
                    let mut i = t * (names.len() / THREADS).max(1);
                    while Instant::now() < deadline {
                        let c = match client.as_mut() {
                            Some(c) => c,
                            None => match Client::connect(addr)
                                .and_then(|c| c.read_timeout(Duration::from_secs(10)))
                            {
                                Ok(c) => client.insert(c),
                                Err(_) => continue,
                            },
                        };
                        let started = Instant::now();
                        let outcome = c.post(&format!("/query/{}", names[i % names.len()]), query);
                        i += 1;
                        match outcome {
                            Ok((status, _)) => {
                                requests.fetch_add(1, Ordering::Relaxed);
                                lats.push(started.elapsed().as_micros() as u64);
                                if status != 200 {
                                    sheds.fetch_add(1, Ordering::Relaxed);
                                    client = None;
                                }
                            }
                            Err(_) => client = None,
                        }
                    }
                    lats
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.append(&mut h.join().expect("population thread"));
        }
        all
    });
    latencies.sort_unstable();
    (
        latencies,
        requests.load(Ordering::Relaxed),
        sheds.load(Ordering::Relaxed),
    )
}

/// Canonical JSON rows for per-shard registry counters.
fn shard_rows(stats: &[(u64, RegistryStats)]) -> Json {
    Json::Arr(
        stats
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
                ])
            })
            .collect(),
    )
}

/// Latency summary members (alphabetical, canonical).
fn latency_members(sorted: &[u64]) -> Vec<(String, Json)> {
    vec![
        ("count".into(), Json::uint(sorted.len() as u64)),
        (
            "max_us".into(),
            Json::uint(sorted.last().copied().unwrap_or(0)),
        ),
        ("p50_us".into(), Json::uint(percentile(sorted, 50.0))),
        ("p99_us".into(), Json::uint(percentile(sorted, 99.0))),
    ]
}

/// Runs the shard benchmark. Returns the printable report and writes
/// `BENCH_shard.json`.
pub fn shard_bench(cfg: &SoakConfig) -> String {
    let scratch = std::env::temp_dir().join(format!("uxm-shard-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let phase = phase_duration(cfg);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "BENCH_shard — scatter-gather router at {:?} shards, {:.1}s per run: \
         {} engines, {} corpus nodes, seed {}",
        SHARD_COUNTS,
        phase.as_secs_f64(),
        cfg.documents,
        cfg.total_nodes,
        cfg.seed
    );

    let build_start = Instant::now();
    let (names, corpus_bytes) = build_corpus(cfg, &scratch);
    let _ = writeln!(
        out,
        "  corpus built in {:.1}s: {corpus_bytes} bytes of engines",
        build_start.elapsed().as_secs_f64()
    );

    let query = Query::ptq(TwigPattern::parse("//Qty").expect("twig")).to_json_string();
    let topk_body = Json::Obj(vec![(
        "query".into(),
        Query::topk(TwigPattern::parse("PO//Amount").expect("twig"), 4).to_json(),
    )])
    .to_string();

    // ---- phase 1: work split under an unconstrained budget ----
    let mut phase1_rows: Vec<Json> = Vec::new();
    let _ = writeln!(out, "  phase 1 — work split (budget off):");
    for &shards in &SHARD_COUNTS {
        let (router, addr, handle) = start_stack(&scratch, shards, RegistryConfig::default());
        let (lats, errors) = drive_sweep(addr, Instant::now() + phase, &names, &query, &topk_body);
        assert_eq!(errors, 0, "phase 1 runs unconstrained; nothing may fail");
        let stats = router.shard_stats();
        handle.shutdown();
        router.shutdown();
        let max_resident = stats
            .iter()
            .map(|(_, s)| s.resident_bytes)
            .max()
            .unwrap_or(0);
        let total_resident: usize = stats.iter().map(|(_, s)| s.resident_bytes).sum();
        let rps = lats.len() as f64 / phase.as_secs_f64();
        let _ = writeln!(
            out,
            "    {shards} shard(s): {} reqs ({rps:.0}/s), p50 {} µs, p99 {} µs; \
             max shard resident {max_resident} B of {total_resident} B total",
            lats.len(),
            percentile(&lats, 50.0),
            percentile(&lats, 99.0),
        );
        let mut members = latency_members(&lats);
        members.push((
            "max_shard_resident_bytes".into(),
            Json::uint(max_resident as u64),
        ));
        members.push(("shard_count".into(), Json::uint(shards as u64)));
        members.push(("shards".into(), shard_rows(&stats)));
        members.push((
            "total_resident_bytes".into(),
            Json::uint(total_resident as u64),
        ));
        members.sort_by(|a, b| a.0.cmp(&b.0));
        phase1_rows.push(Json::Obj(members));
    }

    // ---- phase 2: tail isolation under thrash ----
    // Partition the corpus by the 4-shard ring: aggressors churn the
    // hot shard's engines, victims live on the other shards. The same
    // populations run against the 1-shard stack, where "isolation"
    // cannot exist — everyone shares one LRU.
    let ring = Ring::build(&[0, 1, 2, 3], RouterConfig::default().vnodes);
    let mut by_owner: std::collections::HashMap<u64, Vec<&String>> = Default::default();
    for name in &names {
        by_owner.entry(ring.owner(name)).or_default().push(name);
    }
    let hot = *by_owner
        .iter()
        .max_by_key(|(id, v)| (v.len(), std::cmp::Reverse(**id)))
        .expect("non-empty corpus")
        .0;
    let aggressor_names: Vec<String> = by_owner[&hot].iter().map(|n| n.to_string()).collect();
    // Victims round-robin across the non-hot shards (ascending id, so
    // the pick is deterministic) for shard diversity.
    let mut others: Vec<u64> = by_owner.keys().copied().filter(|&id| id != hot).collect();
    others.sort_unstable();
    let mut victim_names: Vec<String> = Vec::new();
    let mut depth = 0;
    while victim_names.len() < VICTIMS {
        let before = victim_names.len();
        for &id in &others {
            if victim_names.len() >= VICTIMS {
                break;
            }
            if let Some(n) = by_owner[&id].get(depth) {
                victim_names.push((*n).clone());
            }
        }
        if victim_names.len() == before {
            break; // tiny corpus: take what exists
        }
        depth += 1;
    }
    assert!(
        !victim_names.is_empty(),
        "4-shard ring left no victim engines"
    );
    // Cluster budget tight enough that the hot shard's slice thrashes:
    // 40 % of the corpus, matching the soak's derivation.
    let budget = if cfg.budget > 0 {
        cfg.budget
    } else {
        (corpus_bytes * 2 / 5).max(1)
    };
    let _ = writeln!(
        out,
        "  phase 2 — tail isolation: budget {budget} B, hot shard {hot} \
         ({} aggressor engines), {} victim engines",
        aggressor_names.len(),
        victim_names.len()
    );
    let mut phase2_rows: Vec<Json> = Vec::new();
    for &shards in &SHARD_COUNTS {
        let (router, addr, handle) = start_stack(
            &scratch,
            shards,
            RegistryConfig {
                memory_budget: budget / shards,
                thrash_evictions: 6,
                thrash_window: 512,
            },
        );
        let deadline = Instant::now() + phase;
        let ((agg_lats, agg_reqs, agg_sheds), (vic_lats, vic_reqs, vic_sheds)) =
            std::thread::scope(|scope| {
                let agg =
                    scope.spawn(|| drive_population(addr, deadline, &aggressor_names, &query));
                let vic = scope.spawn(|| drive_population(addr, deadline, &victim_names, &query));
                (
                    agg.join().expect("aggressors"),
                    vic.join().expect("victims"),
                )
            });
        let stats = router.shard_stats();
        handle.shutdown();
        router.shutdown();
        assert!(
            vic_reqs > 0,
            "victims made no requests at {shards} shard(s)"
        );
        let _ = writeln!(
            out,
            "    {shards} shard(s): victims p50 {} µs, p99 {} µs ({vic_reqs} reqs, \
             {vic_sheds} shed); aggressors p99 {} µs ({agg_reqs} reqs, {agg_sheds} shed)",
            percentile(&vic_lats, 50.0),
            percentile(&vic_lats, 99.0),
            percentile(&agg_lats, 99.0),
        );
        for (id, s) in &stats {
            let _ = writeln!(
                out,
                "      shard {id}: {} evictions, {} thrash-shed hydrations",
                s.evictions, s.shed_hydrations
            );
        }
        phase2_rows.push(Json::Obj(vec![
            (
                "aggressors".into(),
                Json::Obj({
                    let mut m = latency_members(&agg_lats);
                    m.push(("requests".into(), Json::uint(agg_reqs)));
                    m.push(("sheds".into(), Json::uint(agg_sheds)));
                    m
                }),
            ),
            ("shard_count".into(), Json::uint(shards as u64)),
            ("shards".into(), shard_rows(&stats)),
            (
                "victims".into(),
                Json::Obj({
                    let mut m = latency_members(&vic_lats);
                    m.push(("requests".into(), Json::uint(vic_reqs)));
                    m.push(("sheds".into(), Json::uint(vic_sheds)));
                    m
                }),
            ),
        ]));
    }

    let _ = std::fs::remove_dir_all(&scratch);

    let report = Json::Obj(vec![
        (
            "config".into(),
            Json::Obj(vec![
                ("corpus_bytes".into(), Json::uint(corpus_bytes as u64)),
                ("documents".into(), Json::uint(cfg.documents as u64)),
                ("phase_seconds".into(), Json::uint(phase.as_secs())),
                ("seed".into(), Json::uint(cfg.seed)),
                ("total_nodes".into(), Json::uint(cfg.total_nodes as u64)),
            ]),
        ),
        ("phase1_work_split".into(), Json::Arr(phase1_rows)),
        ("phase2_tail_isolation".into(), Json::Arr(phase2_rows)),
    ]);
    let path = "BENCH_shard.json";
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
    fn phase_duration_has_a_floor() {
        let quick = SoakConfig {
            duration: Duration::from_millis(100),
            ..SoakConfig::default()
        };
        assert_eq!(phase_duration(&quick), Duration::from_secs(2));
        let long = SoakConfig {
            duration: Duration::from_secs(60),
            ..SoakConfig::default()
        };
        assert_eq!(phase_duration(&long), Duration::from_secs(10));
    }

    /// A miniature end-to-end run of both phases against a small
    /// corpus — the full harness, seconds not minutes.
    #[test]
    fn mini_shard_bench_reports_both_phases() {
        let cfg = SoakConfig {
            duration: Duration::from_secs(1), // floor: 2 s per run
            documents: 8,
            total_nodes: 16_000,
            budget: 0,
            clients: 2,
            seed: 11,
            shards: 0,
        };
        let report = shard_bench(&cfg);
        assert!(report.contains("phase 1 — work split"));
        assert!(report.contains("phase 2 — tail isolation"));
        assert!(report.contains("wrote BENCH_shard.json"));
        let written = std::fs::read_to_string("BENCH_shard.json").expect("report file");
        let parsed = Json::parse(written.trim()).expect("canonical JSON");
        for phase in ["phase1_work_split", "phase2_tail_isolation"] {
            let rows = parsed.get(phase).and_then(Json::as_arr).expect(phase);
            assert_eq!(rows.len(), SHARD_COUNTS.len(), "{phase} rows");
        }
    }
}
