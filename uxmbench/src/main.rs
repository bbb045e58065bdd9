//! `uxmbench` — the uxm serving benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path uxmbench/Cargo.toml -- \
//!     --workload d7_hot --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Sets the workload's serving stack up several times (engines built,
//! snapshots written, server or router started), warms it, then drives
//! it with closed-loop clients for `--seconds` and prints the end-to-end
//! metrics. With `--trace 1` the run splits its time between an
//! untraced phase and a traced replay of the same request sequence, and
//! prints the per-layer metrics instead. The last line of standard
//! output is one JSON object; `README.md` documents every metric.

mod load;
mod trace;
mod util;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Duration;

use uxm_core::registry::EngineRegistry;

use load::{run_phase, warm_each, Conn, Phase, Tally};
use util::{median, percentile, ratio, Rng};
use workload::{amplification, pool, set_up, BuildTimes, SetUp, Stack, Stream, Workload, CLIENTS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Distinct queries timed under every evaluator hint for
/// `planner.auto_over_best`.
const PLANNER_QUERIES: usize = 24;
/// Where the benchmark keeps snapshots while it runs and the span file
/// after a traced run, relative to the working directory.
const OUT_DIR: &str = ".uxmbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: uxmbench --workload <d7_hot|table2_routed|corpus_cold> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A metric line of the report: name, value, unit.
type Metric = (String, f64, &'static str);

struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<Metric>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("uxmbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = ScratchDir(Path::new(OUT_DIR).join(format!("work-{}", std::process::id())));
    let report = measure(&args, &scratch.0);
    drop(scratch);
    match report {
        Ok(report) => print_report(&report),
        Err(e) => {
            eprintln!("uxmbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One request stream per client; equal seeds and salts give equal
/// sequences.
fn client_streams(seed: u64, salt: u64) -> Vec<Stream> {
    (0..CLIENTS as u64)
        .map(|c| {
            Stream::new(Rng::new(
                seed ^ salt ^ (c + 1).wrapping_mul(0xA24B_AED4_963E_E407),
            ))
        })
        .collect()
}

/// Sets the stack up [`SETUP_REPS`] times from scratch and keeps the
/// last one; returns it with the wall time and build times of every
/// set-up, the kept one last.
fn set_up_repeatedly(
    args: &Args,
    work: &Path,
) -> Result<(SetUp, PathBuf, Vec<BuildTimes>), String> {
    let mut all = Vec::new();
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("setup{rep}"));
        let s = set_up(args.workload, args.seed, &dir)?;
        all.push(s.times.clone());
        if rep + 1 == SETUP_REPS {
            return Ok((s, dir, all));
        }
        s.stack.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    unreachable!("the loop returns on its last repetition")
}

fn measure(args: &Args, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    println!(
        "uxmbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (mut setup, dir, setups) = set_up_repeatedly(args, work)?;
    let setup_s = median(&mut setups.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let engines = std::mem::take(&mut setup.engines);
    let pool = pool(w, args.seed, &engines)?;
    drop(engines);
    println!(
        "  set-up: {SETUP_REPS} reps, median {setup_s:.4} s; {} engine(s), {} snapshot bytes, \
         {} resident bytes, budget {} bytes; pool of {} distinct requests",
        setup.times.engines,
        setup.disk_bytes,
        setup.resident_bytes,
        setup.registry.memory_budget,
        pool.requests.len()
    );

    let mut conns: Vec<Conn> = (0..CLIENTS).map(|_| Conn::new(setup.stack.addr)).collect();
    let mut warm = warm_up(w, &setup.stack, &mut conns, &pool, args.seed);

    let result = if args.trace {
        traced(args, &setup, &dir, &mut conns, &pool, &mut warm, &setups)
    } else {
        let mut streams = client_streams(args.seed, 0);
        let phase = run_phase(
            &setup.stack,
            &mut conns,
            &mut streams,
            &pool,
            Duration::from_secs(args.seconds),
        );
        describe_phase("timed", &phase);
        let t = &phase.tally;
        Ok(Report {
            attempted: t.attempted(),
            failed: t.failed(),
            correct: warm.mismatched == 0 && t.mismatched == 0 && t.ok > 0,
            metrics: vec![
                ("setup_s".into(), setup_s, "s"),
                ("qps".into(), phase.over_windows(|w| w.qps), "req/s"),
                ("p50_us".into(), phase.over_windows(|w| w.p50_us), "us"),
                ("p99_us".into(), phase.over_windows(|w| w.p99_us), "us"),
                (
                    "ok_frac".into(),
                    ratio(t.ok as f64, t.attempted() as f64),
                    "ratio",
                ),
                ("rss_peak_mb".into(), phase.rss_peak_mib, "MiB"),
                (
                    "disk_bytes_per_resident_byte".into(),
                    amplification(&setup),
                    "ratio",
                ),
            ],
        })
    };
    drop(conns);
    setup.stack.shutdown();
    result
}

/// Fills caches before timing. `d7_hot` and `table2_routed`: every
/// client sends every distinct request once. `corpus_cold`: the same,
/// then closed-loop traffic until the eviction rate per request holds
/// steady, since users pay hydration on every miss.
fn warm_up(
    w: Workload,
    stack: &Stack,
    conns: &mut [Conn],
    pool: &workload::Pool,
    seed: u64,
) -> Tally {
    let mut tally = Tally::default();
    for conn in conns.iter_mut() {
        tally.absorb(warm_each(conn, pool));
    }
    if w == Workload::CorpusCold {
        let mut streams = client_streams(seed, 0x3A4B);
        let mut last_rate: Option<f64> = None;
        for _ in 0..8 {
            let phase = run_phase(stack, conns, &mut streams, pool, Duration::from_millis(400));
            let rate = ratio(phase.evictions as f64, phase.tally.ok as f64);
            tally.absorb(phase.tally);
            if let Some(last) = last_rate {
                if (rate - last).abs() <= 0.1 * rate.max(last) {
                    break;
                }
            }
            last_rate = Some(rate);
        }
    }
    println!(
        "  warm-up: {} requests, {} failed ({} mismatched)",
        tally.attempted(),
        tally.failed(),
        tally.mismatched
    );
    tally
}

fn describe_phase(label: &str, phase: &Phase) {
    let t = &phase.tally;
    let width = phase.seconds / phase.windows.len() as f64;
    let sparsest = phase
        .windows
        .iter()
        .map(|w| (w.qps * width).round() as u64)
        .min()
        .unwrap_or(0);
    println!(
        "  {label}: {CLIENTS} closed-loop clients for {:.3} s; {} ok of {} attempted \
         ({} mismatched, {} refused, {} transport errors); {} evictions; \
         {} windows, the sparsest holding {} latency samples ({} beyond its p99)",
        phase.seconds,
        t.ok,
        t.attempted(),
        t.mismatched,
        t.refused,
        t.transport,
        phase.evictions,
        phase.windows.len(),
        sparsest,
        sparsest / 100
    );
}

/// Per-engine median over set-ups of one build layer.
fn per_engine_ms(setups: &[BuildTimes], f: impl Fn(&BuildTimes) -> f64) -> f64 {
    let mut v: Vec<f64> = setups
        .iter()
        .map(|t| ratio(f(t), t.engines as f64))
        .collect();
    median(&mut v)
}

fn pct(v: &[f64], p: f64) -> f64 {
    percentile(&mut v.to_vec(), p)
}

/// The `--trace 1` run: half the time untraced, half replaying the same
/// request sequence with spans; reports the per-layer metrics.
fn traced(
    args: &Args,
    setup: &SetUp,
    dir: &Path,
    conns: &mut [Conn],
    pool: &workload::Pool,
    warm: &mut Tally,
    setups: &[BuildTimes],
) -> Result<Report, String> {
    let w = args.workload;
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let phase = run_phase(
        &setup.stack,
        conns,
        &mut client_streams(args.seed, 0),
        pool,
        half,
    );
    describe_phase("untraced", &phase);

    // The second stack every traced request also goes to, warmed alike.
    let compare = Stack::start(!w.routed(), dir, setup.registry.clone())?;
    let mut compare_conns: Vec<Conn> = (0..CLIENTS).map(|_| Conn::new(compare.addr)).collect();
    for conn in &mut compare_conns {
        warm.absorb(warm_each(conn, pool));
    }
    let shadow = EngineRegistry::with_config(setup.registry.clone()).snapshot_dir(dir);
    let (layers, spans) = trace::traced_phase(
        trace::Targets {
            routed: w.routed(),
            main: conns,
            compare: &mut compare_conns,
        },
        &mut client_streams(args.seed, 0),
        pool,
        &shadow,
        dir,
        half,
    );
    drop(compare_conns);
    compare.shutdown();
    println!(
        "  traced: {} requests replayed, {} spans, {} replays failed; main stack {} ok, \
         {} failed; second stack {} ok, {} failed",
        layers.requests,
        spans.len(),
        layers.failed_replays,
        layers.main.ok,
        layers.main.failed(),
        layers.compare.ok,
        layers.compare.failed()
    );
    let queries: Vec<_> = pool
        .engine_queries()
        .into_iter()
        .take(PLANNER_QUERIES)
        .collect();
    let auto_over_best = trace::auto_over_best(&shadow, &queries);
    let span_path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", w.name()));
    trace::write_spans(&span_path, &spans)
        .map_err(|e| format!("write {}: {e}", span_path.display()))?;
    println!("  spans written to {}", span_path.display());

    let backends = layers.backends.iter().sum::<u64>() as f64;
    let fetches = (layers.fetch_hit_us.len() + layers.fetch_miss_us.len()) as f64;
    let untraced_p50 = phase.over_windows(|w| w.p50_us);
    let mut metrics: Vec<Metric> = vec![
        (
            "matching.match_ms".into(),
            per_engine_ms(setups, |t| t.match_ms),
            "ms",
        ),
        (
            "assignment.top_h_ms".into(),
            per_engine_ms(setups, |t| t.top_h_ms),
            "ms",
        ),
        (
            "xml.docgen_ms".into(),
            per_engine_ms(setups, |t| t.docgen_ms),
            "ms",
        ),
        (
            "block_tree.build_ms".into(),
            per_engine_ms(setups, |t| t.block_tree_ms),
            "ms",
        ),
        (
            "engine.new_ms".into(),
            per_engine_ms(setups, |t| t.engine_ms),
            "ms",
        ),
        (
            "storage.encode_ms".into(),
            per_engine_ms(setups, |t| t.encode_ms),
            "ms",
        ),
        (
            "server.start_ms".into(),
            median(&mut setups.iter().map(|t| t.start_ms).collect::<Vec<_>>()),
            "ms",
        ),
        ("planner.auto_over_best".into(), auto_over_best, "ratio"),
        (
            "planner.backend_share.compiled".into(),
            ratio(layers.backends[0] as f64, backends),
            "ratio",
        ),
        (
            "planner.backend_share.block_tree".into(),
            ratio(layers.backends[1] as f64, backends),
            "ratio",
        ),
        (
            "planner.backend_share.naive".into(),
            ratio(layers.backends[2] as f64, backends),
            "ratio",
        ),
        ("engine.run_us.p50".into(), pct(&layers.run_us, 50.0), "us"),
        ("engine.run_us.p99".into(), pct(&layers.run_us, 99.0), "us"),
        (
            "engine.relevant_mappings".into(),
            util::mean(&layers.relevant),
            "count",
        ),
        (
            "exec.program_cache_hit_ratio".into(),
            ratio(
                layers.program_hits as f64,
                (layers.program_hits + layers.program_misses) as f64,
            ),
            "ratio",
        ),
        ("api.parse_us".into(), pct(&layers.parse_us, 50.0), "us"),
        ("api.render_us".into(), pct(&layers.render_us, 50.0), "us"),
        (
            "api.response_bytes".into(),
            util::mean(&layers.response_bytes),
            "bytes",
        ),
        (
            "registry.fetch_hit_us.p50".into(),
            pct(&layers.fetch_hit_us, 50.0),
            "us",
        ),
        (
            "registry.fetch_hit_us.p99".into(),
            pct(&layers.fetch_hit_us, 99.0),
            "us",
        ),
        (
            "registry.fetch_miss_us.p50".into(),
            pct(&layers.fetch_miss_us, 50.0),
            "us",
        ),
        (
            "registry.fetch_miss_us.p99".into(),
            pct(&layers.fetch_miss_us, 99.0),
            "us",
        ),
        (
            "registry.hit_ratio".into(),
            ratio(layers.fetch_hit_us.len() as f64, fetches),
            "ratio",
        ),
        (
            "registry.evictions_per_kreq".into(),
            ratio(phase.evictions as f64 * 1e3, phase.tally.ok as f64),
            "1/kreq",
        ),
        ("storage.read_us".into(), pct(&layers.read_us, 50.0), "us"),
        (
            "storage.decode_us".into(),
            pct(&layers.decode_us, 50.0),
            "us",
        ),
        (
            "storage.snapshot_bytes".into(),
            util::mean(&layers.snapshot_bytes),
            "bytes",
        ),
        (
            "server.overhead_us".into(),
            pct(&layers.server_overhead_us, 50.0),
            "us",
        ),
        (
            "router.hop_us".into(),
            pct(&layers.router_hop_us, 50.0),
            "us",
        ),
        (
            "trace.overhead_us".into(),
            pct(&layers.main_rtt_us, 50.0) - untraced_p50,
            "us",
        ),
    ];
    for (layer, self_us) in trace::self_times(&spans, layers.requests) {
        metrics.push((format!("{layer}.self_us"), self_us, "us"));
    }

    let mut tally = phase.tally;
    tally.absorb(layers.main);
    Ok(Report {
        attempted: tally.attempted(),
        failed: tally.failed(),
        // The second stack and the in-process replay must agree too.
        correct: warm.mismatched == 0
            && tally.mismatched == 0
            && layers.compare.failed() == 0
            && layers.failed_replays == 0
            && tally.ok > 0,
        metrics,
    })
}

/// JSON has no infinities: a latency made infinite by failed requests
/// is reported as a million seconds.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        1e12
    }
}

fn print_report(report: &Report) {
    for (name, value, unit) in &report.metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                finite(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
}
