//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro all                  # every experiment
//! repro table2 fig9a         # selected experiments
//! repro --runs 10 fig9f      # more repetitions per data point
//! repro --duration 30 soak   # 30 s overload soak -> BENCH_soak.json
//! ```
//!
//! The `soak` experiment also honours `--docs`, `--nodes`, `--budget`,
//! `--clients`, `--seed`, and `--shards` (corpus/load shape; see
//! `uxm_bench::soak::SoakConfig`). `--shards N` puts the soak corpus
//! behind the consistent-hash router with `N` shard registries.
//! `--assert-hydration` makes `bench_layout` exit nonzero unless v3
//! cold hydration of the 200k-node corpus engine beats rebuilding its
//! document with `Document::from_columns`. The
//! `shard` experiment (scatter-gather work split + tail isolation,
//! writing `BENCH_shard.json`) shares the same corpus knobs and
//! compares 1 vs 4 shards itself.
//!
//! An unknown flag or experiment exits 2 before anything runs. Output
//! goes to a locked stdout; if the reader goes away (`repro … | head`),
//! the process ends quietly with exit 0.

use uxm_bench::figures::{run_experiment, ReproConfig, EXPERIMENTS};

fn main() {
    let mut cfg = ReproConfig::default();
    let mut requested: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => {
                cfg.runs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--runs needs a positive integer"));
            }
            "--m" => {
                cfg.m = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--m needs a positive integer"));
            }
            "--duration" => {
                let secs: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--duration needs seconds"));
                cfg.soak.duration = std::time::Duration::from_secs(secs);
            }
            "--docs" => {
                cfg.soak.documents = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--docs needs a positive integer"));
            }
            "--nodes" => {
                cfg.soak.total_nodes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--nodes needs a positive integer"));
            }
            "--budget" => {
                cfg.soak.budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--budget needs bytes (0 = auto)"));
            }
            "--clients" => {
                cfg.soak.clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--clients needs a positive integer"));
            }
            "--seed" => {
                cfg.soak.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--shards" => {
                cfg.soak.shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--shards needs a count (0 = unsharded)"));
            }
            "--assert-hydration" => cfg.assert_hydration = true,
            "all" => requested.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                println!(
                    "usage: repro [--runs N] [--m N] \
                     [--duration S] [--docs N] [--nodes N] [--budget BYTES] \
                     [--clients N] [--seed N] [--shards N] [--assert-hydration] [all | {}]",
                    EXPERIMENTS.join(" | ")
                );
                return;
            }
            flag if flag.starts_with('-') => die(&format!("unknown flag {flag} (see --help)")),
            id if EXPERIMENTS.contains(&id) => requested.push(id.to_string()),
            other => die(&format!("unknown experiment {other} (see --help)")),
        }
    }
    if requested.is_empty() {
        requested.extend(EXPERIMENTS.iter().map(|s| s.to_string()));
    }
    let mut out = std::io::stdout().lock();
    let header = format!(
        "uxm repro — Cheng/Gong/Cheung ICDE'10 evaluation ({} runs per point, |M|={})\n",
        cfg.runs, cfg.m
    );
    emit(&mut out, &header);
    for id in requested {
        let output = run_experiment(&id, &cfg).expect("experiment ids are checked above");
        emit(&mut out, &output);
    }
}

/// Writes one block of output and a newline. A closed pipe ends the
/// process with exit 0; any other write failure exits 1.
fn emit(out: &mut impl std::io::Write, text: &str) {
    if let Err(e) = writeln!(out, "{text}").and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("writing stdout: {e}");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
