//! # uxm-bench — the reproduction harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VI).
//! The `repro` binary prints paper-style tables.
//!
//! Run `cargo run --release -p uxm-bench --bin repro -- all` for the full
//! sweep, or pass an experiment id (`table2`, `fig9a` … `fig10f`).

pub mod figures;
pub mod shard;
pub mod soak;
pub mod workload;

/// Wall-clock seconds for `runs` executions of `f`, averaged.
pub fn time_avg<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    assert!(runs > 0);
    let start = std::time::Instant::now();
    for _ in 0..runs {
        f();
    }
    start.elapsed().as_secs_f64() / runs as f64
}

/// Nearest-rank percentile over an ascending-sorted slice; 0 when empty.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    #[test]
    fn time_avg_measures_something() {
        let t = super::time_avg(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
        assert!(t < 1.0);
    }

    #[test]
    fn percentile_ranks() {
        use super::percentile;
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
