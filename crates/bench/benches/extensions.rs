//! Criterion benches for the reproduction's extensions: storage codec,
//! the path index behind node-granularity PTQ, and per-match semantics.

use criterion::{criterion_group, criterion_main, Criterion};
use uxm_bench::workload::{d7_workload, default_config};
use uxm_core::api::{EvaluatorHint, Query};
use uxm_core::storage::{decode_compressed, encode_compressed, encode_plain};
use uxm_datagen::queries::paper_queries;
use uxm_xml::PathIndex;

fn bench_extensions(c: &mut Criterion) {
    let w = d7_workload(100, &default_config());
    let q7 = &paper_queries()[6];

    let mut g = c.benchmark_group("extensions");
    g.sample_size(10);

    g.bench_function("storage_encode_plain", |b| {
        b.iter(|| std::hint::black_box(encode_plain(&w.mappings).len()));
    });
    g.bench_function("storage_encode_compressed", |b| {
        b.iter(|| std::hint::black_box(encode_compressed(&w.mappings, &w.tree).len()));
    });
    let bytes = encode_compressed(&w.mappings, &w.tree);
    let (source, target) = (w.mappings.source.clone(), w.mappings.target.clone());
    g.bench_function("storage_decode_compressed", |b| {
        b.iter(|| {
            std::hint::black_box(
                decode_compressed(&bytes, source.clone(), target.clone())
                    .expect("roundtrip")
                    .0
                    .len(),
            )
        });
    });

    g.bench_function("path_index_build", |b| {
        b.iter(|| std::hint::black_box(PathIndex::new(&w.doc).len()));
    });
    let full = w
        .engine()
        .run(&Query::ptq(q7.clone()).with_evaluator(EvaluatorHint::BlockTree))
        .expect("valid query");
    g.bench_function("match_probabilities_Q7", |b| {
        b.iter(|| std::hint::black_box(full.match_probabilities().len()));
    });

    g.finish();
}

criterion_group!(benches, bench_extensions);
criterion_main!(benches);
