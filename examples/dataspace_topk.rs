//! A Dataspace-style scenario (§I, §V): integrate a large e-commerce
//! schema pair (D7: XCBL → Apertum), keep the matching uncertain, and
//! serve top-k probabilistic twig queries over a purchase-order document.
//!
//! ```sh
//! cargo run --release --example dataspace_topk
//! ```

use std::time::Instant;
use uxm::core::api::Query;
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::PossibleMappings;
use uxm::core::stats::o_ratio;
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::datagen::queries::paper_query;
use uxm::xml::{DocGenConfig, Document};

fn main() {
    // D7: XCBL (1076 elements) matched against Apertum (166 elements).
    let d7 = Dataset::load(DatasetId::D7);
    println!(
        "dataset D7: |S| = {}, |T| = {}, {} correspondences",
        d7.matching.source.len(),
        d7.matching.target.len(),
        d7.capacity()
    );

    // 100 possible mappings via the partition-based generator.
    let t0 = Instant::now();
    let mappings = PossibleMappings::top_h(&d7.matching, 100);
    println!(
        "top-100 possible mappings in {:.1} ms (o-ratio {:.2})",
        t0.elapsed().as_secs_f64() * 1e3,
        o_ratio(&mappings)
    );

    // The block tree compresses and indexes them.
    let tree = BlockTree::build(&d7.matching.target, &mappings, &BlockTreeConfig::default());
    println!(
        "block tree: {} c-blocks, {} hash entries, compression ratio {:.1}%",
        tree.block_count(),
        tree.hash_len(),
        uxm::core::compress::compression_ratio(&mappings, &tree) * 100.0
    );

    // An Order.xml-scale source document, wrapped into one query session
    // serving the whole workload.
    let doc = Document::generate(&d7.matching.source, &DocGenConfig::order_xml(), 7);
    println!("source document: {} nodes\n", doc.len());
    let engine = QueryEngine::new(mappings, doc, tree);

    // Q10, full vs top-k, through the unified entry point (the auto plan
    // runs both kinds compiled; the response reports the choice).
    let q = paper_query(10);
    println!("query Q10: {q}");

    let t0 = Instant::now();
    let full = engine.run(&Query::ptq(q.clone())).unwrap();
    let t_full = t0.elapsed();
    println!(
        "full PTQ: {} answers in {:.2} ms (probability mass {:.2}, plan {} — {})",
        full.len(),
        t_full.as_secs_f64() * 1e3,
        full.total_probability(),
        full.stats.plan.evaluator,
        full.stats.plan.reason,
    );

    for k in [5, 10, 25] {
        let t0 = Instant::now();
        let top = engine.run(&Query::topk(q.clone(), k)).unwrap();
        let t_top = t0.elapsed();
        println!(
            "top-{k:<3} PTQ: {} answers in {:.2} ms ({:.0}% of full time)",
            top.len(),
            t_top.as_secs_f64() * 1e3,
            100.0 * t_top.as_secs_f64() / t_full.as_secs_f64()
        );
    }

    let stats = engine.exec_cache_stats();
    println!(
        "\nprogram cache: {} hits / {} misses after serving the workload",
        stats.hits, stats.misses
    );
}
