//! Quickstart: match two small schemas, derive possible mappings, open a
//! query session behind an [`EngineRegistry`], serve a batch, round-trip
//! the whole session through an on-disk snapshot, and answer the same
//! query over HTTP — the full `uxm serve` stack, in-process.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use uxm::prelude::*;
use uxm::twig::TwigPattern;

fn main() {
    // 1. Two purchase-order schemas in different naming conventions.
    let source = Schema::parse_outline(
        "Order(Buyer(Name Contact(EMail)) DeliverTo(Address(City Street)) \
         POLine*(LineNo Quantity UnitPrice))",
    )
    .unwrap();
    let target = Schema::parse_outline(
        "PURCHASE_ORDER(BUYER_PARTY(NAME CONTACT(E_MAIL)) \
         DELIVER_TO(ADDRESS(CITY STREET)) \
         PO_LINE(LINE_NO QUANTITY UNIT_PRICE))",
    )
    .unwrap();
    println!("source: {source}");
    println!("target: {target}\n");

    // 2. Match them (a COMA++-style composite matcher).
    let matching = Matcher::default().match_schemas(&source, &target);
    println!("matcher found {} correspondences", matching.capacity());

    // 3. Derive the top-16 possible mappings, with probabilities.
    let mappings = PossibleMappings::top_h(&matching, 16);
    println!("derived {} possible mappings", mappings.len());
    for (id, m) in mappings.iter().take(3) {
        println!("  {id:?}: {} pairs, p = {:.3}", m.len(), m.prob);
    }

    // 4. Generate a source document and build the session engine: block
    //    tree plus derived state (interned labels, relevance bitsets) —
    //    built once, immutable afterwards, and shared freely, since the
    //    engine is `Send + Sync`.
    let doc = Document::generate(&source, &DocGenConfig::small(), 42);
    let engine = QueryEngine::build(mappings, doc, &BlockTreeConfig::default());
    println!(
        "\nblock tree: {} c-blocks (min support {})",
        engine.tree().block_count(),
        engine.tree().min_support
    );

    // 5. Serve it through a registry. A real service registers one engine
    //    per (schema pair, document) under a memory budget; queries are
    //    answered in batches, and any number of threads may share it.
    let registry = EngineRegistry::with_config(RegistryConfig {
        memory_budget: 64 << 20, // 64 MiB of resident engines
        ..RegistryConfig::default()
    })
    .snapshot_dir(std::env::temp_dir().join("uxm-quickstart"));
    registry.insert("purchase-orders", engine);

    let q = TwigPattern::parse("PURCHASE_ORDER//E_MAIL").unwrap();
    // Distinct granularity merges identical match sets and reports which
    // mappings contributed to each answer (provenance).
    let distinct = Query::ptq(q.clone()).with_granularity(Granularity::Distinct);
    let answers = registry.batch(&[
        BatchQuery::new("purchase-orders", distinct.clone()),
        BatchQuery::new("purchase-orders", Query::topk(q.clone(), 3)),
    ]);
    let handle = registry.get("purchase-orders").unwrap();
    println!(
        "\nquery: {q}  (against a {}-node source document)",
        handle.document().len()
    );
    if let Ok(full) = &answers[0] {
        for answer in &full.answers {
            let texts: Vec<&str> = answer
                .matches
                .iter()
                .filter_map(|m| handle.document().text(*m.nodes.last().unwrap()))
                .collect();
            println!(
                "  p = {:.3} (from {} mapping(s)): {texts:?}",
                answer.probability,
                answer.mappings.len()
            );
        }
    }

    // 6. Persist the session and hydrate it back — a restarted service
    //    warms up from the snapshot instead of re-matching schemas.
    let path = registry.save("purchase-orders").unwrap();
    let restarted = EngineRegistry::new().snapshot_dir(path.parent().unwrap());
    let rehydrated = restarted.fetch("purchase-orders").unwrap();
    assert_eq!(
        rehydrated.run(&distinct).unwrap().answers,
        handle.run(&distinct).unwrap().answers
    );
    println!(
        "\nsnapshot: {} ({} bytes) rehydrates to identical answers",
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );

    // 7. The same registry over HTTP — what `uxm serve` runs. The
    //    in-process `Client` speaks the canonical JSON wire format over
    //    a real loopback socket (docs/wire-format.md, docs/serving.md).
    let served = Server::bind(
        std::sync::Arc::new(restarted),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .start();
    let mut client = uxm::core::server::Client::connect(served.addr()).unwrap();
    let (status, body) = client.query("purchase-orders", &distinct).unwrap();
    assert_eq!(status, 200);
    let over_http = uxm::core::json::Json::parse(&body).unwrap();
    assert_eq!(
        over_http.get("answers").unwrap().to_string(),
        rehydrated
            .run(&distinct)
            .unwrap()
            .to_json()
            .get("answers")
            .unwrap()
            .to_string(),
        "HTTP answers are the engine's answers, byte for byte"
    );
    println!(
        "served over http://{}: {} bytes of canonical JSON, same answers",
        served.addr(),
        body.len()
    );
    served.shutdown();
}
