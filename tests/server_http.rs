//! Socket-level coverage of `uxm_core::server`: everything here talks to
//! a real `Server` over real TCP connections through `server::Client`.
//!
//! * served responses carry the same answer bytes `QueryEngine::run`
//!   produces, for every query kind and on every Table II dataset;
//! * 8 concurrent clients running a mixed workload all observe the
//!   single-threaded ground truth (the registry and engines are shared);
//! * malformed JSON / unknown engines / oversized bodies map to typed
//!   JSON error bodies with the right HTTP status, never a hangup;
//! * graceful shutdown answers in-flight requests before the workers
//!   exit, and refuses connections afterwards.

use std::sync::Arc;
use uxm::core::aggregate::AggFunc;
use uxm::core::api::{EvaluatorHint, Granularity, Query};
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::engine::QueryEngine;
use uxm::core::json::Json;
use uxm::core::mapping::PossibleMappings;
use uxm::core::registry::{BatchQuery, EngineRegistry};
use uxm::core::server::{Client, Server, ServerConfig, ServerHandle};
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::datagen::queries::paper_queries;
use uxm::matching::Matcher;
use uxm::twig::TwigPattern;
use uxm::xml::{parse_document, DocGenConfig, Document, Schema};

/// A small synthetic engine (the registry test fixture's shape).
fn small_engine(seed: u64) -> QueryEngine {
    let source = Schema::parse_outline(
        "Order(Buyer(Name Contact(EMail)) POLine*(LineNo Quantity UnitPrice))",
    )
    .unwrap();
    let target =
        Schema::parse_outline("PO(Purchaser(PName PContact(PEMail)) Line(No Qty Amount))").unwrap();
    let matching = Matcher::context().match_schemas(&source, &target);
    let pm = PossibleMappings::top_h(&matching, 12);
    let doc = Document::generate(&source, &DocGenConfig::small(), seed);
    QueryEngine::build(pm, doc)
}

/// A Table II dataset session, sized for debug-build sweeps (the
/// `engine_equivalence.rs` scale).
fn dataset_engine(id: DatasetId, m: usize, nodes: usize) -> QueryEngine {
    let d = Dataset::load(id);
    let pm = PossibleMappings::top_h(&d.matching, m);
    let doc = Document::generate(
        &d.matching.source,
        &DocGenConfig {
            target_nodes: nodes,
            max_repeat: 3,
            text_prob: 0.7,
        },
        0x0D0C,
    );
    let tree = BlockTree::build(
        &d.matching.target,
        &pm,
        &BlockTreeConfig {
            tau: 0.2,
            ..BlockTreeConfig::default()
        },
    );
    QueryEngine::new(pm, doc, tree)
}

fn start(registry: Arc<EngineRegistry>, workers: usize) -> ServerHandle {
    Server::bind(
        registry,
        "127.0.0.1:0",
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .start()
}

/// The deterministic slice of a served response: the full `answers`
/// subtree (byte-exact) plus the plan fields. `stats.elapsed_us` is
/// wall time, so whole-body comparison is impossible by design.
fn deterministic_parts(body: &str) -> (String, String, String, String) {
    let v = Json::parse(body).expect("valid response JSON");
    let stats = v.get("stats").expect("stats present");
    (
        v.get("answers").expect("answers present").to_string(),
        stats.get("evaluator").unwrap().to_string(),
        stats.get("plan_reason").unwrap().to_string(),
        stats.get("relevant").unwrap().to_string(),
    )
}

fn assert_served_matches_direct(
    client: &mut Client,
    engine: &QueryEngine,
    name: &str,
    query: &Query,
    label: &str,
) {
    let (status, body) = client.query(name, query).unwrap();
    assert_eq!(status, 200, "{label}: {body}");
    let direct = engine.run(query).unwrap().to_json_string();
    assert_eq!(
        deterministic_parts(&body),
        deterministic_parts(&direct),
        "{label}: served response differs from direct run()"
    );
}

#[test]
fn round_trip_every_query_kind() {
    let registry = Arc::new(EngineRegistry::new());
    let engine = registry.insert("po", small_engine(1));
    let handle = start(Arc::clone(&registry), 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let q = TwigPattern::parse("PO//Qty").unwrap();
    let queries = [
        ("ptq auto", Query::ptq(q.clone())),
        (
            "ptq naive",
            Query::ptq(q.clone()).with_evaluator(EvaluatorHint::Naive),
        ),
        (
            "ptq tree",
            Query::ptq(q.clone()).with_evaluator(EvaluatorHint::BlockTree),
        ),
        ("ptq-nodes", Query::ptq_nodes(q.clone())),
        ("topk", Query::topk(q.clone(), 3)),
        ("keyword", Query::keyword(vec!["Qty".into()])),
        (
            "distinct+threshold",
            Query::ptq(q.clone())
                .with_granularity(Granularity::Distinct)
                .with_min_probability(0.05),
        ),
    ];
    for (label, query) in &queries {
        assert_served_matches_direct(&mut client, &engine, "po", query, label);
    }

    // The same persistent connection serves many requests (keep-alive).
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));

    handle.shutdown();
}

#[test]
fn served_answers_match_direct_run_on_all_table2_datasets() {
    let registry = Arc::new(EngineRegistry::new());
    let mut engines = Vec::new();
    for id in DatasetId::all() {
        let engine = registry.insert(id.name(), dataset_engine(id, 20, 400));
        engines.push((id, engine));
    }
    let handle = start(Arc::clone(&registry), 4);
    let mut client = Client::connect(handle.addr()).unwrap();

    let queries = paper_queries();
    for (id, engine) in &engines {
        // Three spot queries per dataset keep the debug-build sweep
        // affordable (the full workload is pinned engine-side by
        // tests/engine_equivalence.rs).
        for qi in [1usize, 4, 8] {
            let query = Query::ptq(queries[qi - 1].clone());
            let label = format!("{} Q{qi}", id.name());
            assert_served_matches_direct(&mut client, engine, id.name(), &query, &label);
        }
    }
    handle.shutdown();
}

#[test]
fn eight_concurrent_clients_observe_ground_truth() {
    let registry = Arc::new(EngineRegistry::new());
    let orders = registry.insert("orders", small_engine(7));
    let invoices = registry.insert("invoices", small_engine(11));
    let handle = start(Arc::clone(&registry), 4);
    let addr = handle.addr();

    // The mixed workload, with single-threaded ground truth per request.
    let q = TwigPattern::parse("PO//Qty").unwrap();
    let mix: Vec<(String, Query)> = vec![
        ("orders".into(), Query::ptq(q.clone())),
        ("invoices".into(), Query::topk(q.clone(), 2)),
        ("orders".into(), Query::keyword(vec!["Qty".into()])),
        (
            "invoices".into(),
            Query::ptq(q.clone()).with_evaluator(EvaluatorHint::Naive),
        ),
        (
            "orders".into(),
            Query::ptq(q.clone()).with_granularity(Granularity::Distinct),
        ),
    ];
    let truth: Vec<String> = mix
        .iter()
        .map(|(name, query)| {
            let engine = if name == "orders" { &orders } else { &invoices };
            engine.run(query).unwrap().to_json_string()
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..8 {
            let (mix, truth) = (&mix, &truth);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..6 {
                    // Different threads walk the mix at different offsets.
                    let i = (t + round) % mix.len();
                    let (name, query) = &mix[i];
                    let (status, body) = client.query(name, query).unwrap();
                    assert_eq!(status, 200, "client {t} round {round}: {body}");
                    assert_eq!(
                        deterministic_parts(&body),
                        deterministic_parts(&truth[i]),
                        "client {t} round {round} diverged from ground truth"
                    );
                }
            });
        }
    });
    handle.shutdown();
}

#[test]
fn batch_endpoint_answers_in_request_order_with_per_item_errors() {
    let registry = Arc::new(EngineRegistry::new());
    let engine = registry.insert("po", small_engine(3));
    let handle = start(Arc::clone(&registry), 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let q = TwigPattern::parse("PO//Qty").unwrap();
    let requests = [
        BatchQuery::new("po", Query::ptq(q.clone())),
        BatchQuery::new("missing", Query::ptq(q.clone())),
        BatchQuery::new("po", Query::keyword(vec![])), // evaluator rejects
        BatchQuery::new("po", Query::topk(q.clone(), 2)),
    ];
    let (status, body) = client.batch(&requests).unwrap();
    assert_eq!(status, 200, "{body}");
    let parsed = Json::parse(&body).unwrap();
    let results = parsed.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 4);

    let direct0 = engine.run(&requests[0].query).unwrap().to_json_string();
    assert_eq!(
        deterministic_parts(&results[0].to_string()),
        deterministic_parts(&direct0)
    );
    assert_eq!(
        results[1]
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("unknown-engine")
    );
    assert_eq!(
        results[2]
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("keyword")
    );
    assert!(results[3].get("answers").is_some());

    // A malformed batch body fails as a whole with 400.
    let (status, body) = client.post("/batch", "{\"not\":\"an array\"}").unwrap();
    assert_eq!(status, 400);
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("json")
    );
    handle.shutdown();
}

#[test]
fn error_paths_return_typed_json_bodies() {
    let registry = Arc::new(EngineRegistry::new());
    registry.insert("po", small_engine(5));
    let handle = start(Arc::clone(&registry), 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Malformed JSON body -> 400 {"error":{"kind":"json",...}}.
    let (status, body) = client.post("/query/po", "{not json").unwrap();
    assert_eq!(status, 400, "{body}");
    let kind = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    assert_eq!(kind(&body), "json");

    // Structurally bad query -> 400 "json"; bad twig -> 400 "parse".
    let (status, body) = client.post("/query/po", "{\"type\":\"nope\"}").unwrap();
    assert_eq!(status, 400);
    assert_eq!(kind(&body), "json");
    let (status, body) = client
        .post("/query/po", "{\"pattern\":\"A[\",\"type\":\"ptq\"}")
        .unwrap();
    assert_eq!(status, 400);
    assert_eq!(kind(&body), "parse");

    // Unknown engine -> 404.
    let ptq = Query::ptq(TwigPattern::parse("//Qty").unwrap());
    let (status, body) = client.query("missing", &ptq).unwrap();
    assert_eq!(status, 404);
    assert_eq!(kind(&body), "unknown-engine");

    // Unknown route -> 404; unknown method -> 405.
    let (status, _) = client.get("/nope").unwrap();
    assert_eq!(status, 404);
    let (status, body) = client.post("/healthz", "{}").unwrap();
    assert_eq!(status, 404, "{body}");

    // The connection survives every error above (all keep-alive).
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let registry = Arc::new(EngineRegistry::new());
    registry.insert("po", small_engine(6));
    let server = Server::bind(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            max_body_bytes: 256,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.start();

    let mut client = Client::connect(handle.addr()).unwrap();
    let huge = format!(
        "{{\"pattern\":\"//{}\",\"type\":\"ptq\"}}",
        "Q".repeat(1024)
    );
    let (status, body) = client.post("/query/po", &huge).unwrap();
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"kind\":\"usage\""), "{body}");

    // The oversized request closes its connection (the body was never
    // read); a fresh connection serves normally.
    let mut fresh = Client::connect(handle.addr()).unwrap();
    let (status, _) = fresh.get("/healthz").unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn engines_and_stats_endpoints_report_traffic() {
    let dir = std::env::temp_dir().join(format!("uxm-server-http-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(EngineRegistry::new().snapshot_dir(&dir));
    let engine = registry.insert("po", small_engine(8));
    registry.save("po").unwrap();
    registry.insert("cold", small_engine(9));
    registry.save("cold").unwrap();
    registry.remove("cold"); // on disk only: listed as non-resident

    let handle = start(Arc::clone(&registry), 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let ptq = Query::ptq(TwigPattern::parse("PO//Qty").unwrap());
    for _ in 0..3 {
        let (status, _) = client.query("po", &ptq).unwrap();
        assert_eq!(status, 200);
    }
    let (status, _) = client.query("nope", &ptq).unwrap();
    assert_eq!(status, 404);

    let (status, body) = client.get("/engines").unwrap();
    assert_eq!(status, 200);
    let parsed = Json::parse(&body).unwrap();
    let engines = parsed.get("engines").unwrap().as_arr().unwrap();
    let entry = |name: &str| {
        engines
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some(name))
            .unwrap_or_else(|| panic!("engine {name} listed in {body}"))
    };
    assert_eq!(entry("po").get("resident").unwrap(), &Json::Bool(true));
    assert_eq!(
        entry("po").get("approx_bytes").unwrap().as_usize(),
        Some(engine.approx_bytes())
    );
    assert_eq!(entry("cold").get("resident").unwrap(), &Json::Bool(false));

    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let stats = Json::parse(&body).unwrap();
    let po = stats.get("engines").unwrap().get("po").unwrap();
    assert_eq!(po.get("requests").unwrap().as_usize(), Some(3));
    assert_eq!(po.get("errors").unwrap().as_usize(), Some(0));
    let plans = po.get("plans").unwrap();
    assert_eq!(
        plans.get("naive").unwrap().as_usize().unwrap()
            + plans.get("block-tree").unwrap().as_usize().unwrap()
            + plans.get("compiled").unwrap().as_usize().unwrap(),
        3,
        "every request chose a plan: {body}"
    );
    // Every plan runs as chosen, so `plans` is also the backend count,
    // and the engine keeps no program cache: nothing else is reported.
    let Json::Obj(members) = po else {
        panic!("an engine's stats are an object: {body}")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["errors", "latency_us", "plans", "requests"],
        "{body}"
    );
    let latency = po.get("latency_us").unwrap();
    assert_eq!(latency.get("count").unwrap().as_usize(), Some(3));
    assert!(latency.get("p50").unwrap().as_usize().unwrap() > 0);
    // Unknown-engine traffic is server-level, not a per-engine entry.
    assert!(stats.get("engines").unwrap().get("nope").is_none());
    let server_stats = stats.get("server").unwrap();
    assert!(server_stats.get("http_errors").unwrap().as_usize().unwrap() >= 1);
    assert!(server_stats.get("requests").unwrap().as_usize().unwrap() >= 4);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `"explain": true` on `/query` adds the plan + compiled program
/// listing to the response without changing the answers, and the
/// envelope member never leaks into the strict query parser.
#[test]
fn query_with_explain_reports_plan_and_program() {
    let registry = Arc::new(EngineRegistry::new());
    registry.insert("po", small_engine(8));
    let handle = start(Arc::clone(&registry), 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let query = Query::ptq(TwigPattern::parse("PO//Qty").unwrap());
    let plain = {
        let (status, body) = client.query("po", &query).unwrap();
        assert_eq!(status, 200, "{body}");
        body
    };

    let Json::Obj(mut members) = query.to_json() else {
        panic!("query JSON is an object")
    };
    members.insert(0, ("explain".into(), Json::Bool(true)));
    let (status, body) = client
        .post("/query/po", &Json::Obj(members).to_string())
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let parsed = Json::parse(&body).unwrap();
    let explain = parsed.get("explain").expect("explain object present");
    assert_eq!(
        explain.get("evaluator").unwrap().as_str(),
        Json::parse(&plain)
            .unwrap()
            .get("stats")
            .unwrap()
            .get("evaluator")
            .unwrap()
            .as_str(),
        "explain names the evaluator the run reports: {body}"
    );
    let program = explain.get("program").unwrap().as_arr().unwrap();
    let listing = program
        .iter()
        .map(|l| l.as_str().unwrap())
        .collect::<Vec<_>>()
        .join("\n");
    for op in ["init-bits", "intersect-csr", "fold-prob", "emit-answers"] {
        assert!(listing.contains(op), "listing misses {op}: {listing}");
    }
    // The answers subtree is unaffected by the envelope option.
    assert_eq!(
        parsed.get("answers").unwrap().to_string(),
        Json::parse(&plain)
            .unwrap()
            .get("answers")
            .unwrap()
            .to_string()
    );

    // A non-boolean explain value is a 400, not a silent ignore.
    let (status, body) = client
        .post(
            "/query/po",
            "{\"explain\":1,\"kind\":\"ptq\",\"pattern\":\"PO//Qty\"}",
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");

    handle.shutdown();
}

#[test]
fn graceful_shutdown_completes_in_flight_requests() {
    let registry = Arc::new(EngineRegistry::new());
    // A heavier engine so requests are reliably still in flight when
    // shutdown lands.
    let engine = registry.insert("d7", dataset_engine(DatasetId::D7, 30, 1500));
    const CLIENTS: usize = 4;
    // One worker per client, plus one for the `/stats` poller below.
    let handle = start(Arc::clone(&registry), CLIENTS + 1);
    let addr = handle.addr();

    let query = Query::ptq(paper_queries()[0].clone()).with_evaluator(EvaluatorHint::Naive);
    let truth = engine.run(&query).unwrap().to_json_string();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let query = query.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query("d7", &query).unwrap()
            })
        })
        .collect();
    // Wait until the server has read every client's request, then stop
    // it while they are (very likely) still evaluating. The server-wide
    // counter also counts each `/stats` poll, itself included.
    let mut poller = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    for polls in 1.. {
        let (status, body) = poller.get("/stats").unwrap();
        assert_eq!(status, 200, "{body}");
        let read = Json::parse(&body)
            .unwrap()
            .get("server")
            .and_then(|s| s.get("requests"))
            .and_then(Json::as_usize)
            .unwrap();
        if read >= CLIENTS + polls {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the server never read all {CLIENTS} requests: {body}"
        );
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    drop(poller);
    handle.shutdown();

    for c in clients {
        let (status, body) = c.join().expect("client thread");
        assert_eq!(status, 200, "in-flight request was answered: {body}");
        assert_eq!(
            deterministic_parts(&body),
            deterministic_parts(&truth),
            "in-flight answer is the ground truth"
        );
    }

    // After shutdown the port no longer accepts (or resets immediately).
    let refused = match std::net::TcpStream::connect(addr) {
        Err(_) => true,
        Ok(stream) => {
            use std::io::Read;
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(200)))
                .unwrap();
            let mut reader = std::io::BufReader::new(stream);
            let mut buf = [0u8; 1];
            // A closed listener either refuses outright or the accepted
            // socket (OS backlog) dies without a server behind it.
            matches!(reader.read(&mut buf), Ok(0) | Err(_))
        }
    };
    assert!(refused, "no server behind the port after shutdown");
}

#[test]
fn idle_keep_alive_connection_cannot_starve_other_clients() {
    let registry = Arc::new(EngineRegistry::new());
    registry.insert("po", small_engine(12));
    // ONE worker and a short keep-alive budget: an idle persistent
    // client must release the worker, not pin it forever.
    let server = Server::bind(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            keep_alive_timeout: std::time::Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.start();

    // Client A takes the only worker and goes idle on a live connection.
    let mut idle = Client::connect(handle.addr()).unwrap();
    let (status, _) = idle.get("/healthz").unwrap();
    assert_eq!(status, 200);

    // Client B arrives while A still holds the worker; once A's
    // keep-alive budget runs out the worker must pick B up.
    let mut waiting = Client::connect(handle.addr()).unwrap();
    let start = std::time::Instant::now();
    let (status, _) = waiting.get("/healthz").unwrap();
    assert_eq!(status, 200, "second client served despite idle first");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(3),
        "served within the keep-alive budget, not starved: {:?}",
        start.elapsed()
    );

    // The idle connection was closed server-side; a request on it now
    // fails (and that is the contract — reconnect and carry on).
    assert!(idle.get("/healthz").is_err(), "idle connection was reaped");
    handle.shutdown();
}

/// A deterministic single-mapping engine whose aggregate values are
/// known exactly: three numeric `V` nodes (1, 2, 3) under one certain
/// mapping `V ↔ QTY`.
fn tiny_counted_engine() -> QueryEngine {
    let source = Schema::parse_outline("S(P(V))").unwrap();
    let target = Schema::parse_outline("T(QTY)").unwrap();
    let v = source.nodes_with_label("V")[0];
    let qty = target.nodes_with_label("QTY")[0];
    let pm = PossibleMappings::from_pairs(source, target, vec![(vec![(v, qty)], 1.0)]);
    let doc = parse_document("<S><P><V>1</V><V>2</V><V>3</V></P></S>").unwrap();
    QueryEngine::build(pm, doc)
}

/// Golden `/aggregate` bodies: the endpoint's whole response is pinned
/// byte-exact — including the docs/wire-format.md example — and the
/// two-engine form pins the name-ascending entry order plus the merged
/// fleet value. `/aggregate` carries no stats block, so whole bodies
/// are stable.
#[test]
fn aggregate_endpoint_bodies_are_byte_exact() {
    let registry = Arc::new(EngineRegistry::new());
    // Insertion order is deliberately descending: the response must
    // sort entries by name regardless.
    registry.insert("d5", tiny_counted_engine());
    registry.insert("aa", tiny_counted_engine());
    let handle = start(Arc::clone(&registry), 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let query = |func: AggFunc| {
        Query::aggregate(TwigPattern::parse("//QTY").unwrap(), func).to_json_string()
    };

    // The docs/wire-format.md example, byte for byte.
    let body = format!(
        "{{\"engines\":[\"d5\"],\"query\":{}}}",
        query(AggFunc::Count)
    );
    let (status, got) = client.post("/aggregate", &body).unwrap();
    assert_eq!(status, 200, "{got}");
    assert_eq!(
        got,
        "{\"engines\":[{\"engine\":\"d5\",\"marginal\":3,\"rows\":[\
         {\"mapping\":0,\"probability\":1,\"value\":3}]}],\"func\":\"count\",\"value\":3}"
    );

    // Default engine set: entries name-ascending, value merged over
    // them in that order (sum adds: 6 + 6).
    let body = format!("{{\"query\":{}}}", query(AggFunc::Sum));
    let (status, got) = client.post("/aggregate", &body).unwrap();
    assert_eq!(status, 200, "{got}");
    assert_eq!(
        got,
        "{\"engines\":[\
         {\"engine\":\"aa\",\"marginal\":6,\"rows\":[{\"mapping\":0,\"probability\":1,\"value\":6}]},\
         {\"engine\":\"d5\",\"marginal\":6,\"rows\":[{\"mapping\":0,\"probability\":1,\"value\":6}]}],\
         \"func\":\"sum\",\"value\":12}"
    );

    // min / max take the extremum across engines.
    for (func, value) in [(AggFunc::Min, 1), (AggFunc::Max, 3)] {
        let body = format!("{{\"query\":{}}}", query(func));
        let (status, got) = client.post("/aggregate", &body).unwrap();
        assert_eq!(status, 200, "{got}");
        let parsed = Json::parse(&got).unwrap();
        assert_eq!(
            parsed.get("value").unwrap().as_f64(),
            Some(value as f64),
            "{func}: {got}"
        );
    }

    // A non-aggregate query on this endpoint is a typed error.
    let bad = format!(
        "{{\"query\":{}}}",
        Query::ptq(TwigPattern::parse("//QTY").unwrap()).to_json_string()
    );
    let (status, got) = client.post("/aggregate", &bad).unwrap();
    assert_eq!(status, 400, "{got}");
    assert_eq!(
        Json::parse(&got)
            .unwrap()
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("invalid-query")
    );
    handle.shutdown();
}
