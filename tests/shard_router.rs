//! Router-layer behavior the differential harness can't see: client
//! identity at the front, what monitoring reads leave behind, and
//! rebalancing under live traffic.
//!
//! * **Client identity** — per-client caps bind to the TCP peer. An
//!   identity header supplied by the client names no one: neither a
//!   single server nor a router front reads it, so spoofed identities
//!   neither escape nor consume per-client slots.
//! * **Monitoring** — `GET /engines` reports residency without touching
//!   any shard's LRU, so polling it never changes what is evicted next.
//! * **Rebalancing** — shard add/remove mid-traffic must keep every
//!   engine reachable (the shared snapshot directory means any shard
//!   can hydrate any engine, so there is no 404 window), and the
//!   router must still match a single registry at the new ring size.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use uxm::core::api::Query;
use uxm::core::engine::QueryEngine;
use uxm::core::json::Json;
use uxm::core::mapping::PossibleMappings;
use uxm::core::registry::{EngineRegistry, RegistryConfig};
use uxm::core::router::{Router, RouterConfig};
use uxm::core::server::{Client, Server, ServerConfig, ServerHandle};
use uxm::matching::Matcher;
use uxm::twig::TwigPattern;
use uxm::xml::{DocGenConfig, Document, Schema};

/// The small purchase-order fixture engine shared with the serving
/// tests.
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

const QUERY_PATTERN: &str = "PO//Qty";

fn ptq() -> Query {
    Query::ptq(TwigPattern::parse(QUERY_PATTERN).unwrap())
}

/// A fresh snapshot directory holding `engines`, one `<name>.uxm` each.
fn snapshot_dir(tag: &str, engines: Vec<(&str, QueryEngine)>) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uxm-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = EngineRegistry::new().snapshot_dir(&dir);
    for (name, engine) in engines {
        registry.insert(name, engine);
    }
    registry.save_all().unwrap();
    dir
}

/// A router front over `dir`.
fn start_router(
    dir: &Path,
    config: RouterConfig,
    front: ServerConfig,
) -> (Arc<Router>, ServerHandle) {
    let router = Router::start(dir, config).unwrap();
    let handle = router.bind("127.0.0.1:0", front).unwrap().start();
    (router, handle)
}

/// One `POST /query/<engine>` over a raw socket, claiming `identity`
/// in a client-identity header. Returns the status and body, or the
/// transport error when the server closed first.
fn post_claiming(
    stream: &mut TcpStream,
    engine: &str,
    identity: &str,
) -> std::io::Result<(u16, String)> {
    let body = ptq().to_json_string();
    write!(
        stream,
        "POST /query/{engine} HTTP/1.1\r\nhost: uxm\r\nx-uxm-client: {identity}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
    let mut length = 0;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().unwrap();
            }
        }
    }
    let mut buf = vec![0; length];
    reader.read_exact(&mut buf)?;
    Ok((status, String::from_utf8(buf).unwrap()))
}

/// With a per-client cap of 2, two loopback connections claiming
/// distinct identities both serve, and a third is shed with a 429 at
/// accept time whatever identity it claims: the cap counts the one real
/// peer.
fn assert_claimed_identity_ignored(addr: SocketAddr, engine: &str) {
    let mut a = TcpStream::connect(addr).unwrap();
    assert_eq!(post_claiming(&mut a, engine, "10.0.0.1").unwrap().0, 200);
    let mut b = TcpStream::connect(addr).unwrap();
    assert_eq!(post_claiming(&mut b, engine, "10.0.0.2").unwrap().0, 200);
    let mut c = TcpStream::connect(addr).unwrap();
    match post_claiming(&mut c, engine, "10.0.0.3") {
        Ok((status, body)) => {
            assert_eq!(status, 429, "{body}");
            assert!(body.contains("\"kind\":\"rate-limited\""), "{body}");
        }
        // The accept-time shed closes the connection; depending on
        // timing the client may see the reset before the 429 body.
        Err(e) => assert!(!e.to_string().is_empty()),
    }
}

/// Neither a single server nor a router front reads a client-supplied
/// identity header: the per-client cap keys on the TCP peer, so
/// spoofed identities neither escape nor consume per-identity slots.
#[test]
fn untrusted_server_ignores_forwarded_identity() {
    let capped = ServerConfig {
        workers: 2,
        max_conns_per_client: 2,
        ..ServerConfig::default()
    };

    let registry = Arc::new(EngineRegistry::new());
    registry.insert("po", small_engine(7));
    let single = Server::bind(registry, "127.0.0.1:0", capped.clone())
        .unwrap()
        .start();
    assert_claimed_identity_ignored(single.addr(), "po");
    single.shutdown();

    let dir = snapshot_dir("ident", vec![("po", small_engine(7))]);
    let (router, front) = start_router(&dir, RouterConfig::default(), capped);
    assert_claimed_identity_ignored(front.addr(), "po");
    front.shutdown();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /engines` on a router must not reorder the LRU. With a budget
/// that fits two of three equal engines: after `b` then `a` are served,
/// `a` is the most recent, so serving `c` must evict `b` — even with a
/// listing polled in between.
#[test]
fn router_engines_listing_leaves_the_lru_alone() {
    let engine = small_engine(7);
    let bytes = engine.approx_bytes();
    let dir = snapshot_dir(
        "lru",
        vec![
            ("a", engine),
            ("b", small_engine(7)),
            ("c", small_engine(7)),
        ],
    );
    let (router, front) = start_router(
        &dir,
        RouterConfig {
            shards: 1,
            registry: RegistryConfig {
                memory_budget: bytes * 5 / 2,
                ..RegistryConfig::default()
            },
            ..RouterConfig::default()
        },
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(front.addr()).unwrap();
    let residency = |client: &mut Client| -> Vec<(String, bool)> {
        let (status, body) = client.get("/engines").unwrap();
        assert_eq!(status, 200, "{body}");
        Json::parse(&body)
            .unwrap()
            .get("engines")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| {
                (
                    e.get("name").unwrap().as_str().unwrap().to_string(),
                    matches!(e.get("resident"), Some(Json::Bool(true))),
                )
            })
            .collect()
    };

    for name in ["b", "a"] {
        assert_eq!(client.query(name, &ptq()).unwrap().0, 200, "{name}");
    }
    residency(&mut client);
    assert_eq!(client.query("c", &ptq()).unwrap().0, 200);
    assert_eq!(
        residency(&mut client),
        vec![
            ("a".to_string(), true),
            ("b".to_string(), false),
            ("c".to_string(), true),
        ],
        "the listing reordered the LRU"
    );

    front.shutdown();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard add/remove under live traffic: every engine stays reachable
/// throughout (no 404/503 window — any shard can hydrate any engine
/// from the shared snapshot directory, and requests racing a removal
/// finish on the epoch they started under), and afterwards the router
/// still matches a single registry at the new ring size.
#[test]
fn rebalance_mid_traffic_keeps_every_engine_reachable() {
    let dir = std::env::temp_dir().join(format!("uxm-shard-rebal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let names: Vec<String> = (0..8).map(|i| format!("e{i}")).collect();
    {
        let registry = EngineRegistry::new().snapshot_dir(&dir);
        for (i, name) in names.iter().enumerate() {
            registry.insert(name.clone(), small_engine(i as u64));
        }
        registry.save_all().unwrap();
    }
    let router = Router::start(
        &dir,
        RouterConfig {
            shards: 2,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let front = router
        .bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .start();
    let addr = front.addr();
    let first_id = router.shard_ids()[0];

    // Hammer every engine round-robin from three clients while the
    // ring is reshaped underneath them; any non-200 is a reachability
    // hole.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic: Vec<_> = (0..3)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let names = names.clone();
            std::thread::spawn(move || -> Result<u64, String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let query = ptq();
                let mut served = 0u64;
                let mut i = t; // offset the threads
                while !stop.load(Ordering::Relaxed) {
                    let name = &names[i % names.len()];
                    i += 1;
                    let (status, body) = client.query(name, &query).map_err(|e| e.to_string())?;
                    if status != 200 {
                        return Err(format!("{name} answered {status}: {body}"));
                    }
                    served += 1;
                }
                Ok(served)
            })
        })
        .collect();

    // Grow to 3 shards, shrink back to 2 (dropping an original shard),
    // with traffic in flight around both reshapes.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let added = router.add_shard().expect("add shard");
    assert_eq!(router.shard_count(), 3);
    std::thread::sleep(std::time::Duration::from_millis(400));
    router.remove_shard(first_id).expect("remove shard");
    assert_eq!(router.shard_count(), 2);
    assert!(router.shard_ids().contains(&added));
    std::thread::sleep(std::time::Duration::from_millis(400));

    stop.store(true, Ordering::Relaxed);
    let mut total = 0;
    for t in traffic {
        total += t.join().unwrap().expect("traffic thread saw a failure");
    }
    assert!(total > 0, "traffic threads never ran");

    // At the new ring size the router still matches a single registry
    // byte-exactly on the answers subtree.
    let single_registry = Arc::new(EngineRegistry::new().snapshot_dir(&dir));
    let single = Server::bind(
        single_registry,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .start();
    let mut sc = Client::connect(single.addr()).unwrap();
    let mut rc = Client::connect(addr).unwrap();
    let answers = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("answers")
            .map(|a| a.to_string())
            .unwrap_or_default()
    };
    for name in &names {
        let (s_status, s_body) = sc.query(name, &ptq()).unwrap();
        let (r_status, r_body) = rc.query(name, &ptq()).unwrap();
        assert_eq!((s_status, r_status), (200, 200), "{name}");
        assert_eq!(
            answers(&s_body),
            answers(&r_body),
            "{name} diverges post-rebalance"
        );
    }

    single.shutdown();
    front.shutdown();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
