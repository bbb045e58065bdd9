//! Regression coverage for the serving-stack bug class this repo's
//! admission-control work hardened: wedged worker pools, slow-loris
//! bodies, silent empty responses, load shedding, and eviction drift.
//!
//! Everything here runs against a real `Server` over real TCP. Each
//! test pins one failure mode:
//!
//! * a panicking request handler used to poison the shared queue
//!   mutexes and wedge every worker — now the panic is contained to
//!   its request, answered as a typed 500, and the pool keeps serving;
//! * a client trickling body bytes forever used to pin a worker — now
//!   the keep-alive deadline covers body bytes too and the connection
//!   is closed;
//! * a response with no `content-length` used to parse as an empty
//!   body — now `server::Client` reports a typed error;
//! * arrivals beyond the connection queue (or one client's fair share)
//!   are shed inline with typed 503/429 bodies and a `Retry-After`
//!   header instead of blocking the accept loop;
//! * an engine evicted while a caller still holds its `Arc` is real
//!   memory the budget no longer sees — `GET /stats` surfaces it as
//!   `unreclaimed_bytes`, and the thrash gate sheds cold hydrations
//!   when eviction churn says the working set exceeds the budget;
//! * a deeply nested JSON body, or a deeply nested twig pattern inside
//!   a valid one, used to overflow a worker's stack and abort the whole
//!   server — now the JSON and twig parsers' depth caps answer a typed
//!   400, and the twig node-count cap bounds a pattern's breadth;
//! * HTTP framing is strict: a signed or conflicting `Content-Length`
//!   is a typed 400, a `Transfer-Encoding` body gets one typed 501
//!   and a closed connection instead of being read as a second request,
//!   and a request head over 16 KiB gets one typed 431 and a closed
//!   connection instead of being buffered whole.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uxm::core::engine::QueryEngine;
use uxm::core::json::Json;
use uxm::core::mapping::PossibleMappings;
use uxm::core::registry::{EngineRegistry, RegistryConfig};
use uxm::core::server::{Client, Server, ServerConfig, ServerHandle};
use uxm::matching::Matcher;
use uxm::xml::{DocGenConfig, Document, Schema};

/// The `server_http.rs` fixture engine: a small purchase-order pair.
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

fn start_with(config: ServerConfig) -> (Arc<EngineRegistry>, ServerHandle) {
    let registry = Arc::new(EngineRegistry::new());
    registry.insert("po", small_engine(7));
    let handle = Server::bind(Arc::clone(&registry), "127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .start();
    (registry, handle)
}

const QUERY: &str = r#"{"type":"ptq","pattern":"//Qty"}"#;

/// Reads one full raw HTTP response (status line, headers, body).
fn read_raw_response(stream: &mut TcpStream) -> (u16, Vec<String>, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_string();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
        headers.push(line.to_ascii_lowercase());
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, headers, String::from_utf8(body).unwrap())
}

fn error_kind(body: &str) -> String {
    Json::parse(body)
        .expect("typed JSON error body")
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        .expect("error.kind present")
        .to_string()
}

/// A handler panic answers a typed 500 on that request and nothing
/// else: the same pool — every worker — keeps serving afterwards.
/// Before panics were contained, the first one poisoned the shared
/// queue mutex and wedged the whole pool.
#[test]
fn handler_panic_answers_500_and_pool_keeps_serving() {
    let workers = 3;
    let (_registry, handle) = start_with(ServerConfig {
        workers,
        debug_panic_route: true,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Panic more times than there are workers: if containment leaked,
    // the pool could not survive this.
    for _ in 0..2 * workers {
        let mut c = Client::connect(addr).unwrap();
        let (status, body) = c.post("/debug/panic", "{}").unwrap();
        assert_eq!(status, 500);
        assert_eq!(error_kind(&body), "internal");
        assert!(body.contains("panicked"), "body: {body}");
    }

    // All workers must still answer — concurrently, so a single
    // surviving worker can't fake it.
    let mut probes: Vec<Client> = (0..workers)
        .map(|_| Client::connect(addr).unwrap())
        .collect();
    for probe in &mut probes {
        let (status, _) = probe.post("/query/po", QUERY).unwrap();
        assert_eq!(status, 200);
    }

    // The server kept count.
    let mut c = Client::connect(addr).unwrap();
    let (_, stats) = c.get("/stats").unwrap();
    let stats = Json::parse(&stats).unwrap();
    let contained = stats
        .get("server")
        .and_then(|s| s.get("panics_contained"))
        .and_then(Json::as_usize)
        .unwrap();
    assert_eq!(contained, 2 * workers);
    handle.shutdown();
}

/// A client that sends headers and then trickles (or stalls) the body
/// used to pin its worker forever. The keep-alive deadline now covers
/// body bytes: the connection is dropped and the worker serves others.
#[test]
fn trickled_body_frees_the_worker() {
    let (_registry, handle) = start_with(ServerConfig {
        workers: 1, // the one worker must survive the loris to serve anyone
        keep_alive_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut loris = TcpStream::connect(addr).unwrap();
    loris
        .write_all(b"POST /query/po HTTP/1.1\r\ncontent-length: 1000\r\n\r\n")
        .unwrap();
    // Trickle a few bytes, then stall without ever completing the body.
    for _ in 0..3 {
        loris.write_all(b"{").unwrap();
        std::thread::sleep(Duration::from_millis(50));
    }

    // Within the deadline (plus slack), the single worker must be free
    // again and answer a well-behaved client.
    let started = Instant::now();
    let mut c = Client::connect(addr)
        .and_then(|c| c.read_timeout(Duration::from_secs(5)))
        .unwrap();
    let (status, _) = c.post("/query/po", QUERY).unwrap();
    assert_eq!(status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "worker stayed pinned by the trickled body for {:?}",
        started.elapsed()
    );

    // And the loris connection was closed on the server's terms.
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = Vec::new();
    let n = loris.read_to_end(&mut buf).unwrap_or(0);
    let _ = n; // EOF (possibly after 0 bytes): the server hung up
    handle.shutdown();
}

/// A response with no `content-length` header used to silently parse
/// as an empty body (`content_length` defaulted to 0). It is now a
/// typed error naming the missing header.
#[test]
fn missing_content_length_is_a_typed_client_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Drain the request head so the client's write succeeds.
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim_end().is_empty() {
                break;
            }
        }
        stream
            .write_all(b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n{\"cut\":1}")
            .unwrap();
    });

    let mut c = Client::connect(addr).unwrap();
    let err = c
        .get("/healthz")
        .expect_err("headerless response must not parse as empty");
    assert!(
        err.to_string().contains("missing content-length"),
        "unexpected error: {err}"
    );
    fake.join().unwrap();
}

/// Arrivals beyond the connection queue are shed inline: a typed 503
/// (`kind: "overloaded"`) with a `Retry-After` header, and the accept
/// loop never blocks.
#[test]
fn queue_overflow_sheds_typed_503_with_retry_after() {
    let (_registry, handle) = start_with(ServerConfig {
        workers: 1,
        queue_depth: 1,
        keep_alive_timeout: Duration::from_secs(3),
        retry_after_ms: 1800, // rounds up to retry-after: 2
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Pin the one worker deterministically: a complete keep-alive
    // request whose response we READ back proves the worker is now
    // blocked reading this connection's next request (until the
    // keep-alive deadline) — no settle sleep can prove that.
    let mut pin = TcpStream::connect(addr).unwrap();
    pin.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, headers, _) = read_raw_response(&mut pin);
    assert_eq!(status, 200);
    assert!(
        !headers.iter().any(|h| h == "connection: close"),
        "worker must hold the pinned connection open: {headers:?}"
    );

    // Fill the single queue slot with a half-written request. The
    // accept thread handles arrivals in order and needs no worker, so
    // once the probe below connects, this one is already queued.
    let mut held = TcpStream::connect(addr).unwrap();
    held.write_all(b"POST /query/po HTTP/1.1\r\n").unwrap();

    // The next arrival must be shed — quickly, with the full typed
    // shape on the wire.
    let mut shed = TcpStream::connect(addr).unwrap();
    shed.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let started = Instant::now();
    let (status, headers, body) = read_raw_response(&mut shed);
    assert_eq!(status, 503);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shedding must be inline, took {:?}",
        started.elapsed()
    );
    assert_eq!(error_kind(&body), "overloaded");
    assert!(
        headers.iter().any(|h| h == "retry-after: 2"),
        "headers: {headers:?}"
    );
    drop(pin);
    drop(held);
    handle.shutdown();
}

/// One peer holding more than its share of connections gets a typed
/// 429 (`kind: "rate-limited"`) while the connections it already holds
/// keep working.
#[test]
fn per_client_cap_sheds_typed_429() {
    let (_registry, handle) = start_with(ServerConfig {
        workers: 2,
        max_conns_per_client: 2,
        keep_alive_timeout: Duration::from_secs(3),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut held = Vec::new();
    for _ in 0..2 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /query/po HTTP/1.1\r\n").unwrap();
        held.push(s);
    }
    std::thread::sleep(Duration::from_millis(200));

    let mut shed = TcpStream::connect(addr).unwrap();
    shed.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, headers, body) = read_raw_response(&mut shed);
    assert_eq!(status, 429);
    assert_eq!(error_kind(&body), "rate-limited");
    assert!(
        headers.iter().any(|h| h.starts_with("retry-after:")),
        "headers: {headers:?}"
    );

    // Releasing one held connection frees quota for a fresh one.
    held.pop();
    std::thread::sleep(Duration::from_millis(200));
    let mut c = Client::connect(addr).unwrap();
    let (status, _) = c.post("/query/po", QUERY).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

/// Eviction drift over HTTP: an engine evicted while a caller still
/// holds its `Arc` shows up in `GET /stats` as `unreclaimed_bytes`,
/// and drops back to zero once the handle is released.
#[test]
fn stats_surfaces_eviction_drift_and_thrash_sheds() {
    let dir = std::env::temp_dir().join(format!("uxm-admission-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A budget that fits roughly one engine, with the thrash gate
    // armed: two evictions inside the window shed further cold loads.
    let one = small_engine(1).approx_bytes();
    let registry = Arc::new(
        EngineRegistry::with_config(RegistryConfig {
            memory_budget: one + one / 2,
            thrash_evictions: 2,
            thrash_window: 1_000,
        })
        .snapshot_dir(&dir),
    );
    for (name, seed) in [("a", 1u64), ("b", 2), ("c", 3)] {
        registry.insert(name, small_engine(seed));
        registry.save(name).unwrap();
        registry.remove(name);
    }
    let handle = Server::bind(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind ephemeral port")
    .start();
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();

    // Hold a live handle to "a", then make the budget evict it by
    // querying "b" over HTTP.
    let held = registry.fetch("a").unwrap();
    let (status, _) = c.post("/query/b", QUERY).unwrap();
    assert_eq!(status, 200);

    let (_, stats) = c.get("/stats").unwrap();
    let stats = Json::parse(&stats).unwrap();
    let registry_stats = stats.get("registry").expect("registry section");
    let unreclaimed = registry_stats
        .get("unreclaimed_bytes")
        .and_then(Json::as_usize)
        .unwrap();
    assert_eq!(
        unreclaimed,
        held.approx_bytes(),
        "the held engine's bytes must be reported as drift"
    );

    // Release the handle: the drift is reclaimed.
    drop(held);
    let (_, stats) = c.get("/stats").unwrap();
    let stats = Json::parse(&stats).unwrap();
    let unreclaimed = stats
        .get("registry")
        .and_then(|r| r.get("unreclaimed_bytes"))
        .and_then(Json::as_usize)
        .unwrap();
    assert_eq!(unreclaimed, 0);

    // Churn cold engines until the gate arms, then expect a typed 503
    // on the next cold hydration.
    let mut shed_seen = false;
    for name in ["c", "a", "b", "c", "a", "b"] {
        let (status, body) = c.post(&format!("/query/{name}"), QUERY).unwrap();
        if status == 503 {
            assert_eq!(error_kind(&body), "overloaded");
            shed_seen = true;
            break;
        }
        assert_eq!(status, 200, "body: {body}");
    }
    assert!(shed_seen, "thrash gate never shed a cold hydration");
    let (_, stats) = c.get("/stats").unwrap();
    let stats = Json::parse(&stats).unwrap();
    let shed = stats
        .get("registry")
        .and_then(|r| r.get("shed_hydrations"))
        .and_then(Json::as_usize)
        .unwrap();
    assert!(shed >= 1, "stats must count shed hydrations, got {shed}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `uxm serve` child process on an ephemeral port; killed on drop.
struct ChildServer {
    child: std::process::Child,
    /// The banner's reader, kept open so later banner lines never hit a
    /// closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
    addr: String,
    dir: std::path::PathBuf,
}

impl ChildServer {
    fn start() -> ChildServer {
        let dir = std::env::temp_dir().join(format!("uxm-admission-child-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_uxm"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--dir"])
            .arg(&dir)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn uxm serve");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        // "uxm serve on http://127.0.0.1:PORT — ..."
        let mut banner = String::new();
        stdout.read_line(&mut banner).unwrap();
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
            .to_string();
        ChildServer {
            child,
            _stdout: stdout,
            addr,
            dir,
        }
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A 100 KB `/batch` body of 50,000 nested `[` (a tenth of the body
/// cap) used to overflow a worker's stack in the recursive JSON parser.
/// A stack overflow aborts the whole process — `catch_unwind` cannot
/// contain it. The parser's nesting cap now answers a typed 400 and
/// the server keeps serving. The server runs as a child process, so a
/// regression fails this test instead of aborting the test binary.
#[test]
fn deeply_nested_json_body_is_a_typed_400_not_an_abort() {
    let server = ChildServer::start();
    let body = "[".repeat(50_000) + &"]".repeat(50_000);
    let (status, answer) = Client::connect(server.addr.as_str())
        .unwrap()
        .post("/batch", &body)
        .expect("the server answers a deeply nested body");
    assert_eq!(status, 400, "{answer}");
    assert_eq!(error_kind(&answer), "json");
    assert!(
        answer.contains(&format!(
            "nesting too deep at byte {}",
            uxm::core::json::MAX_DEPTH
        )),
        "{answer}"
    );

    let (status, health) = Client::connect(server.addr.as_str())
        .expect("the server is still listening")
        .get("/healthz")
        .unwrap();
    assert_eq!((status, health.as_str()), (200, "{\"status\":\"ok\"}"));
}

/// A twig pattern nested 50,000 levels deep — as predicate branches
/// (`a[./a[./…]]`, 250 KB) or as a spine (`a/a/…/a`, 100 KB), both under
/// the 1 MiB body cap — fails to parse with a typed 400 at the step
/// that crosses `pattern::MAX_DEPTH`, and the server keeps serving. The
/// pattern parses before any engine lookup, so no engine is loaded.
/// Before the cap, recursion on such a pattern overflowed a worker's
/// stack and aborted the process; the server runs as a child process so
/// a regression fails this test instead of aborting the test binary.
#[test]
fn deeply_nested_twig_pattern_is_a_typed_400_not_an_abort() {
    use uxm::twig::pattern::MAX_DEPTH;
    const LEVELS: usize = 50_000;
    let branches = "a".to_string() + &"[./a".repeat(LEVELS) + &"]".repeat(LEVELS);
    let spine = "a".to_string() + &"/a".repeat(LEVELS);
    let server = ChildServer::start();
    // Byte offsets of the step that crosses the cap: the branch right
    // after its '[', the spine step at its '/'.
    for (pattern, offset) in [(branches, 4 * MAX_DEPTH - 2), (spine, 2 * MAX_DEPTH - 1)] {
        let body = Json::Obj(vec![
            ("pattern".into(), Json::str(&pattern)),
            ("type".into(), Json::str("ptq")),
        ])
        .to_string();
        let (status, answer) = Client::connect(server.addr.as_str())
            .expect("the server is still listening")
            .post("/query/x", &body)
            .expect("the server answers a deeply nested pattern");
        assert_eq!(status, 400, "{answer}");
        assert_eq!(error_kind(&answer), "parse");
        assert!(
            answer.contains(&format!("deeper than {MAX_DEPTH} levels at byte {offset}")),
            "{answer}"
        );
    }

    let (status, health) = Client::connect(server.addr.as_str())
        .expect("the server is still listening")
        .get("/healthz")
        .unwrap();
    assert_eq!((status, health.as_str()), (200, "{\"status\":\"ok\"}"));
}

/// Sends `raw` on a fresh connection and reads until the server closes
/// it; returns every response on the wire as `(status, body)`.
fn exchange(addr: std::net::SocketAddr, raw: &str) -> Vec<(u16, String)> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut wire = String::new();
    stream.read_to_string(&mut wire).unwrap();
    let mut responses = Vec::new();
    let mut rest = wire.as_str();
    while !rest.is_empty() {
        let (head, tail) = rest
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("truncated response head {rest:?}"));
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line in {head:?}"));
        let len: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(|v| v.trim().parse().unwrap())
            })
            .expect("content-length");
        responses.push((status, tail[..len].to_string()));
        rest = &tail[len..];
    }
    responses
}

/// `Content-Length` must be `1*DIGIT`. `usize::from_str` also accepts
/// a leading `+`, so `+2` used to frame a 2-byte body and the batch
/// below was answered 200.
#[test]
fn signed_content_length_is_a_typed_400() {
    let (_registry, handle) = start_with(ServerConfig::default());
    let responses = exchange(
        handle.addr(),
        "POST /batch HTTP/1.1\r\ncontent-length: +2\r\nconnection: close\r\n\r\n[]",
    );
    assert_eq!(responses.len(), 1, "{responses:?}");
    let (status, body) = &responses[0];
    assert_eq!(*status, 400, "{body}");
    assert_eq!(error_kind(body), "usage");
    assert!(body.contains(r#"bad content-length \"+2\""#), "{body}");
    handle.shutdown();
}

/// Two `Content-Length` headers that disagree leave the body's length
/// ambiguous, so the request is a typed 400. The last one used to win:
/// here it framed `[]` and the batch was answered 200.
#[test]
fn conflicting_content_lengths_are_a_typed_400() {
    let (_registry, handle) = start_with(ServerConfig::default());
    let responses = exchange(
        handle.addr(),
        "POST /batch HTTP/1.1\r\ncontent-length: 100\r\ncontent-length: 2\r\n\
         connection: close\r\n\r\n[]",
    );
    assert_eq!(responses.len(), 1, "{responses:?}");
    let (status, body) = &responses[0];
    assert_eq!(*status, 400, "{body}");
    assert_eq!(error_kind(body), "usage");
    assert!(body.contains("conflicting content-length"), "{body}");

    // Repeating the same value is harmless.
    let responses = exchange(
        handle.addr(),
        "POST /batch HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\
         connection: close\r\n\r\n[]",
    );
    assert_eq!(responses, vec![(200, "{\"results\":[]}".to_string())]);
    handle.shutdown();
}

/// A chunked body is not implemented: the request gets exactly one
/// typed 501 and the connection closes. The header used to be ignored,
/// so the request was answered for an empty body and the chunk-size
/// line was then read as a second request — two responses for one
/// request, a request-desync bug.
#[test]
fn chunked_request_gets_one_501_then_close() {
    let (_registry, handle) = start_with(ServerConfig::default());
    let chunk = format!("{:x}\r\n{QUERY}\r\n0\r\n\r\n", QUERY.len());
    let responses = exchange(
        handle.addr(),
        &format!("POST /query/po HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n{chunk}"),
    );
    assert_eq!(responses.len(), 1, "{responses:?}");
    let (status, body) = &responses[0];
    assert_eq!(*status, 501, "{body}");
    assert_eq!(error_kind(body), "usage");
    assert!(body.contains("transfer-encoding"), "{body}");
    handle.shutdown();
}

/// A request head (request line, headers and the blank line) over
/// 16 KiB gets exactly one typed 431 and the connection closes. No
/// header line had a length cap before: the 64 KiB header below was
/// read whole and `/healthz` answered 200, and the 20 KiB request line
/// was routed and answered 404. The server stops reading at the cap
/// while the client is still sending; the 431 must still arrive.
#[test]
fn oversized_request_head_gets_one_431_then_close() {
    let (_registry, handle) = start_with(ServerConfig::default());
    let header = format!(
        "GET /healthz HTTP/1.1\r\nx-pad: {}\r\nconnection: close\r\n\r\n",
        "x".repeat(64 * 1024)
    );
    let line = format!(
        "GET /{} HTTP/1.1\r\nconnection: close\r\n\r\n",
        "a".repeat(20 * 1024)
    );
    for raw in [header, line] {
        let responses = exchange(handle.addr(), &raw);
        assert_eq!(responses.len(), 1, "{responses:?}");
        let (status, body) = &responses[0];
        assert_eq!(*status, 431, "{body}");
        assert_eq!(error_kind(body), "usage");
        assert!(body.contains("16384-byte limit"), "{body}");
    }
    handle.shutdown();
}

/// A twig pattern 50,000 branches wide (`a[./b][./b]…`, 250 KB, one
/// level deep) fails to parse with a typed 400 at the branch that
/// crosses `pattern::MAX_NODES`, and the server keeps serving. Before
/// the cap only the 1 MiB body cap bounded a pattern's size, and this
/// one parsed.
#[test]
fn wide_twig_pattern_is_a_typed_400() {
    use uxm::twig::pattern::MAX_NODES;
    let pattern = "a".to_string() + &"[./b]".repeat(50_000);
    let body = Json::Obj(vec![
        ("pattern".into(), Json::str(&pattern)),
        ("type".into(), Json::str("ptq")),
    ])
    .to_string();
    let server = ChildServer::start();
    let (status, answer) = Client::connect(server.addr.as_str())
        .unwrap()
        .post("/query/x", &body)
        .expect("the server answers a wide pattern");
    assert_eq!(status, 400, "{answer}");
    assert_eq!(error_kind(&answer), "parse");
    // The crossing branch starts right after its '['.
    let offset = 5 * MAX_NODES - 3;
    assert!(
        answer.contains(&format!("more than {MAX_NODES} nodes at byte {offset}")),
        "{answer}"
    );

    let (status, health) = Client::connect(server.addr.as_str())
        .expect("the server is still listening")
        .get("/healthz")
        .unwrap();
    assert_eq!((status, health.as_str()), (200, "{\"status\":\"ok\"}"));
}
