//! The closed-loop load generator: each client thread holds one
//! persistent connection and sends its next request only after the
//! previous reply arrived and was checked against its reference.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use uxm_core::server::Client;

use crate::util::{micros, percentile, rss_mib};
use crate::workload::{Pool, Request, Stack, Stream};

/// One client's persistent connection, reopened after a transport error.
pub struct Conn {
    addr: SocketAddr,
    client: Option<Client>,
}

pub enum Outcome {
    Ok,
    /// 2xx, but the served answers differ from the reference.
    Mismatch,
    /// Non-2xx status, refusals (429/503) included.
    Status,
    Transport,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, client: None }
    }

    pub fn send(&mut self, request: &Request) -> Outcome {
        if self.client.is_none() {
            match Client::connect(self.addr).and_then(|c| c.read_timeout(Duration::from_secs(20))) {
                Ok(c) => self.client = Some(c),
                Err(_) => return Outcome::Transport,
            }
        }
        let client = self.client.as_mut().expect("connected above");
        match client.post(&request.path, &request.body) {
            Ok((200..=299, body)) if request.expect.matches(&body) => Outcome::Ok,
            Ok((200..=299, _)) => Outcome::Mismatch,
            Ok(_) => Outcome::Status,
            Err(_) => {
                self.client = None;
                Outcome::Transport
            }
        }
    }
}

/// What one or more clients saw: request counts by outcome.
#[derive(Default)]
pub struct Tally {
    pub ok: u64,
    pub mismatched: u64,
    pub refused: u64,
    pub transport: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Mismatch => self.mismatched += 1,
            Outcome::Status => self.refused += 1,
            Outcome::Transport => self.transport += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.mismatched + self.refused + self.transport
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    pub fn absorb(&mut self, other: Tally) {
        self.ok += other.ok;
        self.mismatched += other.mismatched;
        self.refused += other.refused;
        self.transport += other.transport;
    }
}

/// Sends every request of the pool once (fills program caches and
/// hydrates every engine the pool names).
pub fn warm_each(conn: &mut Conn, pool: &Pool) -> Tally {
    let mut tally = Tally::default();
    for request in &pool.requests {
        tally.record(&conn.send(request));
    }
    tally
}

/// Throughput and latency percentiles of one window of a phase.
pub struct Window {
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// The timed phase cut into windows of about half a second by completion
/// time. Only the window being filled keeps its round-trip times, so the
/// load generator's memory stays flat however long the phase runs and
/// `rss_peak_mb` measures the stack, not the log.
struct WindowLog {
    width: f64,
    count: usize,
    state: std::sync::Mutex<WindowState>,
}

struct WindowState {
    index: usize,
    /// Round-trip times in µs of the current window; infinite for a
    /// failed request, which misses every latency limit.
    rtts: Vec<f64>,
    done: Vec<Window>,
}

impl WindowLog {
    fn new(duration: Duration) -> WindowLog {
        let count = ((duration.as_secs_f64() * 2.0).floor() as usize).max(1);
        WindowLog {
            width: duration.as_secs_f64() / count as f64,
            count,
            state: std::sync::Mutex::new(WindowState {
                index: 0,
                rtts: Vec::new(),
                done: Vec::with_capacity(count),
            }),
        }
    }

    /// Records a request that finished `at` seconds into the phase;
    /// requests finishing after the last window's end count in it.
    fn record(&self, at: f64, rtt_us: f64) {
        let index = ((at / self.width) as usize).min(self.count - 1);
        let mut state = self.state.lock().expect("a client panicked while logging");
        while state.index < index {
            state.close(self.width);
        }
        state.rtts.push(rtt_us);
    }

    fn finish(self) -> Vec<Window> {
        let mut state = self
            .state
            .into_inner()
            .expect("a client panicked while logging");
        while state.done.len() < self.count {
            state.close(self.width);
        }
        state.done
    }
}

impl WindowState {
    fn close(&mut self, width: f64) {
        let rtts = &mut self.rtts;
        let window = if rtts.is_empty() {
            // Nothing completed for a whole window: a stall.
            Window {
                qps: 0.0,
                p50_us: f64::INFINITY,
                p99_us: f64::INFINITY,
            }
        } else {
            Window {
                qps: rtts.iter().filter(|r| r.is_finite()).count() as f64 / width,
                p50_us: percentile(rtts, 50.0),
                p99_us: percentile(rtts, 99.0),
            }
        };
        self.done.push(window);
        self.rtts.clear();
        self.index += 1;
    }
}

fn client_loop(
    conn: &mut Conn,
    pool: &Pool,
    stream: &mut Stream,
    log: &WindowLog,
    start: Instant,
    deadline: Instant,
) -> Tally {
    let mut tally = Tally::default();
    while Instant::now() < deadline {
        let request = &pool.requests[stream.next(pool)];
        let t = Instant::now();
        let outcome = conn.send(request);
        let rtt = micros(t.elapsed());
        tally.record(&outcome);
        let rtt = if matches!(outcome, Outcome::Ok) {
            rtt
        } else {
            f64::INFINITY
        };
        log.record(start.elapsed().as_secs_f64(), rtt);
    }
    tally
}

/// One timed closed-loop phase across all clients.
pub struct Phase {
    pub tally: Tally,
    pub windows: Vec<Window>,
    pub seconds: f64,
    pub rss_peak_mib: f64,
    pub evictions: u64,
}

/// Runs every client until `duration` has passed, sampling process RSS
/// meanwhile; client `i` draws from `streams[i]`.
pub fn run_phase(
    stack: &Stack,
    conns: &mut [Conn],
    streams: &mut [Stream],
    pool: &Pool,
    duration: Duration,
) -> Phase {
    let evictions_before = stack.evictions();
    let log = WindowLog::new(duration);
    let start = Instant::now();
    let deadline = start + duration;
    let (tally, rss_peak_mib) = std::thread::scope(|scope| {
        let log = &log;
        let clients: Vec<_> = conns
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(conn, stream)| {
                scope.spawn(move || client_loop(conn, pool, stream, log, start, deadline))
            })
            .collect();
        let mut peak = rss_mib();
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            peak = peak.max(rss_mib());
        }
        let mut tally = Tally::default();
        for client in clients {
            tally.absorb(client.join().expect("client thread panicked"));
        }
        (tally, peak)
    });
    Phase {
        tally,
        windows: log.finish(),
        seconds: start.elapsed().as_secs_f64(),
        rss_peak_mib,
        evictions: stack.evictions() - evictions_before,
    }
}

impl Phase {
    /// The median over windows of one window statistic.
    pub fn over_windows(&self, f: fn(&Window) -> f64) -> f64 {
        crate::util::median(&mut self.windows.iter().map(f).collect::<Vec<_>>())
    }
}
