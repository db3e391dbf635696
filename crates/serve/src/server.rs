//! The multi-tenant market server: a std-only, non-blocking TCP reactor
//! in front of one owner thread per resident market.
//!
//! # Concurrency model
//!
//! [`MarketServer::serve`] runs three kinds of threads, all scoped to
//! the call with [`std::thread::scope`] (so they can borrow the loader):
//!
//! - The **reactor** accepts connections, reads complete request lines,
//!   parses them, and routes them. It answers only the verbs that read
//!   no market state — `list`, process-level `stats`, `metrics`, `quit`
//!   — and the routing errors (unknown market, full session table).
//! - Every resident market has an **owner thread** with an [`mpsc`]
//!   mailbox. Market-scoped verbs — `advise`, `step`, `snapshot`,
//!   `restore`, `stats {market}`, `unload` — go to that market's
//!   mailbox, and the reply lines go straight from the thread that
//!   handles the request to the client, never through the reactor. A
//!   `step` on one market therefore never delays an `advise` on
//!   another. Only the owner, or the work lane while it holds the
//!   session, touches a session, so the session needs no lock.
//! - The **work lane** is the thread that called `serve`. Owners send it
//!   the allocation-heavy jobs — the `load` build, `step`, `snapshot`,
//!   `restore` — moving the session there and back by value, and wait
//!   for the result. One long-lived thread keeps all of that churn in
//!   one malloc arena (see [`WorkLane`]), so heavy jobs of different
//!   markets run one at a time, as they did on the single-threaded
//!   server, while advises and the reactor never wait for them.
//!
//! What the reactor reports about a session (`list`, `stats`, `metrics`)
//! comes from a small per-session block of atomic counters and a
//! summary the owner republishes after each change, never from waiting
//! on a busy owner.
//!
//! `load` reserves the market id and a table slot on the reactor and
//! starts the owner thread, which has the market built on the work lane;
//! a failed build releases the slot (and the id, if no later load took
//! one). `unload` drops the session on its owner thread and replies
//! after the drop, so the slot frees only once the memory has.
//!
//! **Reply order per connection**: a connection with a request in
//! flight has no further lines read until that request's terminal
//! reply is written, so replies come back in request order without a
//! reorder buffer. Requests to different markets overlap only when they
//! arrive on different connections.
//!
//! Candidate evaluation and round stepping fan out over the server's
//! [`ThreadPool`] (a worker count shared by every thread that uses it)
//! through the same deterministic [`ScenarioSweep`] machinery the batch
//! binaries use, and each market steps from its own seed, so every
//! reply is byte-identical at any `--threads` value and under any
//! interleaving of markets.
//!
//! A panic while handling a market's request is caught: the request
//! answers [`ErrorCode::EvaluationFailed`], the market is dropped and
//! marked poisoned (its later requests answer that error too, until
//! `unload`), and the other markets and the reactor keep serving.
//!
//! # Telemetry
//!
//! Each verb records `serve.verb.<verb>.queue_ns`, the time from the
//! reactor parsing the line to the handling thread starting it (the
//! wait in a busy owner's mailbox), and `serve.verb.<verb>_ns`, the
//! service time on the thread that handles it.
//!
//! # Session table and advise cache
//!
//! `load` creates a [`MarketSession`] (up to the
//! [`with_max_markets`](MarketServer::with_max_markets) cap) and returns
//! its server-assigned id; `unload` destroys one. Each session holds a
//! per-AS `advise` cache keyed by the market's
//! [generation counter](MarketState::generation), which pan-core bumps
//! on every adoption and every perturbation pass (traffic drift, price
//! shocks / pricing-epoch changes, link failures) — so a repeat query
//! against an unchanged market answers from memory in microseconds,
//! and any state change invalidates exactly by key comparison.
//! `restore` replaces the state *instance*, whose generation counter
//! restarts, so it drops the session's cache wholesale instead.
//!
//! The cache stores each AS's **full** ranked report (top = 0) and
//! slices it to the request's `top` at reply time: report aggregates
//! are truncation-independent by construction
//! ([`DiscoveryReport::from_outcomes`]), so cold and warm replies are
//! byte-identical for every `top`, and one entry serves them all.
//!
//! # Socket layer
//!
//! A hand-rolled readiness loop over [`std::net`] with
//! [`TcpListener::set_nonblocking`] (the workspace is offline: no
//! tokio, no mio): each iteration drains pending accepts and per-client
//! reads. Accepted streams set `TCP_NODELAY`, so small replies leave at
//! once instead of waiting on the client's next packet. When nothing
//! progresses the loop first spins politely
//! ([`std::thread::yield_now`]) for a bounded number of iterations —
//! keeping request-to-request latency in the microseconds for
//! interactive bursts — and only then parks for a millisecond at a
//! time; an owner finishing a request unparks it at once.

use std::any::Any;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::mem::size_of;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{Scope, Thread};
use std::time::{Duration, Instant};

use serde::Value;

use pan_core::dynamics::{advise, Engine, EvolutionDriver, MarketSnapshot, MarketState};
use pan_core::{DiscoveryReport, EvolutionConfig, PairOutcome};
use pan_runtime::{ScenarioSweep, ThreadPool};

use crate::protocol::{
    object, reply_error, reply_ok, to_value, Envelope, ErrorCode, MarketId, Request, WireError,
};

/// A market made resident by the `load` verb — what the server's loader
/// callback returns for synthetic specs (checkpoint loads are handled by
/// the server itself via [`MarketSnapshot`]).
#[derive(Debug)]
pub struct LoadedMarket {
    /// The market to make resident.
    pub state: MarketState,
    /// Evolution configuration for `advise`/`step` on this market.
    pub config: EvolutionConfig,
    /// Master seed of the market's sweeps.
    pub seed: u64,
    /// Human-readable description echoed in replies.
    pub label: String,
}

/// The loader callback interpreting the `load` verb's `market` object.
///
/// Kept as a callback so the server crate stays decoupled from dataset
/// generation: the `serve` binary supplies a loader that builds the
/// standard synthetic internet + economics from spec-like fields.
/// Loader errors surface as [`ErrorCode::InvalidConfig`]. The loader
/// runs on the thread that called [`MarketServer::serve`], in jobs that
/// market owner threads queue there, hence `Sync`.
pub type MarketLoader<'a> = dyn Fn(&Value) -> Result<LoadedMarket, String> + Sync + 'a;

/// Counters [`MarketServer::serve`] reports after a clean shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted over the server's lifetime.
    pub connections: usize,
    /// Request lines handled (including ones answered with an error).
    pub requests: usize,
}

/// One AS's cached full advise report, valid while the market's
/// generation counter still matches.
struct CachedAdvice {
    generation: u64,
    report: DiscoveryReport,
}

/// The `load`/`unload`/`restore`/`list` summary of one session.
#[derive(Clone)]
struct Summary {
    label: String,
    ases: usize,
    links: usize,
    peering_links: usize,
    transit_links: usize,
    adopted: usize,
    rounds_done: usize,
    seed: u64,
}

impl Summary {
    fn fields(&self, id: MarketId) -> Vec<(&'static str, Value)> {
        vec![
            ("market", id.to_value()),
            ("label", Value::Str(self.label.clone())),
            ("ases", to_value(&self.ases)),
            ("links", to_value(&self.links)),
            ("peering_links", to_value(&self.peering_links)),
            ("transit_links", to_value(&self.transit_links)),
            ("adopted", to_value(&self.adopted)),
            ("rounds_done", to_value(&self.rounds_done)),
            ("seed", to_value(&self.seed)),
        ]
    }
}

/// What the reactor reads of a session without waiting on its owner:
/// advise counters the owner bumps as it answers, and the summary it
/// republishes after every change to it.
#[derive(Default)]
struct SessionShared {
    advises: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_entries: AtomicU64,
    /// `None` while the market is still being built.
    summary: Mutex<Option<Summary>>,
    /// The session is gone — its build failed or `unload` dropped it —
    /// so its table slot is free. Stored (Release) before the final
    /// reply is written and the connection released; the reactor loads
    /// it (Acquire) after seeing the connection free, so the client's
    /// next `load` finds the slot free.
    gone: AtomicBool,
}

impl SessionShared {
    // Every update of `summary` is one assignment, so a guard recovered
    // from a panicked holder still sees a whole summary.
    fn publish(&self, summary: Summary) {
        *self.summary.lock().unwrap_or_else(PoisonError::into_inner) = Some(summary);
    }

    fn summary(&self) -> Option<Summary> {
        self.summary
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn count(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    fn retire(&self) {
        self.gone.store(true, Ordering::Release);
    }

    fn is_gone(&self) -> bool {
        self.gone.load(Ordering::Acquire)
    }
}

/// One resident market: its state, driver, and advise cache, owned by
/// the market's owner thread.
struct MarketSession {
    id: MarketId,
    state: MarketState,
    driver: EvolutionDriver,
    seed: u64,
    label: String,
    cache: HashMap<u32, CachedAdvice>,
    rounds_stepped: u64,
    shared: Arc<SessionShared>,
}

impl MarketSession {
    fn summary(&self) -> Summary {
        let graph = self.state.graph();
        Summary {
            label: self.label.clone(),
            ases: graph.node_count(),
            links: graph.link_count(),
            peering_links: graph.peering_link_count(),
            transit_links: graph.transit_link_count(),
            adopted: self.state.adopted_count(),
            rounds_done: self.driver.rounds_done(),
            seed: self.seed,
        }
    }

    /// Makes the current summary what `list` and `stats` report.
    fn publish(&self) {
        self.shared.publish(self.summary());
    }

    /// Resident size of the session: the state's and driver's own
    /// capacity-based accounting plus the advise cache's outcome
    /// vectors. Capacity-based, so it tracks what the allocator holds
    /// rather than a shape-derived estimate.
    fn resident_bytes(&self) -> usize {
        let cache: usize = self
            .cache
            .values()
            .map(|c| size_of::<CachedAdvice>() + c.report.outcomes.len() * size_of::<PairOutcome>())
            .sum();
        self.state.resident_bytes() + self.driver.resident_bytes() + cache
    }
}

/// Server-wide settings and counters the reactor shares with every
/// owner thread.
struct ServerShared {
    pool: ThreadPool,
    engine: Engine,
    slow_log: Duration,
    /// When the serving loop started — `stats`/`metrics` uptime.
    started: Instant,
    /// Error replies sent, indexed by [`ErrorCode::index`].
    errors: [AtomicU64; ErrorCode::ALL.len()],
}

impl ServerShared {
    /// Bumps both the error table and the global telemetry counter for
    /// one error reply.
    fn count_error(&self, error: &WireError) {
        self.errors[error.code.index()].fetch_add(1, Ordering::Relaxed);
        pan_telemetry::counter(&format!("serve.error.{}", error.code.as_str())).inc();
    }
}

/// A long-running TCP server hosting a table of resident markets; see
/// the [crate docs](crate) for the concurrency model and
/// [`crate::protocol`] for the wire format.
#[derive(Debug)]
pub struct MarketServer {
    listener: TcpListener,
    pool: ThreadPool,
    engine: Engine,
    max_markets: usize,
    slow_log: Duration,
}

/// Default session-table cap; override with
/// [`MarketServer::with_max_markets`].
pub const DEFAULT_MAX_MARKETS: usize = 8;

/// Longest accepted request line. A client streaming bytes without a
/// newline must not grow the resident server's memory without bound;
/// real requests are well under a kilobyte.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Give a stalled reader this long to drain its socket before the
/// writing thread abandons the reply and closes the client — a
/// non-reading client must not wedge a market's owner thread.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(30);

/// Idle loop iterations spent yielding before falling back to
/// millisecond parks. Within a request burst the next line usually
/// arrives within a handful of yields, keeping cached-advise round
/// trips in the microseconds; a genuinely idle server reaches the
/// park tier in well under ten milliseconds and stops burning cycles.
const IDLE_SPIN_ITERS: u32 = 500;

/// Only log requests at least this slow: the hot cached-advise path
/// answers in microseconds and per-line logging would dominate it.
const LOG_THRESHOLD: Duration = Duration::from_millis(1);

/// One connection's socket, shared by the reactor (which reads it) and
/// whichever thread is answering its request in flight.
struct Connection {
    stream: TcpStream,
    /// A request is in flight: the reactor reads no further line until
    /// its terminal reply is written. Cleared (Release) after the last
    /// reply line; the reactor's Acquire load then sees every effect of
    /// the request.
    busy: AtomicBool,
    /// The peer went away or stopped draining replies.
    dead: AtomicBool,
    /// Unparked when a request completes, so the reactor picks up the
    /// connection's next line at once.
    reactor: Thread,
}

impl Connection {
    fn is_busy(&self) -> bool {
        self.busy.load(Ordering::Acquire)
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn kill(&self) {
        self.dead.store(true, Ordering::Release);
    }

    /// Writes one reply line, retrying short non-blocking writes. A
    /// disconnected client is marked dead; the request keeps executing
    /// (state mutations must not half-apply because a reader went
    /// away). A reader that stalls past [`WRITE_STALL_LIMIT`] is
    /// abandoned and closed.
    fn send_line(&self, line: &str) {
        if self.is_dead() {
            return;
        }
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        let mut written = 0;
        let mut stalled_since: Option<Instant> = None;
        while written < bytes.len() {
            match (&self.stream).write(&bytes[written..]) {
                Ok(0) => return self.kill(),
                Ok(n) => {
                    written += n;
                    stalled_since = None;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let since = *stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= WRITE_STALL_LIMIT {
                        eprintln!("# dropping client: reply stalled for {WRITE_STALL_LIMIT:?}");
                        return self.kill();
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.kill(),
            }
        }
    }
}

/// The reactor's side of one connection: the shared socket and the
/// bytes read but not yet parsed.
struct Client {
    conn: Arc<Connection>,
    buffer: Vec<u8>,
    /// The peer finished sending; buffered lines are still answered.
    eof: bool,
}

impl Client {
    /// Reads whatever is available; `true` if any bytes arrived. A
    /// request line exceeding [`MAX_REQUEST_BYTES`] closes the client
    /// (with a final error reply, best-effort).
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        let mut progressed = false;
        while !self.eof {
            match (&self.conn.stream).read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.buffer.extend_from_slice(&chunk[..n]);
                    progressed = true;
                    if self.buffer.len() > MAX_REQUEST_BYTES
                        && !self.buffer[..MAX_REQUEST_BYTES].contains(&b'\n')
                    {
                        self.conn.send_line(&reply_error(
                            None,
                            &WireError::bad_request(format!(
                                "request line exceeds {MAX_REQUEST_BYTES} bytes"
                            )),
                        ));
                        self.conn.kill();
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.conn.kill();
                    break;
                }
            }
        }
        progressed
    }

    /// Pops the next complete line off the buffer.
    fn next_line(&mut self) -> Option<String> {
        let end = self.buffer.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.buffer.drain(..=end).collect();
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Nothing more will come of this client: its socket is dead, or
    /// the peer finished sending and every buffered line was answered.
    fn is_done(&self) -> bool {
        self.conn.is_dead() || (self.eof && !self.conn.is_busy() && !self.buffer.contains(&b'\n'))
    }
}

/// Where one request's reply lines go: its connection and the echoed
/// request id.
#[derive(Clone)]
struct Replier {
    conn: Arc<Connection>,
    id: Option<Value>,
}

impl Replier {
    fn ok(&self, verb: &str, fields: Vec<(&str, Value)>) {
        self.conn
            .send_line(&reply_ok(self.id.as_ref(), verb, fields));
    }
}

/// One parsed request on its way to its terminal reply, with the parse
/// time that splits queueing from service time. Creating one marks the
/// connection busy; dropping it releases the connection for its next
/// line.
struct Reply {
    to: Replier,
    verb: &'static str,
    line: String,
    parsed: Instant,
}

impl Reply {
    fn new(conn: &Arc<Connection>, id: Option<Value>, verb: &'static str, line: String) -> Reply {
        conn.busy.store(true, Ordering::Release);
        Reply {
            to: Replier {
                conn: Arc::clone(conn),
                id,
            },
            verb,
            line,
            parsed: Instant::now(),
        }
    }

    /// Starts handling: records the time the request waited since parse.
    fn begin(&self) -> Instant {
        let started = Instant::now();
        pan_telemetry::histogram(&format!("serve.verb.{}.queue_ns", self.verb))
            .record_duration(started - self.parsed);
        started
    }

    /// Ends the request: the error reply if it failed, service time,
    /// the slow log, and (on drop) the connection's release.
    fn finish(self, server: &ServerShared, started: Instant, result: Result<(), WireError>) {
        if let Err(error) = result {
            server.count_error(&error);
            self.to
                .conn
                .send_line(&reply_error(self.to.id.as_ref(), &error));
        }
        let elapsed = started.elapsed();
        pan_telemetry::histogram(&format!("serve.verb.{}_ns", self.verb)).record_duration(elapsed);
        if elapsed >= server.slow_log {
            eprintln!(
                "# handled {:?} in {:.1} ms",
                self.line,
                elapsed.as_secs_f64() * 1e3
            );
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        self.to.conn.busy.store(false, Ordering::Release);
        self.to.conn.reactor.unpark();
    }
}

/// Work the reactor hands a market's owner thread. `Load` is always an
/// owner's first message.
enum Job {
    Load(Source),
    Unload,
    Query(Query),
    Work(Work),
}

/// Market-scoped verbs the owner thread answers itself.
enum Query {
    Advise {
        asn: u32,
        top: usize,
    },
    Stats,
    /// Panics inside the handler, to test poisoning.
    #[cfg(test)]
    Panic,
}

/// Market-scoped verbs that allocate heavily; the owner runs them on
/// the [`WorkLane`].
enum Work {
    Step { rounds: usize, shock: Option<f64> },
    Snapshot { path: String },
    Restore { path: String },
}

/// One mailbox message: a job and where its reply goes.
struct Message {
    job: Job,
    reply: Reply,
}

/// What `load` builds a market from.
enum Source {
    Spec(Value),
    Checkpoint(String),
}

fn unknown_market(id: MarketId) -> WireError {
    WireError::new(
        ErrorCode::UnknownMarket,
        format!("no resident market {id}; \"list\" shows the session table"),
    )
}

/// The [`ErrorCode::EvaluationFailed`] reply to a caught panic.
fn panic_error(payload: &(dyn Any + Send)) -> WireError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    WireError::new(
        ErrorCode::EvaluationFailed,
        format!("handler panicked: {message}"),
    )
}

/// Runs `f`, turning a panic into an [`ErrorCode::EvaluationFailed`]
/// error; the flag says whether it panicked.
fn guarded<T>(f: impl FnOnce() -> Result<T, WireError>) -> (Result<T, WireError>, bool) {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => (result, false),
        Err(payload) => (Err(panic_error(payload.as_ref())), true),
    }
}

/// A closure queued on the work lane.
type LaneJob<'env> = Box<dyn FnOnce() + Send + 'env>;

/// The one thread that runs every allocation-heavy job — `load` builds,
/// `step`, `snapshot`, `restore` — for every market: the thread that
/// called [`MarketServer::serve`]. The job writes its reply lines
/// (`step`'s `round` lines included) on the requesting connection, as
/// the owner would.
///
/// Building and stepping a market allocate far more than the market
/// keeps, and glibc keeps freed memory in the malloc arena of the
/// thread that allocated it. On one long-lived thread, every market
/// reuses one arena's free memory. With builds and steps on each
/// market's owner thread, each owner's arena kept its own, and peak RSS
/// on the serve-mixed benchmark (2 vCPUs) rose from a median of 208 MB
/// to 247 MB; with this lane the median is 224 MB. Heavy jobs therefore
/// run one at a time, while advises, `stats`, and `unload` never wait
/// for them.
#[derive(Clone)]
struct WorkLane<'env>(Sender<LaneJob<'env>>);

impl<'env> WorkLane<'env> {
    /// Runs `f` on the work lane and waits for its result; a panic in
    /// `f` resumes on the caller.
    fn run<T: Send + 'env>(&self, f: impl FnOnce() -> T + Send + 'env) -> T {
        let (done, result) = mpsc::channel();
        let job: LaneJob<'env> = Box::new(move || {
            let _ = done.send(catch_unwind(AssertUnwindSafe(f)));
        });
        self.0
            .send(job)
            .expect("the work lane outlives every owner");
        match result.recv().expect("the work lane answers every job") {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// The reactor's handle on one market's owner thread.
struct Owner {
    mailbox: Sender<Message>,
    shared: Arc<SessionShared>,
}

/// The reactor: the connection list and the session table. Market ids
/// come off a monotonic counter starting at 1 (never reused within a
/// server lifetime), so the first `load` of a fresh server is always
/// `"m1"` — static scripts can rely on it.
struct Reactor<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    server: &'env ServerShared,
    loader: &'env MarketLoader<'env>,
    lane: WorkLane<'env>,
    max_markets: usize,
    next_id: u64,
    markets: BTreeMap<u64, Owner>,
    /// Unloaded sessions whose owner has not finished dropping them;
    /// they still hold a table slot.
    retiring: Vec<Arc<SessionShared>>,
    summary: ServeSummary,
}

enum Flow {
    Continue,
    Quit,
}

impl MarketServer {
    /// Binds the listener (non-blocking) and sizes the worker pool the
    /// handlers fan out over. Use port `0` to let the OS pick one; read
    /// it back via [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: &str, threads: usize) -> io::Result<MarketServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(MarketServer {
            listener,
            pool: ThreadPool::new(threads),
            engine: Engine::Full,
            max_markets: DEFAULT_MAX_MARKETS,
            slow_log: LOG_THRESHOLD,
        })
    }

    /// Selects the discovery engine every resident market steps with
    /// (default [`Engine::Full`]). The engine is an execution detail —
    /// replies are byte-identical either way — so it is a server-level
    /// choice, applied to every `load` and `restore`.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Caps the session table (default [`DEFAULT_MAX_MARKETS`]); `load`
    /// beyond the cap answers [`ErrorCode::MarketLimit`]. A cap of 0 is
    /// treated as 1 — a server that can host nothing serves no purpose.
    #[must_use]
    pub fn with_max_markets(mut self, max_markets: usize) -> Self {
        self.max_markets = max_markets.max(1);
        self
    }

    /// Only stderr-log requests at least this slow (default
    /// `LOG_THRESHOLD`, 1 ms); the `serve` binary exposes it as
    /// `--slow-ms`. Raising it silences the log on machines where even
    /// cached replies cross the default; `Duration::ZERO` logs every
    /// request.
    #[must_use]
    pub fn with_slow_log(mut self, threshold: Duration) -> Self {
        self.slow_log = threshold;
        self
    }

    /// The bound address (the actual port when bound with port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the server until a client sends `quit`. The reactor and each
    /// loaded market's owner get threads scoped to this call, and the
    /// calling thread runs the work lane; see the [crate docs](crate).
    /// Returns once every owner has finished its queued requests.
    ///
    /// # Errors
    ///
    /// Propagates accept errors other than the non-blocking
    /// `WouldBlock`. Per-client read/write failures only close that
    /// client.
    pub fn serve(&self, loader: &MarketLoader<'_>) -> io::Result<ServeSummary> {
        // Telemetry is always on in a resident server: metrics reach
        // clients only through the `metrics` verb and stderr, never a
        // deterministic reply, so there is nothing to gate.
        pan_telemetry::enable();
        let server = ServerShared {
            pool: self.pool.clone(),
            engine: self.engine,
            slow_log: self.slow_log,
            started: Instant::now(),
            errors: std::array::from_fn(|_| AtomicU64::new(0)),
        };
        std::thread::scope(|scope| {
            let (lane, jobs) = mpsc::channel::<LaneJob<'_>>();
            let mut reactor = Reactor {
                scope,
                server: &server,
                loader,
                lane: WorkLane(lane),
                max_markets: self.max_markets,
                next_id: 1,
                markets: BTreeMap::new(),
                retiring: Vec::new(),
                summary: ServeSummary::default(),
            };
            let listener = &self.listener;
            let reactor = std::thread::Builder::new()
                .name("market-reactor".to_owned())
                .spawn_scoped(scope, move || reactor.run(listener))?;
            // This thread is the work lane until the reactor and every
            // owner have let go of it: returning from `run` drops the
            // reactor and every mailbox, and each owner finishes its
            // queued requests, drops its market, and exits.
            jobs.into_iter().for_each(|job| job());
            reactor
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }
}

impl<'scope, 'env> Reactor<'scope, 'env> {
    fn run(&mut self, listener: &TcpListener) -> io::Result<ServeSummary> {
        let reactor = std::thread::current();
        let mut clients: Vec<Client> = Vec::new();
        let mut idle_iters = 0u32;
        let mut quit = false;
        // Reactor accounting: how the reactor splits its time between
        // handling work (busy), polite spinning, and parking.
        let idle_spins = pan_telemetry::counter("serve.reactor.idle_spins");
        let idle_sleeps = pan_telemetry::counter("serve.reactor.idle_sleeps");
        let busy_ns = pan_telemetry::histogram("serve.reactor.busy_ns");
        while !quit {
            self.prune();
            let iteration = busy_ns.is_live().then(Instant::now);
            let mut progressed = false;
            loop {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        progressed = true;
                        if let Err(e) = stream
                            .set_nonblocking(true)
                            .and_then(|()| stream.set_nodelay(true))
                        {
                            eprintln!("# dropping client {peer}: {e}");
                            continue;
                        }
                        eprintln!("# client connected: {peer}");
                        clients.push(Client {
                            conn: Arc::new(Connection {
                                stream,
                                busy: AtomicBool::new(false),
                                dead: AtomicBool::new(false),
                                reactor: reactor.clone(),
                            }),
                            buffer: Vec::new(),
                            eof: false,
                        });
                        self.summary.connections += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            for client in &mut clients {
                if client.conn.is_busy() {
                    continue;
                }
                progressed |= client.fill();
                while !client.conn.is_busy() {
                    let Some(line) = client.next_line() else {
                        break;
                    };
                    if line.trim().is_empty() {
                        continue;
                    }
                    progressed = true;
                    self.summary.requests += 1;
                    if let Flow::Quit = self.route(line, &client.conn) {
                        quit = true;
                        break;
                    }
                }
                if quit {
                    break;
                }
            }
            clients.retain(|c| !c.is_done());
            if progressed {
                idle_iters = 0;
                if let Some(begun) = iteration {
                    busy_ns.record_duration(begun.elapsed());
                }
            } else if !quit {
                idle_iters = idle_iters.saturating_add(1);
                if idle_iters < IDLE_SPIN_ITERS {
                    idle_spins.inc();
                    std::thread::yield_now();
                } else {
                    idle_sleeps.inc();
                    std::thread::park_timeout(Duration::from_millis(1));
                }
            }
        }
        eprintln!(
            "# quit: served {} requests over {} connections",
            self.summary.requests, self.summary.connections
        );
        Ok(self.summary)
    }

    /// Parses one request line and answers it or routes it to a
    /// market's owner.
    fn route(&mut self, line: String, conn: &Arc<Connection>) -> Flow {
        let Envelope { id, request } = match Request::parse(&line) {
            Ok(envelope) => envelope,
            Err(error) => {
                self.server.count_error(&error);
                conn.send_line(&reply_error(None, &error));
                return Flow::Continue;
            }
        };
        let reply = Reply::new(conn, id, request.verb(), line);
        let (market, job) = match request {
            Request::Advise { market, asn, top } => {
                (market, Job::Query(Query::Advise { asn, top }))
            }
            Request::Step {
                market,
                rounds,
                shock,
            } => (market, Job::Work(Work::Step { rounds, shock })),
            Request::Snapshot { market, path } => (market, Job::Work(Work::Snapshot { path })),
            Request::Restore { market, path } => (market, Job::Work(Work::Restore { path })),
            Request::Stats {
                market: Some(market),
            } => (market, Job::Query(Query::Stats)),
            Request::Unload { market } => (market, Job::Unload),
            Request::Load { market, checkpoint } => {
                let source = match checkpoint {
                    Some(path) => Source::Checkpoint(path),
                    None => Source::Spec(market.unwrap_or_else(|| Value::Map(Vec::new()))),
                };
                self.load(source, reply);
                return Flow::Continue;
            }
            Request::Quit => {
                let started = reply.begin();
                reply.to.ok("quit", Vec::new());
                reply.finish(self.server, started, Ok(()));
                return Flow::Quit;
            }
            Request::List | Request::Stats { market: None } | Request::Metrics => {
                let started = reply.begin();
                match request {
                    Request::List => self.list(&reply.to),
                    Request::Metrics => self.metrics(&reply.to),
                    _ => self.stats(&reply.to),
                }
                reply.finish(self.server, started, Ok(()));
                return Flow::Continue;
            }
        };
        let Some(owner) = self.markets.get(&market.0) else {
            let started = reply.begin();
            reply.finish(self.server, started, Err(unknown_market(market)));
            return Flow::Continue;
        };
        let unload = matches!(job, Job::Unload);
        // The owner's receiver lives until the reactor drops this
        // sender, so the send cannot fail.
        let _ = owner.mailbox.send(Message { job, reply });
        if unload {
            // Unknown from now on; the slot frees when the owner has
            // dropped the market.
            let owner = self.markets.remove(&market.0).expect("looked up above");
            self.retiring.push(owner.shared);
        }
        Flow::Continue
    }

    /// Forgets sessions whose owner has finished with them: unloaded
    /// ones that have been dropped, and failed builds (whose owners
    /// exit once their mailbox closes here). A failed build's id goes
    /// back to the counter when no later load took one, so the ids of
    /// markets stay dense for sequential scripts.
    fn prune(&mut self) {
        self.retiring.retain(|shared| !shared.is_gone());
        let failed: Vec<u64> = self
            .markets
            .iter()
            .filter(|(_, owner)| owner.shared.is_gone())
            .map(|(&id, _)| id)
            .collect();
        for id in failed.into_iter().rev() {
            self.markets.remove(&id);
            if id + 1 == self.next_id {
                self.next_id = id;
            }
        }
    }

    /// `load`: reserves the id and a slot, starts the market's owner
    /// thread, and mails it the build.
    fn load(&mut self, source: Source, reply: Reply) {
        self.prune();
        let refused = if self.markets.len() + self.retiring.len() >= self.max_markets {
            format!(
                "session table is full ({} markets); unload one or raise --max-markets",
                self.max_markets
            )
        } else {
            let id = MarketId(self.next_id);
            let shared = Arc::new(SessionShared::default());
            let (mailbox, inbox) = mpsc::channel();
            let (server, loader, lane) = (self.server, self.loader, self.lane.clone());
            let owned = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("market-{id}"))
                .spawn_scoped(self.scope, move || {
                    own_market(server, loader, &lane, id, &inbox, &owned);
                });
            match spawned {
                Ok(_) => {
                    let _ = mailbox.send(Message {
                        job: Job::Load(source),
                        reply,
                    });
                    self.next_id += 1;
                    self.markets.insert(id.0, Owner { mailbox, shared });
                    return;
                }
                Err(e) => format!("cannot start an owner thread: {e}"),
            }
        };
        let started = reply.begin();
        let error = WireError::new(ErrorCode::MarketLimit, refused);
        reply.finish(self.server, started, Err(error));
    }

    fn list(&self, to: &Replier) {
        let markets: Vec<Value> = self
            .ready()
            .map(|(id, _, summary)| object(summary.fields(id)))
            .collect();
        to.ok(
            "list",
            vec![
                ("count", to_value(&markets.len())),
                ("max_markets", to_value(&self.max_markets)),
                ("markets", Value::Seq(markets)),
            ],
        );
    }

    /// Resident markets in id order, skipping any still being built.
    fn ready(&self) -> impl Iterator<Item = (MarketId, &SessionShared, Summary)> {
        self.markets.iter().filter_map(|(&id, owner)| {
            let summary = owner.shared.summary()?;
            Some((MarketId(id), owner.shared.as_ref(), summary))
        })
    }

    /// Process-level `stats`: totals plus the session table.
    fn stats(&self, to: &Replier) {
        let markets: Vec<Value> = self
            .ready()
            .map(|(id, shared, summary)| {
                object(vec![
                    ("market", id.to_value()),
                    ("label", Value::Str(summary.label)),
                    ("rounds_done", to_value(&summary.rounds_done)),
                    ("advises", to_value(&SessionShared::count(&shared.advises))),
                ])
            })
            .collect();
        let errors: Vec<(&'static str, Value)> = ErrorCode::ALL
            .iter()
            .map(|&code| {
                let count = self.server.errors[code.index()].load(Ordering::Relaxed);
                (code.as_str(), to_value(&count))
            })
            .collect();
        to.ok(
            "stats",
            vec![
                ("connections", to_value(&self.summary.connections)),
                ("requests", to_value(&self.summary.requests)),
                (
                    "uptime_seconds",
                    Value::F64(self.server.started.elapsed().as_secs_f64()),
                ),
                ("errors", object(errors)),
                ("threads", to_value(&self.server.pool.threads())),
                ("engine", Value::Str(self.server.engine.to_string())),
                ("max_markets", to_value(&self.max_markets)),
                ("count", to_value(&markets.len())),
                ("markets", Value::Seq(markets)),
            ],
        );
    }

    /// `metrics`: the live telemetry registry — every counter, gauge,
    /// and histogram the engine layers recorded since startup — plus
    /// per-market advise-cache effectiveness. Values are observations,
    /// not market state, so the reply is the one verb whose payload is
    /// *not* deterministic; determinism gates must never diff it.
    fn metrics(&self, to: &Replier) {
        let snapshot = pan_telemetry::global().snapshot();
        let counters: Vec<(String, Value)> = snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), to_value(value)))
            .collect();
        let gauges: Vec<(String, Value)> = snapshot
            .gauges
            .iter()
            .map(|(name, value)| (name.clone(), to_value(value)))
            .collect();
        let histograms: Vec<(String, Value)> = snapshot
            .histograms
            .iter()
            .map(|(name, histogram)| (name.clone(), histogram_fields(histogram)))
            .collect();
        let markets: Vec<Value> = self
            .ready()
            .map(|(id, shared, summary)| {
                let hits = SessionShared::count(&shared.cache_hits);
                let misses = SessionShared::count(&shared.cache_misses);
                let lookups = hits + misses;
                let hit_rate = if lookups == 0 {
                    0.0
                } else {
                    hits as f64 / lookups as f64
                };
                object(vec![
                    ("market", id.to_value()),
                    ("label", Value::Str(summary.label)),
                    ("advises", to_value(&SessionShared::count(&shared.advises))),
                    ("cache_hits", to_value(&hits)),
                    ("cache_misses", to_value(&misses)),
                    (
                        "cache_entries",
                        to_value(&SessionShared::count(&shared.cache_entries)),
                    ),
                    ("hit_rate", Value::F64(hit_rate)),
                ])
            })
            .collect();
        to.ok(
            "metrics",
            vec![
                (
                    "uptime_seconds",
                    Value::F64(self.server.started.elapsed().as_secs_f64()),
                ),
                ("enabled", Value::Bool(pan_telemetry::is_enabled())),
                ("counters", Value::Map(counters)),
                ("gauges", Value::Map(gauges)),
                ("histograms", Value::Map(histograms)),
                ("markets", Value::Seq(markets)),
            ],
        );
    }
}

/// One histogram's wire shape: totals plus nearest-rank percentiles.
fn histogram_fields(snapshot: &pan_telemetry::HistogramSnapshot) -> Value {
    object(vec![
        ("count", to_value(&snapshot.count)),
        ("sum", to_value(&snapshot.sum)),
        ("mean", Value::F64(snapshot.mean())),
        ("p50", to_value(&snapshot.p50())),
        ("p90", to_value(&snapshot.p90())),
        ("p99", to_value(&snapshot.p99())),
    ])
}

/// The body of a market's owner thread: serves the mailbox — first the
/// `load`, then the market's requests, until `unload` or until the
/// reactor closes the mailbox. Heavy jobs go to the work lane, and the
/// session travels there and back by value. After a failed build or an
/// `unload`, requests already queued answer `unknown_market`; after a
/// panic, the market is dropped and its requests answer
/// `evaluation_failed` until `unload`.
fn own_market<'env>(
    server: &'env ServerShared,
    loader: &'env MarketLoader<'env>,
    lane: &WorkLane<'env>,
    id: MarketId,
    inbox: &Receiver<Message>,
    shared: &Arc<SessionShared>,
) {
    let mut session: Option<MarketSession> = None;
    let mut poisoned = false;
    for Message { job, reply } in inbox {
        let started = reply.begin();
        let result = match job {
            Job::Load(source) => {
                let owned = Arc::clone(shared);
                let (built, _) =
                    guarded(|| lane.run(move || build(server, loader, id, source, owned)));
                match built {
                    Ok(built) => {
                        built.publish();
                        reply.to.ok("load", built.summary().fields(id));
                        session = Some(built);
                        Ok(())
                    }
                    Err(error) => {
                        // Free the slot before the reply goes out, so
                        // the client's next `load` finds it free.
                        shared.retire();
                        Err(error)
                    }
                }
            }
            Job::Unload if session.is_some() || poisoned => {
                let fields = shared.summary().map(|s| s.fields(id)).unwrap_or_default();
                session = None;
                poisoned = false;
                shared.retire();
                reply.to.ok("unload", fields);
                Ok(())
            }
            _ if poisoned => Err(WireError::new(
                ErrorCode::EvaluationFailed,
                format!(
                    "market {id} is poisoned: a panic in an earlier request dropped it; unload it"
                ),
            )),
            Job::Unload => Err(unknown_market(id)),
            Job::Query(query) => match session.as_mut() {
                None => Err(unknown_market(id)),
                Some(market) => {
                    let (result, panicked) = guarded(|| answer(server, market, query, &reply.to));
                    poisoned = panicked;
                    result
                }
            },
            Job::Work(work) => match session.take() {
                None => Err(unknown_market(id)),
                Some(market) => {
                    let to = reply.to.clone();
                    let (outcome, panicked) =
                        guarded(|| Ok(lane.run(move || work_on(server, market, work, &to))));
                    poisoned = panicked;
                    outcome.and_then(|(market, result)| {
                        session = Some(market);
                        result
                    })
                }
            },
        };
        if poisoned {
            // A panic may have left the market half-updated.
            session = None;
        }
        reply.finish(server, started, result);
    }
}

/// Builds a market session from a loader spec or a checkpoint.
fn build(
    server: &ServerShared,
    loader: &MarketLoader<'_>,
    id: MarketId,
    source: Source,
    shared: Arc<SessionShared>,
) -> Result<MarketSession, WireError> {
    let (state, driver, seed, label) = match source {
        Source::Checkpoint(path) => {
            let (state, driver, seed) = read_checkpoint(&path)?;
            (state, driver, seed, format!("checkpoint:{path}"))
        }
        Source::Spec(spec) => {
            let loaded = loader(&spec)
                .map_err(|message| WireError::new(ErrorCode::InvalidConfig, message))?;
            let driver = EvolutionDriver::new(loaded.config).map_err(|e| {
                WireError::new(
                    ErrorCode::InvalidConfig,
                    format!("invalid market config: {e}"),
                )
            })?;
            (loaded.state, driver, loaded.seed, loaded.label)
        }
    };
    Ok(MarketSession {
        id,
        state,
        driver: driver.with_engine(server.engine),
        seed,
        label,
        cache: HashMap::new(),
        rounds_stepped: 0,
        shared,
    })
}

/// Answers one query on the market's owner thread.
fn answer(
    server: &ServerShared,
    session: &mut MarketSession,
    query: Query,
    to: &Replier,
) -> Result<(), WireError> {
    match query {
        Query::Advise { asn, top } => handle_advise(server, session, asn, top, to),
        Query::Stats => {
            handle_stats(server, session, to);
            Ok(())
        }
        #[cfg(test)]
        Query::Panic => panic!("injected by a test"),
    }
}

/// Runs one heavy job on the work lane and hands the session back.
fn work_on(
    server: &ServerShared,
    mut session: MarketSession,
    work: Work,
    to: &Replier,
) -> (MarketSession, Result<(), WireError>) {
    let result = match work {
        Work::Step { rounds, shock } => handle_step(server, &mut session, rounds, shock, to),
        Work::Snapshot { path } => handle_snapshot(&session, &path, to),
        Work::Restore { path } => handle_restore(server, &mut session, &path, to),
    };
    (session, result)
}

/// Reads and restores a checkpoint file; every failure mode — missing
/// file, bad JSON, validation — is [`ErrorCode::CorruptCheckpoint`].
fn read_checkpoint(path: &str) -> Result<(MarketState, EvolutionDriver, u64), WireError> {
    let corrupt = |detail: String| WireError::new(ErrorCode::CorruptCheckpoint, detail);
    let text = std::fs::read_to_string(path)
        .map_err(|e| corrupt(format!("cannot read checkpoint {path:?}: {e}")))?;
    let snapshot = MarketSnapshot::from_json(&text)
        .map_err(|e| corrupt(format!("checkpoint {path:?}: {e}")))?;
    let seed = snapshot.seed;
    let (state, driver) = snapshot
        .restore()
        .map_err(|e| corrupt(format!("checkpoint {path:?}: {e}")))?;
    Ok((state, driver, seed))
}

fn handle_advise(
    server: &ServerShared,
    session: &mut MarketSession,
    asn: u32,
    top: usize,
    to: &Replier,
) -> Result<(), WireError> {
    let counters = &session.shared;
    let generation = session.state.generation();
    counters.advises.fetch_add(1, Ordering::Relaxed);
    let cached = matches!(session.cache.get(&asn), Some(entry) if entry.generation == generation);
    if cached {
        counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        pan_telemetry::counter("serve.advise.cache_hits").inc();
    } else {
        pan_telemetry::counter("serve.advise.cache_misses").inc();
        // Evaluate the full ranking once (top = 0) so this entry serves
        // every future `top`; aggregates are truncation-independent, so
        // slicing below reproduces the direct reply byte for byte.
        let report = advise(
            &session.state,
            &session.driver.config().discovery,
            pan_topology::Asn::new(asn),
            0,
            &server.pool,
        )
        .map_err(|e| WireError::new(ErrorCode::EvaluationFailed, format!("advise failed: {e}")))?;
        counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        session
            .cache
            .insert(asn, CachedAdvice { generation, report });
        counters
            .cache_entries
            .store(session.cache.len() as u64, Ordering::Relaxed);
    }
    let entry = &session.cache[&asn];
    let outcomes: Vec<PairOutcome> = match top {
        0 => entry.report.outcomes.clone(),
        t => entry.report.outcomes.iter().take(t).cloned().collect(),
    };
    to.ok(
        "advise",
        vec![
            ("market", session.id.to_value()),
            ("asn", to_value(&asn)),
            ("cached", Value::Bool(cached)),
            ("generation", to_value(&generation)),
            ("candidates", to_value(&entry.report.candidates)),
            ("concluded_cash", to_value(&entry.report.concluded_cash)),
            ("total_surplus", to_value(&entry.report.total_surplus)),
            ("outcomes", to_value(&outcomes)),
        ],
    );
    Ok(())
}

fn handle_step(
    server: &ServerShared,
    session: &mut MarketSession,
    rounds: usize,
    shock: Option<f64>,
    to: &Replier,
) -> Result<(), WireError> {
    let market = session.id;
    if let Some(shock) = shock {
        // Re-validate through the driver constructor so an out-of-range
        // override cannot poison the resident config.
        let config = EvolutionConfig {
            shock,
            ..*session.driver.config()
        };
        let engine = session.driver.engine();
        let driver =
            EvolutionDriver::resume(config, session.driver.rounds_done()).map_err(|e| {
                WireError::new(
                    ErrorCode::InvalidConfig,
                    format!("invalid shock override: {e}"),
                )
            })?;
        session.driver = driver.with_engine(engine);
    }
    let sweep = ScenarioSweep::new(server.pool.clone(), session.seed);
    let mut stepped = 0usize;
    let mut adopted = 0usize;
    let mut adopted_surplus = 0.0;
    let mut fixed_point = false;
    for _ in 0..rounds {
        let outcome = session
            .driver
            .step(&mut session.state, &sweep)
            .map_err(|e| {
                WireError::new(ErrorCode::EvaluationFailed, format!("step failed: {e}"))
            })?;
        stepped += 1;
        session.rounds_stepped += 1;
        session.publish();
        adopted += outcome.record.adopted;
        adopted_surplus += outcome.record.adopted_surplus;
        fixed_point = outcome.fixed_point;
        to.ok(
            "round",
            vec![
                ("market", market.to_value()),
                ("record", to_value(&outcome.record)),
                ("agreements", to_value(&outcome.agreements)),
            ],
        );
        if fixed_point {
            break;
        }
    }
    to.ok(
        "step",
        vec![
            ("market", market.to_value()),
            ("rounds", to_value(&stepped)),
            ("adopted", to_value(&adopted)),
            ("adopted_surplus", to_value(&adopted_surplus)),
            ("fixed_point", Value::Bool(fixed_point)),
            ("rounds_done", to_value(&session.driver.rounds_done())),
        ],
    );
    Ok(())
}

fn handle_snapshot(session: &MarketSession, path: &str, to: &Replier) -> Result<(), WireError> {
    let json = MarketSnapshot::capture(&session.state, &session.driver, session.seed).to_json();
    std::fs::write(path, &json)
        .map_err(|e| WireError::new(ErrorCode::IoError, format!("cannot write {path:?}: {e}")))?;
    to.ok(
        "snapshot",
        vec![
            ("market", session.id.to_value()),
            ("path", Value::Str(path.to_owned())),
            ("bytes", to_value(&json.len())),
            ("rounds_done", to_value(&session.driver.rounds_done())),
        ],
    );
    Ok(())
}

fn handle_restore(
    server: &ServerShared,
    session: &mut MarketSession,
    path: &str,
    to: &Replier,
) -> Result<(), WireError> {
    let (state, driver, seed) = read_checkpoint(path)?;
    session.state = state;
    session.driver = driver.with_engine(server.engine);
    session.seed = seed;
    session.label = format!("checkpoint:{path}");
    // The restored state is a fresh instance whose generation counter
    // restarts, so generation keys from the old instance are
    // meaningless — drop the cache wholesale.
    session.cache.clear();
    session.shared.cache_entries.store(0, Ordering::Relaxed);
    session.publish();
    to.ok("restore", session.summary().fields(session.id));
    Ok(())
}

fn handle_stats(server: &ServerShared, session: &MarketSession, to: &Replier) {
    let graph = session.state.graph();
    let total_flow: f64 = session.state.flows().totals().iter().sum();
    let n = graph.node_count() as u32;
    let mut cash_min = 0.0f64;
    let mut cash_max = 0.0f64;
    for i in 0..n {
        let balance = session.state.cash_balance(i);
        cash_min = cash_min.min(balance);
        cash_max = cash_max.max(balance);
    }
    let counters = &session.shared;
    to.ok(
        "stats",
        vec![
            ("market", session.id.to_value()),
            ("label", Value::Str(session.label.clone())),
            ("ases", to_value(&graph.node_count())),
            ("links", to_value(&graph.link_count())),
            ("peering_links", to_value(&graph.peering_link_count())),
            ("transit_links", to_value(&graph.transit_link_count())),
            ("adopted", to_value(&session.state.adopted_count())),
            ("rounds_done", to_value(&session.driver.rounds_done())),
            ("rounds_stepped", to_value(&session.rounds_stepped)),
            (
                "advises",
                to_value(&SessionShared::count(&counters.advises)),
            ),
            (
                "cache_hits",
                to_value(&SessionShared::count(&counters.cache_hits)),
            ),
            (
                "cache_misses",
                to_value(&SessionShared::count(&counters.cache_misses)),
            ),
            ("cache_entries", to_value(&session.cache.len())),
            ("generation", to_value(&session.state.generation())),
            ("resident_bytes", to_value(&session.resident_bytes())),
            ("total_flow", to_value(&total_flow)),
            ("cash_min", to_value(&cash_min)),
            ("cash_max", to_value(&cash_max)),
            ("seed", to_value(&session.seed)),
            ("threads", to_value(&server.pool.threads())),
            ("engine", Value::Str(session.driver.engine().to_string())),
        ],
    );
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader};

    use pan_core::{CandidatePolicy, DiscoveryConfig};
    use pan_econ::{CostFunction, DenseEconomics, FlowMatrix, PricingFunction};
    use pan_topology::{AsGraphBuilder, Asn, Relationship};

    use super::*;

    /// A three-AS market: provider 1 with customers 2 and 3.
    fn fixture() -> (MarketState, EvolutionConfig) {
        let mut b = AsGraphBuilder::new();
        b.add_link(Asn::new(1), Asn::new(2), Relationship::ProviderToCustomer)
            .unwrap();
        b.add_link(Asn::new(1), Asn::new(3), Relationship::ProviderToCustomer)
            .unwrap();
        let graph = b.build().unwrap();
        let econ = DenseEconomics::build(
            &graph,
            |_, _| PricingFunction::per_usage(2.0).unwrap(),
            |_| PricingFunction::per_usage(1.0).unwrap(),
            |_| CostFunction::linear(0.001).unwrap(),
        );
        let flows = FlowMatrix::zeros(&graph);
        let state = MarketState::new(graph, econ, flows).unwrap();
        let config = EvolutionConfig {
            discovery: DiscoveryConfig {
                policy: CandidatePolicy::PeeringAdjacent,
                reroute_share: 1.0,
                attract_share: 0.0,
                grid: 3,
                noise: 0.0,
                top: 0,
            },
            rounds: 1,
            adopt_top: 1,
            min_surplus: 1e-6,
            shock: 0.0,
        };
        (state, config)
    }

    /// Satellite regression: the `stats` resident-bytes figure is the
    /// state's and driver's own capacity-based accounting plus the
    /// advise cache — not the old shape-derived `n²` flow estimate,
    /// which overstated a packed flow matrix quadratically.
    #[test]
    fn session_resident_bytes_tracks_state_driver_and_cache() {
        let (state, config) = fixture();
        let mut session = MarketSession {
            id: MarketId(1),
            state,
            driver: EvolutionDriver::resume(config, 0).unwrap(),
            seed: 7,
            label: "fixture".into(),
            cache: HashMap::new(),
            rounds_stepped: 0,
            shared: Arc::default(),
        };

        let base = session.resident_bytes();
        assert_eq!(
            base,
            session.state.resident_bytes() + session.driver.resident_bytes(),
            "an empty advise cache must contribute nothing"
        );
        // The n²-estimate bug this replaces was only visible at scale;
        // the capacity-based figure is exact at any size, so a cached
        // advise report must grow the total by its accounted footprint.
        session.cache.insert(
            0,
            CachedAdvice {
                generation: session.state.generation(),
                report: DiscoveryReport {
                    candidates: 0,
                    concluded_flow_volume: 0,
                    concluded_cash: 0,
                    total_surplus: 0.0,
                    outcomes: Vec::new(),
                },
            },
        );
        assert_eq!(base + size_of::<CachedAdvice>(), session.resident_bytes());
    }

    /// A panic inside an owner's handler answers `evaluation_failed`,
    /// poisons that session for later queries, and leaves the owner
    /// serving: `unload` still drops the market and frees its slot.
    #[test]
    fn a_handler_panic_poisons_only_its_session() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let conn = Arc::new(Connection {
            stream,
            busy: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            reactor: std::thread::current(),
        });
        let server = ServerShared {
            pool: ThreadPool::new(1),
            engine: Engine::Full,
            slow_log: Duration::from_secs(3600),
            started: Instant::now(),
            errors: std::array::from_fn(|_| AtomicU64::new(0)),
        };
        let loader = |_: &Value| {
            let (state, config) = fixture();
            Ok(LoadedMarket {
                state,
                config,
                seed: 7,
                label: "fixture".into(),
            })
        };
        let shared = Arc::new(SessionShared::default());
        let mut replies = BufReader::new(client);
        let mut ask = |mailbox: &Sender<Message>, verb: &'static str, job: Job| {
            let reply = Reply::new(&conn, None, verb, verb.to_owned());
            mailbox.send(Message { job, reply }).unwrap();
            let mut line = String::new();
            replies.read_line(&mut line).unwrap();
            line
        };
        std::thread::scope(|scope| {
            let (lane, jobs) = mpsc::channel::<LaneJob<'_>>();
            scope.spawn(move || jobs.into_iter().for_each(|job| job()));
            let lane = WorkLane(lane);
            let (mailbox, inbox) = mpsc::channel();
            let owned = Arc::clone(&shared);
            let loader: &MarketLoader<'_> = &loader;
            let server = &server;
            scope.spawn(move || own_market(server, loader, &lane, MarketId(1), &inbox, &owned));

            let spec = Source::Spec(Value::Map(Vec::new()));
            assert!(ask(&mailbox, "load", Job::Load(spec)).contains(r#""ok":true"#));
            let panicked = ask(&mailbox, "advise", Job::Query(Query::Panic));
            assert!(panicked.contains("evaluation_failed"), "{panicked}");
            assert!(panicked.contains("handler panicked"), "{panicked}");
            let poisoned = ask(&mailbox, "stats", Job::Query(Query::Stats));
            assert!(poisoned.contains("evaluation_failed"), "{poisoned}");
            assert!(poisoned.contains("poisoned"), "{poisoned}");
            let unloaded = ask(&mailbox, "unload", Job::Unload);
            assert!(unloaded.contains(r#""ok":true"#), "{unloaded}");
            assert!(unloaded.contains(r#""market":"m1""#), "{unloaded}");
            assert!(shared.is_gone(), "unload frees the slot");
        });
        let errors = &server.errors[ErrorCode::EvaluationFailed.index()];
        assert_eq!(errors.load(Ordering::Relaxed), 2);
        assert!(!conn.is_busy(), "every reply released the connection");
    }
}
