//! `serve-mixed`: an in-process `MarketServer` with two synthetic
//! 10k-AS markets (A and B), driven over the v2 protocol by a
//! single-threaded load generator on two connections.
//!
//! Set-up (repeated; `setup_s` is the median) binds a server, loads A
//! and B, steps A once cold and once more (so later steps on A are
//! warm), and then asks B for advice on every hot-set AS, which fills
//! B's advise cache.
//!
//! The timed window alternates admin blocks on a third market, C, with
//! traffic slices. Each admin block reloads C, asks for advice on C's
//! hot set (first-time answers), and steps C cold and shocked, so the
//! load, sweep and round metrics are medians of like samples spread
//! over the whole run. In each traffic slice connection 1 steps A every
//! [`STEP_PERIOD_S`] and waits for each reply (closed loop); connection
//! 2 sends open-loop advises at [`RATE`] per second to B, all hot-set
//! cache hits. B is never stepped, so advise latency beyond service
//! time is waiting behind A's `step` on the single reactor.
//!
//! Every advise is timed from its due time, not its send time.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pan_core::dynamics::{advise, MarketState};
use pan_core::DiscoveryReport;
use pan_runtime::ThreadPool;
use pan_serve::MarketServer;
use pan_telemetry::{HistogramSnapshot, RegistrySnapshot};
use pan_topology::Asn;
use serde::Value;

use crate::batch::{market_spec, ranked_by_degree};
use crate::layers::{self, Totals};
use crate::mix::RequestMix;
use crate::stats::{median, nearest_rank, supported_percentile, within_limit_frac};
use crate::{trace, Options, Outcome};

/// Advises per second to B in the traffic slices, on connection 2.
pub const RATE: f64 = 200.0;
/// Seconds between the scheduled `step`s on A in a traffic slice.
pub const STEP_PERIOD_S: f64 = 1.0;
/// Hot-set ASes (the same for every market): cached on B during
/// set-up, asked of each fresh C in the admin blocks.
pub const HOT_SET: usize = 100;
/// Highest-degree ASes that are always in the hot set.
pub const CENSUS: usize = 10;
/// Latency limit of `advise_slo_frac`, from each advise's due time.
pub const ADVISE_LIMIT_MS: f64 = 20.0;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Share of `--seconds` the traffic slices take together; the admin
/// blocks on C before them take about the rest.
pub const TRAFFIC_SHARE: f64 = 0.5;
/// Seconds of one traffic slice (about: the slices split the traffic
/// time evenly); each follows one admin block.
pub const SLICE_S: f64 = 3.0;
/// Fewest traffic slices, and so admin blocks, per run.
pub const MIN_SLICES: usize = 3;
/// Shock magnitude of the shocked steps on C.
pub const SHOCK: f64 = 0.1;
/// Outcomes per advise reply.
pub const TOP: usize = 5;
/// Every this-many-th first-time advise reply on C is checked against a
/// direct `dynamics::advise` on an identically loaded market.
pub const CHECK_EVERY: usize = 10;
/// A generator whose p99 send lateness exceeds this fell behind.
pub const LATE_LIMIT_MS: f64 = 1.0;
/// How long replies may trail the end of a traffic slice before the
/// outstanding requests count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// Limit on the wait for any blocking call's reply.
const CALL_LIMIT: Duration = Duration::from_secs(600);

/// A non-blocking client connection: whole reply lines, each stamped
/// with the time it was read.
struct Conn {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CALL_LIMIT))?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buffer: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let bytes = format!("{line}\n").into_bytes();
        let mut written = 0;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Appends every complete line available now to `lines`.
    fn poll(&mut self, lines: &mut Vec<(Value, Instant)>) -> io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        let mut progressed = false;
        let mut closed = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    self.buffer.extend_from_slice(&chunk[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if progressed {
            self.drain_lines(lines)?;
        }
        if closed && lines.is_empty() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(progressed)
    }

    /// Moves every complete buffered line into `lines`, stamped now.
    fn drain_lines(&mut self, lines: &mut Vec<(Value, Instant)>) -> io::Result<()> {
        let now = Instant::now();
        while let Some(end) = self.buffer.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buffer.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line);
            let value = serde_json::from_str(text.trim_end())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            lines.push((value, now));
        }
        Ok(())
    }

    /// Sends one request and waits for its terminal reply; returns every
    /// line (a `step`'s `round` lines, then its summary). Waits in a
    /// blocking read, so the waiting client takes no CPU from the
    /// server.
    fn call(&mut self, line: &str) -> Result<Vec<Value>, String> {
        let fail = |e: io::Error| format!("{line}: {e}");
        self.send(line).map_err(fail)?;
        self.stream.set_nonblocking(false).map_err(fail)?;
        let mut replies = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        let result = 'wait: loop {
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => break Err(fail(io::ErrorKind::UnexpectedEof.into())),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(fail(e)),
            };
            self.buffer.extend_from_slice(&chunk[..n]);
            let mut lines = Vec::new();
            if let Err(e) = self.drain_lines(&mut lines) {
                break Err(fail(e));
            }
            for (value, _) in lines {
                let terminal = !is_round(&value);
                replies.push(value);
                if terminal {
                    break 'wait Ok(replies);
                }
            }
        };
        self.stream.set_nonblocking(true).map_err(fail)?;
        result
    }
}

fn is_round(value: &Value) -> bool {
    matches!(value.field("verb"), Ok(Value::Str(v)) if v == "round")
}

fn is_ok(value: &Value) -> bool {
    matches!(value.field("ok"), Ok(Value::Bool(true)))
}

fn number(value: &Value, key: &str) -> Option<f64> {
    #[allow(clippy::cast_precision_loss)]
    match value.field(key).ok()? {
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

fn text(value: &Value, key: &str) -> Option<String> {
    match value.field(key).ok()? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// Steps `market` one round and returns the server-side round seconds;
/// checks that its round numbers advance by one from `rounds_done`.
fn step(
    conn: &mut Conn,
    outcome: &mut Outcome,
    market: &str,
    shock: Option<f64>,
    rounds_done: &mut u64,
) -> Result<f64, String> {
    let shock = shock.map_or(String::new(), |s| format!(",\"shock\":{s:?}"));
    let request = format!(r#"{{"v":2,"verb":"step","market":"{market}","rounds":1{shock}}}"#);
    let lines = conn.call(&request)?;
    let summary = lines.last().expect("call returns the terminal line");
    outcome.check(is_ok(summary), || format!("step failed: {summary:?}"));
    let mut round_s = 0.0;
    for line in &lines[..lines.len() - 1] {
        let record = line.field("record").ok();
        let round = record.and_then(|r| number(r, "round"));
        #[allow(clippy::cast_precision_loss)]
        let expected = *rounds_done as f64;
        outcome.check(round == Some(expected), || {
            format!("step on {market} reported round {round:?}, expected {expected}")
        });
        round_s += record.and_then(|r| number(r, "seconds")).unwrap_or(0.0);
        *rounds_done += 1;
    }
    outcome.check(lines.len() == 2, || {
        format!("step on {market} streamed {} lines", lines.len())
    });
    Ok(round_s)
}

fn advise_request(id: u64, market: &str, asn: u32) -> String {
    format!(r#"{{"v":2,"verb":"advise","id":{id},"market":"{market}","asn":{asn},"top":{TOP}}}"#)
}

/// Checks an advise reply's envelope: ok, the AS asked about, and (when
/// `cached` is given) the cache flag.
fn advise_reply_ok(reply: &Value, asn: u32, cached: Option<bool>) -> bool {
    #[allow(clippy::cast_precision_loss)]
    let same_asn = number(reply, "asn") == Some(f64::from(asn));
    let flag = reply.field("cached").ok();
    is_ok(reply) && same_asn && cached.is_none_or(|c| flag == Some(&Value::Bool(c)))
}

/// Whether a reply equals a direct `advise` on the same market.
fn matches_direct(reply: &Value, direct: &DiscoveryReport) -> bool {
    #[allow(clippy::cast_precision_loss)]
    let counts = number(reply, "candidates") == Some(direct.candidates as f64)
        && number(reply, "concluded_cash") == Some(direct.concluded_cash as f64)
        && number(reply, "total_surplus").map(f64::to_bits) == Some(direct.total_surplus.to_bits());
    let outcomes = reply
        .field("outcomes")
        .ok()
        .and_then(|o| serde_json::to_string(o).ok());
    let expected = serde_json::to_string(&pan_serve::protocol::to_value(&direct.outcomes)).ok();
    counts && outcomes.is_some() && outcomes == expected
}

/// Set-up times and what the admin blocks measured.
#[derive(Default)]
struct Setup {
    total: Vec<f64>,
    load: Vec<f64>,
    hot_pass: Vec<f64>,
    cold: Vec<f64>,
    shock: Vec<f64>,
    /// Sampled `(asn, reply)` pairs of C's first-time advises, for the
    /// comparison with direct calls.
    sampled: Vec<(u32, Value)>,
    /// Traced run: registry deltas of C's steps, by kind.
    rounds: Vec<(&'static str, Totals)>,
}

struct Markets {
    ids: [String; 2],
    rounds_done_a: u64,
}

fn load(conn: &mut Conn, outcome: &mut Outcome) -> Result<(String, f64), String> {
    let started = Instant::now();
    let reply = conn.call(r#"{"v":2,"verb":"load","market":{}}"#)?;
    let seconds = started.elapsed().as_secs_f64();
    let reply = &reply[0];
    outcome.check(is_ok(reply), || format!("load failed: {reply:?}"));
    let id = text(reply, "market").ok_or("load reply names no market")?;
    Ok((id, seconds))
}

fn unload(conn: &mut Conn, outcome: &mut Outcome, market: &str) -> Result<(), String> {
    let reply = conn.call(&format!(r#"{{"v":2,"verb":"unload","market":"{market}"}}"#))?;
    outcome.check(is_ok(&reply[0]), || {
        format!("unload failed: {:?}", reply[0])
    });
    Ok(())
}

/// Asks for advice on every AS of `hot` in `market`, one at a time,
/// checking that each is a first-time (uncached) answer; returns the
/// pass's seconds. Every [`CHECK_EVERY`]-th reply goes to `sampled`,
/// when given.
fn hot_pass(
    conn: &mut Conn,
    outcome: &mut Outcome,
    market: &str,
    hot: &[u32],
    mut sampled: Option<&mut Vec<(u32, Value)>>,
) -> Result<f64, String> {
    let started = Instant::now();
    for (id, &asn) in (1u64..).zip(hot) {
        let mut reply = conn.call(&advise_request(id, market, asn))?;
        outcome.check(advise_reply_ok(&reply[0], asn, Some(false)), || {
            format!("hot-set advise {market}/{asn}: {:?}", reply[0])
        });
        if let Some(sampled) = sampled.as_deref_mut() {
            if id.is_multiple_of(CHECK_EVERY as u64) {
                sampled.push((asn, reply.swap_remove(0)));
            }
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

/// One set-up repetition on a freshly bound server: loads both
/// markets, steps A, and fills B's advise cache with the hot set.
fn set_up(conn: &mut Conn, outcome: &mut Outcome, mix: &RequestMix) -> Result<Markets, String> {
    let mut ids = [String::new(), String::new()];
    for id in &mut ids {
        *id = load(conn, outcome)?.0;
    }
    let mut rounds_done_a = 0;
    // A cold step, then one more: the first warm step after a cold one
    // runs slower than later ones, so the window's steps are all alike.
    for _ in 0..2 {
        step(conn, outcome, &ids[0], None, &mut rounds_done_a)?;
    }
    hot_pass(conn, outcome, &ids[1], &mix.hot, None)?;
    Ok(Markets { ids, rounds_done_a })
}

/// One admin block on a fresh market C: a load that is dropped again
/// and one that is kept, a pass over C's hot set, a cold step, then a
/// shock override (a fresh shocked driver, whose first round is cold
/// and untimed) and one shocked step. C is unloaded at the end, and a
/// `stats` round trip waits until the reactor has freed it, so the
/// next traffic slice starts on an idle server.
fn admin_block(
    conn: &mut Conn,
    outcome: &mut Outcome,
    hot: &[u32],
    setup: &mut Setup,
    trace_rounds: bool,
) -> Result<(), String> {
    let (dropped, seconds) = load(conn, outcome)?;
    setup.load.push(seconds);
    unload(conn, outcome, &dropped)?;
    let (c, seconds) = load(conn, outcome)?;
    setup.load.push(seconds);
    setup
        .hot_pass
        .push(hot_pass(conn, outcome, &c, hot, Some(&mut setup.sampled))?);
    let mut rounds_done = 0;
    let mut traced_step = |conn: &mut Conn, outcome: &mut Outcome, kind, shock| {
        let before = trace_rounds.then(Totals::now);
        let stepped = step(conn, outcome, &c, shock, &mut rounds_done);
        if let (Some(before), Ok(_)) = (before, &stepped) {
            setup.rounds.push((kind, Totals::now().since(&before)));
        }
        stepped
    };
    let cold = traced_step(conn, outcome, "cold", None)?;
    // A shock override resumes C with a fresh shocked driver: its first
    // round re-derives every transit structure, like a cold one; the
    // next finds them dropped by the first one's price shock.
    traced_step(conn, outcome, "shock-first", Some(SHOCK))?;
    let shocked = traced_step(conn, outcome, "shock", None)?;
    setup.cold.push(cold);
    setup.shock.push(shocked);
    unload(conn, outcome, &c)?;
    let reply = conn.call(r#"{"v":2,"verb":"stats"}"#)?;
    outcome.check(is_ok(&reply[0]), || format!("stats failed: {:?}", reply[0]));
    Ok(())
}

/// A request in flight on one connection.
enum Pending {
    Advise { id: u64, due: Instant, asn: u32 },
    Step { due: Instant, sent: Instant },
}

/// What the timed window measured.
#[derive(Default)]
struct Window {
    sent: usize,
    /// Latency from due time of every `ok` advise, ms.
    latencies: Vec<f64>,
    /// `(due, reply)` of every answered advise, for tail attribution.
    intervals: Vec<(Instant, Instant, f64)>,
    late_ms: Vec<f64>,
    steps: Vec<(Instant, Instant)>,
    step_rtt: Vec<f64>,
    step_round: Vec<f64>,
    /// Split point of a traced run: advises due before it are untraced.
    traced_from: Option<Instant>,
    /// Registry growth over the traffic slices only.
    totals: Totals,
    /// Growth of the server's advise-latency histogram over the slices.
    advise_ns: Option<HistogramSnapshot>,
}

/// The histogram `name` of a registry snapshot.
fn histogram(snapshot: &RegistrySnapshot, name: &str) -> Option<HistogramSnapshot> {
    snapshot
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h.clone())
}

/// Adds the growth of histogram `name` between two snapshots to `into`.
fn add_growth(
    into: &mut Option<HistogramSnapshot>,
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    name: &str,
) {
    let Some(mut grown) = histogram(after, name) else {
        return;
    };
    if let Some(earlier) = histogram(before, name) {
        grown.count -= earlier.count;
        grown.sum -= earlier.sum;
        for (bound, count) in &mut grown.buckets {
            if let Some((_, c)) = earlier.buckets.iter().find(|(b, _)| b == bound) {
                *count -= c;
            }
        }
    }
    match into {
        None => *into = Some(grown),
        Some(total) => {
            total.count += grown.count;
            total.sum += grown.sum;
            for (bound, count) in grown.buckets {
                match total.buckets.iter_mut().find(|(b, _)| *b == bound) {
                    Some((_, c)) => *c += count,
                    None => total.buckets.push((bound, count)),
                }
            }
            total.buckets.sort_unstable();
        }
    }
}

/// Runs one traffic slice: the advises of `mix` due in `[from_s, to_s)`
/// seconds, shifted to start now, on connection 2, and a `step` on A
/// every [`STEP_PERIOD_S`] from half a period in on connection 1.
/// Returns once every request of the slice is answered.
#[allow(clippy::too_many_lines)]
fn run_slice(
    conns: &mut [Conn; 2],
    outcome: &mut Outcome,
    markets: &mut Markets,
    mix: &RequestMix,
    from_s: f64,
    to_s: f64,
    window: &mut Window,
) -> Result<(), String> {
    let _span = trace::enter("traffic");
    let before = pan_telemetry::global().snapshot();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(to_s - from_s);
    let due_of = |i: usize| start + Duration::from_secs_f64(mix.due_s[i] - from_s);
    let step_due = |k: usize| {
        #[allow(clippy::cast_precision_loss)]
        let offset = (k as f64 + 0.5) * STEP_PERIOD_S;
        start + Duration::from_secs_f64(offset)
    };
    let mut pending: [VecDeque<Pending>; 2] = [VecDeque::new(), VecDeque::new()];
    let mut next = mix.due_s.partition_point(|&due| due < from_s);
    let last = mix.due_s.partition_point(|&due| due < to_s);
    let mut next_step = 0usize;
    let mut step_in_flight = false;
    let mut lines = Vec::new();
    loop {
        let now = Instant::now();
        while next < last && due_of(next) <= now {
            let asn = mix.asns[next];
            let id = next as u64 + 1_000_000;
            let line = advise_request(id, &markets.ids[1], asn);
            conns[1]
                .send(&line)
                .map_err(|e| format!("advise send: {e}"))?;
            let due = due_of(next);
            window
                .late_ms
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            window.sent += 1;
            outcome.attempted += 1;
            pending[1].push_back(Pending::Advise { id, due, asn });
            next += 1;
        }
        if !step_in_flight && step_due(next_step) <= now && step_due(next_step) < end {
            let request = format!(
                r#"{{"v":2,"verb":"step","market":"{}","rounds":1}}"#,
                markets.ids[0]
            );
            let due = step_due(next_step);
            conns[0]
                .send(&request)
                .map_err(|e| format!("step send: {e}"))?;
            let sent = Instant::now();
            window
                .late_ms
                .push(sent.duration_since(due).as_secs_f64() * 1e3);
            outcome.attempted += 1;
            pending[0].push_back(Pending::Step { due, sent });
            step_in_flight = true;
            next_step += 1;
        }

        let mut progressed = false;
        for (c, conn) in conns.iter_mut().enumerate() {
            lines.clear();
            progressed |= conn
                .poll(&mut lines)
                .map_err(|e| format!("connection {c}: {e}"))?;
            for (reply, at) in lines.drain(..) {
                match pending[c].front() {
                    Some(Pending::Step { .. }) if is_round(&reply) => {
                        let record = reply.field("record").ok();
                        let round = record.and_then(|r| number(r, "round"));
                        #[allow(clippy::cast_precision_loss)]
                        let expected = markets.rounds_done_a as f64;
                        outcome.check(round == Some(expected), || {
                            format!("window step reported round {round:?}, expected {expected}")
                        });
                        markets.rounds_done_a += 1;
                        window
                            .step_round
                            .push(record.and_then(|r| number(r, "seconds")).unwrap_or(0.0));
                    }
                    Some(Pending::Step { due, sent }) => {
                        if !is_ok(&reply) {
                            outcome.fail(format!("window step failed: {reply:?}"));
                        }
                        window.step_rtt.push(at.duration_since(*sent).as_secs_f64());
                        window.steps.push((*sent, at));
                        trace::record("serve.step", *due, at, None);
                        pending[c].pop_front();
                        step_in_flight = false;
                    }
                    Some(&Pending::Advise { id, due, asn }) => {
                        pending[c].pop_front();
                        #[allow(clippy::cast_precision_loss)]
                        let echoed = number(&reply, "id") == Some(id as f64);
                        if !(echoed && advise_reply_ok(&reply, asn, Some(true))) {
                            outcome.fail(format!("advise {asn}: {reply:?}"));
                            continue;
                        }
                        let latency = at.duration_since(due).as_secs_f64() * 1e3;
                        window.latencies.push(latency);
                        window.intervals.push((due, at, latency));
                        trace::record("serve.advise", due, at, Some(id));
                    }
                    None => outcome.fail(format!("unexpected reply on connection {c}: {reply:?}")),
                }
            }
        }
        let all_sent = next >= last;
        let steps_done = step_due(next_step) >= end;
        if all_sent && steps_done && pending.iter().all(VecDeque::is_empty) {
            break;
        }
        if now > end + DRAIN_LIMIT {
            let outstanding: usize = pending.iter().map(VecDeque::len).sum();
            for _ in 0..outstanding {
                outcome.fail("request unanswered at the end of the drain period".to_owned());
            }
            break;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    let after = pan_telemetry::global().snapshot();
    window
        .totals
        .add(&Totals::from_snapshot(&after).since(&Totals::from_snapshot(&before)));
    add_growth(
        &mut window.advise_ns,
        &before,
        &after,
        "serve.verb.advise_ns",
    );
    Ok(())
}

/// The market the server builds for `{"market": {}}`, built here too so
/// replies can be compared with direct calls.
fn direct_market() -> Result<(MarketState, pan_core::EvolutionConfig), String> {
    let loaded = pan_bench::load_market_request(&market_spec(), &Value::Map(Vec::new()))?;
    Ok((loaded.state, loaded.config))
}

fn quit(addr: SocketAddr) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect for quit: {e}"))?;
    conn.call(r#"{"v":2,"verb":"quit"}"#).map(|_| ())
}

/// Runs the workload; see the module docs.
///
/// # Errors
///
/// Socket failures and set-up failures.
#[allow(clippy::too_many_lines)]
pub fn run(options: &Options) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The generator takes one thread; the server's pool gets the rest.
    let pool_threads = nproc.saturating_sub(1).max(1);
    let mut outcome = Outcome {
        program_threads: pool_threads,
        generator_threads: 1,
        ..Outcome::default()
    };
    let spec = market_spec();
    let (reference, config) = direct_market()?;
    let population = ranked_by_degree(reference.graph());
    let traffic_s = options.seconds * TRAFFIC_SHARE;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let slices = ((traffic_s / SLICE_S).round() as usize).max(MIN_SLICES);
    let mix = RequestMix::draw(options.seed, &population, HOT_SET, CENSUS, RATE, traffic_s);
    let loader = |market: &Value| pan_bench::load_market_request(&spec, market);

    // One server thread hosts every repetition's server in turn, so
    // later repetitions reuse the memory earlier ones freed, as a
    // long-running server process would.
    let mut setup = Setup::default();
    let result = std::thread::scope(|scope| -> Result<_, String> {
        let (bind_tx, bind_rx) = mpsc::channel::<()>();
        let (addr_tx, addr_rx) = mpsc::channel::<Result<SocketAddr, String>>();
        let loader = &loader;
        let server_thread = scope.spawn(move || -> Result<(), String> {
            for () in bind_rx {
                let bound = MarketServer::bind("127.0.0.1:0", pool_threads).and_then(|server| {
                    let addr = server.local_addr()?;
                    Ok((server.with_slow_log(Duration::from_secs(3600)), addr))
                });
                let (server, addr) = match bound {
                    Ok(bound) => bound,
                    Err(e) => {
                        let _ = addr_tx.send(Err(format!("bind: {e}")));
                        return Err(format!("bind: {e}"));
                    }
                };
                if addr_tx.send(Ok(addr)).is_err() {
                    break;
                }
                server.serve(loader).map_err(|e| format!("server: {e}"))?;
            }
            Ok(())
        });
        let reps = (|| -> Result<_, String> {
            let mut result = None;
            for rep in 0..SETUP_REPS {
                let last = rep + 1 == SETUP_REPS;
                let started = Instant::now();
                let exited = "server thread exited".to_owned();
                bind_tx.send(()).map_err(|_| exited.clone())?;
                let addr = addr_rx.recv().map_err(|_| exited)??;
                let work = (|| -> Result<_, String> {
                    let mut conns = [
                        Conn::connect(addr).map_err(|e| format!("connect: {e}"))?,
                        Conn::connect(addr).map_err(|e| format!("connect: {e}"))?,
                    ];
                    let mut markets = set_up(&mut conns[0], &mut outcome, &mix)?;
                    setup.total.push(started.elapsed().as_secs_f64());
                    if !last {
                        return Ok(None);
                    }
                    // The window: an admin block on C before each traffic
                    // slice. A traced run traces the second half of the
                    // slices.
                    let mut window = Window::default();
                    #[allow(clippy::cast_precision_loss)]
                    let slice_s = traffic_s / slices as f64;
                    for slice in 0..slices {
                        admin_block(
                            &mut conns[0],
                            &mut outcome,
                            &mix.hot,
                            &mut setup,
                            options.trace,
                        )?;
                        if options.trace && slice == slices / 2 {
                            window.traced_from = Some(Instant::now());
                            trace::set_enabled(true);
                        }
                        #[allow(clippy::cast_precision_loss)]
                        let from_s = slice as f64 * slice_s;
                        run_slice(
                            &mut conns,
                            &mut outcome,
                            &mut markets,
                            &mix,
                            from_s,
                            from_s + slice_s,
                            &mut window,
                        )?;
                    }
                    let after = pan_telemetry::global().snapshot();
                    let stats = conns[0].call(r#"{"v":2,"verb":"stats"}"#)?;
                    let mut market_stats = Vec::new();
                    for id in &markets.ids {
                        let request = format!(r#"{{"v":2,"verb":"stats","market":"{id}"}}"#);
                        market_stats.push(conns[0].call(&request)?.swap_remove(0));
                    }
                    let metrics = conns[0].call(r#"{"v":2,"verb":"metrics"}"#)?;
                    Ok(Some((window, after, stats, market_stats, metrics)))
                })();
                // Stop this repetition's server whether or not its work
                // succeeded.
                let stopped = quit(addr);
                if let Some(done) = work? {
                    result = Some(done);
                }
                stopped?;
            }
            result.ok_or_else(|| "no measured repetition".to_owned())
        })();
        drop(bind_tx);
        let served = server_thread
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        let result = reps?;
        served?;
        Ok(result)
    })?;
    let (window, after, stats, market_stats, metrics) = result;

    // Sampled first-time replies on C must equal a direct advise on an
    // identically loaded market.
    let direct_pool = ThreadPool::new(pool_threads);
    for (asn, reply) in &setup.sampled {
        let direct = advise(
            &reference,
            &config.discovery,
            Asn::new(*asn),
            TOP,
            &direct_pool,
        );
        outcome.check(
            direct.as_ref().is_ok_and(|d| matches_direct(reply, d)),
            || format!("advise reply for C/{asn} differs from a direct advise"),
        );
    }
    let late_p99 = nearest_rank(&window.late_ms, 0.99).unwrap_or(0.0);
    let behind = late_p99 > LATE_LIMIT_MS;
    if behind {
        eprintln!("perfbench: generator fell behind schedule (p99 lateness {late_p99:.3} ms)");
    }
    outcome.note("generator_behind", behind);
    outcome.note("advises_sent", window.sent);
    outcome.note("advises_ok", window.latencies.len());
    outcome.note("advise_rate_per_s", RATE);
    outcome.note("advise_limit_ms", ADVISE_LIMIT_MS);
    outcome.note("step_period_s", STEP_PERIOD_S);
    outcome.note("window_steps", window.step_rtt.len());
    outcome.note("admin_blocks", slices);
    outcome.note("sampled_checks", setup.sampled.len());

    if options.trace {
        let name = "serve-mixed";
        let save = |kind: &str, body: String| {
            let path = options
                .out_dir
                .join(format!("{kind}-{name}-seed{}.json", options.seed));
            std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
        };
        save("spans", trace::to_json(&trace::take()))?;
        trace::set_enabled(false);
        save("registry", after.to_json())?;
        let replies: Vec<String> = stats
            .iter()
            .chain(&market_stats)
            .chain(&metrics)
            .map(|v| serde_json::to_string(v).unwrap_or_default())
            .collect();
        save("replies", format!("[{}]", replies.join(",")))?;
        // The admin blocks' first-time advises ask about the hot set.
        let direct = DirectSamples::measure(&reference, &config, &mix.hot, &direct_pool)?;
        layer_metrics(
            &mut outcome,
            &window,
            &setup,
            &after,
            &market_stats,
            &direct,
            pool_threads,
            options,
        );
        return Ok(outcome);
    }

    let required =
        |values: &[f64], what: &str| median(values).ok_or_else(|| format!("no {what} samples"));
    outcome.metric("setup_s", required(&setup.total, "set-up")?);
    #[allow(clippy::cast_precision_loss)]
    outcome.metric("peak_rss_mb", pan_bench::peak_rss_bytes() as f64 / 1e6);
    outcome.metric("reload_s", required(&setup.load, "load")?);
    outcome.metric("sweep_s", required(&setup.hot_pass, "hot-set pass")?);
    outcome.metric("cold_round_s", required(&setup.cold, "cold step")?);
    outcome.metric("warm_round_s", required(&window.step_round, "warm step")?);
    outcome.metric("shock_round_s", required(&setup.shock, "shocked step")?);
    outcome.metric("step_s", required(&window.step_rtt, "step")?);
    let latencies = &window.latencies;
    outcome.metric(
        "advise_p50_ms",
        supported_percentile(latencies, 0.5).ok_or("too few advises for a p50")?,
    );
    outcome.metric(
        "advise_p99_ms",
        supported_percentile(latencies, 0.99).ok_or("too few advises for a p99")?,
    );
    outcome.metric(
        "advise_slo_frac",
        within_limit_frac(latencies, window.sent, ADVISE_LIMIT_MS),
    );
    Ok(outcome)
}

/// Direct `dynamics::advise` calls on the bench's copy of the market for
/// the ASes the admin blocks ask C about for the first time (the hot
/// set): the per-miss evaluation cost without the protocol.
struct DirectSamples {
    ms: Vec<f64>,
    candidates: Vec<f64>,
    concluded: f64,
    pairs: f64,
    seconds: f64,
    enumerate_ms: f64,
    build_ms: f64,
    state_ms: f64,
}

impl DirectSamples {
    fn measure(
        state: &MarketState,
        config: &pan_core::EvolutionConfig,
        asns: &[u32],
        pool: &ThreadPool,
    ) -> Result<DirectSamples, String> {
        let spec = market_spec();
        let source = spec.market_source();
        let (net, build_s) = trace::timed("datasets.build", || source.build(spec.seed));
        let net = net.map_err(|e| format!("market build: {e}"))?;
        let (_, state_s) = trace::timed("econ.state", || {
            MarketState::standard(net.graph.clone(), |asn| pan_bench::market_tier(&net, asn))
        });
        let policy = config.discovery.policy;
        let (_, enumerate_s) = trace::timed("discovery.enumerate", || {
            pan_core::discovery::enumerate_candidates(state.graph(), policy)
        });
        let mut samples = DirectSamples {
            ms: Vec::new(),
            candidates: Vec::new(),
            concluded: 0.0,
            pairs: 0.0,
            seconds: 0.0,
            enumerate_ms: enumerate_s * 1e3,
            build_ms: build_s * 1e3,
            state_ms: state_s * 1e3,
        };
        for &asn in asns {
            let (report, seconds) = trace::timed("dynamics.advise", || {
                advise(state, &config.discovery, Asn::new(asn), 0, pool)
            });
            let report = report.map_err(|e| format!("direct advise {asn}: {e}"))?;
            #[allow(clippy::cast_precision_loss)]
            {
                samples.ms.push(seconds * 1e3);
                samples.candidates.push(report.candidates as f64);
                samples.concluded += report.concluded_cash as f64;
                samples.pairs += report.candidates as f64;
            }
            samples.seconds += seconds;
        }
        Ok(samples)
    }
}

#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn layer_metrics(
    outcome: &mut Outcome,
    window: &Window,
    setup: &Setup,
    after: &RegistrySnapshot,
    market_stats: &[Value],
    direct: &DirectSamples,
    threads: usize,
    options: &Options,
) {
    let delta = &window.totals;
    outcome.metric("datasets.build_ms", direct.build_ms);
    outcome.metric("econ.state_ms", direct.state_ms);
    outcome.metric("discovery.enumerate_ms", direct.enumerate_ms);
    outcome.metric(
        "discovery.candidates",
        median(&direct.candidates).unwrap_or(0.0),
    );
    outcome.metric(
        "discovery.pairs_per_s",
        layers::ratio(direct.pairs, direct.seconds),
    );
    outcome.metric(
        "discovery.concluded_frac",
        layers::ratio(direct.concluded, direct.pairs),
    );
    outcome.metric("advise.direct_ms", median(&direct.ms).unwrap_or(0.0));
    outcome.metric(
        "advise.candidates",
        median(&direct.candidates).unwrap_or(0.0),
    );

    // Rounds: the admin blocks' cold and shocked steps on C, and the
    // traffic slices' scheduled (warm) steps on A.
    let mut kinds: [(Totals, u64); 3] = Default::default();
    for (kind, totals) in &setup.rounds {
        let slot = match *kind {
            "cold" => 0,
            "warm" => 1,
            "shock" => 2,
            _ => continue,
        };
        kinds[slot].0.add(totals);
        kinds[slot].1 += 1;
    }
    if !window.step_round.is_empty() {
        kinds[1].0 = delta.clone();
        kinds[1].1 = window.step_round.len() as u64;
    }
    for (i, kind) in ["cold", "warm", "shock"].into_iter().enumerate() {
        layers::round_metrics(outcome, kind, &kinds[i].0, kinds[i].1);
    }
    let resident: f64 = market_stats
        .iter()
        .filter_map(|s| number(s, "resident_bytes"))
        .sum();
    outcome.metric("core.resident_mb", resident / 1e6);
    layers::runtime_metrics(outcome, delta, threads);

    // Server side over the window: mean advise service time from the
    // registry's sum and count; the waiting estimate subtracts the
    // server's p99 service (a log2 bucket bound, so an upper bound) from
    // the client p99, which makes the estimate a lower bound.
    #[allow(clippy::cast_precision_loss)]
    let advises = delta.count("serve.verb.advise_ns") as f64;
    outcome.metric(
        "serve.advise.service_us",
        layers::ratio(delta.sum_ms("serve.verb.advise_ns") * 1e3, advises),
    );
    let client_p99 = nearest_rank(&window.latencies, 0.99).unwrap_or(0.0);
    #[allow(clippy::cast_precision_loss)]
    let service_p99_ms = window
        .advise_ns
        .as_ref()
        .map_or(0.0, |h| h.percentile(0.99) as f64 / 1e6);
    outcome.metric(
        "serve.advise.wait_ms",
        (client_p99 - service_p99_ms).max(0.0),
    );
    // Tail attribution: the share of advises at or beyond the client p99
    // whose wait overlapped a `step` in flight.
    let tail: Vec<&(Instant, Instant, f64)> = window
        .intervals
        .iter()
        .filter(|(_, _, l)| *l >= client_p99)
        .collect();
    let blocked = tail
        .iter()
        .filter(|(due, at, _)| window.steps.iter().any(|(s, e)| s < at && e > due))
        .count();
    #[allow(clippy::cast_precision_loss)]
    outcome.metric(
        "serve.advise.tail_blocked_frac",
        layers::ratio(blocked as f64, tail.len() as f64),
    );
    #[allow(clippy::cast_precision_loss)]
    let steps = delta.count("serve.verb.step_ns") as f64;
    outcome.metric(
        "serve.step.service_ms",
        layers::ratio(delta.sum_ms("serve.verb.step_ns"), steps),
    );
    #[allow(clippy::cast_precision_loss)]
    {
        let hits = delta.counter("serve.advise.cache_hits") as f64;
        let misses = delta.counter("serve.advise.cache_misses") as f64;
        outcome.metric("serve.cache.hit_frac", layers::ratio(hits, hits + misses));
        outcome.metric(
            "serve.reactor.busy_frac",
            layers::ratio(
                delta.sum_ms("serve.reactor.busy_ns") / 1e3,
                options.seconds * TRAFFIC_SHARE,
            ),
        );
        outcome.metric(
            "serve.reactor.sleeps_per_req",
            layers::ratio(
                delta.counter("serve.reactor.idle_sleeps") as f64,
                advises + steps,
            ),
        );
        let errors: u64 = after
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("serve.error."))
            .map(|(name, _)| delta.counter(name))
            .sum();
        outcome.metric("serve.errors", errors as f64);
        outcome.metric("gen.sent", window.sent as f64);
        outcome.metric("gen.failed", outcome.failed as f64);
    }
    let late_p99 = nearest_rank(&window.late_ms, 0.99).unwrap_or(0.0);
    outcome.metric("gen.late_ms", late_p99);
    outcome.metric("gen.behind", f64::from(u8::from(late_p99 > LATE_LIMIT_MS)));

    // Tracing overhead: median advise latency of the traced second half
    // against the untraced first half.
    if let Some(from) = window.traced_from {
        let latency_where = |traced: bool| -> Vec<f64> {
            window
                .intervals
                .iter()
                .filter(|(due, _, _)| (*due >= from) == traced)
                .map(|&(_, _, latency)| latency)
                .collect()
        };
        let (traced, untraced) = (latency_where(true), latency_where(false));
        let ratio = layers::ratio(
            median(&traced).unwrap_or(0.0),
            median(&untraced).unwrap_or(0.0),
        );
        outcome.metric("trace.overhead_frac", ratio - 1.0);
    }
}
