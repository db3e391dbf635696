//! Multi-tenant determinism: two markets resident in ONE server, their
//! `step`s interleaved round by round (with advise traffic mixed in),
//! must each produce a trajectory byte-identical to the same market
//! run in isolation by `evolve` — at worker-thread counts 1 and 4.
//!
//! This is the session-isolation contract of the serving layer: a
//! market's trajectory depends only on its own (state, config, seed),
//! never on what its neighbors in the session table are doing.
//!
//! Each market has its own owner thread, so the same isolation holds
//! for latency: an `advise` or `unload` on one market answers while
//! another market is mid-`step`, and one connection's replies still
//! come back in request order.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::{Deserialize, Value};

use pan_bench::{evolution_config, market_state, ScenarioSpec};
use pan_core::dynamics::{evolve, RoundRecord};
use pan_runtime::{ScenarioSweep, ThreadPool};
use pan_serve::{LoadedMarket, MarketServer};

const ROUNDS: usize = 4;

/// Both tenants: 300-AS markets with shocks and share noise on (so the
/// perturbation and jitter streams must stay per-session), differing in
/// seed — different topologies, economies, and trajectories.
fn tenant_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        quick: false,
        seed,
        ases: 300,
        ..ScenarioSpec::default()
    };
    spec.discovery.grid = 3;
    spec.discovery.noise = 0.1;
    spec.evolution.rounds = ROUNDS;
    spec.evolution.adopt_top = 5;
    spec.evolution.min_surplus = 1e-3;
    spec.evolution.shock = 0.3;
    spec
}

fn uint(value: &Value) -> Option<u64> {
    match value {
        Value::I64(n) => u64::try_from(*n).ok(),
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

/// The loader of the test server: `{"seed": n}` selects the tenant, and
/// an optional `"ases"` resizes it.
fn loader(market: &Value) -> Result<LoadedMarket, String> {
    let seed = match market.field("seed").ok().and_then(uint) {
        Some(seed) => seed,
        None => return Err(format!("test loader wants a seed, got {market:?}")),
    };
    let mut spec = tenant_spec(seed);
    if let Some(ases) = market.field("ases").ok().and_then(uint) {
        spec.ases = usize::try_from(ases).map_err(|e| e.to_string())?;
    }
    let (net, state) = market_state(&spec);
    Ok(LoadedMarket {
        state,
        config: evolution_config(&spec),
        seed,
        label: format!("tenant:{}-as:seed-{}", net.graph.node_count(), seed),
    })
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        Client {
            writer: stream.try_clone().expect("streams clone"),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request line in a single write: split writes would let
    /// Nagle's algorithm hold the newline back for a delayed ACK.
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("request writes");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).expect("reply reads") > 0,
            "server closed the connection"
        );
        serde_json::from_str(line.trim()).expect("replies parse")
    }

    fn recv_ok(&mut self) -> Value {
        let reply = self.recv();
        assert_eq!(
            reply.field("ok").unwrap(),
            &Value::Bool(true),
            "reply: {reply:?}"
        );
        reply
    }

    /// Steps one round of one market, returning its record.
    fn step_one(&mut self, market: &str) -> RoundRecord {
        self.send(&format!(
            r#"{{"v":2,"verb":"step","market":"{market}","rounds":1}}"#
        ));
        let round = self.recv_ok();
        assert_eq!(round.field("verb").unwrap(), &Value::Str("round".into()));
        let record =
            RoundRecord::from_value(round.field("record").unwrap()).expect("round records parse");
        let summary = self.recv_ok();
        assert_eq!(summary.field("verb").unwrap(), &Value::Str("step".into()));
        record
    }

    /// Whether a reply line for `verb` has reached this client yet,
    /// read or unread, without consuming anything.
    fn has_arrived(&mut self, verb: &str) -> bool {
        let needle = format!(r#""verb":"{verb}""#);
        if String::from_utf8_lossy(self.reader.buffer()).contains(&needle) {
            return true;
        }
        let stream = self.reader.get_ref();
        stream.set_nonblocking(true).unwrap();
        let mut pending = vec![0u8; 1 << 20];
        let peeked = match stream.peek(&mut pending) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => 0,
            Err(e) => panic!("peek failed: {e}"),
        };
        stream.set_nonblocking(false).unwrap();
        String::from_utf8_lossy(&pending[..peeked]).contains(&needle)
    }

    /// Reads a step's remaining lines; returns the terminal one.
    fn finish_step(&mut self) -> Value {
        loop {
            let reply = self.recv_ok();
            if reply.field("verb").unwrap() == &Value::Str("step".into()) {
                return reply;
            }
        }
    }
}

fn verb(reply: &Value) -> &str {
    match reply.field("verb").unwrap() {
        Value::Str(verb) => verb,
        other => panic!("verb is not a string: {other:?}"),
    }
}

/// Rounds per `step` on the slow tenant, and its size: large enough
/// that the rounds after the first take well over 50 ms in a debug
/// build, and over 10 ms in a release build.
const SLOW_ROUNDS: usize = 4;
const SLOW_ASES: usize = 1000;

/// A server with a slow-stepping market `m1` and a small market `m2`.
fn two_tenant_server() -> (
    SocketAddr,
    JoinHandle<std::io::Result<pan_serve::ServeSummary>>,
) {
    let server = MarketServer::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve(&loader));
    let mut admin = Client::connect(addr);
    admin.send(&format!(
        r#"{{"v":2,"verb":"load","market":{{"seed":23,"ases":{SLOW_ASES}}}}}"#
    ));
    assert_eq!(
        admin.recv_ok().field("market").unwrap(),
        &Value::Str("m1".into())
    );
    admin.send(r#"{"v":2,"verb":"load","market":{"seed":91}}"#);
    assert_eq!(
        admin.recv_ok().field("market").unwrap(),
        &Value::Str("m2".into())
    );
    (addr, handle)
}

fn quit(addr: SocketAddr, handle: JoinHandle<std::io::Result<pan_serve::ServeSummary>>) {
    let mut client = Client::connect(addr);
    client.send(r#"{"v":2,"verb":"quit"}"#);
    client.recv_ok();
    handle.join().unwrap().unwrap();
}

fn slow_step() -> String {
    format!(r#"{{"v":2,"verb":"step","market":"m1","rounds":{SLOW_ROUNDS}}}"#)
}
const WARM_ADVISE: &str = r#"{"v":2,"verb":"advise","market":"m2","asn":1,"top":3}"#;

/// No head-of-line blocking: with `m1` mid-step (its first round line
/// is out, more rounds to go), a cached advise on `m2` from another
/// connection answers before `m1`'s terminal `step` line — every time.
#[test]
fn an_advise_answers_while_another_market_steps() {
    let (addr, handle) = two_tenant_server();
    let mut stepper = Client::connect(addr);
    let mut adviser = Client::connect(addr);
    adviser.send(WARM_ADVISE);
    let cold = adviser.recv_ok();
    for attempt in 0..3 {
        stepper.send(&slow_step());
        let first = stepper.recv_ok();
        assert_eq!(verb(&first), "round");
        let asked = Instant::now();
        adviser.send(WARM_ADVISE);
        let warm = adviser.recv_ok();
        let waited = asked.elapsed();
        assert_eq!(warm.field("cached").unwrap(), &Value::Bool(true));
        assert_eq!(
            warm.field("outcomes").unwrap(),
            cold.field("outcomes").unwrap()
        );
        assert!(
            !stepper.has_arrived("step"),
            "attempt {attempt}: the advise waited {waited:?}, until m1's step was done"
        );
        let done = stepper.finish_step();
        assert_eq!(
            uint(done.field("rounds").unwrap()),
            Some(SLOW_ROUNDS as u64)
        );
    }
    quit(addr, handle);
}

/// Reply order per connection: a `step` on `m1` and an `advise` on `m2`
/// pipelined on one connection answer in request order, even though
/// the advise alone would finish first.
#[test]
fn pipelined_requests_answer_in_request_order() {
    let (addr, handle) = two_tenant_server();
    let mut client = Client::connect(addr);
    let step = slow_step();
    client.send(&format!("{step}\n{WARM_ADVISE}\n{step}"));
    let mut verbs: Vec<String> = Vec::new();
    while verbs.iter().filter(|v| v.as_str() == "step").count() < 2 {
        verbs.push(verb(&client.recv_ok()).to_owned());
    }
    let rounds = ["round"; SLOW_ROUNDS];
    let expected: Vec<&str> = [&rounds[..], &["step", "advise"], &rounds[..], &["step"]].concat();
    assert_eq!(verbs, expected);
    quit(addr, handle);
}

/// `unload` of one market answers while another market steps; the
/// unloaded id is unknown at once and the step completes normally.
#[test]
fn unload_answers_while_another_market_steps() {
    let (addr, handle) = two_tenant_server();
    let mut stepper = Client::connect(addr);
    let mut admin = Client::connect(addr);
    stepper.send(&slow_step());
    assert_eq!(verb(&stepper.recv_ok()), "round");
    admin.send(r#"{"v":2,"verb":"unload","market":"m2"}"#);
    let unloaded = admin.recv_ok();
    assert_eq!(unloaded.field("market").unwrap(), &Value::Str("m2".into()));
    assert!(!stepper.has_arrived("step"), "unload waited for m1's step");
    admin.send(r#"{"v":2,"verb":"list"}"#);
    let list = admin.recv_ok();
    assert_eq!(uint(list.field("count").unwrap()), Some(1));
    admin.send(WARM_ADVISE);
    let gone = admin.recv();
    assert_eq!(gone.field("ok").unwrap(), &Value::Bool(false), "{gone:?}");
    let done = stepper.finish_step();
    assert_eq!(
        uint(done.field("rounds").unwrap()),
        Some(SLOW_ROUNDS as u64)
    );
    quit(addr, handle);
}

fn zeroed(records: &[RoundRecord]) -> Vec<RoundRecord> {
    records.iter().map(|r| r.with_zeroed_timing()).collect()
}

/// Isolated single-market reference trajectory via the batch engine.
fn reference(seed: u64, threads: usize) -> Vec<RoundRecord> {
    let spec = tenant_spec(seed);
    let (_, mut state) = market_state(&spec);
    let sweep = if threads <= 1 {
        ScenarioSweep::sequential(seed)
    } else {
        ScenarioSweep::new(ThreadPool::new(threads), seed)
    };
    let report = evolve(&mut state, &evolution_config(&spec), &sweep).unwrap();
    assert_eq!(
        report.rounds.len(),
        ROUNDS,
        "shocked runs hit the round cap"
    );
    zeroed(&report.rounds)
}

/// Interleaves both tenants round by round on one server and returns
/// their trajectories.
fn interleaved_on_server(threads: usize) -> (Vec<RoundRecord>, Vec<RoundRecord>) {
    let server = MarketServer::bind("127.0.0.1:0", threads)
        .unwrap()
        .with_max_markets(2);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve(&loader));
    let mut client = Client::connect(addr);

    client.send(r#"{"v":2,"verb":"load","market":{"seed":23}}"#);
    let m_a = client.recv_ok();
    assert_eq!(m_a.field("market").unwrap(), &Value::Str("m1".into()));
    client.send(r#"{"v":2,"verb":"load","market":{"seed":91}}"#);
    let m_b = client.recv_ok();
    assert_eq!(m_b.field("market").unwrap(), &Value::Str("m2".into()));

    let mut rounds_a = Vec::new();
    let mut rounds_b = Vec::new();
    for i in 0..ROUNDS {
        // Alternate the stepping order per round, with advise traffic in
        // between — neither the interleaving nor the cache activity may
        // leak into either trajectory.
        if i % 2 == 0 {
            rounds_a.push(client.step_one("m1"));
            client.send(r#"{"v":2,"verb":"advise","market":"m2","asn":1,"top":3}"#);
            client.recv_ok();
            rounds_b.push(client.step_one("m2"));
        } else {
            rounds_b.push(client.step_one("m2"));
            client.send(r#"{"v":2,"verb":"advise","market":"m1","asn":1,"top":3}"#);
            client.recv_ok();
            rounds_a.push(client.step_one("m1"));
        }
    }

    client.send(r#"{"v":2,"verb":"quit"}"#);
    client.recv_ok();
    handle.join().unwrap().unwrap();
    (rounds_a, rounds_b)
}

#[test]
fn interleaved_sessions_match_isolated_trajectories_at_any_thread_count() {
    // Thread-count independence of the references themselves.
    let reference_a = reference(23, 1);
    let reference_b = reference(91, 1);
    assert_eq!(reference(23, 4), reference_a, "4-thread evolve diverged");
    assert_eq!(reference(91, 4), reference_b, "4-thread evolve diverged");
    assert!(
        reference_a != reference_b,
        "the tenants must be genuinely different markets"
    );

    for threads in [1, 4] {
        let (rounds_a, rounds_b) = interleaved_on_server(threads);
        // Byte-identical, not just equal: compare serialized records.
        assert_eq!(
            serde_json::to_string(&zeroed(&rounds_a)).unwrap(),
            serde_json::to_string(&reference_a).unwrap(),
            "market m1 diverged under interleaving at {threads} thread(s)"
        );
        assert_eq!(
            serde_json::to_string(&zeroed(&rounds_b)).unwrap(),
            serde_json::to_string(&reference_b).unwrap(),
            "market m2 diverged under interleaving at {threads} thread(s)"
        );
    }
}
