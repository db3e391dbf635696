//! `batch-snapshot`: the offline pipeline with no server.
//!
//! Set-up writes the seeded synthetic 10k-AS graph in CAIDA serial-2
//! form into a fresh directory under the output directory, loads it
//! once cold and once from the graph cache, and sweeps it once, so the
//! first sweep's one-time costs stay out of the window. The timed
//! window then repeats one cycle until
//! time is up: reload the market through the snapshot source, enumerate
//! and sweep every candidate pair, step a fresh driver (one cold and
//! then warm rounds) and a shocked driver on clones of the state, and
//! ask `dynamics::advise` for a seeded sample of ASes. Every market
//! build goes through the CAIDA snapshot path.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pan_bench::{at_market_scale, discovery_config, evolution_config, market_tier, ScenarioSpec};
use pan_core::discovery::{discover, enumerate_candidates, BatchContext, DiscoveryReport};
use pan_core::dynamics::{advise, EvolutionDriver, MarketState};
use pan_core::EvolutionConfig;
use pan_datasets::MarketSource;
use pan_runtime::{ScenarioSweep, ThreadPool};
use pan_topology::{caida, snapshot, Asn};

use crate::layers::{self, Totals};
use crate::mix::Rng;
use crate::stats::{median, supported_percentile, within_limit_frac};
use crate::{trace, Options, Outcome};

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Market reloads per cycle.
pub const RELOADS: usize = 3;
/// Warm rounds per cycle after the cold round of a fresh driver.
pub const WARM_STEPS: usize = 3;
/// Shock magnitude of the shocked driver.
pub const SHOCK: f64 = 0.1;
/// Shocked rounds timed per cycle (after the shocked driver's first,
/// cold round).
pub const SHOCK_STEPS: usize = 2;
/// Direct `advise` calls per cycle: with [`MIN_CYCLES`] an untraced run
/// makes at least 1,350, so its p99 has ten samples beyond it. Every
/// cycle asks each of the [`ADVISE_CENSUS`] costliest ASes once, so the
/// top 1% of a run's calls is 4.5 calls per cycle: the p99 falls inside
/// the fifth-costliest AS's calls whatever the number of cycles, never
/// on the edge between two ASes' costs.
pub const ADVISES_PER_CYCLE: usize = 450;
/// Highest-degree ASes that every cycle's direct-advise sample includes.
pub const ADVISE_CENSUS: usize = 100;
/// Fewest cycles per run, however short the window.
pub const MIN_CYCLES: usize = 3;
/// Latency limit of `advise_slo_frac` for direct advise calls.
pub const ADVISE_LIMIT_MS: f64 = 10.0;

/// The market spec every workload shares: `--quick` settings at market
/// scale (10k ASes, 3x3 grid, adopt-top 25) and the spec's default
/// synthetic seed.
#[must_use]
pub fn market_spec() -> ScenarioSpec {
    at_market_scale(ScenarioSpec {
        quick: true,
        ..ScenarioSpec::default()
    })
}

/// The market's ASes ranked by degree (then ASN): the order the
/// systematic AS samples draw from, since an AS's candidate count, and
/// so its advise cost, grows with its degree.
#[must_use]
pub fn ranked_by_degree(graph: &pan_topology::AsGraph) -> Vec<u32> {
    let mut ranked: Vec<(usize, u32)> = graph
        .ases()
        .map(|asn| (graph.degree(asn), asn.get()))
        .collect();
    ranked.sort_unstable();
    ranked.into_iter().map(|(_, asn)| asn).collect()
}

/// Removes its directory when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_snapshot(root: &Path, rep: usize, text: &str) -> Result<TempDir, String> {
    let dir = root.join(format!("snapshot-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let guard = TempDir(dir);
    std::fs::write(guard.0.join("relationships.txt"), text)
        .map_err(|e| format!("write snapshot: {e}"))?;
    Ok(guard)
}

/// Builds the market through the snapshot source; returns the state and
/// the two timed parts (source build, state synthesis) in seconds.
fn load_market(source: &MarketSource, seed: u64) -> Result<(MarketState, f64, f64), String> {
    let (net, build_s) = trace::timed("datasets.build", || source.build(seed));
    let net = net.map_err(|e| format!("snapshot build: {e}"))?;
    let (state, state_s) = trace::timed("econ.state", || {
        MarketState::standard(net.graph.clone(), |asn| market_tier(&net, asn))
    });
    Ok((
        state.map_err(|e| format!("market state: {e}"))?,
        build_s,
        state_s,
    ))
}

/// Ledger conservation and table shape after rounds.
fn check_invariants(outcome: &mut Outcome, state: &MarketState, what: &str) {
    let n = u32::try_from(state.graph().node_count()).expect("AS count fits u32");
    let (mut sum, mut magnitude) = (0.0f64, 0.0f64);
    for i in 0..n {
        let balance = state.cash_balance(i);
        sum += balance;
        magnitude += balance.abs();
    }
    outcome.check(sum.abs() <= 1e-9 * magnitude.max(1.0), || {
        format!("{what}: cash balances sum to {sum} (|cash| total {magnitude})")
    });
    let graph = state.graph();
    let shape = graph
        .validate()
        .map_err(|e| e.to_string())
        .and_then(|()| {
            state
                .econ()
                .validate_shape(graph)
                .map_err(|e| e.to_string())
        })
        .and_then(|()| {
            state
                .flows()
                .validate_shape(graph)
                .map_err(|e| e.to_string())
        });
    outcome.check(shape.is_ok(), || format!("{what}: {}", shape.unwrap_err()));
}

fn same_report(a: &DiscoveryReport, b: &DiscoveryReport) -> bool {
    a.candidates == b.candidates
        && a.concluded_flow_volume == b.concluded_flow_volume
        && a.concluded_cash == b.concluded_cash
        && a.total_surplus.to_bits() == b.total_surplus.to_bits()
        && a.outcomes == b.outcomes
}

/// Per-kind registry deltas of the traced rounds.
#[derive(Default)]
struct RoundDeltas {
    totals: [Totals; 3],
    rounds: [u64; 3],
}

/// Steps `driver` once, checking that the round number advances by one;
/// in a traced run the registry delta is booked under `kind`.
fn step(
    outcome: &mut Outcome,
    driver: &mut EvolutionDriver,
    state: &mut MarketState,
    sweep: &ScenarioSweep,
    kind: usize,
    deltas: &mut RoundDeltas,
) -> Result<f64, String> {
    let expected = driver.rounds_done();
    let before = trace::enabled().then(Totals::now);
    let (result, seconds) = trace::timed("dynamics.step", || driver.step(state, sweep));
    if let Some(before) = before {
        deltas.totals[kind].add(&Totals::now().since(&before));
        deltas.rounds[kind] += 1;
    }
    let record = result.map_err(|e| format!("step: {e}"))?.record;
    outcome.check(record.round == expected, || {
        format!(
            "step reported round {} after {expected} rounds",
            record.round
        )
    });
    Ok(seconds)
}

/// Samples that one cycle produces.
#[derive(Default)]
struct Samples {
    reload: Vec<f64>,
    build: Vec<f64>,
    state: Vec<f64>,
    load_relationships: Vec<f64>,
    parse: Vec<f64>,
    enumerate: Vec<f64>,
    sweep: Vec<f64>,
    cold: Vec<f64>,
    warm: Vec<f64>,
    shock: Vec<f64>,
    step: Vec<f64>,
    advise: Vec<f64>,
    advise_candidates: Vec<f64>,
    cycle: Vec<f64>,
    resident: Vec<f64>,
}

struct Context<'a> {
    source: MarketSource,
    relationships: PathBuf,
    text: &'a str,
    spec: ScenarioSpec,
    config: EvolutionConfig,
    shocked: EvolutionConfig,
    pool: ThreadPool,
    sweep: ScenarioSweep,
    /// The market's ASes ranked by degree, for the advise samples.
    ranked: Vec<u32>,
    seed: u64,
}

/// The ASes one cycle asks `advise` about, in asking order: the census
/// plus a systematic sample of the rest, drawn from the workload seed
/// and the cycle index, so every cycle's sample costs alike.
fn advise_sample(cx: &Context<'_>, cycle_index: usize) -> Vec<Asn> {
    let mut rng = Rng::new(cx.seed ^ (cycle_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let (sample, _) = rng.stratified(&cx.ranked, ADVISES_PER_CYCLE, ADVISE_CENSUS);
    rng.shuffled(&sample).into_iter().map(Asn::new).collect()
}

#[allow(clippy::too_many_lines)]
fn cycle(
    cx: &Context<'_>,
    cycle_index: usize,
    outcome: &mut Outcome,
    samples: &mut Samples,
    first_report: &mut Option<DiscoveryReport>,
    deltas: &mut RoundDeltas,
) -> Result<(), String> {
    let _cycle = trace::enter("cycle");
    let started = Instant::now();
    let mut reloaded = None;
    for _ in 0..RELOADS {
        // A reload replaces the market: the old one is gone before the
        // new one is built, so every reload starts from the same heap.
        drop(reloaded.take());
        let (state, build_s, state_s) = load_market(&cx.source, cx.spec.seed)?;
        outcome.attempted += 1;
        samples.reload.push(build_s + state_s);
        samples.build.push(build_s);
        samples.state.push(state_s);
        reloaded = Some(state);
    }
    let state = reloaded.expect("at least one reload");
    // Topology calls only a traced cycle makes; the cycle time leaves
    // them out, so the two halves of a traced run time the same work.
    let mut traced_only = 0.0;
    if trace::enabled() {
        // The topology layer on its own: the snapshot loader (graph
        // cache included) and a plain parse of the same text.
        let (loaded, load_s) = trace::timed("topology.load_relationships", || {
            snapshot::load_relationships(&cx.relationships)
        });
        let (parsed, parse_s) = trace::timed("topology.parse", || caida::parse(cx.text));
        outcome.check(loaded.is_ok() && parsed.is_ok(), || {
            "topology reload failed".to_owned()
        });
        samples.load_relationships.push(load_s);
        samples.parse.push(parse_s);
        traced_only = load_s + parse_s;
    }

    let policy = cx.config.discovery.policy;
    let (pairs, enumerate_s) = trace::timed("discovery.enumerate", || {
        enumerate_candidates(state.graph(), policy)
    });
    samples.enumerate.push(enumerate_s);
    let ctx = BatchContext::new(state.graph(), state.econ(), state.flows())
        .map_err(|e| format!("batch context: {e}"))?;
    let discovery = discovery_config(&cx.spec);
    let (report, sweep_s) = trace::timed("discovery.discover", || {
        discover(&ctx, &discovery, &cx.sweep)
    });
    let report = report.map_err(|e| format!("discover: {e}"))?;
    samples.sweep.push(sweep_s);
    outcome.check(report.candidates == pairs.len(), || {
        format!(
            "sweep saw {} candidates, enumeration {}",
            report.candidates,
            pairs.len()
        )
    });
    match first_report {
        Some(first) => outcome.check(same_report(first, &report), || {
            format!("cycle {cycle_index}: sweep differs from the first sweep of the run")
        }),
        None => {
            outcome.check(report.candidates > 0, || {
                "sweep found no candidates".to_owned()
            });
            *first_report = Some(report);
        }
    }
    drop(ctx);

    // A fresh driver: one cold round, then warm ones.
    let mut evolving = state.clone();
    let mut driver = EvolutionDriver::new(cx.config).map_err(|e| format!("driver: {e}"))?;
    let cold = step(outcome, &mut driver, &mut evolving, &cx.sweep, 0, deltas)?;
    samples.cold.push(cold);
    let mut block = cold;
    for _ in 0..WARM_STEPS {
        let warm = step(outcome, &mut driver, &mut evolving, &cx.sweep, 1, deltas)?;
        samples.warm.push(warm);
        block += warm;
    }
    #[allow(clippy::cast_precision_loss)]
    samples.step.push(block / (WARM_STEPS + 1) as f64);
    check_invariants(outcome, &evolving, "after warm rounds");
    #[allow(clippy::cast_precision_loss)]
    samples
        .resident
        .push((evolving.resident_bytes() + driver.resident_bytes()) as f64 / 1e6);
    drop(evolving);

    // A shocked driver: its first round is cold; every later one finds
    // the transit cache dropped by the previous round's price shock.
    let mut shocked = state.clone();
    let mut driver = EvolutionDriver::new(cx.shocked).map_err(|e| format!("driver: {e}"))?;
    step(outcome, &mut driver, &mut shocked, &cx.sweep, 0, deltas)?;
    for _ in 0..SHOCK_STEPS {
        samples.shock.push(step(
            outcome,
            &mut driver,
            &mut shocked,
            &cx.sweep,
            2,
            deltas,
        )?);
    }
    check_invariants(outcome, &shocked, "after shocked rounds");
    drop(shocked);

    for asn in advise_sample(cx, cycle_index) {
        advise_once(cx, &state, asn, outcome, samples);
    }
    samples
        .cycle
        .push(started.elapsed().as_secs_f64() - traced_only);
    Ok(())
}

fn advise_once(
    cx: &Context<'_>,
    state: &MarketState,
    asn: Asn,
    outcome: &mut Outcome,
    samples: &mut Samples,
) {
    let discovery = &cx.config.discovery;
    let (report, seconds) = trace::timed("dynamics.advise", || {
        advise(state, discovery, asn, 0, &cx.pool)
    });
    outcome.attempted += 1;
    match report {
        Ok(report) => {
            samples.advise.push(seconds * 1e3);
            #[allow(clippy::cast_precision_loss)]
            samples.advise_candidates.push(report.candidates as f64);
        }
        Err(e) => outcome.fail(format!("advise {asn}: {e}")),
    }
}

fn required(values: &[f64], what: &str) -> Result<f64, String> {
    median(values).ok_or_else(|| format!("no {what} samples"))
}

/// Runs the workload; see the module docs.
///
/// # Errors
///
/// Set-up failures (unwritable output directory, unbuildable market).
#[allow(clippy::too_many_lines)]
pub fn run(options: &Options) -> Result<Outcome, String> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut outcome = Outcome {
        program_threads: threads,
        ..Outcome::default()
    };
    let spec = market_spec();
    let config = evolution_config(&spec);
    let shocked = EvolutionConfig {
        shock: SHOCK,
        ..config
    };
    // Inputs: the seeded synthetic graph in CAIDA form, and the ASes the
    // advise calls ask about (drawn from the workload seed).
    let net = spec.internet();
    let text = caida::to_string(&net.graph);
    // The costliest ASes decide the tail percentiles, so every cycle's
    // sample holds them rather than holding them by the luck of the seed.
    let ranked = ranked_by_degree(&net.graph);
    drop(net);

    // Set-up, repeated: write the snapshot into a fresh directory, load
    // it cold, load it again from the graph cache, and sweep it once
    // (the first sweep of a process runs slower than later ones). The
    // last repetition's directory serves the window.
    let pool = ThreadPool::new(threads);
    let warm_up = ScenarioSweep::new(pool.clone(), options.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let dir = write_snapshot(&options.out_dir, rep, &text)?;
        let source = MarketSource::Caida {
            dir: dir.0.clone(),
            snapshot: None,
        };
        load_market(&source, spec.seed)?;
        let (state, _, _) = load_market(&source, spec.seed)?;
        let ctx = BatchContext::new(state.graph(), state.econ(), state.flows())
            .map_err(|e| format!("batch context: {e}"))?;
        discover(&ctx, &discovery_config(&spec), &warm_up).map_err(|e| format!("discover: {e}"))?;
        drop(ctx);
        setups.push(started.elapsed().as_secs_f64());
        outcome.check(state.graph().node_count() == ranked.len(), || {
            format!(
                "snapshot round trip holds {} ASes, not {}",
                state.graph().node_count(),
                ranked.len()
            )
        });
        kept = Some((dir, source));
    }
    let (dir, source) = kept.expect("at least one set-up repetition");
    let cx = Context {
        relationships: dir.0.join("relationships.txt"),
        source,
        text: &text,
        sweep: ScenarioSweep::new(pool.clone(), options.seed),
        pool,
        spec,
        config,
        shocked,
        ranked,
        seed: options.seed,
    };

    // The timed window. A traced run spends its first half untraced, to
    // measure the tracing overhead against, and traces the second half.
    let window = Duration::from_secs_f64(options.seconds);
    let started = Instant::now();
    let mut samples = Samples::default();
    let mut traced = Samples::default();
    let mut first_report = None;
    let mut deltas = RoundDeltas::default();
    let mut window_totals = Totals::default();
    let mut index = 0;
    while index < MIN_CYCLES || started.elapsed() < window {
        let tracing = options.trace && (index > 0 && started.elapsed() >= window / 2);
        if tracing && !trace::enabled() {
            pan_telemetry::enable();
            trace::set_enabled(true);
        }
        let before = tracing.then(Totals::now);
        let target = if tracing { &mut traced } else { &mut samples };
        cycle(
            &cx,
            index,
            &mut outcome,
            target,
            &mut first_report,
            &mut deltas,
        )?;
        if let Some(before) = before {
            window_totals.add(&Totals::now().since(&before));
        }
        index += 1;
    }
    outcome.note("cycles", index);
    outcome.note(
        "candidates",
        first_report.as_ref().map_or(0, |r| r.candidates),
    );

    if options.trace {
        let spans = trace::take();
        trace::set_enabled(false);
        let path = options
            .out_dir
            .join(format!("spans-batch-snapshot-seed{}.json", options.seed));
        std::fs::write(&path, trace::to_json(&spans)).map_err(|e| format!("write spans: {e}"))?;
        std::fs::write(
            options
                .out_dir
                .join(format!("registry-batch-snapshot-seed{}.json", options.seed)),
            pan_telemetry::global().snapshot().to_json(),
        )
        .map_err(|e| format!("write registry: {e}"))?;
        layer_metrics(
            &mut outcome,
            &samples,
            &traced,
            &deltas,
            &window_totals,
            threads,
            first_report.as_ref(),
        );
        return Ok(outcome);
    }

    outcome.metric("setup_s", required(&setups, "set-up")?);
    #[allow(clippy::cast_precision_loss)]
    outcome.metric("peak_rss_mb", pan_bench::peak_rss_bytes() as f64 / 1e6);
    outcome.metric("reload_s", required(&samples.reload, "reload")?);
    outcome.metric("sweep_s", required(&samples.sweep, "sweep")?);
    outcome.metric("cold_round_s", required(&samples.cold, "cold round")?);
    outcome.metric("warm_round_s", required(&samples.warm, "warm round")?);
    outcome.metric("shock_round_s", required(&samples.shock, "shock round")?);
    outcome.metric("step_s", required(&samples.step, "step")?);
    let advise = &samples.advise;
    outcome.metric(
        "advise_p50_ms",
        supported_percentile(advise, 0.5).ok_or("too few advises for a p50")?,
    );
    outcome.metric(
        "advise_p99_ms",
        supported_percentile(advise, 0.99).ok_or("too few advises for a p99")?,
    );
    outcome.metric(
        "advise_slo_frac",
        within_limit_frac(
            advise,
            advise.len() + outcome.failed as usize,
            ADVISE_LIMIT_MS,
        ),
    );
    outcome.note("advises", advise.len());
    outcome.note("advise_limit_ms", ADVISE_LIMIT_MS);
    Ok(outcome)
}

fn layer_metrics(
    outcome: &mut Outcome,
    untraced: &Samples,
    traced: &Samples,
    deltas: &RoundDeltas,
    window: &Totals,
    threads: usize,
    report: Option<&DiscoveryReport>,
) {
    let ms = |values: &[f64]| median(values).map_or(0.0, |s| s * 1e3);
    outcome.metric("topology.load_ms", ms(&traced.load_relationships));
    outcome.metric("topology.parse_ms", ms(&traced.parse));
    let hits = window.counter("topology.snapshot.cache_hits");
    let misses = window.counter("topology.snapshot.cache_misses");
    #[allow(clippy::cast_precision_loss)]
    outcome.metric(
        "topology.cache_hit_frac",
        layers::ratio(hits as f64, (hits + misses) as f64),
    );
    outcome.metric("datasets.build_ms", ms(&traced.build));
    outcome.metric("econ.state_ms", ms(&traced.state));
    outcome.metric("discovery.enumerate_ms", ms(&traced.enumerate));
    if let Some(report) = report {
        #[allow(clippy::cast_precision_loss)]
        let candidates = report.candidates as f64;
        outcome.metric("discovery.candidates", candidates);
        outcome.metric(
            "discovery.pairs_per_s",
            layers::ratio(candidates, median(&traced.sweep).unwrap_or(0.0)),
        );
        #[allow(clippy::cast_precision_loss)]
        outcome.metric(
            "discovery.concluded_frac",
            layers::ratio(report.concluded_cash as f64, candidates),
        );
    }
    for (i, kind) in ["cold", "warm", "shock"].into_iter().enumerate() {
        layers::round_metrics(outcome, kind, &deltas.totals[i], deltas.rounds[i]);
    }
    outcome.metric("core.resident_mb", median(&traced.resident).unwrap_or(0.0));
    outcome.metric("advise.direct_ms", median(&traced.advise).unwrap_or(0.0));
    outcome.metric(
        "advise.candidates",
        median(&traced.advise_candidates).unwrap_or(0.0),
    );
    layers::runtime_metrics(outcome, window, threads);
    outcome.metric("gen.sent", outcome.attempted as f64);
    outcome.metric("gen.failed", outcome.failed as f64);
    let untraced_cycle = median(&untraced.cycle).unwrap_or(0.0);
    outcome.metric(
        "trace.overhead_frac",
        layers::ratio(median(&traced.cycle).unwrap_or(0.0), untraced_cycle) - 1.0,
    );
}
