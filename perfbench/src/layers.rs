//! Per-layer figures from the workspace's `pan-telemetry` registry.
//!
//! Only sums and counts are used: the registry's percentiles are log2
//! bucket bounds that can be off by up to 2x.

use std::collections::BTreeMap;

use pan_telemetry::RegistrySnapshot;

use crate::Outcome;

/// Counters and histogram `(count, sum)` pairs of one registry snapshot.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, u64)>,
}

impl Totals {
    /// The global registry right now.
    #[must_use]
    pub fn now() -> Totals {
        Totals::from_snapshot(&pan_telemetry::global().snapshot())
    }

    #[must_use]
    pub fn from_snapshot(snapshot: &RegistrySnapshot) -> Totals {
        Totals {
            counters: snapshot.counters.iter().cloned().collect(),
            histograms: snapshot
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), (h.count, h.sum)))
                .collect(),
        }
    }

    /// What was recorded between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &Totals) -> Totals {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - earlier.counter(k)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, &(count, sum))| {
                let (c0, s0) = earlier.histograms.get(k).copied().unwrap_or_default();
                (k.clone(), (count - c0, sum - s0))
            })
            .collect();
        Totals {
            counters,
            histograms,
        }
    }

    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.0)
    }

    /// Histogram sum in milliseconds (for `_ns` histograms).
    #[must_use]
    pub fn sum_ms(&self, name: &str) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ms = self.histograms.get(name).map_or(0, |h| h.1) as f64 / 1e6;
        ms
    }

    /// Accumulates another delta into this one.
    pub fn add(&mut self, other: &Totals) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, (c, s)) in &other.histograms {
            let entry = self.histograms.entry(k.clone()).or_default();
            entry.0 += c;
            entry.1 += s;
        }
    }
}

/// `numerator / denominator`, 0 when nothing was counted.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The round phases the engine spans, in `core.phase.<name>_ns`.
pub const PHASES: [&str; 5] = ["enumerate", "derive_transit", "evaluate", "adopt", "shock"];

/// Per-round phase times of one kind of round (`cold`, `warm`,
/// `shock`), from the registry deltas of its `rounds` steps: mean
/// milliseconds per round per phase, the share of round time outside
/// every phase span, and the share of rounds that reused the transit
/// cache.
pub fn round_metrics(outcome: &mut Outcome, kind: &str, delta: &Totals, rounds: u64) {
    #[allow(clippy::cast_precision_loss)]
    let per_round = |ms: f64| ratio(ms, rounds as f64);
    let mut spanned = 0.0;
    for phase in PHASES {
        let ms = delta.sum_ms(&format!("core.phase.{phase}_ns"));
        spanned += ms;
        outcome.metric(format!("round.{kind}.{phase}_ms"), per_round(ms));
    }
    let round_ms = delta.sum_ms("core.round_ns");
    outcome.metric(
        format!("round.{kind}.unspanned_frac"),
        ratio(round_ms - spanned, round_ms),
    );
    #[allow(clippy::cast_precision_loss)]
    let reuses = delta.counter("core.cache.full_engine.reuses") as f64;
    outcome.metric(format!("round.{kind}.cache_reuse_frac"), per_round(reuses));
}

/// Worker-pool figures over a registry delta. A dispatch that runs
/// inline records one busy span and no start delay; a spawned one
/// records one of each per worker.
pub fn runtime_metrics(outcome: &mut Outcome, delta: &Totals, threads: usize) {
    let busy = delta.count("runtime.worker.busy_ns");
    let spawned = delta.count("runtime.worker.start_delay_ns");
    #[allow(clippy::cast_precision_loss)]
    let dispatches = (busy - spawned) as f64 + spawned as f64 / threads.max(1) as f64;
    outcome.metric("runtime.dispatches", dispatches);
    outcome.metric("runtime.busy_ms", delta.sum_ms("runtime.worker.busy_ns"));
    #[allow(clippy::cast_precision_loss)]
    outcome.metric(
        "runtime.start_delay_us",
        ratio(
            delta.sum_ms("runtime.worker.start_delay_ns") * 1e3,
            spawned as f64,
        ),
    );
    let tiles = delta.counter("runtime.tiles.claimed");
    let overshoot = delta.counter("runtime.cursor.overshoot");
    #[allow(clippy::cast_precision_loss)]
    {
        outcome.metric("runtime.tiles", tiles as f64);
        outcome.metric(
            "runtime.overshoot_frac",
            ratio(overshoot as f64, (tiles + overshoot) as f64),
        );
    }
}
