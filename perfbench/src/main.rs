//! `perfbench`: the repository benchmark.
//!
//! ```console
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-snapshot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one named workload for `--seconds`, checks the program's
//! outputs, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. The line before it carries the run's provenance. Result,
//! span and registry files go to `.bench_out/` under the working
//! directory. See `perfbench/README.md` for the workloads, their fixed
//! parameters, and which layer metric should move which end-to-end
//! metric.

mod batch;
mod layers;
mod mix;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, in output order: name and unit.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("reload_s", "s"),
    ("sweep_s", "s"),
    ("cold_round_s", "s"),
    ("warm_round_s", "s"),
    ("shock_round_s", "s"),
    ("step_s", "s"),
    ("advise_p50_ms", "ms"),
    ("advise_p99_ms", "ms"),
    ("advise_slo_frac", "frac"),
];

/// Per-layer metrics of the traced run, in output order.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("topology.load_ms", "ms"),
    ("topology.parse_ms", "ms"),
    ("topology.cache_hit_frac", "frac"),
    ("datasets.build_ms", "ms"),
    ("econ.state_ms", "ms"),
    ("discovery.enumerate_ms", "ms"),
    ("discovery.candidates", "count"),
    ("discovery.pairs_per_s", "1/s"),
    ("discovery.concluded_frac", "frac"),
    ("round.cold.enumerate_ms", "ms"),
    ("round.cold.derive_transit_ms", "ms"),
    ("round.cold.evaluate_ms", "ms"),
    ("round.cold.adopt_ms", "ms"),
    ("round.cold.shock_ms", "ms"),
    ("round.cold.unspanned_frac", "frac"),
    ("round.cold.cache_reuse_frac", "frac"),
    ("round.warm.enumerate_ms", "ms"),
    ("round.warm.derive_transit_ms", "ms"),
    ("round.warm.evaluate_ms", "ms"),
    ("round.warm.adopt_ms", "ms"),
    ("round.warm.shock_ms", "ms"),
    ("round.warm.unspanned_frac", "frac"),
    ("round.warm.cache_reuse_frac", "frac"),
    ("round.shock.enumerate_ms", "ms"),
    ("round.shock.derive_transit_ms", "ms"),
    ("round.shock.evaluate_ms", "ms"),
    ("round.shock.adopt_ms", "ms"),
    ("round.shock.shock_ms", "ms"),
    ("round.shock.unspanned_frac", "frac"),
    ("round.shock.cache_reuse_frac", "frac"),
    ("core.resident_mb", "MB"),
    ("advise.direct_ms", "ms"),
    ("advise.candidates", "count"),
    ("runtime.dispatches", "count"),
    ("runtime.busy_ms", "ms"),
    ("runtime.start_delay_us", "us"),
    ("runtime.tiles", "count"),
    ("runtime.overshoot_frac", "frac"),
    ("serve.advise.service_us", "us"),
    ("serve.advise.wait_ms", "ms"),
    ("serve.advise.tail_blocked_frac", "frac"),
    ("serve.step.service_ms", "ms"),
    ("serve.cache.hit_frac", "frac"),
    ("serve.reactor.busy_frac", "frac"),
    ("serve.reactor.sleeps_per_req", "count"),
    ("serve.errors", "count"),
    ("gen.sent", "count"),
    ("gen.failed", "count"),
    ("gen.late_ms", "ms"),
    ("gen.behind", "count"),
    ("trace.overhead_frac", "frac"),
];

/// The workloads `--workload` accepts.
pub const WORKLOADS: [&str; 2] = ["batch-snapshot", "serve-mixed"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where result, span and registry files go.
    pub out_dir: PathBuf,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed calls and requests sent).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// One line per failed check, for stderr and the result file.
    pub failures: Vec<String>,
    /// Metrics by name; the output takes the ones its mode lists.
    pub metrics: Vec<(String, f64)>,
    /// Worker threads of the program under test.
    pub program_threads: usize,
    /// Threads of the load generator (0 for the batch workload).
    pub generator_threads: usize,
    /// Extra facts for the result file (parameters, flags, sample counts).
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one checked operation; a failed check is recorded with
    /// its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 50 {
            self.failures.push(reason);
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = value()?,
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&options.workload.as_str()) {
        return Err(format!("unknown workload {:?}", options.workload));
    }
    if !(options.seconds.is_finite() && options.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(options)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        )
}

fn json_string(text: &str) -> String {
    serde_json::to_string(&text.to_owned()).expect("strings serialize")
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// The provenance object every result carries.
fn provenance(options: &Options, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::from("{");
    let fields = [
        ("workload", json_string(&options.workload)),
        ("seed", options.seed.to_string()),
        ("seconds", json_number(options.seconds)),
        ("trace", options.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("program_threads", outcome.program_threads.to_string()),
        ("generator_threads", outcome.generator_threads.to_string()),
        // Only a checkout's own repository names its revision; git
        // would otherwise report an enclosing repository's.
        (
            "git_rev",
            json_string(&if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_owned()
            }),
        ),
        ("rustc", json_string(&command_line("rustc", &["--version"]))),
        (
            "profile",
            json_string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ];
    for (i, (key, value)) in fields.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{key}\":{value}");
    }
    for (key, value) in &outcome.notes {
        let _ = write!(out, ",\"{key}\":{}", json_string(value));
    }
    out.push('}');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// A layer the workload does not exercise reports 0. A missing
/// end-to-end metric is an error.
fn result_line(options: &Options, outcome: &Outcome) -> Result<String, String> {
    let wanted: &[(&str, &str)] = if options.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = outcome
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| n.as_str() == *name)
            .map(|(_, v)| *v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {name} is not finite ({v})")),
            None if options.trace => 0.0,
            None => return Err(format!("workload produced no {name}")),
        };
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        );
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    ))
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&options.out_dir) {
        eprintln!(
            "perfbench: cannot create {}: {e}",
            options.out_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let run = match options.workload.as_str() {
        "batch-snapshot" => batch::run(&options),
        "serve-mixed" => serve::run(&options),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", options.workload);
            return ExitCode::FAILURE;
        }
    };
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let provenance = provenance(&options, &outcome);
    let line = match result_line(&options, &outcome) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let all_metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\":{}", json_number(*value)))
        .collect();
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_string(f)).collect();
    let record = format!(
        "{{\"provenance\":{provenance},\"result\":{line},\"all_metrics\":{{{}}},\"failures\":[{}]}}\n",
        all_metrics.join(","),
        failures.join(",")
    );
    let record_path = options.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        options.workload,
        options.seed,
        u8::from(options.trace)
    ));
    if let Err(e) = std::fs::write(&record_path, record) {
        eprintln!("perfbench: cannot write {}: {e}", record_path.display());
    }
    println!("{{\"provenance\":{provenance}}}");
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> impl Iterator<Item = String> {
        items
            .iter()
            .map(|s| (*s).to_owned())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let options = parse_args(args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(options.workload, "serve-mixed");
        assert_eq!(options.seed, 9);
        assert!((options.seconds - 20.0).abs() < f64::EPSILON);
        assert!(options.trace);
        assert!(parse_args(args(&["--workload", "nope"])).is_err());
        assert!(parse_args(args(&["--workload", "serve-mixed", "--trace", "2"])).is_err());
        assert!(parse_args(args(&["--workload", "serve-mixed", "--bogus"])).is_err());
    }

    #[test]
    fn metric_lists_match_the_benchmark_description() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .and_then(serde::Value::seq)
                .expect("metric list")
                .iter()
                .map(|m| match (m.field("name"), m.field("unit")) {
                    (Ok(serde::Value::Str(n)), Ok(serde::Value::Str(u))) => (n.clone(), u.clone()),
                    other => panic!("malformed metric entry {other:?}"),
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .field("workloads")
            .and_then(serde::Value::seq)
            .expect("workload list")
            .iter()
            .map(|w| match w.field("name") {
                Ok(serde::Value::Str(n)) => n.clone(),
                other => panic!("malformed workload {other:?}"),
            })
            .collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let options = parse_args(args(&["--workload", "batch-snapshot"])).expect("valid");
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        for (name, _) in END_TO_END {
            outcome.metric(name, 1.5);
        }
        let line = result_line(&options, &outcome).expect("complete");
        let value: serde::Value = serde_json::from_str(&line).expect("parses");
        let serde::Value::Map(entries) = &value else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(value.field("correct").ok(), Some(&serde::Value::Bool(true)));
        outcome.metrics.pop();
        assert!(result_line(&options, &outcome).is_err());
    }
}
