//! The freshtrack benchmark: one command per workload and seed that
//! generates the inputs, runs the workload in a closed loop, checks
//! every output, and prints the metrics as one JSON line.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay-archive --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation
//! of its own; `--trace 1` is a separate run that records spans around
//! the calls into each layer and prints the per-layer metrics. See
//! `README.md` beside this crate for every metric's definition.

mod online;
mod replay;
mod spans;

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`, as listed in `BENCHMARK.json`.
/// Every workload reports every one of them.
const END_TO_END: &[(&str, &str)] = &[
    ("mevps", "Mev/s"),
    ("parallel_mevps", "Mev/s"),
    ("overhead_x", "ratio"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`, as listed in
/// `BENCHMARK.json`. A layer the workload bypasses reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("trace.encode_v2_mevps", "Mev/s"),
    ("trace.decode_mevps", "Mev/s"),
    ("trace.validate_mevps", "Mev/s"),
    ("trace.bytes_per_event", "B"),
    ("trace.open_us", "us"),
    ("sampling.sampled_frac", "fraction"),
    ("core.acquire_ns", "ns"),
    ("core.release_ns", "ns"),
    ("core.access_ns", "ns"),
    ("core.acquires_skipped", "count"),
    ("core.acquires_processed", "count"),
    ("core.releases_processed", "count"),
    ("core.shallow_copies", "count"),
    ("core.deep_copies", "count"),
    ("core.entries_traversed", "count"),
    ("core.entries_saved", "count"),
    ("core.vc_ops", "count"),
    ("core.race_checks", "count"),
    ("core.races", "count"),
    ("core.detect_mevps", "Mev/s"),
    ("parallel.jobs1_mevps", "Mev/s"),
    ("parallel.jobs2_mevps", "Mev/s"),
    ("parallel.jobs2_speedup", "ratio"),
    ("checkpoint.sync_bytes", "B"),
    ("checkpoint.access_bytes", "B"),
    ("checkpoint.export_us", "us"),
    ("checkpoint.import_us", "us"),
    ("cache.cold_mevps", "Mev/s"),
    ("cache.warm_ms", "ms"),
    ("cache.encode_ms", "ms"),
    ("cache.decode_ms", "ms"),
    ("cache.sidecar_bytes", "B"),
    ("cache.reused_segments", "count"),
    ("cache.total_segments", "count"),
    ("cli.analyze_mevps", "Mev/s"),
    ("cli.overhead_ms", "ms"),
    ("cli.output_bytes", "B"),
    ("online.access_ns_p50", "ns"),
    ("online.access_ns_p99", "ns"),
    ("online.acquire_ns_p50", "ns"),
    ("online.acquire_ns_p99", "ns"),
    ("online.release_ns_p50", "ns"),
    ("online.release_ns_p99", "ns"),
    ("online.callback_share", "fraction"),
    ("online.skip_ratio", "fraction"),
    ("online.acquire_skip_ratio", "fraction"),
    ("shard.access_ns_p50", "ns"),
    ("shard.access_ns_p99", "ns"),
    ("shard.acquire_ns_p50", "ns"),
    ("shard.acquire_ns_p99", "ns"),
    ("shard.release_ns_p50", "ns"),
    ("shard.release_ns_p99", "ns"),
    ("shard.callback_share", "fraction"),
    ("dbsim.nt_txn_per_s", "txn/s"),
    ("dbsim.events_per_txn", "count"),
    ("dbsim.txn_p50_us", "us"),
    ("dbsim.txn_p99_us", "us"),
    ("tracing.overhead_pct", "%"),
    ("tracing.unexplained_pct", "%"),
];

/// Set-up runs per benchmark run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Closed-loop iterations made even when `--seconds` runs out first.
const MIN_ITERATIONS: usize = 3;

/// Command-line options (all required).
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut traced = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    traced = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced: traced.ok_or("--trace is required")?,
        })
    }
}

/// Operations attempted and failed. A failed output check counts its
/// operation as failed; it never aborts the run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`; `what` names it in the
    /// stderr diagnostic.
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// A run's result: metric values by name, plus the operation tally.
#[derive(Default)]
struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    tally: Tally,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: every metric of `spec` by name with its unit.
    /// Missing per-layer metrics read 0 (the layer did no work);
    /// a missing end-to-end metric is a benchmark bug.
    fn to_json(&self, spec: &[(&str, &str)], require_all: bool) -> Result<String, String> {
        let mut fields = Vec::with_capacity(spec.len());
        for &(name, unit) in spec {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if require_all => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            fields.join(", ")
        ))
    }
}

/// Sets the sync- and access-plane work counts of a run.
fn set_core_counts(out: &mut Outcome, c: &freshtrack_core::Counters) {
    out.set("core.acquires_skipped", c.acquires_skipped as f64);
    out.set("core.acquires_processed", c.acquires_processed as f64);
    out.set("core.releases_processed", c.releases_processed as f64);
    out.set("core.shallow_copies", c.shallow_copies as f64);
    out.set("core.deep_copies", c.deep_copies as f64);
    out.set("core.entries_traversed", c.entries_traversed as f64);
    out.set("core.entries_saved", c.entries_saved as f64);
    out.set("core.vc_ops", c.vc_ops as f64);
    out.set("core.race_checks", c.race_checks as f64);
    out.set("core.races", c.races as f64);
}

/// Runs `f` for at least `seconds` and at least [`MIN_ITERATIONS`]
/// times, passing the iteration number.
fn closed_loop(seconds: f64, mut f: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        f(i);
        i += 1;
    }
}

/// Runs set-up [`SETUP_REPS`] times, keeping the last result and the
/// median wall time in seconds.
fn repeated_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Release the previous repetition's data before timing the next.
        drop(last.take());
        let start = Instant::now();
        last = Some(f()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), median(&times)))
}

/// The median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between
/// closest ranks (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// This process's peak resident set size in MiB, from its own
/// `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The first argument that makes this binary act as `freshtrack`.
const CLI_MODE: &str = "freshtrack";

/// The stderr line prefix through which a `freshtrack` child reports
/// its peak resident set size in KiB.
const RSS_TAG: &str = "perfbench-peak-rss-kib: ";

/// One `freshtrack` command run in a child process.
#[derive(Clone, Debug)]
struct Run {
    code: i32,
    stdout: Vec<u8>,
    /// Wall time from spawn to exit, as the caller sees it.
    seconds: f64,
    /// The child's peak resident set size in MiB.
    peak_rss_mib: f64,
}

/// Runs one `freshtrack` command the way a user does: a fresh process
/// (this binary in [`CLI_MODE`], whose `main` is the `freshtrack`
/// binary's) with stdout captured, waiting for it to exit.
fn freshtrack(args: &[&str]) -> Run {
    let start = Instant::now();
    let output = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .arg(CLI_MODE)
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
    });
    let seconds = start.elapsed().as_secs_f64();
    match output {
        Ok(output) => {
            let stderr = String::from_utf8_lossy(&output.stderr);
            let peak_kib = stderr
                .lines()
                .find_map(|line| line.strip_prefix(RSS_TAG))
                .and_then(|kib| kib.trim().parse::<f64>().ok())
                .unwrap_or(0.0);
            Run {
                code: output.status.code().unwrap_or(-1),
                stdout: output.stdout,
                seconds,
                peak_rss_mib: peak_kib / 1024.0,
            }
        }
        Err(e) => {
            eprintln!("perfbench: cannot run freshtrack: {e}");
            Run {
                code: -1,
                stdout: Vec::new(),
                seconds,
                peak_rss_mib: 0.0,
            }
        }
    }
}

/// [`CLI_MODE`]: exactly the `freshtrack` binary's `main`, then the
/// peak resident set size on stderr for the parent.
fn freshtrack_main(args: &[String]) -> ! {
    let code = freshtrack_cli::run(args, &mut std::io::stdout().lock());
    eprintln!("{RSS_TAG}{}", peak_rss_mib() * 1024.0);
    std::process::exit(code)
}

fn run(options: &Options) -> Result<Outcome, String> {
    match (options.workload.as_str(), options.traced) {
        ("replay-archive", false) => replay::measure(options),
        ("replay-archive", true) => replay::trace(options),
        ("online-sampled", traced) => online::run(options, online::Engine::Sampled, traced),
        ("online-full", traced) => online::run(options, online::Engine::Full, traced),
        (other, _) => Err(format!(
            "unknown workload `{other}` (replay-archive, online-sampled, online-full)"
        )),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(CLI_MODE) => freshtrack_main(&args[1..]),
        Some(online::ITERATION_MODE) => online::iteration_main(&args[1..]),
        _ => {}
    }
    let result = Options::parse(&args).and_then(|options| {
        let outcome = run(&options)?;
        if options.traced {
            outcome.to_json(PER_LAYER, false)
        } else {
            outcome.to_json(END_TO_END, true)
        }
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_are_counted_not_fatal() {
        let mut tally = Tally::default();
        tally.check(true, "good");
        tally.check(false, "corrupted");
        tally.check(true, "good again");
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        let outcome = Outcome {
            tally,
            ..Outcome::default()
        };
        let line = outcome.to_json(&[], false).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn end_to_end_metrics_must_all_be_measured() {
        let mut outcome = Outcome::default();
        outcome.set("mevps", 1.5);
        assert!(outcome.to_json(END_TO_END, true).is_err());
        let line = outcome.to_json(PER_LAYER, false).unwrap();
        assert!(line.contains("\"trace.open_us\": {\"value\": 0, \"unit\": \"us\"}"));
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let spec = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + 3,
            "metrics plus three workloads"
        );
    }

    #[test]
    fn options_reject_missing_and_malformed_values() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = Options::parse(&args("--workload w --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.traced), (7, 2.0, true));
        assert!(Options::parse(&args("--workload w --seed 7 --seconds 2")).is_err());
        assert!(Options::parse(&args("--workload w --seed x --seconds 2 --trace 0")).is_err());
        assert!(Options::parse(&args("--workload w --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(Options::parse(&args("--workload w --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
