//! Shared helpers for cross-detector differential conformance testing.
//!
//! The paper's central correctness claim (Lemmas 4, 7 and 8) is that the
//! naive sampling detector (Algorithm 2), Djit+ restricted to the sample
//! set (**ST**), the freshness engine (**SU**, Algorithm 3) and the
//! ordered-list engine (**SO**, Algorithm 4) report *exactly* the same
//! races for the same sample set — and that those races are exactly the
//! HB-races among sampled accesses, which [`HbOracle`] computes
//! independently in `O(N²)`. This crate packages that claim as reusable
//! assertions so every integration suite (differential conformance, CLI
//! smoke, future perf PRs) checks the same contract:
//!
//! * [`assert_sampling_engines_agree`] — the four sampling engines (plus
//!   SO without its local-epoch optimization) are report-identical.
//! * [`assert_fasttrack_first_race_agreement`] — FastTrack, whose epoch
//!   histories are lossy after a variable's first race, still agrees
//!   with Djit+ on the first race and on racy-or-not.
//! * [`assert_oracle_agreement`] — every reported event is truly racy
//!   among the sampled accesses, and the first report is the oracle's
//!   first racy event.
//! * [`assert_conformance`] — all of the above for one `(trace,
//!   sampler)` pair.
//! * [`assert_streaming_oracle_agreement`] — the bounded-memory
//!   [`StreamingOracle`] vs [`HbOracle`]: racy events exact at every
//!   window size, racy pairs a sound subset that becomes exact when the
//!   window covers the trace.
//! * [`workload_matrix`] / [`conformance_workload`] — seeded structured
//!   workloads across every [`Pattern`], sized so the quadratic oracle
//!   stays affordable.
//! * [`wide_workload`] — a trace whose thread ids and operands outgrow
//!   the short record encodings, for the segment decoder's fast path.
//! * [`run_online_trace`] / [`run_sharded_trace`] /
//!   [`assert_shard_equivalence`] — online ingestion (the
//!   single-mutex [`OnlineDetector`] and the
//!   [`ShardedOnlineDetector`]) vs a sequential
//!   [`Detector::run`]: identical reports and full [`Counters`]
//!   equality, for any shard count. Used by
//!   `crates/core/tests/{sharding,hoisted}.rs`.
//! * [`trace_from_fuel`] — the shared fuzz-trace interpreter: raw
//!   `(thread, action, operand)` fuel into a trace obeying the locking
//!   discipline (used by the proptest suites).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use freshtrack_core::{
    Counters, Detector, DjitDetector, FastTrackDetector, FreshnessDetector, HbOracle,
    NaiveSamplingDetector, OnlineDetector, OracleConfig, OracleOutcome, OrderedListDetector,
    RaceReport, ShardedOnlineDetector, SplitDetector, StreamingOracle,
};
use freshtrack_sampling::Sampler;
use freshtrack_trace::{Trace, TraceBuilder, VarId};
use freshtrack_workloads::{generate, Pattern, WorkloadConfig};

/// Every structural workload pattern, in a stable order.
pub const ALL_PATTERNS: [Pattern; 6] = [
    Pattern::Mixed,
    Pattern::ProducerConsumer,
    Pattern::Pipeline,
    Pattern::ForkJoin,
    Pattern::BarrierPhases,
    Pattern::LockLadder,
];

/// A short stable name for a pattern, for assertion labels.
pub fn pattern_name(pattern: Pattern) -> &'static str {
    match pattern {
        Pattern::Mixed => "mixed",
        Pattern::ProducerConsumer => "producer_consumer",
        Pattern::Pipeline => "pipeline",
        Pattern::ForkJoin => "fork_join",
        Pattern::BarrierPhases => "barrier_phases",
        Pattern::LockLadder => "lock_ladder",
    }
}

/// Generates the conformance workload for one `(pattern, seed)` cell.
///
/// The knobs deviate from the generator defaults in two ways: a raised
/// unprotected fraction so most cells actually contain races (agreement
/// on empty reports is a much weaker check), and a bounded event count
/// because [`HbOracle`] is quadratic in the trace length.
pub fn conformance_workload(pattern: Pattern, seed: u64, events: usize) -> Trace {
    let trace = generate(
        &WorkloadConfig::named(pattern_name(pattern))
            .pattern(pattern)
            .events(events)
            .threads(5)
            .locks(4)
            .vars(24)
            .unprotected(0.08)
            .seed(seed),
    );
    assert!(
        trace.validate().is_ok(),
        "generator produced an invalid trace for {}/{seed}",
        pattern_name(pattern)
    );
    trace
}

/// The full differential matrix: every pattern × every seed, labelled
/// `pattern/seed`.
pub fn workload_matrix(events: usize, seeds: &[u64]) -> Vec<(String, Trace)> {
    let mut cells = Vec::with_capacity(ALL_PATTERNS.len() * seeds.len());
    for &pattern in &ALL_PATTERNS {
        for &seed in seeds {
            cells.push((
                format!("{}/{seed}", pattern_name(pattern)),
                conformance_workload(pattern, seed, events),
            ));
        }
    }
    cells
}

/// A mixed workload of 200 threads, 20,000 variables and 40 locks (the
/// CLI's `generate --threads 200 --vars 20000 --locks 40`). Thread ids
/// from 128 up take a two-byte varint and operands from 16,384 up a
/// three-byte one, so the segment decoder's fast path hands such
/// records to the record grammar in the middle of real segments.
pub fn wide_workload(events: usize, seed: u64) -> Trace {
    generate(
        &WorkloadConfig::named("wide")
            .threads(200)
            .vars(20_000)
            .locks(40)
            .events(events)
            .seed(seed),
    )
}

/// Runs the four sampling engines (and SO without the local-epoch
/// optimization) over `trace` with clones of `sampler`, asserting their
/// race reports are identical, and returns the common report list.
///
/// This is the executable form of the paper's Lemmas 4, 7 and 8.
pub fn assert_sampling_engines_agree<S: Sampler + Clone>(
    label: &str,
    trace: &Trace,
    sampler: S,
) -> Vec<RaceReport> {
    let reference = NaiveSamplingDetector::new(sampler.clone()).run(trace);
    let st = DjitDetector::new(sampler.clone()).run(trace);
    let su = FreshnessDetector::new(sampler.clone()).run(trace);
    let so = OrderedListDetector::new(sampler.clone()).run(trace);
    let so_plain = OrderedListDetector::with_options(sampler, false).run(trace);
    assert_eq!(reference, st, "[{label}] ST (Djit+ on S) vs Algorithm 2");
    assert_eq!(reference, su, "[{label}] SU (Algorithm 3) vs Algorithm 2");
    assert_eq!(reference, so, "[{label}] SO (Algorithm 4) vs Algorithm 2");
    assert_eq!(
        reference, so_plain,
        "[{label}] SO without epoch opt vs Algorithm 2"
    );
    reference
}

/// Asserts FastTrack's agreement contract with Djit+ under the same
/// sample set: identical first race (FastTrack is precise for the first
/// race on each variable) and identical racy-or-not verdict.
pub fn assert_fasttrack_first_race_agreement<S: Sampler + Clone>(
    label: &str,
    trace: &Trace,
    sampler: S,
) {
    let djit = DjitDetector::new(sampler.clone()).run(trace);
    let ft = FastTrackDetector::new(sampler.clone()).run(trace);
    assert_eq!(
        djit.first().map(|r| r.event),
        ft.first().map(|r| r.event),
        "[{label}] FastTrack vs Djit+ first race"
    );
    assert_eq!(
        djit.is_empty(),
        ft.is_empty(),
        "[{label}] FastTrack vs Djit+ racy-or-not"
    );
    // Per-event soundness: FastTrack reports only truly racy events.
    let oracle = HbOracle::new(trace);
    let mask = HbOracle::sample_mask(trace, sampler);
    let racy = oracle.racy_events(&mask);
    for report in &ft {
        assert!(
            racy.contains(&report.event),
            "[{label}] FastTrack reported non-racy event {}",
            report.event
        );
    }
}

/// Asserts the common sampling-engine report list agrees with the
/// ground-truth [`HbOracle`] on the sampled accesses: every reported
/// event is truly racy, and the first report is the oracle's first racy
/// event (so detection is not just sound but catches the earliest race).
pub fn assert_oracle_agreement<S: Sampler + Clone>(
    label: &str,
    trace: &Trace,
    sampler: S,
    reports: &[RaceReport],
) {
    let oracle = HbOracle::new(trace);
    let mask = HbOracle::sample_mask(trace, sampler);
    let racy = oracle.racy_events(&mask);
    for report in reports {
        assert!(
            racy.contains(&report.event),
            "[{label}] detector reported non-racy event {} (racy: {racy:?})",
            report.event
        );
    }
    assert_eq!(
        reports.first().map(|r| r.event),
        racy.first().copied(),
        "[{label}] first report vs oracle's first racy event"
    );
}

/// The full conformance pipeline for one `(trace, sampler)` pair: the
/// five detectors' mutual agreement contracts plus oracle agreement.
/// Returns the common sampling-engine report list.
pub fn assert_conformance<S: Sampler + Clone>(
    label: &str,
    trace: &Trace,
    sampler: S,
) -> Vec<RaceReport> {
    let reports = assert_sampling_engines_agree(label, trace, sampler.clone());
    assert_fasttrack_first_race_agreement(label, trace, sampler.clone());
    assert_oracle_agreement(label, trace, sampler, &reports);
    reports
}

/// Runs a [`StreamingOracle`] with `config` over `trace` and asserts
/// its full agreement contract against the materializing [`HbOracle`]:
///
/// * **Racy events are exact for every window size** — the streamed
///   [`OracleOutcome::racy_events`] ids equal
///   [`HbOracle::racy_events`], and each carries the trace's own event
///   payload.
/// * **Window pairs are a sound subset** of [`HbOracle::racy_pairs`],
///   and **equal** (same order) whenever `config.window` covers the
///   trace; reservoir pairs (if enabled) are likewise a subset, and the
///   merged [`OracleOutcome::pairs`] stays exact under windows that
///   cover.
/// * The sampled-access count matches the oracle's sample mask, and
///   races detected only via clock checkpoints can occur only once
///   eviction has actually happened.
///
/// Returns the streamed outcome for further inspection.
pub fn assert_streaming_oracle_agreement<S: Sampler + Clone>(
    label: &str,
    trace: &Trace,
    sampler: S,
    config: OracleConfig,
) -> OracleOutcome {
    let oracle = HbOracle::new(trace);
    let mask = HbOracle::sample_mask(trace, sampler.clone());
    let expected_events = oracle.racy_events(&mask);
    let expected_pairs = oracle.racy_pairs(&mask);

    let outcome = StreamingOracle::new(sampler, config)
        .run_source(&mut trace.source())
        .unwrap_or_else(|e| panic!("[{label}] valid trace failed to stream: {e}"));
    let w = config.window;

    assert_eq!(
        outcome.racy_ids(),
        expected_events,
        "[{label}] w={w} streamed racy events vs HbOracle"
    );
    for &(id, event) in &outcome.racy_events {
        assert_eq!(
            event,
            trace.event(id),
            "[{label}] w={w} racy event {id} carries the wrong payload"
        );
    }

    let truth: std::collections::HashSet<_> = expected_pairs.iter().copied().collect();
    for pair in outcome.window_pairs.iter().chain(&outcome.reservoir_pairs) {
        assert!(
            truth.contains(pair),
            "[{label}] w={w} reported non-racy pair {pair:?}"
        );
    }
    if w >= trace.len() {
        assert_eq!(
            outcome.window_pairs, expected_pairs,
            "[{label}] w={w} covers the trace, window pairs must be exact"
        );
        assert_eq!(
            outcome.pairs(),
            expected_pairs,
            "[{label}] w={w} merged pairs must stay exact under a covering window"
        );
        assert_eq!(
            outcome.stats.evictions, 0,
            "[{label}] w={w} covering window must not evict"
        );
    }

    let sampled = mask.iter().filter(|&&s| s).count() as u64;
    assert_eq!(
        outcome.stats.sampled_accesses, sampled,
        "[{label}] w={w} sampled-access count vs oracle mask"
    );
    if outcome.stats.summarized_races > 0 {
        assert!(
            outcome.stats.evictions > 0,
            "[{label}] w={w} checkpoint-only races require evictions"
        );
    }
    outcome
}

/// Interprets raw fuzz fuel — `(thread, action, operand)` triples —
/// into a trace that satisfies the locking discipline: acquires only of
/// free locks, releases only of locks held by the acting thread;
/// everything else becomes an access. This is the shared trace
/// interpreter behind the property-based suites (`equivalence.rs`,
/// `sharding.rs`), so every fuzzer explores the same event space.
pub fn trace_from_fuel(fuel: &[(u8, u8, u8)], threads: u8, locks: u8, vars: u8) -> Trace {
    assert!(threads > 0 && locks > 0 && vars > 0, "empty fuel domain");
    let mut b = TraceBuilder::new();
    let var_ids: Vec<VarId> = (0..vars).map(|v| b.var(&format!("x{v}"))).collect();
    let lock_ids: Vec<_> = (0..locks).map(|l| b.lock(&format!("l{l}"))).collect();
    // holder[l] = Some(t) while lock l is held.
    let mut holder: Vec<Option<u8>> = vec![None; locks as usize];

    for &(t, action, operand) in fuel {
        let t = t % threads;
        match action % 4 {
            0 => {
                // Try to acquire `operand % locks` if free.
                let l = (operand % locks) as usize;
                if holder[l].is_none() {
                    holder[l] = Some(t);
                    b.acquire(t as u32, lock_ids[l]);
                } else {
                    b.read(t as u32, var_ids[(operand % vars) as usize]);
                }
            }
            1 => {
                // Release some lock this thread holds, if any.
                if let Some(l) = holder.iter().position(|&h| h == Some(t)) {
                    holder[l] = None;
                    b.release(t as u32, lock_ids[l]);
                } else {
                    b.write(t as u32, var_ids[(operand % vars) as usize]);
                }
            }
            2 => {
                b.read(t as u32, var_ids[(operand % vars) as usize]);
            }
            _ => {
                b.write(t as u32, var_ids[(operand % vars) as usize]);
            }
        }
    }
    // Traces need not release held locks at the end (prefix semantics),
    // so we leave them held.
    b.build()
}

/// Feeds `trace` event by event through the single-mutex
/// [`OnlineDetector`] wrapping `detector`, returning its
/// (EventId-sorted) reports and the detector's counters.
pub fn run_online_trace<D: Detector>(trace: &Trace, detector: D) -> (Vec<RaceReport>, Counters) {
    let online = OnlineDetector::new(detector);
    for (_, event) in trace.iter() {
        online.on_event(event.tid.as_u32(), event.kind);
    }
    let (detector, reports) = online.finish();
    (reports, *detector.counters())
}

/// Feeds `trace` event by event through a [`ShardedOnlineDetector`]
/// with `shards` access shards built from `detector`, returning the
/// merged (EventId-sorted) reports and the aggregated counters.
///
/// The sequential feed assigns ticket ids in trace order, so the
/// sharded run analyzes exactly the given trace — the deterministic
/// setting the equivalence assertions need.
pub fn run_sharded_trace<D: SplitDetector>(
    trace: &Trace,
    detector: D,
    shards: usize,
) -> (Vec<RaceReport>, Counters) {
    let sharded = ShardedOnlineDetector::new(detector, shards);
    for (_, event) in trace.iter() {
        sharded.on_event(event.tid.as_u32(), event.kind);
    }
    sharded.finish_merged()
}

/// Asserts that online ingestion is verdict-preserving for one
/// `(trace, detector)` pair: the single-mutex [`OnlineDetector`] and,
/// for every shard count in `shard_counts`, the
/// [`ShardedOnlineDetector`] report exactly the
/// races of a sequential [`Detector::run`] (same order — all are
/// EventId-sorted) with **full** [`Counters`] equality. The sync plane
/// performs the monolith's clock work exactly once and the access
/// shards partition the per-variable work, so no field is exempt.
///
/// Returns the common report list.
pub fn assert_shard_equivalence<D: SplitDetector>(
    label: &str,
    trace: &Trace,
    detector: D,
    shard_counts: &[usize],
) -> Vec<RaceReport> {
    let mut baseline = detector.clone();
    let baseline_reports = baseline.run(trace);
    let expected = *baseline.counters();
    let (reports, counters) = run_online_trace(trace, detector.clone());
    assert_eq!(reports, baseline_reports, "[{label}] single-mutex reports");
    assert_eq!(counters, expected, "[{label}] single-mutex counters");
    for &shards in shard_counts {
        let (reports, merged) = run_sharded_trace(trace, detector.clone(), shards);
        assert_eq!(
            reports, baseline_reports,
            "[{label}] sharded(N={shards}) reports"
        );
        assert_eq!(merged, expected, "[{label}] sharded(N={shards}) counters");
    }
    baseline_reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshtrack_sampling::AlwaysSampler;

    #[test]
    fn matrix_covers_every_pattern_and_seed() {
        let cells = workload_matrix(300, &[1, 2]);
        assert_eq!(cells.len(), ALL_PATTERNS.len() * 2);
        for (label, trace) in &cells {
            assert!(!trace.events().is_empty(), "{label} generated empty trace");
        }
    }

    #[test]
    fn conformance_passes_on_a_known_racy_trace() {
        use freshtrack_trace::TraceBuilder;
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.write(0, x);
        b.write(1, x);
        let trace = b.build();
        let reports = assert_conformance("unit", &trace, AlwaysSampler::new());
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn fuel_interpreter_obeys_locking_discipline() {
        let fuel: Vec<(u8, u8, u8)> = (0..200u16)
            .map(|i| (i as u8, (i / 3) as u8, (i / 7) as u8))
            .collect();
        let trace = trace_from_fuel(&fuel, 4, 3, 3);
        assert!(trace.validate().is_ok());
        assert!(!trace.events().is_empty());
    }

    #[test]
    fn shard_equivalence_holds_on_a_structured_cell() {
        let trace = conformance_workload(Pattern::Mixed, 5, 400);
        let reports = assert_shard_equivalence(
            "unit",
            &trace,
            DjitDetector::new(AlwaysSampler::new()),
            &[1, 3],
        );
        assert!(!reports.is_empty(), "mixed/5 should contain races");
    }

    #[test]
    #[should_panic(expected = "reported non-racy event")]
    fn oracle_agreement_rejects_fabricated_reports() {
        use freshtrack_trace::TraceBuilder;
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        b.acquire(0, l).write(0, x).release(0, l);
        b.acquire(1, l).write(1, x).release(1, l);
        let trace = b.build();
        // The trace is race-free, so claiming a race must trip the check.
        let fake = DjitDetector::new(AlwaysSampler::new()).run(&{
            let mut r = TraceBuilder::new();
            let y = r.var("x");
            r.write(0, y);
            r.write(1, y);
            r.build()
        });
        assert_oracle_agreement("unit", &trace, AlwaysSampler::new(), &fake);
    }
}
