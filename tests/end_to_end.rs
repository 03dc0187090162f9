//! End-to-end integration tests across the whole workspace, through the
//! umbrella crate's public API.

use std::sync::Arc;

use freshtrack::core::{
    Detector, DjitDetector, FastTrackDetector, FreshnessDetector, HbOracle, OrderedListDetector,
};
use freshtrack::dbsim::{run_benchmark, DetectorInstrument, NoInstrument, RunOptions};
use freshtrack::rapid::{run_engine, run_offline, EngineConfig, EngineKind};
use freshtrack::sampling::{AlwaysSampler, BernoulliSampler};
use freshtrack::trace::{read_trace, write_trace};
use freshtrack::workloads::{benchbase, corpus, generate, patterns, Pattern, WorkloadConfig};

#[test]
fn workload_to_engines_to_oracle() {
    // Generate → analyze with every engine → validate against the oracle.
    let trace = generate(
        &WorkloadConfig::named("e2e")
            .events(3_000)
            .threads(5)
            .unprotected(0.05)
            .seed(99),
    );
    assert!(trace.validate().is_ok());

    let sampler = BernoulliSampler::new(0.4, 17);
    let so = OrderedListDetector::new(sampler).run(&trace);
    let su = FreshnessDetector::new(sampler).run(&trace);
    let st = DjitDetector::new(sampler).run(&trace);
    assert_eq!(so, su);
    assert_eq!(so, st);

    let oracle = HbOracle::new(&trace);
    let mask = HbOracle::sample_mask(&trace, sampler);
    let racy = oracle.racy_events(&mask);
    for report in &so {
        assert!(racy.contains(&report.event));
    }
    assert_eq!(so.first().map(|r| r.event), racy.first().copied());
}

#[test]
fn trace_io_round_trip_preserves_analysis() {
    let trace = generate(
        &WorkloadConfig::named("io")
            .events(2_000)
            .unprotected(0.05)
            .seed(3),
    );
    let text = write_trace(&trace);
    let parsed = read_trace(&text).expect("round trip parses");
    assert_eq!(trace.len(), parsed.len());

    // The reader interns ids in first-use order, which may differ from
    // the builder's interning order, so compare by event position.
    let a: Vec<_> = OrderedListDetector::new(AlwaysSampler::new())
        .run(&trace)
        .iter()
        .map(|r| r.event)
        .collect();
    let b: Vec<_> = OrderedListDetector::new(AlwaysSampler::new())
        .run(&parsed)
        .iter()
        .map(|r| r.event)
        .collect();
    assert_eq!(a, b);
}

#[test]
fn fig1_example_runs_through_all_engines() {
    let (trace, marks) = patterns::fig1_trace();
    #[derive(Clone)]
    struct Marked(Vec<usize>);
    impl freshtrack::sampling::Sampler for Marked {
        fn decide(&self, id: freshtrack::trace::EventId, _e: freshtrack::trace::Event) -> bool {
            self.0.contains(&id.index())
        }
        fn decide_in_thread(&self, _ordinal: u64, _e: freshtrack::trace::Event) -> bool {
            unreachable!("offline-only test sampler")
        }
        fn nominal_rate(&self) -> f64 {
            f64::NAN
        }
    }
    let mut su = FreshnessDetector::new(Marked(marks.clone()));
    let su_reports = su.run(&trace);
    let mut so = OrderedListDetector::new(Marked(marks));
    let so_reports = so.run(&trace);
    assert_eq!(su_reports, so_reports);
    // Only {e5, e15, e16} are sampled, all by T0: no sampled pair races.
    assert!(su_reports.is_empty());
    // Fig. 2: of T1's four acquires, two (e12, e14) are skipped; T0's
    // four acquires of never-released locks are trivially skipped.
    assert_eq!(su.counters().acquires_skipped, 6);
    assert_eq!(so.counters().acquires_skipped, 6);
}

#[test]
fn online_and_offline_find_the_same_seeded_bug_class() {
    let mut workload = benchbase::by_name("smallbank").unwrap();
    workload.unprotected_fraction = 0.05;
    let options = RunOptions {
        workers: 4,
        txns_per_worker: 150,
        seed: 5,
    };
    let inst = Arc::new(DetectorInstrument::new(FastTrackDetector::new(
        AlwaysSampler::new(),
    )));
    run_benchmark(&workload, &options, inst.clone());
    let (_, reports) = Arc::try_unwrap(inst).ok().unwrap().finish();
    assert!(!reports.is_empty(), "online run must find the seeded races");

    // The offline corpus generator also seeds races at its default rate.
    let bench = corpus::by_name("readerswriters").unwrap();
    let trace = bench.trace(0.3, 1);
    let run = run_engine(&trace, &EngineConfig::new(EngineKind::FastTrack, 1.0, 1));
    assert!(!run.reports.is_empty());
}

#[test]
fn offline_runner_covers_benchmark_engine_product() {
    let benchmarks: Vec<_> = corpus::corpus().into_iter().take(3).collect();
    let engines = [
        EngineConfig::new(EngineKind::Su, 0.03, 0),
        EngineConfig::new(EngineKind::So, 0.03, 0),
        EngineConfig::new(EngineKind::Su, 1.0, 0),
        EngineConfig::new(EngineKind::So, 1.0, 0),
    ];
    let summaries = run_offline(&benchmarks, &engines, 2, 0.1);
    assert_eq!(summaries.len(), 12);
    for s in &summaries {
        assert_eq!(s.runs, 2);
        assert!(s.counters.events > 0);
        // The headline claim: plenty of sync work is skipped.
        assert!(
            s.counters.acquires_skipped > 0,
            "{}/{}",
            s.benchmark,
            s.engine
        );
    }
    // SU and SO report identical race counts per benchmark.
    for bench in &benchmarks {
        let per: Vec<_> = summaries
            .iter()
            .filter(|s| s.benchmark == bench.name && s.engine.contains("(3%)"))
            .map(|s| s.counters.races)
            .collect();
        assert_eq!(per[0], per[1], "{}", bench.name);
    }
}

#[test]
fn every_pattern_flows_through_so() {
    for pattern in [
        Pattern::Mixed,
        Pattern::ProducerConsumer,
        Pattern::Pipeline,
        Pattern::ForkJoin,
        Pattern::BarrierPhases,
        Pattern::LockLadder,
    ] {
        let trace = generate(
            &WorkloadConfig::named("p")
                .events(2_000)
                .threads(4)
                .pattern(pattern)
                .seed(8),
        );
        let sampler = BernoulliSampler::new(0.3, 4);
        let so = OrderedListDetector::new(sampler).run(&trace);
        let su = FreshnessDetector::new(sampler).run(&trace);
        assert_eq!(so, su, "{pattern:?}");
    }
}

#[test]
fn uninstrumented_database_run_is_fast_path() {
    let workload = benchbase::by_name("voter").unwrap();
    let options = RunOptions {
        workers: 2,
        txns_per_worker: 50,
        seed: 0,
    };
    let stats = run_benchmark(&workload, &options, Arc::new(NoInstrument));
    assert_eq!(stats.transactions, 100);
}
