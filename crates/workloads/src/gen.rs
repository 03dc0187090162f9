use freshtrack_trace::Trace;

use crate::patterns;
use crate::stream::MixedSource;

/// The structural pattern a generated workload follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Pattern {
    /// Threads run independent lock-protected sessions with occasional
    /// unprotected accesses (the general "server" shape).
    #[default]
    Mixed,
    /// Producers and consumers exchanging items through a shared,
    /// lock-protected buffer.
    ProducerConsumer,
    /// A linear pipeline: each stage hands work to the next through a
    /// dedicated lock.
    Pipeline,
    /// A main thread forks workers, they compute, main joins them.
    ForkJoin,
    /// Alternating compute/sync phases over a barrier-like lock chain.
    BarrierPhases,
    /// The nested lock-ladder of the paper's Fig. 1, generalized.
    LockLadder,
}

/// The largest sync-event fraction the generator produces: it always
/// leaves room for accesses.
pub const MAX_SYNC_RATIO: f64 = 0.95;

/// Parameters of a synthetic workload.
///
/// Build one fluently from [`WorkloadConfig::named`]; every knob has a
/// reasonable default. The same config (including seed) always generates
/// the same trace.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Display name (used in experiment reports).
    pub name: String,
    /// Number of threads.
    pub n_threads: u32,
    /// Number of application locks.
    pub n_locks: u32,
    /// Number of shared memory locations.
    pub n_vars: u32,
    /// Approximate number of events to generate.
    pub n_events: usize,
    /// Fraction of events that are synchronization events (acquire +
    /// release), for patterns that honour it.
    pub sync_ratio: f64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Probability that a thread reuses its previously used lock rather
    /// than picking a fresh one (lock locality / contention knob).
    pub lock_locality: f64,
    /// Fraction of accesses directed at a small "hot" location set.
    pub hot_fraction: f64,
    /// Fraction of accesses performed outside any critical section
    /// (the race-prone portion).
    pub unprotected_fraction: f64,
    /// RNG seed.
    pub rng_seed: u64,
    /// Structural pattern.
    pub pattern: Pattern,
}

impl WorkloadConfig {
    /// Creates a config with defaults: 4 threads, 8 locks, 64 vars,
    /// 10 000 events, 30% sync, 40% writes, mixed pattern.
    pub fn named(name: &str) -> Self {
        WorkloadConfig {
            name: name.to_owned(),
            n_threads: 4,
            n_locks: 8,
            n_vars: 64,
            n_events: 10_000,
            sync_ratio: 0.3,
            write_fraction: 0.4,
            lock_locality: 0.5,
            hot_fraction: 0.1,
            unprotected_fraction: 0.02,
            rng_seed: 0,
            pattern: Pattern::Mixed,
        }
    }

    /// Sets the thread count (at least 1; 0 becomes 1).
    pub fn threads(mut self, n: u32) -> Self {
        self.n_threads = n.max(1);
        self
    }

    /// Sets the lock count (at least 1; 0 becomes 1).
    pub fn locks(mut self, n: u32) -> Self {
        self.n_locks = n.max(1);
        self
    }

    /// Sets the shared-location count (at least 1; 0 becomes 1).
    pub fn vars(mut self, n: u32) -> Self {
        self.n_vars = n.max(1);
        self
    }

    /// Sets the approximate event count.
    pub fn events(mut self, n: usize) -> Self {
        self.n_events = n;
        self
    }

    /// Sets the sync-event fraction, clamped to
    /// `[0, `[`MAX_SYNC_RATIO`]`]`.
    pub fn sync_ratio(mut self, r: f64) -> Self {
        self.sync_ratio = r.clamp(0.0, MAX_SYNC_RATIO);
        self
    }

    /// Sets the write fraction of accesses.
    pub fn write_fraction(mut self, r: f64) -> Self {
        self.write_fraction = r.clamp(0.0, 1.0);
        self
    }

    /// Sets the lock-locality probability.
    pub fn lock_locality(mut self, r: f64) -> Self {
        self.lock_locality = r.clamp(0.0, 1.0);
        self
    }

    /// Sets the hot-location access fraction.
    pub fn hot_fraction(mut self, r: f64) -> Self {
        self.hot_fraction = r.clamp(0.0, 1.0);
        self
    }

    /// Sets the unprotected (race-prone) access fraction.
    pub fn unprotected(mut self, r: f64) -> Self {
        self.unprotected_fraction = r.clamp(0.0, 1.0);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Sets the structural pattern.
    pub fn pattern(mut self, pattern: Pattern) -> Self {
        self.pattern = pattern;
        self
    }
}

/// Generates a trace from a workload configuration.
///
/// The output always satisfies the locking discipline
/// ([`Trace::validate`] succeeds) and is a deterministic function of the
/// config. For the mixed pattern this materializes the lazy
/// [`MixedSource`] event stream — [`crate::stream`] exposes the same
/// events without ever building the vector.
pub fn generate(config: &WorkloadConfig) -> Trace {
    match config.pattern {
        Pattern::Mixed => Trace::from_source(&mut MixedSource::new(config))
            .expect("workload generation is infallible"),
        Pattern::ProducerConsumer => patterns::producer_consumer(config),
        Pattern::Pipeline => patterns::pipeline(config),
        Pattern::ForkJoin => patterns::fork_join(config),
        Pattern::BarrierPhases => patterns::barrier_phases(config),
        Pattern::LockLadder => patterns::lock_ladder(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_size_approximately() {
        let trace = generate(&WorkloadConfig::named("t").events(5_000));
        assert!(trace.len() >= 5_000);
        assert!(trace.len() < 5_200);
    }

    #[test]
    fn traces_satisfy_locking_discipline() {
        for pattern in [
            Pattern::Mixed,
            Pattern::ProducerConsumer,
            Pattern::Pipeline,
            Pattern::ForkJoin,
            Pattern::BarrierPhases,
            Pattern::LockLadder,
        ] {
            let config = WorkloadConfig::named("t")
                .events(3_000)
                .threads(5)
                .pattern(pattern)
                .seed(3);
            let trace = generate(&config);
            assert!(trace.validate().is_ok(), "{pattern:?}");
            assert!(trace.len() > 100, "{pattern:?} too small");
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let c = WorkloadConfig::named("t").events(2_000).seed(42);
        let a = generate(&c);
        let b = generate(&c);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&WorkloadConfig::named("t").events(2_000).seed(1));
        let b = generate(&WorkloadConfig::named("t").events(2_000).seed(2));
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn sync_ratio_is_roughly_honoured() {
        for &target in &[0.1, 0.3, 0.6] {
            let trace = generate(
                &WorkloadConfig::named("t")
                    .events(30_000)
                    .sync_ratio(target)
                    .unprotected(0.0),
            );
            let actual = trace.stats().sync_ratio();
            assert!(
                (actual - target).abs() < target * 0.5 + 0.05,
                "target {target}, actual {actual}"
            );
        }
    }

    #[test]
    fn unprotected_knob_creates_races() {
        use freshtrack_core::{Detector, DjitDetector};
        use freshtrack_sampling::AlwaysSampler;
        let racy = generate(
            &WorkloadConfig::named("t")
                .events(5_000)
                .unprotected(0.2)
                .hot_fraction(0.8),
        );
        let races = DjitDetector::new(AlwaysSampler::new()).run(&racy);
        assert!(!races.is_empty());
    }
}
