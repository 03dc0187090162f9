//! Property-based tests for sampler determinism.
//!
//! The offline evaluation's apples-to-apples guarantee (and the paper's
//! "same sample set ⇒ same races" theorems as exercised by the
//! differential harness) rests on one property: every sampler is a
//! **deterministic function of its construction parameters**, and the
//! randomized ones depend only on `(seed, event position)` offline and on
//! `(seed, thread, access ordinal)` online — not on query order, not on
//! the event payload, not on global state. These tests pin
//! that contract down, extending the model-based style of
//! `crates/clock/tests/proptests.rs` to the sampling crate.

use freshtrack_sampling::{
    AlwaysSampler, BernoulliSampler, NeverSampler, PeriodicSampler, Sampler, TargetedSampler,
};
use freshtrack_trace::{Event, EventId, EventKind, ThreadId, VarId};
use proptest::prelude::*;

/// An access event with an arbitrary payload (the samplers under test
/// must not let the payload influence position-based decisions).
fn access(tid: u32, var: u32, write: bool) -> Event {
    let kind = if write {
        EventKind::Write(VarId::new(var))
    } else {
        EventKind::Read(VarId::new(var))
    };
    Event::new(ThreadId::new(tid), kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two Bernoulli samplers with the same `(rate, seed)` produce the
    /// same sample set — even when one is queried in reverse order,
    /// because decisions depend only on `(seed, position)`.
    #[test]
    fn bernoulli_same_seed_same_sample_set_in_any_order(
        ids in prop::collection::vec(any::<u64>(), 1..200),
        seed in any::<u64>(),
        rate in 0.0f64..1.0,
    ) {
        let mut forward = BernoulliSampler::new(rate, seed);
        let mut backward = BernoulliSampler::new(rate, seed);
        let fwd: Vec<bool> = ids
            .iter()
            .map(|&i| forward.sample(EventId::new(i), access(0, 0, true)))
            .collect();
        let mut bwd: Vec<bool> = ids
            .iter()
            .rev()
            .map(|&i| backward.sample(EventId::new(i), access(1, 7, false)))
            .collect();
        bwd.reverse();
        prop_assert_eq!(fwd, bwd);
    }

    /// Re-running a whole sample-set computation from scratch reproduces
    /// it bit for bit (the determinism the offline harness relies on to
    /// hand *identical* sample sets to every engine).
    #[test]
    fn bernoulli_runs_are_reproducible(
        n in 1usize..500,
        seed in any::<u64>(),
        rate in 0.0f64..1.0,
    ) {
        let run = |mut s: BernoulliSampler| -> Vec<bool> {
            (0..n as u64)
                .map(|i| s.sample(EventId::new(i), access(i as u32 % 3, i as u32 % 5, i % 2 == 0)))
                .collect()
        };
        prop_assert_eq!(
            run(BernoulliSampler::new(rate, seed)),
            run(BernoulliSampler::new(rate, seed))
        );
    }

    /// The event payload (thread, variable, read/write) never influences
    /// a position-based decision.
    #[test]
    fn bernoulli_ignores_event_payload(
        id in any::<u64>(),
        seed in any::<u64>(),
        rate in 0.0f64..1.0,
        tid in 0u32..64,
        var in 0u32..1024,
        write in any::<bool>(),
    ) {
        let mut a = BernoulliSampler::new(rate, seed);
        let mut b = BernoulliSampler::new(rate, seed);
        prop_assert_eq!(
            a.sample(EventId::new(id), access(0, 0, true)),
            b.sample(EventId::new(id), access(tid, var, write))
        );
    }

    /// Rate 0 samples nothing; rate 1 samples everything.
    #[test]
    fn bernoulli_rate_extremes(
        ids in prop::collection::vec(any::<u64>(), 1..100),
        seed in any::<u64>(),
    ) {
        let mut never = BernoulliSampler::new(0.0, seed);
        let mut always = BernoulliSampler::new(1.0, seed);
        for &i in &ids {
            prop_assert!(!never.sample(EventId::new(i), access(0, 0, true)));
            prop_assert!(always.sample(EventId::new(i), access(0, 0, true)));
        }
    }

    /// Periodic decisions are constant within a window and reproducible
    /// across instances with the same `(rate, period, seed)`.
    #[test]
    fn periodic_is_constant_within_windows_and_reproducible(
        id in any::<u64>(),
        period in 1u64..1_000,
        seed in any::<u64>(),
        rate in 0.0f64..1.0,
    ) {
        let mut a = PeriodicSampler::new(rate, period, seed);
        let mut b = PeriodicSampler::new(rate, period, seed);
        let window_start = (id / period) * period;
        prop_assert_eq!(
            a.sample(EventId::new(id), access(0, 0, true)),
            b.sample(EventId::new(window_start), access(2, 3, false))
        );
    }

    /// The targeted sampler is a pure membership test on the accessed
    /// location: position, order and seed play no role.
    #[test]
    fn targeted_samples_exactly_the_target_set(
        targets in prop::collection::vec(0u32..64, 0..12),
        queries in prop::collection::vec((any::<u64>(), 0u32..64, any::<bool>()), 0..100),
    ) {
        let mut s = TargetedSampler::new(targets.iter().copied().map(VarId::new));
        for &(id, var, write) in &queries {
            let expected = targets.contains(&var);
            prop_assert_eq!(
                s.sample(EventId::new(id), access(0, var, write)),
                expected,
                "var {} (targets {:?})", var, targets
            );
        }
    }

    /// The degenerate samplers are constant functions, and nominal rates
    /// are consistent with behaviour.
    #[test]
    fn degenerate_samplers_are_constant(
        ids in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let mut always = AlwaysSampler::new();
        let mut never = NeverSampler::new();
        for &i in &ids {
            prop_assert!(always.sample(EventId::new(i), access(0, 0, false)));
            prop_assert!(!never.sample(EventId::new(i), access(0, 0, false)));
        }
        prop_assert_eq!(always.nominal_rate(), 1.0);
        prop_assert_eq!(never.nominal_rate(), 0.0);
    }

    /// The online rule is a function of `(seed, thread, ordinal)`: the
    /// access's payload and the order of queries do not move it, so a
    /// thread's sample set is fixed by its program alone.
    #[test]
    fn per_thread_rule_depends_on_thread_and_ordinal_only(
        ordinals in prop::collection::vec(any::<u64>(), 1..100),
        tid in 0u32..64,
        seed in any::<u64>(),
        rate in 0.0f64..1.0,
        period in 1u64..64,
    ) {
        let bernoulli = BernoulliSampler::new(rate, seed);
        let periodic = PeriodicSampler::new(rate, period, seed);
        for &k in &ordinals {
            let a = access(tid, 0, true);
            let b = access(tid, 9, false);
            prop_assert_eq!(bernoulli.decide_in_thread(k, a), bernoulli.decide_in_thread(k, b));
            prop_assert_eq!(periodic.decide_in_thread(k, a), periodic.decide_in_thread(k, b));
            prop_assert_eq!(
                periodic.decide_in_thread(k, a),
                periodic.decide_in_thread(k / period * period, b)
            );
        }
        let forward: Vec<bool> = ordinals
            .iter()
            .map(|&k| bernoulli.decide_in_thread(k, access(tid, 1, true)))
            .collect();
        let mut backward: Vec<bool> = ordinals
            .iter()
            .rev()
            .map(|&k| bernoulli.decide_in_thread(k, access(tid, 1, true)))
            .collect();
        backward.reverse();
        prop_assert_eq!(forward, backward);
    }
}
