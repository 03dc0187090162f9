use freshtrack_trace::{Event, EventId};

use crate::{mix64, thread_position, Sampler};

/// LiteRace-style independent sampling: each access event is in `S` with
/// a fixed probability.
///
/// This is the strategy the paper's evaluation uses ("each read or write
/// access event is sampled independently with a fixed probability",
/// Section 6.1). Offline decisions depend only on `(seed, event
/// position)`, so every engine analyzing the same trace with the same
/// seed sees the same sample set regardless of what other work it does;
/// online ones on `(seed, thread, access ordinal)`.
///
/// # Example
///
/// ```
/// use freshtrack_sampling::{BernoulliSampler, Sampler};
/// use freshtrack_trace::{Event, EventId, EventKind, ThreadId, VarId};
///
/// let e = Event::new(ThreadId::new(0), EventKind::Read(VarId::new(0)));
/// let mut s = BernoulliSampler::new(1.0, 7);
/// assert!(s.sample(EventId::new(3), e)); // rate 1.0 samples everything
/// let mut never = BernoulliSampler::new(0.0, 7);
/// assert!(!never.sample(EventId::new(3), e));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BernoulliSampler {
    rate: f64,
    seed: u64,
    /// `⌈rate · 2⁵³⌉`, precomputed so `decide` is a pure integer
    /// compare on the skip path (no u64→f64 conversion per event).
    threshold: u64,
}

impl BernoulliSampler {
    /// Creates a sampler with the given rate in `[0, 1]` and seed.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a finite number in `[0, 1]`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(
            rate.is_finite() && (0.0..=1.0).contains(&rate),
            "sampling rate must be in [0, 1], got {rate}"
        );
        // Bit-exact with `to_unit(h) < rate`: the hash maps to the
        // 53-bit mantissa `m = h >> 11`, and both `m as f64` and the
        // division by 2⁵³ are exact, so `m / 2⁵³ < rate ⟺ m < rate·2⁵³
        // ⟺ m < ⌈rate·2⁵³⌉` (the last step because `m` is an integer;
        // when `rate·2⁵³` is itself an integer the ceiling is the
        // identity and strict `<` agrees). `rate·2⁵³` is computed
        // exactly too — scaling a finite f64 by a power of two only
        // shifts its exponent. Pinned against the f64 formula by
        // `integer_threshold_matches_f64_compare` below.
        let threshold = (rate * (1u64 << 53) as f64).ceil() as u64;
        BernoulliSampler {
            rate,
            seed,
            threshold,
        }
    }

    /// The configured sampling rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl BernoulliSampler {
    /// The decision at a position of the hashed space.
    #[inline]
    fn at(&self, position: u64) -> bool {
        mix64(self.seed ^ mix64(position)) >> 11 < self.threshold
    }
}

impl Sampler for BernoulliSampler {
    fn decide(&self, id: EventId, _event: Event) -> bool {
        self.at(id.as_u64())
    }

    /// Each access of each thread independently, with probability
    /// `rate`: the offline formula at the access's per-thread position.
    fn decide_in_thread(&self, ordinal: u64, event: Event) -> bool {
        self.at(thread_position(event.tid, ordinal))
    }

    fn nominal_rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_unit;
    use freshtrack_trace::{EventKind, ThreadId, VarId};

    fn access(i: u32) -> Event {
        Event::new(ThreadId::new(i % 4), EventKind::Write(VarId::new(i)))
    }

    #[test]
    fn empirical_rate_tracks_nominal() {
        for &rate in &[0.003, 0.03, 0.1, 0.5] {
            let mut s = BernoulliSampler::new(rate, 99);
            let n = 200_000;
            let hits = (0..n)
                .filter(|&i| s.sample(EventId::new(i), access(i as u32)))
                .count();
            let empirical = hits as f64 / n as f64;
            assert!(
                (empirical - rate).abs() < rate * 0.2 + 0.001,
                "rate {rate}: empirical {empirical}"
            );
        }
    }

    #[test]
    fn decisions_are_order_independent() {
        let mut forward = BernoulliSampler::new(0.3, 5);
        let mut backward = BernoulliSampler::new(0.3, 5);
        let fwd: Vec<bool> = (0..100)
            .map(|i| forward.sample(EventId::new(i), access(i as u32)))
            .collect();
        let mut bwd: Vec<bool> = (0..100)
            .rev()
            .map(|i| backward.sample(EventId::new(i), access(i as u32)))
            .collect();
        bwd.reverse();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn per_thread_rate_tracks_nominal_on_every_thread() {
        for &rate in &[0.03, 0.5] {
            let s = BernoulliSampler::new(rate, 99);
            for t in 0..4u32 {
                let n = 100_000;
                let hits = (0..n).filter(|&k| s.decide_in_thread(k, access(t))).count();
                let empirical = hits as f64 / n as f64;
                assert!(
                    (empirical - rate).abs() < rate * 0.2 + 0.001,
                    "rate {rate} thread {t}: empirical {empirical}"
                );
            }
        }
    }

    #[test]
    fn threads_draw_different_sequences() {
        let s = BernoulliSampler::new(0.5, 3);
        let of =
            |t: u32| -> Vec<bool> { (0..256).map(|k| s.decide_in_thread(k, access(t))).collect() };
        assert_ne!(of(0), of(1));
        assert_eq!(of(1), of(5), "access(i) is thread i % 4");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = BernoulliSampler::new(0.5, 1);
        let mut b = BernoulliSampler::new(0.5, 2);
        let same = (0..1000)
            .filter(|&i| {
                a.sample(EventId::new(i), access(i as u32))
                    == b.sample(EventId::new(i), access(i as u32))
            })
            .count();
        assert!(same < 1000);
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn rejects_out_of_range_rate() {
        let _ = BernoulliSampler::new(1.5, 0);
    }

    #[test]
    fn integer_threshold_matches_f64_compare() {
        // The precomputed-threshold decide must agree with the original
        // floating-point formulation on every event, including rates
        // whose 2⁵³-scaling is not an integer and the 0/1 endpoints.
        // Any divergence would silently change the sample set (and
        // with it every differential suite), so this is pinned hard.
        let rates = [
            0.0,
            1.0,
            0.003,
            0.03,
            0.1,
            0.5,
            1.0 / 3.0,
            f64::from_bits(0x3FEF_FFFF_FFFF_FFFF), // just below 1.0
            1e-12,
            5e-324, // smallest positive subnormal
        ];
        for (si, &rate) in rates.iter().enumerate() {
            let s = BernoulliSampler::new(rate, si as u64 * 77 + 1);
            for i in 0..50_000u64 {
                let id = EventId::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let via_f64 = to_unit(mix64(s.seed() ^ mix64(id.as_u64()))) < rate;
                assert_eq!(
                    s.decide(id, access(i as u32)),
                    via_f64,
                    "rate {rate} id {id:?}"
                );
            }
        }
    }
}
