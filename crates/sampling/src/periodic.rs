use freshtrack_trace::{Event, EventId};

use crate::{mix64, thread_position, to_unit, Sampler};

/// Pacer-style alternating sampling periods.
///
/// Pacer (Bond et al., PLDI 2010) divides the execution into fixed-length
/// periods and makes each period a *sampling period* with probability
/// equal to the target rate; during a sampling period every access is
/// observed, outside none are. This gives the same expected rate as
/// Bernoulli sampling but with strong temporal locality, which changes
/// how much redundant synchronization the freshness timestamp can skip —
/// an interesting contrast the paper's related-work section discusses.
///
/// Offline, periods are measured in trace positions, so decisions remain
/// pure functions of `(seed, position)`. Online
/// ([`Sampler::decide_in_thread`]), each thread has its own periods,
/// measured in its own accesses: thread `t`'s `k`-th access lies in its
/// window `k / period`, and each `(t, window)` is a sampling period with
/// probability `rate`.
///
/// # Example
///
/// ```
/// use freshtrack_sampling::{PeriodicSampler, Sampler};
/// use freshtrack_trace::{Event, EventId, EventKind, ThreadId, VarId};
///
/// let mut s = PeriodicSampler::new(0.25, 1_000, 7);
/// let e = Event::new(ThreadId::new(0), EventKind::Read(VarId::new(0)));
/// // Decisions within one period agree with each other.
/// let d0 = s.sample(EventId::new(0), e);
/// let d1 = s.sample(EventId::new(1), e);
/// assert_eq!(d0, d1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeriodicSampler {
    rate: f64,
    period: u64,
    seed: u64,
}

impl PeriodicSampler {
    /// Creates a sampler targeting `rate` with the given period length
    /// (in events).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]` or `period` is zero.
    pub fn new(rate: f64, period: u64, seed: u64) -> Self {
        assert!(
            rate.is_finite() && (0.0..=1.0).contains(&rate),
            "sampling rate must be in [0, 1], got {rate}"
        );
        assert!(period > 0, "period must be positive");
        PeriodicSampler { rate, period, seed }
    }

    /// The period length in events.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Whether the period keyed `window` is a sampling period.
    fn in_sampling_period(&self, window: u64) -> bool {
        to_unit(mix64(self.seed ^ mix64(window))) < self.rate
    }
}

impl Sampler for PeriodicSampler {
    fn decide(&self, id: EventId, _event: Event) -> bool {
        self.in_sampling_period(id.as_u64() / self.period)
    }

    fn decide_in_thread(&self, ordinal: u64, event: Event) -> bool {
        self.in_sampling_period(thread_position(event.tid, ordinal / self.period))
    }

    fn nominal_rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshtrack_trace::{EventKind, ThreadId, VarId};

    fn access() -> Event {
        Event::new(ThreadId::new(0), EventKind::Write(VarId::new(0)))
    }

    #[test]
    fn whole_periods_share_a_decision() {
        let mut s = PeriodicSampler::new(0.5, 100, 3);
        for window in 0..20u64 {
            let first = s.sample(EventId::new(window * 100), access());
            for offset in 1..100 {
                assert_eq!(
                    first,
                    s.sample(EventId::new(window * 100 + offset), access())
                );
            }
        }
    }

    #[test]
    fn each_thread_has_its_own_periods() {
        let s = PeriodicSampler::new(0.5, 100, 3);
        let of = |t: u32| Event::new(ThreadId::new(t), EventKind::Write(VarId::new(0)));
        for window in 0..20u64 {
            let first = s.decide_in_thread(window * 100, of(1));
            for offset in 1..100 {
                assert_eq!(first, s.decide_in_thread(window * 100 + offset, of(1)));
            }
        }
        let windows = |t: u32| -> Vec<bool> {
            (0..64)
                .map(|w| s.decide_in_thread(w * 100, of(t)))
                .collect()
        };
        assert_ne!(windows(0), windows(1));
    }

    #[test]
    fn empirical_rate_tracks_nominal() {
        let mut s = PeriodicSampler::new(0.1, 50, 11);
        let n = 500_000u64;
        let hits = (0..n)
            .filter(|&i| s.sample(EventId::new(i), access()))
            .count();
        let empirical = hits as f64 / n as f64;
        assert!((empirical - 0.1).abs() < 0.03, "empirical {empirical}");
    }

    #[test]
    #[should_panic(expected = "period")]
    fn rejects_zero_period() {
        let _ = PeriodicSampler::new(0.5, 0, 0);
    }
}
