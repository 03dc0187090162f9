//! Online sampling strategies for sampling-based race detection.
//!
//! The paper decomposes sampling-based race detection into the *Sampling
//! Problem* (which access events form the sample set `S`?) and the
//! *Analysis Problem* (detect races among `S`). This crate implements the
//! sampling side: small online deciders that a detector consults at every
//! read/write event. The detectors in `freshtrack-core` are generic over
//! [`Sampler`], mirroring the paper's claim that its timestamping
//! algorithms are agnostic to how `S` is chosen.
//!
//! Provided strategies:
//!
//! * [`BernoulliSampler`] — each access sampled independently with a fixed
//!   probability (the paper's evaluation strategy, after LiteRace).
//! * [`PeriodicSampler`] — Pacer-style alternating global sampling and
//!   non-sampling periods.
//! * [`TargetedSampler`] — RaceMob-style: sample all accesses to a chosen
//!   set of memory locations.
//! * [`AlwaysSampler`] / [`NeverSampler`] — the degenerate 100% / 0%
//!   strategies (useful as the FT-equivalent and instrumentation-only
//!   baselines).
//!
//! Every strategy answers two questions, one per ingestion side:
//!
//! * **Offline** ([`Sampler::decide`]): is the access at trace position
//!   `id` sampled? The randomized strategies are **deterministic
//!   functions of `(seed, event position)`**, so different analysis
//!   engines observing the same trace with the same seed see *exactly*
//!   the same sample set — the apples-to-apples property the paper's
//!   offline evaluation relies on. The segmented replay filters segments
//!   in parallel, and a trace position is all a segment decoder knows.
//! * **Online** ([`Sampler::decide_in_thread`]): is thread `t`'s `k`-th
//!   access sampled? A per-thread decision in the LiteRace/Pacer
//!   lineage: a deterministic function of `(seed, t, k, event)`, so a
//!   live program's sample set depends on what each thread does, not on
//!   how the threads interleave, and deciding needs no shared counter.
//!
//! # Example
//!
//! ```
//! use freshtrack_sampling::{BernoulliSampler, Sampler};
//! use freshtrack_trace::{Event, EventId, EventKind, ThreadId, VarId};
//!
//! let mut s = BernoulliSampler::new(0.5, 42);
//! let e = Event::new(ThreadId::new(0), EventKind::Write(VarId::new(0)));
//! let first = s.sample(EventId::new(0), e);
//! // Same position, same seed → same decision.
//! assert_eq!(first, BernoulliSampler::new(0.5, 42).sample(EventId::new(0), e));
//! // Online: thread 0's access number 9, wherever it lands in the trace.
//! assert_eq!(s.decide_in_thread(9, e), BernoulliSampler::new(0.5, 42).decide_in_thread(9, e));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bernoulli;
mod degenerate;
mod periodic;
mod targeted;

pub use bernoulli::BernoulliSampler;
pub use degenerate::{AlwaysSampler, NeverSampler};
pub use periodic::PeriodicSampler;
pub use targeted::TargetedSampler;

use freshtrack_trace::{Event, EventId, ThreadId};

/// An online decider for membership of access events in the sample set
/// `S`.
///
/// Detectors consult the sampler exactly once per read/write event, in
/// trace order. Implementations must be deterministic given their
/// construction parameters so that runs are reproducible; implementations
/// whose decision depends only on `(seed, id)` additionally guarantee
/// identical sample sets across different engines.
///
/// Decisions are **pure**: [`Sampler::decide`] and
/// [`Sampler::decide_in_thread`] take `&self` and must return the same
/// answer for the same inputs no matter when, how often, or from which
/// thread they are asked. This is what lets the online detectors hoist
/// the decision out of their analysis locks — a skipped access is
/// rejected before any shared state is touched. The
/// `Clone + Send + Sync` supertraits exist for the same reason: hoisted
/// deciders are cloned out of the detector and consulted concurrently.
pub trait Sampler: Clone + Send + Sync + 'static {
    /// Decides whether the access event `event` at trace position `id`
    /// belongs to the sample set — the offline rule. Pure: same inputs,
    /// same answer.
    fn decide(&self, id: EventId, event: Event) -> bool;

    /// Decides whether `event`, the `ordinal`-th access (counting from
    /// 0) of its thread `event.tid`, belongs to the sample set — the
    /// online rule, which needs only the thread's own access count.
    /// Pure: same inputs, same answer.
    fn decide_in_thread(&self, ordinal: u64, event: Event) -> bool;

    /// Decides membership through a mutable handle.
    ///
    /// Kept for call-site convenience (historical API); forwards to
    /// [`Sampler::decide`], which is the method implementations provide.
    fn sample(&mut self, id: EventId, event: Event) -> bool {
        self.decide(id, event)
    }

    /// The nominal sampling rate in `[0, 1]`, for reporting purposes.
    fn nominal_rate(&self) -> f64;
}

impl<T: Sampler> Sampler for Box<T> {
    fn decide(&self, id: EventId, event: Event) -> bool {
        (**self).decide(id, event)
    }

    fn decide_in_thread(&self, ordinal: u64, event: Event) -> bool {
        (**self).decide_in_thread(ordinal, event)
    }

    fn nominal_rate(&self) -> f64 {
        (**self).nominal_rate()
    }
}

/// SplitMix64 — a tiny, high-quality 64-bit mixer used to derive
/// order-independent per-event sampling decisions from `(seed, position)`.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where thread `tid`'s `ordinal`-th access sits in the 2⁶⁴-position
/// space the position-keyed formulas hash: each thread's accesses are
/// consecutive positions from a pseudo-random start, so the online rule
/// is the offline formula applied to that position.
pub(crate) fn thread_position(tid: ThreadId, ordinal: u64) -> u64 {
    mix64(u64::from(tid.as_u32())).wrapping_add(ordinal)
}

/// Maps a hash to a uniform `f64` in `[0, 1)`.
pub(crate) fn to_unit(hash: u64) -> f64 {
    // Use the top 53 bits for a dyadic rational in [0,1).
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_spreads_consecutive_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        // Hamming distance should be substantial for an avalanche mixer.
        assert!((a ^ b).count_ones() > 16);
    }

    #[test]
    fn to_unit_is_in_range() {
        for x in [0u64, 1, u64::MAX, 0xdead_beef] {
            let u = to_unit(mix64(x));
            assert!((0.0..1.0).contains(&u));
        }
    }
}
