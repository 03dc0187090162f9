use freshtrack_trace::{Event, EventId};

use crate::Sampler;

/// Samples every access event: `S` = all reads and writes.
///
/// Running one of the paper's engines with `AlwaysSampler` yields the
/// "100%" configurations (SU-(100%), SO-(100%)) of the offline
/// evaluation; note these do *not* degenerate to FastTrack — the sampling
/// timestamp still increments only at the first release after a sampled
/// event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AlwaysSampler;

impl AlwaysSampler {
    /// Creates the sampler.
    pub fn new() -> Self {
        AlwaysSampler
    }
}

impl Sampler for AlwaysSampler {
    fn decide(&self, _id: EventId, _event: Event) -> bool {
        true
    }

    fn decide_in_thread(&self, _ordinal: u64, _event: Event) -> bool {
        true
    }

    fn nominal_rate(&self) -> f64 {
        1.0
    }
}

/// Samples nothing: `S = ∅`.
///
/// Useful as the analysis-free baseline (the paper's "Empty TSan"
/// analogue) — all synchronization handlers still run, but no race checks
/// or clock increments ever trigger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NeverSampler;

impl NeverSampler {
    /// Creates the sampler.
    pub fn new() -> Self {
        NeverSampler
    }
}

impl Sampler for NeverSampler {
    fn decide(&self, _id: EventId, _event: Event) -> bool {
        false
    }

    fn decide_in_thread(&self, _ordinal: u64, _event: Event) -> bool {
        false
    }

    fn nominal_rate(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshtrack_trace::{EventKind, ThreadId, VarId};

    #[test]
    fn always_and_never_are_constant() {
        let e = Event::new(ThreadId::new(0), EventKind::Read(VarId::new(0)));
        assert!(AlwaysSampler::new().sample(EventId::new(0), e));
        assert!(!NeverSampler::new().sample(EventId::new(0), e));
        assert!(AlwaysSampler::new().decide_in_thread(5, e));
        assert!(!NeverSampler::new().decide_in_thread(5, e));
        assert_eq!(AlwaysSampler::new().nominal_rate(), 1.0);
        assert_eq!(NeverSampler::new().nominal_rate(), 0.0);
    }
}
