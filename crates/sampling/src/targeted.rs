use std::collections::HashSet;

use freshtrack_trace::{Event, EventId, VarId};

use crate::Sampler;

/// RaceMob-style targeted sampling: sample every access to a chosen set
/// of memory locations.
///
/// Static analysis (or a previous run) nominates suspicious locations;
/// the detector then observes all accesses to those and nothing else.
/// The paper notes (Section 3) that its Analysis-Problem formulation
/// subsumes this strategy.
///
/// # Example
///
/// ```
/// use freshtrack_sampling::{Sampler, TargetedSampler};
/// use freshtrack_trace::{Event, EventId, EventKind, ThreadId, VarId};
///
/// let hot = VarId::new(0);
/// let cold = VarId::new(1);
/// let mut s = TargetedSampler::new([hot]);
/// let read = |v| Event::new(ThreadId::new(0), EventKind::Read(v));
/// assert!(s.sample(EventId::new(0), read(hot)));
/// assert!(!s.sample(EventId::new(1), read(cold)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TargetedSampler {
    targets: HashSet<VarId>,
}

impl TargetedSampler {
    /// Creates a sampler targeting the given memory locations.
    pub fn new<I: IntoIterator<Item = VarId>>(targets: I) -> Self {
        TargetedSampler {
            targets: targets.into_iter().collect(),
        }
    }

    /// Adds a location to the target set.
    pub fn add_target(&mut self, var: VarId) {
        self.targets.insert(var);
    }

    /// The number of targeted locations.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    fn is_target(&self, event: Event) -> bool {
        event.kind.var().is_some_and(|v| self.targets.contains(&v))
    }
}

impl Sampler for TargetedSampler {
    fn decide(&self, _id: EventId, event: Event) -> bool {
        self.is_target(event)
    }

    fn decide_in_thread(&self, _ordinal: u64, event: Event) -> bool {
        self.is_target(event)
    }

    fn nominal_rate(&self) -> f64 {
        // Unknown a priori — depends on the access distribution.
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshtrack_trace::{EventKind, ThreadId};

    #[test]
    fn only_targets_are_sampled() {
        let mut s = TargetedSampler::new([VarId::new(2)]);
        s.add_target(VarId::new(5));
        assert_eq!(s.target_count(), 2);
        let mk = |v: u32| Event::new(ThreadId::new(0), EventKind::Write(VarId::new(v)));
        assert!(s.sample(EventId::new(0), mk(2)));
        assert!(s.sample(EventId::new(1), mk(5)));
        assert!(!s.sample(EventId::new(2), mk(3)));
        assert!(s.decide_in_thread(7, mk(5)));
        assert!(!s.decide_in_thread(7, mk(3)));
    }
}
