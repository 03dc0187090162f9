use std::fmt;
use std::sync::Arc;

use crate::{ThreadId, Time, VectorClock};

/// A [`VectorClock`] behind the same two-state lazy-copy protocol as
/// [`SharedClock`](crate::SharedClock), for engines whose thread clocks
/// are plain vectors (Djit+, FastTrack, SU).
///
/// The sync/access split (offline replay and its parallel pipeline)
/// needs to *publish* a thread's clock across the plane boundary
/// without copying it: the access plane only ever reads the view, and
/// the sync plane is the only mutator. This type makes that hand-off
/// `O(1)`:
///
/// * **Owned**: the clock is exclusively held by the sync plane and
///   mutates in place with zero synchronization — the steady state
///   between publications.
/// * **Shared**: the clock sits behind an [`Arc`] aliased by a published
///   [`VectorClockSnapshot`]. Mutators transparently return to
///   **Owned**: if every published snapshot has been dropped (the
///   publisher's take-before-mutate discipline), the allocation is
///   reclaimed for free; otherwise one deep copy is paid.
///
/// # Example
///
/// ```
/// use freshtrack_clock::{SharedVectorClock, ThreadId};
///
/// let t0 = ThreadId::new(0);
/// let mut clock = SharedVectorClock::new();
/// clock.make_mut().0.set(t0, 1);
///
/// let view = clock.snapshot(); // O(1) publication
/// assert_eq!(view.get(t0), 1);
///
/// // Dropping the published view first makes the next mutation free…
/// drop(view);
/// let (inner, deep) = clock.make_mut();
/// inner.set(t0, 2);
/// assert!(!deep, "no live alias: the allocation is reclaimed");
/// ```
pub struct SharedVectorClock {
    state: State,
}

enum State {
    /// Exclusively owned: mutate in place, no synchronization.
    Owned(VectorClock),
    /// Potentially aliased by a published [`VectorClockSnapshot`].
    Shared(Arc<VectorClock>),
}

/// A read-only `O(1)` reference to a [`SharedVectorClock`] at
/// publication time — the per-thread clock view the sync plane hands to
/// access engines.
///
/// Like [`ClockSnapshot`](crate::ClockSnapshot) it is pointer-sized and
/// has no mutators, so the access plane can never perturb the sync
/// plane's clock state through it.
#[derive(Clone)]
pub struct VectorClockSnapshot {
    arc: Arc<VectorClock>,
}

impl VectorClockSnapshot {
    /// Read access to the snapshotted clock.
    #[inline]
    pub fn clock(&self) -> &VectorClock {
        &self.arc
    }

    /// `C(tid)` without any copying.
    #[inline]
    pub fn get(&self, tid: ThreadId) -> Time {
        self.arc.get(tid)
    }

    /// Number of allocated entries of the snapshotted clock.
    #[inline]
    pub fn len(&self) -> usize {
        self.arc.len()
    }

    /// Returns `true` if the snapshotted clock has no allocated entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arc.is_empty()
    }

    /// Returns `true` if two snapshots alias the same allocation.
    #[inline]
    pub fn ptr_eq(&self, other: &VectorClockSnapshot) -> bool {
        Arc::ptr_eq(&self.arc, &other.arc)
    }
}

impl fmt::Debug for VectorClockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VectorClockSnapshot(refs={}, {:?})",
            Arc::strong_count(&self.arc),
            &*self.arc
        )
    }
}

impl SharedVectorClock {
    /// Creates a clock holding `⊥`. Allocation-free.
    pub fn new() -> Self {
        SharedVectorClock {
            state: State::Owned(VectorClock::new()),
        }
    }

    /// Wraps an existing vector clock (exclusively owned).
    pub fn from_clock(clock: VectorClock) -> Self {
        SharedVectorClock {
            state: State::Owned(clock),
        }
    }

    /// Publishes the current clock as a pointer-sized read-only
    /// snapshot, moving this clock to the **Shared** state (an `Arc`
    /// allocation on the Owned → Shared transition, a reference-count
    /// bump afterwards).
    pub fn snapshot(&mut self) -> VectorClockSnapshot {
        if let State::Shared(arc) = &self.state {
            return VectorClockSnapshot {
                arc: Arc::clone(arc),
            };
        }
        let State::Owned(clock) =
            std::mem::replace(&mut self.state, State::Owned(VectorClock::new()))
        else {
            unreachable!("just matched Owned");
        };
        let arc = Arc::new(clock);
        self.state = State::Shared(Arc::clone(&arc));
        VectorClockSnapshot { arc }
    }

    /// Returns `true` if a published snapshot currently aliases the
    /// clock.
    #[inline]
    pub fn is_shared(&self) -> bool {
        match &self.state {
            State::Owned(_) => false,
            State::Shared(arc) => Arc::strong_count(arc) > 1,
        }
    }

    /// Read access to the underlying clock.
    #[inline]
    pub fn clock(&self) -> &VectorClock {
        match &self.state {
            State::Owned(clock) => clock,
            State::Shared(arc) => arc,
        }
    }

    /// `C(tid)` without any copying.
    #[inline]
    pub fn get(&self, tid: ThreadId) -> Time {
        self.clock().get(tid)
    }

    /// Grants mutable access, resolving any sharing first. The boolean
    /// reports whether a deep copy happened (it does not when every
    /// published snapshot has already been dropped).
    ///
    /// A sole-holder `Shared` clock is mutated **in place** through its
    /// `Arc` — no unwrap, no reallocation — so a publish/take/mutate
    /// cycle (the replay hot path) costs one reference-count
    /// round trip and nothing else after the first publication.
    pub fn make_mut(&mut self) -> (&mut VectorClock, bool) {
        let deep = self.ensure_unique();
        match &mut self.state {
            State::Owned(clock) => (clock, deep),
            State::Shared(arc) => (
                Arc::get_mut(arc).expect("ensure_unique leaves a sole holder"),
                deep,
            ),
        }
    }

    /// Deep-copies to `Owned` iff a published snapshot is still alive;
    /// returns whether it did.
    fn ensure_unique(&mut self) -> bool {
        let State::Shared(arc) = &mut self.state else {
            return false;
        };
        if Arc::get_mut(arc).is_some() {
            // Sole holder: keep the allocation and mutate through it.
            return false;
        }
        let clock = (**arc).clone();
        self.state = State::Owned(clock);
        true
    }
}

impl Default for SharedVectorClock {
    fn default() -> Self {
        SharedVectorClock::new()
    }
}

impl Clone for SharedVectorClock {
    /// Cloning an **Owned** clock yields an independent deep copy;
    /// cloning a **Shared** clock yields another alias.
    fn clone(&self) -> Self {
        let state = match &self.state {
            State::Owned(clock) => State::Owned(clock.clone()),
            State::Shared(arc) => State::Shared(Arc::clone(arc)),
        };
        SharedVectorClock { state }
    }
}

impl From<VectorClock> for SharedVectorClock {
    fn from(clock: VectorClock) -> Self {
        SharedVectorClock::from_clock(clock)
    }
}

impl PartialEq for SharedVectorClock {
    fn eq(&self, other: &Self) -> bool {
        self.clock() == other.clock()
    }
}

impl Eq for SharedVectorClock {}

impl fmt::Debug for SharedVectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.state {
            State::Owned(clock) => write!(f, "SharedVectorClock(owned, {clock:?})"),
            State::Shared(arc) => write!(
                f,
                "SharedVectorClock(refs={}, {:?})",
                Arc::strong_count(arc),
                &**arc
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn snapshot_is_bit_stable_under_later_mutation() {
        let mut c = SharedVectorClock::from_clock(VectorClock::bottom_with(t(0), 3));
        let snap = c.snapshot();
        let (inner, deep) = c.make_mut();
        inner.set(t(0), 9);
        assert!(deep, "live snapshot forces the lazy deep copy");
        assert_eq!(snap.get(t(0)), 3);
        assert_eq!(c.get(t(0)), 9);
        assert!(!c.is_shared());
    }

    #[test]
    fn take_before_mutate_reclaims_for_free() {
        let mut c = SharedVectorClock::from_clock(VectorClock::bottom_with(t(1), 5));
        drop(c.snapshot()); // publisher takes the view back first
        let (inner, deep) = c.make_mut();
        assert!(!deep, "no live alias: reclaim without copying");
        inner.increment(t(1));
        assert_eq!(c.get(t(1)), 6);
    }

    #[test]
    fn repeated_snapshots_alias_one_allocation() {
        let mut c = SharedVectorClock::new();
        let a = c.snapshot();
        let b = c.snapshot();
        assert!(a.ptr_eq(&b));
        assert!(c.is_shared());
        drop((a, b));
        assert!(!c.is_shared());
    }

    #[test]
    fn clone_of_owned_is_independent() {
        let mut a = SharedVectorClock::from_clock(VectorClock::bottom_with(t(0), 1));
        let mut b = a.clone();
        b.make_mut().0.set(t(0), 7);
        assert_eq!(a.get(t(0)), 1);
        assert!(!a.is_shared());
        let _ = a.make_mut();
    }

    #[test]
    fn snapshot_exposes_clock_reads() {
        let mut clock = VectorClock::new();
        clock.set(t(2), 4);
        let mut c = SharedVectorClock::from_clock(clock);
        let snap = c.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(!snap.is_empty());
        assert_eq!(snap.clock().get(t(2)), 4);
        assert_eq!(snap.get(t(5)), 0);
    }
}
