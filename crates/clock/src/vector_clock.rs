use std::fmt;

use crate::{Epoch, ThreadId, Time};

/// A classical vector timestamp `T : Threads → ℕ` (Section 2.1 of the
/// paper).
///
/// Entries default to `0` (the `⊥` clock); the vector grows lazily as
/// higher thread indices are touched, so a `VectorClock` can always be
/// compared against clocks of different lengths.
///
/// The mutating operations report how many entries actually changed,
/// because the paper's *freshness* timestamp (`U`, Section 4.2) is defined
/// as a running count of exactly those changes.
///
/// # Example
///
/// ```
/// use freshtrack_clock::{ThreadId, VectorClock};
///
/// let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
/// let mut a = VectorClock::new();
/// a.set(t0, 2);
///
/// let mut b = VectorClock::new();
/// b.set(t1, 5);
///
/// let changed = a.join(&b);
/// assert_eq!(changed, 1); // only the t1 entry grew
/// assert_eq!(a.get(t0), 2);
/// assert_eq!(a.get(t1), 5);
/// assert!(b.leq(&a));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct VectorClock {
    entries: Vec<Time>,
}

impl VectorClock {
    /// Creates the bottom clock `⊥` (all entries zero).
    #[inline]
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// Creates a bottom clock with capacity reserved for `threads` entries.
    pub fn with_capacity(threads: usize) -> Self {
        VectorClock {
            entries: Vec::with_capacity(threads),
        }
    }

    /// The entry vector itself, for the wire decoder that refills a
    /// clock in place.
    pub(crate) fn entries_mut(&mut self) -> &mut Vec<Time> {
        &mut self.entries
    }

    /// Creates the clock `⊥[t ↦ time]`.
    pub fn bottom_with(tid: ThreadId, time: Time) -> Self {
        let mut clock = VectorClock::new();
        clock.set(tid, time);
        clock
    }

    /// Returns the entry for thread `tid` (zero if never set).
    #[inline]
    pub fn get(&self, tid: ThreadId) -> Time {
        self.entries.get(tid.index()).copied().unwrap_or(0)
    }

    /// Sets the entry for thread `tid`, growing the vector if needed.
    #[inline]
    pub fn set(&mut self, tid: ThreadId, time: Time) {
        let idx = tid.index();
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, 0);
        }
        self.entries[idx] = time;
    }

    /// Increments the entry for thread `tid` by one and returns the new
    /// value.
    #[inline]
    pub fn increment(&mut self, tid: ThreadId) -> Time {
        let next = self.get(tid) + 1;
        self.set(tid, next);
        next
    }

    /// Pointwise-maximum join `self ← self ⊔ other` (Eq. 4 of the paper).
    ///
    /// Returns the number of entries of `self` that changed, which is the
    /// quantity accumulated by the freshness timestamp `U`.
    pub fn join(&mut self, other: &VectorClock) -> usize {
        // No in-function ⊥ fast path: the detectors check
        // `other.is_empty()` at the call site (where the branch is
        // free), and an extra early exit here measurably perturbs the
        // codegen of the tight loop below (see BENCH_clock_ops.json).
        if other.entries.len() > self.entries.len() {
            self.entries.resize(other.entries.len(), 0);
        }
        // Keep the conditional-store form: a branchless `max` variant
        // (unconditional store + change count) measures ~2× slower here
        // because baseline x86-64 has no packed u64 max, so it cannot
        // vectorize and instead dirties every entry's cache line. The
        // redundant join (`other ⊑ self`) takes one predicted-not-taken
        // branch per entry and performs no stores at all.
        let mut changed = 0;
        for (mine, theirs) in self.entries.iter_mut().zip(other.entries.iter()) {
            if *theirs > *mine {
                *mine = *theirs;
                changed += 1;
            }
        }
        changed
    }

    /// Overwrites `self` with a copy of `other` without counting
    /// changes — the Djit+/FastTrack release hot path (`Cℓ ← C_t`).
    ///
    /// Unlike [`copy_from`](VectorClock::copy_from) this is a straight
    /// `memcpy` into the existing allocation: use it whenever the
    /// change count is not needed. Trailing entries of a previously
    /// longer `self` are dropped, which reads identically (missing
    /// entries are `0`).
    #[inline]
    pub fn assign_from(&mut self, other: &VectorClock) {
        self.entries.clear();
        self.entries.extend_from_slice(&other.entries);
    }

    /// Overwrites `self` with a copy of `other` and returns how many
    /// entries changed (in either direction).
    pub fn copy_from(&mut self, other: &VectorClock) -> usize {
        let len = self.entries.len().max(other.entries.len());
        self.entries.resize(len, 0);
        let mut changed = 0;
        for idx in 0..len {
            let theirs = other.entries.get(idx).copied().unwrap_or(0);
            if self.entries[idx] != theirs {
                self.entries[idx] = theirs;
                changed += 1;
            }
        }
        changed
    }

    /// Pointwise comparison `self ⊑ other` (Eq. 3 of the paper).
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.entries
            .iter()
            .enumerate()
            .all(|(idx, &mine)| mine <= other.entries.get(idx).copied().unwrap_or(0))
    }

    /// FastTrack's epoch-vs-clock comparison: `epoch.time ≤ self(epoch.tid)`.
    #[inline]
    pub fn contains_epoch(&self, epoch: Epoch) -> bool {
        epoch.time() <= self.get(epoch.tid())
    }

    /// Returns the number of allocated entries (threads observed so far).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entry has ever been set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if every entry is zero (the `⊥` clock).
    pub fn is_bottom(&self) -> bool {
        self.entries.iter().all(|&e| e == 0)
    }

    /// The dense entry slice, index = thread id (missing entries are
    /// implicitly zero) — the no-copy source for publication paths that
    /// memcpy a whole clock.
    #[inline]
    pub fn times(&self) -> &[Time] {
        &self.entries
    }

    /// Iterates over `(thread, time)` pairs of allocated entries.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, Time)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(idx, &time)| (ThreadId::new(idx as u32), time))
    }

    /// Sum of all entries; the paper bounds this by `|S|` for sampling
    /// timestamps (Section 4.1).
    pub fn total(&self) -> Time {
        self.entries.iter().sum()
    }
}

impl FromIterator<(ThreadId, Time)> for VectorClock {
    fn from_iter<I: IntoIterator<Item = (ThreadId, Time)>>(iter: I) -> Self {
        let mut clock = VectorClock::new();
        for (tid, time) in iter {
            clock.set(tid, time);
        }
        clock
    }
}

impl Extend<(ThreadId, Time)> for VectorClock {
    fn extend<I: IntoIterator<Item = (ThreadId, Time)>>(&mut self, iter: I) {
        for (tid, time) in iter {
            self.set(tid, time);
        }
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (idx, entry) in self.entries.iter().enumerate() {
            if idx > 0 {
                write!(f, ",")?;
            }
            write!(f, "{entry}")?;
        }
        write!(f, "⟩")
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn bottom_clock_reads_zero_everywhere() {
        let clock = VectorClock::new();
        assert_eq!(clock.get(t(0)), 0);
        assert_eq!(clock.get(t(100)), 0);
        assert!(clock.is_bottom());
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut clock = VectorClock::new();
        clock.set(t(4), 9);
        assert_eq!(clock.get(t(4)), 9);
        assert_eq!(clock.get(t(3)), 0);
        assert_eq!(clock.len(), 5);
    }

    #[test]
    fn increment_returns_new_value() {
        let mut clock = VectorClock::new();
        assert_eq!(clock.increment(t(2)), 1);
        assert_eq!(clock.increment(t(2)), 2);
        assert_eq!(clock.get(t(2)), 2);
    }

    #[test]
    fn join_is_pointwise_max_and_counts_changes() {
        let mut a = VectorClock::from_iter([(t(0), 3), (t(1), 1)]);
        let b = VectorClock::from_iter([(t(0), 2), (t(1), 5), (t(2), 1)]);
        let changed = a.join(&b);
        assert_eq!(changed, 2); // t1 and t2 grew, t0 did not
        assert_eq!(a.get(t(0)), 3);
        assert_eq!(a.get(t(1)), 5);
        assert_eq!(a.get(t(2)), 1);
    }

    #[test]
    fn join_with_bottom_changes_nothing() {
        let mut a = VectorClock::from_iter([(t(0), 3)]);
        assert_eq!(a.join(&VectorClock::new()), 0);
        assert_eq!(a.get(t(0)), 3);
    }

    #[test]
    fn leq_handles_different_lengths() {
        let short = VectorClock::from_iter([(t(0), 1)]);
        let long = VectorClock::from_iter([(t(0), 1), (t(3), 2)]);
        assert!(short.leq(&long));
        assert!(!long.leq(&short));
        assert!(short.leq(&short));
    }

    #[test]
    fn leq_is_antisymmetric_on_distinct_clocks() {
        let a = VectorClock::from_iter([(t(0), 2), (t(1), 0)]);
        let b = VectorClock::from_iter([(t(0), 0), (t(1), 2)]);
        assert!(!a.leq(&b));
        assert!(!b.leq(&a));
    }

    #[test]
    fn copy_from_counts_bidirectional_changes() {
        let mut a = VectorClock::from_iter([(t(0), 5), (t(1), 1)]);
        let b = VectorClock::from_iter([(t(0), 2), (t(1), 1), (t(2), 7)]);
        let changed = a.copy_from(&b);
        assert_eq!(changed, 2); // t0 shrank, t2 grew
        assert_eq!(a, b);
    }

    #[test]
    fn contains_epoch_matches_get() {
        let clock = VectorClock::from_iter([(t(1), 4)]);
        assert!(clock.contains_epoch(Epoch::new(t(1), 4)));
        assert!(clock.contains_epoch(Epoch::new(t(1), 3)));
        assert!(!clock.contains_epoch(Epoch::new(t(1), 5)));
        assert!(!clock.contains_epoch(Epoch::new(t(0), 1)));
    }

    #[test]
    fn total_sums_entries() {
        let clock = VectorClock::from_iter([(t(0), 2), (t(5), 3)]);
        assert_eq!(clock.total(), 5);
    }

    #[test]
    fn debug_formats_like_the_paper() {
        let clock = VectorClock::from_iter([(t(0), 1), (t(1), 0)]);
        assert_eq!(format!("{clock:?}"), "⟨1,0⟩");
    }
}
