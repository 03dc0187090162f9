use std::fmt;
use std::sync::Arc;

use crate::{OrderedList, ThreadId, Time};

/// An [`OrderedList`] behind lazy-copy ("shallow copy") sharing.
///
/// Section 5 of the paper replaces the `O(T)` per-release clock copy with
/// reference sharing: at a release, the lock's clock becomes a *shallow
/// copy* of the thread's list, and the thread defers the `O(T)` deep copy
/// until it actually needs to mutate a list that is still shared. With
/// sampling, mutations are bounded by `|S|`, so the total deep-copy cost
/// collapses from `O(#releases · T)` to `O(|S| · T)`.
///
/// `SharedClock` implements this protocol as a two-state clock — the
/// paper's `shared_t` flag made literal:
///
/// * **Owned**: the list is exclusively held and mutates in place with
///   zero synchronization — no reference-count traffic at all. This is
///   the steady state of every clock that has not been released since
///   its last mutation.
/// * **Shared**: the list sits behind an [`Arc`] that a lock's shallow
///   copy may alias. Mutators transparently return to **Owned** first:
///   if the `Arc` is still aliased they pay the one deep copy the paper
///   counts (Fig. 8); if the alias has since been dropped they reclaim
///   the allocation for free.
///
/// [`SharedClock::shallow_copy`] is the `O(1)` release-side copy; it
/// moves an **Owned** clock to **Shared** (one `Arc` allocation) or
/// clones the existing `Arc`. Mutators ([`set`](SharedClock::set),
/// [`increment`](SharedClock::increment), and the batch
/// [`join_prefix`](SharedClock::join_prefix)) report whether they
/// deep-copied so callers can account for it.
///
/// # Example
///
/// ```
/// use freshtrack_clock::{SharedClock, ThreadId};
///
/// let t0 = ThreadId::new(0);
/// let mut thread_clock = SharedClock::new();
/// thread_clock.set(t0, 1);
///
/// let lock_clock = thread_clock.shallow_copy(); // O(1) release
/// assert!(thread_clock.is_shared());
///
/// // Mutating while shared forces one deep copy…
/// let deep = thread_clock.set(t0, 2);
/// assert!(deep);
/// // …after which the two no longer alias.
/// assert_eq!(lock_clock.get(t0), 1);
/// assert_eq!(thread_clock.get(t0), 2);
/// assert!(!thread_clock.is_shared());
/// ```
pub struct SharedClock {
    state: State,
}

enum State {
    /// Exclusively owned: mutate in place, no synchronization.
    Owned(OrderedList),
    /// Potentially aliased by another `SharedClock`.
    Shared(Arc<OrderedList>),
}

/// Outcome of a [`SharedClock::join_prefix`]: what the partial join
/// traversed, changed, and whether it paid the lazy deep copy.
///
/// These are exactly the quantities the `freshtrack-core` detectors
/// feed into their `Counters`; returning them from the batch operation
/// keeps the hot loop free of per-entry bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixJoin {
    /// Entries of the donor prefix that were examined
    /// (`min(d, donor.len())`).
    pub traversed: usize,
    /// Entries of `self` that grew.
    pub changed: usize,
    /// Whether the join had to deep-copy a still-aliased list.
    pub deep_copy: bool,
}

/// A read-only `O(1)` reference to a [`SharedClock`]'s list at release
/// time — the lock-side `Oℓ` of Algorithm 4.
///
/// Handing locks a dedicated snapshot type (instead of another
/// [`SharedClock`]) does two things:
///
/// * it encodes the paper's invariant that *locks never mutate their
///   clock* in the type system — a snapshot has no mutators, so lock
///   state can never accidentally trigger a deep copy; and
/// * it is pointer-sized (one `Arc`), so storing it per release is an
///   8-byte move rather than a copy of the full inline clock struct.
///
/// Dropping the snapshot (e.g. when a newer release overwrites the
/// lock's slot) may return the owning clock to exclusive, atomics-free
/// mutation.
#[derive(Clone)]
pub struct ClockSnapshot {
    arc: Arc<OrderedList>,
}

impl ClockSnapshot {
    /// Read access to the snapshotted list.
    #[inline]
    pub fn list(&self) -> &OrderedList {
        &self.arc
    }

    /// `Oℓ.get(tid)` without any copying.
    #[inline]
    pub fn get(&self, tid: ThreadId) -> Time {
        self.arc.get(tid)
    }

    /// Returns `true` if two snapshots alias the same allocation.
    #[inline]
    pub fn ptr_eq(&self, other: &ClockSnapshot) -> bool {
        Arc::ptr_eq(&self.arc, &other.arc)
    }
}

impl fmt::Debug for ClockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ClockSnapshot(refs={}, {:?})",
            Arc::strong_count(&self.arc),
            &*self.arc
        )
    }
}

impl SharedClock {
    /// Creates a clock holding the bottom ordered list. Allocation-free.
    pub const fn new() -> Self {
        SharedClock {
            state: State::Owned(OrderedList::new()),
        }
    }

    /// Creates a bottom clock pre-sized for `threads` threads.
    pub fn with_threads(threads: usize) -> Self {
        SharedClock {
            state: State::Owned(OrderedList::with_threads(threads)),
        }
    }

    /// Wraps an existing ordered list (exclusively owned).
    pub fn from_list(list: OrderedList) -> Self {
        SharedClock {
            state: State::Owned(list),
        }
    }

    /// The `O(1)` "shallow copy" of Algorithm 4's release handler
    /// (`Oℓ = shallowcopy(O_t)`).
    ///
    /// Takes `&mut self` because handing out an alias moves this clock
    /// to the **Shared** state (sets the paper's `shared_t` flag) — an
    /// Owned clock pays its single `Arc` allocation here, a Shared one
    /// just bumps the reference count.
    pub fn shallow_copy(&mut self) -> Self {
        SharedClock {
            state: State::Shared(self.share()),
        }
    }

    /// The release-side shallow copy as a lock-facing [`ClockSnapshot`]
    /// — same `O(1)` transition as
    /// [`shallow_copy`](SharedClock::shallow_copy), but returning the
    /// pointer-sized read-only handle detectors store per lock.
    pub fn snapshot(&mut self) -> ClockSnapshot {
        ClockSnapshot { arc: self.share() }
    }

    /// Moves the clock to the **Shared** state (the paper's
    /// `shared_t := true`) and returns an aliasing reference: a fresh
    /// `Arc` count bump when already Shared, one `Arc` allocation on
    /// the Owned → Shared transition.
    fn share(&mut self) -> Arc<OrderedList> {
        if let State::Shared(arc) = &self.state {
            return Arc::clone(arc);
        }
        let State::Owned(list) =
            std::mem::replace(&mut self.state, State::Owned(OrderedList::new()))
        else {
            unreachable!("just matched Owned");
        };
        let arc = Arc::new(list);
        self.state = State::Shared(Arc::clone(&arc));
        arc
    }

    /// Returns `true` if another `SharedClock` currently aliases the same
    /// list — i.e. the paper's `shared_t` flag.
    #[inline]
    pub fn is_shared(&self) -> bool {
        match &self.state {
            State::Owned(_) => false,
            State::Shared(arc) => Arc::strong_count(arc) > 1,
        }
    }

    /// Returns `true` if `self` and `other` alias the same allocation.
    #[inline]
    pub fn ptr_eq(&self, other: &SharedClock) -> bool {
        match (&self.state, &other.state) {
            (State::Shared(a), State::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Returns `true` if `snap` aliases this clock's current allocation
    /// — i.e. a mutation of this clock right now would pay the deep
    /// copy that `snap` is keeping alive. Read-only: unlike
    /// [`snapshot`](SharedClock::snapshot) it never moves an Owned
    /// clock to the Shared state, so checkpoint export can record the
    /// sharing topology without perturbing it.
    #[inline]
    pub fn aliases(&self, snap: &ClockSnapshot) -> bool {
        match &self.state {
            State::Owned(_) => false,
            State::Shared(arc) => Arc::ptr_eq(arc, &snap.arc),
        }
    }

    /// Read access to the underlying list.
    #[inline]
    pub fn list(&self) -> &OrderedList {
        match &self.state {
            State::Owned(list) => list,
            State::Shared(arc) => arc,
        }
    }

    /// `O.get(tid)` without any copying.
    #[inline]
    pub fn get(&self, tid: ThreadId) -> Time {
        self.list().get(tid)
    }

    /// Sets an entry, deep-copying first if the list is shared.
    ///
    /// Returns `true` iff a deep copy was performed (the quantity the
    /// paper plots in Fig. 8).
    #[inline]
    pub fn set(&mut self, tid: ThreadId, time: Time) -> bool {
        let (list, deep) = self.make_mut();
        list.set(tid, time);
        deep
    }

    /// Increments an entry, deep-copying first if the list is shared.
    /// Returns `true` iff a deep copy was performed.
    #[inline]
    pub fn increment(&mut self, tid: ThreadId, k: Time) -> bool {
        let (list, deep) = self.make_mut();
        list.increment(tid, k);
        deep
    }

    /// Partial join of the first `d` recency-order entries of `other`
    /// into this clock — the acquire hot path (`O_t ⊔ Oℓ[0:d]`).
    ///
    /// The sharing state is resolved **once** for the whole batch, not
    /// per entry, and a read-only pre-scan proves the common redundant
    /// case (`Oℓ[0:d] ⊑ O_t`) without touching it at all, so a stale
    /// donor never forces a deep copy.
    pub fn join_prefix(&mut self, other: &OrderedList, d: usize) -> PrefixJoin {
        let traversed = d.min(other.len());
        // Alias fast path: joining a clock with its own alias is a
        // no-op by definition.
        if let State::Shared(arc) = &self.state {
            if std::ptr::eq(Arc::as_ptr(arc), other) {
                return PrefixJoin {
                    traversed,
                    changed: 0,
                    deep_copy: false,
                };
            }
        }
        // Read-only pre-scan: prove redundancy before paying for
        // exclusivity.
        let mine = self.list();
        if !other.first(d).any(|(u, n)| n > mine.get(u)) {
            return PrefixJoin {
                traversed,
                changed: 0,
                deep_copy: false,
            };
        }
        let (list, deep_copy) = self.make_mut();
        let changed = list.join_prefix(other, d);
        PrefixJoin {
            traversed,
            changed,
            deep_copy,
        }
    }

    /// Full join of `other` into this clock, with the same single
    /// copy-on-write resolution as [`join_prefix`](Self::join_prefix).
    #[inline]
    pub fn join(&mut self, other: &OrderedList) -> PrefixJoin {
        self.join_prefix(other, usize::MAX)
    }

    /// Grants mutable access, resolving any sharing first. The boolean
    /// reports whether a deep copy happened.
    ///
    /// A sole-holder `Shared` clock is mutated **in place** through its
    /// `Arc` — no unwrap, no move of the inline arena, no reallocation
    /// on the next [`snapshot`](SharedClock::snapshot) — so a
    /// snapshot/drop/mutate cycle (every release whose previous lock
    /// slot was overwritten) costs one reference-count round trip after
    /// the first share.
    ///
    /// Prefer the dedicated mutators where possible; this is the escape
    /// hatch for multi-step updates.
    pub fn make_mut(&mut self) -> (&mut OrderedList, bool) {
        let deep = self.unshare();
        match &mut self.state {
            State::Owned(list) => (list, deep),
            State::Shared(arc) => (
                Arc::get_mut(arc).expect("unshare leaves a sole holder"),
                deep,
            ),
        }
    }

    /// Resolves sharing before a mutation: keeps a sole-holder `Arc` in
    /// place, deep-copies to `Owned` when a live alias remains. Returns
    /// whether a deep copy was performed.
    fn unshare(&mut self) -> bool {
        let State::Shared(arc) = &mut self.state else {
            return false;
        };
        if Arc::get_mut(arc).is_some() {
            // Last holder: mutate through the existing allocation.
            return false;
        }
        // Still aliased by a lock: this is the lazy deep copy.
        let list = (**arc).clone();
        self.state = State::Owned(list);
        true
    }
}

impl Default for SharedClock {
    fn default() -> Self {
        SharedClock::new()
    }
}

impl Clone for SharedClock {
    /// Cloning an **Owned** clock yields an independent deep copy;
    /// cloning a **Shared** clock yields another alias (like
    /// [`shallow_copy`](SharedClock::shallow_copy), but without being
    /// able to flip the source's state through `&self`).
    fn clone(&self) -> Self {
        let state = match &self.state {
            State::Owned(list) => State::Owned(list.clone()),
            State::Shared(arc) => State::Shared(Arc::clone(arc)),
        };
        SharedClock { state }
    }
}

impl From<OrderedList> for SharedClock {
    fn from(list: OrderedList) -> Self {
        SharedClock::from_list(list)
    }
}

impl PartialEq for SharedClock {
    fn eq(&self, other: &Self) -> bool {
        self.list() == other.list()
    }
}

impl Eq for SharedClock {}

impl fmt::Debug for SharedClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.state {
            State::Owned(list) => write!(f, "SharedClock(owned, {list:?})"),
            State::Shared(arc) => write!(
                f,
                "SharedClock(refs={}, {:?})",
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
    fn shallow_copy_aliases() {
        let mut a = SharedClock::new();
        a.set(t(0), 1);
        let b = a.shallow_copy();
        assert!(a.ptr_eq(&b));
        assert!(a.is_shared());
        assert!(b.is_shared());
    }

    #[test]
    fn mutation_while_shared_deep_copies_once() {
        let mut a = SharedClock::new();
        assert!(!a.set(t(0), 1)); // not shared: in-place
        let b = a.shallow_copy();
        assert!(a.set(t(0), 2)); // shared: deep copy
        assert!(!a.set(t(0), 3)); // no longer shared: in-place
        assert_eq!(b.get(t(0)), 1);
        assert_eq!(a.get(t(0)), 3);
        assert!(!a.ptr_eq(&b));
    }

    #[test]
    fn dropping_the_lock_side_clears_sharing() {
        let mut a = SharedClock::new();
        a.set(t(0), 1);
        {
            let _b = a.shallow_copy();
            assert!(a.is_shared());
        }
        assert!(!a.is_shared());
        assert!(!a.increment(t(0), 1)); // no deep copy needed anymore
    }

    #[test]
    fn replacing_a_lock_clock_releases_previous_share() {
        // lock ← shallow(a); lock ← shallow(b): `a` must become exclusive.
        let mut a = SharedClock::new();
        a.set(t(0), 1);
        let mut b = SharedClock::new();
        b.set(t(1), 1);
        let mut lock = a.shallow_copy();
        assert!(a.is_shared());
        assert!(lock.ptr_eq(&a));
        lock = b.shallow_copy();
        assert!(!a.is_shared());
        assert!(b.is_shared());
        assert!(lock.ptr_eq(&b));
    }

    #[test]
    fn equality_compares_values_not_identity() {
        let mut a = SharedClock::new();
        a.set(t(0), 4);
        let mut b = SharedClock::new();
        b.set(t(0), 4);
        assert_eq!(a, b);
        assert!(!a.ptr_eq(&b));
    }

    #[test]
    fn reclaiming_a_sole_arc_is_not_a_deep_copy() {
        let mut a = SharedClock::new();
        a.set(t(0), 7);
        drop(a.shallow_copy()); // alias immediately dropped
        let (_, deep) = a.make_mut();
        assert!(!deep, "sole Arc holder reclaims without copying");
        assert!(!a.is_shared());
    }

    #[test]
    fn join_prefix_redundant_donor_keeps_sharing_intact() {
        let mut a = SharedClock::new();
        a.set(t(0), 5);
        a.set(t(1), 5);
        let alias = a.shallow_copy();
        let stale = OrderedList::from_iter([(t(0), 3), (t(1), 5)]);
        let res = a.join_prefix(&stale, 8);
        assert_eq!(res.changed, 0);
        assert!(!res.deep_copy, "redundant join must not break sharing");
        assert_eq!(res.traversed, 2);
        assert!(a.is_shared());
        assert!(a.ptr_eq(&alias));
    }

    #[test]
    fn join_prefix_fresh_donor_deep_copies_once() {
        let mut a = SharedClock::new();
        a.set(t(0), 1);
        let alias = a.shallow_copy();
        let fresh = OrderedList::from_iter([(t(2), 9), (t(1), 4)]);
        let res = a.join_prefix(&fresh, 8);
        assert_eq!(res.changed, 2);
        assert!(res.deep_copy);
        assert_eq!(a.get(t(1)), 4);
        assert_eq!(a.get(t(2)), 9);
        // The alias still sees the pre-join snapshot.
        assert_eq!(alias.get(t(1)), 0);
        assert_eq!(alias.get(t(2)), 0);
        assert!(!a.is_shared());
    }

    #[test]
    fn join_prefix_with_own_alias_is_a_noop() {
        let mut a = SharedClock::new();
        a.set(t(0), 3);
        let alias = a.shallow_copy();
        let res = a.join_prefix(alias.list(), 8);
        assert_eq!(res.changed, 0);
        assert!(!res.deep_copy);
        assert!(a.is_shared(), "self-join must not unshare");
    }

    #[test]
    fn join_prefix_depth_limits_learning() {
        let mut donor = OrderedList::new();
        donor.set(t(0), 10);
        donor.set(t(1), 20); // t1 most recent
        let mut a = SharedClock::new();
        let res = a.join_prefix(&donor, 1);
        assert_eq!(res.changed, 1);
        assert_eq!(a.get(t(1)), 20);
        assert_eq!(a.get(t(0)), 0, "beyond depth 1");
    }

    #[test]
    fn snapshot_aliases_and_releases_like_shallow_copy() {
        let mut a = SharedClock::new();
        a.set(t(0), 2);
        let snap = a.snapshot();
        assert!(a.is_shared());
        assert_eq!(snap.get(t(0)), 2);
        // Mutation deep-copies away from the snapshot…
        assert!(a.set(t(0), 5));
        assert_eq!(snap.get(t(0)), 2);
        assert!(!a.is_shared());
        // …and a second snapshot of the same state aliases the first
        // only if taken while still shared.
        let mut b = SharedClock::new();
        let s1 = b.snapshot();
        let s2 = b.snapshot();
        assert!(s1.ptr_eq(&s2));
        drop((s1, s2));
        assert!(!b.is_shared());
        assert!(!b.increment(t(1), 1), "alias gone: no deep copy");
    }

    #[test]
    fn clone_of_owned_is_independent() {
        let mut a = SharedClock::new();
        a.set(t(0), 1);
        let mut b = a.clone();
        b.set(t(0), 9);
        assert_eq!(a.get(t(0)), 1);
        assert!(!a.is_shared());
        assert!(!b.is_shared());
    }
}
