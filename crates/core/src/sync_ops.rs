//! Non-mutex synchronization handlers (Appendix A.2 of the paper).
//!
//! ThreadSanitizer distinguishes three synchronization handler semantics
//! beyond plain mutexes:
//!
//! * **ReleaseStore** — the sync object's clock becomes a *copy* of the
//!   thread's (mutex unlock, atomic release-store, thread fork). The
//!   paper's Algorithm 4 innovations (shallow copy, scalar freshness)
//!   apply unchanged, because the object carries a single thread's
//!   snapshot.
//! * **Release** (join) — the sync object *accumulates* clocks from
//!   multiple releasers (shared-lock unlock, barriers, RMW/CAS release
//!   sequences). Here the object's clock is not any one thread's
//!   snapshot, so the freshness skip does not apply; handlers fall back
//!   to full `O(T)` joins, as the paper prescribes.
//! * **Acquire** — the thread joins the object's clock; it can use the
//!   freshness/ordered-list fast path only when the object's last update
//!   was a ReleaseStore.
//!
//! [`SyncOps`] exposes these handlers on every
//! [`Composed`](crate::Composed) detector, written once over the sync
//! engine's per-object handlers
//! ([`SyncEngine::release_store_at`](crate::SyncEngine::release_store_at),
//! [`SyncEngine::release_join_at`](crate::SyncEngine::release_join_at));
//! [`SyncClock`] is the reusable per-object state machine.

use freshtrack_clock::OrderedList;
use freshtrack_trace::LockId;

/// Extended synchronization operations in the style of TSan's handler
/// set (Appendix A.2).
///
/// Sync objects share the [`LockId`] space with mutexes; a given id
/// should be used either as a mutex (via trace events) or as a generic
/// sync object (via these methods), not both concurrently.
pub trait SyncOps {
    /// `ReleaseStore`: the object's clock becomes the thread's snapshot.
    fn release_store(&mut self, tid: u32, sync: LockId);

    /// `Release` (join): the object's clock accumulates the thread's.
    fn release_join(&mut self, tid: u32, sync: LockId);

    /// `Acquire`: the thread's clock joins the object's.
    fn acquire_sync(&mut self, tid: u32, sync: LockId);
}

/// The clock state of a generic synchronization object.
///
/// `Joined` is entered by a `Release` (join) operation and makes
/// subsequent acquires ineligible for the freshness skip until the next
/// `ReleaseStore` overwrites the object.
#[derive(Clone, Debug, Default)]
pub enum SyncClock {
    /// Never released: carries `⊥`.
    #[default]
    Bottom,
    /// Last updated by a `ReleaseStore`; detector-specific snapshot state
    /// lives alongside (e.g. the lazy list reference in Algorithm 4).
    Store,
    /// Accumulating joins from multiple releasers.
    Joined(OrderedList),
}

impl SyncClock {
    /// Returns `true` if the object is in accumulating (`Joined`) mode.
    pub fn is_joined(&self) -> bool {
        matches!(self, SyncClock::Joined(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, DjitDetector, OrderedListDetector};
    use freshtrack_sampling::AlwaysSampler;
    use freshtrack_trace::{Event, EventId, EventKind, ThreadId, VarId};

    /// Drives accesses through `process` and sync ops through `SyncOps`,
    /// so Djit+ and SO can be compared on non-mutex synchronization.
    struct Driver<D> {
        detector: D,
        next: u64,
        races: Vec<EventId>,
    }

    impl<D: Detector + SyncOps> Driver<D> {
        fn new(detector: D) -> Self {
            Driver {
                detector,
                next: 0,
                races: Vec::new(),
            }
        }

        fn write(&mut self, tid: u32, var: u32) {
            let id = EventId::new(self.next);
            self.next += 1;
            let e = Event::new(ThreadId::new(tid), EventKind::Write(VarId::new(var)));
            if self.detector.process(id, e).is_some() {
                self.races.push(id);
            }
        }

        fn read(&mut self, tid: u32, var: u32) {
            let id = EventId::new(self.next);
            self.next += 1;
            let e = Event::new(ThreadId::new(tid), EventKind::Read(VarId::new(var)));
            if self.detector.process(id, e).is_some() {
                self.races.push(id);
            }
        }
    }

    fn sync(i: u32) -> LockId {
        LockId::new(i)
    }

    /// Runs the same script against Djit+, SU and SO, asserting they
    /// agree, and returns the common race positions.
    fn on_all_engines<F>(script: F) -> Vec<EventId>
    where
        F: Fn(&mut dyn ScriptTarget) -> Vec<EventId>,
    {
        let mut djit = Driver::new(DjitDetector::new(AlwaysSampler::new()));
        let mut su = Driver::new(crate::FreshnessDetector::new(AlwaysSampler::new()));
        let mut so = Driver::new(OrderedListDetector::new(AlwaysSampler::new()));
        let a = script(&mut djit);
        let b = script(&mut su);
        let c = script(&mut so);
        assert_eq!(a, b, "Djit+ vs SU");
        assert_eq!(a, c, "Djit+ vs SO");
        a
    }

    /// Object-safe script surface over any engine driver.
    trait ScriptTarget {
        fn write(&mut self, tid: u32, var: u32);
        fn read(&mut self, tid: u32, var: u32);
        fn release_store(&mut self, tid: u32, sync: LockId);
        fn release_join(&mut self, tid: u32, sync: LockId);
        fn acquire_sync(&mut self, tid: u32, sync: LockId);
        fn races(&self) -> Vec<EventId>;
    }

    impl<D: Detector + SyncOps> ScriptTarget for Driver<D> {
        fn write(&mut self, tid: u32, var: u32) {
            Driver::write(self, tid, var);
        }
        fn read(&mut self, tid: u32, var: u32) {
            Driver::read(self, tid, var);
        }
        fn release_store(&mut self, tid: u32, sync: LockId) {
            self.detector.release_store(tid, sync);
        }
        fn release_join(&mut self, tid: u32, sync: LockId) {
            self.detector.release_join(tid, sync);
        }
        fn acquire_sync(&mut self, tid: u32, sync: LockId) {
            self.detector.acquire_sync(tid, sync);
        }
        fn races(&self) -> Vec<EventId> {
            self.races.clone()
        }
    }

    #[test]
    fn release_store_orders_message_passing() {
        // T0 writes x, release-stores to an atomic; T1 acquires it and
        // reads x: no race (the classic message-passing pattern).
        let races = on_all_engines(|d| {
            d.write(0, 0);
            d.release_store(0, sync(0));
            d.acquire_sync(1, sync(0));
            d.read(1, 0);
            d.races()
        });
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn repeated_store_acquire_chains_stay_exact() {
        // Ping-pong message passing with interleaved unrelated races —
        // all three engines must agree event-for-event.
        let races = on_all_engines(|d| {
            for round in 0..6u32 {
                let (from, to) = (round % 2, (round + 1) % 2);
                d.write(from, round % 3);
                d.release_store(from, sync(0));
                d.acquire_sync(to, sync(0));
                d.read(to, round % 3);
            }
            d.write(2, 0); // thread 2 never synchronizes: races
            d.races()
        });
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn missing_acquire_still_races() {
        let mut d = Driver::new(OrderedListDetector::new(AlwaysSampler::new()));
        d.write(0, 0);
        d.detector.release_store(0, sync(0));
        // T1 never acquires the atomic: the read races.
        d.read(1, 0);
        assert_eq!(d.races.len(), 1);
    }

    #[test]
    fn release_join_accumulates_multiple_releasers() {
        // Barrier-ish: T0 and T1 both write then release-join into the
        // same object; T2 acquires once and reads both — no races.
        let races = on_all_engines(|d| {
            d.write(0, 0);
            d.write(1, 1);
            d.release_join(0, sync(0));
            d.release_join(1, sync(0));
            d.acquire_sync(2, sync(0));
            d.read(2, 0);
            d.read(2, 1);
            d.races()
        });
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn mixed_store_and_join_sequences_agree_across_engines() {
        let races = on_all_engines(|d| {
            d.write(0, 0);
            d.release_join(0, sync(1));
            d.write(1, 1);
            d.release_store(1, sync(1)); // store overwrites the join
            d.acquire_sync(2, sync(1));
            d.read(2, 1); // ordered via the store
            d.read(2, 0); // NOT ordered: join info was overwritten
            d.release_join(2, sync(2));
            d.acquire_sync(0, sync(2));
            d.read(0, 1); // ordered transitively via T2
            d.races()
        });
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn release_store_after_join_resets_to_snapshot() {
        let mut d = Driver::new(OrderedListDetector::new(AlwaysSampler::new()));
        d.write(0, 0);
        d.detector.release_join(0, sync(0));
        d.write(1, 1);
        d.detector.release_store(1, sync(0));
        // The store overwrote the join: T2 sees T1's history…
        d.detector.acquire_sync(2, sync(0));
        d.read(2, 1);
        assert!(d.races.is_empty());
        // …but T1's snapshot was taken after T1 acquired nothing from
        // T0, so T0's write is NOT ordered — reading x races.
        d.read(2, 0);
        assert_eq!(d.races.len(), 1);
    }

    #[test]
    fn repeated_acquires_of_store_are_skippable_by_so() {
        let mut d = Driver::new(OrderedListDetector::new(AlwaysSampler::new()));
        d.write(0, 0);
        d.detector.release_store(0, sync(0));
        for _ in 0..10 {
            d.detector.acquire_sync(1, sync(0));
        }
        d.read(1, 0);
        assert!(d.races.is_empty());
        // Only the first acquire learns anything.
        assert_eq!(d.detector.counters().acquires_processed, 1);
        assert_eq!(d.detector.counters().acquires_skipped, 9);
    }

    #[test]
    fn sync_clock_mode_transitions() {
        let mut c = SyncClock::default();
        assert!(!c.is_joined());
        c = SyncClock::Joined(OrderedList::new());
        assert!(c.is_joined());
        c = SyncClock::Store;
        assert!(!c.is_joined());
        let _ = c;
    }
}
