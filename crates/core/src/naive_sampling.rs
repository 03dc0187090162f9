use freshtrack_clock::{ThreadId, Time, VectorClock};
use freshtrack_sampling::Sampler;
use freshtrack_trace::{Event, EventId, EventKind, LockId};

use crate::{AccessHistories, AccessKind, Counters, Detector, RaceReport};

/// Algorithm 2 of the paper: race detection with *sampling timestamps*
/// `C_sam`.
///
/// The key change relative to Djit+ is the local-increment discipline:
/// the thread-local time `e_t` is flushed into the communicated clock
/// `C_t` — and incremented — only at the **first release after a sampled
/// event** (the set `RelAfter_S`). Consequently
/// `Σ_t C_sam(e)(t) ≤ |S|` for every event, which is what later
/// algorithms exploit. The synchronization handlers still perform an
/// `O(T)` operation per event, so this engine has Djit+'s asymptotic
/// running time; it serves as the semantic reference that the SU and SO
/// engines must match report-for-report (Lemmas 7 and 8).
///
/// # Example
///
/// ```
/// use freshtrack_core::{Detector, NaiveSamplingDetector};
/// use freshtrack_sampling::AlwaysSampler;
/// use freshtrack_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// let x = b.var("x");
/// b.write(0, x);
/// b.write(1, x);
/// let races = NaiveSamplingDetector::new(AlwaysSampler::new()).run(&b.build());
/// assert_eq!(races.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct NaiveSamplingDetector<S> {
    sampler: S,
    threads: Vec<ThreadState>,
    locks: Vec<VectorClock>,
    history: AccessHistories,
    counters: Counters,
}

#[derive(Clone, Debug)]
struct ThreadState {
    /// The communicated clock; its own component holds the local time of
    /// the last *flushed* sampled event, not the current local time.
    clock: VectorClock,
    /// The local epoch `e_t`.
    epoch: Time,
    /// Has this thread performed a sampled event since its last release?
    sampled_since_release: bool,
}

impl Default for ThreadState {
    fn default() -> Self {
        // C_t ← ⊥; e_t ← 1 (Algorithm 2, line 3).
        ThreadState {
            clock: VectorClock::new(),
            epoch: 1,
            sampled_since_release: false,
        }
    }
}

impl<S: Sampler> NaiveSamplingDetector<S> {
    /// Creates a detector using `sampler` to pick the sample set.
    pub fn new(sampler: S) -> Self {
        NaiveSamplingDetector {
            sampler,
            threads: Vec::new(),
            locks: Vec::new(),
            history: AccessHistories::new(),
            counters: Counters::new(),
        }
    }

    fn ensure_thread(&mut self, tid: ThreadId) {
        if self.threads.len() <= tid.index() {
            self.threads
                .resize_with(tid.index() + 1, ThreadState::default);
        }
    }

    fn ensure_lock(&mut self, lock: LockId) {
        if self.locks.len() <= lock.index() {
            self.locks.resize_with(lock.index() + 1, VectorClock::new);
        }
    }

    /// The race-check view of the thread clock: `C_t[t ↦ e_t]`.
    fn view(state: &ThreadState, tid: ThreadId) -> impl Fn(ThreadId) -> Time + '_ {
        let epoch = state.epoch;
        move |u| if u == tid { epoch } else { state.clock.get(u) }
    }
}

impl<S: Sampler> Detector for NaiveSamplingDetector<S> {
    fn process(&mut self, id: EventId, event: Event) -> Option<RaceReport> {
        // Hoisted-first: a skipped access is a tally and nothing else
        // (invariant 10).
        if let EventKind::Read(_) | EventKind::Write(_) = event.kind {
            if !self.sampler.decide(id, event) {
                self.counters.events += 1;
                match event.kind {
                    EventKind::Read(_) => self.counters.reads += 1,
                    _ => self.counters.writes += 1,
                }
                return None;
            }
        }
        self.process_admitted(id, event)
    }

    fn process_admitted(&mut self, id: EventId, event: Event) -> Option<RaceReport> {
        self.counters.events += 1;
        let tid = event.tid;
        match event.kind {
            EventKind::Read(var) => {
                self.counters.reads += 1;
                self.ensure_thread(tid);
                self.counters.sampled_accesses += 1;
                self.counters.race_checks += 1;
                let state = &mut self.threads[tid.index()];
                state.sampled_since_release = true;
                let epoch = state.epoch;
                let races = self.history.read_races(var, Self::view(state, tid));
                self.history.record_read(var, tid, epoch);
                races.then(|| {
                    self.counters.races += 1;
                    RaceReport::new(id, tid, var, AccessKind::Read, true, false)
                })
            }
            EventKind::Write(var) => {
                self.counters.writes += 1;
                self.ensure_thread(tid);
                self.counters.sampled_accesses += 1;
                self.counters.race_checks += 1;
                let threads = self.threads.len();
                let state = &mut self.threads[tid.index()];
                state.sampled_since_release = true;
                let (with_write, with_read) = self.history.write_races(var, Self::view(state, tid));
                self.history
                    .record_write(var, threads, Self::view(state, tid));
                (with_write || with_read).then(|| {
                    self.counters.races += 1;
                    RaceReport::new(id, tid, var, AccessKind::Write, with_write, with_read)
                })
            }
            EventKind::Acquire(lock) => {
                self.ensure_thread(tid);
                self.counters.acquires += 1;
                self.counters.acquires_processed += 1;
                self.ensure_lock(lock);
                self.threads[tid.index()]
                    .clock
                    .join(&self.locks[lock.index()]);
                self.counters.vc_ops += 1;
                self.counters.entries_traversed += self.threads.len() as u64;
                None
            }
            EventKind::Release(lock) => {
                self.ensure_thread(tid);
                self.counters.releases += 1;
                self.counters.releases_processed += 1;
                self.ensure_lock(lock);
                let state = &mut self.threads[tid.index()];
                if state.sampled_since_release {
                    // This release is in RelAfter_S: flush and advance.
                    state.clock.set(tid, state.epoch);
                    state.epoch += 1;
                    state.sampled_since_release = false;
                    self.counters.local_increments += 1;
                }
                self.locks[lock.index()].copy_from(&state.clock);
                self.counters.vc_ops += 1;
                self.counters.entries_traversed += self.threads.len() as u64;
                None
            }
        }
    }

    fn counters(&self) -> &Counters {
        &self.counters
    }

    fn reserve_threads(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let last = ThreadId::new(n as u32 - 1);
        self.ensure_thread(last);
        for state in &mut self.threads {
            let pad = state.clock.get(last);
            state.clock.set(last, pad);
        }
    }

    fn name(&self) -> &'static str {
        "ST(sam)"
    }

    fn hoisted_decider(&self) -> crate::HoistedDecider {
        let sampler = self.sampler.clone();
        Box::new(move |ordinal, event| sampler.decide_in_thread(ordinal, event))
    }

    fn record_skipped_accesses(&mut self, reads: u64, writes: u64) {
        self.counters.fold_skipped_accesses(reads, writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshtrack_sampling::AlwaysSampler;
    use freshtrack_trace::TraceBuilder;

    fn full() -> NaiveSamplingDetector<AlwaysSampler> {
        NaiveSamplingDetector::new(AlwaysSampler::new())
    }

    #[test]
    fn protected_accesses_do_not_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        b.acquire(0, l).write(0, x).release(0, l);
        b.acquire(1, l).write(1, x).release(1, l);
        assert!(full().run(&b.build()).is_empty());
    }

    #[test]
    fn same_thread_accesses_do_not_race_despite_stale_own_entry() {
        // C_t(t) lags e_t between releases; the race-check view must
        // splice in e_t or these would be false positives.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.write(0, x).read(0, x).write(0, x);
        assert!(full().run(&b.build()).is_empty());
    }

    #[test]
    fn local_increments_only_after_sampled_events() {
        let mut b = TraceBuilder::new();
        let l = b.lock("l");
        let x = b.var("x");
        // Release with nothing sampled since: no increment.
        b.acquire(0, l).release(0, l);
        // Sampled write, then two releases: only the first increments.
        b.acquire(0, l).write(0, x).release(0, l);
        b.acquire(0, l).release(0, l);
        let mut d = full();
        d.run(&b.build());
        assert_eq!(d.counters().local_increments, 1);
    }

    #[test]
    fn fig1_clock_table_from_paper() {
        // The lock-ladder execution of Fig. 1 (threads t1,t2 → T0,T1).
        // Events e5, e15, e16 (the writes at positions 4, 14, 15) are in S.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l1 = b.lock("l1");
        let l2 = b.lock("l2");
        let l3 = b.lock("l3");
        let l4 = b.lock("l4");
        b.acquire(0, l4); // e1
        b.acquire(0, l3); // e2
        b.acquire(0, l2); // e3
        b.acquire(0, l1); // e4
        b.write(0, x); //    e5  (sampled)
        b.release(0, l1); // e6
        b.write(0, x); //    e7  (not sampled)
        b.acquire(1, l1); // e8
        b.write(1, x); //    e9  (not sampled)
        b.release(0, l2); // e10
        b.write(0, x); //    e11 (not sampled)
        b.acquire(1, l2); // e12
        b.release(0, l3); // e13
        b.acquire(1, l3); // e14
        b.write(0, x); //    e15 (sampled)
        b.write(0, x); //    e16 (sampled)
        b.release(0, l4); // e17
        b.acquire(1, l4); // e18
        let trace = b.build();

        #[derive(Clone)]
        struct MarkSampler;
        impl Sampler for MarkSampler {
            fn decide(&self, id: EventId, _event: Event) -> bool {
                matches!(id.index(), 4 | 14 | 15)
            }
            fn decide_in_thread(&self, _ordinal: u64, _event: Event) -> bool {
                unreachable!("offline-only test sampler")
            }
            fn nominal_rate(&self) -> f64 {
                f64::NAN
            }
        }

        let mut d = NaiveSamplingDetector::new(MarkSampler);
        let mut states: Vec<(usize, Time, VectorClock)> = Vec::new();
        for (id, event) in trace.iter() {
            d.process(id, event);
            if event.tid == ThreadId::new(0) {
                let s = &d.threads[0];
                states.push((id.index(), s.epoch, s.clock.clone()));
            }
        }

        // After e6 (the first release after sampled e5): e_t = 2,
        // C_t1 = ⟨1,0⟩ — matching the right-hand table of Fig. 1.
        let after_e6 = states.iter().find(|(i, _, _)| *i == 5).unwrap();
        assert_eq!(after_e6.1, 2);
        assert_eq!(after_e6.2.get(ThreadId::new(0)), 1);

        // e10 and e13 are NOT in RelAfter_S: epoch still 2, clock ⟨1,0⟩.
        let after_e13 = states.iter().find(|(i, _, _)| *i == 12).unwrap();
        assert_eq!(after_e13.1, 2);
        assert_eq!(after_e13.2.get(ThreadId::new(0)), 1);

        // e17 follows sampled e15/e16: epoch 3, clock ⟨2,0⟩.
        let after_e17 = states.iter().find(|(i, _, _)| *i == 16).unwrap();
        assert_eq!(after_e17.1, 3);
        assert_eq!(after_e17.2.get(ThreadId::new(0)), 2);

        // Final lock clocks: ℓ1..ℓ3 carry ⟨1,0⟩, ℓ4 carries ⟨2,0⟩.
        assert_eq!(d.locks[l1.index()].get(ThreadId::new(0)), 1);
        assert_eq!(d.locks[l2.index()].get(ThreadId::new(0)), 1);
        assert_eq!(d.locks[l3.index()].get(ThreadId::new(0)), 1);
        assert_eq!(d.locks[l4.index()].get(ThreadId::new(0)), 2);
    }
}
