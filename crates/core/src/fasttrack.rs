use freshtrack_clock::{
    wire::{self, WireReader},
    Epoch, ThreadId, VectorClock,
};
use freshtrack_sampling::Sampler;
use freshtrack_trace::{Event, EventId, EventKind, VarId};

use crate::checkpoint::{self, CheckpointError, CheckpointState};
use crate::composed::{Composed, EngineName};
use crate::djit::VectorSyncEngine;
use crate::plane::{history_leq_view, AccessEngine, AccessOutcome, ClockView};
use crate::{AccessKind, Counters, RaceReport};

/// The FastTrack race detector (Flanagan & Freund, PLDI 2009) with
/// access-level sampling.
///
/// FastTrack is Djit+ with the *epoch* optimization: write histories are
/// single epochs, and read histories adaptively switch between an epoch
/// (the common, totally-ordered case) and a full vector clock (shared
/// reads). The paper uses FastTrack as the full-detection baseline
/// (**FT**), and ThreadSanitizer's analysis is based on it.
///
/// The synchronization handlers are identical to Djit+'s — the detector
/// is the [`Composed`] of the same [`VectorSyncEngine`] sync plane as
/// [`DjitDetector`](crate::DjitDetector) with its own
/// [`EpochAccessEngine`] access plane — which is why the paper's
/// innovations (which target synchronization) compose with it, and why
/// its access histories shard cleanly in a
/// [`ShardedOnlineDetector`](crate::ShardedOnlineDetector).
///
/// # Example
///
/// ```
/// use freshtrack_core::{Detector, FastTrackDetector};
/// use freshtrack_sampling::AlwaysSampler;
/// use freshtrack_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// let x = b.var("x");
/// b.read(0, x);
/// b.write(1, x);
/// let races = FastTrackDetector::new(AlwaysSampler::new()).run(&b.build());
/// assert_eq!(races.len(), 1);
/// ```
pub type FastTrackDetector<S> = Composed<VectorSyncEngine, EpochAccessEngine<S>>;

impl<S: Sampler> FastTrackDetector<S> {
    /// Creates a detector using `sampler` to pick the sample set.
    pub fn new(sampler: S) -> Self {
        Composed::from_halves(VectorSyncEngine::default(), EpochAccessEngine::new(sampler))
    }
}

impl<S> EngineName for FastTrackDetector<S> {
    const NAME: &'static str = "FastTrack";
}

/// FastTrack's adaptive read history.
#[derive(Clone, Debug)]
enum ReadState {
    /// Reads are totally ordered: remember only the last one.
    Epoch(Epoch),
    /// Concurrent reads: remember the last read of every thread.
    Vector(VectorClock),
}

#[derive(Clone, Debug)]
struct VarState {
    write: Epoch,
    read: ReadState,
}

impl Default for VarState {
    fn default() -> Self {
        VarState {
            write: Epoch::zero(),
            read: ReadState::Epoch(Epoch::zero()),
        }
    }
}

/// FastTrack's access-plane half: the sampler plus per-variable
/// epoch/adaptive-vector histories. Requires only a read-only
/// [`ClockView`] of the accessing thread's clock, so it serves both the
/// monolithic [`FastTrackDetector`] and the access shards of a sharded
/// run.
#[derive(Clone, Debug)]
pub struct EpochAccessEngine<S> {
    sampler: S,
    vars: Vec<VarState>,
}

impl<S: Sampler> EpochAccessEngine<S> {
    /// Creates an empty access engine around `sampler`.
    pub fn new(sampler: S) -> Self {
        EpochAccessEngine {
            sampler,
            vars: Vec::new(),
        }
    }

    fn ensure_var(&mut self, var: VarId) {
        if self.vars.len() <= var.index() {
            self.vars.resize_with(var.index() + 1, VarState::default);
        }
    }

    fn handle_read<W: ClockView>(
        &mut self,
        id: EventId,
        tid: ThreadId,
        var: VarId,
        view: &W,
        counters: &mut Counters,
    ) -> Option<RaceReport> {
        self.ensure_var(var);
        let epoch = Epoch::new(tid, view.time_of(tid));
        let state = &mut self.vars[var.index()];

        // READ SAME EPOCH fast path.
        if matches!(state.read, ReadState::Epoch(r) if r == epoch) {
            return None;
        }
        counters.race_checks += 1;

        // Check against the last write.
        let races = !state.write.is_zero() && state.write.time() > view.time_of(state.write.tid());

        // Update the read history.
        match &mut state.read {
            ReadState::Vector(v) => {
                // READ SHARED.
                v.set(tid, epoch.time());
            }
            ReadState::Epoch(r) => {
                if r.is_zero() || r.time() <= view.time_of(r.tid()) {
                    // READ EXCLUSIVE: the previous read happens-before us.
                    state.read = ReadState::Epoch(epoch);
                } else {
                    // READ SHARE: inflate to a vector clock.
                    let mut v = VectorClock::new();
                    v.set(r.tid(), r.time());
                    v.set(tid, epoch.time());
                    state.read = ReadState::Vector(v);
                }
            }
        }

        races.then(|| {
            counters.races += 1;
            RaceReport::new(id, tid, var, AccessKind::Read, true, false)
        })
    }

    fn handle_write<W: ClockView>(
        &mut self,
        id: EventId,
        tid: ThreadId,
        var: VarId,
        view: &W,
        counters: &mut Counters,
    ) -> Option<RaceReport> {
        self.ensure_var(var);
        let epoch = Epoch::new(tid, view.time_of(tid));
        let state = &mut self.vars[var.index()];

        // WRITE SAME EPOCH fast path.
        if state.write == epoch {
            return None;
        }
        counters.race_checks += 1;

        let with_write =
            !state.write.is_zero() && state.write.time() > view.time_of(state.write.tid());
        let with_read = match &state.read {
            ReadState::Epoch(r) => !r.is_zero() && r.time() > view.time_of(r.tid()),
            ReadState::Vector(v) => !history_leq_view(v, view),
        };

        state.write = epoch;
        if matches!(state.read, ReadState::Vector(_)) {
            // WRITE SHARED deflates the read history.
            state.read = ReadState::Epoch(Epoch::zero());
        }

        (with_write || with_read).then(|| {
            counters.races += 1;
            RaceReport::new(id, tid, var, AccessKind::Write, with_write, with_read)
        })
    }
}

// The checkpoint is the variable table: one record (one `VarState`) per
// variable.
impl<S> CheckpointState for EpochAccessEngine<S> {
    fn export_state(&self, out: &mut Vec<u8>) {
        checkpoint::put_records(out, self.vars.len(), |out, id| {
            let state = &self.vars[id];
            wire::put_epoch(out, state.write);
            match &state.read {
                ReadState::Epoch(r) => {
                    wire::put_varint(out, 0);
                    wire::put_epoch(out, *r);
                }
                ReadState::Vector(v) => {
                    wire::put_varint(out, 1);
                    wire::put_clock(out, v);
                }
            }
        });
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = WireReader::new(bytes);
        let mut vars = Vec::new();
        checkpoint::get_records(&mut r, |r| {
            let write = r.get_epoch()?;
            let read = match r.get_varint()? {
                0 => ReadState::Epoch(r.get_epoch()?),
                1 => ReadState::Vector(r.get_clock()?),
                _ => return Err(wire::WireError::Invalid("unknown read-history tag")),
            };
            vars.push(VarState { write, read });
            Ok(())
        })?;
        r.finish()?;
        self.vars = vars;
        Ok(())
    }
}

impl<S: Sampler> AccessEngine for EpochAccessEngine<S> {
    type Sampler = S;

    fn sampler(&self) -> &S {
        &self.sampler
    }

    fn access_sampled<W: ClockView>(
        &mut self,
        id: EventId,
        event: Event,
        view: &W,
        counters: &mut Counters,
    ) -> AccessOutcome {
        let tid = event.tid;
        counters.sampled_accesses += 1;
        match event.kind {
            EventKind::Read(var) => {
                counters.reads += 1;
                AccessOutcome::sampled(self.handle_read(id, tid, var, view, counters))
            }
            EventKind::Write(var) => {
                counters.writes += 1;
                AccessOutcome::sampled(self.handle_write(id, tid, var, view, counters))
            }
            EventKind::Acquire(_) | EventKind::Release(_) => {
                unreachable!("sync events belong to the sync plane")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, DjitDetector};
    use freshtrack_sampling::AlwaysSampler;
    use freshtrack_trace::{Trace, TraceBuilder};

    fn ft() -> FastTrackDetector<AlwaysSampler> {
        FastTrackDetector::new(AlwaysSampler::new())
    }

    fn first_race(trace: &Trace) -> Option<EventId> {
        ft().run(trace).first().map(|r| r.event)
    }

    #[test]
    fn protected_accesses_do_not_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        b.acquire(0, l).write(0, x).release(0, l);
        b.acquire(1, l).read(1, x).write(1, x).release(1, l);
        assert!(ft().run(&b.build()).is_empty());
    }

    #[test]
    fn shared_reads_then_write_races_with_all() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.read(0, x);
        b.read(1, x);
        b.write(2, x);
        let races = ft().run(&b.build());
        assert_eq!(races.len(), 1);
        assert!(races[0].with_read);
    }

    #[test]
    fn read_share_inflates_and_detects_race_with_earlier_reader() {
        // T0 reads, T1 reads (concurrent), T1 relays order to T2 but T0
        // does not — T2's write races with T0's read only.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        b.read(0, x);
        b.read(1, x);
        b.acquire(1, l).release(1, l);
        b.acquire(2, l).release(2, l);
        b.write(2, x);
        let races = ft().run(&b.build());
        assert_eq!(races.len(), 1);
        assert!(races[0].with_read);
    }

    #[test]
    fn same_epoch_fast_paths_do_not_recheck() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.write(0, x).write(0, x).read(0, x).read(0, x);
        let mut d = ft();
        assert!(d.run(&b.build()).is_empty());
        // write(check) + write(same epoch) + read(check) + read(same epoch)
        assert_eq!(d.counters().race_checks, 2);
    }

    #[test]
    fn first_race_matches_djit_on_small_traces() {
        // A handful of shapes where epoch adaptivity is exercised.
        let shapes: Vec<Trace> = vec![
            {
                let mut b = TraceBuilder::new();
                let x = b.var("x");
                b.write(0, x);
                b.write(1, x);
                b.build()
            },
            {
                let mut b = TraceBuilder::new();
                let x = b.var("x");
                b.read(0, x);
                b.read(1, x);
                b.write(0, x);
                b.build()
            },
            {
                let mut b = TraceBuilder::new();
                let x = b.var("x");
                let l = b.lock("l");
                b.acquire(0, l).write(0, x).release(0, l);
                b.read(1, x);
                b.build()
            },
        ];
        for trace in &shapes {
            let djit_first = DjitDetector::new(AlwaysSampler::new())
                .run(trace)
                .first()
                .map(|r| r.event);
            assert_eq!(first_race(trace), djit_first);
        }
    }

    #[test]
    fn write_after_ordered_reads_is_clean() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        b.read(0, x);
        b.acquire(0, l).release(0, l);
        b.acquire(1, l).release(1, l);
        b.read(1, x);
        b.acquire(1, l).release(1, l);
        b.acquire(0, l).release(0, l);
        b.write(0, x);
        assert!(ft().run(&b.build()).is_empty());
    }
}
