use freshtrack_clock::{wire, ThreadId, Time, VectorClock};
use freshtrack_trace::VarId;

/// The per-variable access histories `Cw_x` / `Cr_x` shared by all
/// detectors (Section 2.1 of the paper).
///
/// For every memory location the history keeps the timestamp of the last
/// write (`Cw_x`, a full clock) and the per-thread local times of the
/// last reads (`Cr_x`). Race checks compare these histories against the
/// current thread's clock; because the paper's sampling algorithms keep
/// the thread's *own* component in a separate scalar epoch `e_t`, the
/// comparison functions here take the thread clock as a lookup closure so
/// callers can splice in the authoritative own-entry value.
///
/// All operations are `O(T)`, so the total cost across a run is
/// `O(|S| · T)` — the access-side bound of the paper's final complexity.
#[derive(Clone, Debug, Default)]
pub struct AccessHistories {
    write: Vec<VectorClock>,
    read: Vec<VectorClock>,
}

impl AccessHistories {
    /// Creates empty histories.
    pub fn new() -> Self {
        AccessHistories::default()
    }

    /// Creates histories pre-sized for `vars` locations.
    pub fn with_vars(vars: usize) -> Self {
        AccessHistories {
            write: vec![VectorClock::new(); vars],
            read: vec![VectorClock::new(); vars],
        }
    }

    fn ensure(&mut self, var: VarId) {
        if var.index() >= self.write.len() {
            self.write.resize_with(var.index() + 1, VectorClock::new);
            self.read.resize_with(var.index() + 1, VectorClock::new);
        }
    }

    /// The read check of Algorithm 1/2: is `Cw_x ̸⊑ C_t`?
    ///
    /// `clock(u)` must return the current thread clock entry for `u`,
    /// *including* the authoritative own-thread value.
    pub fn read_races<F>(&self, var: VarId, clock: F) -> bool
    where
        F: Fn(ThreadId) -> Time,
    {
        self.write.get(var.index()).is_some_and(|w| !leq(w, &clock))
    }

    /// The write check of Algorithm 1/2: `(Cw_x ̸⊑ C_t, Cr_x ̸⊑ C_t)`.
    pub fn write_races<F>(&self, var: VarId, clock: F) -> (bool, bool)
    where
        F: Fn(ThreadId) -> Time,
    {
        let with_write = self.write.get(var.index()).is_some_and(|w| !leq(w, &clock));
        let with_read = self.read.get(var.index()).is_some_and(|r| !leq(r, &clock));
        (with_write, with_read)
    }

    /// Records a read: `Cr_x ← Cr_x[t ↦ time]` where `time` is the local
    /// time (`C_t(t)` for Djit+, the epoch `e_t` for sampling engines).
    pub fn record_read(&mut self, var: VarId, tid: ThreadId, time: Time) {
        self.ensure(var);
        self.read[var.index()].set(tid, time);
    }

    /// Records a write: `Cw_x ← C_t[t ↦ time]`, materialized from the
    /// caller's clock view over `threads` threads.
    pub fn record_write<F>(&mut self, var: VarId, threads: usize, clock: F)
    where
        F: Fn(ThreadId) -> Time,
    {
        self.ensure(var);
        let slot = &mut self.write[var.index()];
        for idx in 0..threads {
            let tid = ThreadId::new(idx as u32);
            slot.set(tid, clock(tid));
        }
    }

    /// The last-write clock of a variable, if any write was recorded.
    pub fn write_clock(&self, var: VarId) -> Option<&VectorClock> {
        self.write.get(var.index()).filter(|c| !c.is_bottom())
    }

    /// The read clock of a variable, if any read was recorded.
    pub fn read_clock(&self, var: VarId) -> Option<&VectorClock> {
        self.read.get(var.index()).filter(|c| !c.is_bottom())
    }
}

impl AccessHistories {
    /// The number of locations the tables are sized for.
    pub(crate) fn var_count(&self) -> usize {
        debug_assert_eq!(self.write.len(), self.read.len());
        self.write.len()
    }

    /// Serializes location `index`'s checkpoint record: its write clock,
    /// then its read clock.
    pub(crate) fn put_record(&self, out: &mut Vec<u8>, index: usize) {
        wire::put_clock(out, &self.write[index]);
        wire::put_clock(out, &self.read[index]);
    }

    /// Appends a location whose histories are a record written by
    /// [`Self::put_record`].
    pub(crate) fn push_record(
        &mut self,
        r: &mut wire::WireReader<'_>,
    ) -> Result<(), wire::WireError> {
        let write = r.get_clock()?;
        let read = r.get_clock()?;
        self.write.push(write);
        self.read.push(read);
        Ok(())
    }
}

fn leq<F>(history: &VectorClock, clock: &F) -> bool
where
    F: Fn(ThreadId) -> Time,
{
    history.iter().all(|(tid, time)| time <= clock(tid))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn no_history_means_no_race() {
        let h = AccessHistories::new();
        assert!(!h.read_races(VarId::new(0), |_| 0));
        assert_eq!(h.write_races(VarId::new(0), |_| 0), (false, false));
    }

    #[test]
    fn read_after_unordered_write_races() {
        let mut h = AccessHistories::new();
        let x = VarId::new(0);
        // T0 writes at time 1 with clock ⟨1,0⟩.
        h.record_write(x, 2, |tid| if tid == t(0) { 1 } else { 0 });
        // T1 with clock ⟨0,1⟩ has not seen the write.
        assert!(h.read_races(x, |tid| if tid == t(1) { 1 } else { 0 }));
        // T1 with clock ⟨1,1⟩ has.
        assert!(!h.read_races(x, |_| 1));
    }

    #[test]
    fn write_checks_both_histories() {
        let mut h = AccessHistories::new();
        let x = VarId::new(0);
        h.record_write(x, 2, |tid| if tid == t(0) { 1 } else { 0 });
        h.record_read(x, t(1), 3);
        // A writer that has seen neither conflicts with both.
        let (ww, wr) = h.write_races(x, |_| 0);
        assert!(ww);
        assert!(wr);
        // A writer that has seen the write but not the read.
        let (ww, wr) = h.write_races(x, |tid| if tid == t(0) { 1 } else { 0 });
        assert!(!ww);
        assert!(wr);
    }

    #[test]
    fn record_write_overwrites_previous_entries() {
        let mut h = AccessHistories::new();
        let x = VarId::new(0);
        h.record_write(x, 2, |tid| if tid == t(0) { 5 } else { 0 });
        h.record_write(x, 2, |tid| if tid == t(1) { 2 } else { 0 });
        let w = h.write_clock(x).unwrap();
        assert_eq!(w.get(t(0)), 0);
        assert_eq!(w.get(t(1)), 2);
    }

    #[test]
    fn clock_accessors_filter_bottom() {
        let mut h = AccessHistories::new();
        let x = VarId::new(0);
        assert!(h.write_clock(x).is_none());
        h.record_read(x, t(0), 1);
        assert!(h.read_clock(x).is_some());
        assert!(h.write_clock(x).is_none());
    }
}
