//! Multi-threaded stress for the per-object sharded façade.
//!
//! [`ShardedOnlineDetector`] keeps one sync slot per thread and one per
//! lock, and draws tickets without a global lock. Here real OS threads
//! share a small set of application locks under locking discipline —
//! each reports `acquire` right after taking a lock and `release` right
//! before dropping it, as an instrumented program does — so lock slots,
//! thread slots and shards are exercised under true contention. Run it
//! with `RUST_TEST_THREADS` unset so the harness does not serialize the
//! stress threads.
//!
//! For Djit+, FastTrack and SO at rates 0.03 and 1.0, every run must:
//!
//! * draw exactly one ticket per issued event (`events_processed`);
//! * count exactly the reads, writes, acquires and releases issued;
//! * return each access's verdict from its own `read`/`write` call: the
//!   `true` returns equal the merged reports and `Counters::races`;
//! * report nothing when every access is lock-protected;
//! * with one deliberately unprotected variable, report races only on
//!   it — and under FastTrack at rate 1.0, report it.

use std::sync::{Arc, Barrier, Mutex};

use freshtrack_core::{
    Counters, DjitDetector, FastTrackDetector, OrderedListDetector, RaceReport,
    ShardedOnlineDetector, SplitDetector,
};
use freshtrack_sampling::BernoulliSampler;
use freshtrack_trace::VarId;

const THREADS: u32 = 4;
const ITERS: u32 = 1500;
const LOCKS: u32 = 3;
/// Variables each lock protects: lock `l` guards `l * VARS_PER_LOCK ..`.
const VARS_PER_LOCK: u32 = 4;
/// The deliberately unprotected variable, outside every lock's range.
const RACY_VAR: u32 = LOCKS * VARS_PER_LOCK;
const SHARDS: usize = 2;

/// Events one run issued, by kind, and the accesses whose own call
/// returned a race verdict.
#[derive(Debug, Default, PartialEq, Eq, Clone, Copy)]
struct Issued {
    reads: u64,
    writes: u64,
    acquires: u64,
    releases: u64,
    races: u64,
}

impl Issued {
    fn total(&self) -> u64 {
        self.reads + self.writes + self.acquires + self.releases
    }

    fn of(c: &Counters) -> Issued {
        Issued {
            reads: c.reads,
            writes: c.writes,
            acquires: c.acquires,
            releases: c.releases,
            races: c.races,
        }
    }
}

/// Runs the stress program on `THREADS` OS threads and returns the
/// merged reports, counters, tickets drawn and the issued tally.
fn stress<D: SplitDetector + 'static>(
    detector: D,
    racy: bool,
) -> (Vec<RaceReport>, Counters, u64, Issued) {
    let sharded = Arc::new(ShardedOnlineDetector::new(detector, SHARDS));
    let app_locks: Arc<Vec<Mutex<()>>> = Arc::new((0..LOCKS).map(|_| Mutex::new(())).collect());
    let start = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let sharded = Arc::clone(&sharded);
            let app_locks = Arc::clone(&app_locks);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut issued = Issued::default();
                start.wait();
                if racy {
                    // Before any sync event: the threads' writes are
                    // unordered by happens-before whatever the schedule.
                    issued.races += u64::from(sharded.write(t, RACY_VAR));
                    issued.writes += 1;
                }
                for i in 0..ITERS {
                    let l = (i + t) % LOCKS;
                    let guard = app_locks[l as usize].lock().unwrap();
                    sharded.acquire(t, l);
                    issued.acquires += 1;
                    let var = l * VARS_PER_LOCK + i % VARS_PER_LOCK;
                    issued.races += u64::from(sharded.read(t, var));
                    issued.races += u64::from(sharded.write(t, var));
                    issued.reads += 1;
                    issued.writes += 1;
                    // Every few iterations nest a second lock, in
                    // ascending order so the program cannot deadlock.
                    if i % 5 == 0 && l + 1 < LOCKS {
                        let m = l + 1;
                        let inner = app_locks[m as usize].lock().unwrap();
                        sharded.acquire(t, m);
                        issued.races +=
                            u64::from(sharded.write(t, m * VARS_PER_LOCK + t % VARS_PER_LOCK));
                        sharded.release(t, m);
                        drop(inner);
                        issued.acquires += 1;
                        issued.writes += 1;
                        issued.releases += 1;
                    }
                    sharded.release(t, l);
                    issued.releases += 1;
                    drop(guard);
                }
                issued
            })
        })
        .collect();
    let mut issued = Issued::default();
    for h in handles {
        let one = h.join().unwrap();
        issued.reads += one.reads;
        issued.writes += one.writes;
        issued.acquires += one.acquires;
        issued.releases += one.releases;
        issued.races += one.races;
    }
    let tickets = sharded.events_processed();
    let (reports, counters) = Arc::try_unwrap(sharded).ok().unwrap().finish_merged();
    (reports, counters, tickets, issued)
}

/// Runs both programs for one engine at one rate.
fn check<D, F>(label: &str, rate: f64, make: F)
where
    D: SplitDetector + 'static,
    F: Fn(BernoulliSampler) -> D,
{
    for racy in [false, true] {
        let cell = format!("{label} rate={rate} racy={racy}");
        let (reports, counters, tickets, issued) =
            stress(make(BernoulliSampler::new(rate, 17)), racy);
        assert_eq!(
            tickets,
            issued.total(),
            "[{cell}] tickets lost or duplicated"
        );
        assert_eq!(counters.events, issued.total(), "[{cell}] events");
        assert_inline_verdicts(&cell, &reports, &counters, issued);
        assert_eq!(Issued::of(&counters), issued, "[{cell}] per-kind counts");
        assert_eq!(
            counters.sampled_accesses + counters.skipped_accesses(),
            issued.reads + issued.writes,
            "[{cell}] every access analyzed or tallied"
        );
        assert!(
            reports.windows(2).all(|w| w[0].event < w[1].event),
            "[{cell}] merged reports must be strictly sorted"
        );
        if racy {
            assert!(
                reports.iter().all(|r| r.var == VarId::new(RACY_VAR)),
                "[{cell}] only the unprotected variable may race: {reports:?}"
            );
        } else {
            assert!(reports.is_empty(), "[{cell}] {reports:?}");
        }
    }
}

/// Every racing access reported its verdict from its own call: the
/// `true` returns of `read`/`write` equal the merged reports and the
/// merged race counter.
fn assert_inline_verdicts(cell: &str, reports: &[RaceReport], counters: &Counters, issued: Issued) {
    assert_eq!(
        issued.races,
        reports.len() as u64,
        "[{cell}] inline verdicts vs merged reports"
    );
    assert_eq!(
        issued.races, counters.races,
        "[{cell}] inline verdicts vs counters"
    );
}

#[test]
fn djit_under_contention() {
    for rate in [0.03, 1.0] {
        check("djit", rate, DjitDetector::new);
    }
}

#[test]
fn fasttrack_under_contention() {
    for rate in [0.03, 1.0] {
        check("fasttrack", rate, FastTrackDetector::new);
    }
}

#[test]
fn so_under_contention() {
    for rate in [0.03, 1.0] {
        check("so", rate, OrderedListDetector::new);
    }
}

/// The unprotected variable must actually be found: FastTrack at full
/// sampling analyzes every access, and the threads' first writes are
/// concurrent under any schedule.
#[test]
fn fasttrack_reports_the_unprotected_variable() {
    let (reports, counters, _, issued) =
        stress(FastTrackDetector::new(BernoulliSampler::new(1.0, 17)), true);
    assert!(!reports.is_empty(), "the unprotected race was missed");
    assert!(reports.iter().all(|r| r.var == VarId::new(RACY_VAR)));
    assert_eq!(counters.races as usize, reports.len());
    assert_inline_verdicts("fasttrack rate=1 racy=true", &reports, &counters, issued);
}
