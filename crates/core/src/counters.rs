use std::fmt;
use std::ops::AddAssign;

/// Deterministic work counters maintained by every detector.
///
/// The paper's evaluation is largely phrased in these quantities: how
/// many synchronization events were *skipped* versus *processed*
/// (Fig. 6(b), Fig. 7), how many deep copies the lazy-copy protocol paid
/// (Fig. 8), and how many ordered-list entries were traversed versus
/// saved (Fig. 6(c), Fig. 9). Counting them exactly — rather than only
/// measuring wall-clock time — makes runs reproducible and
/// machine-independent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Total events handed to the detector.
    pub events: u64,
    /// Read events observed.
    pub reads: u64,
    /// Write events observed.
    pub writes: u64,
    /// Access events that were sampled into `S`.
    pub sampled_accesses: u64,
    /// Acquire events observed.
    pub acquires: u64,
    /// Release events observed.
    pub releases: u64,
    /// Acquires whose vector-clock work was skipped entirely
    /// (freshness check proved the message redundant).
    pub acquires_skipped: u64,
    /// Acquires that performed clock work (join or partial traversal).
    pub acquires_processed: u64,
    /// Releases whose clock transfer was skipped (SU) or that needed no
    /// local flush (SO with nothing sampled since the last release).
    pub releases_skipped: u64,
    /// Releases that performed an `O(T)` clock copy (Djit+/FT/ST/SU).
    pub releases_processed: u64,
    /// `O(1)` shallow copies performed at releases (SO).
    pub shallow_copies: u64,
    /// Deep copies forced by mutation-while-shared (SO).
    pub deep_copies: u64,
    /// Local-epoch increments (`RelAfter_S` releases; every release for
    /// Djit+/FT).
    pub local_increments: u64,
    /// Individual clock entries examined during sync-event clock work.
    pub entries_traversed: u64,
    /// Entries *not* examined thanks to the ordered list (`Σ (T − d)`
    /// over non-skipped acquires) — the numerator of Fig. 9.
    pub entries_saved: u64,
    /// Number of `O(T)` vector-clock operations performed.
    pub vc_ops: u64,
    /// Race checks executed at sampled accesses.
    pub race_checks: u64,
    /// Races reported.
    pub races: u64,
}

impl Counters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Access events observed (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Access events rejected by the sampler — the lock-free skip path's
    /// traffic (accesses − sampled).
    pub fn skipped_accesses(&self) -> u64 {
        self.accesses().saturating_sub(self.sampled_accesses)
    }

    /// Fraction of accesses that took the skip path — the headline
    /// number of the hoisted-decision fast path (invariant 10). Zero
    /// when no accesses.
    pub fn skip_ratio(&self) -> f64 {
        ratio(self.skipped_accesses(), self.accesses())
    }

    /// Folds accesses short-circuited by a hoisted sampling decision
    /// back into the observation tallies: each skipped access counts as
    /// one event plus one read or write, exactly as the inline skip
    /// path tallies it. Bit-exact with inline processing by
    /// construction — a skipped access touches no other field.
    pub fn fold_skipped_accesses(&mut self, reads: u64, writes: u64) {
        self.events += reads + writes;
        self.reads += reads;
        self.writes += writes;
    }

    /// Synchronization events observed (acquires + releases).
    pub fn syncs(&self) -> u64 {
        self.acquires + self.releases
    }

    /// Fraction of acquires skipped (Fig. 7). Zero when no acquires.
    pub fn acquire_skip_ratio(&self) -> f64 {
        ratio(self.acquires_skipped, self.acquires)
    }

    /// Fraction of releases that performed an `O(T)` copy — the SU series
    /// of Fig. 8.
    pub fn release_processed_ratio(&self) -> f64 {
        ratio(self.releases_processed, self.releases)
    }

    /// Deep copies over total releases — the SO series of Fig. 8.
    pub fn deep_copy_ratio(&self) -> f64 {
        ratio(self.deep_copies, self.releases)
    }

    /// `SavedTraversals / AllTraversals` over non-skipped acquires — the
    /// saving ratio of Fig. 9.
    pub fn saving_ratio(&self) -> f64 {
        ratio(
            self.entries_saved,
            self.entries_saved + self.entries_traversed,
        )
    }

    /// Average clock entries traversed per acquire — the y-axis of
    /// Fig. 6(c).
    pub fn traversals_per_acquire(&self) -> f64 {
        if self.acquires == 0 {
            0.0
        } else {
            self.entries_traversed as f64 / self.acquires as f64
        }
    }

    /// Fraction of sync events that performed an `O(T)` operation — the
    /// y/x slope of Fig. 6(b).
    pub fn sync_handled_ratio(&self) -> f64 {
        ratio(
            self.acquires_processed + self.releases_processed,
            self.syncs(),
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        self.events += rhs.events;
        self.reads += rhs.reads;
        self.writes += rhs.writes;
        self.sampled_accesses += rhs.sampled_accesses;
        self.acquires += rhs.acquires;
        self.releases += rhs.releases;
        self.acquires_skipped += rhs.acquires_skipped;
        self.acquires_processed += rhs.acquires_processed;
        self.releases_skipped += rhs.releases_skipped;
        self.releases_processed += rhs.releases_processed;
        self.shallow_copies += rhs.shallow_copies;
        self.deep_copies += rhs.deep_copies;
        self.local_increments += rhs.local_increments;
        self.entries_traversed += rhs.entries_traversed;
        self.entries_saved += rhs.entries_saved;
        self.vc_ops += rhs.vc_ops;
        self.race_checks += rhs.race_checks;
        self.races += rhs.races;
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "events={} sampled={} skipped={} (skip {:.1}%) acq={} (skipped {:.1}%) rel={} (processed {:.1}%)",
            self.events,
            self.sampled_accesses,
            self.skipped_accesses(),
            100.0 * self.skip_ratio(),
            self.acquires,
            100.0 * self.acquire_skip_ratio(),
            self.releases,
            100.0 * self.release_processed_ratio(),
        )?;
        write!(
            f,
            "vc_ops={} deep={} shallow={} traversed={} saved={} races={}",
            self.vc_ops,
            self.deep_copies,
            self.shallow_copies,
            self.entries_traversed,
            self.entries_saved,
            self.races
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let c = Counters::new();
        assert_eq!(c.acquire_skip_ratio(), 0.0);
        assert_eq!(c.saving_ratio(), 0.0);
        assert_eq!(c.traversals_per_acquire(), 0.0);
    }

    #[test]
    fn ratios_compute_fractions() {
        let c = Counters {
            acquires: 10,
            acquires_skipped: 4,
            acquires_processed: 6,
            releases: 5,
            releases_processed: 2,
            deep_copies: 1,
            entries_traversed: 30,
            entries_saved: 90,
            ..Counters::new()
        };
        assert!((c.acquire_skip_ratio() - 0.4).abs() < 1e-12);
        assert!((c.release_processed_ratio() - 0.4).abs() < 1e-12);
        assert!((c.deep_copy_ratio() - 0.2).abs() < 1e-12);
        assert!((c.saving_ratio() - 0.75).abs() < 1e-12);
        assert!((c.traversals_per_acquire() - 3.0).abs() < 1e-12);
        assert!((c.sync_handled_ratio() - 8.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn add_assign_sums_fields() {
        let mut a = Counters {
            events: 1,
            races: 2,
            ..Counters::new()
        };
        let b = Counters {
            events: 3,
            races: 1,
            deep_copies: 7,
            ..Counters::new()
        };
        a += b;
        assert_eq!(a.events, 4);
        assert_eq!(a.races, 3);
        assert_eq!(a.deep_copies, 7);
    }
}
