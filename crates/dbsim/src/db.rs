use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::Worker;

/// One table: a fixed array of row cells plus a table latch (protecting
/// "metadata", modelled as one shared cell per table).
#[derive(Debug)]
struct Table {
    rows: Vec<AtomicU64>,
    latch: Mutex<()>,
    meta: AtomicU64,
}

/// A multi-table in-memory database with two-phase-locking transactions
/// over **hash-striped row latches**.
///
/// Real storage engines do not allocate one mutex per row; rows hash
/// into a bounded pool of lock stripes, so the latch population is small
/// and hot — the synchronization shape the paper's MySQL substrate
/// exhibits and that its freshness timestamps exploit.
///
/// Shared-state identifiers are dense, matching what the detectors
/// expect:
///
/// * **variable ids**: row `(t, r)` ↦ `t · rows_per_table + r`; table
///   `t`'s metadata cell ↦ `tables · rows_per_table + t`; the global
///   statistics counter is the last id.
/// * **lock ids**: stripe `s` ↦ `s`; table `t`'s latch ↦ `stripes + t`.
///
/// Values are atomics with relaxed ordering so that the *deliberately
/// unsynchronized* accesses (the seeded races the evaluation hunts)
/// remain well-defined Rust while still being genuine data races in the
/// observed event stream.
#[derive(Debug)]
pub struct Database {
    tables: Vec<Table>,
    stripes: Vec<Mutex<()>>,
    rows_per_table: u32,
    stats: AtomicU64,
}

impl Database {
    /// Creates a database with `tables` tables of `rows_per_table` rows,
    /// protected by `stripes` row-latch stripes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(tables: u32, rows_per_table: u32, stripes: u32) -> Self {
        assert!(
            tables > 0 && rows_per_table > 0 && stripes > 0,
            "empty schema"
        );
        Database {
            tables: (0..tables)
                .map(|_| Table {
                    rows: (0..rows_per_table).map(|_| AtomicU64::new(0)).collect(),
                    latch: Mutex::new(()),
                    meta: AtomicU64::new(0),
                })
                .collect(),
            stripes: (0..stripes).map(|_| Mutex::new(())).collect(),
            rows_per_table,
            stats: AtomicU64::new(0),
        }
    }

    /// Number of tables.
    pub fn table_count(&self) -> u32 {
        self.tables.len() as u32
    }

    /// Rows per table.
    pub fn rows_per_table(&self) -> u32 {
        self.rows_per_table
    }

    /// Number of row-latch stripes.
    pub fn stripe_count(&self) -> u32 {
        self.stripes.len() as u32
    }

    /// The dense variable id of row `(table, row)`.
    pub fn row_id(&self, table: u32, row: u32) -> u32 {
        table * self.rows_per_table + row
    }

    /// The stripe (and its dense lock id) guarding row `(table, row)`.
    pub fn stripe_of(&self, table: u32, row: u32) -> u32 {
        // Fibonacci hashing spreads sequential rows across stripes.
        let key = ((table as u64) << 32) | row as u64;
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as u32 % self.stripe_count()
    }

    /// The dense lock id of table `table`'s latch; also the dense
    /// variable id of its metadata cell.
    pub fn table_latch_id(&self, table: u32) -> u32 {
        self.stripe_count() + table
    }

    /// The dense variable id of table `table`'s metadata cell.
    pub fn table_meta_id(&self, table: u32) -> u32 {
        self.table_count() * self.rows_per_table + table
    }

    /// The dense variable id of the global statistics counter.
    pub fn stats_id(&self) -> u32 {
        self.table_count() * self.rows_per_table + self.table_count()
    }

    /// Executes a transaction over the given `(table, row, is_write)`
    /// operations under two-phase locking of the rows' stripes, invoking
    /// the calling worker's `inst` for every lock operation and row
    /// access. Stripes are
    /// locked in canonical (sorted, deduplicated) order, so transactions
    /// never deadlock.
    ///
    /// Returns the number of shared accesses performed.
    pub fn transaction(&self, ops: &[(u32, u32, bool)], inst: &mut dyn Worker) -> usize {
        // Growing phase: lock the stripes of all touched rows.
        let mut stripe_ids: Vec<u32> = ops.iter().map(|&(t, r, _)| self.stripe_of(t, r)).collect();
        stripe_ids.sort_unstable();
        stripe_ids.dedup();
        let mut guards = Vec::with_capacity(stripe_ids.len());
        for &s in &stripe_ids {
            let guard = self.stripes[s as usize].lock();
            inst.acquire(s);
            guards.push((s, guard));
        }

        // Execute. Each operation first performs an index lookup — a
        // short table-latch critical section, as a real engine's B-tree
        // descent would. This is what makes database workloads
        // lock-frequent relative to their shared accesses (the paper's
        // reason for choosing MySQL). Lock order is globally
        // stripes-then-latches, so no deadlock is possible.
        let mut accesses = 0;
        for &(t, r, is_write) in ops {
            let table = &self.tables[t as usize];
            let g = table.latch.lock();
            inst.acquire(self.table_latch_id(t));
            inst.read(self.table_meta_id(t));
            let _ = table.meta.load(Ordering::Relaxed);
            inst.release(self.table_latch_id(t));
            drop(g);
            accesses += 1;

            // Row operations touch several fields: locate, read the
            // current value, then (for updates) write it back — so
            // access events outnumber lock events, as in real binaries.
            let cell = &table.rows[r as usize];
            let var = self.row_id(t, r);
            inst.read(var);
            let _ = cell.load(Ordering::Relaxed);
            inst.read(var);
            let _ = cell.load(Ordering::Relaxed);
            accesses += 2;
            if is_write {
                inst.write(var);
                cell.fetch_add(1, Ordering::Relaxed);
                accesses += 1;
            }
        }

        // Shrinking phase: release in reverse canonical order.
        while let Some((s, guard)) = guards.pop() {
            inst.release(s);
            drop(guard);
        }
        accesses
    }

    /// Reads a table's metadata cell under its latch (index lookups,
    /// statistics pages — the short critical sections real servers are
    /// full of).
    pub fn latched_meta_read(&self, table: u32, inst: &mut dyn Worker) {
        let t = &self.tables[table as usize];
        let guard = t.latch.lock();
        inst.acquire(self.table_latch_id(table));
        inst.read(self.table_meta_id(table));
        let _ = t.meta.load(Ordering::Relaxed);
        inst.release(self.table_latch_id(table));
        drop(guard);
    }

    /// Updates a table's metadata cell under its latch.
    pub fn latched_meta_write(&self, table: u32, inst: &mut dyn Worker) {
        let t = &self.tables[table as usize];
        let guard = t.latch.lock();
        inst.acquire(self.table_latch_id(table));
        inst.write(self.table_meta_id(table));
        t.meta.fetch_add(1, Ordering::Relaxed);
        inst.release(self.table_latch_id(table));
        drop(guard);
    }

    /// The deliberately unsynchronized statistics bump: a genuine data
    /// race in the event stream (well-defined in Rust via the atomic).
    pub fn unprotected_stats_bump(&self, inst: &mut dyn Worker) {
        inst.write(self.stats_id());
        self.stats.fetch_add(1, Ordering::Relaxed);
    }

    /// A row access that *bypasses* the stripe latch — the missing-lock
    /// bug class that seeds racy locations across the whole table space
    /// (well-defined in Rust via the atomic; a data race in the event
    /// stream).
    pub fn unprotected_row_touch(
        &self,
        table: u32,
        row: u32,
        is_write: bool,
        inst: &mut dyn Worker,
    ) {
        let cell = &self.tables[table as usize].rows[row as usize];
        let var = self.row_id(table, row);
        if is_write {
            inst.write(var);
            cell.fetch_add(1, Ordering::Relaxed);
        } else {
            inst.read(var);
            let _ = cell.load(Ordering::Relaxed);
        }
    }

    /// Current value of the statistics counter.
    pub fn stats_value(&self) -> u64 {
        self.stats.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Instrument, NoInstrument};

    #[test]
    fn ids_are_dense_and_disjoint() {
        let db = Database::new(3, 100, 16);
        assert_eq!(db.row_id(0, 0), 0);
        assert_eq!(db.row_id(2, 99), 299);
        assert_eq!(db.table_meta_id(0), 300);
        assert_eq!(db.table_meta_id(2), 302);
        assert_eq!(db.stats_id(), 303);
        // Lock space: stripes 0..16, latches 16..19.
        assert!(db.stripe_of(2, 99) < 16);
        assert_eq!(db.table_latch_id(0), 16);
        assert_eq!(db.table_latch_id(2), 18);
    }

    #[test]
    fn stripes_spread_rows() {
        let db = Database::new(1, 1_000, 32);
        let mut seen = [false; 32];
        for r in 0..1_000 {
            seen[db.stripe_of(0, r) as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 24, "poor spread");
    }

    #[test]
    fn transaction_dedups_colliding_stripes() {
        let db = Database::new(1, 10, 2);
        // With 2 stripes several rows collide; must not self-deadlock.
        let n = db.transaction(
            &[(0, 1, true), (0, 3, false), (0, 5, true), (0, 1, false)],
            NoInstrument.worker(0).as_mut(),
        );
        // 4 index lookups + 4 ops x (2 reads + write-if-update): 2 writes here
        assert_eq!(n, 4 + 4 * 2 + 2);
    }

    #[test]
    fn concurrent_transactions_do_not_deadlock() {
        use std::sync::Arc;
        let db = Arc::new(Database::new(2, 8, 4));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut inst = NoInstrument.worker(w);
                    for i in 0..200u32 {
                        // Overlapping row sets in clashing orders.
                        let a = (w + i) % 8;
                        let b = (w * 3 + i) % 8;
                        db.transaction(
                            &[(0, a, true), (1, b, true), (0, b % 8, false)],
                            inst.as_mut(),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn stats_counter_accumulates() {
        let db = Database::new(1, 1, 1);
        db.unprotected_stats_bump(NoInstrument.worker(0).as_mut());
        db.unprotected_stats_bump(NoInstrument.worker(1).as_mut());
        assert_eq!(db.stats_value(), 2);
    }
}
