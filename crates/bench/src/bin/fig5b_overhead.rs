//! Fig. 5(b): improvement in *algorithmic overhead* of SU and SO over
//! the naive sampling baseline ST, per sampling rate.
//!
//! `AO(S) = latency(S) − latency(ET)`; the plotted quantity is
//! `1 − AO(S)/AO(ST)`. The paper reports average improvements of ~37%
//! at 0.3%, ~17–19% at 3%, and ~3% at 10%, with the improvement
//! shrinking as the rate grows.
//!
//! A cell whose `AO(ST)` is not positive — ST measured no slower than
//! ET — has no ratio and prints `n/a`; the mean row averages the
//! resolved cells only and says how many there were.

use freshtrack_bench::{run_online, run_options, OnlineConfig};
use freshtrack_rapid::report::{pct, Table};
use freshtrack_workloads::benchbase::benchbase_suite;

fn main() {
    let options = run_options();
    let rates = [0.003, 0.03, 0.10];

    println!(
        "Fig. 5(b): improvement in algorithmic overhead vs ST  (workers={}, txns/worker={})",
        options.workers, options.txns_per_worker
    );
    let mut table = Table::new(&[
        "benchmark",
        "SU-0.3%",
        "SU-3%",
        "SU-10%",
        "SO-0.3%",
        "SO-3%",
        "SO-10%",
    ]);
    // Per column: the sum of the resolved cells and how many there were.
    let mut sums = [(0.0f64, 0usize); 6];
    let mut counted = 0usize;

    for workload in benchbase_suite() {
        let et = run_online(&workload, OnlineConfig::Et, &options)
            .mean_latency
            .as_nanos() as f64;
        let mut cells = vec![workload.name.to_string()];
        let mut su_cells = Vec::new();
        let mut so_cells = Vec::new();
        for (ri, &rate) in rates.iter().enumerate() {
            let st = run_online(&workload, OnlineConfig::St(rate), &options)
                .mean_latency
                .as_nanos() as f64;
            let su = run_online(&workload, OnlineConfig::Su(rate), &options)
                .mean_latency
                .as_nanos() as f64;
            let so = run_online(&workload, OnlineConfig::So(rate), &options)
                .mean_latency
                .as_nanos() as f64;
            for (column, s, cells) in [(ri, su, &mut su_cells), (3 + ri, so, &mut so_cells)] {
                let cell = improvement(et, st, s);
                if let Some(x) = cell {
                    sums[column].0 += x;
                    sums[column].1 += 1;
                }
                cells.push(cell.map_or_else(|| "n/a".to_string(), pct));
            }
        }
        cells.extend(su_cells);
        cells.extend(so_cells);
        counted += 1;
        table.row_owned(cells);
    }

    let mut cells = vec!["mean".to_string()];
    for (sum, resolved) in sums {
        let mean = if resolved == 0 {
            "n/a".to_string()
        } else {
            pct(sum / resolved as f64)
        };
        cells.push(format!("{mean} ({resolved}/{counted})"));
    }
    table.row_owned(cells);
    print!("{}", table.render());
    println!();
    println!("expected shape: improvement largest at 0.3%, shrinking toward 10%");
}

/// `1 − AO(S)/AO(ST)` for mean latencies `et`, `st` and `s` (of ET, ST
/// and the configuration S), or `None` when `AO(ST) = st − et ≤ 0`.
fn improvement(et: f64, st: f64, s: f64) -> Option<f64> {
    let ao_st = st - et;
    (ao_st > 0.0).then(|| 1.0 - (s - et) / ao_st)
}

#[cfg(test)]
mod tests {
    use super::improvement;

    #[test]
    fn improvement_is_the_saved_share_of_st_overhead() {
        assert_eq!(improvement(100.0, 200.0, 150.0), Some(0.5));
        assert_eq!(improvement(100.0, 200.0, 200.0), Some(0.0));
        assert_eq!(improvement(100.0, 200.0, 300.0), Some(-1.0));
    }

    #[test]
    fn unresolved_st_overhead_has_no_improvement() {
        assert_eq!(improvement(100.0, 100.0, 90.0), None);
        assert_eq!(improvement(100.0, 99.9, 150.0), None);
        assert_eq!(improvement(100.0, f64::NAN, 150.0), None);
    }
}
