//! Fig. 5(a): relative average transaction latency of ET, FT and
//! ST-{0.3%, 3%, 10%} with respect to the uninstrumented baseline NT.
//!
//! The paper reports (MySQL/TSan): ET ≈ 3.1×, FT ≈ 9×, ST ≈ 4.5× / 5.1×
//! / 5.8× at the three rates. Expect the same *ordering* here
//! (NT < ET < ST-0.3% < ST-3% < ST-10% < FT); absolute factors depend on
//! the substrate.
//!
//! With `--out FILE`, additionally writes the absolute latencies as
//! machine-readable JSON (`freshtrack/dbsim-latency-table/v1`) so the
//! numbers land on the perf trajectory; `FT_SHARDS` selects the
//! ingestion path (see `record_baseline --dbsim` for the dedicated
//! single-mutex-vs-sharded scaling measurement).

use freshtrack_bench::{run_online, run_options, IngestMode, OnlineConfig, OnlineRun};
use freshtrack_rapid::report::{fmt3, Table};
use freshtrack_workloads::benchbase::benchbase_suite;

fn json_row(benchmark: &str, run: &OnlineRun) -> String {
    format!(
        "    {{\"benchmark\": \"{}\", \"config\": \"{}\", \"mean_us\": {:.2}, \"p50_us\": {}, \"p95_us\": {}}}",
        benchmark,
        run.label,
        run.mean_latency.as_nanos() as f64 / 1_000.0,
        run.p50_us,
        run.p95_us
    )
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().expect("--out needs a value")),
            "--help" | "-h" => {
                eprintln!("fig5a_latency [--out FILE]   (env: FT_WORKERS/FT_TXNS/FT_SEED/FT_RUNS/FT_SHARDS)");
                return;
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    let options = run_options();
    let mode = IngestMode::from_env();
    let configs = [
        OnlineConfig::Nt,
        OnlineConfig::Et,
        OnlineConfig::Ft,
        OnlineConfig::St(0.003),
        OnlineConfig::St(0.03),
        OnlineConfig::St(0.10),
    ];

    println!(
        "Fig. 5(a): latency relative to NT  (workers={}, txns/worker={}{})",
        options.workers,
        options.txns_per_worker,
        mode.label_suffix()
    );
    let mut table = Table::new(&[
        "benchmark",
        "NT(us)",
        "ET",
        "FT",
        "ST-0.3%",
        "ST-3%",
        "ST-10%",
    ]);
    let mut geo: Vec<f64> = vec![0.0; configs.len() - 1];
    let mut counted = 0usize;
    let mut json_rows: Vec<String> = Vec::new();

    for workload in benchbase_suite() {
        let runs: Vec<_> = configs
            .iter()
            .map(|&c| run_online(&workload, c, &options))
            .collect();
        let nt = runs[0].mean_latency.as_nanos().max(1) as f64;
        let mut cells = vec![workload.name.to_string(), fmt3(nt / 1_000.0)];
        for (i, run) in runs.iter().enumerate().skip(1) {
            let rel = run.mean_latency.as_nanos() as f64 / nt;
            geo[i - 1] += rel.ln();
            cells.push(fmt3(rel));
        }
        for run in &runs {
            json_rows.push(json_row(workload.name, run));
        }
        counted += 1;
        table.row_owned(cells);
    }

    let mut cells = vec!["geomean".to_string(), String::new()];
    for g in &geo {
        cells.push(fmt3((g / counted as f64).exp()));
    }
    table.row_owned(cells);
    print!("{}", table.render());
    println!();
    println!("expected shape: 1 < ET < ST-0.3% < ST-3% < ST-10% < FT");

    if let Some(path) = out_path {
        let (shards, sync_mode) = match mode {
            IngestMode::SingleMutex => (0, "none"),
            IngestMode::ShardedSeqlock(n) => (n, "seqlock"),
        };
        let json = format!(
            "{{\n  \"schema\": \"freshtrack/dbsim-latency-table/v1\",\n  \
             \"workers\": {},\n  \"txns_per_worker\": {},\n  \"seed\": {},\n  \
             \"shards\": {},\n  \"sync_mode\": \"{}\",\n  \"note\": \"absolute per-transaction latencies; shards=0 means the single-mutex ingestion path; sync_mode tags the sharded sync-skeleton construction\",\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            options.workers,
            options.txns_per_worker,
            options.seed,
            shards,
            sync_mode,
            json_rows.join(",\n")
        );
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
