//! The `freshtrack` command-line interface.
//!
//! Subcommands:
//!
//! * `analyze <trace>` — run a detector engine over a trace. A
//!   segmented `.ftb` v2 file decodes ahead of the analysis on `--jobs
//!   N` threads (default 1), every segment checksum verified, with
//!   output byte-identical to streaming; stdin, text and v1 input
//!   stream in constant memory. `--cache` keeps a `.ftc` sidecar so
//!   re-analysis after an append replays only the appended segments,
//!   resuming from the state the sidecar keeps after the file's last
//!   two segments; the reused prefix still costs a CRC re-hash of its
//!   bytes.
//! * `oracle <trace>` — ground-truth racy events. The default exact
//!   mode materializes (200k-event cap, enforced while streaming);
//!   `--window N` / `--reservoir K` / `--stream` switch to the
//!   bounded-memory [`StreamingOracle`] — same racy-event output at
//!   any window size, unbounded input length.
//!
//! [`StreamingOracle`]: freshtrack_core::StreamingOracle
//! * `stats <trace>` — trace statistics, streamed in constant memory.
//! * `convert <trace>` — re-encode between the text, binary (`.ftb`)
//!   and segmented (`.ftb` v2, `--to binary-v2`) formats.
//! * `segments <file>` — verify a v2 file and print its footer index.
//! * `generate` — generate a synthetic workload trace.
//! * `corpus` — list or emit the offline benchmark corpus.
//! * `dbsim` — run the online database benchmark with a detector.
//!
//! Trace-consuming commands accept `-` for stdin and auto-detect the
//! text vs binary (`.ftb`) format from the input's first bytes, so
//! `freshtrack generate | freshtrack convert - --to binary |
//! freshtrack analyze -` pipes end to end without temporary files.
//!
//! Run `freshtrack help` for full usage. The library entry point
//! [`run`] is separated from `main` so commands are unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{ArgError, Args};
pub use commands::run;

/// The top-level usage text.
pub const USAGE: &str = "\
freshtrack — sampling-based happens-before race detection

USAGE:
    freshtrack <command> [options]

COMMANDS:
    analyze <trace>   run a detector over a trace (`-` = stdin; text
                      or binary input is auto-detected). Stdin, text
                      and v1 `.ftb` input stream in constant memory; a
                      segmented `.ftb` v2 file decodes ahead on --jobs
                      threads and has every segment checksum verified
                      (stdin cannot be: the checksums sit in the footer,
                      which a stream reaches last)
                      --engine ft|st|sam|su|so (default so; `sam`
                      always streams)
                      --rate <0..1> (default 0.03)  --seed <n>
                      --counters    print work counters
                      --jobs <n>    decoder threads for a segmented
                      `.ftb` v2 file (default 1; n>=2 needs one;
                      output is byte-identical at every n)
                      --cache[=PATH]  reuse + rewrite a `.ftc` analysis
                      sidecar (default PATH: trace path with `.ftc`);
                      re-analysis after an append replays only the
                      new segments: the sidecar keeps the analysis
                      state after the last two segments, so a file
                      that grew past its last cached segment resumes
                      there (the reused prefix is still re-hashed);
                      output stays byte-identical to a cold run
                      --no-cache    ignore any sidecar even if --cache
    oracle <trace>    ground-truth racy events (`-` = stdin; text or
                      binary input auto-detected, exactly as analyze)
                      --rate <0..1> (default 1.0)   --seed <n>
                      default: exact O(N^2) oracle, capped at 200k
                      events (enforced while streaming)
                      --stream          bounded-memory streaming oracle
                      --window <n>      per-var access window (implies
                      --stream; racy events stay exact, racy pairs
                      are reported while windowed)
                      --reservoir <k>   also check pairs against a
                      uniform reservoir of k accesses (implies --stream)
                      --stats           print run statistics
    stats <trace>     print trace statistics (streaming, constant
                      memory; `-` = stdin, format auto-detected)
    convert <trace>   re-encode a trace to stdout (`-` = stdin,
                      input format auto-detected)
                      --to text|binary|binary-v2   target (required)
                      --segment-events <n>  v2 segment size
                      (default 4096)
    segments <file>   verify a segmented `.ftb` v2 file and print its
                      footer index
                      --cache[=PATH]  also show, per segment, whether
                      a cached analyze would reuse it (hit), its `.ftc`
                      sidecar entry cannot be reused (stale), or it
                      has none (`-`)
    generate          generate a workload trace to stdout
                      --pattern mixed|pc|pipeline|forkjoin|barrier|ladder
                      --events <n> --threads <n> --locks <n> --vars <n>
                      --sync-ratio <0..1> --unprotected <0..1> --seed <n>
    corpus            --list, or --bench <name> [--scale <f>] [--seed <n>]
                      to emit a corpus trace to stdout (--scale > 0
                      multiplies the benchmark's event count)
    dbsim             run the online database benchmark
                      --mix <name> (default ycsb) --engine ft|st|su|so
                      --rate <f> --workers <n> --txns <n> --seed <n>
                      --shards <n>  access shards (default 1 =
                      single analysis mutex; N>=2 shards access
                      analysis by variable and keeps sync state per
                      thread and per lock, same verdicts)
    help              show this message
";
