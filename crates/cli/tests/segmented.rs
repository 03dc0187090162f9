//! `analyze` routing between the decode-ahead pipeline and the streaming
//! reader, driven through the real `freshtrack` binary so stdin is a real
//! pipe.
//!
//! A seekable `.ftb` v2 file runs on the segment pipeline (which checks
//! every segment's CRC); stdin, text, v1, a v2 file whose footer does not
//! open, and engine `sam` stream. Both paths must print the same bytes.
//! An engine name is checked before any input is read, and `sam`, which
//! has no sync/access split, is refused by name where a split is needed.
//! A `.ftc` sidecar an earlier build wrote is pinned here too, through
//! the same binary.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use freshtrack_trace::{AnalysisCache, SegmentedTraceFile};

const BIN: &str = env!("CARGO_BIN_EXE_freshtrack");

/// A `.ftb` v2 fixture of 404 events in 5 segments.
const OLD_V2: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../trace/tests/fixtures/checkpointed_v2.ftb"
);

/// The sidecar container format 1 wrote for [`OLD_V2`] with
/// `analyze checkpointed_v2.ftb --engine so --rate 0.5 --seed 3 --cache`.
const FORMAT1_SIDECAR: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../trace/tests/fixtures/sidecar_format1.ftc"
);

/// A temporary directory removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("freshtrack-routing-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the binary with `stdin` piped in (empty when `None`); returns
/// the exit code and stdout.
fn freshtrack(args: &[&str], stdin: Option<&[u8]>) -> (i32, Vec<u8>) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn freshtrack");
    let mut pipe = child.stdin.take().expect("stdin is piped");
    let input = stdin.unwrap_or_default().to_vec();
    // Feed stdin from its own thread so a large input cannot deadlock
    // against a full stdout pipe.
    let feeder = std::thread::spawn(move || {
        let _ = pipe.write_all(&input);
    });
    let output = child.wait_with_output().expect("wait for freshtrack");
    feeder.join().expect("stdin feeder");
    (output.status.code().unwrap_or(-1), output.stdout)
}

/// Runs the binary with no stdin; returns the exit code, stdout and
/// stderr.
fn freshtrack_with_stderr(args: &[&str]) -> (i32, Vec<u8>, String) {
    let output = Command::new(BIN)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run freshtrack");
    (
        output.status.code().unwrap_or(-1),
        output.stdout,
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Runs `analyze` on `path` and on the same bytes through stdin.
fn file_and_stdin(path: &str, tail: &[&str]) -> ((i32, Vec<u8>), (i32, Vec<u8>)) {
    let bytes = std::fs::read(path).expect("read trace");
    let by_file = freshtrack(&[&["analyze", path], tail].concat(), None);
    let by_stdin = freshtrack(&[&["analyze", "-"], tail].concat(), Some(&bytes));
    (by_file, by_stdin)
}

/// The first output line with the input's path prefix taken out, so an
/// error for `path` compares with the same error for stdin (`-`).
fn error_line(out: &[u8], path: &str) -> String {
    let text = String::from_utf8_lossy(out);
    let line = text.lines().next().unwrap_or_default();
    line.replacen(&format!("{path}: "), "", 1)
        .replacen("-: ", "", 1)
}

/// Writes `text` as a trace file plus its v1 and v2 (`segment_events`
/// per segment) encodings; returns the three paths.
fn encodings(dir: &TempDir, text: &[u8], segment_events: &str) -> [String; 3] {
    let text_path = dir.path("t.trace");
    std::fs::write(&text_path, text).unwrap();
    let v1 = dir.path("t.ftb");
    let v2 = dir.path("t.ftb2");
    let (code, bytes) = freshtrack(&["convert", &text_path, "--to", "binary"], None);
    assert_eq!(code, 0);
    std::fs::write(&v1, bytes).unwrap();
    let (code, bytes) = freshtrack(
        &[
            "convert",
            &text_path,
            "--to",
            "binary-v2",
            "--segment-events",
            segment_events,
        ],
        None,
    );
    assert_eq!(code, 0);
    std::fs::write(&v2, bytes).unwrap();
    [text_path, v1, v2]
}

fn generated(dir: &TempDir) -> [String; 3] {
    let (code, text) = freshtrack(
        &[
            "generate",
            "--events",
            "4000",
            "--unprotected",
            "0.1",
            "--seed",
            "7",
        ],
        None,
    );
    assert_eq!(code, 0);
    encodings(dir, &text, "512")
}

#[test]
fn a_v2_file_matches_its_streamed_bytes_for_every_engine() {
    let dir = TempDir::new("engines");
    let [text, _, v2] = generated(&dir);
    for engine in ["so", "su", "st", "ft", "sam"] {
        for counters in [&[][..], &["--counters"][..]] {
            let tail = [
                &["--engine", engine, "--rate", "0.3", "--seed", "5"][..],
                counters,
            ]
            .concat();
            let ((code, by_file), (stdin_code, by_stdin)) = file_and_stdin(&v2, &tail);
            assert_eq!((code, stdin_code), (0, 0), "{engine} {counters:?}");
            assert_eq!(by_file, by_stdin, "{engine} {counters:?}: file vs stdin");
            let (code, by_text) =
                freshtrack(&[&["analyze", text.as_str()], &tail[..]].concat(), None);
            assert_eq!(code, 0);
            assert_eq!(by_file, by_text, "{engine} {counters:?}: v2 vs text");
        }
    }
}

#[test]
fn text_v1_and_footerless_v2_files_stream() {
    let dir = TempDir::new("streaming");
    let [text, v1, v2] = generated(&dir);
    let tail = ["--engine", "so", "--rate", "0.3", "--counters"];
    let ((_, reference), _) = file_and_stdin(&v2, &tail);
    for path in [&text, &v1] {
        let ((code, by_file), (_, by_stdin)) = file_and_stdin(path, &tail);
        assert_eq!(code, 0, "{path}");
        assert_eq!(by_file, by_stdin, "{path}");
        assert_eq!(by_file, reference, "{path}");
        // Only the segment pipeline needs a footer.
        let (code, out) = freshtrack(&["analyze", path, "--jobs", "2"], None);
        assert_eq!(code, 1, "{path}: {}", String::from_utf8_lossy(&out));
    }

    // A damaged trailer or a cut in mid-stream keeps the footer from
    // opening, so the file streams: the last byte's loss goes unseen, as
    // it does on stdin, and a cut fails with the same error as stdin.
    let bytes = std::fs::read(&v2).unwrap();
    let cut = dir.path("cut.ftb2");
    for (len, expect_code) in [(bytes.len() - 1, 0), (bytes.len() / 2, 1)] {
        std::fs::write(&cut, &bytes[..len]).unwrap();
        assert!(SegmentedTraceFile::open(std::fs::File::open(&cut).unwrap()).is_err());
        let ((code, by_file), (stdin_code, by_stdin)) = file_and_stdin(&cut, &tail);
        assert_eq!(
            (code, stdin_code),
            (expect_code, expect_code),
            "cut at {len}"
        );
        if expect_code == 0 {
            assert_eq!(by_file, reference, "cut at {len}");
        }
        assert_eq!(error_line(&by_file, &cut), error_line(&by_stdin, &cut));
    }
}

#[test]
fn a_discipline_violation_prints_the_same_error_on_both_paths() {
    let dir = TempDir::new("discipline");
    let mut text = String::new();
    for i in 0..40 {
        text.push_str(&format!("T{}|w(x{})\n", i % 3, i % 5));
    }
    // T1 releases a lock T0 holds.
    text.push_str("T0|acq(l)\nT0|w(x0)\nT1|rel(l)\nT0|rel(l)\n");
    let [_, _, v2] = encodings(&dir, text.as_bytes(), "16");
    let ((code, by_file), (stdin_code, by_stdin)) = file_and_stdin(&v2, &[]);
    assert_eq!((code, stdin_code), (1, 1));
    let expected = error_line(&by_stdin, &v2);
    assert!(expected.contains("error:"), "{expected}");
    assert_eq!(error_line(&by_file, &v2), expected);
    let (code, by_jobs) = freshtrack(&["analyze", &v2, "--jobs", "2"], None);
    assert_eq!(code, 1);
    assert_eq!(error_line(&by_jobs, &v2), expected);
}

#[test]
fn a_corrupt_segment_fails_plain_jobs_and_cached_runs_alike() {
    let dir = TempDir::new("corrupt");
    let [_, _, v2] = generated(&dir);
    let mut bytes = std::fs::read(&v2).unwrap();
    let meta = SegmentedTraceFile::open(std::fs::File::open(&v2).unwrap())
        .unwrap()
        .meta(3)
        .clone();
    bytes[meta.offset as usize + meta.byte_len as usize / 2] ^= 0xFF;
    let bad = dir.path("bad.ftb2");
    std::fs::write(&bad, &bytes).unwrap();
    let cache = format!("--cache={}", dir.path("bad.ftc"));

    let runs = [
        freshtrack(&["analyze", &bad], None),
        freshtrack(&["analyze", &bad, "--jobs", "2"], None),
        freshtrack(&["analyze", &bad, &cache], None),
    ];
    let first = String::from_utf8_lossy(&runs[0].1)
        .lines()
        .next()
        .map(str::to_owned);
    let first = first.unwrap_or_default();
    assert!(
        first.contains("segment 3") && first.contains("checksum mismatch"),
        "{first}"
    );
    for (code, out) in &runs {
        assert_eq!(*code, 1);
        assert_eq!(
            String::from_utf8_lossy(out).lines().next(),
            Some(first.as_str())
        );
    }

    // Through stdin the footer comes last, so the run fails with the
    // first decode error the damage causes, which need not be the
    // checksum; it still prints nothing but that error.
    let (code, out) = freshtrack(&["analyze", "-"], Some(&bytes));
    let out = String::from_utf8_lossy(&out);
    assert_eq!(code, 1, "{out}");
    assert_eq!(out.matches("error: -:").count(), 1, "{out}");
    assert!(
        out.lines()
            .next()
            .unwrap_or_default()
            .starts_with("error: -:"),
        "{out}"
    );
    assert!(!out.contains("race report"), "{out}");
    assert!(!out.lines().any(|l| l.starts_with("  T")), "{out}");
}

/// LEB128, as the `.ftb` footer stores its fields.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// CRC-32 (IEEE), bit by bit.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

#[test]
fn a_footer_range_that_wraps_fails_every_command() {
    let dir = TempDir::new("wrap");
    let [_, _, v2] = generated(&dir);
    let bytes = std::fs::read(&v2).unwrap();
    let file = SegmentedTraceFile::open(std::fs::File::open(&v2).unwrap()).unwrap();
    let mut metas = file.metas().to_vec();
    let footer_offset = file.footer_offset();
    // The last segment's length wraps `offset + length` past u64::MAX
    // to 4 bytes past its offset; the footer checksum is recomputed, so
    // only the range check can object.
    let last = metas.last_mut().unwrap();
    last.byte_len = 0u64.wrapping_sub(last.offset) + 4;
    let mut body = Vec::new();
    put_varint(&mut body, metas.len() as u64);
    for m in &metas {
        for value in [
            m.offset,
            m.byte_len,
            m.event_count,
            m.first_event_id,
            m.locks_before as u64,
            m.vars_before as u64,
            u64::from(m.threads_before),
            0,
            0,
            u64::from(m.crc32),
        ] {
            put_varint(&mut body, value);
        }
    }
    body.extend_from_slice(&crc32(&body).to_le_bytes());
    let mut crafted = bytes[..footer_offset as usize].to_vec();
    crafted.push(0xF5);
    put_varint(&mut crafted, body.len() as u64);
    crafted.extend(body);
    crafted.push(0xF7);
    crafted.extend_from_slice(&bytes[bytes.len() - 12..]);
    let bad = dir.path("wrap.ftb2");
    std::fs::write(&bad, &crafted).unwrap();

    let runs = [
        freshtrack(&["segments", &bad], None),
        freshtrack(&["analyze", &bad, "--jobs", "2"], None),
    ];
    for (code, out) in &runs {
        let out = String::from_utf8_lossy(out);
        assert_eq!(*code, 1, "{out}");
        assert!(out.contains("range out of bounds"), "{out}");
    }
    // Plain `analyze` streams a file whose footer does not open, and the
    // stream checks each segment's range against the footer.
    let ((code, out), (stdin_code, _)) = file_and_stdin(&bad, &[]);
    assert_eq!(
        (code, stdin_code),
        (1, 1),
        "{}",
        String::from_utf8_lossy(&out)
    );
}

#[test]
fn the_format_one_sidecar_fixture_is_rebuilt_cold() {
    let dir = TempDir::new("format1");
    let fixture = std::fs::read(FORMAT1_SIDECAR).expect("read the sidecar fixture");
    let err = AnalysisCache::decode(&fixture).expect_err("format 1 must not decode");
    assert!(err.to_string().contains("format version 1"), "{err}");

    let tail = ["--engine", "so", "--rate", "0.5", "--seed", "3"];
    let (code, plain) = freshtrack(&[&["analyze", OLD_V2][..], &tail].concat(), None);
    assert_eq!(code, 0);
    let cold_path = dir.path("cold.ftc");
    let cold_arg = format!("--cache={cold_path}");
    let (code, cold, _) =
        freshtrack_with_stderr(&[&["analyze", OLD_V2, &cold_arg][..], &tail].concat());
    assert_eq!((code, &cold), (0, &plain));

    let warm_path = dir.path("warm.ftc");
    std::fs::write(&warm_path, &fixture).unwrap();
    let warm_arg = format!("--cache={warm_path}");
    let (code, warm, status) =
        freshtrack_with_stderr(&[&["analyze", OLD_V2, &warm_arg][..], &tail].concat());
    assert_eq!(code, 0, "{status}");
    assert_eq!(warm, plain);
    assert!(status.contains("reused 0/5"), "{status}");
    assert_eq!(
        std::fs::read(&warm_path).unwrap(),
        std::fs::read(&cold_path).unwrap(),
        "the rewritten sidecar must equal a cold run's"
    );
}

/// The first `events` event lines of a text trace, with its directives.
fn cut_text(text: &str, events: usize) -> String {
    let mut out = String::new();
    let mut seen = 0;
    for line in text.lines() {
        if seen == events {
            break;
        }
        if !line.starts_with('#') && !line.trim().is_empty() {
            seen += 1;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// `segments --cache` and `analyze --cache` apply one reusable-prefix
/// rule: a prior sidecar is reusable at its last boundary after an
/// append at a segment boundary, one boundary earlier after an append
/// to a partial last segment, and not at all when the file diverges
/// before its last two boundaries.
#[test]
fn segments_and_analyze_agree_on_the_reusable_prefix() {
    let dir = TempDir::new("prefix-rule");
    let [text_path, _, full] = generated(&dir);
    let text = std::fs::read_to_string(&text_path).unwrap();
    let tail = [
        "--engine",
        "so",
        "--rate",
        "0.3",
        "--seed",
        "5",
        "--counters",
    ];
    let (code, plain) = freshtrack(&[&["analyze", full.as_str()][..], &tail].concat(), None);
    assert_eq!(code, 0);
    let cold_path = dir.path("cold.ftc");
    let cold_arg = format!("--cache={cold_path}");
    let (code, _, status) =
        freshtrack_with_stderr(&[&["analyze", full.as_str(), &cold_arg][..], &tail].concat());
    assert!(code == 0 && status.contains("reused 0/8"), "{status}");

    // The prior file diverges in segment 1 (events 512..1024): its
    // first write from event 700 on is a read.
    let (mut seen, mut changed_at) = (0, None);
    let diverged: String = text
        .lines()
        .map(|line| {
            seen += usize::from(!line.starts_with('#') && !line.trim().is_empty());
            let mut line = line.to_owned();
            if seen >= 700 && changed_at.is_none() && line.contains("|w(") {
                line = line.replacen("|w(", "|r(", 1);
                changed_at = Some(seen);
            }
            line + "\n"
        })
        .collect();
    assert!(
        matches!(changed_at, Some(at) if at < 1024),
        "{changed_at:?}"
    );
    assert_ne!(diverged, text);

    for (case, prior_text, hits, stale) in [
        ("exact boundary", cut_text(&text, 2048), 4, 0),
        ("partial tail", cut_text(&text, 2300), 4, 1),
        ("mid-file divergence", cut_text(&diverged, 2048), 0, 4),
    ] {
        let prior_trace = dir.path("prior.trace");
        std::fs::write(&prior_trace, prior_text).unwrap();
        let (code, prior_v2) = freshtrack(
            &[
                "convert",
                &prior_trace,
                "--to",
                "binary-v2",
                "--segment-events",
                "512",
            ],
            None,
        );
        assert_eq!(code, 0);
        let prior = dir.path("prior.ftb2");
        std::fs::write(&prior, prior_v2).unwrap();
        let sidecar = dir.path("prior.ftc");
        let _ = std::fs::remove_file(&sidecar);
        let cache_arg = format!("--cache={sidecar}");
        let (code, _, _) =
            freshtrack_with_stderr(&[&["analyze", prior.as_str(), &cache_arg][..], &tail].concat());
        assert_eq!(code, 0, "{case}");

        let (code, shown) = freshtrack(&["segments", &full, &cache_arg], None);
        let shown = String::from_utf8_lossy(&shown);
        assert_eq!(code, 0, "{case}: {shown}");
        assert!(
            shown.contains(&format!("; {hits} reusable")),
            "{case}: {shown}"
        );
        assert_eq!(shown.matches(" hit").count(), hits, "{case}: {shown}");
        assert_eq!(shown.matches(" stale").count(), stale, "{case}: {shown}");

        let (code, warm, status) =
            freshtrack_with_stderr(&[&["analyze", full.as_str(), &cache_arg][..], &tail].concat());
        assert_eq!(code, 0, "{case}: {status}");
        assert!(
            status.contains(&format!("reused {hits}/8")),
            "{case}: {status}"
        );
        assert_eq!(warm, plain, "{case}");
        assert_eq!(
            std::fs::read(&sidecar).unwrap(),
            std::fs::read(&cold_path).unwrap(),
            "{case}: the rewritten sidecar must equal a cold run's"
        );
    }
}

/// Asserts that a run exited 1 with exactly one error line, `message`.
fn assert_fails_with((code, out): (i32, Vec<u8>), message: &str, case: &str) {
    let out = String::from_utf8_lossy(&out);
    assert_eq!(code, 1, "{case}: {out}");
    let errors: Vec<&str> = out.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors, [format!("error: {message}")], "{case}: {out}");
}

#[test]
fn an_unknown_engine_fails_on_every_route_before_any_input_is_read() {
    let dir = TempDir::new("unknown-engine");
    let [text, _, v2] = generated(&dir);
    let tail = ["--engine", "xx"];
    let (by_text, by_stdin) = file_and_stdin(&text, &tail);
    let by_v2 = freshtrack(&["analyze", &v2, "--engine", "xx"], None);
    let by_dbsim = freshtrack(&["dbsim", "--engine", "xx"], None);
    for (case, run) in [
        ("text file", by_text),
        ("stdin", by_stdin),
        ("v2 file", by_v2),
        ("dbsim", by_dbsim),
    ] {
        assert_fails_with(run, "unknown engine `xx`", case);
    }
}

#[test]
fn sam_names_its_missing_split_where_one_is_needed() {
    let dir = TempDir::new("sam-split");
    let [_, _, v2] = generated(&dir);
    let sidecar = format!("--cache={}", dir.path("t.ftc"));
    let no_split = "engine `sam` has no sync/access split and cannot";
    for (case, args, reason) in [
        ("dbsim", &["dbsim", "--engine", "sam"][..], "run in dbsim"),
        (
            "--jobs 2",
            &["analyze", &v2, "--jobs", "2", "--engine", "sam"],
            "run with --jobs >= 2",
        ),
        (
            "--cache",
            &["analyze", &v2, &sidecar, "--engine", "sam"],
            "use the segmented analysis cache",
        ),
    ] {
        assert_fails_with(
            freshtrack(args, None),
            &format!("{no_split} {reason}"),
            case,
        );
    }
    assert!(!std::path::Path::new(&dir.path("t.ftc")).exists());
}
