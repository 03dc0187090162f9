//! `analyze` routing between the decode-ahead pipeline and the streaming
//! reader, driven through the real `freshtrack` binary so stdin is a real
//! pipe.
//!
//! A seekable `.ftb` v2 file runs on the segment pipeline (which checks
//! every segment's CRC); stdin, text, v1, a v2 file whose footer does not
//! open, and engine `sam` stream. Both paths must print the same bytes.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use freshtrack_trace::SegmentedTraceFile;

const BIN: &str = env!("CARGO_BIN_EXE_freshtrack");

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
}
