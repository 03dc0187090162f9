//! Numeric options are checked at the CLI boundary, through the real
//! `freshtrack` binary: a NaN, infinite or out-of-range probability or
//! corpus scale exits 1 with exactly one `error:` line, instead of a
//! panic (exit 101), a silent clamp or a trace of some other size.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_freshtrack");

/// Runs the binary; returns the exit code and stdout.
fn freshtrack(args: &[&str]) -> (i32, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run freshtrack");
    let code = out.status.code().expect("exited, not signalled");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Asserts that `args` exit 1 with exactly one error line, `message`.
fn assert_rejected(args: &[&str], message: &str) {
    let (code, out) = freshtrack(args);
    assert_eq!(code, 1, "{args:?}: {out}");
    let errors: Vec<&str> = out.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors, [format!("error: {message}")], "{args:?}: {out}");
}

#[test]
fn generate_rejects_ratios_outside_the_unit_interval() {
    for (option, value, shown) in [
        ("--unprotected", "nan", "NaN"),
        ("--unprotected", "-1", "-1"),
        ("--unprotected", "1.5", "1.5"),
        ("--unprotected", "inf", "inf"),
        ("--sync-ratio", "nan", "NaN"),
        ("--sync-ratio", "2", "2"),
        ("--sync-ratio", "-0.1", "-0.1"),
    ] {
        assert_rejected(
            &["generate", "--events", "20", option, value],
            &format!("{option} must be in [0,1], got {shown}"),
        );
    }
}

#[test]
fn generate_accepts_the_interval_bounds() {
    for (option, value) in [
        ("--unprotected", "0"),
        ("--unprotected", "1"),
        ("--sync-ratio", "0"),
    ] {
        let (code, out) = freshtrack(&["generate", "--events", "20", option, value]);
        assert_eq!(code, 0, "{option} {value}: {out}");
    }
}

#[test]
fn corpus_rejects_a_scale_that_is_not_finite_and_positive() {
    // `inf` is safe here only because it is rejected before any event
    // is generated: the scaled event count would saturate to usize::MAX.
    for (value, shown) in [("nan", "NaN"), ("0", "0"), ("-1", "-1"), ("inf", "inf")] {
        assert_rejected(
            &["corpus", "--bench", "cassandra", "--scale", value],
            &format!("--scale must be finite and > 0, got {shown}"),
        );
    }
    let (code, out) = freshtrack(&["corpus", "--bench", "cassandra", "--scale", "0.001"]);
    assert_eq!(code, 0, "{out}");
}
