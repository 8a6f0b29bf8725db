//! Black-box tests for the `repro` binary (and `diag`, which shares its
//! prologue): hard usage errors (a flag
//! with a missing or malformed value must never silently fall through to
//! a default) and the end-to-end telemetry loop — a smoke run with
//! `--telemetry` must emit a `TELEMETRY.json` that the binary's own
//! `--validate-telemetry` accepts.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn missing_threads_value_is_a_hard_usage_error() {
    let out = repro().arg("--threads").output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--threads needs a value"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
}

#[test]
fn non_numeric_threads_value_is_a_hard_usage_error() {
    let out = repro().args(["--threads", "many"]).output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--threads needs a numeric value"), "{err}");
}

#[test]
fn unknown_flag_is_a_hard_usage_error() {
    let out = repro().arg("--frobnicate").output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown argument"), "{err}");
}

#[test]
fn validating_a_missing_file_fails() {
    let out = repro()
        .args(["--validate-telemetry", "/nonexistent/telemetry.json"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn smoke_run_emits_telemetry_the_validator_accepts() {
    let path = std::env::temp_dir().join(format!(
        "dosscope-telemetry-cli-test-{}.json",
        std::process::id()
    ));
    let out = repro()
        .args([
            "--smoke",
            "--threads",
            "8",
            "--quiet",
            "--telemetry",
            "--telemetry-out",
        ])
        .arg(&path)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The ASCII dashboard is appended to the report on stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== telemetry"), "dashboard missing from report");

    // The emitted file passes the harness validator, both in-process and
    // through the binary's own --validate-telemetry mode.
    let text = std::fs::read_to_string(&path).expect("telemetry file written");
    dosscope_harness::telemetry::validate(&text).expect("telemetry validates");
    let check = repro()
        .arg("--validate-telemetry")
        .arg(&path)
        .output()
        .expect("spawn repro");
    assert!(
        check.status.success(),
        "--validate-telemetry rejected the file: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let _ = std::fs::remove_file(&path);
}

/// `diag` shares `repro`'s prologue, so it refuses an unreadable
/// telemetry file the same way.
#[test]
fn diag_validating_a_missing_file_fails_like_repro() {
    let missing = "/nonexistent/telemetry.json";
    let diag = Command::new(env!("CARGO_BIN_EXE_diag"))
        .args(["--validate-telemetry", missing])
        .output()
        .expect("spawn diag");
    let repro = repro()
        .args(["--validate-telemetry", missing])
        .output()
        .expect("spawn repro");
    assert_eq!(diag.status.code(), Some(2));
    assert_eq!(diag.status.code(), repro.status.code());
    assert_eq!(diag.stderr, repro.stderr);
    let err = String::from_utf8_lossy(&diag.stderr);
    assert!(
        err.starts_with(&format!("cannot read {missing}: ")),
        "{err}"
    );
}
