//! Shared command line of the harness binaries (`repro`, `diag`): the
//! parser, the prologue that answers everything but a run ([`start`]) and
//! the epilogue that emits telemetry ([`finish`]). Both write to the
//! streams the binary hands them.
//!
//! Every value-taking flag is strict: a missing or non-numeric value is
//! a hard usage error (printed to stderr, exit status 2), never a silent
//! fall-through to the default. So is a `--scale` that is not finite and
//! positive, a `--days` outside `1..=`[`MAX_DAYS`], a `--threads` above
//! [`MAX_THREADS`], and an integer value that does not fit: a `--seed`
//! above `u64::MAX`, or a float form such as `2e3` at or above 2^53.

use crate::{telemetry, ScenarioConfig};
use dosscope_core::webimpact::MAX_DAYS;
use dosscope_obs::{obs_error, obs_info};
use std::io::Write;
use std::process::ExitCode;

/// Scale denominator selected by `--smoke`: the same reduced
/// configuration the bench smoke mode and `ScenarioConfig::test_small`
/// use.
pub const SMOKE_SCALE: f64 = 20_000.0;

/// Most `--threads` accepted: each pool starts one worker per thread.
pub const MAX_THREADS: usize = 256;

/// Parsed command line for a harness binary.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Scenario parameters (seed, scale, days, threads).
    pub config: ScenarioConfig,
    /// `--telemetry`: collect and emit telemetry.
    pub telemetry: bool,
    /// `--telemetry-out PATH`: where to write `TELEMETRY.json`.
    pub telemetry_out: String,
    /// `--quiet`: only errors on stderr.
    pub quiet: bool,
    /// `-v` / `--verbose`: debug-level progress on stderr.
    pub verbose: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            config: ScenarioConfig::default(),
            telemetry: false,
            telemetry_out: "TELEMETRY.json".to_string(),
            quiet: false,
            verbose: false,
        }
    }
}

/// What the binary should do with the parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the scenario with these options.
    Run(CliOptions),
    /// `--help`: print usage to stderr and exit 0.
    Help,
    /// `--validate-telemetry PATH`: validate an emitted
    /// `TELEMETRY.json` and exit 0 (valid) or 1 (invalid).
    ValidateTelemetry(String),
}

/// One line describing the accepted flags, for usage messages.
pub fn usage(prog: &str) -> String {
    format!(
        "usage: {prog} [--scale N] [--seed N] [--days N] [--threads N] [--smoke] \
         [--telemetry] [--telemetry-out PATH] [--quiet] [-v] \
         [--validate-telemetry PATH]"
    )
}

fn take_value(
    args: &mut impl Iterator<Item = String>,
    name: &str,
) -> Result<String, String> {
    match args.next() {
        Some(v) if !v.starts_with("--") => Ok(v),
        Some(v) => Err(format!("{name} needs a value, got flag {v}")),
        None => Err(format!("{name} needs a value")),
    }
}

fn take_f64(args: &mut impl Iterator<Item = String>, name: &str) -> Result<f64, String> {
    let v = take_value(args, name)?;
    v.parse()
        .map_err(|_| format!("{name} needs a numeric value, got {v:?}"))
}

/// 2^53: every integer below it is exact in an `f64`.
const EXACT_F64_INTEGERS: f64 = 9_007_199_254_740_992.0;

fn take_u64(args: &mut impl Iterator<Item = String>, name: &str) -> Result<u64, String> {
    let v = take_value(args, name)?;
    // Accept plain integers up to `u64::MAX` and (for compatibility with
    // the old parser) float-formatted integers like `2e3`, but only below
    // 2^53, where the float is the integer written: above it, `as u64`
    // would round, or saturate at `u64::MAX`.
    if let Ok(n) = v.parse::<u64>() {
        return Ok(n);
    }
    match v.parse::<f64>() {
        Ok(f) if (0.0..EXACT_F64_INTEGERS).contains(&f) && f.fract() == 0.0 => Ok(f as u64),
        Ok(f) if f.fract() == 0.0 => Err(format!(
            "{name} needs an integer below 2^64 (below 2^53 in float form), got {v:?}"
        )),
        _ => Err(format!("{name} needs a numeric value, got {v:?}")),
    }
}

/// `--threads`: 0 runs as 1, and at most [`MAX_THREADS`].
fn take_threads(args: &mut impl Iterator<Item = String>) -> Result<usize, String> {
    let threads = take_u64(args, "--threads")?;
    match usize::try_from(threads) {
        Ok(t @ 0..=MAX_THREADS) => Ok(t.max(1)),
        _ => Err(format!("--threads needs a value in 0..={MAX_THREADS}, got {threads}")),
    }
}

/// `--scale`: a finite denominator greater than zero.
fn take_scale(args: &mut impl Iterator<Item = String>) -> Result<f64, String> {
    let scale = take_f64(args, "--scale")?;
    if scale.is_finite() && scale > 0.0 {
        Ok(scale)
    } else {
        Err(format!("--scale needs a finite value > 0, got {scale}"))
    }
}

/// `--days`: a window of at least one day and at most the Web join's
/// [`MAX_DAYS`].
fn take_days(args: &mut impl Iterator<Item = String>) -> Result<u32, String> {
    let days = take_u64(args, "--days")?;
    match u32::try_from(days) {
        Ok(d @ 1..=MAX_DAYS) => Ok(d),
        _ => Err(format!("--days needs a value in 1..={MAX_DAYS}, got {days}")),
    }
}

/// Parse the arguments (without the program name). Returns a usage
/// error string for anything malformed; the caller prints it plus
/// [`usage`] to stderr and exits nonzero.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    let mut opts = CliOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => opts.config.scale = take_scale(&mut args)?,
            "--seed" => opts.config.seed = take_u64(&mut args, "--seed")?,
            "--days" => opts.config.days = take_days(&mut args)?,
            "--threads" => opts.config.threads = take_threads(&mut args)?,
            "--smoke" => opts.config.scale = SMOKE_SCALE,
            "--telemetry" => opts.telemetry = true,
            "--telemetry-out" => {
                opts.telemetry_out = take_value(&mut args, "--telemetry-out")?
            }
            "--quiet" | "-q" => opts.quiet = true,
            "--verbose" | "-v" => opts.verbose = true,
            "--validate-telemetry" => {
                let path = take_value(&mut args, "--validate-telemetry")?;
                return Ok(Command::ValidateTelemetry(path));
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(opts))
}

/// The prologue of a harness binary: parse `args` (without the program
/// name), answer `--help` (usage on `err`, status 0) and
/// `--validate-telemetry PATH` (the verdict on `out`, status 0; problems
/// on `err`, status 1; an unreadable file, status 2), and reject a
/// malformed command line (status 2). Returns `Err(status)` when the
/// binary should exit right away; otherwise applies the log level and the
/// telemetry switch and returns the options to run with.
pub fn start(
    prog: &str,
    args: impl IntoIterator<Item = String>,
    out: &mut impl Write,
    err: &mut impl Write,
) -> Result<CliOptions, ExitCode> {
    // A failed write to a standard stream has nowhere to be reported.
    let status = match parse(args) {
        Ok(Command::Run(opts)) => {
            dosscope_obs::log::set_level(dosscope_obs::log::level_from_flags(
                opts.quiet,
                opts.verbose,
            ));
            if opts.telemetry {
                dosscope_obs::set_enabled(true);
            }
            return Ok(opts);
        }
        Ok(Command::Help) => {
            let _ = writeln!(err, "{}", usage(prog));
            0
        }
        Ok(Command::ValidateTelemetry(path)) => match std::fs::read_to_string(&path) {
            Err(e) => {
                let _ = writeln!(err, "cannot read {path}: {e}");
                2
            }
            Ok(text) => match telemetry::validate(&text) {
                Ok(summary) => {
                    let _ = writeln!(out, "{summary}");
                    0
                }
                Err(problems) => {
                    let _ = writeln!(err, "{path} failed validation:\n{problems}");
                    1
                }
            },
        },
        Err(msg) => {
            let _ = writeln!(err, "{msg}\n{}", usage(prog));
            2
        }
    };
    Err(ExitCode::from(status))
}

/// The epilogue of a harness binary: with telemetry on, capture it,
/// append the ASCII dashboard to `out` and write `TELEMETRY.json` to the
/// `--telemetry-out` path. Returns the binary's exit status: failure if
/// the file cannot be written.
pub fn finish(opts: &CliOptions, out: &mut impl Write) -> ExitCode {
    if !dosscope_obs::enabled() {
        return ExitCode::SUCCESS;
    }
    let snapshot = dosscope_obs::Telemetry::capture();
    let _ = writeln!(out, "{}", snapshot.render_ascii());
    if let Err(e) = std::fs::write(&opts.telemetry_out, snapshot.to_json()) {
        obs_error!("cannot write {}: {e}", opts.telemetry_out);
        return ExitCode::FAILURE;
    }
    obs_info!("telemetry written to {}", opts.telemetry_out);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<Command, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    fn opts(args: &[&str]) -> CliOptions {
        match run(args).expect("valid args") {
            Command::Run(o) => o,
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn defaults() {
        let o = opts(&[]);
        assert_eq!(o.config.threads, 1);
        assert!(!o.telemetry);
        assert_eq!(o.telemetry_out, "TELEMETRY.json");
    }

    #[test]
    fn full_flag_set() {
        let o = opts(&[
            "--scale", "50000", "--seed", "7", "--days", "100", "--threads", "8",
            "--telemetry", "--telemetry-out", "t.json", "--quiet", "-v",
        ]);
        assert_eq!(o.config.scale, 50_000.0);
        assert_eq!(o.config.seed, 7);
        assert_eq!(o.config.days, 100);
        assert_eq!(o.config.threads, 8);
        assert!(o.telemetry);
        assert_eq!(o.telemetry_out, "t.json");
        assert!(o.quiet && o.verbose);
    }

    #[test]
    fn smoke_selects_the_reduced_scale() {
        assert_eq!(opts(&["--smoke"]).config.scale, SMOKE_SCALE);
        assert_eq!(opts(&["--smoke"]).config.scale, ScenarioConfig::test_small().scale);
    }

    #[test]
    fn threads_with_missing_value_is_a_hard_error() {
        let err = run(&["--threads"]).unwrap_err();
        assert!(err.contains("--threads needs a value"), "{err}");
    }

    #[test]
    fn threads_with_non_numeric_value_is_a_hard_error() {
        let err = run(&["--threads", "many"]).unwrap_err();
        assert!(err.contains("--threads needs a numeric value"), "{err}");
        // A following flag must not be swallowed as the value either.
        let err = run(&["--threads", "--telemetry"]).unwrap_err();
        assert!(err.contains("--threads needs a value"), "{err}");
    }

    #[test]
    fn days_outside_the_runnable_window_are_hard_errors() {
        assert_eq!(opts(&["--days", "1"]).config.days, 1);
        assert_eq!(opts(&["--days", "65534"]).config.days, MAX_DAYS);
        for days in ["0", "65535", "4294967296", "4294967297"] {
            let err = run(&["--days", days]).unwrap_err();
            assert!(err.contains("--days needs a value in 1..=65534"), "{days}: {err}");
        }
    }

    #[test]
    fn scale_that_is_not_finite_and_positive_is_a_hard_error() {
        assert_eq!(opts(&["--scale", "0.5"]).config.scale, 0.5);
        for scale in ["0", "-5", "-0", "inf", "NaN"] {
            let err = run(&["--scale", scale]).unwrap_err();
            assert!(err.contains("--scale needs a finite value > 0"), "{scale}: {err}");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(opts(&["--threads", "0"]).config.threads, 1);
    }

    #[test]
    fn unknown_argument_is_an_error() {
        assert!(run(&["--frobnicate"]).unwrap_err().contains("unknown argument"));
    }

    #[test]
    fn help_and_validate_short_circuit() {
        assert_eq!(run(&["--help"]).unwrap(), Command::Help);
        assert_eq!(run(&["-h"]).unwrap(), Command::Help);
        assert_eq!(
            run(&["--validate-telemetry", "x.json"]).unwrap(),
            Command::ValidateTelemetry("x.json".to_string())
        );
        assert!(run(&["--validate-telemetry"]).is_err());
    }

    #[test]
    fn float_formatted_integers_still_accepted() {
        // The pre-refactor parser read every value as f64; keep `2e3`
        // style working for scripts that relied on it.
        assert_eq!(opts(&["--seed", "2e3"]).config.seed, 2000);
        assert!(run(&["--seed", "2.5"]).is_err(), "fractional seed rejected");
        assert_eq!(opts(&["--seed", "9007199254740991.0"]).config.seed, (1 << 53) - 1);
    }

    /// An integer that does not fit is a usage error, never a saturated
    /// or rounded value: past `u64::MAX`, and a float form at or above
    /// 2^53 (where `9007199254740993.0` would read as ...992).
    #[test]
    fn out_of_range_integers_are_hard_errors() {
        assert_eq!(opts(&["--seed", "18446744073709551615"]).config.seed, u64::MAX);
        for seed in ["18446744073709551616", "1e20", "9007199254740993.0", "9007199254740992.0"] {
            let err = run(&["--seed", seed]).unwrap_err();
            assert!(err.starts_with("--seed needs an integer below 2^64"), "{seed}: {err}");
        }
        let err = run(&["--days", "1e19"]).unwrap_err();
        assert!(err.starts_with("--days needs an integer below"), "{err}");
    }

    /// `--threads` is capped; parsing alone is checked, no pool starts.
    #[test]
    fn threads_above_the_cap_are_hard_errors() {
        assert_eq!(opts(&["--threads", "256"]).config.threads, MAX_THREADS);
        for threads in ["257", "18446744073709551615"] {
            let err = run(&["--threads", threads]).unwrap_err();
            assert!(err.starts_with("--threads needs a value in 0..=256"), "{threads}: {err}");
        }
        let err = run(&["--threads", "1e19"]).unwrap_err();
        assert!(err.starts_with("--threads needs an integer below 2^64"), "{err}");
    }

    /// Drive the prologue with in-memory streams: the exit status and
    /// what landed on stdout and stderr.
    fn start_with(args: &[&str]) -> (ExitCode, String, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let args = args.iter().map(|s| s.to_string());
        let status = start("prog", args, &mut out, &mut err).expect_err("no run requested");
        let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
        (status, text(out), text(err))
    }

    #[test]
    fn prologue_answers_help_and_usage_errors_on_stderr() {
        let (status, out, err) = start_with(&["--help"]);
        assert_eq!(status, ExitCode::SUCCESS);
        assert!(out.is_empty());
        assert_eq!(err, format!("{}\n", usage("prog")));

        let (status, out, err) = start_with(&["--threads", "many"]);
        assert_eq!(status, ExitCode::from(2));
        assert!(out.is_empty());
        assert!(err.starts_with("--threads needs a numeric value"), "{err}");
        assert!(err.ends_with(&format!("{}\n", usage("prog"))), "{err}");
    }

    #[test]
    fn prologue_rejects_days_and_scale_that_cannot_run() {
        for args in [
            ["--days", "0"],
            ["--days", "70000"],
            ["--scale", "-5"],
            ["--threads", "1e19"],
            ["--seed", "1e20"],
        ] {
            let (status, out, err) = start_with(&args);
            assert_eq!(status, ExitCode::from(2), "{args:?}");
            assert!(out.is_empty());
            assert!(err.starts_with(&format!("{} needs a", args[0])), "{err}");
        }
    }

    #[test]
    fn prologue_validates_telemetry_files() {
        let dir = std::env::temp_dir();
        let missing = dir.join(format!("dosscope-cli-missing-{}.json", std::process::id()));
        let missing = missing.to_str().unwrap();
        let (status, out, err) = start_with(&["--validate-telemetry", missing]);
        assert_eq!(status, ExitCode::from(2));
        assert!(out.is_empty());
        assert!(err.starts_with(&format!("cannot read {missing}: ")), "{err}");

        let invalid = dir.join(format!("dosscope-cli-invalid-{}.json", std::process::id()));
        std::fs::write(&invalid, "{}").unwrap();
        let invalid_path = invalid.to_str().unwrap();
        let (status, out, err) = start_with(&["--validate-telemetry", invalid_path]);
        std::fs::remove_file(&invalid).unwrap();
        assert_eq!(status, ExitCode::from(1));
        assert!(out.is_empty());
        assert!(err.starts_with(&format!("{invalid_path} failed validation:\n")), "{err}");
        assert!(err.contains("missing schema marker"), "{err}");
    }

    #[test]
    fn epilogue_without_telemetry_writes_nothing() {
        let opts = CliOptions {
            telemetry_out: "/nonexistent-dir/TELEMETRY.json".to_string(),
            ..CliOptions::default()
        };
        let mut out = Vec::new();
        assert_eq!(finish(&opts, &mut out), ExitCode::SUCCESS);
        assert!(out.is_empty());
    }
}
