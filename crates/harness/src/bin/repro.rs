//! The reproduction driver: runs the full scenario at a configurable
//! scale, prints every table and figure, and the paper-vs-measured
//! comparison.
//!
//! Usage: `repro [--scale N] [--seed N] [--days N] [--threads N]
//! [--smoke] [--telemetry] [--telemetry-out PATH] [--quiet] [-v]
//! [--validate-telemetry PATH]`
//!
//! `--threads` selects the measurement worker count; results are
//! byte-identical for any value (the pipelines shard by victim address).
//! With `--telemetry` the run collects
//! spans, counters and pool profiles, writes `TELEMETRY.json` and
//! appends the ASCII dashboard to the report.

use dosscope_harness::cli::{self, Command};
use dosscope_harness::experiments::Experiments;
use dosscope_harness::{telemetry, Scenario};
use dosscope_obs::{obs_error, obs_info};

fn main() {
    let opts = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::Help) => {
            eprintln!("{}", cli::usage("repro"));
            return;
        }
        Ok(Command::ValidateTelemetry(path)) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            match telemetry::validate(&text) {
                Ok(summary) => {
                    println!("{summary}");
                    return;
                }
                Err(problems) => {
                    eprintln!("{path} failed validation:\n{problems}");
                    std::process::exit(1);
                }
            }
        }
        Err(msg) => {
            eprintln!("{msg}\n{}", cli::usage("repro"));
            std::process::exit(2);
        }
    };

    dosscope_obs::log::set_level(dosscope_obs::log::level_from_flags(opts.quiet, opts.verbose));
    if opts.telemetry {
        dosscope_obs::set_enabled(true);
    }

    let config = opts.config;
    obs_info!(
        "running scenario: scale 1/{}, {} days, seed {:#x}, {} thread(s) ...",
        config.scale, config.days, config.seed, config.threads
    );
    let t0 = std::time::Instant::now();
    let world = Scenario::run(&config);
    obs_info!(
        "scenario done in {:.1?}: {} telescope events, {} honeypot events",
        t0.elapsed(),
        world.store.telescope().len(),
        world.store.honeypot().len()
    );
    let experiments = Experiments::run(&world, config.scale);
    println!("{}", experiments.render_report());
    let rows = experiments.compare();
    println!("{}", Experiments::render_comparison(&rows));

    if dosscope_obs::enabled() {
        let snapshot = dosscope_obs::Telemetry::capture();
        println!("{}", snapshot.render_ascii());
        if let Err(e) = std::fs::write(&opts.telemetry_out, snapshot.to_json()) {
            obs_error!("cannot write {}: {e}", opts.telemetry_out);
            std::process::exit(1);
        }
        obs_info!("telemetry written to {}", opts.telemetry_out);
    }
}
