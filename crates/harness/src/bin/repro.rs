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

use dosscope_harness::cli;
use dosscope_harness::experiments::Experiments;
use dosscope_harness::Scenario;
use dosscope_obs::obs_info;
use std::io;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match cli::start(
        "repro",
        std::env::args().skip(1),
        &mut io::stdout(),
        &mut io::stderr(),
    ) {
        Ok(opts) => opts,
        Err(status) => return status,
    };

    let config = &opts.config;
    obs_info!(
        "running scenario: scale 1/{}, {} days, seed {:#x}, {} thread(s) ...",
        config.scale, config.days, config.seed, config.threads
    );
    let t0 = std::time::Instant::now();
    let world = Scenario::run(config);
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

    cli::finish(&opts, &mut io::stdout())
}
