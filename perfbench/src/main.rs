//! The repository benchmark: drives the SFA stack from outside, through
//! its public API, on four seeded workloads, checks every verdict, and
//! prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk_scan --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics,
//! measured by replaying each layer's public calls under in-memory spans
//! (written to `.bench_out/` at exit). See `perfbench/README.md` for the
//! workloads, the metrics and which layer moves which metric.

mod bulk;
mod heap;
mod report;
mod ruleset;
mod service;
mod stats;
mod trace;

use report::Provenance;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The inputs of one run.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Only set up, print the set-up time, and exit (see [`cold_setups`]).
    pub setup_only: bool,
}

/// How many set-ups `setup_s` is the median of.
pub const SETUP_REPS: usize = 3;

/// Set-up times of `SETUP_REPS - 1` more set-ups of this run's workload
/// and seed, each in a fresh process: every sample is a cold start, and
/// the run's own peak heap covers a single set-up.
pub fn cold_setups(config: &RunConfig) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable");
    (1..SETUP_REPS)
        .map(|_| {
            let seed = config.seed.to_string();
            let args = ["--workload", &config.workload, "--seed", &seed, "--setup-only", "1"];
            let child = std::process::Command::new(&exe)
                .args(args)
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("start a set-up process");
            assert!(child.status.success(), "set-up process failed: {}", child.status);
            String::from_utf8_lossy(&child.stdout)
                .lines()
                .last()
                .and_then(|line| line.strip_prefix("setup_s "))
                .and_then(|v| v.parse().ok())
                .expect("set-up process prints its time")
        })
        .collect()
}

fn parse_args() -> Result<(RunConfig, u64), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--setup-only" => setup_only = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10).max(1);
    let config = RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs(seconds),
        trace: trace.unwrap_or(false),
        setup_only,
    };
    Ok((config, seconds))
}

fn main() {
    let (config, seconds) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <bulk_scan|bulk_scan_seq|ruleset_batch|service> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if config.setup_only {
        let setup_s = match config.workload.as_str() {
            "bulk_scan" => bulk::set_up_once(&config, bulk::Mode::Auto),
            "bulk_scan_seq" => bulk::set_up_once(&config, bulk::Mode::Sequential),
            "ruleset_batch" => ruleset::set_up_once(&config),
            other => {
                eprintln!("perfbench: no separate set-up for workload {other}");
                std::process::exit(2);
            }
        };
        println!("setup_s {setup_s}");
        return;
    }
    let mut outcome = match config.workload.as_str() {
        "bulk_scan" => bulk::run(&config, bulk::Mode::Auto),
        "bulk_scan_seq" => bulk::run(&config, bulk::Mode::Sequential),
        "ruleset_batch" => ruleset::run(&config),
        "service" => service::run(&config),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let provenance = Provenance {
        workload: config.workload.clone(),
        seed: config.seed,
        seconds,
        trace: config.trace,
    };
    let table = if config.trace {
        let spans = trace::snapshot();
        for (name, (count, total_ns, self_ns)) in trace::self_times(&spans) {
            outcome.note(format!(
                "span {name}: {count} spans, {:.3} ms total, {:.3} ms self",
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            ));
        }
        let path = std::path::Path::new(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", provenance.workload, provenance.seed));
        match trace::write(&path, &provenance.json(outcome.samples), &spans) {
            Ok(()) => outcome.note(format!("{} spans written to {}", spans.len(), path.display())),
            Err(e) => outcome.note(format!("could not write spans to {}: {e}", path.display())),
        }
        report::PER_LAYER
    } else {
        outcome.set("peak_heap_mb", heap::peak_mb());
        outcome.note(format!("peak resident set (VmHWM) {:.1} MB", report::peak_rss_mb()));
        report::END_TO_END
    };
    report::print(&provenance, &outcome, table);
}
