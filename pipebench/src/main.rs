//! Command line: `pipebench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints one information line, then the result line (the last line of
//! standard output): `{"correct", "attempted", "failed", "metrics"}`.
//! Failed output checks are printed to standard error, one per line.

use pipebench::pipeline::{nproc, Knobs, EMULATOR_THREADS};
use pipebench::report::{
    end_to_end, last_level_cache_bytes, peak_rss_mb, per_layer, result_line, triad_gbs,
    TAIL_PERCENTILE,
};
use pipebench::run::{run, RunConfig, QUALITY_SEED, SETUP_BATCH};
use pipebench::workload::Workload;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: pipebench::heap::CountingAlloc = pipebench::heap::CountingAlloc;

/// Default program-generator seed.
const DEFAULT_SEED: u64 = QUALITY_SEED;
/// Held-out seed, kept for confirming later performance claims.
const HELD_OUT_SEED: u64 = 7_919;
/// Largest triad working set (bytes), to bound memory on hosts whose
/// last-level cache is very large.
const MAX_TRIAD_BYTES: usize = 2 << 30;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err(format!("--seconds {value} is not a non-negative number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pipebench: {message}");
            return ExitCode::from(2);
        }
    };
    let config = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        knobs: Knobs::defaults(),
    };
    let result = run(&config);

    let failed: Vec<_> = result
        .outcomes
        .iter()
        .filter(|o| !o.failures.is_empty())
        .collect();
    for outcome in &failed {
        for failure in &outcome.failures {
            eprintln!("check failed: {}: {failure}", outcome.label);
        }
    }
    for label in &result.nondeterministic {
        eprintln!("check failed: {label}: outputs differ on a second pass with the same seed");
    }
    let (metrics, info) = if args.trace {
        let bytes = (4 * last_level_cache_bytes()).min(MAX_TRIAD_BYTES);
        (
            per_layer(&result, triad_gbs(bytes, EMULATOR_THREADS)),
            format!("\"triad_bytes\": {bytes}"),
        )
    } else {
        let e2e = end_to_end(&result);
        let info = format!(
            "\"tail_percentile\": {TAIL_PERCENTILE}, \"tail_programs_beyond\": {}, \"rel_error_mean\": {:?}, \"rel_error_max\": {:?}, \"obs_error_max\": {:?}, \"peak_rss_mb\": {:?}",
            e2e.tail_beyond,
            e2e.rel_error_mean,
            e2e.rel_error_max,
            e2e.obs_error_max,
            peak_rss_mb()
        );
        (e2e.metrics, info)
    };
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \"held_out_seed\": {HELD_OUT_SEED}, \"trace\": {}, \"nproc\": {}, \"threads\": {EMULATOR_THREADS}, \"profile\": \"{}\", \"deck\": {}, \"passes\": {}, \"executions\": {}, \"elapsed_s\": {}, \"first_setup_s\": {}, \"setup_batches\": {}, \"setup_batch\": {SETUP_BATCH}, \"quality_seed\": {QUALITY_SEED}, {info}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        nproc(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        result.deck_len,
        result.passes(),
        result.outcomes.len(),
        result.elapsed_s,
        result.first_setup_s,
        result.setup_samples.len(),
    );
    let correct = failed.is_empty() && result.nondeterministic.is_empty();
    println!(
        "{}",
        result_line(correct, result.outcomes.len(), failed.len(), &metrics)
    );
    ExitCode::SUCCESS
}
