//! Turns a run into the end-to-end metrics (untraced run) or the per-layer
//! metrics (traced run), and renders the result line.

use crate::pipeline::{Outcome, StageReplay};
use crate::run::RunResult;
use qturbo_quantum::StepperKind;
use std::time::Instant;

/// The percentile `program_s_tail` reports, over the deck's fourteen
/// programs: it leaves three programs beyond it, and every run executes each
/// of them at least four times, so at least twelve timed executions lie
/// beyond it.
pub const TAIL_PERCENTILE: f64 = 75.0;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The `percentile` (nearest rank) of `values` (0 for an empty slice), and
/// how many samples lie beyond it.
pub fn tail(values: &[f64], percentile: f64) -> (f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (((percentile / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    (
        sorted.get(rank - 1).copied().unwrap_or(0.0),
        n.saturating_sub(rank),
    )
}

/// Correct decimal digits of an error: `−log10(error)`. Errors below double
/// precision (exact answers) read as the double-precision limit.
pub fn digits(error: f64) -> f64 {
    -error.max(f64::EPSILON).log10()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn mean_of(outcomes: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    ratio(outcomes.iter().map(f).sum(), outcomes.len() as f64)
}

fn max_of(outcomes: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    outcomes.iter().map(f).fold(0.0, f64::max)
}

/// The process's peak resident set in MB (10^6 bytes), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The smallest `f` over every execution of each deck program, in deck
/// order.
pub fn fastest(result: &RunResult, f: impl Fn(&Outcome) -> f64) -> Vec<f64> {
    (0..result.deck_len)
        .map(|i| result.executions(i).map(&f).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The end-to-end metrics of an untraced run. Host times are per deck
/// program the fastest of its executions, which are spread over the whole
/// run: the host slows an execution for seconds at a time but never speeds
/// one up, so the fastest repeats from run to run where a mean or median
/// follows the host's load.
pub fn end_to_end(result: &RunResult) -> EndToEnd {
    let outcomes = &result.outcomes;
    let walls = fastest(result, |o| o.wall_s);
    let compiles = fastest(result, |o| o.spans.compile);
    let (tail_value, tail_beyond) = tail(&walls, TAIL_PERCENTILE);
    let passed = outcomes.iter().filter(|o| o.failures.is_empty()).count();
    let quality = result.quality();
    let rel_error_mean = mean_of(quality, |o| o.relative_error);
    let rel_error_max = max_of(quality, |o| o.relative_error);
    let obs_error_max = max_of(quality, |o| o.obs_error.unwrap_or(0.0));
    let metrics = vec![
        metric(
            "setup_s",
            "s",
            result
                .setup_samples
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
        ),
        metric(
            "programs_per_s",
            "1/s",
            ratio(walls.len() as f64, walls.iter().sum()),
        ),
        metric("program_s_p50", "s", median(&walls)),
        metric("program_s_tail", "s", tail_value),
        metric("compile_s_p50", "s", median(&compiles)),
        metric(
            "completed_ratio",
            "ratio",
            ratio(passed as f64, outcomes.len() as f64),
        ),
        metric("rel_error_mean_digits", "digits", digits(rel_error_mean)),
        metric("rel_error_max_digits", "digits", digits(rel_error_max)),
        metric(
            "pulse_us_mean",
            "us_sim",
            mean_of(quality, |o| o.execution_time),
        ),
        metric("obs_error_max_digits", "digits", digits(obs_error_max)),
        metric("peak_heap_mb", "MB", crate::heap::peak_bytes() as f64 / 1e6),
    ];
    EndToEnd {
        metrics,
        tail_beyond,
        rel_error_mean,
        rel_error_max,
        obs_error_max,
    }
}

/// The end-to-end metrics plus the facts printed beside them.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Deck programs beyond the [`TAIL_PERCENTILE`] sample.
    pub tail_beyond: usize,
    /// Mean compiler relative error over the quality round.
    pub rel_error_mean: f64,
    /// Largest compiler relative error of the quality round.
    pub rel_error_max: f64,
    /// Largest `|Δ⟨Z⟩| + |Δ⟨ZZ⟩|` of the quality round (0 when nothing is
    /// emulated).
    pub obs_error_max: f64,
}

/// Measured streaming bandwidth (GB/s) of the triad `a = b + s·c` over three
/// arrays whose total size is `bytes`, split across `threads` threads; best
/// of three passes.
pub fn triad_gbs(bytes: usize, threads: usize) -> f64 {
    let len = (bytes / (3 * std::mem::size_of::<f64>())).max(1);
    let b = vec![1.0_f64; len];
    let c = vec![2.0_f64; len];
    let mut a = vec![0.0_f64; len];
    let chunk = len.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for pass in 0..3 {
        let scale = 0.5 + pass as f64;
        let started = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + scale * c;
                    }
                });
            }
        });
        best = best.min(started.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    ratio((3 * len * std::mem::size_of::<f64>()) as f64, best) / 1e9
}

/// Size in bytes of the last-level cache, from sysfs (32 MiB if unknown).
pub fn last_level_cache_bytes() -> usize {
    let mut best = 0usize;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(raw) = std::fs::read_to_string(path) else {
            continue;
        };
        let raw = raw.trim();
        let (digits, factor) = match raw.chars().last() {
            Some('K') => (&raw[..raw.len() - 1], 1 << 10),
            Some('M') => (&raw[..raw.len() - 1], 1 << 20),
            Some('G') => (&raw[..raw.len() - 1], 1 << 30),
            _ => (raw, 1),
        };
        if let Ok(value) = digits.parse::<usize>() {
            best = best.max(value * factor);
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// The per-layer metrics of a traced run; `triad_gbs` is the host's measured
/// triad bandwidth.
pub fn per_layer(result: &RunResult, triad_gbs: f64) -> Vec<Metric> {
    let o = &result.outcomes;
    let sum = |f: &dyn Fn(&Outcome) -> f64| -> f64 { o.iter().map(f).sum() };
    let replay = |f: fn(&StageReplay) -> f64| move |x: &Outcome| x.replay.as_ref().map_or(0.0, f);
    let wall = sum(&|x| x.wall_s);
    let compile = sum(&|x| x.spans.compile);
    let fixed = sum(&replay(|r| r.fixed_solve_s));
    let evolve = sum(&|x| x.spans.evolve);
    let device = sum(&|x| x.spans.device);
    let quantum = sum(&|x| x.spans.schedule + x.spans.evolve + x.spans.observable + x.spans.device);
    let bytes = sum(&|x| x.state_passes as f64 * (16u64 << x.num_qubits) as f64);
    let computed_gbs = ratio(bytes, evolve) / 1e9;
    let decisions = |kind: StepperKind| {
        mean_of(o, |x| {
            x.decisions.iter().filter(|&&d| d == kind).count() as f64
        })
    };
    let mut metrics = vec![
        metric("core.compile.busy_s", "s", mean_of(o, |x| x.spans.compile)),
        metric("core.compile.share", "ratio", ratio(compile, wall)),
        metric(
            "core.linear_system.busy_s",
            "s",
            mean_of(o, replay(|r| r.linear_s)),
        ),
        metric(
            "core.linear_system.rows",
            "count",
            mean_of(o, replay(|r| r.rows as f64)),
        ),
        metric(
            "core.linear_system.cols",
            "count",
            mean_of(o, replay(|r| r.cols as f64)),
        ),
        metric(
            "core.evolution_time.busy_s",
            "s",
            mean_of(o, replay(|r| r.evolution_time_s)),
        ),
        metric(
            "core.fixed_solve.busy_s",
            "s",
            mean_of(o, replay(|r| r.fixed_solve_s)),
        ),
        metric("core.fixed_solve.share", "ratio", ratio(fixed, compile)),
        metric(
            "core.fixed_solve.residual_max",
            "abs",
            max_of(o, replay(|r| r.fixed_residual_max)),
        ),
        metric(
            "core.remainder.busy_s",
            "s",
            mean_of(o, |x| {
                x.spans.compile
                    - x.replay
                        .as_ref()
                        .map_or(0.0, |r| r.linear_s + r.evolution_time_s + r.fixed_solve_s)
            }),
        ),
        metric(
            "core.components",
            "count",
            mean_of(o, |x| x.components as f64),
        ),
        metric(
            "core.relaxation_steps",
            "count",
            mean_of(o, |x| x.relaxation_steps as f64),
        ),
        metric(
            "core.refinement_improved_ratio",
            "ratio",
            mean_of(o, |x| f64::from(u8::from(x.refinement_improved))),
        ),
        metric("aais.lower.busy_s", "s", mean_of(o, |x| x.spans.lower)),
        metric(
            "aais.lower.padded_terms",
            "count",
            mean_of(o, |x| x.padded_terms as f64),
        ),
        metric(
            "aais.lower.raw_structure_runs",
            "count",
            mean_of(o, |x| x.raw_structure_runs as f64),
        ),
        metric("quantum.share", "ratio", ratio(quantum, wall)),
        metric(
            "quantum.schedule.busy_s",
            "s",
            mean_of(o, |x| x.spans.schedule),
        ),
        metric(
            "quantum.schedule.layouts",
            "count",
            mean_of(o, |x| x.layouts as f64),
        ),
        metric("quantum.evolve.busy_s", "s", mean_of(o, |x| x.spans.evolve)),
        metric(
            "quantum.evolve.kernel_applications",
            "count",
            mean_of(o, |x| x.kernel_applications as f64),
        ),
        metric(
            "quantum.evolve.state_passes",
            "count",
            mean_of(o, |x| x.state_passes as f64),
        ),
    ];
    for kind in StepperKind::fixed() {
        metrics.push(metric(
            &format!("quantum.evolve.decisions.{}", kind.name()),
            "count",
            decisions(kind),
        ));
    }
    metrics.extend([
        metric("quantum.evolve.computed_gbs", "GB/s", computed_gbs),
        metric(
            "quantum.evolve.bw_frac",
            "ratio",
            ratio(computed_gbs, triad_gbs),
        ),
        metric("host.triad_gbs", "GB/s", triad_gbs),
        metric("quantum.device.busy_s", "s", mean_of(o, |x| x.spans.device)),
        metric(
            "quantum.device.realizations_per_s",
            "1/s",
            ratio(sum(&|x| x.realizations as f64), device),
        ),
        metric(
            "quantum.device.kernel_applications",
            "count",
            mean_of(o, |x| x.device_applications as f64),
        ),
        metric(
            "quantum.device.recoveries",
            "count",
            sum(&|x| x.device_recoveries as f64),
        ),
        metric(
            "quantum.observable.busy_s",
            "s",
            mean_of(o, |x| x.spans.observable),
        ),
        metric(
            "bench.coverage",
            "ratio",
            ratio(sum(&|x| x.spans.total()), wall),
        ),
        metric(
            "bench.tracing_overhead",
            "ratio",
            ratio(wall, result.untraced_wall_s.iter().sum()),
        ),
    ]);
    metrics
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. Non-finite values are reported as 0 and make the run incorrect.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let all_finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            // `{:?}` prints the shortest form that round-trips, a valid
            // JSON number for every finite value.
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && all_finite,
        body.join(", ")
    )
}
