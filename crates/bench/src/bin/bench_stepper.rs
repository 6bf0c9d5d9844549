//! Stepper-backend benchmark: Taylor (per-segment and batched) vs
//! Lanczos–Krylov vs Chebyshev vs the automatic per-segment selection, on
//! the two workload shapes the subsystem targets.
//!
//! Writes `BENCH_stepper.json` into the current directory. Workloads:
//!
//! * **MIS annealing ramp** (§5.3 shape): 100 piecewise-constant segments
//!   over 1 µs — many *short* segments, where the per-segment setup cost of
//!   the high-order backends competes with Taylor's minimal overhead;
//! * **Heisenberg quench**: a Néel state evolved for a *long* time under a
//!   constant Heisenberg chain (`‖H‖·t` in the hundreds) — the regime the
//!   Krylov and Chebyshev propagators exist for, where Taylor's
//!   `‖H‖·Δt ≤ ½` splitting burns thousands of kernel applications.
//!
//! For every backend the report records total `H|ψ⟩` kernel applications
//! (the backend-independent work measure), state-sized amplitude passes
//! (the memory-traffic measure the batched sweep reduces), wall time, and
//! the deviation from the Taylor reference state — all must agree at the
//! 1e-10 level for the comparison to count. The `auto` entry additionally
//! records its per-segment decisions (`auto_decisions`), and the run
//! **asserts** the acceptance gates (ci.sh runs this binary, so they are CI
//! gates): on every workload `auto` is never slower than the worst fixed
//! backend and lands within 10% of the best fixed backend's wall time, and
//! on every ramp workload the batched sweep runs the identical series with
//! strictly fewer amplitude passes, never slower than per-segment Taylor.
//! Every workload entry additionally carries a `telemetry` JSON block (work
//! totals, recovery counts, worker-pool utilization) from one extra untimed
//! traced run.

use qturbo_bench::telemetry_report::{telemetry_json, traced_profile};
use qturbo_bench::timing::{achieved_bytes_per_sec, bench_interleaved, Json};
use qturbo_hamiltonian::models::{heisenberg_chain, mis_chain};
use qturbo_hamiltonian::Hamiltonian;
use qturbo_math::Complex;
use qturbo_quantum::compiled::CompiledHamiltonian;
use qturbo_quantum::exec::{KernelIsa, LANE_WIDTH};
use qturbo_quantum::schedule::CompiledSchedule;
use qturbo_quantum::stepper::StepperKind;
use qturbo_quantum::{EvolveOptions, ExecutionContext, Propagator, StateVector};

const RAMP_SIZES: [usize; 2] = [8, 12];
const RAMP_SEGMENTS: usize = 100;
const RAMP_TOTAL_TIME: f64 = 1.0;
const QUENCH_SIZES: [usize; 2] = [8, 12];
const QUENCH_TIME: f64 = 20.0;
/// Backends must agree with the Taylor reference at this amplitude level
/// for the work comparison to be meaningful.
const AGREEMENT: f64 = 1e-9;

/// The Néel state `|0101…⟩` — the standard quench initial condition (a
/// non-eigenstate with weight across the full Heisenberg spectrum).
fn neel_state(num_qubits: usize) -> StateVector {
    let mut amplitudes = vec![Complex::ZERO; 1 << num_qubits];
    let mut index = 0usize;
    for qubit in (1..num_qubits).step_by(2) {
        index |= 1 << qubit;
    }
    amplitudes[index] = Complex::ONE;
    StateVector::from_amplitudes(amplitudes)
}

fn max_abs_deviation(a: &StateVector, b: &StateVector) -> f64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

struct BackendResult {
    kind: StepperKind,
    kernel_applications: u64,
    /// State-sized amplitude passes — the memory-traffic measure the
    /// batched multi-segment sweep is gated on.
    state_passes: u64,
    wall_median_s: f64,
    wall_min_s: f64,
    final_state: StateVector,
    /// Per-segment decision counts in [`StepperKind::fixed`] order;
    /// `Some` only for the `auto` backend.
    decisions: Option<[u64; 4]>,
}

fn backend_json(result: &BackendResult, reference: &StateVector) -> Json {
    let deviation = max_abs_deviation(&result.final_state, reference);
    assert!(
        deviation < AGREEMENT,
        "{} deviates from the Taylor reference by {deviation}",
        result.kind.name()
    );
    let mut fields = vec![
        ("backend", Json::string(result.kind.name())),
        (
            "kernel_applications",
            Json::Number(result.kernel_applications as f64),
        ),
        ("state_passes", Json::Number(result.state_passes as f64)),
        ("wall_median_s", Json::Number(result.wall_median_s)),
        ("wall_min_s", Json::Number(result.wall_min_s)),
        (
            "bytes_per_sec",
            Json::Number(achieved_bytes_per_sec(
                result.state_passes as f64,
                result.final_state.amplitudes().len(),
                result.wall_min_s,
            )),
        ),
        ("max_abs_dev_vs_taylor", Json::Number(deviation)),
        (
            "fidelity_vs_taylor",
            Json::Number(result.final_state.fidelity(reference)),
        ),
    ];
    if let Some(decisions) = result.decisions {
        fields.push((
            "auto_decisions",
            Json::object(
                StepperKind::fixed()
                    .into_iter()
                    .zip(decisions)
                    .map(|(kind, count)| (kind.name(), Json::Number(count as f64)))
                    .collect(),
            ),
        ));
    }
    Json::object(fields)
}

/// Runs every backend (fixed plus `auto`) over `evolve`, returning
/// per-backend work, timing, and — for `auto` — the per-segment decisions.
/// The backends are timed round-robin ([`bench_interleaved`]), so the wall
/// gates compare measurements taken over the same stretch of time.
fn run_backends(
    reps: usize,
    initial: &StateVector,
    mut evolve: impl FnMut(&mut Propagator, &mut StateVector),
) -> [BackendResult; 5] {
    // Telemetry explicitly off: the gated measurements must stay untraced
    // even when `QTURBO_TRACE=1` flips the default.
    let mut propagators = StepperKind::all()
        .map(|kind| Propagator::with_options(EvolveOptions::new(kind).with_telemetry(false)));
    let mut results = propagators.each_mut().map(|propagator| {
        // Count kernel applications (and decisions) on one untimed run.
        let kind = propagator.options().stepper;
        let mut state = initial.clone();
        evolve(propagator, &mut state);
        let decisions = (kind == StepperKind::Auto).then(|| {
            let mut counts = [0u64; 4];
            for decision in propagator.segment_decisions() {
                let slot = StepperKind::fixed()
                    .into_iter()
                    .position(|fixed| fixed == *decision)
                    .expect("decisions are fixed backends");
                counts[slot] += 1;
            }
            counts
        });
        BackendResult {
            kind,
            kernel_applications: propagator.kernel_applications(),
            state_passes: propagator.state_passes(),
            wall_median_s: 0.0,
            wall_min_s: 0.0,
            final_state: state,
            decisions,
        }
    });
    let samples = bench_interleaved(reps, &mut propagators, |propagator| {
        let mut state = initial.clone();
        evolve(propagator, &mut state);
        std::hint::black_box(&state);
    });
    for (result, sample) in results.iter_mut().zip(samples) {
        result.wall_median_s = sample.median;
        result.wall_min_s = sample.min;
    }
    results
}

fn print_backends(results: &[BackendResult]) {
    let taylor = &results[0];
    for result in results {
        let decisions = result.decisions.map_or(String::new(), |counts| {
            let summary: Vec<String> = StepperKind::fixed()
                .into_iter()
                .zip(counts)
                .filter(|(_, count)| *count > 0)
                .map(|(kind, count)| format!("{}x{count}", kind.name()))
                .collect();
            format!("  [{}]", summary.join(" "))
        });
        println!(
            "      {:<14}  {:>8} applications ({:>5.1}x fewer)  {:>8} passes  {:>10.4}s wall ({:>5.2}x){decisions}",
            result.kind.name(),
            result.kernel_applications,
            taylor.kernel_applications as f64 / result.kernel_applications.max(1) as f64,
            result.state_passes,
            result.wall_median_s,
            taylor.wall_median_s / result.wall_median_s.max(1e-12),
        );
    }
}

/// The acceptance gates of the automatic selection, asserted on every
/// workload entry: `auto` must never be slower than the **worst** fixed
/// backend, and must land within 10% of the **best** fixed backend's wall
/// time. The gates compare the **minimum** wall time over the repetitions —
/// the noise-robust statistic (a median from a separate 3–5-rep measurement
/// window shifts with concurrent load and CPU-frequency changes, and `auto`
/// runs the identical code path as its chosen backend) — plus a 2 ms
/// absolute allowance for timer jitter on sub-10 ms runs. The reported JSON
/// keeps both median and min.
fn assert_auto_is_competitive(results: &[BackendResult], context: &str) {
    let auto = results
        .iter()
        .find(|r| r.kind == StepperKind::Auto)
        .expect("auto result present");
    let fixed: Vec<&BackendResult> = results
        .iter()
        .filter(|r| r.kind != StepperKind::Auto)
        .collect();
    let best = fixed
        .iter()
        .map(|r| r.wall_min_s)
        .fold(f64::INFINITY, f64::min);
    let worst = fixed.iter().map(|r| r.wall_min_s).fold(0.0, f64::max);
    assert!(
        auto.wall_min_s <= worst + 0.002,
        "{context}: auto ({:.4}s) is slower than the worst fixed backend ({worst:.4}s)",
        auto.wall_min_s
    );
    assert!(
        auto.wall_min_s <= best * 1.10 + 0.002,
        "{context}: auto ({:.4}s) is more than 10% behind the best fixed backend ({best:.4}s)",
        auto.wall_min_s
    );
}

/// The batched-sweep acceptance gates, asserted on every ramp-shaped
/// workload: the batched path runs the identical Taylor series (equal
/// kernel applications), traverses strictly fewer amplitude passes, and is
/// never slower than per-segment Taylor on wall time (min statistic, with
/// the same 2 ms jitter allowance as the auto gates).
fn assert_batched_beats_per_segment_taylor(results: &[BackendResult], context: &str) {
    let taylor = results
        .iter()
        .find(|r| r.kind == StepperKind::Taylor)
        .expect("taylor result present");
    let batched = results
        .iter()
        .find(|r| r.kind == StepperKind::BatchedTaylor)
        .expect("batched result present");
    assert_eq!(
        batched.kernel_applications, taylor.kernel_applications,
        "{context}: the batched sweep must run the identical series"
    );
    assert!(
        batched.state_passes < taylor.state_passes,
        "{context}: batched spent {} amplitude passes vs per-segment Taylor's {}",
        batched.state_passes,
        taylor.state_passes
    );
    assert!(
        batched.wall_min_s <= taylor.wall_min_s + 0.002,
        "{context}: batched ({:.4}s) is slower than per-segment Taylor ({:.4}s)",
        batched.wall_min_s,
        taylor.wall_min_s
    );
}

fn ramp_entry(qubits: usize) -> Json {
    println!("  MIS ramp, {qubits} qubits, {RAMP_SEGMENTS} segments:");
    let ramp = mis_chain(qubits, 1.0, 1.0, 1.0, RAMP_TOTAL_TIME, RAMP_SEGMENTS);
    let segments: Vec<(Hamiltonian, f64)> = ramp
        .segments()
        .iter()
        .map(|s| (s.hamiltonian.clone(), s.duration))
        .collect();
    let schedule = CompiledSchedule::compile(&segments);
    let initial = StateVector::zero_state(qubits);
    let reps = if qubits >= 12 { 3 } else { 5 };
    let results = run_backends(reps, &initial, |propagator, state| {
        propagator.reset_kernel_applications();
        propagator.evolve_schedule_in_place(&schedule, state);
    });
    print_backends(&results);
    assert_auto_is_competitive(&results, &format!("{qubits}q MIS ramp"));
    assert_batched_beats_per_segment_taylor(&results, &format!("{qubits}q MIS ramp"));
    let reference = results[0].final_state.clone();
    // One extra untimed traced run provides the workload's telemetry block.
    let profile = traced_profile(&initial, StepperKind::Auto, |propagator, state| {
        propagator.evolve_schedule_in_place(&schedule, state)
    });
    Json::object(vec![
        ("workload", Json::string("mis_ramp")),
        ("qubits", Json::Number(qubits as f64)),
        ("segments", Json::Number(RAMP_SEGMENTS as f64)),
        ("total_time_us", Json::Number(RAMP_TOTAL_TIME)),
        ("telemetry", telemetry_json(StepperKind::Auto, &profile)),
        (
            "backends",
            Json::Array(
                results
                    .iter()
                    .map(|r| backend_json(r, &reference))
                    .collect(),
            ),
        ),
    ])
}

fn quench_entry(qubits: usize) -> Json {
    println!("  Heisenberg quench, {qubits} qubits, t = {QUENCH_TIME}:");
    let hamiltonian = heisenberg_chain(qubits, 1.0, 0.5);
    let compiled = CompiledHamiltonian::compile(&hamiltonian);
    let phase = compiled.step_strength() * QUENCH_TIME;
    let initial = neel_state(qubits);
    let reps = if qubits >= 12 { 3 } else { 5 };
    let results = run_backends(reps, &initial, |propagator, state| {
        propagator.reset_kernel_applications();
        propagator.evolve_in_place(&compiled, state, QUENCH_TIME);
    });
    print_backends(&results);
    assert_auto_is_competitive(&results, &format!("{qubits}q Heisenberg quench"));
    let reference = results[0].final_state.clone();

    // The acceptance gate of the stepper subsystem: at least one high-order
    // backend must beat Taylor on BOTH kernel applications and wall time on
    // the long-time quench.
    let taylor = &results[0];
    let beats = results[1..].iter().any(|r| {
        r.kernel_applications < taylor.kernel_applications && r.wall_median_s < taylor.wall_median_s
    });
    assert!(
        beats,
        "no high-order backend beat Taylor on the {qubits}-qubit quench"
    );

    // One extra untimed traced run provides the workload's telemetry block.
    let profile = traced_profile(&initial, StepperKind::Auto, |propagator, state| {
        propagator.evolve_in_place(&compiled, state, QUENCH_TIME)
    });
    Json::object(vec![
        ("workload", Json::string("heisenberg_quench")),
        ("qubits", Json::Number(qubits as f64)),
        ("time_us", Json::Number(QUENCH_TIME)),
        ("strength_time_product", Json::Number(phase)),
        ("telemetry", telemetry_json(StepperKind::Auto, &profile)),
        (
            "backends",
            Json::Array(
                results
                    .iter()
                    .map(|r| backend_json(r, &reference))
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    println!(
        "stepper benchmark: Taylor vs Krylov vs Chebyshev vs Auto, {} worker threads available",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut entries: Vec<Json> = Vec::new();
    for &qubits in &RAMP_SIZES {
        entries.push(ramp_entry(qubits));
    }
    for &qubits in &QUENCH_SIZES {
        entries.push(quench_entry(qubits));
    }

    let report = Json::object(vec![
        ("benchmark", Json::string("stepper")),
        (
            "backends",
            Json::Array(
                StepperKind::all()
                    .into_iter()
                    .map(|k| Json::string(k.name()))
                    .collect(),
            ),
        ),
        ("agreement_threshold", Json::Number(AGREEMENT)),
        (
            "worker_threads_available",
            Json::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "worker_threads_resolved",
            Json::Number(ExecutionContext::auto().resolved_threads() as f64),
        ),
        ("lane_width", Json::Number(LANE_WIDTH as f64)),
        ("kernel_isa", Json::string(KernelIsa::detected().name())),
        ("entries", Json::Array(entries)),
    ]);
    let path = "BENCH_stepper.json";
    std::fs::write(path, report.render() + "\n").expect("write benchmark report");
    println!("wrote {path}");
}
