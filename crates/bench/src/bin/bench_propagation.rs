//! Propagation benchmark: naive per-qubit reference vs the mask-compiled
//! allocation-free kernel, at 8/12/16/20 qubits.
//!
//! Writes `BENCH_propagation.json` into the current directory so the perf
//! trajectory of the simulator hot path is tracked from PR 1 onward. The
//! model is the transverse-field Ising chain (`J = h = 1 MHz`), the dominant
//! workload of the end-to-end dynamics tests, evolved from `|0…0⟩` for
//! 0.1 µs.
//!
//! The naive `evolve` reference is skipped above 16 qubits (it takes minutes
//! there — which is exactly the point of the compiled kernel); its `H|ψ⟩`
//! application is still timed at every size.

use qturbo_bench::telemetry_report::{telemetry_json, traced_profile};
use qturbo_bench::timing::{achieved_bytes_per_sec as bytes_per_sec, bench, Json, Sample};
use qturbo_hamiltonian::models::ising_chain;
use qturbo_quantum::compiled::CompiledHamiltonian;
use qturbo_quantum::exec::{KernelIsa, LANE_WIDTH};
use qturbo_quantum::propagate::{apply_hamiltonian_naive, evolve_naive, Propagator};
use qturbo_quantum::{EvolveOptions, ExecutionContext, StateVector, StepperKind};

const SIZES: [usize; 4] = [8, 12, 16, 20];
const EVOLVE_TIME: f64 = 0.1;
/// Naive `evolve` is only timed up to this size.
const NAIVE_EVOLVE_LIMIT: usize = 16;

fn reps_for(qubits: usize) -> usize {
    if qubits >= 16 {
        3
    } else {
        10
    }
}

fn entry(
    qubits: usize,
    kind: &str,
    terms: usize,
    naive: Option<Sample>,
    compiled: Sample,
    achieved_bytes_per_sec: f64,
    note: Option<&str>,
) -> Json {
    let speedup = naive.map(|n| n.median / compiled.median.max(1e-12));
    let mut fields = vec![
        ("qubits", Json::Number(qubits as f64)),
        ("kind", Json::string(kind)),
        ("terms", Json::Number(terms as f64)),
        ("naive_median_s", Json::opt_number(naive.map(|s| s.median))),
        ("naive_min_s", Json::opt_number(naive.map(|s| s.min))),
        ("compiled_median_s", Json::Number(compiled.median)),
        ("compiled_min_s", Json::Number(compiled.min)),
        ("speedup", Json::opt_number(speedup)),
        ("bytes_per_sec", Json::Number(achieved_bytes_per_sec)),
    ];
    if let Some(note) = note {
        fields.push(("note", Json::string(note)));
    }
    if let Some(speedup) = speedup {
        println!(
            "  {qubits:>2}q {kind:<6} naive {:>10.6}s  compiled {:>10.6}s  speedup {speedup:>7.1}x",
            naive.unwrap().median,
            compiled.median
        );
    } else {
        println!(
            "  {qubits:>2}q {kind:<6} naive {:>10}  compiled {:>10.6}s",
            "skipped", compiled.median
        );
    }
    Json::object(fields)
}

fn main() {
    println!(
        "propagation benchmark: transverse-field Ising chain, t = {EVOLVE_TIME} µs, {} worker threads available",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Correctness gate before timing anything: the two paths must agree.
    let check_h = ising_chain(8, 1.0, 1.0);
    let check_state = StateVector::zero_state(8);
    let fast = qturbo_quantum::propagate::evolve(&check_state, &check_h, EVOLVE_TIME);
    let slow = evolve_naive(&check_state, &check_h, EVOLVE_TIME);
    let fidelity = fast.fidelity(&slow);
    assert!(
        fidelity > 1.0 - 1e-10,
        "compiled/naive disagree: fidelity {fidelity}"
    );

    let mut entries = Vec::new();
    for &n in &SIZES {
        let hamiltonian = ising_chain(n, 1.0, 1.0);
        let compiled_h = CompiledHamiltonian::compile(&hamiltonian);
        let terms = compiled_h.num_terms();
        let state = StateVector::zero_state(n);
        let reps = reps_for(n);

        // --- One H|ψ⟩ application. ---
        let naive_apply = bench(reps, || {
            let out = apply_hamiltonian_naive(&hamiltonian, &state);
            std::hint::black_box(&out);
        });
        let mut out = StateVector::zeros(n);
        let compiled_apply = bench(reps, || {
            compiled_h.apply_into(&state, &mut out);
            std::hint::black_box(&out);
        });
        entries.push(entry(
            n,
            "apply",
            terms,
            Some(naive_apply),
            compiled_apply,
            bytes_per_sec(2.0, 1 << n, compiled_apply.min),
            None,
        ));

        // --- Full Taylor evolve. ---
        let naive_evolve = (n <= NAIVE_EVOLVE_LIMIT).then(|| {
            bench(if n >= 16 { 1 } else { reps }, || {
                let out = evolve_naive(&state, &hamiltonian, EVOLVE_TIME);
                std::hint::black_box(&out);
            })
        });
        // Pin the Taylor backend: this benchmark isolates the kernel speedup
        // (naive vs mask-compiled) under identical stepping, so the default
        // automatic backend selection must not change the algorithm here —
        // BENCH_stepper.json is where the backends compete. Telemetry is
        // explicitly off so the timed runs stay untraced under QTURBO_TRACE.
        let mut propagator =
            Propagator::with_options(EvolveOptions::new(StepperKind::Taylor).with_telemetry(false));
        let mut work = StateVector::zeros(n);
        propagator.reset_kernel_applications();
        let compiled_evolve = bench(reps, || {
            work.copy_from(&state);
            propagator.evolve_in_place(&compiled_h, &mut work, EVOLVE_TIME);
            std::hint::black_box(&work);
        });
        // The pass counter accumulated over warm-up + reps identical runs;
        // per-rep traffic is the exact per-evolution pass count.
        let evolve_passes = propagator.state_passes() as f64 / (reps + 1) as f64;
        let note = (n > NAIVE_EVOLVE_LIMIT)
            .then_some("naive evolve skipped above 16 qubits (minutes of runtime)");
        entries.push(entry(
            n,
            "evolve",
            terms,
            naive_evolve,
            compiled_evolve,
            bytes_per_sec(evolve_passes, 1 << n, compiled_evolve.min),
            note,
        ));

        // One extra untimed traced run of the Taylor evolve attaches the
        // workload's telemetry block (the timed runs above are untraced).
        let profile = traced_profile(&state, StepperKind::Taylor, |propagator, work| {
            propagator.evolve_in_place(&compiled_h, work, EVOLVE_TIME)
        });
        entries.push(Json::object(vec![
            ("qubits", Json::Number(n as f64)),
            ("kind", Json::string("telemetry")),
            ("telemetry", telemetry_json(StepperKind::Taylor, &profile)),
        ]));
    }

    let report = Json::object(vec![
        ("benchmark", Json::string("propagation")),
        ("model", Json::string("ising_chain(J=1,h=1)")),
        ("evolve_time_us", Json::Number(EVOLVE_TIME)),
        ("initial_state", Json::string("|0...0>")),
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
        ("cross_check_fidelity", Json::Number(fidelity)),
        ("entries", Json::Array(entries)),
    ]);
    let path = "BENCH_propagation.json";
    std::fs::write(path, report.render() + "\n").expect("write benchmark report");
    println!("wrote {path}");
}
