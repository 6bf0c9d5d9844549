//! Execution-layer conformance: the SIMD-lane kernels and the persistent
//! worker pool must be invisible in the numbers.
//!
//! The grid sweeps every [`StepperKind`] × worker counts {1, 2, max} with
//! the parallel threshold forced to zero — so even the small registers of
//! this suite genuinely fan out across the pool — and pins every cell to
//! the naive dense propagation (`evolve_naive`) at 1e-10, with the evolved
//! norm preserved to the same window. A lane-math bug, a
//! chunk-boundary overlap, or a pool synchronization race all surface here
//! as amplitude disagreement.

use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString};
use qturbo_math::rng::Rng;
use qturbo_math::Complex;
use qturbo_quantum::compiled::CompiledHamiltonian;
use qturbo_quantum::propagate::evolve_naive;
use qturbo_quantum::{EvolveOptions, ExecutionContext, Propagator, StateVector, StepperKind};

const AGREEMENT: f64 = 1e-10;

/// A Hamiltonian exercising every kernel term class at once: tabled
/// diagonal terms, lane-aligned and lane-straddling flips (x-mask low bits
/// zero and non-zero), and weighted gathers with z-masks both below and
/// above the lane boundary.
fn every_class_hamiltonian(num_qubits: usize) -> Hamiltonian {
    Hamiltonian::from_terms(
        num_qubits,
        [
            (0.7, PauliString::single(0, Pauli::Z)),
            (-0.4, PauliString::two(1, Pauli::Z, 3, Pauli::Z)),
            (0.9, PauliString::single(1, Pauli::X)),
            (0.35, PauliString::single(3, Pauli::X)),
            (-0.6, PauliString::single(0, Pauli::Y)),
            (0.25, PauliString::two(2, Pauli::Z, 1, Pauli::Y)),
            (0.15, PauliString::identity()),
        ],
    )
}

fn random_state(rng: &mut Rng, num_qubits: usize) -> StateVector {
    let amplitudes: Vec<Complex> = (0..1usize << num_qubits)
        .map(|_| Complex::new(rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)))
        .collect();
    StateVector::from_amplitudes(amplitudes)
}

/// The execution contexts of the grid: worker counts {1, 2, max} (max being
/// the machine's resolved parallelism, floored at 3 so the sweep always
/// includes a >2 fan-out even on small CI runners), each with the parallel
/// threshold at zero so the pool engages on every register size.
fn contexts() -> Vec<(String, ExecutionContext)> {
    let max_threads = ExecutionContext::auto().resolved_threads().max(3);
    [1, 2, max_threads]
        .into_iter()
        .map(|threads| {
            (
                format!("threads{threads}"),
                ExecutionContext::auto()
                    .with_threads(threads)
                    .with_parallel_threshold(0),
            )
        })
        .collect()
}

#[test]
fn every_backend_agrees_across_thread_counts() {
    let mut rng = Rng::seed_from_u64(0xE8EC);
    for num_qubits in [4, 5] {
        let h = every_class_hamiltonian(num_qubits);
        let initial = random_state(&mut rng, num_qubits);
        let initial_norm = initial.norm();
        for duration in [0.4, 6.0] {
            let reference = evolve_naive(&initial, &h, duration);
            for kind in StepperKind::all() {
                for (label, context) in contexts() {
                    let options = EvolveOptions::new(kind).with_execution(context);
                    let mut propagator = Propagator::with_options(options);
                    let compiled = CompiledHamiltonian::compile(&h);
                    let mut state = initial.clone();
                    propagator.evolve_in_place(&compiled, &mut state, duration);
                    for (index, (a, b)) in state
                        .amplitudes()
                        .iter()
                        .zip(reference.amplitudes())
                        .enumerate()
                    {
                        assert!(
                            (*a - *b).abs() < AGREEMENT,
                            "{}q t={duration} {}/{label} amplitude {index}: {a} != {b}",
                            num_qubits,
                            kind.name()
                        );
                    }
                    // Norm preservation: the drift corrections rescale to the
                    // caller's reference norm whatever the execution config.
                    assert!(
                        (state.norm() - initial_norm).abs() < AGREEMENT,
                        "{}q t={duration} {}/{label}: norm {} != {initial_norm}",
                        num_qubits,
                        kind.name(),
                        state.norm()
                    );
                }
            }
        }
    }
}

#[test]
fn fixed_configuration_is_bitwise_reproducible() {
    // The determinism contract: same worker count ⇒ identical bits, run
    // to run, pool warm or cold.
    let mut rng = Rng::seed_from_u64(0xB17);
    let h = every_class_hamiltonian(4);
    let compiled = CompiledHamiltonian::compile(&h);
    let initial = random_state(&mut rng, 4);
    for (label, context) in contexts() {
        let options = EvolveOptions::taylor().with_execution(context);
        let mut first = initial.clone();
        Propagator::with_options(options).evolve_in_place(&compiled, &mut first, 1.3);
        let mut second = initial.clone();
        Propagator::with_options(options).evolve_in_place(&compiled, &mut second, 1.3);
        assert_eq!(
            first.amplitudes(),
            second.amplitudes(),
            "{label}: repeated runs diverged"
        );
    }
}

#[test]
fn with_threads_builder_pins_the_worker_count() {
    // The satellite requirement spelled out: EvolveOptions::with_threads
    // flows into the stored execution context, and 0 restores automatic
    // resolution.
    let pinned = EvolveOptions::default().with_threads(2);
    assert_eq!(pinned.execution.resolved_threads(), 2);
    let auto = pinned.with_threads(0);
    assert_eq!(
        auto.execution.resolved_threads(),
        ExecutionContext::auto().resolved_threads()
    );
    let swapped = EvolveOptions::default()
        .with_execution(ExecutionContext::auto().with_parallel_threshold(3));
    assert_eq!(swapped.execution.parallel_threshold_qubits(), 3);
}
