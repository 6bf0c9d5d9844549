//! Device-level conformance of the noise sweeps:
//!
//! * structure-of-arrays realization batching: the block sweep
//!   ([`EvolveOptions::with_realization_block`]) is pinned against the
//!   sequential sweep over a grid of realization counts × stepper kinds ×
//!   boundary conditions, on a restarting ramp and a one-segment
//!   trajectory;
//! * the one-segment trajectory sweep, where each realization continues
//!   from the previous one by its scale difference, is pinned against the
//!   same Hamiltonian split into two half-duration segments, which
//!   restarts every realization from `|0⟩`;
//! * the regression contracts of the realization RNG streams and the fault
//!   harness inside a block sweep.

use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString};
use qturbo_math::rng::Rng;
use qturbo_quantum::fault::{Fault, FaultInjector};
use qturbo_quantum::schedule::CompiledSchedule;
use qturbo_quantum::state::RealizationBlock;
use qturbo_quantum::{
    DeviceRun, EmulatedDevice, EvolveOptions, NoiseModel, Propagator, StepperKind,
};

const AGREEMENT: f64 = 1e-10;

/// A dense detuning ramp with a phase-modulated `cos φ · X + sin φ · Y`
/// drive and ZZ couplings: engages the diagonal table, the flip kernel,
/// the sign-carrying gather kernel, and per-segment weight swaps — the
/// workload realization batching is built for.
fn ramp(num_qubits: usize, segments: usize) -> Vec<(Hamiltonian, f64)> {
    (0..segments)
        .map(|index| {
            let s = index as f64 / segments as f64;
            let phase = std::f64::consts::PI * (0.25 + 0.5 * s);
            let mut terms: Vec<(f64, PauliString)> = Vec::new();
            for qubit in 0..num_qubits {
                terms.push((1.2 * (1.0 - 2.0 * s), PauliString::single(qubit, Pauli::Z)));
                terms.push((0.9 * phase.cos(), PauliString::single(qubit, Pauli::X)));
                terms.push((0.9 * phase.sin(), PauliString::single(qubit, Pauli::Y)));
            }
            for qubit in 0..num_qubits.saturating_sub(1) {
                terms.push((0.7, PauliString::two(qubit, Pauli::Z, qubit + 1, Pauli::Z)));
            }
            (Hamiltonian::from_terms(num_qubits, terms), 0.12)
        })
        .collect()
}

/// Exact-expectation noise: miscalibration spreads the realizations apart,
/// `shots: None` keeps the comparison analog (a finite-shot Bernoulli draw
/// can flip on a 1e-13 expectation difference, which is not a conformance
/// failure).
fn exact_noise() -> NoiseModel {
    NoiseModel {
        depolarizing_rate: 0.01,
        amplitude_miscalibration: 0.05,
        readout_error: 0.01,
        shots: None,
    }
}

/// The tentpole conformance grid: block and sequential sweeps agree to
/// 1e-10 on every observable for `R ∈ {1, 3, 8}` realizations, every
/// stepper kind (the block path always integrates with the batched-Taylor
/// scheme; the sequential path uses the kind under test, so this doubles as
/// a cross-backend check), and both boundary conditions — on a ramp of
/// several segments, where the sequential sweep restarts every
/// realization, and on one segment, where it follows one trajectory.
#[test]
fn block_sweep_matches_sequential_reference() {
    let num_qubits = 4;
    for segments in [ramp(num_qubits, 10), vec![(quench(num_qubits), 1.2)]] {
        block_sweep_matches_sequential(&segments, num_qubits);
    }
}

/// One schedule's block-vs-sequential grid.
fn block_sweep_matches_sequential(segments: &[(Hamiltonian, f64)], num_qubits: usize) {
    for &realizations in &[1usize, 3, 8] {
        for &kind in &StepperKind::all() {
            for &cyclic in &[false, true] {
                let sequential = EmulatedDevice::new(exact_noise(), 91)
                    .with_options(EvolveOptions::new(kind))
                    .run_realizations(segments, num_qubits, cyclic, realizations);
                let block = EmulatedDevice::new(exact_noise(), 91)
                    .with_options(EvolveOptions::new(kind).with_realization_block(true))
                    .run_realizations(segments, num_qubits, cyclic, realizations);
                assert_eq!(sequential.len(), realizations);
                assert_eq!(block.len(), realizations);
                for (r, (seq_run, block_run)) in sequential.iter().zip(block.iter()).enumerate() {
                    for (a, b) in seq_run.z.iter().zip(block_run.z.iter()) {
                        assert!(
                            (a - b).abs() < AGREEMENT,
                            "z mismatch: kind={kind:?} R={realizations} cyclic={cyclic} \
                             realization={r}: {a} vs {b}"
                        );
                    }
                    for (a, b) in seq_run.zz.iter().zip(block_run.zz.iter()) {
                        assert!(
                            (a - b).abs() < AGREEMENT,
                            "zz mismatch: kind={kind:?} R={realizations} cyclic={cyclic} \
                             realization={r}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
}

/// Realization `0` of a sweep is bitwise identical to a standalone
/// [`EmulatedDevice::run`] — the sweep's per-realization RNG streams and
/// evolution are exactly the single-run path, realization by realization —
/// on the restart path (a ramp of several segments) and on the trajectory
/// path (one segment). Exact observables pin the evolved state's bits;
/// finite shots pin the order of the estimation draws.
#[test]
fn sweep_realization_zero_is_bitwise_run() {
    let num_qubits = 4;
    let finite_shots = NoiseModel {
        shots: Some(500),
        ..exact_noise()
    };
    for noise in [exact_noise(), finite_shots] {
        let device = EmulatedDevice::new(noise, 7);
        for segments in [ramp(num_qubits, 8), vec![(quench(num_qubits), 1.2)]] {
            let single = device.run(&segments, num_qubits, true);
            let sweep = device.run_realizations(&segments, num_qubits, true, 5);
            // DeviceRun equality is exact (bitwise on the observables).
            assert_eq!(sweep[0], single);
            assert_eq!(
                sweep,
                device.run_realizations(&segments, num_qubits, true, 5)
            );
        }
    }
}

/// Seed-decorrelation regression: the historical additive `seed + r` stream
/// composition made seed `s`, realization `1` replay seed `s + 1`,
/// realization `0`. The SplitMix64 pair mixing must keep them distinct.
#[test]
fn realization_streams_do_not_alias_adjacent_seeds() {
    let num_qubits = 3;
    let segments = ramp(num_qubits, 6);
    let noise = NoiseModel {
        // Finite shots on top of miscalibration: any stream aliasing would
        // reproduce both the scale draw and every estimation draw.
        shots: Some(4096),
        ..exact_noise()
    };
    let runs_a =
        EmulatedDevice::new(noise.clone(), 40).run_realizations(&segments, num_qubits, false, 2);
    let runs_b = EmulatedDevice::new(noise, 41).run_realizations(&segments, num_qubits, false, 2);
    assert_ne!(
        runs_a[1], runs_b[0],
        "seed 40 realization 1 must not replay seed 41 realization 0"
    );
}

/// Fault injection inside a block sweep: a mid-schedule amplitude spike
/// corrupting every realization lane trips the per-realization drift
/// guardrail at the faulted segment, is recovered from the boundary
/// snapshot, and the sweep still lands on the clean answer.
#[test]
fn fault_recovery_inside_block_sweep() {
    let num_qubits = 3;
    let schedule = CompiledSchedule::compile(&ramp(num_qubits, 6));
    let scales = [1.0, 0.97, 1.03];
    let options = EvolveOptions::batched_taylor();

    let mut clean = Propagator::with_options(options);
    let mut clean_block = RealizationBlock::zero_states(num_qubits, scales.len());
    clean
        .try_evolve_schedule_block(&schedule, &mut clean_block, &scales)
        .expect("clean block sweep");
    assert!(clean.recovery_log().is_empty());

    let mut faulted = Propagator::with_options(options);
    faulted.set_fault_injector(Some(
        FaultInjector::new(11).with_fault(2, Fault::AmplitudeSpike { factor: 1e8 }),
    ));
    let mut block = RealizationBlock::zero_states(num_qubits, scales.len());
    faulted
        .try_evolve_schedule_block(&schedule, &mut block, &scales)
        .expect("faulted block sweep must recover");
    assert_eq!(
        faulted.recovery_log().len(),
        1,
        "the spike must be recovered exactly once"
    );
    assert_eq!(faulted.recovery_log().events()[0].segment, 2);

    for r in 0..scales.len() {
        let clean_state = clean_block.extract(r);
        let recovered_state = block.extract(r);
        for (a, b) in clean_state
            .amplitudes()
            .iter()
            .zip(recovered_state.amplitudes())
        {
            assert!(
                (*a - *b).norm_sqr().sqrt() < AGREEMENT,
                "realization {r} diverged after recovery: {a:?} vs {b:?}"
            );
        }
    }
}

/// A one-segment quench on a chain: transverse and longitudinal fields, a
/// `Y` drive (sign-carrying gathers) and `ZZ` couplings.
fn quench(num_qubits: usize) -> Hamiltonian {
    let mut terms: Vec<(f64, PauliString)> = Vec::new();
    for qubit in 0..num_qubits {
        terms.push((0.8, PauliString::single(qubit, Pauli::X)));
        terms.push((0.3, PauliString::single(qubit, Pauli::Y)));
        terms.push((
            -0.5 + 0.2 * qubit as f64,
            PauliString::single(qubit, Pauli::Z),
        ));
    }
    for qubit in 0..num_qubits - 1 {
        terms.push((0.9, PauliString::two(qubit, Pauli::Z, qubit + 1, Pauli::Z)));
    }
    Hamiltonian::from_terms(num_qubits, terms)
}

/// The one-segment sweep and the same evolution split into two
/// half-duration segments: the split schedule restarts every realization
/// from `|0⟩` and draws the same scales, so the two must agree.
fn trajectory_and_restart(
    device: &EmulatedDevice,
    num_qubits: usize,
    duration: f64,
    cyclic: bool,
    realizations: usize,
) -> (Vec<DeviceRun>, Vec<DeviceRun>) {
    let hamiltonian = quench(num_qubits);
    let whole = CompiledSchedule::compile(&[(hamiltonian.clone(), duration)]);
    let halves = CompiledSchedule::compile(&[
        (hamiltonian.clone(), duration / 2.0),
        (hamiltonian, duration / 2.0),
    ]);
    assert_eq!(whole.num_segments(), 1);
    assert_eq!(halves.num_segments(), 2);
    (
        device.run_compiled(&whole, num_qubits, cyclic, realizations),
        device.run_compiled(&halves, num_qubits, cyclic, realizations),
    )
}

fn assert_runs_agree(trajectory: &[DeviceRun], restart: &[DeviceRun], context: &str) {
    assert_eq!(trajectory.len(), restart.len(), "{context}");
    for (r, (a, b)) in trajectory.iter().zip(restart).enumerate() {
        assert_eq!(
            a.execution_time, b.execution_time,
            "{context} realization={r}"
        );
        for (x, y) in a.z.iter().chain(&a.zz).zip(b.z.iter().chain(&b.zz)) {
            assert!(
                (x - y).abs() < AGREEMENT,
                "{context} realization={r}: {x} vs {y}"
            );
        }
    }
}

/// The trajectory grid: `R ∈ {1, 3, 8}` × every stepper kind × both
/// boundary conditions agree with the restart sweep to 1e-10.
#[test]
fn trajectory_sweep_matches_restart_sweep() {
    let num_qubits = 5;
    for &realizations in &[1usize, 3, 8] {
        for &kind in &StepperKind::all() {
            for &cyclic in &[false, true] {
                let device =
                    EmulatedDevice::new(exact_noise(), 29).with_options(EvolveOptions::new(kind));
                let (trajectory, restart) =
                    trajectory_and_restart(&device, num_qubits, 1.5, cyclic, realizations);
                assert_runs_agree(
                    &trajectory,
                    &restart,
                    &format!("kind={kind:?} R={realizations} cyclic={cyclic}"),
                );
            }
        }
    }
}

/// A miscalibration of 100 % spreads the scales across zero, so the sweep
/// evolves under negative scales and crosses zero with its increments; it
/// still agrees with the restart sweep.
#[test]
fn trajectory_sweep_crosses_zero_scale() {
    let num_qubits = 4;
    let noise = NoiseModel {
        amplitude_miscalibration: 1.0,
        ..exact_noise()
    };
    for seed in [3u64, 7, 17] {
        // The device draws realization r's scale as the first Gaussian of
        // its stream; make sure this seed's sweep has scales of both signs.
        let scales: Vec<f64> = (0..8)
            .map(|r| 1.0 + Rng::seed_from_pair(seed, r).next_gaussian())
            .collect();
        assert!(
            scales.iter().any(|&s| s < 0.0) && scales.iter().any(|&s| s > 0.0),
            "seed={seed}: scales {scales:?} do not cross zero"
        );
        let device = EmulatedDevice::new(noise.clone(), seed);
        let (trajectory, restart) = trajectory_and_restart(&device, num_qubits, 1.0, true, 8);
        assert_runs_agree(&trajectory, &restart, &format!("seed={seed}"));
    }
}

/// Without miscalibration every increment is exactly `0`: each realization
/// re-measures realization `0`'s state, so exact observables are bitwise
/// equal to realization `0`'s and a traced profile records no further
/// kernel work.
#[test]
fn trajectory_without_miscalibration_remeasures_one_state() {
    let num_qubits = 5;
    let segments = [(quench(num_qubits), 1.2)];
    let noise = NoiseModel {
        amplitude_miscalibration: 0.0,
        ..exact_noise()
    };
    let device =
        EmulatedDevice::new(noise, 13).with_options(EvolveOptions::default().with_telemetry(true));
    let sweep = device.run_realizations(&segments, num_qubits, true, 6);
    let first = sweep[0].profile.as_ref().expect("traced device run");
    assert!(first.applications() > 0);
    for run in &sweep[1..] {
        assert_eq!(run.z, sweep[0].z);
        assert_eq!(run.zz, sweep[0].zz);
        let profile = run.profile.as_ref().expect("traced device run");
        assert_eq!(profile.applications(), 0);
    }
}
