//! Fault-injection conformance grid for the panic-free evolution pipeline.
//!
//! Every failure class of the [`qturbo_quantum::fault::Fault`] taxonomy is
//! injected into a multi-segment schedule under **every**
//! [`StepperKind`] (the four fixed backends and `Auto`), and each cell must
//! land in exactly one of two lawful outcomes:
//!
//! 1. **Recovered** — the run returns `Ok`, the final amplitudes agree with
//!    the uninjected reference to 1e-10, and (for faults that corrupt
//!    state or force a solver failure on the executing backend) the
//!    [`RecoveryLog`] records the fallback that saved the run, or
//! 2. **Typed error** — the run returns an [`EvolveError`] naming the
//!    failure.
//!
//! Panicking and silently returning wrong amplitudes are both failures of
//! the harness — the first fails the test process, the second the 1e-10
//! comparison. A second grid drives the invalid-input taxonomy (NaN time,
//! bad segment durations, zero shots, out-of-range readout error, empty
//! device schedules, mismatched register widths) through every backend and
//! asserts the typed [`EvolveError::InvalidInput`] contract.

use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString};
use qturbo_math::MathError;
use qturbo_quantum::compiled::CompiledHamiltonian;
use qturbo_quantum::fault::{Fault, FaultInjector};
use qturbo_quantum::schedule::CompiledSchedule;
use qturbo_quantum::stepper::{KrylovStepper, Stepper};
use qturbo_quantum::{
    EmulatedDevice, EvolveError, EvolveOptions, ExecutionContext, NoiseModel, Propagator,
    StateVector, StepperKind,
};

const AGREEMENT: f64 = 1e-10;
const SEED: u64 = 0xFA17;
/// The schedule segment every fault in the grid is armed on.
const FAULT_SEGMENT: usize = 1;

/// A four-segment, three-qubit schedule mixing two mask structures: X-drive
/// plus ZZ-coupling segments (shared layout, varying weights) around a
/// Y-flavored middle segment. Small enough to run the full grid fast, rich
/// enough that every backend does real work on every segment.
fn grid_segments() -> Vec<(Hamiltonian, f64)> {
    let drive = |omega: f64, coupling: f64| {
        let mut h = Hamiltonian::new(3);
        for q in 0..3 {
            h.add_term(omega / 2.0, PauliString::single(q, Pauli::X));
        }
        h.add_term(coupling, PauliString::two(0, Pauli::Z, 1, Pauli::Z));
        h.add_term(coupling, PauliString::two(1, Pauli::Z, 2, Pauli::Z));
        h
    };
    let mut twisted = Hamiltonian::new(3);
    twisted.add_term(0.9, PauliString::single(1, Pauli::Y));
    twisted.add_term(0.6, PauliString::two(0, Pauli::X, 2, Pauli::Z));
    vec![
        (drive(2.0, 1.0), 0.4),
        (drive(1.4, 0.7), 0.5),
        (twisted, 0.3),
        (drive(0.8, 1.2), 0.4),
    ]
}

fn every_kind() -> [StepperKind; 5] {
    StepperKind::all()
}

/// The execution configurations the tentpole grid runs under: the inline
/// default, and the persistent worker pool forced on (two workers, parallel
/// threshold zero so the small grid registers genuinely fan out). Fault
/// detection and recovery must be independent of which one executes.
fn execution_contexts() -> [(&'static str, ExecutionContext); 2] {
    [
        ("inline", ExecutionContext::auto()),
        (
            "pooled",
            ExecutionContext::auto()
                .with_threads(2)
                .with_parallel_threshold(0),
        ),
    ]
}

/// The uninjected result of the grid schedule under `kind`.
fn clean_reference(schedule: &CompiledSchedule, kind: StepperKind) -> StateVector {
    let mut propagator = Propagator::with_options(EvolveOptions::new(kind));
    let mut state = StateVector::plus_state(3);
    propagator
        .try_evolve_schedule_in_place(schedule, &mut state)
        .expect("clean evolution succeeds");
    assert!(
        propagator.recovery_log().is_empty(),
        "{}: clean run must not trigger recovery",
        kind.name()
    );
    state
}

fn assert_amplitudes_match(
    kind: StepperKind,
    fault: &Fault,
    got: &StateVector,
    want: &StateVector,
) {
    for (index, (a, b)) in got.amplitudes().iter().zip(want.amplitudes()).enumerate() {
        assert!(
            (*a - *b).abs() < AGREEMENT,
            "{} x {fault:?}: amplitude {index} diverged: {a} != {b}",
            kind.name()
        );
    }
}

/// Whether `fault` corrupts the state vector itself (and therefore must be
/// *detected* — an `Ok` without a recovery event would mean the corruption
/// sailed through unchecked).
fn corrupts_state(fault: &Fault) -> bool {
    matches!(
        fault,
        Fault::NanAmplitude | Fault::InfAmplitude | Fault::AmplitudeSpike { .. }
    )
}

/// The tentpole grid: every failure class x every backend. Each cell either
/// recovers to the 1e-10-correct answer (logged in the RecoveryLog) or
/// returns a typed error — never panics, never silently wrong.
#[test]
fn fault_grid_recovers_or_errors_never_lies() {
    let segments = grid_segments();
    let schedule = CompiledSchedule::compile(&segments);
    let faults = [
        Fault::NanAmplitude,
        Fault::InfAmplitude,
        Fault::AmplitudeSpike { factor: 1e8 },
        // A thousand-fold under-reported radius: Chebyshev truncates far
        // below the true span and diverges; bound-insensitive backends are
        // unaffected. (A zero radius would instead claim the segment is a
        // pure identity shift — that is a different, legal schedule.)
        Fault::BoundPerturbation {
            radius_scale: 1e-3,
            center_shift: 0.0,
        },
        Fault::QlNonConvergence,
    ];
    for kind in every_kind() {
        let reference = clean_reference(&schedule, kind);
        for fault in &faults {
            // (outcome, recovery count) per execution context — compared at
            // the end: detection and recovery must not depend on whether
            // the kernels ran inline or fanned out across the pool.
            let mut outcomes: Vec<(&'static str, bool, usize)> = Vec::new();
            for (context_name, context) in execution_contexts() {
                let mut propagator =
                    Propagator::with_options(EvolveOptions::new(kind).with_execution(context));
                propagator.set_fault_injector(Some(
                    FaultInjector::new(SEED).with_fault(FAULT_SEGMENT, fault.clone()),
                ));
                let mut state = StateVector::plus_state(3);
                let result = propagator.try_evolve_schedule_in_place(&schedule, &mut state);
                match result {
                    Ok(()) => {
                        assert_amplitudes_match(kind, fault, &state, &reference);
                        if corrupts_state(fault) {
                            assert!(
                                !propagator.recovery_log().is_empty(),
                                "{} x {fault:?} [{context_name}]: corruption returned Ok \
                                 without a recovery event",
                                kind.name()
                            );
                        }
                        for event in propagator.recovery_log().events() {
                            assert_eq!(
                                event.segment,
                                Some(FAULT_SEGMENT),
                                "{} x {fault:?} [{context_name}]: recovery at the wrong segment",
                                kind.name()
                            );
                            assert_eq!(event.fallback, StepperKind::Taylor);
                        }
                        outcomes.push((context_name, true, propagator.recovery_log().len()));
                    }
                    Err(error) => {
                        // A typed error is the other lawful outcome; it must
                        // not be an InvalidInput (the inputs here are valid).
                        assert!(
                            !matches!(error, EvolveError::InvalidInput { .. }),
                            "{} x {fault:?} [{context_name}]: misclassified as invalid \
                             input: {error}",
                            kind.name()
                        );
                        outcomes.push((context_name, false, 0));
                    }
                }
            }
            // Thread-count independence: the same cell lands on the same
            // outcome (and the same number of recoveries) under every
            // execution configuration.
            let (_, first_ok, first_recoveries) = outcomes[0];
            for (context_name, ok, recoveries) in &outcomes[1..] {
                assert_eq!(
                    (*ok, *recoveries),
                    (first_ok, first_recoveries),
                    "{} x {fault:?}: outcome under [{context_name}] diverged from \
                     [{}]",
                    kind.name(),
                    outcomes[0].0
                );
            }
        }
    }
}

/// State-corrupting faults must *always* recover: the boundary snapshot plus
/// the consume-once fault registry guarantee the Taylor retry sees clean
/// data. This holds on the schedule path and on the constant-Hamiltonian
/// path, which runs as a one-segment schedule (its faults armed on segment
/// 0).
#[test]
fn amplitude_corruption_always_recovers_exactly() {
    let segments = grid_segments();
    let schedule = CompiledSchedule::compile(&segments);
    let (hamiltonian, duration) = &segments[0];
    let constant = CompiledHamiltonian::compile(hamiltonian);
    let run_schedule = |propagator: &mut Propagator, state: &mut StateVector| {
        propagator.try_evolve_schedule_in_place(&schedule, state)
    };
    let run_constant = |propagator: &mut Propagator, state: &mut StateVector| {
        propagator.try_evolve_in_place(&constant, state, *duration)
    };
    type Run<'a> = &'a dyn Fn(&mut Propagator, &mut StateVector) -> Result<(), EvolveError>;
    let paths: [(&str, usize, Run); 2] = [
        ("schedule", FAULT_SEGMENT, &run_schedule),
        ("constant H", 0, &run_constant),
    ];
    for kind in every_kind() {
        for (path, segment, run) in paths {
            let mut reference = StateVector::plus_state(3);
            let mut clean = Propagator::with_options(EvolveOptions::new(kind));
            run(&mut clean, &mut reference).expect("clean evolution succeeds");
            assert!(clean.recovery_log().is_empty());
            for fault in [
                Fault::NanAmplitude,
                Fault::InfAmplitude,
                Fault::AmplitudeSpike { factor: 1e8 },
            ] {
                let mut propagator = Propagator::with_options(EvolveOptions::new(kind));
                propagator.set_fault_injector(Some(
                    FaultInjector::new(SEED).with_fault(segment, fault.clone()),
                ));
                let mut state = StateVector::plus_state(3);
                run(&mut propagator, &mut state).unwrap_or_else(|error| {
                    panic!(
                        "{} x {fault:?} [{path}] failed to recover: {error}",
                        kind.name()
                    )
                });
                assert_amplitudes_match(kind, &fault, &state, &reference);
                let events = propagator.recovery_log().events();
                assert_eq!(
                    events.len(),
                    1,
                    "{} x {fault:?} [{path}]: expected exactly one recovery",
                    kind.name()
                );
                assert_eq!(events[0].segment, Some(segment));
            }
        }
    }
}

/// Seeded regression for the historical `.expect("tridiagonal QL
/// converges")`: a QL failure inside the Krylov backend surfaces as a typed
/// [`EvolveError::NonConvergence`] carrying the originating [`MathError`] —
/// and on the schedule path it is recovered by the Taylor fallback.
#[test]
fn krylov_ql_failure_is_typed_and_recovered() {
    let segments = grid_segments();
    let schedule = CompiledSchedule::compile(&segments);
    let reference = clean_reference(&schedule, StepperKind::Krylov);

    let mut propagator = Propagator::with_options(EvolveOptions::new(StepperKind::Krylov));
    propagator.set_fault_injector(Some(
        FaultInjector::new(SEED).with_fault(FAULT_SEGMENT, Fault::QlNonConvergence),
    ));
    let mut state = StateVector::plus_state(3);
    propagator
        .try_evolve_schedule_in_place(&schedule, &mut state)
        .expect("QL failure on a rollback-safe backend recovers");
    assert_amplitudes_match(
        StepperKind::Krylov,
        &Fault::QlNonConvergence,
        &state,
        &reference,
    );
    let events = propagator.recovery_log().events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].backend, StepperKind::Krylov);
    assert_eq!(events[0].fallback, StepperKind::Taylor);
    assert!(
        matches!(
            &events[0].error,
            EvolveError::NonConvergence {
                backend: StepperKind::Krylov,
                segment: Some(FAULT_SEGMENT),
                source: MathError::NoConvergence { .. },
            }
        ),
        "unexpected recovered error: {}",
        events[0].error
    );
}

/// The same QL failure on a bare [`KrylovStepper`] (no schedule loop, no
/// fallback) returns the typed error directly and restores the entry state.
#[test]
fn bare_krylov_stepper_returns_typed_ql_error_and_rolls_back() {
    let (hamiltonian, duration) = &grid_segments()[0];
    let compiled = CompiledHamiltonian::compile(hamiltonian);
    let mut stepper = KrylovStepper::new(1e-12);
    stepper.force_ql_nonconvergence();
    let mut state = StateVector::plus_state(3);
    let before = state.clone();
    let reference_norm = before.norm();
    let error = stepper
        .try_evolve_segment(
            compiled.kernel(),
            &compiled.spectral_bound(),
            &mut state,
            *duration,
            reference_norm,
        )
        .expect_err("forced QL failure must surface");
    assert!(matches!(
        &error,
        EvolveError::NonConvergence {
            backend: StepperKind::Krylov,
            segment: None,
            source: MathError::NoConvergence { .. },
        }
    ));
    assert_amplitudes_match(
        StepperKind::Krylov,
        &Fault::QlNonConvergence,
        &state,
        &before,
    );
}

/// Under `Auto`, a recovered Krylov failure demotes the backend: the
/// decision trace may hand later segments to any backend *except* the
/// demoted one.
#[test]
fn auto_demotes_a_failing_backend_for_the_rest_of_the_schedule() {
    // A long-duration drive family where the cost model picks Krylov.
    let drive = |omega: f64| {
        let mut h = Hamiltonian::new(3);
        for q in 0..3 {
            h.add_term(omega / 2.0, PauliString::single(q, Pauli::X));
        }
        h.add_term(1.0, PauliString::two(0, Pauli::Z, 1, Pauli::Z));
        h
    };
    let segments: Vec<(Hamiltonian, f64)> =
        (0..6).map(|i| (drive(2.0 + 0.1 * i as f64), 6.0)).collect();
    let schedule = CompiledSchedule::compile(&segments);

    let mut clean = Propagator::new();
    let mut state = StateVector::plus_state(3);
    clean
        .try_evolve_schedule_in_place(&schedule, &mut state)
        .expect("clean evolution succeeds");
    if !clean.segment_decisions().contains(&StepperKind::Krylov) {
        // The cost model no longer picks Krylov here; the demotion path is
        // covered by the grid above, so just bail rather than assert a
        // calibration detail.
        return;
    }
    let reference = state;

    let faulted_segment = clean
        .segment_decisions()
        .iter()
        .position(|&kind| kind == StepperKind::Krylov)
        .expect("checked above");
    let mut propagator = Propagator::new();
    propagator.set_fault_injector(Some(
        FaultInjector::new(SEED).with_fault(faulted_segment, Fault::QlNonConvergence),
    ));
    let mut recovered = StateVector::plus_state(3);
    propagator
        .try_evolve_schedule_in_place(&schedule, &mut recovered)
        .expect("forced QL failure recovers under Auto");
    assert!(!propagator.recovery_log().is_empty());
    assert_amplitudes_match(
        StepperKind::Auto,
        &Fault::QlNonConvergence,
        &recovered,
        &reference,
    );
    // Every decision after the faulted segment avoids the demoted backend.
    for (index, kind) in propagator
        .segment_decisions()
        .iter()
        .enumerate()
        .skip(faulted_segment + 1)
    {
        assert_ne!(
            *kind,
            StepperKind::Krylov,
            "segment {index} was handed to the demoted backend"
        );
    }
}

/// Invalid-input conformance: NaN/negative/infinite times are typed
/// [`EvolveError::InvalidInput`]s under every backend, on the
/// constant-Hamiltonian, free-function, and piecewise paths (where a bad
/// time is a bad segment duration).
#[test]
fn invalid_times_are_typed_errors_under_every_backend() {
    let (hamiltonian, _) = &grid_segments()[0];
    let compiled = CompiledHamiltonian::compile(hamiltonian);
    for kind in every_kind() {
        for time in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let mut segments = grid_segments();
            segments[FAULT_SEGMENT].1 = time;
            let initial = StateVector::plus_state(3);
            for (path, result) in [
                (
                    "try_evolve_piecewise",
                    qturbo_quantum::propagate::try_evolve_piecewise(&initial, &segments),
                ),
                (
                    "try_evolve_piecewise_with",
                    qturbo_quantum::propagate::try_evolve_piecewise_with(
                        &initial,
                        &segments,
                        EvolveOptions::new(kind),
                    ),
                ),
            ] {
                assert!(
                    matches!(&result, Err(EvolveError::InvalidInput { context })
                        if context.contains("non-negative")),
                    "{} x {path} duration {time}: {result:?}",
                    kind.name()
                );
            }

            let mut propagator = Propagator::with_options(EvolveOptions::new(kind));
            let mut state = StateVector::plus_state(3);
            let error = propagator
                .try_evolve_in_place(&compiled, &mut state, time)
                .expect_err("invalid time must be rejected");
            assert!(
                matches!(&error, EvolveError::InvalidInput { context }
                    if context.contains("non-negative")),
                "{} x time {time}: {error}",
                kind.name()
            );
            // The free-function path reports the same taxonomy.
            let free = qturbo_quantum::propagate::try_evolve_with(
                &StateVector::plus_state(3),
                hamiltonian,
                time,
                EvolveOptions::new(kind),
            );
            assert!(matches!(free, Err(EvolveError::InvalidInput { .. })));
        }
    }
}

/// Invalid-input conformance on the device: zero shots, out-of-range
/// readout error, empty schedules, and bad segment durations are typed
/// errors under every backend.
#[test]
fn invalid_device_inputs_are_typed_errors_under_every_backend() {
    let segments = grid_segments();
    for kind in every_kind() {
        let options = EvolveOptions::new(kind);

        let zero_shots = NoiseModel {
            shots: Some(0),
            ..NoiseModel::noiseless()
        };
        let error = EmulatedDevice::new(zero_shots, 1)
            .with_options(options)
            .try_run(&segments, 3, false)
            .expect_err("zero shots must be rejected");
        assert!(
            matches!(&error, EvolveError::InvalidInput { context } if context.contains("shots")),
            "{}: {error}",
            kind.name()
        );

        let bad_readout = NoiseModel {
            readout_error: 0.6,
            ..NoiseModel::noiseless()
        };
        let error = EmulatedDevice::new(bad_readout, 1)
            .with_options(options)
            .try_run(&segments, 3, false)
            .expect_err("readout_error beyond 1/2 must be rejected");
        assert!(
            matches!(&error, EvolveError::InvalidInput { context }
                if context.contains("readout_error")),
            "{}: {error}",
            kind.name()
        );

        let error = EmulatedDevice::ideal()
            .with_options(options)
            .try_run(&[], 2, false)
            .expect_err("an empty device schedule must be rejected");
        assert!(
            matches!(&error, EvolveError::InvalidInput { context } if context.contains("empty")),
            "{}: {error}",
            kind.name()
        );

        for duration in [f64::NAN, -1.0, f64::INFINITY] {
            let mut bad_duration = segments.clone();
            bad_duration[FAULT_SEGMENT].1 = duration;
            let device = EmulatedDevice::new(NoiseModel::aquila_like(), 1).with_options(options);
            let single = device.try_run(&bad_duration, 3, false).map(|_| ());
            let sweep = device
                .try_run_realizations(&bad_duration, 3, false, 2)
                .map(|_| ());
            for (path, result) in [("try_run", single), ("try_run_realizations", sweep)] {
                assert!(
                    matches!(&result, Err(EvolveError::InvalidInput { context })
                        if context.contains("non-negative")),
                    "{} x {path} duration {duration}: {result:?}",
                    kind.name()
                );
            }
        }
    }
}

/// A schedule wider than the register is a typed error (was an assert), and
/// the same error is stamped by every backend.
#[test]
fn oversized_schedule_is_a_typed_error() {
    let segments = grid_segments(); // three qubits
    let schedule = CompiledSchedule::compile(&segments);
    for kind in every_kind() {
        let mut propagator = Propagator::with_options(EvolveOptions::new(kind));
        let mut narrow = StateVector::plus_state(2);
        let error = propagator
            .try_evolve_schedule_in_place(&schedule, &mut narrow)
            .expect_err("a 3-qubit schedule cannot drive a 2-qubit state");
        assert!(
            matches!(&error, EvolveError::InvalidInput { context }
                if context.contains("more qubits")),
            "{}: {error}",
            kind.name()
        );
    }
}

/// Faults armed on segments a schedule never reaches stay armed; faults on
/// executed segments are consumed even when no guardrail trips (so a later
/// re-run is clean by construction).
#[test]
fn benign_bound_faults_pass_through_bound_insensitive_backends() {
    let segments = grid_segments();
    let schedule = CompiledSchedule::compile(&segments);
    for kind in [StepperKind::Taylor, StepperKind::Krylov] {
        let reference = clean_reference(&schedule, kind);
        let mut propagator = Propagator::with_options(EvolveOptions::new(kind));
        propagator.set_fault_injector(Some(FaultInjector::new(SEED).with_fault(
            FAULT_SEGMENT,
            Fault::BoundPerturbation {
                radius_scale: 1e-3,
                center_shift: 0.0,
            },
        )));
        let mut state = StateVector::plus_state(3);
        propagator
            .try_evolve_schedule_in_place(&schedule, &mut state)
            .expect("a bound perturbation is benign for bound-insensitive backends");
        assert_amplitudes_match(
            kind,
            &Fault::BoundPerturbation {
                radius_scale: 1e-3,
                center_shift: 0.0,
            },
            &state,
            &reference,
        );
        assert!(
            propagator.recovery_log().is_empty(),
            "{}: benign fault must not trigger recovery",
            kind.name()
        );
    }
}
