//! Conformance grid for the telemetry subsystem: span-derived totals must
//! match the analytically-exact pass counters, traces must be
//! deterministic, and tracing must never perturb the numerics.
//!
//! * **Exactness** — for every [`StepperKind`], the per-segment span pass
//!   counts plus the schedule-level finalize passes sum to exactly the
//!   propagator's `state_passes()` (and likewise for kernel applications):
//!   the taxonomy is closed, nothing leaks between spans.
//! * **Determinism** — two traced runs of the same seeded workload produce
//!   event-for-event identical traces once wall-clock payloads are zeroed
//!   ([`SpanEvent::sans_timing`]).
//! * **Non-perturbation** — a traced run and an untraced run of the same
//!   workload produce bitwise-identical amplitudes (strictly stronger than
//!   the 1e-10 conformance pin) and identical work counters: telemetry
//!   observes the pipeline, it never steers it.

use qturbo_hamiltonian::models::mis_chain;
use qturbo_quantum::fault::{Fault, FaultInjector};
use qturbo_quantum::schedule::CompiledSchedule;
use qturbo_quantum::telemetry::RunProfile;
use qturbo_quantum::{
    EmulatedDevice, EvolveOptions, NoiseModel, Propagator, SpanEvent, StateVector, StepperKind,
};

/// The shared workload: a short MIS annealing ramp — many structure-equal
/// segments, so every backend (and the batched run chaining) is exercised.
fn ramp_schedule() -> CompiledSchedule {
    let ramp = mis_chain(5, 1.0, 1.0, 1.0, 1.0, 30);
    CompiledSchedule::compile_piecewise(&ramp)
}

fn traced_run(kind: StepperKind, schedule: &CompiledSchedule) -> (Propagator, StateVector) {
    let mut propagator = Propagator::with_options(EvolveOptions::new(kind).with_telemetry(true));
    let mut state = StateVector::zero_state(5);
    propagator.evolve_schedule_in_place(schedule, &mut state);
    (propagator, state)
}

/// Sums `(applications, state_passes, finalize_passes)` out of a trace.
fn span_totals(propagator: &Propagator) -> (u64, u64, u64) {
    let trace = propagator.trace().expect("telemetry enabled");
    let mut applications = 0;
    let mut state_passes = 0;
    let mut finalize_passes = 0;
    for event in trace.events() {
        match event {
            SpanEvent::Segment(span) => {
                applications += span.applications;
                state_passes += span.state_passes;
            }
            SpanEvent::Schedule(span) => finalize_passes += span.finalize_passes,
            _ => {}
        }
    }
    (applications, state_passes, finalize_passes)
}

#[test]
fn span_sums_match_exact_counters_for_every_backend() {
    let schedule = ramp_schedule();
    for kind in StepperKind::all() {
        let (propagator, _) = traced_run(kind, &schedule);
        let (span_applications, span_passes, finalize_passes) = span_totals(&propagator);
        assert_eq!(
            span_applications,
            propagator.kernel_applications(),
            "{}: segment spans leak kernel applications",
            kind.name()
        );
        assert_eq!(
            span_passes + finalize_passes,
            propagator.state_passes(),
            "{}: segment + finalize spans leak amplitude passes",
            kind.name()
        );
        // The metrics registry folds the same totals.
        let snapshot = propagator
            .trace()
            .expect("telemetry enabled")
            .metrics()
            .snapshot();
        assert_eq!(snapshot.kernel_applications, span_applications);
        assert_eq!(snapshot.amplitude_passes, span_passes + finalize_passes);
        assert_eq!(snapshot.segments as usize, schedule.num_segments());
    }
}

#[test]
fn span_sums_match_exact_counters_on_constant_hamiltonian() {
    use qturbo_hamiltonian::models::heisenberg_chain;
    use qturbo_quantum::compiled::CompiledHamiltonian;
    let compiled = CompiledHamiltonian::compile(&heisenberg_chain(4, 1.0, 0.5));
    for kind in StepperKind::all() {
        let mut propagator =
            Propagator::with_options(EvolveOptions::new(kind).with_telemetry(true));
        let mut state = StateVector::zero_state(4);
        propagator.evolve_in_place(&compiled, &mut state, 2.0);
        let (span_applications, span_passes, finalize_passes) = span_totals(&propagator);
        assert_eq!(span_applications, propagator.kernel_applications());
        assert_eq!(span_passes + finalize_passes, propagator.state_passes());
    }
}

#[test]
fn traces_are_identical_across_repeated_runs() {
    let schedule = ramp_schedule();
    for kind in StepperKind::all() {
        let (first, first_state) = traced_run(kind, &schedule);
        let (second, second_state) = traced_run(kind, &schedule);
        let first_events = first.trace().expect("traced").deterministic_events();
        let second_events = second.trace().expect("traced").deterministic_events();
        assert_eq!(
            first_events,
            second_events,
            "{}: repeated seeded runs must trace identically",
            kind.name()
        );
        assert!(!first_events.is_empty());
        for (a, b) in first_state
            .amplitudes()
            .iter()
            .zip(second_state.amplitudes())
        {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}

#[test]
fn tracing_never_perturbs_the_numerics() {
    let schedule = ramp_schedule();
    for kind in StepperKind::all() {
        let (traced, traced_state) = traced_run(kind, &schedule);
        let mut untraced = Propagator::with_options(EvolveOptions::new(kind).with_telemetry(false));
        let mut untraced_state = StateVector::zero_state(5);
        untraced.evolve_schedule_in_place(&schedule, &mut untraced_state);
        assert!(untraced.trace().is_none(), "disabled telemetry allocates");
        // Identical work...
        assert_eq!(traced.kernel_applications(), untraced.kernel_applications());
        assert_eq!(traced.state_passes(), untraced.state_passes());
        // ...and bitwise-identical amplitudes (strictly stronger than the
        // 1e-10 pin the issue asks for).
        for (index, (a, b)) in traced_state
            .amplitudes()
            .iter()
            .zip(untraced_state.amplitudes())
            .enumerate()
        {
            assert!(
                (*a - *b).abs() < 1e-10,
                "{}: amplitude {index} drifted",
                kind.name()
            );
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "{}", kind.name());
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "{}", kind.name());
        }
    }
}

#[test]
fn segment_spans_record_cost_model_predictions() {
    let schedule = ramp_schedule();
    let (propagator, _) = traced_run(StepperKind::Taylor, &schedule);
    let trace = propagator.trace().expect("traced");
    let mut checked = 0;
    for event in trace.events() {
        if let SpanEvent::Segment(span) = event {
            let predicted = span
                .predicted_applications
                .expect("fixed backends always have an estimate");
            // The Taylor estimate is an upper bound by construction: the
            // series truncates on the actual ‖Hᵏψ‖, which the spectral
            // bound dominates. prop_stepper.rs pins the exact case.
            assert!(
                predicted >= span.applications as f64,
                "segment {:?}: predicted {predicted} under-estimates measured {}",
                span.index,
                span.applications
            );
            checked += 1;
        }
    }
    assert_eq!(checked, schedule.num_segments());
}

#[test]
fn recovery_spans_wrap_injected_faults() {
    let schedule = ramp_schedule();
    let mut propagator = Propagator::with_options(EvolveOptions::taylor().with_telemetry(true));
    propagator.set_fault_injector(Some(
        FaultInjector::new(11).with_fault(3, Fault::NanAmplitude),
    ));
    let mut state = StateVector::zero_state(5);
    propagator.evolve_schedule_in_place(&schedule, &mut state);
    assert_eq!(propagator.recovery_log().len(), 1);
    let trace = propagator.trace().expect("traced");
    let recovery_spans: Vec<_> = trace
        .events()
        .iter()
        .filter_map(|event| match event {
            SpanEvent::Recovery(span) => Some(span),
            _ => None,
        })
        .collect();
    assert_eq!(recovery_spans.len(), 1);
    assert_eq!(
        recovery_spans[0].event,
        propagator.recovery_log().events()[0]
    );
    // The recovered segment's span is flagged.
    let flagged = trace.events().iter().any(
        |event| matches!(event, SpanEvent::Segment(span) if span.index == 3 && span.recovered),
    );
    assert!(flagged, "recovered segment span not flagged");
    // And the profile surfaces the recovery.
    let profile = propagator.run_profile().expect("traced");
    assert_eq!(profile.recoveries.len(), 1);
    assert_eq!(profile.metrics.recoveries, 1);
}

#[test]
fn device_runs_expose_recovery_log_and_profile() {
    let ramp = mis_chain(4, 1.0, 1.0, 1.0, 1.0, 12);
    let schedule = CompiledSchedule::compile_piecewise(&ramp);

    // Untraced device: recoveries always present (empty on healthy runs),
    // no profile.
    let device = EmulatedDevice::new(NoiseModel::noiseless(), 7)
        .with_options(EvolveOptions::auto().with_telemetry(false));
    let runs = device
        .try_run_compiled(&schedule, 4, false, 2)
        .expect("healthy run");
    for run in &runs {
        assert!(run.recoveries.is_empty());
        assert!(run.profile.is_none());
    }

    // Traced device: every realization carries its own profile, and the
    // profiles cover exactly one schedule evolution each.
    let traced = EmulatedDevice::new(NoiseModel::noiseless(), 7)
        .with_options(EvolveOptions::auto().with_telemetry(true));
    let traced_runs = traced
        .try_run_compiled(&schedule, 4, false, 2)
        .expect("healthy run");
    assert_eq!(traced_runs.len(), 2);
    for run in &traced_runs {
        let profile = run.profile.as_ref().expect("traced device run");
        assert_eq!(profile.segments.len(), schedule.num_segments());
        assert!(profile.metrics.kernel_applications > 0);
        let json = profile.to_json();
        assert!(json.contains("\"metrics\""));
        assert!(profile.summary().contains("run profile"));
    }
    // Telemetry does not perturb device observables: traced and untraced
    // sweeps agree (DeviceRun equality ignores the profile by design).
    assert_eq!(runs, traced_runs);
}

#[test]
fn drained_traces_reset_the_recorder() {
    let schedule = ramp_schedule();
    let (mut propagator, _) = traced_run(StepperKind::Auto, &schedule);
    let drained = propagator.drain_trace().expect("traced");
    assert!(!drained.events().is_empty());
    let profile = RunProfile::from_recorder(&drained);
    assert_eq!(profile.segments.len(), schedule.num_segments());
    // The live recorder is fresh again.
    assert!(propagator
        .trace()
        .expect("recorder still attached")
        .events()
        .is_empty());
}
