//! Matrix-free Schrödinger propagation under Pauli-sum Hamiltonians.
//!
//! The propagator never materializes the `2ⁿ × 2ⁿ` Hamiltonian matrix.
//! `H|ψ⟩` is evaluated through the mask-compiled kernels of
//! [`crate::compiled`] (one branch-free gather pass per Pauli term), and
//! `exp(−iHt)|ψ⟩` is computed by a pluggable [`Stepper`] backend from
//! [`crate::stepper`]: the scaled-Taylor reference, the adaptive
//! Lanczos–Krylov propagator, or the Chebyshev expansion — selected per
//! [`Propagator`] (or per call through the `*_with` free functions) via
//! [`EvolveOptions`]. The default, [`StepperKind::Auto`], re-decides **per
//! segment** from the segment's spectral bound and duration (see
//! [Choosing a stepper](crate::stepper#choosing-a-stepper)). This plays the
//! role QuTiP / Bloqade play in the paper's evaluation.
//!
//! # Hot path
//!
//! The work horse is [`Propagator`]: it owns the steppers and one scratch
//! set the single-state backends share, so repeated evolutions perform
//! *zero heap allocation* after the first use at a given register size. Every
//! evolution — a constant [`CompiledHamiltonian`], the recompile-per-segment
//! reference, or a [`CompiledSchedule`] — runs each segment through one
//! routine: backend choice, fault arming, batched-run chaining, rollback
//! and Taylor retry on a tripped guardrail, `Auto` demotion, and telemetry.
//! The segment's compiled kernel is reused across every internal step;
//! [`Propagator::kernel_applications`] reports how many `H|ψ⟩` passes the
//! chosen backend actually spent — the currency `BENCH_stepper.json`
//! compares backends in.
//!
//! The original scalar implementation is retained as
//! [`apply_hamiltonian_naive`] / [`evolve_naive`]; it is the reference the
//! property tests and `BENCH_propagation.json` compare against.
//!
//! # Norm semantics
//!
//! `exp(−iHt)` is linear and unitary, so evolution must **preserve the input
//! norm**, whatever that norm is: `evolve(c·ψ) = c·evolve(ψ)`. Every stepper
//! drifts off that norm by machine epsilon per internal step, so after each
//! step the state is rescaled back to its *pre-evolution* norm — a pure
//! drift correction. (An earlier revision called `normalize()` here, which
//! silently forced every input to unit norm and broke linearity for
//! unnormalized states.) Truncation thresholds are likewise *relative* to
//! the input norm, so a state of norm `10⁶` is integrated to the same
//! relative accuracy as a unit one.
//!
//! # Time-dependent schedules
//!
//! There is one compiled form: a [`CompiledSchedule`] of piecewise-constant
//! segments sharing mask layouts across structure-equal segments, and a
//! constant [`CompiledHamiltonian`] is its one-segment case (its diagonal
//! table materialized at compile time). Piecewise-constant targets have two
//! drivers that differ only in compile work: the reference
//! [`Propagator::evolve_piecewise_in_place`], which compiles every segment
//! from scratch into its own [`CompiledHamiltonian`] (best for a few long
//! segments), and [`Propagator::evolve_schedule_in_place`], which drives a
//! pre-compiled [`CompiledSchedule`] with `O(#terms)` weight swaps between
//! segments — the hot path for discretized ramps with hundreds of segments
//! (see `BENCH_schedule.json`). The [`evolve_piecewise`] convenience wrapper
//! compiles a [`CompiledSchedule`] under the hood, so one-shot callers get
//! the layout-reuse win too.

use crate::compiled::{BlockKernel, CompiledHamiltonian, FusedKernel};
use crate::error::{EvolveError, RecoveryEvent, RecoveryLog};
use crate::fault::{Fault, FaultInjector};
use crate::schedule::{CompiledSchedule, DiagTableScratch, RealizationWeights};
use crate::state::{RealizationBlock, StateVector};
use crate::stepper::{
    BatchedTaylorStepper, BlockTaylorStepper, ChebyshevStepper, EvolveOptions, KrylovStepper,
    ScratchStates, SpectralBound, Stepper, StepperKind, TaylorStepper, MAX_STEP_PHASE,
    MAX_TAYLOR_ORDER,
};
use crate::telemetry::{
    CompileSpan, Recorder, RecoverySpan, RunProfile, ScheduleSpan, SegmentSpan, SpanEvent,
    TraceSink,
};
use qturbo_hamiltonian::Hamiltonian;
use qturbo_math::Complex;

/// Taylor truncation threshold of the scalar reference path, *relative* to
/// the norm of the state being evolved (mirrors
/// [`crate::stepper::EvolveOptions::tolerance`]'s default).
const TAYLOR_TOLERANCE: f64 = 1e-14;

/// Upper bound on the per-segment decisions a [`Propagator`] records between
/// resets (see [`Propagator::segment_decisions`]): enough for any schedule
/// introspection while keeping a never-reset propagator's memory bounded.
pub const MAX_RECORDED_DECISIONS: usize = 1 << 16;

/// A reusable propagation engine: owns the scratch buffers of every stepper
/// backend, so repeated evolutions (piecewise segments, noise-model sweeps,
/// benchmark repetitions) allocate nothing after the first use at a given
/// register size.
///
/// The Taylor, batched-Taylor and Chebyshev backends share **one** set of
/// three state-sized buffers, lent by an O(1) swap to whichever of them runs
/// a segment, so a propagator that has run all three holds three states of
/// scratch, not seven. Krylov keeps its own basis.
///
/// The backend is selected at construction ([`Propagator::with_options`],
/// [`Propagator::with_stepper`]) or swapped later
/// ([`Propagator::set_stepper`]); the default is [`StepperKind::Auto`],
/// which re-decides **per segment** from each segment's [`SpectralBound`]
/// and duration. [`Propagator::segment_decisions`] records which fixed
/// backend integrated each segment since the last reset — the introspection
/// the cost-model regression tests and benchmarks read.
///
/// # Example
///
/// ```
/// use qturbo_quantum::compiled::CompiledHamiltonian;
/// use qturbo_quantum::propagate::Propagator;
/// use qturbo_quantum::stepper::StepperKind;
/// use qturbo_quantum::StateVector;
/// use qturbo_hamiltonian::models::ising_chain;
///
/// let compiled = CompiledHamiltonian::compile(&ising_chain(3, 1.0, 1.0));
/// let mut propagator = Propagator::with_stepper(StepperKind::Krylov);
/// let mut state = StateVector::zero_state(3);
/// propagator.evolve_in_place(&compiled, &mut state, 0.5);
/// assert!((state.norm() - 1.0).abs() < 1e-10);
/// assert!(propagator.kernel_applications() > 0);
/// assert_eq!(propagator.segment_decisions(), &[StepperKind::Krylov]);
/// ```
#[derive(Debug, Clone)]
pub struct Propagator {
    options: EvolveOptions,
    taylor: TaylorStepper,
    batched: BatchedTaylorStepper,
    krylov: KrylovStepper,
    chebyshev: ChebyshevStepper,
    /// The state-sized scratch set of the Taylor, batched-Taylor and
    /// Chebyshev backends, lent to whichever of them runs a segment (see
    /// [`with_lent_scratch`](Propagator::with_lent_scratch)).
    scratch: ScratchStates,
    /// Structure-of-arrays realization batching (see
    /// [`Propagator::try_evolve_schedule_block`]); counters fold into the
    /// [`StepperKind::BatchedTaylor`] slot, whose scheme it shares.
    block: BlockTaylorStepper,
    /// The fixed backend that integrated each segment, in evolution order
    /// since the last reset (for `Auto`, the per-segment cost-model choice;
    /// for a fixed stepper, that stepper).
    decisions: Vec<StepperKind>,
    /// Recovered mid-schedule failures (guardrail trip → Taylor fallback).
    recovery: RecoveryLog,
    /// Optional fault injector corrupting chosen schedule segments
    /// (robustness testing; see [`crate::fault`]).
    injector: Option<FaultInjector>,
    /// Pre-corruption snapshot of the state at a fault-injected segment's
    /// boundary, so even non-rollback-safe backends can be retried there.
    fault_snapshot: StateVector,
    /// Block twin of `fault_snapshot` for realization-batched sweeps.
    block_snapshot: RealizationBlock,
    /// Telemetry recorder, present iff [`EvolveOptions::telemetry`] was set
    /// at construction. Boxed so an untraced propagator carries one null
    /// pointer of overhead; the hot paths gate on `is_some()` and nothing
    /// else.
    telemetry: Option<Box<Recorder>>,
}

/// Wall/counter snapshot opening one traced evolution call.
struct TraceRun {
    started: std::time::Instant,
    applications: u64,
    state_passes: u64,
    recoveries: usize,
    pool_busy_ns: u64,
}

/// Wall/counter snapshot opening one traced segment.
struct TraceSegment {
    started: std::time::Instant,
    applications: u64,
    state_passes: u64,
}

/// The per-call state of one sequential evolution, threaded through every
/// segment it runs by `Propagator::try_run_segment`.
struct SegmentRun {
    /// Norm of the state at call entry; every drift correction rescales back
    /// to it.
    reference_norm: f64,
    /// The mask layout an open batched sweep is chained on, if any.
    open_layout: Option<usize>,
    /// Backends demoted for the rest of this call by a recovered failure;
    /// only consulted under `Auto`.
    demoted_krylov: bool,
    demoted_chebyshev: bool,
    executed_segments: usize,
    trace: Option<TraceRun>,
}

/// One segment ready to run: where it sits in the schedule, its kernel, its
/// (diagonal-tightened) bound, and its duration.
struct ReadySegment<'a> {
    index: usize,
    layout: usize,
    kernel: FusedKernel<'a>,
    bound: SpectralBound,
    duration: f64,
}

impl Default for Propagator {
    fn default() -> Self {
        Propagator::new()
    }
}

impl Propagator {
    /// Creates a propagator with the default options (per-segment automatic
    /// backend selection); scratch buffers are resized on first use.
    pub fn new() -> Self {
        Propagator::with_options(EvolveOptions::default())
    }

    /// Creates a propagator with explicit evolution options. Every backend
    /// is constructed over the options' [`crate::ExecutionContext`], so worker
    /// count, parallel threshold, and kernel path are shared across all
    /// segments (and, through [`crate::EmulatedDevice`], across noise
    /// realizations) without re-resolving per call.
    pub fn with_options(options: EvolveOptions) -> Self {
        Propagator {
            options,
            taylor: TaylorStepper::with_context(options.tolerance, options.execution),
            batched: BatchedTaylorStepper::with_context(options.tolerance, options.execution),
            krylov: KrylovStepper::with_context(options.tolerance, options.execution),
            chebyshev: ChebyshevStepper::with_context(options.tolerance, options.execution),
            scratch: ScratchStates::new(),
            block: BlockTaylorStepper::with_context(options.tolerance, options.execution),
            decisions: Vec::new(),
            recovery: RecoveryLog::default(),
            injector: None,
            fault_snapshot: StateVector::zeros(0),
            block_snapshot: RealizationBlock::zeros(0, 1),
            telemetry: options.telemetry.then(|| {
                // Busy-time accounting is process-wide and idempotent to
                // enable; the first traced propagator turns it on.
                crate::exec::enable_pool_timing();
                Box::new(Recorder::new())
            }),
        }
    }

    /// Creates a propagator using `kind` at the default tolerance.
    pub fn with_stepper(kind: StepperKind) -> Self {
        Propagator::with_options(EvolveOptions::new(kind))
    }

    /// The active evolution options.
    pub fn options(&self) -> EvolveOptions {
        self.options
    }

    /// Switches the backend, keeping the configured tolerance and all
    /// scratch buffers.
    pub fn set_stepper(&mut self, kind: StepperKind) {
        self.options.stepper = kind;
    }

    /// Total `H|ψ⟩` kernel applications across every backend since
    /// construction or the last [`reset_kernel_applications`](Propagator::reset_kernel_applications).
    pub fn kernel_applications(&self) -> u64 {
        self.taylor.kernel_applications()
            + self.batched.kernel_applications()
            + self.block.kernel_applications()
            + self.krylov.kernel_applications()
            + self.chebyshev.kernel_applications()
    }

    /// Total state-sized amplitude passes across every backend since
    /// construction or the last reset (see
    /// [`Stepper::state_passes`]) —
    /// the memory-traffic measure the batched multi-segment sweep is gated
    /// on in `BENCH_schedule.json`.
    pub fn state_passes(&self) -> u64 {
        self.taylor.state_passes()
            + self.batched.state_passes()
            + self.block.state_passes()
            + self.krylov.state_passes()
            + self.chebyshev.state_passes()
    }

    /// Per-backend `H|ψ⟩` kernel applications since construction or the last
    /// reset, in [`StepperKind::fixed`] order — shows where `Auto` actually
    /// spent the work.
    pub fn kernel_applications_by_backend(&self) -> [(StepperKind, u64); 4] {
        [
            (StepperKind::Taylor, self.taylor.kernel_applications()),
            (
                StepperKind::BatchedTaylor,
                self.batched.kernel_applications() + self.block.kernel_applications(),
            ),
            (StepperKind::Krylov, self.krylov.kernel_applications()),
            (StepperKind::Chebyshev, self.chebyshev.kernel_applications()),
        ]
    }

    /// The fixed backend that integrated each segment, in evolution order
    /// since construction or the last
    /// [`reset_kernel_applications`](Propagator::reset_kernel_applications):
    /// under [`StepperKind::Auto`] the per-segment cost-model decision,
    /// under a fixed stepper that stepper. Zero-duration and empty segments
    /// are skipped and record nothing.
    ///
    /// Recording is capped at [`MAX_RECORDED_DECISIONS`] segments per reset
    /// so a long-lived propagator (e.g. inside a device sweeping many noise
    /// realizations without resetting) holds bounded memory; the kernel
    /// application counters stay exact past the cap.
    pub fn segment_decisions(&self) -> &[StepperKind] {
        &self.decisions
    }

    /// Resets the kernel-application and pass counters of every backend, the
    /// recorded per-segment decisions, and the recovery log.
    pub fn reset_kernel_applications(&mut self) {
        self.taylor.reset_kernel_applications();
        self.batched.reset_kernel_applications();
        self.block.reset_kernel_applications();
        self.krylov.reset_kernel_applications();
        self.chebyshev.reset_kernel_applications();
        self.decisions.clear();
        self.recovery.clear();
        if let Some(recorder) = self.telemetry.as_mut() {
            recorder.clear();
        }
    }

    /// The recovered mid-schedule failures since construction or the last
    /// [`reset_kernel_applications`](Propagator::reset_kernel_applications):
    /// each event records the segment, the backend that tripped a guardrail,
    /// the fallback that re-ran it, and the original error. Empty on every
    /// healthy run.
    pub fn recovery_log(&self) -> &RecoveryLog {
        &self.recovery
    }

    /// The telemetry trace recorded since construction or the last
    /// [`reset_kernel_applications`](Propagator::reset_kernel_applications),
    /// or `None` when telemetry is disabled (see
    /// [`EvolveOptions::with_telemetry`] and [`crate::telemetry`]).
    pub fn trace(&self) -> Option<&Recorder> {
        self.telemetry.as_deref()
    }

    /// Takes the recorded trace, leaving a fresh empty recorder in place;
    /// `None` when telemetry is disabled. This is how
    /// [`EmulatedDevice`](crate::device::EmulatedDevice) slices one shared
    /// propagator's telemetry into per-realization profiles.
    pub fn drain_trace(&mut self) -> Option<Recorder> {
        self.telemetry
            .as_mut()
            .map(|recorder| std::mem::take(recorder.as_mut()))
    }

    /// Aggregates the recorded trace into a [`RunProfile`]; `None` when
    /// telemetry is disabled.
    pub fn run_profile(&self) -> Option<RunProfile> {
        self.telemetry.as_deref().map(RunProfile::from_recorder)
    }

    /// Attaches (or clears, with `None`) a [`FaultInjector`] corrupting
    /// chosen schedule segments on their first execution — the fault
    /// injection harness behind `tests/prop_faults.rs`. Faults are consumed
    /// when their segment runs, so the Taylor retry of a recovered segment
    /// sees clean data.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// Resolves the backend kind for one segment — the cost-model choice
    /// under `Auto`, skipping any backend a recovered failure demoted
    /// earlier in `run` — and records the decision (up to
    /// [`MAX_RECORDED_DECISIONS`]).
    fn resolve_kind(
        &mut self,
        run: &SegmentRun,
        bound: &SpectralBound,
        duration: f64,
    ) -> StepperKind {
        let kind = if self.options.stepper == StepperKind::Auto
            && (run.demoted_krylov || run.demoted_chebyshev)
        {
            let candidates: Vec<StepperKind> = StepperKind::fixed()
                .into_iter()
                .filter(|candidate| match candidate {
                    StepperKind::Krylov => !run.demoted_krylov,
                    StepperKind::Chebyshev => !run.demoted_chebyshev,
                    _ => true,
                })
                .collect();
            self.options.auto_model.choose_among(
                &candidates,
                bound,
                duration,
                self.options.tolerance,
            )
        } else {
            self.options.resolve(bound, duration)
        };
        if self.decisions.len() < MAX_RECORDED_DECISIONS {
            self.decisions.push(kind);
        }
        kind
    }

    /// Opens one traced evolution call: records the compile span and
    /// snapshots the counters the closing [`finish_trace`](Propagator::finish_trace)
    /// diffs against. `None` (and nothing at all — no clock read, no
    /// allocation) when telemetry is disabled.
    fn begin_trace(&mut self, compile: CompileSpan) -> Option<TraceRun> {
        self.telemetry.as_ref()?;
        let applications = self.kernel_applications();
        let state_passes = self.state_passes();
        let recoveries = self.recovery.len();
        let pool_busy_ns = crate::exec::pool_busy_ns();
        if let Some(recorder) = self.telemetry.as_mut() {
            recorder.record(SpanEvent::Compile(compile));
        }
        Some(TraceRun {
            started: std::time::Instant::now(),
            applications,
            state_passes,
            recoveries,
            pool_busy_ns,
        })
    }

    /// Closes one traced evolution call: emits the per-backend
    /// [`StepperSpan`](crate::telemetry::StepperSpan)s (non-zero counters
    /// only), the [`ExecSpan`](crate::telemetry::ExecSpan), and the
    /// [`ScheduleSpan`] totals.
    fn finish_trace(
        &mut self,
        run: TraceRun,
        segments: usize,
        executed_segments: usize,
        total_time: f64,
        finalize_passes: u64,
        dim: usize,
    ) {
        let applications = self.kernel_applications() - run.applications;
        let state_passes = self.state_passes() - run.state_passes;
        let recoveries = (self.recovery.len() - run.recoveries) as u64;
        // The block path shares the batched-Taylor scheme, so its counters
        // report under the BatchedTaylor backend slot.
        let mut batched_span = self.batched.telemetry_span(StepperKind::BatchedTaylor);
        batched_span.applications += self.block.kernel_applications();
        batched_span.state_passes += self.block.state_passes();
        let stepper_spans = [
            self.taylor.telemetry_span(StepperKind::Taylor),
            batched_span,
            self.krylov.telemetry_span(StepperKind::Krylov),
            self.chebyshev.telemetry_span(StepperKind::Chebyshev),
        ];
        // The pool accumulator is process-wide: concurrent traced runs (e.g.
        // parallel test threads) may attribute slices of each other's busy
        // time. Within one process doing one run at a time it is exact.
        let pool_busy_ns = crate::exec::pool_busy_ns().saturating_sub(run.pool_busy_ns);
        let exec_span = self.options.execution.exec_span(dim, pool_busy_ns);
        let wall_ns = run.started.elapsed().as_nanos() as u64;
        if let Some(recorder) = self.telemetry.as_mut() {
            for span in stepper_spans {
                if span.applications > 0 || span.state_passes > 0 {
                    recorder.record(SpanEvent::Stepper(span));
                }
            }
            recorder.record(SpanEvent::Exec(exec_span));
            recorder.record(SpanEvent::Schedule(ScheduleSpan {
                segments,
                executed_segments,
                total_time,
                applications,
                state_passes,
                finalize_passes,
                recoveries,
                wall_ns,
            }));
        }
    }

    /// Opens one traced segment (counter snapshot + wall clock); `None`
    /// when telemetry is disabled.
    fn begin_segment_trace(&self) -> Option<TraceSegment> {
        self.telemetry.as_ref()?;
        Some(TraceSegment {
            started: std::time::Instant::now(),
            applications: self.kernel_applications(),
            state_passes: self.state_passes(),
        })
    }

    /// Closes one traced segment: emits the [`SegmentSpan`] with the
    /// backend decision, the cost model's predicted applications for that
    /// decision under the same (diagonal-tightened) bound the stepper saw,
    /// and the measured application/pass deltas.
    fn finish_segment_trace(
        &mut self,
        segment: TraceSegment,
        index: usize,
        backend: StepperKind,
        duration: f64,
        bound: &SpectralBound,
        recovered: bool,
    ) {
        let applications = self.kernel_applications() - segment.applications;
        let state_passes = self.state_passes() - segment.state_passes;
        let predicted_applications = self.options.auto_model.estimated_applications(
            backend,
            bound,
            duration,
            self.options.tolerance,
        );
        let wall_ns = segment.started.elapsed().as_nanos() as u64;
        if let Some(recorder) = self.telemetry.as_mut() {
            recorder.record(SpanEvent::Segment(SegmentSpan {
                index,
                backend,
                duration,
                predicted_applications,
                applications,
                state_passes,
                recovered,
                wall_ns,
            }));
        }
    }

    /// Records a recovery event in the log and, when traced, as a
    /// [`RecoverySpan`](crate::telemetry::RecoverySpan).
    fn record_recovery(&mut self, event: RecoveryEvent) {
        if let Some(recorder) = self.telemetry.as_mut() {
            recorder.record(SpanEvent::Recovery(RecoverySpan {
                event: event.clone(),
            }));
        }
        self.recovery.push(event);
    }

    /// Runs `f` with the shared scratch set lent to `kind`'s backend: the
    /// set is swapped into the backend before `f` and back after it (an
    /// O(1) move of three buffer handles each way), whatever `f` returns.
    /// Krylov keeps its own basis and is not lent anything.
    fn with_lent_scratch<T>(&mut self, kind: StepperKind, f: impl FnOnce(&mut Self) -> T) -> T {
        self.swap_scratch(kind);
        let result = f(self);
        self.swap_scratch(kind);
        result
    }

    /// Swaps the shared scratch set with `kind`'s own; only
    /// [`with_lent_scratch`](Propagator::with_lent_scratch) pairs the calls.
    fn swap_scratch(&mut self, kind: StepperKind) {
        let slot = match kind {
            StepperKind::Taylor => &mut self.taylor.scratch,
            StepperKind::BatchedTaylor => &mut self.batched.scratch,
            StepperKind::Chebyshev => &mut self.chebyshev.scratch,
            StepperKind::Krylov | StepperKind::Auto => return,
        };
        std::mem::swap(&mut self.scratch, slot);
    }

    /// The stepper implementing a resolved (fixed) backend kind.
    fn stepper_for(&mut self, kind: StepperKind) -> &mut dyn Stepper {
        match kind {
            StepperKind::Taylor => &mut self.taylor,
            StepperKind::BatchedTaylor => &mut self.batched,
            StepperKind::Krylov => &mut self.krylov,
            StepperKind::Chebyshev => &mut self.chebyshev,
            StepperKind::Auto => unreachable!("resolve returns a fixed backend"),
        }
    }

    /// Evolves `state` in place for `time` under a pre-compiled constant
    /// Hamiltonian: `|ψ⟩ ← exp(−iHt)|ψ⟩`.
    ///
    /// `ħ = 1`; coefficients and time just need consistent units (MHz with
    /// µs, or rad/µs with µs). After the scratch buffers are sized, the
    /// evolution performs no heap allocation.
    ///
    /// The input's norm is **preserved**, not forced to one: an unnormalized
    /// `c·ψ` evolves to `c·exp(−iHt)ψ` (linearity). After each internal step
    /// the state is rescaled to its pre-evolution norm as a drift correction.
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative or not finite, or the Hamiltonian acts on
    /// more qubits than the state has. Use
    /// [`try_evolve_in_place`](Propagator::try_evolve_in_place) to receive a
    /// typed [`EvolveError`] instead.
    pub fn evolve_in_place(
        &mut self,
        hamiltonian: &CompiledHamiltonian,
        state: &mut StateVector,
        time: f64,
    ) {
        if let Err(error) = self.try_evolve_in_place(hamiltonian, state, time) {
            panic!("{error}");
        }
    }

    /// Fallible variant of [`evolve_in_place`](Propagator::evolve_in_place):
    /// reports invalid inputs and tripped numerical guardrails as
    /// [`EvolveError`] instead of panicking.
    ///
    /// A constant Hamiltonian is a one-segment schedule, so it runs through
    /// the same segment routine as
    /// [`try_evolve_schedule_in_place`](Propagator::try_evolve_schedule_in_place)
    /// as segment `0`: faults an attached [`FaultInjector`] registers for
    /// segment `0` fire here, and a tripped guardrail is rolled back, retried
    /// with the Taylor reference, and recorded in
    /// [`recovery_log`](Propagator::recovery_log) — so a recoverable failure
    /// still returns `Ok` with the correct answer.
    ///
    /// # Errors
    ///
    /// [`EvolveError::InvalidInput`] for a negative/non-finite `time`, a
    /// Hamiltonian wider than the state, or a non-finite input norm; any
    /// guardrail error of the selected backend when no fallback applies.
    pub fn try_evolve_in_place(
        &mut self,
        hamiltonian: &CompiledHamiltonian,
        state: &mut StateVector,
        time: f64,
    ) -> Result<(), EvolveError> {
        self.try_evolve_segment_in_place(hamiltonian, state, time, 0)
    }

    /// [`try_evolve_in_place`](Propagator::try_evolve_in_place) with the
    /// Hamiltonian running as segment `index`: the index its faults are
    /// armed on and its errors, recoveries, and spans are stamped with.
    fn try_evolve_segment_in_place(
        &mut self,
        hamiltonian: &CompiledHamiltonian,
        state: &mut StateVector,
        time: f64,
        index: usize,
    ) -> Result<(), EvolveError> {
        if !(time.is_finite() && time >= 0.0) {
            return Err(EvolveError::InvalidInput {
                context: format!("evolution time must be non-negative and finite, got {time}"),
            });
        }
        if time == 0.0 || hamiltonian.is_empty() {
            return Ok(());
        }
        let Some(mut run) =
            self.try_begin_run(hamiltonian.num_qubits(), state, hamiltonian.compile_span())?
        else {
            return Ok(());
        };
        let segment = ReadySegment {
            index,
            layout: 0,
            kernel: hamiltonian.kernel(),
            bound: hamiltonian.spectral_bound(),
            duration: time,
        };
        self.try_run_segment(&mut run, segment, state)?;
        self.try_finish_run(run, state, 1, time)
    }

    /// Evolves `state` in place through a sequence of `(Hamiltonian,
    /// duration)` segments — the form produced by a compiled pulse schedule
    /// or a piecewise-constant target Hamiltonian.
    ///
    /// This is the recompile-per-segment reference path: each segment is
    /// compiled from scratch into its own [`CompiledHamiltonian`] (diagonal
    /// table included) and run through
    /// [`try_evolve_in_place`](Propagator::try_evolve_in_place)'s segment
    /// routine under its schedule index; the scratch buffers are shared
    /// across segments. For schedules with many structure-sharing segments,
    /// compile a [`CompiledSchedule`] once and use
    /// [`evolve_schedule_in_place`](Propagator::evolve_schedule_in_place)
    /// instead — it reuses one mask layout across segments.
    ///
    /// # Panics
    ///
    /// Panics on the failures
    /// [`try_evolve_piecewise_in_place`](Propagator::try_evolve_piecewise_in_place)
    /// reports as errors.
    pub fn evolve_piecewise_in_place(
        &mut self,
        segments: &[(Hamiltonian, f64)],
        state: &mut StateVector,
    ) {
        if let Err(error) = self.try_evolve_piecewise_in_place(segments, state) {
            panic!("{error}");
        }
    }

    /// Fallible variant of
    /// [`evolve_piecewise_in_place`](Propagator::evolve_piecewise_in_place).
    ///
    /// # Errors
    ///
    /// Any [`EvolveError`] of the per-segment evolution, stamped with the
    /// index of the failing segment.
    pub fn try_evolve_piecewise_in_place(
        &mut self,
        segments: &[(Hamiltonian, f64)],
        state: &mut StateVector,
    ) -> Result<(), EvolveError> {
        for (index, (hamiltonian, duration)) in segments.iter().enumerate() {
            let compiled = CompiledHamiltonian::compile(hamiltonian);
            self.try_evolve_segment_in_place(&compiled, state, *duration, index)?;
        }
        Ok(())
    }

    /// Evolves `state` in place through a pre-compiled
    /// [`CompiledSchedule`]: the mask layout was built once at compile time,
    /// so per segment only the `O(#terms)` weight vectors change hands.
    ///
    /// Stepping, truncation, and norm semantics are identical to
    /// [`evolve_in_place`](Propagator::evolve_in_place) segment by segment —
    /// both run the same segment routine, through whichever backend the
    /// options select — with one structural upgrade: consecutive segments
    /// that resolve to [`StepperKind::BatchedTaylor`] **and** share a mask
    /// layout are chained through a single batched sweep
    /// ([`BatchedTaylorStepper::begin_run`] /
    /// [`run_segment`](BatchedTaylorStepper::run_segment) /
    /// [`finish_run`](BatchedTaylorStepper::finish_run)): the masks are read
    /// once from the shared layout while the weights walk adjacent rows of
    /// the columnar weight matrix, no segment pays a series-copy pass, and
    /// the whole run shares one drift correction instead of per-step
    /// norm-and-rescale passes. The run is flushed whenever the layout
    /// changes or the cost model hands a segment to a different backend — a
    /// quench segment in the middle of a ramp still goes to Chebyshev.
    ///
    /// # Panics
    ///
    /// Panics if the schedule acts on more qubits than the state has, or a
    /// guardrail failure has no fallback. Use
    /// [`try_evolve_schedule_in_place`](Propagator::try_evolve_schedule_in_place)
    /// to receive a typed [`EvolveError`] instead.
    pub fn evolve_schedule_in_place(
        &mut self,
        schedule: &CompiledSchedule,
        state: &mut StateVector,
    ) {
        if let Err(error) = self.try_evolve_schedule_in_place(schedule, state) {
            panic!("{error}");
        }
    }

    /// Fallible variant of
    /// [`evolve_schedule_in_place`](Propagator::evolve_schedule_in_place)
    /// with graceful degradation.
    ///
    /// When the Krylov or Chebyshev backend trips a guardrail mid-schedule,
    /// the state is rolled back to the segment boundary (both backends
    /// restore it on failure), the segment is retried with the Taylor
    /// reference, and the failure is recorded in
    /// [`recovery_log`](Propagator::recovery_log). Under
    /// [`StepperKind::Auto`] the failing backend is additionally demoted for
    /// the remainder of this schedule, so the cost model cannot hand it
    /// another segment. Segments corrupted by an attached
    /// [`FaultInjector`] are snapshotted at their boundary first, so even
    /// the non-rollback-safe Taylor backends recover there.
    ///
    /// # Errors
    ///
    /// [`EvolveError::InvalidInput`] if the schedule acts on more qubits
    /// than the state or the input norm is non-finite; otherwise the
    /// guardrail error of the failing segment (stamped with its index) when
    /// no fallback applies or the fallback itself fails.
    pub fn try_evolve_schedule_in_place(
        &mut self,
        schedule: &CompiledSchedule,
        state: &mut StateVector,
    ) -> Result<(), EvolveError> {
        let Some(mut run) =
            self.try_begin_run(schedule.num_qubits(), state, schedule.compile_span())?
        else {
            return Ok(());
        };
        // Scratch for the per-segment diagonal tables: allocated once on the
        // first diagonal-bearing segment, then updated incrementally (only
        // the weight deltas of changed terms) for the rest of the run. The
        // fill also maintains the table's exact (min, max).
        let mut diag_scratch = DiagTableScratch::new();
        for index in 0..schedule.num_segments() {
            let duration = schedule.segment_duration(index);
            if duration == 0.0 {
                continue;
            }
            let (diag_table, bound) = schedule.prepare_segment(index, &mut diag_scratch);
            let kernel = schedule.segment_kernel(index, diag_table);
            if kernel.is_empty() {
                continue;
            }
            let segment = ReadySegment {
                index,
                layout: schedule.segment_layout(index),
                kernel,
                bound,
                duration,
            };
            self.try_run_segment(&mut run, segment, state)?;
        }
        self.try_finish_run(run, state, schedule.num_segments(), schedule.total_time())
    }

    /// Opens one sequential evolution of a `num_qubits`-qubit schedule over
    /// `state`: validates the inputs and opens the trace. `None` when the
    /// state is the zero vector, a fixed point of any linear evolution.
    fn try_begin_run(
        &mut self,
        num_qubits: usize,
        state: &StateVector,
        compile: CompileSpan,
    ) -> Result<Option<SegmentRun>, EvolveError> {
        if num_qubits > state.num_qubits() {
            return Err(EvolveError::InvalidInput {
                context: "schedule acts on more qubits than the state".to_string(),
            });
        }
        let reference_norm = state.norm();
        if !reference_norm.is_finite() {
            return Err(EvolveError::InvalidInput {
                context: format!("input state norm is not finite ({reference_norm})"),
            });
        }
        if reference_norm == 0.0 {
            return Ok(None);
        }
        Ok(Some(SegmentRun {
            reference_norm,
            open_layout: None,
            demoted_krylov: false,
            demoted_chebyshev: false,
            executed_segments: 0,
            trace: self.begin_trace(compile),
        }))
    }

    /// Evolves `state` through one segment of an open run — the one routine
    /// behind constant-Hamiltonian, recompile-per-segment, and schedule
    /// evolution: backend choice, fault arming, batched-run chaining,
    /// rollback and Taylor retry on a tripped guardrail, `Auto` demotion,
    /// and the segment's telemetry.
    fn try_run_segment(
        &mut self,
        run: &mut SegmentRun,
        segment: ReadySegment<'_>,
        state: &mut StateVector,
    ) -> Result<(), EvolveError> {
        let ReadySegment {
            index,
            layout,
            kernel,
            bound,
            duration,
        } = segment;
        let kind = self.resolve_kind(run, &bound, duration);
        // Snapshot counters before fault arming so the flush of a previous
        // batched run is attributed to the segment forcing it (same
        // attribution as the layout-change flush below).
        let segment_trace = self.begin_segment_trace();
        let mut recovered = false;
        // Arm any faults registered for this segment (consume-once: the
        // Taylor retry below sees clean data).
        let faults = match self.injector.as_mut() {
            Some(injector) => injector.take_faults(index),
            None => Vec::new(),
        };
        let has_faults = !faults.is_empty();
        let mut effective_bound = bound;
        if has_faults {
            // Flush an open batched run first so the snapshot captures the
            // true segment-boundary state, not a mid-run one.
            if run.open_layout.take().is_some() {
                self.batched
                    .try_finish_run(state)
                    .map_err(|error| error.with_segment(index))?;
            }
            if self.fault_snapshot.num_qubits() != state.num_qubits() {
                self.fault_snapshot = StateVector::zeros(state.num_qubits());
            }
            self.fault_snapshot.copy_from(state);
            for fault in &faults {
                match fault {
                    Fault::BoundPerturbation {
                        radius_scale,
                        center_shift,
                    } => {
                        effective_bound.radius *= radius_scale;
                        effective_bound.center += center_shift;
                    }
                    Fault::QlNonConvergence => self.krylov.force_ql_nonconvergence(),
                    Fault::NanAmplitude | Fault::InfAmplitude | Fault::AmplitudeSpike { .. } => {
                        if let Some(injector) = self.injector.as_ref() {
                            injector.corrupt_state(state, index, fault);
                        }
                    }
                }
            }
        }
        let result = if kind == StepperKind::BatchedTaylor && !has_faults {
            if run.open_layout != Some(layout) {
                if run.open_layout.is_some() {
                    self.batched
                        .try_finish_run(state)
                        .map_err(|error| error.with_segment(index))?;
                }
                self.batched.begin_run(run.reference_norm);
                run.open_layout = Some(layout);
            }
            self.with_lent_scratch(kind, |propagator| {
                propagator
                    .batched
                    .try_run_segment(kernel, &effective_bound, state, duration)
            })
        } else {
            if run.open_layout.take().is_some() {
                self.batched
                    .try_finish_run(state)
                    .map_err(|error| error.with_segment(index))?;
            }
            let reference_norm = run.reference_norm;
            self.with_lent_scratch(kind, |propagator| {
                propagator.stepper_for(kind).try_evolve_segment(
                    kernel,
                    &effective_bound,
                    state,
                    duration,
                    reference_norm,
                )
            })
        };
        if has_faults {
            // A forced QL failure must not leak into later, un-faulted
            // segments when a non-Krylov backend ran this one.
            self.krylov.clear_forced_ql_failure();
        }
        if let Err(error) = result {
            // The segment boundary is recoverable when the fault snapshot
            // holds it, or the backend restores it on failure (Krylov,
            // Chebyshev). A mid-run BatchedTaylor or mid-step Taylor failure
            // without a snapshot has no safe retry point.
            let recoverable =
                has_faults || matches!(kind, StepperKind::Krylov | StepperKind::Chebyshev);
            if !recoverable {
                return Err(error.with_segment(index));
            }
            if has_faults {
                state.copy_from(&self.fault_snapshot);
            }
            // Retry with the Taylor reference and the clean (unperturbed)
            // bound; the faults were consumed above.
            let reference_norm = run.reference_norm;
            let retry = self.with_lent_scratch(StepperKind::Taylor, |propagator| {
                propagator.taylor.try_evolve_segment(
                    kernel,
                    &bound,
                    state,
                    duration,
                    reference_norm,
                )
            });
            if let Err(retry_error) = retry {
                if has_faults {
                    state.copy_from(&self.fault_snapshot);
                }
                return Err(retry_error.with_segment(index));
            }
            self.record_recovery(RecoveryEvent {
                segment: index,
                backend: kind,
                fallback: StepperKind::Taylor,
                error: error.with_segment(index),
            });
            recovered = true;
            match kind {
                StepperKind::Krylov => run.demoted_krylov = true,
                StepperKind::Chebyshev => run.demoted_chebyshev = true,
                _ => {}
            }
        }
        run.executed_segments += 1;
        if let Some(segment) = segment_trace {
            self.finish_segment_trace(segment, index, kind, duration, &bound, recovered);
        }
        Ok(())
    }

    /// Closes an open run: flushes a chained batched sweep (its deferred
    /// drift correction) and closes the trace.
    fn try_finish_run(
        &mut self,
        run: SegmentRun,
        state: &mut StateVector,
        segments: usize,
        total_time: f64,
    ) -> Result<(), EvolveError> {
        let pre_finalize_passes = match run.trace {
            Some(_) => self.state_passes(),
            None => 0,
        };
        if run.open_layout.is_some() {
            self.batched.try_finish_run(state)?;
        }
        if let Some(trace) = run.trace {
            let finalize_passes = self.state_passes() - pre_finalize_passes;
            self.finish_trace(
                trace,
                segments,
                run.executed_segments,
                total_time,
                finalize_passes,
                state.dim(),
            );
        }
        Ok(())
    }

    /// One block segment evolved and drift-checked as its own complete run —
    /// used for fault-injected segments, where the guardrails must fire at
    /// the segment (which has a snapshot retry point) rather than at the
    /// chained run's end. The drift references are **not** recaptured from
    /// `block` — [`BlockTaylorStepper::begin_run`] must already have seen the
    /// pre-corruption state, or amplitude corruption would launder itself
    /// into the references and sail through the drift check.
    fn run_block_segment_standalone(
        &mut self,
        kernel: BlockKernel<'_>,
        bound: &SpectralBound,
        weights: &RealizationWeights,
        block: &mut RealizationBlock,
        duration: f64,
    ) -> Result<(), EvolveError> {
        self.block
            .try_run_segment(kernel, bound, weights.scales(), block, duration)?;
        self.block.try_finish_run(block)
    }

    /// Evolves every realization of `block` through a pre-compiled
    /// [`CompiledSchedule`] **simultaneously**, realization `r` under the
    /// amplitude-scaled Hamiltonian `s_r·H(t)` (`s_r = scales[r]`, the
    /// per-realization miscalibration draw).
    ///
    /// This is the structure-of-arrays hot path behind
    /// [`EvolveOptions::realization_block`]: one [`BlockKernel`]
    /// application per series order reads every mask, diagonal-table entry,
    /// and gather index **once** per basis state for all realizations, the
    /// SIMD lanes running *across* the realization axis. The diagonal table
    /// is materialized once, unscaled, and shared by the whole block (the
    /// sequential path rebuilds it per realization); because coherent
    /// miscalibration is rank-1, the kernel keeps the segment's shared
    /// scalar weight row and applies the per-realization scale lane once
    /// per accumulated row (`CompiledSchedule::realization_weights`
    /// precomputes the lane-strided scale pairs). The entire schedule is
    /// integrated with the batched-Taylor scheme as **one chained run** —
    /// layout changes swap weight slices without flushing — closed by a
    /// single per-realization drift correction.
    ///
    /// Faults registered through [`set_fault_injector`](Propagator::set_fault_injector)
    /// fire exactly as on the sequential path: amplitude faults corrupt the
    /// seed-chosen basis index of every realization, bound perturbations
    /// stretch the shared segment bound, and the corrupted segment is
    /// snapshotted at its boundary and retried with clean data on failure.
    ///
    /// # Errors
    ///
    /// [`EvolveError::InvalidInput`] if the schedule acts on more qubits
    /// than the block, `scales` does not hold one finite scale per
    /// realization, or the block norm is non-finite; otherwise the guardrail
    /// error of the failing segment (stamped with its index) when the fault
    /// retry does not apply or itself fails.
    pub fn try_evolve_schedule_block(
        &mut self,
        schedule: &CompiledSchedule,
        block: &mut RealizationBlock,
        scales: &[f64],
    ) -> Result<(), EvolveError> {
        if schedule.num_qubits() > block.num_qubits() {
            return Err(EvolveError::InvalidInput {
                context: "schedule acts on more qubits than the block".to_string(),
            });
        }
        if scales.len() != block.realizations() {
            return Err(EvolveError::InvalidInput {
                context: format!(
                    "one amplitude scale per realization required ({} scales, {} realizations)",
                    scales.len(),
                    block.realizations()
                ),
            });
        }
        let reference_norm = (0..block.realizations())
            .map(|r| {
                let norm = block.realization_norm(r);
                norm * norm
            })
            .sum::<f64>()
            .sqrt();
        if !reference_norm.is_finite() {
            return Err(EvolveError::InvalidInput {
                context: format!("input block norm is not finite ({reference_norm})"),
            });
        }
        if reference_norm == 0.0 {
            return Ok(());
        }
        let weights = schedule.realization_weights(scales)?;
        let trace = self.begin_trace(schedule.compile_span());
        let mut executed_segments = 0usize;
        let mut diag_scratch = DiagTableScratch::new();
        // One chained run covers the whole schedule: the block stepper holds
        // no per-layout state, so layout changes just hand it a different
        // weight slice, and the per-realization drift correction is paid
        // once at the end. Fault-injected segments are the exception — they
        // flush the run and execute standalone (below), so their drift check
        // fires at the faulted segment instead of the run end.
        let mut run_open = false;
        for index in 0..schedule.num_segments() {
            let duration = schedule.segment_duration(index);
            if duration == 0.0 {
                continue;
            }
            let (diag_table, bound) = schedule.prepare_segment(index, &mut diag_scratch);
            let kernel = schedule.segment_block_kernel(index, diag_table, &weights);
            if kernel.is_empty() {
                continue;
            }
            // The block path has exactly one backend; record the decision so
            // introspection matches the sequential BatchedTaylor sweep.
            if self.decisions.len() < MAX_RECORDED_DECISIONS {
                self.decisions.push(StepperKind::BatchedTaylor);
            }
            let segment_trace = self.begin_segment_trace();
            let mut recovered = false;
            let faults = match self.injector.as_mut() {
                Some(injector) => injector.take_faults(index),
                None => Vec::new(),
            };
            let has_faults = !faults.is_empty();
            if has_faults {
                // Flush the open run first so the snapshot captures the true
                // segment-boundary state (drift-corrected), not a mid-run
                // one — mirroring the scalar path's batched-run flush.
                if run_open {
                    self.block
                        .try_finish_run(block)
                        .map_err(|error| error.with_segment(index))?;
                    run_open = false;
                }
                if self.block_snapshot.num_qubits() != block.num_qubits()
                    || self.block_snapshot.realizations() != block.realizations()
                {
                    self.block_snapshot =
                        RealizationBlock::zeros(block.num_qubits(), block.realizations());
                }
                self.block_snapshot.copy_from(block);
                let mut effective_bound = bound;
                for fault in &faults {
                    match fault {
                        Fault::BoundPerturbation {
                            radius_scale,
                            center_shift,
                        } => {
                            effective_bound.radius *= radius_scale;
                            effective_bound.center += center_shift;
                        }
                        // No Krylov runs inside a block sweep; consuming the
                        // fault without arming anything mirrors a non-Krylov
                        // backend handling the segment on the scalar path.
                        Fault::QlNonConvergence => {}
                        Fault::NanAmplitude
                        | Fault::InfAmplitude
                        | Fault::AmplitudeSpike { .. } => {
                            if let Some(injector) = self.injector.as_ref() {
                                injector.corrupt_block(block, index, fault);
                            }
                        }
                    }
                }
                // The faulted segment executes as a standalone run (open,
                // evolve, drift-check) so corruption trips the guardrails
                // *here*, where the snapshot provides a safe retry point.
                // The drift references come from the pre-corruption
                // snapshot, so amplitude corruption registers as drift.
                self.block.begin_run(&self.block_snapshot);
                let result = self.run_block_segment_standalone(
                    kernel,
                    &effective_bound,
                    &weights,
                    block,
                    duration,
                );
                if let Err(error) = result {
                    block.copy_from(&self.block_snapshot);
                    // Retry with clean data and the unperturbed bound; the
                    // faults were consumed above.
                    self.block.begin_run(block);
                    match self
                        .run_block_segment_standalone(kernel, &bound, &weights, block, duration)
                    {
                        Ok(()) => {
                            self.record_recovery(RecoveryEvent {
                                segment: index,
                                backend: StepperKind::BatchedTaylor,
                                fallback: StepperKind::BatchedTaylor,
                                error: error.with_segment(index),
                            });
                            recovered = true;
                        }
                        Err(retry_error) => {
                            block.copy_from(&self.block_snapshot);
                            return Err(retry_error.with_segment(index));
                        }
                    }
                }
            } else {
                if !run_open {
                    self.block.begin_run(block);
                    run_open = true;
                }
                let result =
                    self.block
                        .try_run_segment(kernel, &bound, weights.scales(), block, duration);
                if let Err(error) = result {
                    // No fault snapshot: the batched scheme is not
                    // rollback-safe mid-run, so there is no safe retry point.
                    return Err(error.with_segment(index));
                }
            }
            executed_segments += 1;
            if let Some(segment) = segment_trace {
                self.finish_segment_trace(
                    segment,
                    index,
                    StepperKind::BatchedTaylor,
                    duration,
                    &bound,
                    recovered,
                );
            }
        }
        let pre_finalize_passes = match trace {
            Some(_) => self.state_passes(),
            None => 0,
        };
        if run_open {
            self.block.try_finish_run(block)?;
        }
        if let Some(run) = trace {
            let finalize_passes = self.state_passes() - pre_finalize_passes;
            self.finish_trace(
                run,
                schedule.num_segments(),
                executed_segments,
                schedule.total_time(),
                finalize_passes,
                block.dim() * block.stride(),
            );
        }
        Ok(())
    }
}

/// Applies a Hamiltonian to a state: returns `H|ψ⟩`.
///
/// Compiles the Hamiltonian on the fly; callers applying the same `H`
/// repeatedly should compile once with [`CompiledHamiltonian::compile`] and
/// use [`CompiledHamiltonian::apply_into`].
///
/// # Panics
///
/// Panics if the Hamiltonian acts on more qubits than the state has.
pub fn apply_hamiltonian(hamiltonian: &Hamiltonian, state: &StateVector) -> StateVector {
    let compiled = CompiledHamiltonian::compile(hamiltonian);
    let mut out = StateVector::zeros(state.num_qubits());
    compiled.apply_into(state, &mut out);
    out
}

/// The naive per-qubit reference implementation of `H|ψ⟩`: term-by-term
/// [`StateVector::apply_pauli_string`] plus accumulation, allocating a fresh
/// vector per term. Retained for property tests and the
/// `BENCH_propagation.json` baseline.
///
/// # Panics
///
/// Panics if the Hamiltonian acts on more qubits than the state has.
pub fn apply_hamiltonian_naive(hamiltonian: &Hamiltonian, state: &StateVector) -> StateVector {
    assert!(
        hamiltonian.num_qubits() <= state.num_qubits(),
        "Hamiltonian acts on more qubits than the state"
    );
    let mut out = StateVector::zeros(state.num_qubits());
    for (coefficient, string) in hamiltonian.terms() {
        if string.is_identity() {
            out.accumulate(Complex::from_real(coefficient), state);
        } else {
            let transformed = state.apply_pauli_string(string);
            out.accumulate(Complex::from_real(coefficient), &transformed);
        }
    }
    out
}

/// Evolves a state for `time` under a constant Hamiltonian:
/// `|ψ(t)⟩ = exp(−iHt)|ψ(0)⟩`.
///
/// Convenience wrapper over [`Propagator::evolve_in_place`] with the default
/// options (automatic backend selection); use [`evolve_with`] to pin a
/// backend.
///
/// # Panics
///
/// Panics if `time` is negative or not finite.
pub fn evolve(state: &StateVector, hamiltonian: &Hamiltonian, time: f64) -> StateVector {
    evolve_with(state, hamiltonian, time, EvolveOptions::default())
}

/// [`evolve`] with explicit [`EvolveOptions`] (backend and tolerance).
///
/// # Panics
///
/// Panics if `time` is negative or not finite.
pub fn evolve_with(
    state: &StateVector,
    hamiltonian: &Hamiltonian,
    time: f64,
    options: EvolveOptions,
) -> StateVector {
    try_evolve_with(state, hamiltonian, time, options).unwrap_or_else(|error| panic!("{error}"))
}

/// Fallible variant of [`evolve`]: reports invalid inputs and tripped
/// guardrails as [`EvolveError`] instead of panicking.
///
/// # Errors
///
/// See [`Propagator::try_evolve_in_place`].
pub fn try_evolve(
    state: &StateVector,
    hamiltonian: &Hamiltonian,
    time: f64,
) -> Result<StateVector, EvolveError> {
    try_evolve_with(state, hamiltonian, time, EvolveOptions::default())
}

/// [`try_evolve`] with explicit [`EvolveOptions`] (backend and tolerance).
///
/// # Errors
///
/// See [`Propagator::try_evolve_in_place`].
pub fn try_evolve_with(
    state: &StateVector,
    hamiltonian: &Hamiltonian,
    time: f64,
    options: EvolveOptions,
) -> Result<StateVector, EvolveError> {
    let compiled = CompiledHamiltonian::compile(hamiltonian);
    let mut current = state.clone();
    Propagator::with_options(options).try_evolve_in_place(&compiled, &mut current, time)?;
    Ok(current)
}

/// The scalar reference implementation of [`evolve`]: identical stepping,
/// truncation, and norm semantics to the Taylor backend (pre-evolution norm
/// preserved, relative truncation), but every `H|ψ⟩` goes through
/// [`apply_hamiltonian_naive`] and every Taylor iteration allocates. Retained
/// for property tests and the `BENCH_propagation.json` baseline.
///
/// # Panics
///
/// Panics if `time` is negative or not finite.
pub fn evolve_naive(state: &StateVector, hamiltonian: &Hamiltonian, time: f64) -> StateVector {
    assert!(
        time.is_finite() && time >= 0.0,
        "evolution time must be non-negative"
    );
    if time == 0.0 || hamiltonian.is_empty() {
        return state.clone();
    }
    let reference_norm = state.norm();
    if reference_norm == 0.0 {
        return state.clone();
    }
    let strength = hamiltonian.coefficient_l1_norm() + hamiltonian.max_abs_coefficient();
    let steps = ((strength * time / MAX_STEP_PHASE).ceil() as usize).max(1);
    let dt = time / steps as f64;

    let mut current = state.clone();
    for _ in 0..steps {
        current = naive_taylor_step(&current, hamiltonian, dt, reference_norm);
        // Drift correction to the pre-evolution norm (mirrors the compiled
        // path; an earlier revision forced unit norm here).
        crate::stepper::rescale_to(&mut current, reference_norm);
    }
    current
}

fn naive_taylor_step(
    state: &StateVector,
    hamiltonian: &Hamiltonian,
    dt: f64,
    reference_norm: f64,
) -> StateVector {
    let mut result = state.clone();
    let mut krylov = state.clone();
    let mut factor = Complex::ONE;
    let threshold = TAYLOR_TOLERANCE * reference_norm;
    for k in 1..=MAX_TAYLOR_ORDER {
        krylov = apply_hamiltonian_naive(hamiltonian, &krylov);
        factor = factor * Complex::new(0.0, -dt) / (k as f64);
        result.accumulate(factor, &krylov);
        if krylov.norm() * factor.abs() < threshold {
            break;
        }
    }
    result
}

/// Evolves a state through a sequence of `(Hamiltonian, duration)` segments —
/// the form produced by a compiled pulse schedule or a piecewise-constant
/// target Hamiltonian.
///
/// The segments are compiled into a layout-sharing [`CompiledSchedule`]
/// under the hood (structure-equal segments reuse one mask layout), so
/// one-shot callers of this function get the same compile-time win as the
/// explicit [`CompiledSchedule::compile`] + [`evolve_schedule`] route. An
/// earlier revision recompiled every segment from scratch here.
pub fn evolve_piecewise(state: &StateVector, segments: &[(Hamiltonian, f64)]) -> StateVector {
    evolve_piecewise_with(state, segments, EvolveOptions::default())
}

/// [`evolve_piecewise`] with explicit [`EvolveOptions`].
pub fn evolve_piecewise_with(
    state: &StateVector,
    segments: &[(Hamiltonian, f64)],
    options: EvolveOptions,
) -> StateVector {
    let schedule = CompiledSchedule::compile(segments);
    evolve_schedule_with(state, &schedule, options)
}

/// Fallible variant of [`evolve_piecewise`].
///
/// # Errors
///
/// [`EvolveError::InvalidInput`] for a negative or non-finite segment
/// duration (see [`CompiledSchedule::try_compile`]); otherwise see
/// [`Propagator::try_evolve_schedule_in_place`].
pub fn try_evolve_piecewise(
    state: &StateVector,
    segments: &[(Hamiltonian, f64)],
) -> Result<StateVector, EvolveError> {
    try_evolve_piecewise_with(state, segments, EvolveOptions::default())
}

/// [`try_evolve_piecewise`] with explicit [`EvolveOptions`].
///
/// # Errors
///
/// See [`try_evolve_piecewise`].
pub fn try_evolve_piecewise_with(
    state: &StateVector,
    segments: &[(Hamiltonian, f64)],
    options: EvolveOptions,
) -> Result<StateVector, EvolveError> {
    let schedule = CompiledSchedule::try_compile(segments)?;
    try_evolve_schedule_with(state, &schedule, options)
}

/// Evolves a state through a pre-compiled [`CompiledSchedule`].
///
/// Convenience wrapper over [`Propagator::evolve_schedule_in_place`]. Compile
/// the schedule once with [`CompiledSchedule::compile`] (or
/// [`CompiledSchedule::compile_piecewise`]) and reuse it across runs — that
/// is the whole point of the shared-layout subsystem.
pub fn evolve_schedule(state: &StateVector, schedule: &CompiledSchedule) -> StateVector {
    evolve_schedule_with(state, schedule, EvolveOptions::default())
}

/// [`evolve_schedule`] with explicit [`EvolveOptions`].
pub fn evolve_schedule_with(
    state: &StateVector,
    schedule: &CompiledSchedule,
    options: EvolveOptions,
) -> StateVector {
    try_evolve_schedule_with(state, schedule, options).unwrap_or_else(|error| panic!("{error}"))
}

/// Fallible variant of [`evolve_schedule`].
///
/// # Errors
///
/// See [`Propagator::try_evolve_schedule_in_place`].
pub fn try_evolve_schedule(
    state: &StateVector,
    schedule: &CompiledSchedule,
) -> Result<StateVector, EvolveError> {
    try_evolve_schedule_with(state, schedule, EvolveOptions::default())
}

/// [`try_evolve_schedule`] with explicit [`EvolveOptions`].
///
/// # Errors
///
/// See [`Propagator::try_evolve_schedule_in_place`].
pub fn try_evolve_schedule_with(
    state: &StateVector,
    schedule: &CompiledSchedule,
    options: EvolveOptions,
) -> Result<StateVector, EvolveError> {
    let mut current = state.clone();
    Propagator::with_options(options).try_evolve_schedule_in_place(schedule, &mut current)?;
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qturbo_hamiltonian::{Pauli, PauliString};

    fn single_term(num_qubits: usize, coefficient: f64, string: PauliString) -> Hamiltonian {
        Hamiltonian::from_terms(num_qubits, [(coefficient, string)])
    }

    #[test]
    fn apply_hamiltonian_matches_manual_sum() {
        let state = StateVector::plus_state(1);
        let h = Hamiltonian::from_terms(
            1,
            [
                (2.0, PauliString::single(0, Pauli::Z)),
                (1.0, PauliString::single(0, Pauli::X)),
            ],
        );
        let applied = apply_hamiltonian(&h, &state);
        // Amplitudes of |+> are (1,1)/sqrt2.
        // Z|+> = (1,-1)/sqrt2, X|+> = (1,1)/sqrt2.
        // H|+> = 2*(1,-1)/sqrt2 + 1*(1,1)/sqrt2 = (3,-1)/sqrt2.
        let amp0 = applied.amplitudes()[0];
        let amp1 = applied.amplitudes()[1];
        assert!((amp0.re - 3.0 / 2.0_f64.sqrt()).abs() < 1e-12);
        assert!((amp1.re + 1.0 / 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn compiled_apply_matches_naive_apply() {
        let h = Hamiltonian::from_terms(
            3,
            [
                (1.0, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                (0.5, PauliString::single(2, Pauli::Y)),
                (-0.3, PauliString::identity()),
                (
                    0.7,
                    PauliString::from_ops([(0, Pauli::X), (1, Pauli::Y), (2, Pauli::Z)]),
                ),
            ],
        );
        let state = StateVector::plus_state(3);
        let fast = apply_hamiltonian(&h, &state);
        let slow = apply_hamiltonian_naive(&h, &state);
        for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_term_shifts_phase_only() {
        let state = StateVector::plus_state(2);
        let h = Hamiltonian::from_terms(2, [(3.0, PauliString::identity())]);
        let evolved = evolve(&state, &h, 1.0);
        // Global phase: probabilities unchanged.
        for basis in 0..4 {
            assert!((evolved.probability(basis) - state.probability(basis)).abs() < 1e-10);
        }
    }

    #[test]
    fn rabi_oscillation_of_a_single_qubit() {
        // H = (Ω/2) X: ⟨Z⟩(t) = cos(Ω t).
        let omega = 2.0;
        let h = single_term(1, omega / 2.0, PauliString::single(0, Pauli::X));
        let z = PauliString::single(0, Pauli::Z);
        let initial = StateVector::zero_state(1);
        for &t in &[0.1, 0.5, 1.0, 2.0] {
            let evolved = evolve(&initial, &h, t);
            let expected = (omega * t).cos();
            assert!(
                (evolved.expectation(&z) - expected).abs() < 1e-8,
                "t={t}: got {} want {expected}",
                evolved.expectation(&z)
            );
        }
    }

    #[test]
    fn zz_evolution_preserves_z_basis_populations() {
        let h = single_term(2, 1.3, PauliString::two(0, Pauli::Z, 1, Pauli::Z));
        let state = StateVector::plus_state(2);
        let evolved = evolve(&state, &h, 0.7);
        // ZZ is diagonal: populations in the Z basis are untouched.
        for basis in 0..4 {
            assert!((evolved.probability(basis) - 0.25).abs() < 1e-10);
        }
        // But X expectations rotate.
        assert!(evolved.expectation(&PauliString::single(0, Pauli::X)) < 0.999);
    }

    #[test]
    fn evolution_is_unitary_and_composable() {
        let h = Hamiltonian::from_terms(
            3,
            [
                (1.0, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                (1.0, PauliString::two(1, Pauli::Z, 2, Pauli::Z)),
                (1.0, PauliString::single(0, Pauli::X)),
                (1.0, PauliString::single(1, Pauli::X)),
                (1.0, PauliString::single(2, Pauli::X)),
            ],
        );
        let initial = StateVector::zero_state(3);
        let full = evolve(&initial, &h, 1.0);
        assert!((full.norm() - 1.0).abs() < 1e-10);
        // Composition: evolving 0.4 then 0.6 equals evolving 1.0.
        let split = evolve(&evolve(&initial, &h, 0.4), &h, 0.6);
        assert!(full.fidelity(&split) > 1.0 - 1e-9);
    }

    #[test]
    fn compiled_evolution_matches_naive_evolution() {
        let h = Hamiltonian::from_terms(
            3,
            [
                (1.0, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                (0.8, PauliString::single(1, Pauli::Y)),
                (0.5, PauliString::single(2, Pauli::X)),
            ],
        );
        let initial = StateVector::plus_state(3);
        let fast = evolve(&initial, &h, 0.9);
        let slow = evolve_naive(&initial, &h, 0.9);
        for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn every_backend_matches_the_naive_reference() {
        let h = Hamiltonian::from_terms(
            3,
            [
                (1.0, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                (0.8, PauliString::single(1, Pauli::Y)),
                (0.5, PauliString::single(2, Pauli::X)),
            ],
        );
        let initial = StateVector::plus_state(3);
        let slow = evolve_naive(&initial, &h, 0.9);
        for kind in StepperKind::all() {
            let fast = evolve_with(&initial, &h, 0.9, EvolveOptions::new(kind));
            for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
                assert!((*a - *b).abs() < 1e-10, "{}: {a} != {b}", kind.name());
            }
        }
    }

    /// Every scratch buffer the single-state backends can hold: the shared
    /// set and each backend's own slot (a placeholder unless lent out).
    fn scratch_buffers(propagator: &Propagator) -> Vec<&StateVector> {
        [
            &propagator.scratch,
            &propagator.taylor.scratch,
            &propagator.batched.scratch,
            &propagator.chebyshev.scratch,
        ]
        .into_iter()
        .flat_map(|set| set.buffers().iter())
        .collect()
    }

    #[test]
    fn propagator_scratch_buffers_are_reused() {
        let h = single_term(2, 1.0, PauliString::single(0, Pauli::X));
        let compiled = CompiledHamiltonian::compile(&h);
        for kind in StepperKind::all() {
            let mut propagator = Propagator::with_stepper(kind);
            let mut a = StateVector::zero_state(2);
            propagator.evolve_in_place(&compiled, &mut a, 0.3);
            // Second evolution reuses the buffers; result must equal a fresh
            // run.
            let mut b = StateVector::zero_state(2);
            propagator.evolve_in_place(&compiled, &mut b, 0.3);
            assert!(a.fidelity(&b) > 1.0 - 1e-12);
            assert!(a.fidelity(&evolve(&StateVector::zero_state(2), &h, 0.3)) > 1.0 - 1e-12);
        }

        // Chebyshev, batched Taylor and Taylor share one scratch set.
        let num_qubits = 10;
        let compiled = CompiledHamiltonian::compile(&Hamiltonian::from_terms(
            num_qubits,
            (0..num_qubits)
                .map(|q| (0.9, PauliString::single(q, Pauli::X)))
                .chain(
                    (0..num_qubits - 1)
                        .map(|q| (0.7, PauliString::two(q, Pauli::Z, q + 1, Pauli::Z))),
                ),
        ));
        let mut propagator = Propagator::new();
        let pass = |propagator: &mut Propagator| {
            let mut state = StateVector::zero_state(num_qubits);
            for kind in [
                StepperKind::Chebyshev,
                StepperKind::BatchedTaylor,
                StepperKind::Taylor,
            ] {
                propagator.set_stepper(kind);
                propagator.evolve_in_place(&compiled, &mut state, 0.4);
            }
            state
        };
        let first = pass(&mut propagator);
        for (kind, applications) in propagator.kernel_applications_by_backend() {
            assert_eq!(applications > 0, kind != StepperKind::Krylov, "{kind:?}");
        }
        let state_sized = |propagator: &Propagator| -> Vec<*const Complex> {
            let mut pointers: Vec<*const Complex> = scratch_buffers(propagator)
                .into_iter()
                .filter(|buffer| buffer.num_qubits() == num_qubits)
                .map(|buffer| buffer.amplitudes().as_ptr())
                .collect();
            pointers.sort();
            pointers
        };
        // Three backends ran, yet the propagator holds the largest one's
        // three buffers, not their sum of seven; the rest are one-amplitude
        // placeholders.
        let amplitudes: usize = scratch_buffers(&propagator)
            .into_iter()
            .filter(|buffer| buffer.num_qubits() == num_qubits)
            .map(StateVector::dim)
            .sum();
        assert_eq!(amplitudes, 3 << num_qubits);
        assert!(scratch_buffers(&propagator)
            .into_iter()
            .all(|buffer| buffer.num_qubits() == num_qubits || buffer.dim() == 1));
        // A second identical pass reuses the same allocations.
        let before = state_sized(&propagator);
        let second = pass(&mut propagator);
        assert_eq!(state_sized(&propagator), before);
        assert_eq!(first, second);
    }

    #[test]
    fn kernel_application_counter_tracks_and_resets() {
        let h = single_term(2, 1.0, PauliString::single(0, Pauli::X));
        let compiled = CompiledHamiltonian::compile(&h);
        let mut propagator = Propagator::new();
        assert_eq!(propagator.kernel_applications(), 0);
        let mut state = StateVector::zero_state(2);
        propagator.evolve_in_place(&compiled, &mut state, 1.0);
        assert!(propagator.kernel_applications() > 0);
        propagator.reset_kernel_applications();
        assert_eq!(propagator.kernel_applications(), 0);
    }

    #[test]
    fn piecewise_evolution_matches_sequential_calls() {
        let h1 = single_term(2, 1.0, PauliString::single(0, Pauli::X));
        let h2 = single_term(2, 0.5, PauliString::two(0, Pauli::Z, 1, Pauli::Z));
        let initial = StateVector::zero_state(2);
        let piecewise = evolve_piecewise(&initial, &[(h1.clone(), 0.3), (h2.clone(), 0.7)]);
        let manual = evolve(&evolve(&initial, &h1, 0.3), &h2, 0.7);
        assert!(piecewise.fidelity(&manual) > 1.0 - 1e-10);
    }

    #[test]
    fn scaling_equivalence_of_hamiltonian_and_time() {
        // exp(-i (2H) t) == exp(-i H (2t)): the compilation identity the paper
        // relies on (Equation 1).
        let h = Hamiltonian::from_terms(
            2,
            [
                (1.0, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                (0.7, PauliString::single(0, Pauli::X)),
            ],
        );
        let initial = StateVector::plus_state(2);
        let fast = evolve(&initial, &h.scaled(2.0), 0.5);
        let slow = evolve(&initial, &h, 1.0);
        assert!(fast.fidelity(&slow) > 1.0 - 1e-9);
    }

    #[test]
    fn zero_time_is_identity() {
        let h = single_term(1, 1.0, PauliString::single(0, Pauli::X));
        let state = StateVector::zero_state(1);
        let evolved = evolve(&state, &h, 0.0);
        assert!(evolved.fidelity(&state) > 1.0 - 1e-15);
        let empty = evolve(&state, &Hamiltonian::new(1), 5.0);
        assert!(empty.fidelity(&state) > 1.0 - 1e-15);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        let h = single_term(1, 1.0, PauliString::single(0, Pauli::X));
        let _ = evolve(&StateVector::zero_state(1), &h, -1.0);
    }

    #[test]
    fn evolution_is_linear_in_the_input_norm() {
        // Regression: evolve(c·ψ) must equal c·evolve(ψ). The old
        // `normalize()` drift guard forced every input back to unit norm.
        let h = Hamiltonian::from_terms(
            2,
            [
                (1.0, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                (0.7, PauliString::single(0, Pauli::X)),
            ],
        );
        for &scale in &[3.0, 1e-6, 2.5e5] {
            let unit = StateVector::plus_state(2);
            let mut scaled = unit.clone();
            scaled.scale(scale);
            let evolved_scaled = evolve(&scaled, &h, 0.8);
            let mut expected = evolve(&unit, &h, 0.8);
            expected.scale(scale);
            assert!(
                (evolved_scaled.norm() - scale).abs() < 1e-9 * scale,
                "norm not preserved at scale {scale}: {}",
                evolved_scaled.norm()
            );
            for (a, b) in evolved_scaled
                .amplitudes()
                .iter()
                .zip(expected.amplitudes())
            {
                assert!((*a - *b).abs() < 1e-9 * scale, "scale {scale}: {a} != {b}");
            }
            // The naive reference follows the same semantics.
            let naive_scaled = evolve_naive(&scaled, &h, 0.8);
            for (a, b) in naive_scaled.amplitudes().iter().zip(expected.amplitudes()) {
                assert!((*a - *b).abs() < 1e-9 * scale, "naive scale {scale}");
            }
        }
    }

    #[test]
    fn zero_vector_is_a_fixed_point() {
        let h = single_term(2, 1.0, PauliString::single(0, Pauli::X));
        let compiled = CompiledHamiltonian::compile(&h);
        for kind in StepperKind::all() {
            let mut zero = StateVector::zeros(2);
            Propagator::with_stepper(kind).evolve_in_place(&compiled, &mut zero, 1.0);
            assert_eq!(zero.norm(), 0.0, "{}", kind.name());
        }
        let naive = evolve_naive(&StateVector::zeros(2), &h, 1.0);
        assert_eq!(naive.norm(), 0.0);
    }

    #[test]
    fn schedule_evolution_matches_piecewise_evolution() {
        let h1 = single_term(2, 1.0, PauliString::single(0, Pauli::X));
        let h2 = single_term(2, 0.5, PauliString::two(0, Pauli::Z, 1, Pauli::Z));
        let segments = [(h1, 0.3), (h2, 0.7)];
        let initial = StateVector::zero_state(2);
        let piecewise = evolve_piecewise(&initial, &segments);
        let schedule = CompiledSchedule::compile(&segments);
        let scheduled = evolve_schedule(&initial, &schedule);
        assert!(scheduled.fidelity(&piecewise) > 1.0 - 1e-12);
    }

    #[test]
    fn one_shot_piecewise_matches_recompile_per_segment_reference() {
        // Regression for the old evolve_piecewise, which recompiled every
        // segment: the schedule-backed path must agree with the in-place
        // recompile reference to full stepper accuracy.
        let h1 = single_term(2, 1.0, PauliString::single(0, Pauli::X));
        let h2 = single_term(2, 0.5, PauliString::two(0, Pauli::Z, 1, Pauli::Z));
        let segments = [(h1, 0.3), (h2, 0.7)];
        let initial = StateVector::plus_state(2);
        let one_shot = evolve_piecewise(&initial, &segments);
        let mut reference = initial.clone();
        Propagator::new().evolve_piecewise_in_place(&segments, &mut reference);
        for (a, b) in one_shot.amplitudes().iter().zip(reference.amplitudes()) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }
}
