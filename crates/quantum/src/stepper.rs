//! Pluggable time-evolution steppers: Taylor (per-segment and batched),
//! Lanczos–Krylov, and Chebyshev backends behind one [`Stepper`] trait.
//!
//! # Why four backends
//!
//! The mask-compiled kernel made each `H|ψ⟩` application cheap, so the cost
//! of evolving a segment is essentially *how many applications the
//! integration scheme needs per unit time* — and, for trains of tiny
//! segments, how many state-sized *memory passes* ride along with them:
//!
//! * **[`TaylorStepper`]** — the original scheme: split the segment into
//!   steps with `‖H‖·Δt ≤ ½` and sum the Taylor series per step. Cost scales
//!   as `O(‖H‖·t · k̄)` applications with `k̄ ≈ 8` series orders per step —
//!   robust, zero setup, and the reference the other backends are pinned
//!   against. Best for short segments (`‖H‖·t ≲ 1`) where its minimal
//!   per-step overhead wins.
//! * **[`BatchedTaylorStepper`]** — the *same series*, evaluated as a
//!   batched multi-segment sweep: no per-step series copy (the first
//!   application reads the state directly, its term retired in a fused
//!   first-and-second-order traversal), and consecutive same-layout
//!   schedule segments share one run-end drift correction instead of
//!   per-step norm-and-rescale passes. Identical applications, ~15–25%
//!   fewer amplitude passes on dense ramps — the backend the ROADMAP's
//!   "batched multi-segment kernels" item asked for.
//! * **[`KrylovStepper`]** — Lanczos: project `H` onto an `m`-dimensional
//!   Krylov subspace (one application per basis vector, `m ≲ 32`),
//!   exponentiate the projected tridiagonal matrix exactly through the
//!   [`qturbo_math::tridiag`] eigensolver, and advance by the largest `Δt`
//!   the residual estimate admits. The basis dimension adapts: construction
//!   stops as soon as the residual for the remaining duration converges, and
//!   the step size adapts when even the full basis cannot cover the segment
//!   in one hop. Costs `O(m)` applications per step with steps that are
//!   typically `‖H‖·Δt ≈ m` wide — an order of magnitude fewer applications
//!   than Taylor on long segments, at the price of `m` retained basis
//!   vectors and `O(m²)` orthogonalization sweeps per step.
//! * **[`ChebyshevStepper`]** — expand `exp(−i·t·H)` in Chebyshev
//!   polynomials of `H` mapped onto the spectral interval estimated from the
//!   compiled term weights ([`SpectralBound`]), with Bessel-function
//!   coefficients from [`qturbo_math::chebyshev`]. The whole segment is one
//!   step of `≈ r·t + O((r·t)^⅓)` applications (`r` the spectral radius) —
//!   asymptotically optimal for long evolutions, and only three state-sized
//!   scratch vectors regardless of duration. Best when `‖H‖·t ≫ 1` and the
//!   spectral-interval estimate is tight (e.g. diagonal-dominated models).
//!
//! # Choosing a stepper
//!
//! Rule of thumb: batched Taylor for trains of tiny segments (a discretized
//! ramp), Krylov for schedules of medium segments (its basis pays off within
//! each segment and the adaptive step absorbs norm spikes), Chebyshev for
//! long quenches under one Hamiltonian. `BENCH_stepper.json` tracks all
//! backends on both shapes.
//!
//! You rarely need to pick by hand: [`StepperKind::Auto`] — the default —
//! prices every backend per segment from the segment's [`SpectralBound`] and
//! duration through an [`AutoCostModel`] and runs the cheapest one. The
//! model estimates each backend's `H|ψ⟩` application count (Taylor from its
//! `‖H‖·Δt ≤ ½` step splitting and series order, Chebyshev *exactly* from
//! the truncation order of its expansion via
//! [`qturbo_math::chebyshev::chebyshev_exp_order`], Krylov from a linear
//! phase model fitted to `BENCH_stepper.json`) and weights it by a relative
//! wall-clock cost per application (Krylov's orthogonalization sweeps make
//! its applications ~2.5x a Taylor application; Chebyshev's interval mapping
//! adds ~15%). The decision is per *segment*, so a schedule of short ramp
//! segments runs Taylor while a long quench in the same process runs
//! Chebyshev — and the crossovers are data, not code: override the
//! calibration via [`EvolveOptions::with_auto_model`].
//!
//! With the default calibration Krylov is never the predicted winner — the
//! measured crossovers have Chebyshev beating it whenever both beat Taylor,
//! because a compile-time model cannot see Krylov's true advantages (state
//! adaptivity, happy breakdown on invariant subspaces). Callers who know
//! their states live in small Krylov subspaces can steer the model (raise
//! `chebyshev_application_cost`) or pin [`StepperKind::Krylov`] outright.
//!
//! Pick a fixed backend explicitly when benchmarking backends against each
//! other, when reproducing the scalar Taylor reference bit-for-bit, or when
//! the spectral bound is known to be very loose (Auto prices Chebyshev off
//! the bound, so a loose bound inflates its estimate — and its actual work).
//!
//! # Contract
//!
//! A stepper evolves a state through **one segment**: a [`FusedKernel`]
//! (the compiled `H|ψ⟩` pass), a [`SpectralBound`] (the scalar facts the
//! schemes size their work from), a duration, and the caller's reference
//! norm. The caller guarantees a non-empty kernel, positive finite duration,
//! and a non-zero state; the stepper guarantees the state advances by
//! `exp(−i·H·duration)` to within its tolerance and returns with its norm
//! rescaled to `reference_norm` (drift correction — the exact evolution is
//! unitary). Every backend counts its kernel applications so benchmarks and
//! callers can compare work, not just wall time.
//!
//! Selection is threaded through the rest of the crate as
//! [`StepperKind`] / [`EvolveOptions`]: every evolution entry point
//! ([`crate::Propagator`], the `evolve*` free functions,
//! [`crate::EmulatedDevice`]) accepts an options value, so constant,
//! piecewise, and compiled-schedule workloads can each pick their backend.

use crate::compiled::{BlockKernel, FusedKernel};
use crate::error::EvolveError;
use crate::exec::{ExecutionContext, Passes};
use crate::state::{RealizationBlock, StateVector};
use qturbo_math::chebyshev::{
    try_chebyshev_exp_coefficients, try_chebyshev_exp_order, MAX_EXP_SPAN,
};
use qturbo_math::tridiag::{SymmetricTridiagonal, TridiagonalEigen};
use qturbo_math::{Complex, MathError};

/// Maximum Taylor series order per step (safety rail; the series converges
/// in a handful of orders at `‖H‖·Δt ≤ ½`).
pub(crate) const MAX_TAYLOR_ORDER: usize = 64;
/// Default truncation tolerance, *relative* to the norm of the state being
/// evolved. Shared by all backends so they agree to the benchmark's 1e-10
/// comparison threshold with headroom.
pub(crate) const DEFAULT_TOLERANCE: f64 = 1e-14;
/// Taylor evolution is split into steps with `strength · Δt` at most this
/// value so each step's series converges in a handful of orders.
pub(crate) const MAX_STEP_PHASE: f64 = 0.5;
/// Largest Lanczos basis dimension before the Krylov stepper falls back to
/// shrinking the step instead of growing the basis.
const KRYLOV_MAX_DIM: usize = 32;
/// Krylov basis construction below which no residual test is attempted (the
/// estimate is meaningless for one or two vectors).
const KRYLOV_MIN_DIM: usize = 3;
/// Largest relative norm drift `|‖ψ‖ − reference| / reference` tolerated at
/// a drift-correction point before the guardrail reports
/// [`EvolveError::NormDrift`]. Honest round-off accumulates at ~1e-12 over
/// the longest benchmarked schedules, so 1e-6 leaves six orders of headroom
/// while still catching any genuinely diverging expansion (whose drift is
/// many orders of magnitude, not fractions of an ulp).
pub const NORM_DRIFT_LIMIT: f64 = 1e-6;

/// Which time-evolution backend to use. See the [module docs](self) for the
/// cost model of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepperKind {
    /// Scaled-and-squared Taylor series (`‖H‖·Δt ≤ ½` splitting) — the
    /// reference backend.
    Taylor,
    /// The Taylor series evaluated by the batched multi-segment sweep
    /// ([`BatchedTaylorStepper`]): identical step splitting, series orders,
    /// and truncation rule, but the per-step series copy is gone (the first
    /// application reads the state directly, its term retired in a fused
    /// first-and-second-order pass) and consecutive same-layout schedule
    /// segments share a single run-end drift correction instead of paying
    /// norm-and-rescale passes every step.
    BatchedTaylor,
    /// Adaptive Lanczos–Krylov propagator.
    Krylov,
    /// Chebyshev polynomial expansion over the estimated spectral interval.
    Chebyshev,
    /// Pick the cheapest fixed backend **per segment** from the segment's
    /// [`SpectralBound`] and duration through an [`AutoCostModel`] (see
    /// [Choosing a stepper](self#choosing-a-stepper)). The default.
    #[default]
    Auto,
}

impl StepperKind {
    /// Short lowercase name, as used in benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            StepperKind::Taylor => "taylor",
            StepperKind::BatchedTaylor => "batched_taylor",
            StepperKind::Krylov => "krylov",
            StepperKind::Chebyshev => "chebyshev",
            StepperKind::Auto => "auto",
        }
    }

    /// Every selectable kind, fixed backends first (reference-first order),
    /// [`Auto`](StepperKind::Auto) last.
    pub fn all() -> [StepperKind; 5] {
        [
            StepperKind::Taylor,
            StepperKind::BatchedTaylor,
            StepperKind::Krylov,
            StepperKind::Chebyshev,
            StepperKind::Auto,
        ]
    }

    /// The four fixed backends, in reference-first order — the concrete
    /// integration schemes [`Auto`](StepperKind::Auto) chooses between.
    pub fn fixed() -> [StepperKind; 4] {
        [
            StepperKind::Taylor,
            StepperKind::BatchedTaylor,
            StepperKind::Krylov,
            StepperKind::Chebyshev,
        ]
    }
}

/// Evolution options threaded through every propagation entry point: which
/// backend integrates each segment, at what relative tolerance, and — for
/// [`StepperKind::Auto`] — under which cost calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolveOptions {
    /// The backend used for every segment ([`StepperKind::Auto`], the
    /// default, re-decides per segment).
    pub stepper: StepperKind,
    /// Truncation / residual tolerance, relative to the evolved state's
    /// norm. All backends interpret it per internal step, mirroring the
    /// original Taylor truncation semantics.
    pub tolerance: f64,
    /// The cost calibration [`StepperKind::Auto`] decides with; ignored by
    /// the fixed backends.
    pub auto_model: AutoCostModel,
    /// How every `H|ψ⟩` kernel application executes: worker count, parallel
    /// threshold, and kernel path (see [`ExecutionContext`]). Stored by each
    /// stepper at construction, so one configuration is reused across all
    /// schedule segments and device noise realizations.
    pub execution: ExecutionContext,
    /// Whether a [`Propagator`](crate::propagate::Propagator) built from
    /// these options records structured telemetry (see
    /// [`crate::telemetry`]). Defaults to the process-wide `QTURBO_TRACE`
    /// setting ([`crate::telemetry::env_enabled`]); override per run with
    /// [`with_telemetry`](EvolveOptions::with_telemetry). When `false` the
    /// propagation hot path performs a single boolean check — no
    /// allocation, no clock reads, no extra amplitude passes.
    pub telemetry: bool,
    /// Whether an [`EmulatedDevice`](crate::device::EmulatedDevice) sweep
    /// evolves its noise
    /// realizations as one structure-of-arrays [`RealizationBlock`] (the
    /// [`BlockTaylorStepper`]) instead of looping realizations sequentially.
    /// The block path reads every mask, diagonal-table entry, and gather
    /// index once per basis state for *all* realizations and vectorizes
    /// across the realization lanes; the sequential loop stays available as
    /// the conformance reference. Defaults to `false`.
    pub realization_block: bool,
}

impl Default for EvolveOptions {
    fn default() -> Self {
        EvolveOptions {
            stepper: StepperKind::default(),
            tolerance: DEFAULT_TOLERANCE,
            auto_model: AutoCostModel::default(),
            execution: ExecutionContext::auto(),
            telemetry: crate::telemetry::env_enabled(),
            realization_block: false,
        }
    }
}

impl EvolveOptions {
    /// Options selecting `kind` at the default tolerance.
    pub fn new(kind: StepperKind) -> Self {
        EvolveOptions {
            stepper: kind,
            ..EvolveOptions::default()
        }
    }

    /// The Taylor reference backend.
    pub fn taylor() -> Self {
        EvolveOptions::new(StepperKind::Taylor)
    }

    /// The batched multi-segment Taylor sweep.
    pub fn batched_taylor() -> Self {
        EvolveOptions::new(StepperKind::BatchedTaylor)
    }

    /// The Lanczos–Krylov backend.
    pub fn krylov() -> Self {
        EvolveOptions::new(StepperKind::Krylov)
    }

    /// The Chebyshev backend.
    pub fn chebyshev() -> Self {
        EvolveOptions::new(StepperKind::Chebyshev)
    }

    /// Per-segment automatic backend selection (the default).
    pub fn auto() -> Self {
        EvolveOptions::new(StepperKind::Auto)
    }

    /// Replaces the tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "tolerance must be positive and finite"
        );
        self.tolerance = tolerance;
        self
    }

    /// Replaces the [`StepperKind::Auto`] cost calibration (the crossover
    /// knobs; a no-op unless the selected stepper is `Auto`).
    pub fn with_auto_model(mut self, model: AutoCostModel) -> Self {
        self.auto_model = model;
        self
    }

    /// Pins the worker count every kernel application may fan out to
    /// (`0` restores automatic resolution: the `QTURBO_THREADS` environment
    /// variable, then the machine's available parallelism). The pool only
    /// engages above the parallel threshold — tune that via
    /// [`with_execution`](EvolveOptions::with_execution).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.execution = self.execution.with_threads(threads);
        self
    }

    /// Replaces the whole [`ExecutionContext`] (worker count, parallel
    /// threshold, and kernel path at once).
    pub fn with_execution(mut self, execution: ExecutionContext) -> Self {
        self.execution = execution;
        self
    }

    /// Enables or disables structured telemetry for propagators built from
    /// these options, overriding the `QTURBO_TRACE` default (see
    /// [`crate::telemetry`]).
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Enables or disables structure-of-arrays realization batching for
    /// device sweeps (see [`EvolveOptions::realization_block`]).
    pub fn with_realization_block(mut self, enabled: bool) -> Self {
        self.realization_block = enabled;
        self
    }

    /// The backend that will actually integrate a segment with spectral
    /// bound `bound` and duration `duration` under these options: the fixed
    /// stepper itself, or the [`AutoCostModel`]'s per-segment choice.
    pub fn resolve(&self, bound: &SpectralBound, duration: f64) -> StepperKind {
        match self.stepper {
            StepperKind::Auto => self.auto_model.choose(bound, duration, self.tolerance),
            fixed => fixed,
        }
    }
}

/// The calibration [`StepperKind::Auto`] prices backends with: estimated
/// `H|ψ⟩` application counts weighted by per-application relative wall cost.
///
/// The defaults are fitted against `BENCH_stepper.json` (MIS ramp and
/// Heisenberg-quench workloads, see
/// [Choosing a stepper](self#choosing-a-stepper)); every field is public so
/// callers with different hardware or workload shapes can re-calibrate
/// through [`EvolveOptions::with_auto_model`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoCostModel {
    /// Relative wall cost of one Taylor kernel application (the unit: its
    /// fused apply-accumulate pass is the cheapest application there is).
    pub taylor_application_cost: f64,
    /// Relative wall cost of one Krylov kernel application. The Lanczos
    /// full-reorthogonalization sweeps and projected eigensolves ride along
    /// with every application, measured at ~2–3.3x a Taylor application in
    /// `BENCH_stepper.json`.
    pub krylov_application_cost: f64,
    /// Relative wall cost of one Chebyshev kernel application (the spectral
    /// interval mapping adds one subtract-and-scale pass, ~1.1x measured).
    pub chebyshev_application_cost: f64,
    /// Chebyshev's per-segment setup, in application-equivalents: the
    /// Bessel-coefficient build plus the fixed state-sized passes (seed the
    /// recurrence, apply the global phase, rescale) that every segment pays
    /// regardless of expansion order. This is what keeps Taylor the choice
    /// on many-short-segment ramps, matching the measured wall times.
    pub chebyshev_base_applications: f64,
    /// Estimated Krylov applications per unit of spectral phase
    /// (`radius · Δt`). `BENCH_stepper.json` measures 1.5–1.8 on the
    /// quenches; the default is deliberately pessimistic.
    pub krylov_applications_per_phase: f64,
    /// Krylov's per-segment floor: even a tiny segment builds a minimal
    /// Lanczos basis (~9 applications per segment measured on the MIS ramp).
    pub krylov_base_applications: f64,
    /// Relative wall cost of one batched-Taylor kernel application — the
    /// same fused passes the per-segment Taylor path runs (the batched
    /// sweep adds no per-gather work anywhere), so the default is unity.
    pub batched_taylor_application_cost: f64,
    /// Per-step overhead of the **per-segment** Taylor path in
    /// application-equivalents: the `copy_from` seed of the series plus the
    /// norm-and-rescale drift correction — roughly five state-sized
    /// traversals against the ~four of one fused kernel application.
    pub taylor_step_overhead_applications: f64,
    /// Per-step overhead of the **batched** sweep in
    /// application-equivalents: the amortized run-end drift correction plus
    /// the occasional standalone first-order accumulate. This undercutting
    /// [`taylor_step_overhead_applications`](AutoCostModel::taylor_step_overhead_applications)
    /// is exactly why ramp-style trains of tiny segments batch while long
    /// quench segments (where the overhead is negligible next to thousands
    /// of applications) still go to Chebyshev.
    pub batched_step_overhead_applications: f64,
}

impl Default for AutoCostModel {
    fn default() -> Self {
        AutoCostModel {
            taylor_application_cost: 1.0,
            krylov_application_cost: 2.5,
            chebyshev_application_cost: 1.15,
            chebyshev_base_applications: 3.0,
            krylov_applications_per_phase: 2.0,
            krylov_base_applications: 8.0,
            batched_taylor_application_cost: 1.0,
            taylor_step_overhead_applications: 1.2,
            batched_step_overhead_applications: 0.3,
        }
    }
}

impl AutoCostModel {
    /// Estimated `H|ψ⟩` applications `kind` spends on one segment with
    /// spectral bound `bound`, duration `duration`, and relative tolerance
    /// `tolerance`.
    ///
    /// Taylor is modeled from its step splitting and per-step series order,
    /// Chebyshev is **exact** (the truncation order of its expansion), and
    /// Krylov is a linear phase model fitted to `BENCH_stepper.json`.
    ///
    /// Returns `None` for [`StepperKind::Auto`] — Auto has no application
    /// count of its own (estimate the fixed backends and take the minimum,
    /// which is what [`choose`](AutoCostModel::choose) does). A Chebyshev
    /// expansion whose span overflows the supported truncation order prices
    /// as `f64::INFINITY` (never chosen, never panics).
    pub fn estimated_applications(
        &self,
        kind: StepperKind,
        bound: &SpectralBound,
        duration: f64,
        tolerance: f64,
    ) -> Option<f64> {
        // ‖H|ψ⟩‖ ≤ max|eig| ≤ |center| + radius: the scale that drives both
        // the Taylor series order and the Krylov phase.
        let spectral_scale = bound.center.abs() + bound.radius;
        match kind {
            // The batched sweep runs the identical series: same step
            // splitting, same orders, same truncation — only the overhead
            // passes differ, and those live in `estimated_cost`.
            StepperKind::Taylor | StepperKind::BatchedTaylor => {
                let steps = taylor_steps(bound, duration);
                let theta = spectral_scale * duration / steps;
                Some(steps * series_orders(theta, tolerance) as f64)
            }
            StepperKind::Krylov => Some(
                self.krylov_base_applications
                    + self.krylov_applications_per_phase * bound.radius * duration,
            ),
            StepperKind::Chebyshev => Some(
                try_chebyshev_exp_order(bound.radius * duration, tolerance)
                    .map_or(f64::INFINITY, |order| order as f64),
            ),
            StepperKind::Auto => None,
        }
    }

    /// Estimated relative wall cost of `kind` on one segment: estimated
    /// applications (plus Chebyshev's per-segment setup) × per-application
    /// cost.
    ///
    /// Returns `None` for [`StepperKind::Auto`] (see
    /// [`estimated_applications`](AutoCostModel::estimated_applications)).
    pub fn estimated_cost(
        &self,
        kind: StepperKind,
        bound: &SpectralBound,
        duration: f64,
        tolerance: f64,
    ) -> Option<f64> {
        let applications = self.estimated_applications(kind, bound, duration, tolerance)?;
        match kind {
            StepperKind::Taylor => Some(
                (applications
                    + taylor_steps(bound, duration) * self.taylor_step_overhead_applications)
                    * self.taylor_application_cost,
            ),
            StepperKind::BatchedTaylor => Some(
                (applications
                    + taylor_steps(bound, duration) * self.batched_step_overhead_applications)
                    * self.batched_taylor_application_cost,
            ),
            StepperKind::Krylov => Some(applications * self.krylov_application_cost),
            StepperKind::Chebyshev => Some(
                (applications + self.chebyshev_base_applications) * self.chebyshev_application_cost,
            ),
            StepperKind::Auto => None,
        }
    }

    /// The cheapest fixed backend for one segment (ties go to the earlier
    /// backend in reference-first order, so a dead heat picks Taylor).
    ///
    /// Always equivalent to the argmin of
    /// [`estimated_cost`](AutoCostModel::estimated_cost) over
    /// [`StepperKind::fixed`], but with a fast path for short segments: the
    /// exact Chebyshev pricing runs an `O(span)` Bessel recurrence (with a
    /// heap allocation), which on schedules of thousands of tiny segments
    /// would rival the evolution it prices. For `span ≤ 2` a rigorous lower
    /// bound on the expansion order (`J_k(z) ≥ ½·(z/2)ᵏ/k!` there, so the
    /// first `k` with `(z/2)ᵏ/k! < tolerance` cannot be past the truncation
    /// point) prices Chebyshev out without touching the recurrence whenever
    /// even that floor loses to Taylor or Krylov.
    pub fn choose(&self, bound: &SpectralBound, duration: f64, tolerance: f64) -> StepperKind {
        // Argmin over the non-Chebyshev backends, earlier-in-fixed-order
        // winning ties (so a dead heat stays with the Taylor reference).
        let (mut other, mut other_cost) = (
            StepperKind::Taylor,
            self.estimated_cost(StepperKind::Taylor, bound, duration, tolerance)
                .unwrap_or(f64::INFINITY),
        );
        for kind in [StepperKind::BatchedTaylor, StepperKind::Krylov] {
            let cost = self
                .estimated_cost(kind, bound, duration, tolerance)
                .unwrap_or(f64::INFINITY);
            if cost < other_cost {
                other = kind;
                other_cost = cost;
            }
        }
        let span = bound.radius * duration;
        if span > 0.0 && span <= 2.0 {
            let floor_cost = (series_orders(span / 2.0, tolerance) as f64
                + self.chebyshev_base_applications)
                * self.chebyshev_application_cost;
            if floor_cost >= other_cost {
                return other;
            }
        }
        let chebyshev_cost = self
            .estimated_cost(StepperKind::Chebyshev, bound, duration, tolerance)
            .unwrap_or(f64::INFINITY);
        if chebyshev_cost < other_cost {
            StepperKind::Chebyshev
        } else {
            other
        }
    }

    /// The cheapest backend among `candidates` for one segment — the
    /// restricted variant of [`choose`](AutoCostModel::choose) the schedule
    /// loop uses once [`RecoveryLog`](crate::error::RecoveryLog) demotions
    /// have removed a failing backend from the pool. Ties go to the earlier
    /// candidate; an empty or all-`Auto` candidate list falls back to the
    /// Taylor reference.
    pub fn choose_among(
        &self,
        candidates: &[StepperKind],
        bound: &SpectralBound,
        duration: f64,
        tolerance: f64,
    ) -> StepperKind {
        let mut best = StepperKind::Taylor;
        let mut best_cost = f64::INFINITY;
        for &kind in candidates {
            let Some(cost) = self.estimated_cost(kind, bound, duration, tolerance) else {
                continue;
            };
            if cost < best_cost {
                best = kind;
                best_cost = cost;
            }
        }
        best
    }
}

/// Taylor step count of one segment — `⌈strength·t / ½⌉`, at least one.
/// The **single** definition of the step splitting, shared by both
/// Taylor-series backends (whose equal-application CI gate depends on them
/// splitting identically) and the cost model (as an `f64` because the model
/// multiplies it by fractional overhead equivalents; the value is an exact
/// small integer, so `as usize` in the steppers is lossless).
fn taylor_steps(bound: &SpectralBound, duration: f64) -> f64 {
    (bound.step_strength * duration / MAX_STEP_PHASE)
        .ceil()
        .max(1.0)
}

/// Smallest `k ≥ 1` with `θᵏ/k! ≤ tolerance` (capped at
/// [`MAX_TAYLOR_ORDER`]) — the per-step series order of the Taylor
/// truncation rule, also used as the Chebyshev order floor at `θ = z/2`.
fn series_orders(theta: f64, tolerance: f64) -> usize {
    let mut orders = 0usize;
    let mut term = 1.0;
    while orders < MAX_TAYLOR_ORDER {
        orders += 1;
        term *= theta / orders as f64;
        if term <= tolerance {
            break;
        }
    }
    orders
}

/// Scalar facts about a compiled segment's spectrum, computed in `O(#terms)`
/// at compile time, from which each stepper sizes its work.
///
/// The eigenvalues of `H = c·I + Σ_t w_t·P_t` (Pauli terms `P_t`, `‖P_t‖ =
/// 1`) lie in `[center − radius, center + radius]` with `center = c` (the
/// summed identity weights) and `radius = Σ_t |w_t|` over the non-identity
/// terms — a rigorous enclosure by the triangle inequality. Splitting the
/// identity shift out matters: it costs the Chebyshev expansion nothing (a
/// global phase) but would inflate the interval — and therefore the
/// expansion order — if left inside the radius.
///
/// When the exact minimum and maximum of the *diagonal* part of `H` are
/// known — they fall out of the diagonal-table fill the kernels do anyway —
/// [`with_exact_diagonal`](SpectralBound::with_exact_diagonal) replaces the
/// diagonal terms' triangle-inequality contribution with the exact interval,
/// which is what shrinks the Chebyshev order on detuning-dominated models
/// like the MIS ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralBound {
    /// Center of the spectral enclosure (the summed identity-term weights).
    pub center: f64,
    /// Half-width of the spectral enclosure (`Σ|w|` over non-identity
    /// terms). Zero exactly when the Hamiltonian is a pure identity shift.
    pub radius: f64,
    /// The Taylor step-sizing strength `‖c‖₁ + max|c|`, kept identical to
    /// the scalar reference path so Taylor step counts do not change.
    pub step_strength: f64,
}

impl SpectralBound {
    /// Tightens the enclosure with the **exact** diagonal spectrum: for
    /// `H = D + O` (diagonal part `D`, off-diagonal part `O`), every
    /// eigenvalue lies in `[min(D) − ‖O‖, max(D) + ‖O‖]` by Weyl's
    /// inequality, and `‖O‖ ≤ Σ|w|` over the off-diagonal terms. The result
    /// is a rigorous interval contained in (never wider than) the
    /// triangle-inequality enclosure, because `max(D) − min(D) ≤ 2·Σ|w|`
    /// over the non-identity diagonal terms.
    ///
    /// `diag_min`/`diag_max` are the extrema of the materialized diagonal
    /// table (which includes the identity shift); `offdiag_radius` is
    /// `Σ|w|` over the off-diagonal (flip and gather) terms only. The Taylor
    /// step strength is left untouched so Taylor step counts never change.
    pub fn with_exact_diagonal(
        self,
        diag_min: f64,
        diag_max: f64,
        offdiag_radius: f64,
    ) -> SpectralBound {
        debug_assert!(diag_min <= diag_max, "inverted diagonal range");
        SpectralBound {
            center: 0.5 * (diag_min + diag_max),
            radius: 0.5 * (diag_max - diag_min) + offdiag_radius,
            step_strength: self.step_strength,
        }
    }
}

/// One time-evolution backend: evolves a state through a single compiled
/// segment.
///
/// Implementations own whatever scratch state their scheme needs (Taylor's
/// two vectors, Krylov's basis, Chebyshev's recurrence buffers) and reuse it
/// across calls, so driving a many-segment schedule allocates nothing after
/// the first segment at a given register size.
pub trait Stepper {
    /// Advances `state` by `exp(−i·H·duration)` where `H` is the operator
    /// `kernel` applies, rescaling the result to `reference_norm`.
    ///
    /// The caller guarantees: `kernel` is non-empty, `duration` is positive
    /// and finite, `bound` describes `kernel`, and `reference_norm` is the
    /// (non-zero) norm of `state`.
    ///
    /// # Errors
    ///
    /// Returns an [`EvolveError`] when a numerical guardrail trips
    /// (non-finite amplitudes, norm drift beyond
    /// [`NORM_DRIFT_LIMIT`], inner-solver non-convergence, Chebyshev order
    /// overflow). On error the Krylov and Chebyshev backends leave `state`
    /// exactly as it was at segment entry (rollback-safe); the Taylor
    /// backends may leave it mid-segment (documented per type).
    fn try_evolve_segment(
        &mut self,
        kernel: FusedKernel<'_>,
        bound: &SpectralBound,
        state: &mut StateVector,
        duration: f64,
        reference_norm: f64,
    ) -> Result<(), EvolveError>;

    /// Panicking convenience wrapper around
    /// [`try_evolve_segment`](Stepper::try_evolve_segment).
    ///
    /// # Panics
    ///
    /// Panics with the [`EvolveError`] display message when a guardrail
    /// trips.
    fn evolve_segment(
        &mut self,
        kernel: FusedKernel<'_>,
        bound: &SpectralBound,
        state: &mut StateVector,
        duration: f64,
        reference_norm: f64,
    ) {
        if let Err(error) = self.try_evolve_segment(kernel, bound, state, duration, reference_norm)
        {
            panic!("{error}");
        }
    }

    /// Number of `H|ψ⟩` kernel applications performed since construction or
    /// the last [`reset_kernel_applications`](Stepper::reset_kernel_applications)
    /// — the backend-independent measure of work.
    fn kernel_applications(&self) -> u64;

    /// Number of state-sized **amplitude passes** performed since
    /// construction or the last reset: every full traversal of a `2ⁿ`-sized
    /// amplitude array (each read stream and each write stream counted as
    /// one). This is the memory-traffic currency the batched multi-segment
    /// sweep exists to reduce — a fused kernel application costs ~4 passes
    /// (gather-read, output write, accumulator read + write), while the
    /// per-segment overhead (series copy, norm, rescale) is pure passes with
    /// no arithmetic payload. Ticked through the typed [`Passes`] counter at
    /// each operation site, so the tally is exact by construction for every
    /// backend — including Krylov's reorthogonalization sweeps and
    /// Chebyshev's recurrence, whose adaptive iteration counts older
    /// revisions could only estimate.
    fn state_passes(&self) -> u64;

    /// Resets the application and pass counters.
    fn reset_kernel_applications(&mut self);

    /// Snapshots this backend's cumulative work counters as a telemetry
    /// [`StepperSpan`](crate::telemetry::StepperSpan). `kind` names the
    /// backend in the span (the trait object does not know its own
    /// [`StepperKind`]). Counters are cumulative since construction or the
    /// last reset.
    fn telemetry_span(&self, kind: StepperKind) -> crate::telemetry::StepperSpan {
        crate::telemetry::StepperSpan {
            backend: kind,
            applications: self.kernel_applications(),
            state_passes: self.state_passes(),
        }
    }
}

/// Validates a stepper tolerance at the point of use: the [`EvolveOptions`]
/// fields are public, so a hand-built value can sidestep
/// [`EvolveOptions::with_tolerance`]'s check — and a non-positive tolerance
/// would make the adaptive steppers' convergence loops spin forever instead
/// of failing loudly.
fn validated_tolerance(tolerance: f64) -> f64 {
    assert!(
        tolerance.is_finite() && tolerance > 0.0,
        "stepper tolerance must be positive and finite, got {tolerance}"
    );
    tolerance
}

/// Rescales `state` to `reference_norm` (numerical drift correction — the
/// exact evolution is unitary, so the norm must not move).
pub(crate) fn rescale_to(state: &mut StateVector, reference_norm: f64) {
    let norm = state.norm();
    if norm > 0.0 {
        state.scale(reference_norm / norm);
    }
}

/// The guarded drift correction: the same norm-and-rescale pass as
/// [`rescale_to`], but the norm it computes anyway is first checked against
/// the guardrails — non-finite detection and the [`NORM_DRIFT_LIMIT`]
/// threshold — so health checking costs **zero extra amplitude passes** on
/// the happy path.
pub(crate) fn checked_rescale_to(
    state: &mut StateVector,
    reference_norm: f64,
    backend: StepperKind,
) -> Result<(), EvolveError> {
    let norm = state.norm();
    if !norm.is_finite() {
        return Err(EvolveError::NonFiniteState {
            backend,
            segment: None,
        });
    }
    if reference_norm > 0.0 {
        let relative_drift = (norm - reference_norm).abs() / reference_norm;
        if relative_drift > NORM_DRIFT_LIMIT {
            return Err(EvolveError::NormDrift {
                backend,
                segment: None,
                relative_drift,
            });
        }
    }
    if norm > 0.0 {
        state.scale(reference_norm / norm);
    }
    Ok(())
}

/// Guards an intermediate series/residual norm a kernel application already
/// returned: any NaN or infinity in the amplitudes surfaces in these norms,
/// so checking them detects corruption with no extra traversal.
fn guard_finite(norm: f64, backend: StepperKind) -> Result<(), EvolveError> {
    if norm.is_finite() {
        Ok(())
    } else {
        Err(EvolveError::NonFiniteState {
            backend,
            segment: None,
        })
    }
}

/// Advances `state` by `exp(−i·center·duration)` — the **exact** evolution
/// of a segment whose [`SpectralBound`] has `radius == 0`, i.e. `H =
/// center·I` (rigorously: the triangle radius is `Σ|w|` over the
/// non-identity terms, so zero radius means every non-identity weight
/// vanishes — the shape [`crate::CompiledSchedule::scaled_weights`]`(0.0)`
/// produces for every segment, and any pure identity-shift segment).
///
/// Every stepper short-circuits through this instead of grinding its
/// generic scheme through `step_strength`-many degenerate steps (the
/// pre-fix Taylor path spent `⌈2·|center|·t/½⌉` kernel applications on a
/// pure phase). Returns the number of amplitude passes spent (`0` when the
/// phase is exactly `1`).
fn apply_identity_phase(state: &mut StateVector, center: f64, duration: f64) -> u64 {
    let phase = Complex::from_polar_angle(-center * duration);
    if phase == Complex::ONE {
        return 0;
    }
    for amp in state.amplitudes_mut() {
        *amp = phase * *amp;
    }
    2
}

// ---------------------------------------------------------------------------
// Taylor
// ---------------------------------------------------------------------------

/// The reference backend: scaled Taylor series with `‖H‖·Δt ≤ ½` splitting.
///
/// This is the original propagation loop of `propagate.rs`, refactored
/// behind the [`Stepper`] trait — step counts, truncation semantics, and
/// numerics are unchanged.
#[derive(Debug, Clone)]
pub struct TaylorStepper {
    series: StateVector,
    series_next: StateVector,
    context: ExecutionContext,
    tolerance: f64,
    applications: u64,
    passes: Passes,
}

impl TaylorStepper {
    /// Creates the stepper with minimal scratch buffers (resized on first
    /// use), executing kernels under [`ExecutionContext::auto`].
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite.
    pub fn new(tolerance: f64) -> Self {
        TaylorStepper::with_context(tolerance, ExecutionContext::auto())
    }

    /// Creates the stepper with an explicit [`ExecutionContext`] (worker
    /// count, parallel threshold, kernel path) applied to every kernel
    /// application.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite.
    pub fn with_context(tolerance: f64, context: ExecutionContext) -> Self {
        TaylorStepper {
            series: StateVector::zeros(0),
            series_next: StateVector::zeros(0),
            context,
            tolerance: validated_tolerance(tolerance),
            applications: 0,
            passes: Passes::new(),
        }
    }

    fn ensure_capacity(&mut self, num_qubits: usize) {
        if self.series.num_qubits() != num_qubits || self.series.dim() != 1 << num_qubits {
            self.series = StateVector::zeros(num_qubits);
            self.series_next = StateVector::zeros(num_qubits);
        }
    }

    /// One in-place Taylor step
    /// `|ψ⟩ ← Σ_k (−i·dt)ᵏ/k! · Hᵏ|ψ⟩`, truncated once the next term drops
    /// below `tolerance · reference_norm` (relative truncation).
    fn taylor_step(
        &mut self,
        kernel: FusedKernel<'_>,
        state: &mut StateVector,
        dt: f64,
        reference_norm: f64,
    ) -> Result<(), EvolveError> {
        self.series.copy_from(state);
        self.passes.copy();
        let mut factor = Complex::ONE;
        let threshold = self.tolerance * reference_norm;
        for k in 1..=MAX_TAYLOR_ORDER {
            factor = factor * Complex::new(0.0, -dt) / (k as f64);
            // One fused sweep: series_next = H·series, state += factor·
            // series_next, and ‖series_next‖ for the convergence check.
            let series_norm = kernel.apply_accumulate_into_with(
                &self.context,
                &self.series,
                &mut self.series_next,
                state,
                factor,
            );
            self.applications += 1;
            self.passes.apply_accumulate();
            std::mem::swap(&mut self.series, &mut self.series_next);
            guard_finite(series_norm, StepperKind::Taylor)?;
            if series_norm * factor.abs() < threshold {
                break;
            }
        }
        Ok(())
    }
}

impl Stepper for TaylorStepper {
    /// On error the state may be left mid-segment: Taylor is the fallback
    /// backend of last resort, so its failures are not rolled back here (the
    /// schedule loop snapshots before fault-suspect segments instead).
    fn try_evolve_segment(
        &mut self,
        kernel: FusedKernel<'_>,
        bound: &SpectralBound,
        state: &mut StateVector,
        duration: f64,
        reference_norm: f64,
    ) -> Result<(), EvolveError> {
        if bound.radius == 0.0 {
            // H = center·I exactly: a global phase, zero kernel work (the
            // generic loop would split this into step_strength·t/½ steps of
            // pure-phase series — the zero-scale / pure-identity degeneracy).
            self.passes
                .add(apply_identity_phase(state, bound.center, duration));
            return Ok(());
        }
        self.ensure_capacity(state.num_qubits());
        // Split into steps so that the Taylor series of each step converges
        // fast.
        let steps = taylor_steps(bound, duration) as usize;
        let dt = duration / steps as f64;
        for _ in 0..steps {
            self.taylor_step(kernel, state, dt, reference_norm)?;
            checked_rescale_to(state, reference_norm, StepperKind::Taylor)?;
            self.passes.rescale();
        }
        Ok(())
    }

    fn kernel_applications(&self) -> u64 {
        self.applications
    }

    fn state_passes(&self) -> u64 {
        self.passes.count()
    }

    fn reset_kernel_applications(&mut self) {
        self.applications = 0;
        self.passes.reset();
    }
}

// ---------------------------------------------------------------------------
// Batched multi-segment Taylor
// ---------------------------------------------------------------------------

/// The batched multi-segment Taylor sweep: the same series as
/// [`TaylorStepper`] — identical `‖H‖·Δt ≤ ½` step splitting, identical
/// per-order truncation rule, identical term values — evaluated with the
/// per-step overhead passes fused away.
///
/// # How the passes disappear
///
/// A `k`-order per-segment Taylor step spends ~`4k + 5` state-sized
/// traversals, of which 5 carry no gather work at all: the `copy_from` that
/// seeds the series with the current state (2), and the norm + rescale
/// passes of the per-step drift correction (3). The batched sweep
/// eliminates every one of them without adding gather cost anywhere:
///
/// * **No series copy.** The first kernel application of a step reads the
///   state directly ([`FusedKernel::apply_into`]) — 2 traversals instead of
///   the copy (2) plus a 4-traversal apply-accumulate.
/// * **Fused first-and-second-order update.** Because the first application
///   could not accumulate into the state it was reading, its first-order
///   term is retired one pass later, fused with the second-order term in a
///   single traversal ([`FusedKernel::apply_accumulate_both_into_with`] —
///   `ψ += f₁·Hψ + f₂·H²ψ`; the `Hψ` element is already loaded for the
///   gathers, so the extra accumulation is free). Higher orders proceed
///   exactly as the per-segment path does.
/// * **Run-end drift correction.** The per-step norm-and-rescale is
///   deferred to a single correction at the end of the run. The exact
///   evolution is unitary, so the per-step corrections it replaces were
///   `1 + O(ε)` scalars; deferring them moves results by `≲ steps · ε` —
///   orders of magnitude inside the 1e-10 conformance window.
///
/// A *run* may span *many segments*: on a compiled schedule
/// ([`crate::CompiledSchedule`]), consecutive same-layout segments (the
/// [`batch_runs`](crate::CompiledSchedule::batch_runs) grouping) chain
/// through [`begin_run`](BatchedTaylorStepper::begin_run) /
/// [`run_segment`](BatchedTaylorStepper::run_segment) /
/// [`finish_run`](BatchedTaylorStepper::finish_run) in one sweep: the mask
/// arrays are read once from the shared layout while the weights walk
/// adjacent rows of the columnar weight matrix, and the whole run pays one
/// drift correction instead of one per step. On a dense ramp of tiny
/// segments (Taylor order ~6–9 each) this removes ~15–25% of all amplitude
/// passes — see the `dense_ramp` entries of `BENCH_schedule.json`, which
/// gate the batched path against per-segment Taylor in CI.
///
/// [`Stepper::evolve_segment`] evolves a single segment as a run of one —
/// even the constant-Hamiltonian path saves the copy and per-step rescale
/// passes.
#[derive(Debug, Clone)]
pub struct BatchedTaylorStepper {
    series: StateVector,
    series_next: StateVector,
    reference_norm: f64,
    /// Whether the open run has applied any kernel work (drift corrections
    /// are only owed — and only meaningful — after real applications).
    dirty: bool,
    context: ExecutionContext,
    tolerance: f64,
    applications: u64,
    passes: Passes,
}

impl BatchedTaylorStepper {
    /// Creates the stepper with minimal scratch buffers (resized on first
    /// use), executing kernels under [`ExecutionContext::auto`].
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite.
    pub fn new(tolerance: f64) -> Self {
        BatchedTaylorStepper::with_context(tolerance, ExecutionContext::auto())
    }

    /// Creates the stepper with an explicit [`ExecutionContext`] applied to
    /// every kernel application.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite.
    pub fn with_context(tolerance: f64, context: ExecutionContext) -> Self {
        BatchedTaylorStepper {
            series: StateVector::zeros(0),
            series_next: StateVector::zeros(0),
            reference_norm: 1.0,
            dirty: false,
            context,
            tolerance: validated_tolerance(tolerance),
            applications: 0,
            passes: Passes::new(),
        }
    }

    fn ensure_capacity(&mut self, num_qubits: usize) {
        if self.series.num_qubits() != num_qubits || self.series.dim() != 1 << num_qubits {
            self.series = StateVector::zeros(num_qubits);
            self.series_next = StateVector::zeros(num_qubits);
        }
    }

    /// Opens a batched run over `state`: sizes the scratch buffers and
    /// records the reference norm every truncation threshold and the
    /// run-end drift correction are relative to.
    ///
    /// The caller drives any number of
    /// [`run_segment`](BatchedTaylorStepper::run_segment) calls against the
    /// **same** state and closes the run with
    /// [`finish_run`](BatchedTaylorStepper::finish_run), which applies the
    /// single deferred drift correction.
    pub fn begin_run(&mut self, state: &StateVector, reference_norm: f64) {
        self.ensure_capacity(state.num_qubits());
        self.reference_norm = reference_norm;
        self.dirty = false;
    }

    /// Evolves one segment inside an open run: `|ψ⟩ ← exp(−i·H·duration)|ψ⟩`
    /// where `H` is the operator `kernel` applies.
    ///
    /// Step splitting, series orders, and the truncation rule are identical
    /// to [`TaylorStepper`]; only the pass structure differs (see the type
    /// docs).
    pub fn run_segment(
        &mut self,
        kernel: FusedKernel<'_>,
        bound: &SpectralBound,
        state: &mut StateVector,
        duration: f64,
    ) {
        if let Err(error) = self.try_run_segment(kernel, bound, state, duration) {
            panic!("{error}");
        }
    }

    /// Fallible variant of [`run_segment`](BatchedTaylorStepper::run_segment).
    ///
    /// # Errors
    ///
    /// Returns [`EvolveError::NonFiniteState`] when a series norm turns NaN
    /// or infinite mid-run. The state is left mid-segment (the deferred
    /// drift correction makes segment-boundary rollback impossible inside a
    /// chained run; callers snapshot before fault-suspect runs).
    pub fn try_run_segment(
        &mut self,
        kernel: FusedKernel<'_>,
        bound: &SpectralBound,
        state: &mut StateVector,
        duration: f64,
    ) -> Result<(), EvolveError> {
        if kernel.is_empty() || duration == 0.0 {
            return Ok(());
        }
        if bound.radius == 0.0 {
            // H = center·I exactly: a global phase, zero kernel work.
            self.passes
                .add(apply_identity_phase(state, bound.center, duration));
            return Ok(());
        }
        self.dirty = true;
        let steps = taylor_steps(bound, duration) as usize;
        let dt = duration / steps as f64;
        let threshold = self.tolerance * self.reference_norm;
        for _ in 0..steps {
            // --- Order 1: series = H·ψ, read straight off the state (the
            // per-segment path would copy the state first). Its
            // accumulation is retired one pass later. ---
            let f1 = Complex::new(0.0, -dt);
            let order1_norm = kernel.apply_into_with(&self.context, state, &mut self.series);
            self.applications += 1;
            self.passes.apply();
            guard_finite(order1_norm, StepperKind::BatchedTaylor)?;
            if order1_norm * f1.abs() < threshold {
                // Single-order step: retire the lone term directly.
                state.accumulate(f1, &self.series);
                self.passes.axpy();
                continue;
            }
            // --- Order 2, fused with order 1's accumulation:
            // ψ += f₁·series + f₂·(H·series), one traversal. ---
            let mut factor = f1 * Complex::new(0.0, -dt) / 2.0;
            let norm = kernel.apply_accumulate_both_into_with(
                &self.context,
                &self.series,
                &mut self.series_next,
                state,
                f1,
                factor,
            );
            self.applications += 1;
            self.passes.apply_accumulate();
            std::mem::swap(&mut self.series, &mut self.series_next);
            guard_finite(norm, StepperKind::BatchedTaylor)?;
            if norm * factor.abs() < threshold {
                continue;
            }
            // --- Orders 3..k: the per-segment path's fused
            // apply-accumulate, unchanged. ---
            for k in 3..=MAX_TAYLOR_ORDER {
                factor = factor * Complex::new(0.0, -dt) / (k as f64);
                let norm = kernel.apply_accumulate_into_with(
                    &self.context,
                    &self.series,
                    &mut self.series_next,
                    state,
                    factor,
                );
                self.applications += 1;
                self.passes.apply_accumulate();
                std::mem::swap(&mut self.series, &mut self.series_next);
                guard_finite(norm, StepperKind::BatchedTaylor)?;
                if norm * factor.abs() < threshold {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Closes a batched run: applies the single deferred drift correction
    /// back to the reference norm (the per-segment path rescales after
    /// every step; the batch pays once per run).
    pub fn finish_run(&mut self, state: &mut StateVector) {
        if let Err(error) = self.try_finish_run(state) {
            panic!("{error}");
        }
    }

    /// Fallible variant of [`finish_run`](BatchedTaylorStepper::finish_run):
    /// the run-end drift correction doubles as the run's guardrail check.
    ///
    /// # Errors
    ///
    /// Returns [`EvolveError::NonFiniteState`] or [`EvolveError::NormDrift`]
    /// when the run-end norm fails the health checks.
    pub fn try_finish_run(&mut self, state: &mut StateVector) -> Result<(), EvolveError> {
        if self.dirty {
            self.dirty = false;
            checked_rescale_to(state, self.reference_norm, StepperKind::BatchedTaylor)?;
            self.passes.rescale();
        }
        // A clean run did no kernel work (only exact phases), so the norm
        // never moved and no correction is owed.
        Ok(())
    }
}

impl Stepper for BatchedTaylorStepper {
    /// On error the state may be left mid-segment (see
    /// [`try_run_segment`](BatchedTaylorStepper::try_run_segment)).
    fn try_evolve_segment(
        &mut self,
        kernel: FusedKernel<'_>,
        bound: &SpectralBound,
        state: &mut StateVector,
        duration: f64,
        reference_norm: f64,
    ) -> Result<(), EvolveError> {
        self.begin_run(state, reference_norm);
        self.try_run_segment(kernel, bound, state, duration)?;
        self.try_finish_run(state)
    }

    fn kernel_applications(&self) -> u64 {
        self.applications
    }

    fn state_passes(&self) -> u64 {
        self.passes.count()
    }

    fn reset_kernel_applications(&mut self) {
        self.applications = 0;
        self.passes.reset();
    }
}

// ---------------------------------------------------------------------------
// Block Taylor (structure-of-arrays realization batching)
// ---------------------------------------------------------------------------

/// The batched Taylor scheme evaluated over a whole [`RealizationBlock`]:
/// every noise realization of a device sweep advances together through one
/// [`BlockKernel`] application per series order.
///
/// Numerics mirror [`BatchedTaylorStepper`] exactly — same step splitting
/// (sized by the *largest* per-realization amplitude scale, so every
/// realization's per-step phase stays under `MAX_STEP_PHASE`), same series
/// orders and fused first-and-second-order traversal, same deferred run-end
/// drift correction (applied per realization, since each realization drifts
/// independently). The truncation threshold is relative to the block's
/// Frobenius norm, which tightens — never loosens — the per-realization
/// truncation against the sequential reference.
///
/// Counters report realization-equivalents: one block kernel application
/// counts as `R` applications and `R`-fold amplitude passes, so telemetry
/// stays comparable with the sequential per-realization loop.
#[derive(Debug, Clone)]
pub struct BlockTaylorStepper {
    series: RealizationBlock,
    series_next: RealizationBlock,
    /// Per-realization run-entry norms (the drift-correction references).
    reference_norms: Vec<f64>,
    /// Frobenius norm of the whole block at run entry (the truncation
    /// threshold reference).
    reference_norm: f64,
    /// Scratch for per-realization identity phases.
    phases: Vec<Complex>,
    /// Whether the open run has applied any kernel work (drift corrections
    /// are only owed — and only meaningful — after real applications).
    dirty: bool,
    context: ExecutionContext,
    tolerance: f64,
    applications: u64,
    passes: Passes,
}

impl BlockTaylorStepper {
    /// Creates the stepper with minimal scratch buffers (resized on first
    /// use), executing kernels under [`ExecutionContext::auto`].
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite.
    pub fn new(tolerance: f64) -> Self {
        BlockTaylorStepper::with_context(tolerance, ExecutionContext::auto())
    }

    /// Creates the stepper with an explicit [`ExecutionContext`] applied to
    /// every kernel application.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite.
    pub fn with_context(tolerance: f64, context: ExecutionContext) -> Self {
        BlockTaylorStepper {
            series: RealizationBlock::zeros(0, 1),
            series_next: RealizationBlock::zeros(0, 1),
            reference_norms: Vec::new(),
            reference_norm: 1.0,
            phases: Vec::new(),
            dirty: false,
            context,
            tolerance: validated_tolerance(tolerance),
            applications: 0,
            passes: Passes::new(),
        }
    }

    fn ensure_capacity(&mut self, num_qubits: usize, realizations: usize) {
        if self.series.num_qubits() != num_qubits || self.series.realizations() != realizations {
            self.series = RealizationBlock::zeros(num_qubits, realizations);
            self.series_next = RealizationBlock::zeros(num_qubits, realizations);
        }
    }

    /// Opens a block run over `block`: sizes the scratch blocks and records
    /// the per-realization reference norms every drift correction — and the
    /// Frobenius norm every truncation threshold — is relative to.
    ///
    /// The caller drives any number of
    /// [`try_run_segment`](BlockTaylorStepper::try_run_segment) calls
    /// against the **same** block and closes the run with
    /// [`try_finish_run`](BlockTaylorStepper::try_finish_run), which applies
    /// the deferred per-realization drift corrections.
    pub fn begin_run(&mut self, block: &RealizationBlock) {
        self.ensure_capacity(block.num_qubits(), block.realizations());
        self.reference_norms.clear();
        self.reference_norms
            .extend((0..block.realizations()).map(|r| block.realization_norm(r)));
        self.reference_norm = self
            .reference_norms
            .iter()
            .map(|n| n * n)
            .sum::<f64>()
            .sqrt();
        self.dirty = false;
    }

    /// Evolves one segment inside an open run:
    /// `|ψ_r⟩ ← exp(−i·s_r·H·duration)|ψ_r⟩` for every realization `r`,
    /// where `H` is the base operator and `s_r` the per-realization
    /// amplitude scale already folded into `kernel`'s weight lanes.
    ///
    /// `bound` is the **unscaled** segment bound and `scales` the
    /// per-realization amplitude scales (padding entries beyond the live
    /// realizations are ignored): steps are sized by `bound` stretched to
    /// the largest `|s_r|`, so the fastest realization still satisfies the
    /// `MAX_STEP_PHASE` splitting rule.
    ///
    /// # Errors
    ///
    /// Returns [`EvolveError::NonFiniteState`] when a series norm turns NaN
    /// or infinite mid-run. The block is left mid-segment (the deferred
    /// drift correction makes segment-boundary rollback impossible inside a
    /// chained run; callers snapshot before fault-suspect runs).
    pub fn try_run_segment(
        &mut self,
        kernel: BlockKernel<'_>,
        bound: &SpectralBound,
        scales: &[f64],
        block: &mut RealizationBlock,
        duration: f64,
    ) -> Result<(), EvolveError> {
        if kernel.is_empty() || duration == 0.0 {
            return Ok(());
        }
        let realizations = block.realizations() as u64;
        if bound.radius == 0.0 {
            // H = center·I exactly: a per-realization global phase (the
            // miscalibration scale multiplies the identity shift), zero
            // kernel work.
            self.phases.clear();
            self.phases.extend(
                scales[..block.realizations()]
                    .iter()
                    .map(|s| Complex::from_polar_angle(-bound.center * s * duration)),
            );
            if self.phases.iter().any(|&phase| phase != Complex::ONE) {
                block.apply_phases(&self.phases);
                self.passes.add(2 * realizations);
            }
            return Ok(());
        }
        self.dirty = true;
        let max_abs_scale = scales.iter().fold(0.0f64, |acc, s| acc.max(s.abs()));
        let scaled_bound = SpectralBound {
            center: bound.center * max_abs_scale,
            radius: bound.radius * max_abs_scale,
            step_strength: bound.step_strength * max_abs_scale,
        };
        let steps = taylor_steps(&scaled_bound, duration) as usize;
        let dt = duration / steps as f64;
        let threshold = self.tolerance * self.reference_norm;
        for _ in 0..steps {
            // --- Order 1: series = H·ψ, read straight off the block; its
            // accumulation is retired one pass later. ---
            let f1 = Complex::new(0.0, -dt);
            let order1_norm = kernel.apply_into_with(&self.context, block, &mut self.series);
            self.applications += realizations;
            self.passes.add(2 * realizations);
            guard_finite(order1_norm, StepperKind::BatchedTaylor)?;
            if order1_norm * f1.abs() < threshold {
                // Single-order step: retire the lone term directly.
                block.accumulate(f1, &self.series);
                self.passes.add(3 * realizations);
                continue;
            }
            // --- Order 2, fused with order 1's accumulation:
            // ψ += f₁·series + f₂·(H·series), one traversal. ---
            let mut factor = f1 * Complex::new(0.0, -dt) / 2.0;
            let norm = kernel.apply_accumulate_both_into_with(
                &self.context,
                &self.series,
                &mut self.series_next,
                block,
                f1,
                factor,
            );
            self.applications += realizations;
            self.passes.add(4 * realizations);
            std::mem::swap(&mut self.series, &mut self.series_next);
            guard_finite(norm, StepperKind::BatchedTaylor)?;
            if norm * factor.abs() < threshold {
                continue;
            }
            // --- Orders 3..k: fused apply-accumulate, unchanged. ---
            for k in 3..=MAX_TAYLOR_ORDER {
                factor = factor * Complex::new(0.0, -dt) / (k as f64);
                let norm = kernel.apply_accumulate_into_with(
                    &self.context,
                    &self.series,
                    &mut self.series_next,
                    block,
                    factor,
                );
                self.applications += realizations;
                self.passes.add(4 * realizations);
                std::mem::swap(&mut self.series, &mut self.series_next);
                guard_finite(norm, StepperKind::BatchedTaylor)?;
                if norm * factor.abs() < threshold {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Closes a block run: applies the deferred drift correction per
    /// realization, back to each realization's run-entry norm. The run-end
    /// norms double as the run's guardrail check.
    ///
    /// # Errors
    ///
    /// Returns [`EvolveError::NonFiniteState`] or [`EvolveError::NormDrift`]
    /// when any realization's run-end norm fails the health checks.
    pub fn try_finish_run(&mut self, block: &mut RealizationBlock) -> Result<(), EvolveError> {
        if !self.dirty {
            // A clean run did no kernel work (only exact phases), so no norm
            // moved and no correction is owed.
            return Ok(());
        }
        self.dirty = false;
        for r in 0..block.realizations() {
            let reference = self.reference_norms[r];
            let norm = block.realization_norm(r);
            if !norm.is_finite() {
                return Err(EvolveError::NonFiniteState {
                    backend: StepperKind::BatchedTaylor,
                    segment: None,
                });
            }
            if reference > 0.0 {
                let relative_drift = (norm - reference).abs() / reference;
                if relative_drift > NORM_DRIFT_LIMIT {
                    return Err(EvolveError::NormDrift {
                        backend: StepperKind::BatchedTaylor,
                        segment: None,
                        relative_drift,
                    });
                }
            }
            if norm > 0.0 {
                block.scale_realization(r, reference / norm);
            }
        }
        self.passes.add(3 * block.realizations() as u64);
        Ok(())
    }

    /// Total `H|ψ⟩` applications in realization-equivalents (one block
    /// application counts `R`).
    pub fn kernel_applications(&self) -> u64 {
        self.applications
    }

    /// Total state-sized amplitude passes in realization-equivalents.
    pub fn state_passes(&self) -> u64 {
        self.passes.count()
    }

    /// Resets the application and pass counters.
    pub fn reset_kernel_applications(&mut self) {
        self.applications = 0;
        self.passes.reset();
    }
}

// ---------------------------------------------------------------------------
// Lanczos–Krylov
// ---------------------------------------------------------------------------

/// The adaptive Lanczos–Krylov backend.
///
/// Per step: build an orthonormal Krylov basis `{ψ, Hψ, H²ψ, …}` with the
/// three-term Lanczos recurrence plus full reorthogonalization (required to
/// hold 1e-14-level accuracy past a handful of vectors), project `H` onto it
/// as a real symmetric tridiagonal matrix, exponentiate the projection
/// exactly through its eigendecomposition, and advance by the largest `Δt ≤
/// remaining` whose residual estimate `β_m·Δt·|φ_m(Δt)|` stays below
/// tolerance. Basis construction stops early as soon as the remaining
/// duration converges (adaptive dimension); if even the full basis cannot
/// cover the remainder, the step shrinks along the scheme's `Δt^m` error
/// power law (adaptive step).
#[derive(Debug, Clone)]
pub struct KrylovStepper {
    /// Lanczos vectors `v_0 … v_m` (the `m+1`-th is the unnormalized
    /// residual workspace while building).
    basis: Vec<StateVector>,
    /// Segment-entry snapshot: restored on any guardrail failure so the
    /// caller always gets the state back at the segment boundary
    /// (rollback-safe error contract).
    snapshot: StateVector,
    /// Armed by [`force_ql_nonconvergence`](KrylovStepper::force_ql_nonconvergence)
    /// (fault injection): the next projected eigensolve reports
    /// non-convergence instead of running.
    force_ql_failure: bool,
    context: ExecutionContext,
    tolerance: f64,
    applications: u64,
    passes: Passes,
}

impl KrylovStepper {
    /// Creates the stepper; basis vectors are allocated lazily per register
    /// size and reused across steps and segments. Kernels execute under
    /// [`ExecutionContext::auto`].
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite.
    pub fn new(tolerance: f64) -> Self {
        KrylovStepper::with_context(tolerance, ExecutionContext::auto())
    }

    /// Creates the stepper with an explicit [`ExecutionContext`] applied to
    /// every kernel application.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite.
    pub fn with_context(tolerance: f64, context: ExecutionContext) -> Self {
        KrylovStepper {
            basis: Vec::new(),
            snapshot: StateVector::zeros(0),
            force_ql_failure: false,
            context,
            tolerance: validated_tolerance(tolerance),
            applications: 0,
            passes: Passes::new(),
        }
    }

    /// Forces the next projected eigensolve to report
    /// [`MathError::NoConvergence`] (consumed by that one solve). Exists for
    /// the fault-injection harness: real QL non-convergence is not reachable
    /// from finite Lanczos coefficients, so exercising the recovery path
    /// requires forcing it.
    pub fn force_ql_nonconvergence(&mut self) {
        self.force_ql_failure = true;
    }

    /// Disarms a pending forced QL failure (used by the schedule loop after
    /// a fault-injected segment so the failure cannot leak into later,
    /// un-faulted segments).
    pub fn clear_forced_ql_failure(&mut self) {
        self.force_ql_failure = false;
    }

    /// Projected eigendecomposition of the Lanczos tridiagonal, surfacing
    /// solver failures as [`EvolveError::NonConvergence`] instead of
    /// panicking, and honoring a pending forced failure.
    fn projected_eigen(
        &mut self,
        alphas: &[f64],
        off_diagonal: &[f64],
    ) -> Result<TridiagonalEigen, EvolveError> {
        let wrap = |source: MathError| EvolveError::NonConvergence {
            backend: StepperKind::Krylov,
            segment: None,
            source,
        };
        if self.force_ql_failure {
            self.force_ql_failure = false;
            return Err(wrap(MathError::NoConvergence {
                routine: "tridiagonal_ql (forced by fault injection)",
                iterations: 0,
            }));
        }
        SymmetricTridiagonal::new(alphas.to_vec(), off_diagonal.to_vec())
            .and_then(|tridiagonal| tridiagonal.eigen_decomposition())
            .map_err(wrap)
    }

    fn ensure_basis(&mut self, count: usize, num_qubits: usize) {
        if self
            .basis
            .first()
            .is_some_and(|v| v.num_qubits() != num_qubits || v.dim() != 1 << num_qubits)
        {
            self.basis.clear();
        }
        while self.basis.len() < count {
            self.basis.push(StateVector::zeros(num_qubits));
        }
    }

    /// `φ(dt) = exp(−i·dt·T_m)·e₁` through the projected eigendecomposition,
    /// returned as complex coefficients over the Lanczos basis.
    fn projected_exponential(eigen: &TridiagonalEigen, dt: f64) -> Vec<Complex> {
        let m = eigen.eigenvalues.len();
        let v = &eigen.eigenvectors;
        let mut phi = vec![Complex::ZERO; m];
        for (k, &lambda) in eigen.eigenvalues.iter().enumerate() {
            // coefficient of eigenpair k in exp(−i·dt·T)·e₁: phase · V[0][k]
            let coefficient = Complex::from_polar_angle(-dt * lambda).scale(v.row(0)[k]);
            for (j, slot) in phi.iter_mut().enumerate() {
                *slot += coefficient.scale(v.row(j)[k]);
            }
        }
        phi
    }

    /// Residual-based local error estimate of one Krylov step: the next
    /// basis vector's weight `β_m`, integrated over the step.
    fn error_estimate(beta_last: f64, dt: f64, phi: &[Complex]) -> f64 {
        beta_last * dt * phi.last().map_or(0.0, |p| p.abs())
    }
}

impl Stepper for KrylovStepper {
    /// Rollback-safe: on any error `state` is restored to the segment
    /// boundary from the entry snapshot, so the caller can retry the segment
    /// with another backend.
    fn try_evolve_segment(
        &mut self,
        kernel: FusedKernel<'_>,
        bound: &SpectralBound,
        state: &mut StateVector,
        duration: f64,
        reference_norm: f64,
    ) -> Result<(), EvolveError> {
        if bound.radius == 0.0 {
            // H = center·I exactly: a global phase. The generic path would
            // build a one-vector basis and β-normalize a zero residual —
            // correct via happy breakdown, but pure wasted passes.
            self.passes
                .add(apply_identity_phase(state, bound.center, duration));
            return Ok(());
        }
        // Segment-entry snapshot: two passes per segment buy the rollback
        // contract (Krylov overwrites its own basis[0] every step, so no
        // existing buffer holds the entry state).
        if self.snapshot.num_qubits() != state.num_qubits() || self.snapshot.dim() != state.dim() {
            self.snapshot = StateVector::zeros(state.num_qubits());
        }
        self.snapshot.copy_from(state);
        self.passes.copy();
        let result = self.evolve_segment_body(kernel, state, duration, reference_norm);
        if result.is_err() {
            state.copy_from(&self.snapshot);
            self.passes.copy();
        }
        result
    }

    fn kernel_applications(&self) -> u64 {
        self.applications
    }

    fn state_passes(&self) -> u64 {
        self.passes.count()
    }

    fn reset_kernel_applications(&mut self) {
        self.applications = 0;
        self.passes.reset();
    }
}

impl KrylovStepper {
    fn evolve_segment_body(
        &mut self,
        kernel: FusedKernel<'_>,
        state: &mut StateVector,
        duration: f64,
        reference_norm: f64,
    ) -> Result<(), EvolveError> {
        let num_qubits = state.num_qubits();
        let mut remaining = duration;
        while remaining > 0.0 {
            // --- Build the Lanczos basis from the current state. ---
            self.ensure_basis(2, num_qubits);
            self.basis[0].copy_from(state);
            self.passes.copy();
            self.basis[0].scale(1.0 / reference_norm);
            self.passes.scale();
            let mut alphas: Vec<f64> = Vec::with_capacity(KRYLOV_MAX_DIM);
            let mut betas: Vec<f64> = Vec::with_capacity(KRYLOV_MAX_DIM);
            let mut eigen: Option<TridiagonalEigen> = None;
            let mut happy_breakdown = false;
            // Residual tests cost an O(dim³) eigensolve each; run them on a
            // geometric ladder of dimensions (3, 5, 8, 12, 18, 27, 32)
            // instead of every iteration so the per-step setup cost stays a
            // fraction of the basis-construction kernel work.
            let mut next_test = KRYLOV_MIN_DIM;

            loop {
                let m = alphas.len();
                self.ensure_basis(m + 2, num_qubits);
                // w = H·v_m, then orthogonalize against v_m and v_{m−1}.
                let (head, tail) = self.basis.split_at_mut(m + 1);
                let v_m = &head[m];
                let w = &mut tail[0];
                kernel.apply_into_with(&self.context, v_m, w);
                self.applications += 1;
                self.passes.apply();
                let alpha = v_m.inner_product(w).re;
                self.passes.inner();
                w.accumulate(Complex::from_real(-alpha), v_m);
                self.passes.axpy();
                if m > 0 {
                    let beta_prev = betas[m - 1];
                    w.accumulate(Complex::from_real(-beta_prev), &head[m - 1]);
                    self.passes.axpy();
                }
                // Full reorthogonalization: one classical Gram–Schmidt pass
                // against the whole basis. Without it, orthogonality decays
                // as eigenpairs converge and the projected exponential loses
                // digits well before 1e-14.
                for v in head.iter() {
                    let overlap = v.inner_product(w);
                    self.passes.inner();
                    if overlap.abs() > 0.0 {
                        w.accumulate(-overlap, v);
                        self.passes.axpy();
                    }
                }
                alphas.push(alpha);
                let beta = w.norm();
                self.passes.norm();
                betas.push(beta);
                // Lanczos sanity: α and β are inner products / norms of the
                // basis vectors — any NaN or infinity in the state surfaces
                // here immediately, with no extra amplitude pass.
                if !alpha.is_finite() || !beta.is_finite() {
                    return Err(EvolveError::NonFiniteState {
                        backend: StepperKind::Krylov,
                        segment: None,
                    });
                }

                // Happy breakdown: the Krylov space is H-invariant, so the
                // projected exponential is exact for any Δt. Any
                // eigendecomposition computed at a smaller dimension is
                // stale now — drop it so the final one matches `alphas`.
                let alpha_scale = alphas.iter().fold(0.0f64, |acc, a| acc.max(a.abs()));
                if beta <= 1e-14 * alpha_scale.max(1.0) {
                    happy_breakdown = true;
                    eigen.take();
                    break;
                }

                let dim = alphas.len();
                // Adaptive basis dimension: stop growing as soon as the
                // residual estimate for the whole remaining duration
                // converges (tested on the geometric ladder, and always at
                // the hard cap).
                if dim >= next_test || dim >= KRYLOV_MAX_DIM {
                    next_test = (dim + dim / 2).min(KRYLOV_MAX_DIM).max(dim + 1);
                    let decomposition = self.projected_eigen(&alphas, &betas[..dim - 1])?;
                    let phi = Self::projected_exponential(&decomposition, remaining);
                    let error = Self::error_estimate(beta, remaining, &phi);
                    eigen = Some(decomposition);
                    if error <= self.tolerance || dim >= KRYLOV_MAX_DIM {
                        break;
                    }
                }
                // Extend the basis: v_{m+1} = w / β.
                let w = &mut self.basis[m + 1];
                w.scale(1.0 / beta);
                self.passes.scale();
            }

            let dim = alphas.len();
            let eigen = match eigen {
                Some(decomposition) => decomposition,
                None => self.projected_eigen(&alphas, &betas[..dim - 1])?,
            };
            // The loop body always pushes at least one β before breaking.
            let beta_last = betas.last().copied().unwrap_or(0.0);

            // --- Pick the largest Δt the residual estimate admits. ---
            let mut dt = remaining;
            let mut phi = Self::projected_exponential(&eigen, dt);
            if !happy_breakdown {
                for _ in 0..64 {
                    let error = Self::error_estimate(beta_last, dt, &phi);
                    if error <= self.tolerance {
                        break;
                    }
                    // The local error scales as Δt^m: project onto the power
                    // law with a safety factor, never shrinking by more than
                    // 10x at once (guards against estimate noise).
                    let contraction = (self.tolerance / error).powf(1.0 / dim as f64) * 0.9;
                    dt *= contraction.clamp(0.1, 0.95);
                    phi = Self::projected_exponential(&eigen, dt);
                }
            }

            // --- Advance: ψ ← ‖ψ‖ · Σ_j φ_j · v_j. ---
            state.amplitudes_mut().fill(Complex::ZERO);
            self.passes.fill();
            for (j, coefficient) in phi.iter().enumerate() {
                state.accumulate(coefficient.scale(reference_norm), &self.basis[j]);
                self.passes.axpy();
            }
            checked_rescale_to(state, reference_norm, StepperKind::Krylov)?;
            self.passes.rescale();
            remaining -= dt;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Chebyshev
// ---------------------------------------------------------------------------

/// The Chebyshev backend: one polynomial expansion per segment, however long.
///
/// The Hamiltonian is mapped onto `[−1, 1]` through the segment's
/// [`SpectralBound`] (`H̃ = (H − c)/r`), and
/// `exp(−i·t·H) = e^{−i·c·t}·Σ_k (2−δ_{k0})·(−i)^k·J_k(r·t)·T_k(H̃)`
/// is summed with the three-term `T_k` recurrence — one kernel application
/// per retained order, `≈ r·t + O((r·t)^⅓)` in total. No step splitting:
/// doubling the duration adds roughly the spectral phase span worth of
/// applications instead of doubling them.
#[derive(Debug, Clone)]
pub struct ChebyshevStepper {
    t_prev: StateVector,
    t_curr: StateVector,
    mapped: StateVector,
    accumulator: StateVector,
    context: ExecutionContext,
    tolerance: f64,
    applications: u64,
    passes: Passes,
}

impl ChebyshevStepper {
    /// Creates the stepper with minimal scratch buffers (resized on first
    /// use), executing kernels under [`ExecutionContext::auto`].
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite.
    pub fn new(tolerance: f64) -> Self {
        ChebyshevStepper::with_context(tolerance, ExecutionContext::auto())
    }

    /// Creates the stepper with an explicit [`ExecutionContext`] applied to
    /// every kernel application.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite.
    pub fn with_context(tolerance: f64, context: ExecutionContext) -> Self {
        ChebyshevStepper {
            t_prev: StateVector::zeros(0),
            t_curr: StateVector::zeros(0),
            mapped: StateVector::zeros(0),
            accumulator: StateVector::zeros(0),
            context,
            tolerance: validated_tolerance(tolerance),
            applications: 0,
            passes: Passes::new(),
        }
    }

    fn ensure_capacity(&mut self, num_qubits: usize) {
        if self.t_prev.num_qubits() != num_qubits || self.t_prev.dim() != 1 << num_qubits {
            self.t_prev = StateVector::zeros(num_qubits);
            self.t_curr = StateVector::zeros(num_qubits);
            self.mapped = StateVector::zeros(num_qubits);
            self.accumulator = StateVector::zeros(num_qubits);
        }
    }
}

/// `out = (H·input − center·input) / radius` — the kernel application mapped
/// onto the unit spectral interval the Chebyshev recurrence runs on.
fn apply_mapped(
    kernel: FusedKernel<'_>,
    context: &ExecutionContext,
    input: &StateVector,
    out: &mut StateVector,
    center: f64,
    radius: f64,
) {
    kernel.apply_into_with(context, input, out);
    let inverse_radius = 1.0 / radius;
    for (slot, v) in out.amplitudes_mut().iter_mut().zip(input.amplitudes()) {
        *slot = (*slot - v.scale(center)).scale(inverse_radius);
    }
}

impl Stepper for ChebyshevStepper {
    /// Rollback-safe: the expansion accumulates into scratch buffers and the
    /// guardrails run **before** the result is written back, so on error
    /// `state` is still exactly the segment-entry state.
    fn try_evolve_segment(
        &mut self,
        kernel: FusedKernel<'_>,
        bound: &SpectralBound,
        state: &mut StateVector,
        duration: f64,
        reference_norm: f64,
    ) -> Result<(), EvolveError> {
        let center = bound.center;
        let radius = bound.radius;
        let global_phase = Complex::from_polar_angle(-center * duration);
        if radius == 0.0 {
            // Pure identity shift: a global phase, no kernel work at all.
            self.passes
                .add(apply_identity_phase(state, center, duration));
            return Ok(());
        }
        self.ensure_capacity(state.num_qubits());
        let span = radius * duration;
        if !span.is_finite() {
            return Err(EvolveError::InvalidInput {
                context: format!(
                    "Chebyshev expansion span is not finite (radius {radius}, duration {duration})"
                ),
            });
        }
        if span > MAX_EXP_SPAN {
            return Err(EvolveError::OrderOverflow {
                backend: StepperKind::Chebyshev,
                segment: None,
                span,
                max_span: MAX_EXP_SPAN,
            });
        }
        let coefficients =
            try_chebyshev_exp_coefficients(span, self.tolerance).map_err(|source| {
                EvolveError::InvalidInput {
                    context: source.to_string(),
                }
            })?;

        // T_0·ψ = ψ; accumulator starts at c_0·ψ.
        self.t_prev.copy_from(state);
        self.passes.copy();
        self.accumulator.copy_from(state);
        self.passes.copy();
        self.accumulator.scale(coefficients[0]);
        self.passes.scale();

        if coefficients.len() > 1 {
            // T_1·ψ = H̃·ψ.
            apply_mapped(
                kernel,
                &self.context,
                &self.t_prev,
                &mut self.t_curr,
                center,
                radius,
            );
            self.applications += 1;
            self.passes.apply();
            self.passes.fused_map();
            // (−i)^k phase cycle, starting at k = 1.
            let mut phase = -Complex::I;
            self.accumulator
                .accumulate(phase.scale(coefficients[1]), &self.t_curr);
            self.passes.axpy();
            for &coefficient in coefficients.iter().skip(2) {
                // T_{k+1} = 2·H̃·T_k − T_{k−1}, reusing t_prev's storage.
                apply_mapped(
                    kernel,
                    &self.context,
                    &self.t_curr,
                    &mut self.mapped,
                    center,
                    radius,
                );
                self.applications += 1;
                self.passes.apply();
                self.passes.fused_map();
                for (prev, w) in self
                    .t_prev
                    .amplitudes_mut()
                    .iter_mut()
                    .zip(self.mapped.amplitudes())
                {
                    *prev = w.scale(2.0) - *prev;
                }
                // The recurrence traversal reads `mapped`, reads and writes
                // `t_prev` — the same streams as an axpy.
                self.passes.axpy();
                std::mem::swap(&mut self.t_prev, &mut self.t_curr);
                phase *= -Complex::I;
                self.accumulator
                    .accumulate(phase.scale(coefficient), &self.t_curr);
                self.passes.axpy();
            }
        }

        // Guardrails run on the accumulator BEFORE the state is overwritten,
        // so a failed expansion leaves the state at the segment boundary.
        // The norm computed for the check is reused for the drift
        // correction, fused into the write-back — 3 passes where the
        // unguarded path (write, then norm-and-rescale) paid 5.
        let norm = self.accumulator.norm();
        self.passes.norm();
        if !norm.is_finite() {
            return Err(EvolveError::NonFiniteState {
                backend: StepperKind::Chebyshev,
                segment: None,
            });
        }
        if reference_norm > 0.0 {
            let relative_drift = (norm - reference_norm).abs() / reference_norm;
            if relative_drift > NORM_DRIFT_LIMIT {
                return Err(EvolveError::NormDrift {
                    backend: StepperKind::Chebyshev,
                    segment: None,
                    relative_drift,
                });
            }
        }
        // ψ ← e^{−i·c·t} · Σ, rescaled to the caller's norm in the same
        // traversal.
        let correction = if norm > 0.0 {
            global_phase.scale(reference_norm / norm)
        } else {
            global_phase
        };
        for (slot, acc) in state
            .amplitudes_mut()
            .iter_mut()
            .zip(self.accumulator.amplitudes())
        {
            *slot = correction * *acc;
        }
        // The write-back is a phase-and-rescale copy: read accumulator,
        // write state.
        self.passes.copy();
        Ok(())
    }

    fn kernel_applications(&self) -> u64 {
        self.applications
    }

    fn state_passes(&self) -> u64 {
        self.passes.count()
    }

    fn reset_kernel_applications(&mut self) {
        self.applications = 0;
        self.passes.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledHamiltonian;
    use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString};

    fn evolve_with_stepper(
        stepper: &mut dyn Stepper,
        hamiltonian: &Hamiltonian,
        state: &StateVector,
        time: f64,
    ) -> StateVector {
        let compiled = CompiledHamiltonian::compile(hamiltonian);
        let mut out = state.clone();
        let norm = out.norm();
        stepper.evolve_segment(
            compiled.kernel(),
            &compiled.spectral_bound(),
            &mut out,
            time,
            norm,
        );
        out
    }

    fn test_hamiltonian() -> Hamiltonian {
        Hamiltonian::from_terms(
            3,
            [
                (1.0, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                (0.8, PauliString::single(1, Pauli::Y)),
                (0.5, PauliString::single(2, Pauli::X)),
                (-0.3, PauliString::identity()),
            ],
        )
    }

    #[test]
    fn spectral_bound_splits_identity_shift() {
        let compiled = CompiledHamiltonian::compile(&test_hamiltonian());
        let bound = compiled.spectral_bound();
        assert!((bound.center - (-0.3)).abs() < 1e-15);
        assert!((bound.radius - 2.3).abs() < 1e-15);
        assert_eq!(bound.step_strength, compiled.step_strength());
    }

    #[test]
    fn all_steppers_agree_with_rabi_analytics() {
        let omega = 2.0;
        let h = Hamiltonian::from_terms(1, [(omega / 2.0, PauliString::single(0, Pauli::X))]);
        let z = PauliString::single(0, Pauli::Z);
        for t in [0.3, 2.0, 9.0] {
            let expected = (omega * t).cos();
            let mut taylor = TaylorStepper::new(DEFAULT_TOLERANCE);
            let mut batched = BatchedTaylorStepper::new(DEFAULT_TOLERANCE);
            let mut krylov = KrylovStepper::new(DEFAULT_TOLERANCE);
            let mut chebyshev = ChebyshevStepper::new(DEFAULT_TOLERANCE);
            let steppers: [&mut dyn Stepper; 4] =
                [&mut taylor, &mut batched, &mut krylov, &mut chebyshev];
            for stepper in steppers {
                let evolved = evolve_with_stepper(stepper, &h, &StateVector::zero_state(1), t);
                assert!(
                    (evolved.expectation(&z) - expected).abs() < 1e-9,
                    "t={t}: {} != {expected}",
                    evolved.expectation(&z)
                );
            }
        }
    }

    #[test]
    fn krylov_and_chebyshev_match_taylor_amplitudes() {
        let h = test_hamiltonian();
        let initial = StateVector::plus_state(3);
        for t in [0.5, 4.0, 20.0] {
            let mut taylor = TaylorStepper::new(DEFAULT_TOLERANCE);
            let reference = evolve_with_stepper(&mut taylor, &h, &initial, t);
            let mut batched = BatchedTaylorStepper::new(DEFAULT_TOLERANCE);
            let mut krylov = KrylovStepper::new(DEFAULT_TOLERANCE);
            let mut chebyshev = ChebyshevStepper::new(DEFAULT_TOLERANCE);
            let others: [(&str, &mut dyn Stepper); 3] = [
                ("batched_taylor", &mut batched),
                ("krylov", &mut krylov),
                ("chebyshev", &mut chebyshev),
            ];
            for (name, stepper) in others {
                let evolved = evolve_with_stepper(stepper, &h, &initial, t);
                for (a, b) in evolved.amplitudes().iter().zip(reference.amplitudes()) {
                    assert!((*a - *b).abs() < 1e-10, "{name} t={t}: {a} != {b}");
                }
                assert!(stepper.kernel_applications() > 0);
            }
        }
    }

    #[test]
    fn long_time_work_scales_sublinearly_for_krylov_and_chebyshev() {
        // The headline property: at ‖H‖·t ≫ 1 both new backends need far
        // fewer H|ψ⟩ applications than Taylor's strength·t/0.5 steps.
        let h = test_hamiltonian();
        let initial = StateVector::plus_state(3);
        let t = 50.0;
        let mut taylor = TaylorStepper::new(DEFAULT_TOLERANCE);
        let mut krylov = KrylovStepper::new(DEFAULT_TOLERANCE);
        let mut chebyshev = ChebyshevStepper::new(DEFAULT_TOLERANCE);
        let _ = evolve_with_stepper(&mut taylor, &h, &initial, t);
        let _ = evolve_with_stepper(&mut krylov, &h, &initial, t);
        let _ = evolve_with_stepper(&mut chebyshev, &h, &initial, t);
        let taylor_work = taylor.kernel_applications();
        assert!(
            krylov.kernel_applications() * 2 < taylor_work,
            "krylov {} vs taylor {taylor_work}",
            krylov.kernel_applications()
        );
        assert!(
            chebyshev.kernel_applications() * 2 < taylor_work,
            "chebyshev {} vs taylor {taylor_work}",
            chebyshev.kernel_applications()
        );
    }

    #[test]
    fn chebyshev_handles_pure_identity_shift() {
        let h = Hamiltonian::from_terms(2, [(0.7, PauliString::identity())]);
        let mut chebyshev = ChebyshevStepper::new(DEFAULT_TOLERANCE);
        let initial = StateVector::plus_state(2);
        let evolved = evolve_with_stepper(&mut chebyshev, &h, &initial, 1.3);
        assert_eq!(chebyshev.kernel_applications(), 0);
        // Global phase e^{−i·0.7·1.3} on every amplitude.
        let phase = Complex::from_polar_angle(-0.7 * 1.3);
        for (a, b) in evolved.amplitudes().iter().zip(initial.amplitudes()) {
            assert!((*a - phase * *b).abs() < 1e-14);
        }
    }

    #[test]
    fn krylov_happy_breakdown_is_exact() {
        // A 1-qubit X drive spans a 2-dim Krylov space: the basis breaks
        // down happily at m = 2 and the step covers any duration exactly.
        let h = Hamiltonian::from_terms(1, [(1.0, PauliString::single(0, Pauli::X))]);
        let mut krylov = KrylovStepper::new(DEFAULT_TOLERANCE);
        let evolved = evolve_with_stepper(&mut krylov, &h, &StateVector::zero_state(1), 100.0);
        assert_eq!(krylov.kernel_applications(), 2);
        let z = PauliString::single(0, Pauli::Z);
        assert!((evolved.expectation(&z) - (2.0_f64 * 100.0).cos()).abs() < 1e-8);
    }

    #[test]
    fn options_builders() {
        assert_eq!(EvolveOptions::default().stepper, StepperKind::Auto);
        assert_eq!(EvolveOptions::krylov().stepper, StepperKind::Krylov);
        assert_eq!(EvolveOptions::chebyshev().stepper, StepperKind::Chebyshev);
        assert_eq!(EvolveOptions::taylor().stepper, StepperKind::Taylor);
        assert_eq!(
            EvolveOptions::batched_taylor().stepper,
            StepperKind::BatchedTaylor
        );
        assert_eq!(EvolveOptions::auto().stepper, StepperKind::Auto);
        let custom = EvolveOptions::krylov().with_tolerance(1e-9);
        assert_eq!(custom.tolerance, 1e-9);
        assert_eq!(StepperKind::Krylov.name(), "krylov");
        assert_eq!(StepperKind::BatchedTaylor.name(), "batched_taylor");
        assert_eq!(StepperKind::Auto.name(), "auto");
        assert_eq!(StepperKind::all().len(), 5);
        assert_eq!(StepperKind::fixed().len(), 4);
        assert!(!StepperKind::fixed().contains(&StepperKind::Auto));
        assert!(StepperKind::fixed().contains(&StepperKind::BatchedTaylor));
    }

    #[test]
    fn auto_model_picks_batched_taylor_short_and_chebyshev_long() {
        let model = AutoCostModel::default();
        let bound = SpectralBound {
            center: 0.0,
            radius: 2.0,
            step_strength: 2.5,
        };
        // A tiny segment: one Taylor step of a handful of orders beats
        // Chebyshev's truncation floor — and the batched sweep undercuts the
        // per-segment Taylor overhead.
        assert_eq!(
            model.choose(&bound, 0.01, DEFAULT_TOLERANCE),
            StepperKind::BatchedTaylor
        );
        // A long quench: Chebyshev's ≈ r·t applications crush Taylor's
        // ‖H‖·t/½ steps.
        assert_eq!(
            model.choose(&bound, 50.0, DEFAULT_TOLERANCE),
            StepperKind::Chebyshev
        );
        // Fixed kinds resolve to themselves; Auto resolves per segment.
        let options = EvolveOptions::krylov();
        assert_eq!(options.resolve(&bound, 50.0), StepperKind::Krylov);
        let auto = EvolveOptions::auto();
        assert_eq!(auto.resolve(&bound, 0.01), StepperKind::BatchedTaylor);
        assert_eq!(auto.resolve(&bound, 50.0), StepperKind::Chebyshev);
        // With the batched overhead priced out of reach, the per-segment
        // reference wins the short segment again (the crossover is data).
        let pessimistic = AutoCostModel {
            batched_step_overhead_applications: 10.0,
            ..AutoCostModel::default()
        };
        assert_eq!(
            pessimistic.choose(&bound, 0.01, DEFAULT_TOLERANCE),
            StepperKind::Taylor
        );
    }

    #[test]
    fn choose_always_matches_brute_force_argmin() {
        // `choose` has a fast path that skips the exact Chebyshev pricing
        // for short segments; it must remain indistinguishable from the
        // plain argmin over the fixed backends, across the crossover region
        // and for non-default calibrations.
        let models = [
            AutoCostModel::default(),
            AutoCostModel {
                chebyshev_application_cost: 5.0,
                ..AutoCostModel::default()
            },
            AutoCostModel {
                taylor_application_cost: 20.0,
                ..AutoCostModel::default()
            },
        ];
        for model in models {
            for &(center, radius, step_strength) in &[
                (0.0, 2.0, 2.5),
                (-1.3, 0.7, 2.0),
                (0.0, 0.0, 1.0),
                (5.0, 4.0, 9.5),
            ] {
                let bound = SpectralBound {
                    center,
                    radius,
                    step_strength,
                };
                for exponent in -8..=6 {
                    let duration = 2.0_f64.powi(exponent);
                    let brute = StepperKind::fixed()
                        .into_iter()
                        .map(|kind| {
                            (
                                kind,
                                model
                                    .estimated_cost(kind, &bound, duration, DEFAULT_TOLERANCE)
                                    .unwrap(),
                            )
                        })
                        .reduce(|best, candidate| {
                            if candidate.1 < best.1 {
                                candidate
                            } else {
                                best
                            }
                        })
                        .unwrap()
                        .0;
                    assert_eq!(
                        model.choose(&bound, duration, DEFAULT_TOLERANCE),
                        brute,
                        "bound {bound:?}, duration {duration}"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_model_is_overridable_toward_krylov() {
        // The crossovers are calibration, not code: pricing Chebyshev and
        // Taylor out steers the decision to Krylov.
        let model = AutoCostModel {
            taylor_application_cost: 1e6,
            chebyshev_application_cost: 1e6,
            ..AutoCostModel::default()
        };
        let bound = SpectralBound {
            center: 0.0,
            radius: 2.0,
            step_strength: 2.5,
        };
        assert_eq!(
            model.choose(&bound, 5.0, DEFAULT_TOLERANCE),
            StepperKind::Krylov
        );
        let options = EvolveOptions::auto().with_auto_model(model);
        assert_eq!(options.resolve(&bound, 5.0), StepperKind::Krylov);
    }

    #[test]
    fn auto_model_estimates_track_the_workload_shape() {
        let model = AutoCostModel::default();
        let bound = SpectralBound {
            center: 0.0,
            radius: 3.0,
            step_strength: 4.0,
        };
        // Chebyshev's estimate is exact: the truncation order of its
        // expansion.
        let apps = model
            .estimated_applications(StepperKind::Chebyshev, &bound, 10.0, DEFAULT_TOLERANCE)
            .unwrap();
        assert_eq!(
            apps,
            qturbo_math::chebyshev::chebyshev_exp_order(30.0, DEFAULT_TOLERANCE) as f64
        );
        // Auto has no estimate of its own — introspection returns None
        // instead of aborting.
        assert_eq!(
            model.estimated_applications(StepperKind::Auto, &bound, 10.0, DEFAULT_TOLERANCE),
            None
        );
        assert_eq!(
            model.estimated_cost(StepperKind::Auto, &bound, 10.0, DEFAULT_TOLERANCE),
            None
        );
        // Taylor's estimate scales linearly with the duration (step count).
        let short = model
            .estimated_applications(StepperKind::Taylor, &bound, 1.0, DEFAULT_TOLERANCE)
            .unwrap();
        let long = model
            .estimated_applications(StepperKind::Taylor, &bound, 10.0, DEFAULT_TOLERANCE)
            .unwrap();
        assert!(long > 8.0 * short, "taylor {short} -> {long}");
        // A tighter spectral bound strictly lowers the Chebyshev estimate on
        // a long segment (the tentpole property of the exact-diagonal
        // interval).
        let tightened = bound.with_exact_diagonal(-1.0, 1.0, 1.0);
        assert!(tightened.radius < bound.radius);
        let fewer = model
            .estimated_applications(StepperKind::Chebyshev, &tightened, 10.0, DEFAULT_TOLERANCE)
            .unwrap();
        assert!(fewer < apps, "{fewer} !< {apps}");
    }

    #[test]
    fn exact_diagonal_interval_is_contained_in_triangle_interval() {
        // H = 0.2·I + 1.5·Z₀Z₁ + 0.7·Z₀ + 0.4·X₁: triangle radius 2.6 around
        // 0.2; the exact diagonal range is narrower whenever the diagonal
        // terms cannot all peak at once.
        let compiled = CompiledHamiltonian::compile(&Hamiltonian::from_terms(
            2,
            [
                (0.2, PauliString::identity()),
                (1.5, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                (0.7, PauliString::single(0, Pauli::Z)),
                (0.4, PauliString::single(1, Pauli::X)),
            ],
        ));
        let triangle = SpectralBound {
            center: 0.2,
            radius: 2.6,
            step_strength: compiled.step_strength(),
        };
        let bound = compiled.spectral_bound();
        // Diagonal values over the 4 basis states: 0.2 ± 1.5 ± 0.7 →
        // {2.4, 1.0, -0.6, -2.0} ⇒ exact range [-2.0, 2.4], off-diagonal
        // radius 0.4.
        assert!((bound.center - 0.2).abs() < 1e-12);
        assert!((bound.radius - 2.6).abs() < 1e-12);
        // Containment: [center − r, center + r] ⊆ triangle interval.
        assert!(bound.center - bound.radius >= triangle.center - triangle.radius - 1e-12);
        assert!(bound.center + bound.radius <= triangle.center + triangle.radius + 1e-12);
        // A genuinely anti-correlated diagonal shrinks the interval: with
        // Z₀ + Z₁ − Z₀Z₁ the diagonal peaks at 1 (not 3).
        let tightened = CompiledHamiltonian::compile(&Hamiltonian::from_terms(
            2,
            [
                (1.0, PauliString::single(0, Pauli::Z)),
                (1.0, PauliString::single(1, Pauli::Z)),
                (-1.0, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                (0.3, PauliString::single(0, Pauli::X)),
            ],
        ))
        .spectral_bound();
        // Diagonal values: {1, 1, 1, -3} ⇒ exact [−3, 1] (radius 2) vs
        // triangle radius 3; plus the 0.3 off-diagonal widening.
        assert!((tightened.center - (-1.0)).abs() < 1e-12);
        assert!((tightened.radius - 2.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_tolerance_panics() {
        let _ = EvolveOptions::taylor().with_tolerance(0.0);
    }

    #[test]
    fn batched_taylor_matches_taylor_with_fewer_passes() {
        // Identical series ⇒ near-identical amplitudes (the only difference
        // is where the drift-correction rescale lands); strictly fewer
        // amplitude passes at the same application count.
        let h = test_hamiltonian();
        let initial = StateVector::plus_state(3);
        for t in [0.1, 0.45, 2.0] {
            let mut taylor = TaylorStepper::new(DEFAULT_TOLERANCE);
            let mut batched = BatchedTaylorStepper::new(DEFAULT_TOLERANCE);
            let reference = evolve_with_stepper(&mut taylor, &h, &initial, t);
            let evolved = evolve_with_stepper(&mut batched, &h, &initial, t);
            for (a, b) in evolved.amplitudes().iter().zip(reference.amplitudes()) {
                assert!((*a - *b).abs() < 1e-12, "t={t}: {a} != {b}");
            }
            assert_eq!(
                batched.kernel_applications(),
                taylor.kernel_applications(),
                "t={t}: the batched sweep must run the identical series"
            );
            assert!(
                batched.state_passes() < taylor.state_passes(),
                "t={t}: batched {} passes vs taylor {}",
                batched.state_passes(),
                taylor.state_passes()
            );
        }
    }

    #[test]
    fn every_stepper_shortcuts_pure_identity_segments() {
        // H = c·I with a large step strength: the pre-fix Taylor path burned
        // ⌈2·|c|·t/½⌉ degenerate steps (one application each) on a global
        // phase; every backend must now spend zero applications and land on
        // the exact phase.
        let h = Hamiltonian::from_terms(2, [(5.0, PauliString::identity())]);
        let t = 10.0;
        let phase = Complex::from_polar_angle(-5.0 * t);
        let initial = StateVector::plus_state(2);
        let mut taylor = TaylorStepper::new(DEFAULT_TOLERANCE);
        let mut batched = BatchedTaylorStepper::new(DEFAULT_TOLERANCE);
        let mut krylov = KrylovStepper::new(DEFAULT_TOLERANCE);
        let mut chebyshev = ChebyshevStepper::new(DEFAULT_TOLERANCE);
        let steppers: [(&str, &mut dyn Stepper); 4] = [
            ("taylor", &mut taylor),
            ("batched_taylor", &mut batched),
            ("krylov", &mut krylov),
            ("chebyshev", &mut chebyshev),
        ];
        for (name, stepper) in steppers {
            let evolved = evolve_with_stepper(stepper, &h, &initial, t);
            assert_eq!(stepper.kernel_applications(), 0, "{name} did kernel work");
            for (a, b) in evolved.amplitudes().iter().zip(initial.amplitudes()) {
                assert!((*a - phase * *b).abs() < 1e-14, "{name}: {a}");
            }
        }
    }

    #[test]
    fn batched_run_chains_segments_through_one_sweep() {
        // A 3-segment mini-ramp driven through the run API must match three
        // independent per-segment Taylor evolutions.
        let segments = [
            (test_hamiltonian(), 0.11),
            (test_hamiltonian().scaled(0.8), 0.13),
            (test_hamiltonian().scaled(0.6), 0.09),
        ];
        let initial = StateVector::plus_state(3);
        let norm = initial.norm();

        let mut reference = initial.clone();
        let mut taylor = TaylorStepper::new(DEFAULT_TOLERANCE);
        for (h, t) in &segments {
            let compiled = CompiledHamiltonian::compile(h);
            taylor.evolve_segment(
                compiled.kernel(),
                &compiled.spectral_bound(),
                &mut reference,
                *t,
                norm,
            );
        }

        let mut batched = BatchedTaylorStepper::new(DEFAULT_TOLERANCE);
        let mut state = initial.clone();
        let compiled: Vec<CompiledHamiltonian> = segments
            .iter()
            .map(|(h, _)| CompiledHamiltonian::compile(h))
            .collect();
        batched.begin_run(&state, norm);
        for (c, (_, t)) in compiled.iter().zip(&segments) {
            batched.run_segment(c.kernel(), &c.spectral_bound(), &mut state, *t);
        }
        batched.finish_run(&mut state);

        for (a, b) in state.amplitudes().iter().zip(reference.amplitudes()) {
            assert!((*a - *b).abs() < 1e-12, "{a} != {b}");
        }
        assert_eq!(batched.kernel_applications(), taylor.kernel_applications());
        assert!(batched.state_passes() < taylor.state_passes());
    }
}
