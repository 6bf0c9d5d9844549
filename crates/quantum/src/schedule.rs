//! Compiled schedules: one **columnar** mask layout shared across the
//! segments of a piecewise-constant (time-dependent) Hamiltonian.
//!
//! # Why
//!
//! A discretized ramp — the paper's MIS annealing sweep (§5.3) or any
//! Trotterized time-dependent target — produces hundreds of segments whose
//! Hamiltonians share the exact same Pauli strings and differ only in their
//! coefficients. Recompiling each segment through
//! [`CompiledHamiltonian::compile`](crate::compiled::CompiledHamiltonian::compile)
//! redoes the structural work every time, including the `O(#diag · 2ⁿ)`
//! diagonal-table build, even though nothing structural changed.
//!
//! [`CompiledSchedule`] compiles the *structure* once per run of
//! structure-equal segments — the `(x_mask, z_mask, i^{y_count})` triple and
//! diag/flip/gather classification of every term — and stores it
//! **columnar**: one shared mask array per layout, plus an `S × T` weight
//! matrix holding every segment's real coefficients (one `f64` per term per
//! segment, in `[diag | flip | gather]` column order). Materializing a
//! segment is an `O(#terms)` row fill; *nothing* mask-shaped is rebuilt per
//! segment, and the per-segment memory is one scalar per term instead of a
//! re-materialized `(mask, weight)` vector — the layout batched
//! multi-segment kernels will want. Runs are detected with
//! [`Hamiltonian::structure_fingerprint`] (confirmed by
//! [`Hamiltonian::same_structure`]), so schedules that alternate between a
//! few structures still reuse each layout.
//!
//! This is the crate's one compiled form: a constant Hamiltonian is the
//! one-segment case
//! ([`CompiledHamiltonian`](crate::compiled::CompiledHamiltonian) wraps one),
//! and every segment lowers to the same fused write pass (`FusedKernel` in
//! [`crate::compiled`]), which borrows masks from the layout and weights
//! from the matrix row directly — and executes under the driving
//! propagator's one [`ExecutionContext`](crate::ExecutionContext): the
//! SIMD-lane path and the persistent worker pool are configured once per
//! [`Propagator`](crate::Propagator) and reused by every segment of every
//! schedule it runs, so a thousand-segment ramp pays zero per-segment
//! thread-spawn or configuration cost.
//!
//! Diagonal terms keep their table fast path: at *evolve* time the
//! segment's diagonal weight columns are folded into a propagator-owned
//! scratch table — one `O(#diag · 2ⁿ)` fill per segment into a buffer reused
//! across all of them, updated **incrementally** by weight deltas within a
//! structure run (a constant Hamiltonian does its one fill at compile time).
//! The fill also tracks the table's exact minimum and maximum, which
//! tightens the segment's [`SpectralBound`] (see
//! [`SpectralBound::with_exact_diagonal`]) — the input both the Chebyshev
//! order and the automatic backend selection feed on. Compile-time segment
//! cost stays strictly `O(#terms)` — see `BENCH_schedule.json` for both the
//! compile-portion and end-to-end evolution comparisons.
//!
//! # Example
//!
//! ```
//! use qturbo_quantum::schedule::CompiledSchedule;
//! use qturbo_quantum::{Propagator, StateVector};
//! use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString, PiecewiseHamiltonian};
//!
//! // A linear ramp: same structure in every segment, different weights.
//! let ramp = PiecewiseHamiltonian::discretize(
//!     |t| Hamiltonian::from_terms(2, [
//!         (1.0 - t, PauliString::single(0, Pauli::X)),
//!         (t, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
//!     ]),
//!     1.0,
//!     50,
//! );
//! let schedule = CompiledSchedule::compile_piecewise(&ramp);
//! assert_eq!(schedule.num_segments(), 50);
//! assert_eq!(schedule.num_layouts(), 1); // one shared mask layout
//! assert_eq!(schedule.segment_weight_row(0).len(), 2); // one f64 per term
//!
//! let mut state = StateVector::zero_state(2);
//! Propagator::new().evolve_schedule_in_place(&schedule, &mut state);
//! assert!((state.norm() - 1.0).abs() < 1e-10);
//! ```

use crate::compiled::{BlockKernel, CompiledTerm, FusedKernel};
use crate::error::EvolveError;
use crate::exec::LANE_WIDTH;
use crate::stepper::SpectralBound;
use crate::telemetry::{CompileSpan, CompileTiming};
use qturbo_hamiltonian::{Hamiltonian, PauliString, PiecewiseHamiltonian};
use std::sync::Arc;

/// Diagonal terms are folded into a per-basis-state table when a segment has
/// at least this many of them (a single diagonal term is just as fast
/// evaluated on the fly, and the table costs `2ⁿ` doubles).
const DIAG_TABLE_MIN_TERMS: usize = 2;
/// No diagonal table above this qubit count (memory guard: the table is
/// `2ⁿ · 8` bytes).
const DIAG_TABLE_MAX_QUBITS: usize = 24;

/// The shared structural layout of one run of structure-equal segments: the
/// canonical Pauli strings plus their columnar mask classification.
///
/// Weight-matrix rows for this layout follow `[diag | flip | gather]` column
/// order; `slots` maps each canonical term index to its column.
#[derive(Debug, Clone, PartialEq)]
struct ScheduleLayout {
    fingerprint: u64,
    strings: Vec<PauliString>,
    /// `z_mask` per diagonal term (`Z`-products and the identity;
    /// `x_mask == 0` implies no `Y` factors, so weights are real).
    diag_masks: Vec<usize>,
    /// `x_mask` per pure bit-flip term (`X`-products; `z_mask == 0` implies
    /// no `Y` factors, so weights are real).
    flip_masks: Vec<usize>,
    /// Remaining terms as unit-coefficient mask triples: the stored weight
    /// is the `i^{y_count}` phase alone; the segment's real coefficient
    /// lives in the weight matrix.
    gather_terms: Vec<CompiledTerm>,
    /// Canonical term index → weight-row column.
    slots: Vec<usize>,
}

impl ScheduleLayout {
    fn build(hamiltonian: &Hamiltonian) -> Self {
        // First pass: classify each term and remember its index within its
        // class; classes are concatenated `[diag | flip | gather]` once the
        // class sizes are known.
        enum Class {
            Diag,
            Flip,
            Gather,
        }
        let mut strings = Vec::with_capacity(hamiltonian.num_terms());
        let mut diag_masks = Vec::new();
        let mut flip_masks = Vec::new();
        let mut gather_terms = Vec::new();
        let mut placements = Vec::with_capacity(hamiltonian.num_terms());
        for (_, string) in hamiltonian.terms() {
            let unit = CompiledTerm::compile(1.0, string);
            if unit.x_mask() == 0 {
                placements.push((Class::Diag, diag_masks.len()));
                diag_masks.push(unit.z_mask());
            } else if unit.z_mask() == 0 {
                placements.push((Class::Flip, flip_masks.len()));
                flip_masks.push(unit.x_mask());
            } else {
                placements.push((Class::Gather, gather_terms.len()));
                gather_terms.push(unit);
            }
            strings.push(string.clone());
        }
        let flip_base = diag_masks.len();
        let gather_base = flip_base + flip_masks.len();
        let slots = placements
            .into_iter()
            .map(|(class, index)| match class {
                Class::Diag => index,
                Class::Flip => flip_base + index,
                Class::Gather => gather_base + index,
            })
            .collect();
        ScheduleLayout {
            fingerprint: hamiltonian.structure_fingerprint(),
            strings,
            diag_masks,
            flip_masks,
            gather_terms,
            slots,
        }
    }

    /// Number of weight-matrix columns (= terms) of this layout.
    fn num_columns(&self) -> usize {
        self.diag_masks.len() + self.flip_masks.len() + self.gather_terms.len()
    }

    /// Exact structure match (the fingerprint is only a pre-filter).
    fn matches(&self, hamiltonian: &Hamiltonian) -> bool {
        hamiltonian.num_terms() == self.strings.len()
            && hamiltonian
                .terms()
                .zip(&self.strings)
                .all(|((_, s), own)| s == own)
    }
}

/// One segment's metadata: which layout and weight-matrix row it reads, its
/// duration, and the compile-time spectral facts.
#[derive(Debug, Clone, PartialEq)]
struct CompiledSegment {
    layout: usize,
    /// Row index within the layout's weight matrix.
    row: usize,
    duration: f64,
    /// Triangle-inequality enclosure; tightened with the exact diagonal
    /// range at evolve time whenever the diagonal table is materialized.
    bound: SpectralBound,
    /// `Σ|w|` over the off-diagonal (flip + gather) terms — the widening the
    /// exact diagonal interval needs to stay a rigorous enclosure.
    offdiag_radius: f64,
}

/// A piecewise-constant Hamiltonian compiled **once**: shared columnar mask
/// layouts per structure run, plus an `S × T` weight matrix filled in
/// `O(#terms)` per segment.
///
/// Drive it with [`Propagator::evolve_schedule_in_place`](crate::Propagator::evolve_schedule_in_place)
/// or the [`crate::propagate::evolve_schedule`] convenience wrapper. The
/// recompile-per-segment path
/// ([`Propagator::evolve_piecewise_in_place`](crate::Propagator::evolve_piecewise_in_place))
/// is retained as the reference; `BENCH_schedule.json` tracks the two against
/// each other.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSchedule {
    num_qubits: usize,
    /// Shared with every [`scaled_weights`](CompiledSchedule::scaled_weights)
    /// view: a global amplitude scale changes no structure, so the layouts
    /// are reference-counted rather than cloned.
    layouts: Arc<Vec<ScheduleLayout>>,
    /// Per layout, the row-major `S_l × T_l` weight matrix (`S_l` segments
    /// using the layout, `T_l` terms). Owned per view — this is the only
    /// `O(S · T)` state, one `f64` per term per segment.
    weights: Vec<Vec<f64>>,
    segments: Vec<CompiledSegment>,
    /// Compile wall time, for telemetry. Always-equal `PartialEq`
    /// (see [`CompileTiming`]) so structural schedule equality is
    /// unaffected; scaled-weight views inherit it unchanged since they
    /// avoid recompilation.
    timing: CompileTiming,
}

impl CompiledSchedule {
    /// Compiles a sequence of `(Hamiltonian, duration)` segments into shared
    /// columnar layouts plus the weight matrix.
    ///
    /// Consecutive (and non-consecutive) segments whose Hamiltonians share
    /// their term structure reuse one layout; a fully structure-uniform
    /// schedule — the common case for a discretized ramp — compiles exactly
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if any duration is negative or not finite. Use
    /// [`try_compile`](CompiledSchedule::try_compile) to receive a typed
    /// error instead.
    pub fn compile(segments: &[(Hamiltonian, f64)]) -> Self {
        Self::try_compile(segments).unwrap_or_else(|error| panic!("{error}"))
    }

    /// Fallible variant of [`compile`](CompiledSchedule::compile).
    ///
    /// # Errors
    ///
    /// [`EvolveError::InvalidInput`] if any duration is negative, NaN, or
    /// infinite.
    pub fn try_compile(segments: &[(Hamiltonian, f64)]) -> Result<Self, EvolveError> {
        Self::try_compile_segments(segments.iter().map(|(h, duration)| (h, *duration)))
    }

    /// Compiles a [`PiecewiseHamiltonian`] (segments in evolution order).
    ///
    /// # Panics
    ///
    /// Panics if any duration is negative or not finite.
    pub fn compile_piecewise(piecewise: &PiecewiseHamiltonian) -> Self {
        Self::try_compile_segments(
            piecewise
                .segments()
                .iter()
                .map(|s| (&s.hamiltonian, s.duration)),
        )
        .unwrap_or_else(|error| panic!("{error}"))
    }

    /// The one compile routine behind every constructor, including the
    /// one-segment [`CompiledHamiltonian`](crate::compiled::CompiledHamiltonian):
    /// borrows the segment Hamiltonians, so no caller clones them.
    pub(crate) fn try_compile_segments<'h>(
        segments: impl IntoIterator<Item = (&'h Hamiltonian, f64)>,
    ) -> Result<Self, EvolveError> {
        let started = std::time::Instant::now();
        let segments = segments.into_iter();
        let mut num_qubits = 0;
        let mut layouts: Vec<ScheduleLayout> = Vec::new();
        let mut weights: Vec<Vec<f64>> = Vec::new();
        let mut compiled = Vec::with_capacity(segments.size_hint().0);
        for (index, (hamiltonian, duration)) in segments.enumerate() {
            if !(duration.is_finite() && duration >= 0.0) {
                return Err(EvolveError::InvalidInput {
                    context: format!(
                        "segment {index} duration must be non-negative and finite, got {duration}"
                    ),
                });
            }
            num_qubits = num_qubits.max(hamiltonian.num_qubits());
            let fingerprint = hamiltonian.structure_fingerprint();
            let layout = layouts
                .iter()
                .position(|l| l.fingerprint == fingerprint && l.matches(hamiltonian))
                .unwrap_or_else(|| {
                    layouts.push(ScheduleLayout::build(hamiltonian));
                    weights.push(Vec::new());
                    layouts.len() - 1
                });
            compiled.push(Self::fill_row(
                layout,
                &layouts[layout],
                &mut weights[layout],
                hamiltonian,
                duration,
            ));
        }
        Ok(CompiledSchedule {
            num_qubits,
            layouts: Arc::new(layouts),
            weights,
            segments: compiled,
            timing: CompileTiming {
                wall_ns: started.elapsed().as_nanos() as u64,
            },
        })
    }

    /// The `O(#terms)` weight swap: appends one row to the layout's weight
    /// matrix by scattering the Hamiltonian's canonical coefficients through
    /// the layout's column slots. No `2ⁿ`-sized and no mask-sized work.
    fn fill_row(
        layout_index: usize,
        layout: &ScheduleLayout,
        matrix: &mut Vec<f64>,
        hamiltonian: &Hamiltonian,
        duration: f64,
    ) -> CompiledSegment {
        let columns = layout.num_columns();
        let row = matrix.len() / columns.max(1);
        let base = matrix.len();
        matrix.resize(base + columns, 0.0);
        // Spectral enclosure, accumulated alongside the row fill: identity
        // terms shift the center, everything else widens the radius (see
        // [`SpectralBound`]); off-diagonal terms are tracked separately so
        // the exact diagonal range can replace the diagonal contribution at
        // evolve time.
        let mut center = 0.0;
        let mut radius = 0.0;
        let mut offdiag_radius = 0.0;
        let flip_base = layout.diag_masks.len();
        for ((coefficient, _), &slot) in hamiltonian.terms().zip(&layout.slots) {
            matrix[base + slot] = coefficient;
            if slot < flip_base {
                if layout.diag_masks[slot] == 0 {
                    center += coefficient;
                } else {
                    radius += coefficient.abs();
                }
            } else {
                radius += coefficient.abs();
                offdiag_radius += coefficient.abs();
            }
        }
        CompiledSegment {
            layout: layout_index,
            row,
            duration,
            bound: SpectralBound {
                center,
                radius,
                // Same step-sizing strength as the naive reference
                // (`evolve_naive`) so both produce identical Taylor step
                // counts.
                step_strength: hamiltonian.coefficient_l1_norm()
                    + hamiltonian.max_abs_coefficient(),
            },
            offdiag_radius,
        }
    }

    /// Number of qubits the schedule acts on (the maximum over segments).
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of segments, in evolution order.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of distinct mask layouts compiled. A structure-uniform schedule
    /// (every segment the same Pauli strings) compiles exactly one — the
    /// measure of how much structural reuse the schedule achieved.
    pub fn num_layouts(&self) -> usize {
        self.layouts.len()
    }

    /// Returns `true` when there are no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total evolution time over all segments.
    pub fn total_time(&self) -> f64 {
        self.segments.iter().map(|s| s.duration).sum()
    }

    /// Duration of segment `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn segment_duration(&self, index: usize) -> f64 {
        self.segments[index].duration
    }

    /// Step-sizing strength (`‖c‖₁ + max|c|`) of segment `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn segment_step_strength(&self, index: usize) -> f64 {
        self.segments[index].bound.step_strength
    }

    /// The compile-time spectral bound of segment `index` (center, radius,
    /// step strength), from which the steppers size their work. This is the
    /// `O(#terms)` triangle-inequality enclosure; the evolve loop tightens
    /// it with the exact diagonal range whenever the segment's diagonal
    /// table is materialized.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn segment_bound(&self, index: usize) -> SpectralBound {
        self.segments[index].bound
    }

    /// Segment `index`'s weight-matrix row: one real coefficient per term in
    /// the layout's `[diag | flip | gather]` column order (within each
    /// class, terms keep the Hamiltonian's canonical term order). Segments
    /// sharing a layout index into the same `S × T` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn segment_weight_row(&self, index: usize) -> &[f64] {
        let segment = &self.segments[index];
        let columns = self.layouts[segment.layout].num_columns();
        &self.weights[segment.layout][segment.row * columns..(segment.row + 1) * columns]
    }

    /// The mask-layout index segment `index` reads (in `0..`[`num_layouts`](CompiledSchedule::num_layouts)).
    /// Segments with equal layout indices share one columnar mask array —
    /// the precondition for chaining them through a batched multi-segment
    /// sweep.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn segment_layout(&self, index: usize) -> usize {
        self.segments[index].layout
    }

    /// Schedule-level **introspection** of the ramp-shaped trains the
    /// batched multi-segment sweep targets: maximal ranges of consecutive
    /// segments that (a) share one mask layout, so a batched sweep reads the
    /// masks once and walks adjacent rows of the columnar weight matrix, and
    /// (b) are *tiny* — a single Taylor step each (`step_strength·Δt ≤ ½`).
    /// Zero-duration segments are skipped transparently (they are exact
    /// identities and do not break a run).
    ///
    /// This is a *conservative predictor*, not the grouping the evolution
    /// actually executes:
    /// [`Propagator::evolve_schedule_in_place`](crate::Propagator::evolve_schedule_in_place)
    /// chains whatever consecutive same-layout segments the cost model
    /// resolves to [`StepperKind::BatchedTaylor`](crate::StepperKind) — which
    /// can include multi-step segments the single-step criterion here
    /// excludes (batched evolution is numerically valid for *any* segment:
    /// it runs the per-segment Taylor series with identical step splitting
    /// and truncation, so it meets the [`EvolveOptions`](crate::EvolveOptions)
    /// tolerance by construction; the conformance suite pins it to the naive
    /// reference on every scenario family). Use this for planning and
    /// reporting — e.g. "is this schedule ramp-shaped?" — and
    /// [`Propagator::segment_decisions`](crate::Propagator::segment_decisions)
    /// for what actually ran.
    ///
    /// Singleton runs are included: even one tiny segment saves its series
    /// copy and rescale passes.
    pub fn batch_runs(&self) -> Vec<std::ops::Range<usize>> {
        let eligible = |index: usize| {
            let segment = &self.segments[index];
            segment.duration > 0.0
                && segment.bound.step_strength * segment.duration <= crate::stepper::MAX_STEP_PHASE
        };
        let mut runs = Vec::new();
        let mut index = 0;
        while index < self.segments.len() {
            if !eligible(index) {
                index += 1;
                continue;
            }
            let layout = self.segments[index].layout;
            let start = index;
            index += 1;
            while index < self.segments.len()
                && self.segments[index].layout == layout
                && (eligible(index) || self.segments[index].duration == 0.0)
            {
                index += 1;
            }
            // Trim trailing zero-duration segments out of the run.
            let mut end = index;
            while end > start + 1 && self.segments[end - 1].duration == 0.0 {
                end -= 1;
            }
            runs.push(start..end);
        }
        runs
    }

    /// A view of this schedule with every coefficient multiplied by `scale`
    /// — the shape of a per-run global amplitude miscalibration. The term
    /// *structure* is untouched, so the mask layouts are shared with the
    /// original (`Arc`, no structural work, no `2ⁿ`-sized work): the swap is
    /// `O(#segments · #terms)` over the weight matrix alone — one
    /// multiplication per scalar. This is what lets
    /// [`crate::EmulatedDevice`] compile a schedule once and reuse the
    /// layout across every noise realization.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite. Use
    /// [`try_scaled_weights`](CompiledSchedule::try_scaled_weights) to
    /// receive a typed error instead.
    pub fn scaled_weights(&self, scale: f64) -> CompiledSchedule {
        self.try_scaled_weights(scale)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Fallible variant of
    /// [`scaled_weights`](CompiledSchedule::scaled_weights).
    ///
    /// # Errors
    ///
    /// [`EvolveError::InvalidInput`] if `scale` is NaN or infinite — a
    /// non-finite scale would poison every weight, bound, and step strength
    /// of the view.
    pub fn try_scaled_weights(&self, scale: f64) -> Result<CompiledSchedule, EvolveError> {
        if !scale.is_finite() {
            return Err(EvolveError::InvalidInput {
                context: format!("amplitude scale must be finite, got {scale}"),
            });
        }
        let weights = self
            .weights
            .iter()
            .map(|matrix| matrix.iter().map(|w| w * scale).collect())
            .collect();
        let segments = self
            .segments
            .iter()
            .map(|segment| CompiledSegment {
                layout: segment.layout,
                row: segment.row,
                duration: segment.duration,
                bound: SpectralBound {
                    center: segment.bound.center * scale,
                    radius: segment.bound.radius * scale.abs(),
                    step_strength: segment.bound.step_strength * scale.abs(),
                },
                offdiag_radius: segment.offdiag_radius * scale.abs(),
            })
            .collect();
        Ok(CompiledSchedule {
            num_qubits: self.num_qubits,
            layouts: Arc::clone(&self.layouts),
            weights,
            segments,
            timing: self.timing,
        })
    }

    /// Wall nanoseconds spent in [`compile`](CompiledSchedule::compile).
    /// Scaled-weight views inherit the original compile cost — the
    /// recompilation they avoid is still attributed to them.
    pub fn compile_wall_ns(&self) -> u64 {
        self.timing.wall_ns
    }

    /// Telemetry [`CompileSpan`] describing this schedule's compilation.
    pub fn compile_span(&self) -> CompileSpan {
        CompileSpan {
            segments: self.segments.len(),
            layouts: self.layouts.len(),
            wall_ns: self.timing.wall_ns,
        }
    }

    /// `true` when `other` shares this schedule's mask layouts (the
    /// structural reuse [`scaled_weights`](CompiledSchedule::scaled_weights)
    /// provides).
    pub fn shares_layouts_with(&self, other: &CompiledSchedule) -> bool {
        Arc::ptr_eq(&self.layouts, &other.layouts)
    }

    /// Segment `index`'s terms as weighted mask triples, in the source
    /// Hamiltonian's canonical term order.
    pub(crate) fn segment_terms(&self, index: usize) -> impl Iterator<Item = CompiledTerm> + '_ {
        let layout = &self.layouts[self.segments[index].layout];
        let row = self.segment_weight_row(index);
        layout
            .strings
            .iter()
            .zip(&layout.slots)
            .map(move |(string, &slot)| CompiledTerm::compile(row[slot], string))
    }

    /// Readies segment `index` for one kernel pass: materializes its
    /// diagonal table into `scratch` when the segment has at least
    /// [`DIAG_TABLE_MIN_TERMS`] diagonal terms on at most
    /// [`DIAG_TABLE_MAX_QUBITS`] qubits, and returns the table to hand
    /// [`segment_kernel`](CompiledSchedule::segment_kernel) (empty when the
    /// diagonal terms run on the fly) together with the segment's
    /// [`SpectralBound`] — tightened by the table's exact range through
    /// [`SpectralBound::with_exact_diagonal`] whenever the table exists.
    pub(crate) fn prepare_segment<'s>(
        &self,
        index: usize,
        scratch: &'s mut DiagTableScratch,
    ) -> (&'s [f64], SpectralBound) {
        let segment = &self.segments[index];
        let wants_table = self.layouts[segment.layout].diag_masks.len() >= DIAG_TABLE_MIN_TERMS
            && self.num_qubits <= DIAG_TABLE_MAX_QUBITS;
        if !wants_table {
            return (&[], segment.bound);
        }
        self.update_diag_table(index, scratch);
        let (diag_min, diag_max) = scratch.range;
        let bound = segment
            .bound
            .with_exact_diagonal(diag_min, diag_max, segment.offdiag_radius);
        (&scratch.table, bound)
    }

    /// Materializes segment `index`'s diagonal table into `scratch`, reusing
    /// the buffer across segments (allocation happens once), and records the
    /// table's exact `(min, max)` — the input for the tightened per-segment
    /// [`SpectralBound`]. The table holds `max(2ⁿ, LANE_WIDTH)` entries.
    ///
    /// `scratch.materialized` tracks which segment's table currently
    /// occupies the buffer. When the previous and current segments share a
    /// layout — which guarantees an identical diagonal mask list, and holds
    /// for every segment of a structure run — the table is updated
    /// **incrementally** by the weight deltas, one `O(2ⁿ)` pass per
    /// *changed* term only; the min/max fold rides along with the last
    /// delta pass, so an unchanged-diagonal segment pays nothing at all. A
    /// ramp that sweeps a detuning while the couplings stay constant (the
    /// MIS annealing shape) touches a fraction of the diagonal terms per
    /// segment; the constant ones cost nothing.
    pub(crate) fn update_diag_table(&self, index: usize, scratch: &mut DiagTableScratch) {
        let segment = &self.segments[index];
        let layout = &self.layouts[segment.layout];
        let diag_count = layout.diag_masks.len();
        let row = self.segment_weight_row(index);
        let diag_weights = &row[..diag_count];
        let incremental = scratch
            .materialized
            .filter(|&prev| self.segments[prev].layout == segment.layout);
        if let Some(prev) = incremental {
            let prev_diag = &self.segment_weight_row(prev)[..diag_count];
            // Only columns whose weight actually moved cost a pass; the
            // min/max fold rides along with the last one (each pass visits
            // every slot, so the last pass sees final values).
            let changed = diag_weights
                .iter()
                .zip(prev_diag)
                .filter(|(new, old)| *new - *old != 0.0)
                .count();
            let mut pass = 0usize;
            for (&z_mask, (new, old)) in layout
                .diag_masks
                .iter()
                .zip(diag_weights.iter().zip(prev_diag))
            {
                let delta = new - old;
                if delta == 0.0 {
                    continue;
                }
                pass += 1;
                let track_range = pass == changed;
                let mut range = (f64::INFINITY, f64::NEG_INFINITY);
                for (basis, slot) in scratch.table.iter_mut().enumerate() {
                    *slot += delta * (1.0 - 2.0 * ((basis & z_mask).count_ones() & 1) as f64);
                    if track_range {
                        range = (range.0.min(*slot), range.1.max(*slot));
                    }
                }
                if track_range {
                    scratch.range = range;
                }
            }
        } else {
            scratch.table.clear();
            // At least one lane block: a register narrower than LANE_WIDTH
            // amplitudes tiles its table, so `table[j & (len − 1)]` and the
            // exact range are unchanged and the lane kernels can always load
            // a whole block of it.
            scratch
                .table
                .resize((1 << self.num_qubits).max(LANE_WIDTH), 0.0);
            let mut range = (f64::INFINITY, f64::NEG_INFINITY);
            for (basis, slot) in scratch.table.iter_mut().enumerate() {
                let value =
                    crate::compiled::diagonal_value(&layout.diag_masks, diag_weights, basis);
                range = (range.0.min(value), range.1.max(value));
                *slot = value;
            }
            scratch.range = range;
        }
        scratch.materialized = Some(index);
    }

    /// The fused-kernel view of segment `index`: masks borrowed from the
    /// shared layout, weights from the segment's weight-matrix row.
    ///
    /// `diag_table` is the table
    /// [`prepare_segment`](CompiledSchedule::prepare_segment) returned for
    /// this segment; when it is empty the diagonal terms are evaluated on
    /// the fly inside the kernel.
    pub(crate) fn segment_kernel<'a>(
        &'a self,
        index: usize,
        diag_table: &'a [f64],
    ) -> FusedKernel<'a> {
        let segment = &self.segments[index];
        let layout = &self.layouts[segment.layout];
        let row = self.segment_weight_row(index);
        let flip_base = layout.diag_masks.len();
        let gather_base = flip_base + layout.flip_masks.len();
        let (diag_masks, diag_weights): (&[usize], &[f64]) = if diag_table.is_empty() {
            (&layout.diag_masks, &row[..flip_base])
        } else {
            (&[], &[])
        };
        FusedKernel {
            num_qubits: self.num_qubits,
            diag_table,
            diag_masks,
            diag_weights,
            flip_masks: &layout.flip_masks,
            flip_weights: &row[flip_base..gather_base],
            gather_terms: &layout.gather_terms,
            gather_weights: &row[gather_base..],
        }
    }

    /// Builds the per-realization scale lanes of the `R × S × T` weight
    /// extension: coherent miscalibration is a rank-1 scaling (`w · s_r`),
    /// so R scaled-schedule views collapse into this schedule's shared mask
    /// layouts and weight rows plus one padded scale lane the
    /// [`BlockKernel`] applies in-register — no `R`-fold weight
    /// materialization, one structure-of-arrays sweep.
    ///
    /// # Errors
    ///
    /// [`EvolveError::InvalidInput`] if `scales` is empty or contains a
    /// non-finite scale (the same guard as
    /// [`try_scaled_weights`](CompiledSchedule::try_scaled_weights)).
    pub(crate) fn realization_weights(
        &self,
        scales: &[f64],
    ) -> Result<RealizationWeights, EvolveError> {
        if scales.is_empty() {
            return Err(EvolveError::InvalidInput {
                context: "realization batch needs at least one amplitude scale".to_string(),
            });
        }
        if let Some(bad) = scales.iter().find(|scale| !scale.is_finite()) {
            return Err(EvolveError::InvalidInput {
                context: format!("amplitude scale must be finite, got {bad}"),
            });
        }
        let realizations = scales.len();
        let stride = realizations.next_multiple_of(LANE_WIDTH);
        let mut padded = vec![0.0f64; stride];
        padded[..realizations].copy_from_slice(scales);
        let mut scale_pairs = vec![0.0f64; 2 * stride];
        for (r, &scale) in padded.iter().enumerate() {
            scale_pairs[2 * r] = scale;
            scale_pairs[2 * r + 1] = scale;
        }
        Ok(RealizationWeights {
            stride,
            scales: padded,
            scale_pairs,
        })
    }

    /// The realization-batched kernel view of segment `index`: masks and
    /// **shared scalar weights** borrowed exactly as in
    /// [`segment_kernel`](CompiledSchedule::segment_kernel), plus the
    /// per-realization scale lanes from `weights` (built once per sweep by
    /// [`realization_weights`](CompiledSchedule::realization_weights)).
    ///
    /// `diag_table` follows the same contract as `segment_kernel` — but here
    /// it is the **unscaled** table shared by every realization; the kernel
    /// applies each realization's scale to the finished row, so one table
    /// materialization serves the whole block.
    pub(crate) fn segment_block_kernel<'a>(
        &'a self,
        index: usize,
        diag_table: &'a [f64],
        weights: &'a RealizationWeights,
    ) -> BlockKernel<'a> {
        let segment = &self.segments[index];
        let layout = &self.layouts[segment.layout];
        let row = self.segment_weight_row(index);
        let flip_base = layout.diag_masks.len();
        let gather_base = flip_base + layout.flip_masks.len();
        let (diag_masks, diag_weights): (&[usize], &[f64]) = if diag_table.is_empty() {
            (&layout.diag_masks, &row[..flip_base])
        } else {
            (&[], &[])
        };
        BlockKernel {
            num_qubits: self.num_qubits,
            stride: weights.stride,
            diag_table,
            diag_masks,
            diag_weights,
            flip_masks: &layout.flip_masks,
            flip_weights: &row[flip_base..gather_base],
            gather_terms: &layout.gather_terms,
            gather_weights: &row[gather_base..],
            scale_pairs: &weights.scale_pairs,
        }
    }
}

/// The per-realization weight extension of one [`CompiledSchedule`]:
/// coherent miscalibration scales the whole segment Hamiltonian, so the
/// `R × S × T` per-realization weight product is rank-1 (`w · s_r`) and is
/// formed **in-register** by [`BlockKernel`] — this type carries only the
/// scale lane, padded to the lane stride, in the two shapes the block path
/// consumes: raw (for shared Taylor step sizing and run-end drift phases)
/// and duplicated into complex-pair positions (for one unshuffled [`F64x8`]
/// load per lane block).
#[derive(Debug, Clone)]
pub(crate) struct RealizationWeights {
    /// Lane-aligned realization count (`realizations.next_multiple_of(4)`).
    stride: usize,
    /// The scales themselves, padded to `stride` with zeros.
    scales: Vec<f64>,
    /// Each padded scale duplicated: `[s_0, s_0, s_1, s_1, …]`, length
    /// `2 · stride`.
    scale_pairs: Vec<f64>,
}

impl RealizationWeights {
    /// The realization scales, padded to the lane stride with zeros.
    pub(crate) fn scales(&self) -> &[f64] {
        &self.scales
    }
}

/// Propagator-owned scratch for the per-segment diagonal tables: the table
/// buffer (allocated once, reused across segments), which segment currently
/// occupies it, and the table's exact `(min, max)` — maintained by
/// [`CompiledSchedule::update_diag_table`] in the same passes that fill it.
#[derive(Debug, Clone)]
pub(crate) struct DiagTableScratch {
    pub(crate) table: Vec<f64>,
    pub(crate) materialized: Option<usize>,
    pub(crate) range: (f64, f64),
}

impl DiagTableScratch {
    pub(crate) fn new() -> Self {
        DiagTableScratch {
            table: Vec::new(),
            materialized: None,
            range: (f64::INFINITY, f64::NEG_INFINITY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::{evolve_piecewise, evolve_schedule};
    use crate::StateVector;
    use qturbo_hamiltonian::Pauli;

    fn ramp(num_segments: usize) -> PiecewiseHamiltonian {
        PiecewiseHamiltonian::discretize(
            |t| {
                Hamiltonian::from_terms(
                    3,
                    [
                        (1.0 - 0.5 * t, PauliString::single(0, Pauli::X)),
                        (0.3 + t, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                        (0.2 * t + 0.1, PauliString::single(2, Pauli::Y)),
                    ],
                )
            },
            1.0,
            num_segments,
        )
    }

    #[test]
    fn uniform_ramp_compiles_one_layout() {
        let schedule = CompiledSchedule::compile_piecewise(&ramp(20));
        assert_eq!(schedule.num_segments(), 20);
        assert_eq!(schedule.num_layouts(), 1);
        assert_eq!(schedule.num_qubits(), 3);
        assert!((schedule.total_time() - 1.0).abs() < 1e-12);
        assert!(schedule.segment_duration(0) > 0.0);
        assert!(schedule.segment_step_strength(0) > 0.0);
        assert!(!schedule.is_empty());
    }

    #[test]
    fn mixed_structures_get_separate_layouts_and_reuse_repeats() {
        let a = Hamiltonian::from_terms(2, [(1.0, PauliString::single(0, Pauli::X))]);
        let b = Hamiltonian::from_terms(2, [(0.5, PauliString::two(0, Pauli::Z, 1, Pauli::Z))]);
        // a, b, a again: the third segment reuses the first layout.
        let schedule =
            CompiledSchedule::compile(&[(a.clone(), 0.1), (b, 0.2), (a.scaled(2.0), 0.3)]);
        assert_eq!(schedule.num_segments(), 3);
        assert_eq!(schedule.num_layouts(), 2);
        // Rows within one layout stack in compile order.
        assert_eq!(schedule.segment_weight_row(0), &[1.0]);
        assert_eq!(schedule.segment_weight_row(1), &[0.5]);
        assert_eq!(schedule.segment_weight_row(2), &[2.0]);
    }

    #[test]
    fn weight_rows_follow_diag_flip_gather_column_order() {
        // Terms arrive interleaved; the columnar row groups them by class
        // while keeping the Hamiltonian's canonical term order within each
        // class (here canonical order puts the identity first).
        let h = Hamiltonian::from_terms(
            2,
            [
                (0.9, PauliString::single(0, Pauli::X)),           // flip
                (1.5, PauliString::two(0, Pauli::Z, 1, Pauli::Z)), // diag
                (-0.7, PauliString::single(1, Pauli::Y)),          // gather
                (0.4, PauliString::identity()),                    // diag
            ],
        );
        let schedule = CompiledSchedule::compile(&[(h.clone(), 0.5)]);
        // Cross-check the expected row against the canonical term order
        // itself rather than hard-coding it.
        let canonical: Vec<(f64, bool, bool)> = h
            .terms()
            .map(|(c, s)| {
                let unit = CompiledTerm::compile(1.0, s);
                (
                    c,
                    unit.x_mask() == 0,
                    unit.x_mask() != 0 && unit.z_mask() == 0,
                )
            })
            .collect();
        let mut expected: Vec<f64> = canonical
            .iter()
            .filter(|(_, diag, _)| *diag)
            .map(|(c, _, _)| *c)
            .collect();
        expected.extend(
            canonical
                .iter()
                .filter(|(_, _, flip)| *flip)
                .map(|(c, _, _)| *c),
        );
        expected.extend(
            canonical
                .iter()
                .filter(|(_, diag, flip)| !diag && !flip)
                .map(|(c, _, _)| *c),
        );
        assert_eq!(schedule.segment_weight_row(0), &expected[..]);
        assert!(expected.contains(&1.5) && expected.contains(&-0.7));
    }

    #[test]
    fn schedule_evolution_matches_recompile_per_segment() {
        let piecewise = ramp(12);
        let segments: Vec<(Hamiltonian, f64)> = piecewise
            .segments()
            .iter()
            .map(|s| (s.hamiltonian.clone(), s.duration))
            .collect();
        let initial = StateVector::plus_state(3);
        let reference = evolve_piecewise(&initial, &segments);
        let schedule = CompiledSchedule::compile_piecewise(&piecewise);
        let fast = evolve_schedule(&initial, &schedule);
        for (a, b) in fast.amplitudes().iter().zip(reference.amplitudes()) {
            assert!((*a - *b).abs() < 1e-10, "{a} != {b}");
        }
    }

    #[test]
    fn empty_schedule_is_identity() {
        let schedule = CompiledSchedule::compile(&[]);
        assert!(schedule.is_empty());
        assert_eq!(schedule.num_layouts(), 0);
        let state = StateVector::plus_state(2);
        let evolved = evolve_schedule(&state, &schedule);
        assert!(evolved.fidelity(&state) > 1.0 - 1e-15);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let h = Hamiltonian::from_terms(1, [(1.0, PauliString::single(0, Pauli::X))]);
        let _ = CompiledSchedule::compile(&[(h, -0.5)]);
    }

    #[test]
    fn scaled_weights_matches_recompiling_scaled_segments() {
        let piecewise = ramp(10);
        let segments: Vec<(Hamiltonian, f64)> = piecewise
            .segments()
            .iter()
            .map(|s| (s.hamiltonian.clone(), s.duration))
            .collect();
        let schedule = CompiledSchedule::compile(&segments);
        // 0.0 and −1.0 are legal miscalibration draws (a Gaussian scale
        // error can reach and cross zero): zero-scale must evolve as the
        // exact identity, negative scale as the sign-flipped Hamiltonian.
        for &scale in &[0.85, 1.0, -0.4, 2.5, 0.0, -1.0] {
            let scaled = schedule.scaled_weights(scale);
            // Layouts are shared, not cloned.
            assert!(schedule.shares_layouts_with(&scaled));
            assert_eq!(scaled.num_segments(), schedule.num_segments());
            assert!((scaled.total_time() - schedule.total_time()).abs() < 1e-15);
            // Physics matches compiling the scaled Hamiltonians from scratch.
            let rescaled: Vec<(Hamiltonian, f64)> = segments
                .iter()
                .map(|(h, d)| (h.scaled(scale), *d))
                .collect();
            let reference = CompiledSchedule::compile(&rescaled);
            let initial = StateVector::plus_state(3);
            let fast = evolve_schedule(&initial, &scaled);
            let slow = evolve_schedule(&initial, &reference);
            for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
                assert!((*a - *b).abs() < 1e-10, "scale {scale}: {a} != {b}");
            }
            // Step-sizing metadata rescales with the weights.
            assert!(
                (scaled.segment_step_strength(0) - schedule.segment_step_strength(0) * scale.abs())
                    .abs()
                    < 1e-12
            );
        }
        // An independently compiled schedule does not share layouts.
        assert!(!schedule.shares_layouts_with(&CompiledSchedule::compile(&segments)));
    }

    #[test]
    fn segment_bound_encloses_the_spectrum() {
        let h = Hamiltonian::from_terms(
            2,
            [
                (0.4, PauliString::identity()),
                (1.5, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                (-0.7, PauliString::single(0, Pauli::X)),
            ],
        );
        let schedule = CompiledSchedule::compile(&[(h, 1.0)]);
        let bound = schedule.segment_bound(0);
        assert!((bound.center - 0.4).abs() < 1e-15);
        assert!((bound.radius - 2.2).abs() < 1e-15);
        assert_eq!(bound.step_strength, schedule.segment_step_strength(0));
        assert!((schedule.segments[0].offdiag_radius - 0.7).abs() < 1e-15);
    }

    #[test]
    fn diag_table_tracks_exact_range_incrementally() {
        // Two segments, same layout, only the detuning moves: the
        // incremental update must land on the same table AND the same
        // (min, max) as a from-scratch fill.
        let h = |detuning: f64| {
            Hamiltonian::from_terms(
                2,
                [
                    (detuning, PauliString::single(0, Pauli::Z)),
                    (0.5, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                    (0.3, PauliString::single(1, Pauli::X)),
                ],
            )
        };
        let schedule = CompiledSchedule::compile(&[(h(0.2), 0.1), (h(-1.1), 0.1)]);
        assert_eq!(schedule.num_layouts(), 1);
        let mut incremental = DiagTableScratch::new();
        schedule.update_diag_table(0, &mut incremental);
        let range0 = incremental.range;
        schedule.update_diag_table(1, &mut incremental);

        let mut fresh = DiagTableScratch::new();
        schedule.update_diag_table(1, &mut fresh);
        assert_eq!(incremental.table, fresh.table);
        assert_eq!(incremental.range, fresh.range);
        assert_ne!(range0, fresh.range);
        // Re-materializing the same segment is free and keeps the range.
        schedule.update_diag_table(1, &mut incremental);
        assert_eq!(incremental.range, fresh.range);
    }

    #[test]
    fn non_finite_scale_is_a_typed_invalid_input() {
        let h = Hamiltonian::from_terms(1, [(1.0, PauliString::single(0, Pauli::X))]);
        let schedule = CompiledSchedule::compile(&[(h, 0.5)]);
        for scale in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let error = schedule.try_scaled_weights(scale).unwrap_err();
            assert!(
                matches!(&error, EvolveError::InvalidInput { context } if context.contains("finite")),
                "scale {scale}: {error}"
            );
        }
    }

    #[test]
    fn zero_scale_evolves_as_exact_identity_with_zero_work() {
        // scaled_weights(0.0) yields segments with step_strength == 0 and
        // radius == 0 on every segment. Regression: every backend must
        // advance them by the exact identity with ZERO kernel applications —
        // the pre-fix Taylor path spent one degenerate application per
        // segment (and pure-identity segments spent a full step train).
        use crate::stepper::{EvolveOptions, StepperKind};
        use crate::Propagator;
        let schedule = CompiledSchedule::compile_piecewise(&ramp(10));
        let zeroed = schedule.scaled_weights(0.0);
        for index in 0..zeroed.num_segments() {
            assert_eq!(zeroed.segment_step_strength(index), 0.0);
            assert_eq!(zeroed.segment_bound(index).radius, 0.0);
        }
        let initial = StateVector::plus_state(3);
        for kind in StepperKind::all() {
            let mut propagator = Propagator::with_options(EvolveOptions::new(kind));
            let mut state = initial.clone();
            propagator.evolve_schedule_in_place(&zeroed, &mut state);
            assert_eq!(
                propagator.kernel_applications(),
                0,
                "{} spent kernel work on H = 0",
                kind.name()
            );
            for (a, b) in state.amplitudes().iter().zip(initial.amplitudes()) {
                assert!((*a - *b).abs() < 1e-15, "{}: {a} != {b}", kind.name());
            }
        }
    }

    #[test]
    fn batch_runs_group_tiny_same_layout_segments() {
        // A uniform tiny-segment ramp is one maximal run.
        let schedule = CompiledSchedule::compile_piecewise(&ramp(20));
        assert_eq!(schedule.batch_runs(), vec![0..20]);
        for index in 0..20 {
            assert_eq!(schedule.segment_layout(index), 0);
        }

        // A long (multi-step) segment splits the grouping; a structure break
        // starts a new run even for tiny segments.
        let a = Hamiltonian::from_terms(2, [(1.0, PauliString::single(0, Pauli::X))]);
        let b = Hamiltonian::from_terms(2, [(0.5, PauliString::two(0, Pauli::Z, 1, Pauli::Z))]);
        let schedule = CompiledSchedule::compile(&[
            (a.clone(), 0.1),  // run 0 (layout 0)
            (a.clone(), 0.0),  // zero-duration: transparent inside run 0
            (a.clone(), 0.15), // still run 0
            (a.clone(), 30.0), // multi-step: excluded
            (b.clone(), 0.1),  // run 1 (layout 1)
            (a.clone(), 0.2),  // run 2 (layout 0 again)
        ]);
        assert_eq!(schedule.batch_runs(), vec![0..3, 4..5, 5..6]);
        assert_eq!(schedule.segment_layout(4), 1);
        assert_eq!(schedule.segment_layout(5), 0);
    }
}
