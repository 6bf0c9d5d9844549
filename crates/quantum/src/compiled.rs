//! Mask-compiled Pauli terms: the allocation-free `H|ψ⟩` hot path.
//!
//! # Design
//!
//! A Pauli string `P = ⊗_q P_q` acting on a computational basis state `|b⟩`
//! sends it to a single basis state with a phase:
//!
//! * `X` flips the qubit's bit,
//! * `Z` contributes `(−1)^{b_q}`,
//! * `Y` does both and adds a constant factor `i` (`Y = i·X·Z`).
//!
//! So the whole string is captured by a bit-triple:
//!
//! * `x_mask` — bits of qubits carrying `X` or `Y` (which bits flip),
//! * `z_mask` — bits of qubits carrying `Z` or `Y` (which bits contribute a
//!   sign),
//! * `i^{y_count}` — a constant phase from the number of `Y` factors, folded
//!   into the term's complex [`weight`](CompiledTerm::weight) together with
//!   the real coefficient.
//!
//! With that, `(c·P)|ψ⟩` evaluated at output index `j` is one gather:
//!
//! ```text
//! out[j] += weight · (−1)^popcount((j ^ x_mask) & z_mask) · ψ[j ^ x_mask]
//! ```
//!
//! — branch-free, no per-basis-state dispatch on `(qubit, Pauli)` pairs, and
//! no heap allocation. A [`CompiledSchedule`] caches the masks of every
//! segment — a constant [`CompiledHamiltonian`] is its one-segment case — so
//! repeated applications inside a Taylor loop pay the compilation cost once.
//! The [`FusedKernel`] writes each output index exactly once, which makes the
//! amplitude loop trivially parallel: execution is delegated to the
//! [`crate::exec`] layer, which splits the output into contiguous
//! lane-aligned chunks handled by the persistent worker pool above the
//! configured parallel threshold (reads gather from the shared input), and
//! dispatches each chunk to either the SIMD **lane path** (blocks of
//! [`LANE_WIDTH`] amplitudes in
//! [`F64x8`] registers) or the scalar reference path —
//! see [`ExecutionContext`].
//!
//! The naive per-qubit reference implementation is retained as
//! [`StateVector::apply_pauli_string`](crate::StateVector::apply_pauli_string)
//! and [`crate::propagate::apply_hamiltonian_naive`]; the property tests in
//! `tests/prop_propagation.rs` pin the two paths together, and the scalar
//! element loop here is in turn the conformance reference the lane path is
//! pinned against.

use crate::exec::{self, ExecutionContext, F64x4, F64x8, KernelPath, LANE_WIDTH};
use crate::schedule::{CompiledSchedule, DiagTableScratch};
use crate::state::{RealizationBlock, StateVector};
use crate::stepper::SpectralBound;
use crate::telemetry::{CompileSpan, CompileTiming};
use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString};
use qturbo_math::Complex;

/// Default parallel threshold: states of at least
/// `2^PARALLEL_THRESHOLD_QUBITS` amplitudes are split across the persistent
/// worker pool; smaller states stay on the calling thread (the dispatch
/// handshake would dominate).
///
/// This is only the *default* of [`ExecutionContext::auto`] — override it
/// per context with [`ExecutionContext::with_parallel_threshold`], and the
/// worker count with [`ExecutionContext::with_threads`] or the
/// `QTURBO_THREADS` environment variable (see
/// [`ExecutionContext::worker_count`] for the full resolution rules).
pub const PARALLEL_THRESHOLD_QUBITS: usize = 14;

/// A Pauli string compiled to its `(x_mask, z_mask, weight)` bit-triple form,
/// scaled by a real coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledTerm {
    x_mask: usize,
    z_mask: usize,
    weight: Complex,
}

impl CompiledTerm {
    /// Compiles `coefficient · string` into mask form.
    pub fn compile(coefficient: f64, string: &PauliString) -> Self {
        let mut x_mask = 0usize;
        let mut z_mask = 0usize;
        let mut y_count = 0u32;
        for (qubit, op) in string.iter() {
            match op {
                Pauli::I => {}
                Pauli::X => x_mask |= 1 << qubit,
                Pauli::Z => z_mask |= 1 << qubit,
                Pauli::Y => {
                    x_mask |= 1 << qubit;
                    z_mask |= 1 << qubit;
                    y_count += 1;
                }
            }
        }
        let y_phase = match y_count % 4 {
            0 => Complex::ONE,
            1 => Complex::I,
            2 => -Complex::ONE,
            _ => -Complex::I,
        };
        CompiledTerm {
            x_mask,
            z_mask,
            weight: y_phase.scale(coefficient),
        }
    }

    /// Bit mask of qubits whose basis bit flips (`X` and `Y` factors).
    pub fn x_mask(&self) -> usize {
        self.x_mask
    }

    /// Bit mask of qubits contributing a `(−1)^bit` sign (`Z` and `Y`
    /// factors).
    pub fn z_mask(&self) -> usize {
        self.z_mask
    }

    /// The term's constant prefactor: `coefficient · i^{y_count}`.
    pub fn weight(&self) -> Complex {
        self.weight
    }

    /// Largest qubit index the term acts on non-trivially, if any.
    pub fn max_qubit(&self) -> Option<usize> {
        let support = self.x_mask | self.z_mask;
        if support == 0 {
            None
        } else {
            Some(usize::BITS as usize - 1 - support.leading_zeros() as usize)
        }
    }

    /// `±1` sign contributed by the `z_mask` at input basis index `i`.
    #[inline(always)]
    fn sign(&self, i: usize) -> f64 {
        // Branch-free: parity 0 → +1.0, parity 1 → −1.0.
        1.0 - 2.0 * ((i & self.z_mask).count_ones() & 1) as f64
    }

    /// `⟨ψ|c·P|ψ⟩` evaluated in one allocation-free pass.
    ///
    /// The result is real for Hermitian terms (real coefficient); the full
    /// complex accumulator is returned so callers can check the imaginary
    /// part if they want.
    pub fn expectation(&self, amplitudes: &[Complex]) -> Complex {
        let mut acc = Complex::ZERO;
        let x_mask = self.x_mask;
        for (j, amp) in amplitudes.iter().enumerate() {
            let i = j ^ x_mask;
            acc += (amp.conj() * amplitudes[i]).scale(self.sign(i));
        }
        self.weight * acc
    }
}

/// A constant Hamiltonian pre-compiled for repeated application inside the
/// propagation loop: a one-segment [`CompiledSchedule`] whose segment is
/// readied once, at compile time.
///
/// The schedule's layout splits the terms into three classes:
///
/// * **diagonal** terms (`x_mask == 0`: products of `Z`s and the identity)
///   are summed into one real-valued table `diag[b] = Σ_t c_t·(−1)^parity`
///   when there are at least two of them, collapsing any number of `Z`/`ZZ`
///   terms into a single sequential multiply stream — the dominant term
///   population of Ising-type models (a lone diagonal term, or a register
///   above 24 qubits, is evaluated on the fly instead);
/// * **pure flips** (`z_mask == 0`: products of `X`s) are bare gathers;
/// * every other term keeps its `(x_mask, z_mask, i^{y_count})` triple and
///   is evaluated as a signed gather.
///
/// The table and its exact range — which tightens the
/// [`spectral_bound`](CompiledHamiltonian::spectral_bound) — come from the
/// same segment-preparation code the schedule evolve loop runs, so a
/// constant `H` and a one-segment schedule are one and the same thing to the
/// steppers. [`apply_into`](CompiledHamiltonian::apply_into) then makes
/// exactly **one write pass** over the output, accumulating the squared norm
/// of the result for free along the way (the Taylor loop's convergence check
/// needs it anyway).
///
/// # Example
///
/// ```
/// use qturbo_quantum::compiled::CompiledHamiltonian;
/// use qturbo_quantum::StateVector;
/// use qturbo_hamiltonian::models::ising_chain;
///
/// let compiled = CompiledHamiltonian::compile(&ising_chain(4, 1.0, 0.5));
/// let state = StateVector::plus_state(4);
/// let mut out = StateVector::zeros(4);
/// compiled.apply_into(&state, &mut out);
/// assert_eq!(compiled.num_terms(), 7); // 3 ZZ bonds + 4 X fields
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledHamiltonian {
    /// The Hamiltonian as segment 0. Its duration is a placeholder: every
    /// evolve call supplies its own time.
    schedule: CompiledSchedule,
    /// Segment 0's diagonal table; empty when the diagonal terms are
    /// evaluated on the fly.
    diag_table: Vec<f64>,
    bound: SpectralBound,
    /// Compile wall time including the table fill, for telemetry.
    /// Always-equal `PartialEq` (see [`CompileTiming`]) so structural
    /// equality of compiled Hamiltonians is unaffected.
    timing: CompileTiming,
}

impl CompiledHamiltonian {
    /// Compiles every term of `hamiltonian` into mask form.
    ///
    /// When the diagonal table is built, its exact minimum and maximum are
    /// tracked in the same fill pass and folded into the
    /// [`spectral_bound`](CompiledHamiltonian::spectral_bound) through
    /// [`SpectralBound::with_exact_diagonal`] — the compile-time analysis
    /// that shrinks the Chebyshev expansion order (and informs automatic
    /// backend selection) on detuning-dominated models.
    pub fn compile(hamiltonian: &Hamiltonian) -> Self {
        let started = std::time::Instant::now();
        let schedule = CompiledSchedule::try_compile_segments([(hamiltonian, 0.0)])
            .unwrap_or_else(|error| panic!("{error}"));
        let mut scratch = DiagTableScratch::new();
        let (_, bound) = schedule.prepare_segment(0, &mut scratch);
        CompiledHamiltonian {
            schedule,
            diag_table: scratch.table,
            bound,
            timing: CompileTiming {
                wall_ns: started.elapsed().as_nanos() as u64,
            },
        }
    }

    /// Wall nanoseconds spent in [`compile`](CompiledHamiltonian::compile).
    pub fn compile_wall_ns(&self) -> u64 {
        self.timing.wall_ns
    }

    /// Telemetry [`CompileSpan`] describing this compilation (a constant
    /// Hamiltonian is one segment with one layout).
    pub fn compile_span(&self) -> CompileSpan {
        CompileSpan {
            segments: 1,
            layouts: 1,
            wall_ns: self.timing.wall_ns,
        }
    }

    /// Number of qubits of the source Hamiltonian.
    pub fn num_qubits(&self) -> usize {
        self.schedule.num_qubits()
    }

    /// Number of compiled terms.
    pub fn num_terms(&self) -> usize {
        self.schedule.segment_weight_row(0).len()
    }

    /// Returns `true` when there are no terms.
    pub fn is_empty(&self) -> bool {
        self.num_terms() == 0
    }

    /// Strength used to size Taylor steps (`‖c‖₁ + max|c|`, matching the
    /// scalar reference path so both produce identical step counts).
    pub fn step_strength(&self) -> f64 {
        self.bound.step_strength
    }

    /// The spectral bound the steppers size their work from: center, radius,
    /// and Taylor step strength (see [`SpectralBound`]).
    pub fn spectral_bound(&self) -> SpectralBound {
        self.bound
    }

    /// The segment's kernel view: masks borrowed from the schedule layout,
    /// weights from its weight row, and the precomputed diagonal table.
    pub fn kernel(&self) -> FusedKernel<'_> {
        self.schedule.segment_kernel(0, &self.diag_table)
    }

    /// Computes `out = H|ψ⟩` in place and returns `‖H|ψ⟩‖`. `out` is fully
    /// overwritten; no heap allocation is performed.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions of `input` and `out` differ, or the
    /// Hamiltonian acts on more qubits than the state has.
    pub fn apply_into(&self, input: &StateVector, out: &mut StateVector) -> f64 {
        self.kernel().apply_into(input, out)
    }

    /// `⟨ψ|H|ψ⟩` in one allocation-free pass per term.
    ///
    /// # Panics
    ///
    /// Panics if the Hamiltonian acts on more qubits than the state has.
    pub fn expectation(&self, state: &StateVector) -> f64 {
        assert!(
            self.num_qubits() <= state.num_qubits(),
            "Hamiltonian acts on more qubits than the state"
        );
        let amplitudes = state.amplitudes();
        self.schedule
            .segment_terms(0)
            .map(|term| term.expectation(amplitudes).re)
            .sum()
    }
}

/// A borrowed, classified view of one compiled segment driving one fused
/// `H|ψ⟩` write pass: diagonal table (or on-the-fly diagonal terms),
/// pure-flip terms, and signed gather terms.
///
/// Every segment of a [`CompiledSchedule`] lowers to this view — a constant
/// [`CompiledHamiltonian`] is the one-segment case — so the threaded apply
/// kernels exist exactly once and there is one borrow shape: masks from the
/// schedule's shared **columnar** layout, real weights from the segment's
/// row of the `S × T` weight matrix, the diagonal table from whoever
/// materialized it. No per-segment weight vector is re-materialized.
///
/// It is also the segment handle the [`crate::stepper::Stepper`] backends
/// evolve through: a stepper receives one `FusedKernel` per segment and
/// drives however many `H|ψ⟩` applications its integration scheme needs.
#[derive(Clone, Copy)]
pub struct FusedKernel<'a> {
    pub(crate) num_qubits: usize,
    pub(crate) diag_table: &'a [f64],
    /// Untabled diagonal terms, evaluated on the fly (used by schedule
    /// segments whose diagonal table was not built — too few terms or too
    /// many qubits). Masks come from the shared layout, weights from the
    /// segment's weight-matrix row; both slices have equal length. Mutually
    /// exclusive with `diag_table` in practice, though the kernel sums both
    /// if given.
    pub(crate) diag_masks: &'a [usize],
    pub(crate) diag_weights: &'a [f64],
    /// Pure bit-flip terms: `x_mask`es parallel to real weights.
    pub(crate) flip_masks: &'a [usize],
    pub(crate) flip_weights: &'a [f64],
    /// Generic gather terms: each term's weight is its unit `i^{y_count}`
    /// phase, the real coefficient is the parallel `gather_weights` entry.
    pub(crate) gather_terms: &'a [CompiledTerm],
    pub(crate) gather_weights: &'a [f64],
}

impl FusedKernel<'_> {
    /// `true` when the kernel has no terms at all (`H = 0`).
    pub fn is_empty(&self) -> bool {
        self.diag_table.is_empty()
            && self.diag_masks.is_empty()
            && self.flip_masks.is_empty()
            && self.gather_terms.is_empty()
    }

    /// One fused-kernel element: `H|ψ⟩` at output index `j`, assembled from
    /// the diagonal table (or on-the-fly diagonal terms), the pure-flip
    /// terms, and the generic gathers.
    #[inline(always)]
    fn element(&self, input: &[Complex], j: usize, diag_index_mask: usize) -> Complex {
        let mut acc = if self.diag_table.is_empty() {
            Complex::ZERO
        } else {
            // The table covers the Hamiltonian's own register; higher state
            // qubits (identity-extended) just wrap around the index mask.
            input[j].scale(self.diag_table[j & diag_index_mask])
        };
        if !self.diag_masks.is_empty() {
            acc += input[j].scale(diagonal_value(self.diag_masks, self.diag_weights, j));
        }
        for (&x_mask, &weight) in self.flip_masks.iter().zip(self.flip_weights) {
            acc += input[j ^ x_mask].scale(weight);
        }
        for (term, &weight) in self.gather_terms.iter().zip(self.gather_weights) {
            let i = j ^ term.x_mask;
            acc += (term.weight * input[i]).scale(weight * term.sign(i));
        }
        acc
    }

    /// The fused kernel over output indices `offset .. offset + out.len()`:
    /// one write pass, returns the chunk's squared norm.
    fn apply_range(&self, input: &[Complex], out: &mut [Complex], offset: usize) -> f64 {
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        let mut norm_sqr = 0.0;
        for (k, slot) in out.iter_mut().enumerate() {
            let acc = self.element(input, offset + k, diag_index_mask);
            norm_sqr += acc.norm_sqr();
            *slot = acc;
        }
        norm_sqr
    }

    /// [`apply_range`](Self::apply_range) with the Taylor accumulation fused
    /// into the same pass: `target[j] += factor · out[j]`.
    fn apply_accumulate_range(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        target: &mut [Complex],
        factor: Complex,
        offset: usize,
    ) -> f64 {
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        let mut norm_sqr = 0.0;
        for (k, (slot, target_slot)) in out.iter_mut().zip(target.iter_mut()).enumerate() {
            let acc = self.element(input, offset + k, diag_index_mask);
            norm_sqr += acc.norm_sqr();
            *slot = acc;
            *target_slot += factor * acc;
        }
        norm_sqr
    }

    /// [`apply_accumulate_range`](Self::apply_accumulate_range) with **two**
    /// Taylor terms retired in the same pass: `target[j] += f_input ·
    /// input[j] + f_out · out[j]`. The input element at `j` is already
    /// loaded for the diagonal part of the gather work, so the extra
    /// accumulation costs no additional memory traffic — this is how the
    /// batched sweep fuses the first- and second-order updates of a step
    /// into one traversal.
    fn apply_accumulate_both_range(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        target: &mut [Complex],
        f_input: Complex,
        f_out: Complex,
        offset: usize,
    ) -> f64 {
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        let mut norm_sqr = 0.0;
        for (k, (slot, target_slot)) in out.iter_mut().zip(target.iter_mut()).enumerate() {
            let j = offset + k;
            let acc = self.element(input, j, diag_index_mask);
            norm_sqr += acc.norm_sqr();
            *slot = acc;
            *target_slot += f_input * input[j] + f_out * acc;
        }
        norm_sqr
    }

    // -- lane path ---------------------------------------------------------

    /// `true` when the lane path can process this kernel/dimension: the
    /// state must hold at least one full block, and a diagonal table (when
    /// present) must cover at least one block so table lookups stay
    /// contiguous. Otherwise the whole call falls back to the scalar path.
    fn use_lanes(&self, context: &ExecutionContext, dim: usize) -> bool {
        context.kernel_path() == KernelPath::Lane
            && dim >= LANE_WIDTH
            && (self.diag_table.is_empty() || self.diag_table.len() >= LANE_WIDTH)
    }

    /// One lane block of the fused kernel: `H|ψ⟩` at output indices
    /// `b .. b + LANE_WIDTH` (with `b` block-aligned), assembled in an
    /// [`F64x8`] register of interleaved complex amplitudes.
    ///
    /// Term classes lower as follows:
    ///
    /// * diagonal table — contiguous table block × contiguous input block;
    /// * on-the-fly diagonal — per-lane mask parity into an [`F64x4`];
    /// * pure flips — contiguous block load at `b ^ (x_mask & !3)` followed
    ///   by an in-register XOR pair-permute for the low bits, × real weight;
    /// * gathers — same permuted load, × the complex term weight, × per-lane
    ///   signs split as `sign(i) = sign_hi(base & z_mask) ·
    ///   low_sign((k^p) & z_mask & 3)` (the block base is lane-aligned, so
    ///   the high and low sign parts factor exactly).
    #[inline(always)]
    fn lane_block(&self, input: &[Complex], b: usize, diag_index_mask: usize) -> F64x8 {
        let mut acc = F64x8::ZERO;
        if !self.diag_table.is_empty() {
            let base = b & diag_index_mask;
            let diag = F64x4::load(&self.diag_table[base..base + LANE_WIDTH]);
            acc = load_block(input, b) * diag.dup_pairs();
        }
        if !self.diag_masks.is_empty() {
            let mut diag = [0.0; LANE_WIDTH];
            for (k, slot) in diag.iter_mut().enumerate() {
                *slot = diagonal_value(self.diag_masks, self.diag_weights, b + k);
            }
            acc = acc + load_block(input, b) * F64x4(diag).dup_pairs();
        }
        // Two accumulators halve the floating-point dependency chain through
        // the flip terms — the dominant term class of chain models.
        let mut acc_odd = F64x8::ZERO;
        let mask_pairs = self.flip_masks.chunks_exact(2);
        let mask_tail = mask_pairs.remainder();
        let weight_pairs = self.flip_weights.chunks_exact(2);
        for (masks, weights) in mask_pairs.zip(weight_pairs) {
            acc = acc + gather_block(input, b, masks[0]).scale(weights[0]);
            acc_odd = acc_odd + gather_block(input, b, masks[1]).scale(weights[1]);
        }
        if let (Some(&x_mask), Some(&weight)) = (mask_tail.first(), self.flip_weights.last()) {
            acc = acc + gather_block(input, b, x_mask).scale(weight);
        }
        acc = acc + acc_odd;
        for (term, &weight) in self.gather_terms.iter().zip(self.gather_weights) {
            acc = acc + gather_term_block(input, b, term, weight);
        }
        acc
    }

    /// Lane twin of [`apply_range`](Self::apply_range): same contract, block
    /// loop instead of element loop. Any non-block tail (never produced by
    /// the lane-aligned chunk planner, kept for safety) runs scalar.
    fn lane_apply_range(&self, input: &[Complex], out: &mut [Complex], offset: usize) -> f64 {
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        let mut norm_acc = F64x8::ZERO;
        for (block, chunk) in out.chunks_exact_mut(LANE_WIDTH).enumerate() {
            let acc = self.lane_block(input, offset + block * LANE_WIDTH, diag_index_mask);
            norm_acc = norm_acc + acc * acc;
            store_block(acc, chunk);
        }
        let mut norm_sqr = norm_acc.horizontal_sum();
        for k in (out.len() / LANE_WIDTH) * LANE_WIDTH..out.len() {
            let acc = self.element(input, offset + k, diag_index_mask);
            norm_sqr += acc.norm_sqr();
            out[k] = acc;
        }
        norm_sqr
    }

    /// Lane twin of [`apply_accumulate_range`](Self::apply_accumulate_range).
    fn lane_apply_accumulate_range(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        target: &mut [Complex],
        factor: Complex,
        offset: usize,
    ) -> f64 {
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        let mut norm_acc = F64x8::ZERO;
        for (block, (out_chunk, target_chunk)) in out
            .chunks_exact_mut(LANE_WIDTH)
            .zip(target.chunks_exact_mut(LANE_WIDTH))
            .enumerate()
        {
            let acc = self.lane_block(input, offset + block * LANE_WIDTH, diag_index_mask);
            norm_acc = norm_acc + acc * acc;
            store_block(acc, out_chunk);
            let updated = load_block(target_chunk, 0) + acc.mul_complex(factor.re, factor.im);
            store_block(updated, target_chunk);
        }
        let mut norm_sqr = norm_acc.horizontal_sum();
        for k in (out.len() / LANE_WIDTH) * LANE_WIDTH..out.len() {
            let acc = self.element(input, offset + k, diag_index_mask);
            norm_sqr += acc.norm_sqr();
            out[k] = acc;
            target[k] += factor * acc;
        }
        norm_sqr
    }

    /// Lane twin of
    /// [`apply_accumulate_both_range`](Self::apply_accumulate_both_range).
    #[allow(clippy::too_many_arguments)]
    fn lane_apply_accumulate_both_range(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        target: &mut [Complex],
        f_input: Complex,
        f_out: Complex,
        offset: usize,
    ) -> f64 {
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        let mut norm_acc = F64x8::ZERO;
        for (block, (out_chunk, target_chunk)) in out
            .chunks_exact_mut(LANE_WIDTH)
            .zip(target.chunks_exact_mut(LANE_WIDTH))
            .enumerate()
        {
            let b = offset + block * LANE_WIDTH;
            let acc = self.lane_block(input, b, diag_index_mask);
            norm_acc = norm_acc + acc * acc;
            store_block(acc, out_chunk);
            let update = load_block(input, b).mul_complex(f_input.re, f_input.im)
                + acc.mul_complex(f_out.re, f_out.im);
            store_block(load_block(target_chunk, 0) + update, target_chunk);
        }
        let mut norm_sqr = norm_acc.horizontal_sum();
        for k in (out.len() / LANE_WIDTH) * LANE_WIDTH..out.len() {
            let j = offset + k;
            let acc = self.element(input, j, diag_index_mask);
            norm_sqr += acc.norm_sqr();
            out[k] = acc;
            target[k] += f_input * input[j] + f_out * acc;
        }
        norm_sqr
    }

    // -- public entry points ------------------------------------------------

    /// Computes `out = H|ψ⟩` and returns `‖H|ψ⟩‖` under the default
    /// [`ExecutionContext::auto`]. `out` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions of `input` and `out` differ, or the kernel
    /// acts on more qubits than the state has.
    pub fn apply_into(&self, input: &StateVector, out: &mut StateVector) -> f64 {
        self.apply_into_with(&ExecutionContext::auto(), input, out)
    }

    /// [`apply_into`](Self::apply_into) under an explicit
    /// [`ExecutionContext`]: the context picks the kernel path (lane vs
    /// scalar) and splits the output across the persistent worker pool above
    /// its parallel threshold.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions of `input` and `out` differ, or the kernel
    /// acts on more qubits than the state has.
    pub fn apply_into_with(
        &self,
        context: &ExecutionContext,
        input: &StateVector,
        out: &mut StateVector,
    ) -> f64 {
        assert_eq!(input.dim(), out.dim(), "state dimension mismatch");
        assert!(
            self.num_qubits <= input.num_qubits(),
            "Hamiltonian acts on more qubits than the state"
        );
        let dim = input.dim();
        let input = input.amplitudes();
        let out = out.amplitudes_mut();
        let lanes = self.use_lanes(context, dim);
        let (participants, chunk) = context.plan(dim);
        if participants <= 1 {
            let norm_sqr = if lanes {
                self.lane_apply_range(input, out, 0)
            } else {
                self.apply_range(input, out, 0)
            };
            return norm_sqr.sqrt();
        }
        // Each participant owns a contiguous chunk of the *output*; every
        // output index is written exactly once, so chunks never race. Reads
        // gather from the shared input vector.
        let shared_out = SharedAmps::new(out);
        let norm_sqr = exec::pool_run(participants, &|participant: usize| {
            let (start, len) = chunk_bounds(participant, chunk, dim);
            // SAFETY: participants own disjoint output ranges.
            let out_chunk = unsafe { shared_out.slice(start, len) };
            if lanes {
                self.lane_apply_range(input, out_chunk, start)
            } else {
                self.apply_range(input, out_chunk, start)
            }
        });
        norm_sqr.sqrt()
    }

    /// [`apply_into_with`](Self::apply_into_with) with `target += factor ·
    /// out` fused into the same write pass: the Taylor iteration's apply,
    /// accumulate, and norm in one memory sweep instead of three.
    ///
    /// # Panics
    ///
    /// Panics if any dimensions differ, or the kernel acts on more qubits
    /// than the state has.
    pub fn apply_accumulate_into_with(
        &self,
        context: &ExecutionContext,
        input: &StateVector,
        out: &mut StateVector,
        target: &mut StateVector,
        factor: Complex,
    ) -> f64 {
        assert_eq!(input.dim(), out.dim(), "state dimension mismatch");
        assert_eq!(input.dim(), target.dim(), "state dimension mismatch");
        assert!(
            self.num_qubits <= input.num_qubits(),
            "Hamiltonian acts on more qubits than the state"
        );
        let dim = input.dim();
        let input = input.amplitudes();
        let out = out.amplitudes_mut();
        let target = target.amplitudes_mut();
        let lanes = self.use_lanes(context, dim);
        let (participants, chunk) = context.plan(dim);
        if participants <= 1 {
            let norm_sqr = if lanes {
                self.lane_apply_accumulate_range(input, out, target, factor, 0)
            } else {
                self.apply_accumulate_range(input, out, target, factor, 0)
            };
            return norm_sqr.sqrt();
        }
        let shared_out = SharedAmps::new(out);
        let shared_target = SharedAmps::new(target);
        let norm_sqr = exec::pool_run(participants, &|participant: usize| {
            let (start, len) = chunk_bounds(participant, chunk, dim);
            // SAFETY: participants own disjoint output/target ranges.
            let out_chunk = unsafe { shared_out.slice(start, len) };
            let target_chunk = unsafe { shared_target.slice(start, len) };
            if lanes {
                self.lane_apply_accumulate_range(input, out_chunk, target_chunk, factor, start)
            } else {
                self.apply_accumulate_range(input, out_chunk, target_chunk, factor, start)
            }
        });
        norm_sqr.sqrt()
    }

    /// [`apply_accumulate_into_with`](Self::apply_accumulate_into_with)
    /// with **two** series terms retired in the same write pass:
    /// `target += f_input·input + f_out·out`. Returns `‖out‖`.
    ///
    /// This is the fused first-and-second-order pass of the batched
    /// multi-segment Taylor sweep: the first kernel application of a step
    /// reads the state directly (no series copy) and therefore cannot
    /// accumulate into it — its first-order term is retired here, one pass
    /// later, alongside the second-order term. The input element at each
    /// output index is already loaded for the gather work, so the extra
    /// accumulation adds no memory traffic.
    ///
    /// # Panics
    ///
    /// Panics if any dimensions differ, or the kernel acts on more qubits
    /// than the state has.
    pub fn apply_accumulate_both_into_with(
        &self,
        context: &ExecutionContext,
        input: &StateVector,
        out: &mut StateVector,
        target: &mut StateVector,
        f_input: Complex,
        f_out: Complex,
    ) -> f64 {
        assert_eq!(input.dim(), out.dim(), "state dimension mismatch");
        assert_eq!(input.dim(), target.dim(), "state dimension mismatch");
        assert!(
            self.num_qubits <= input.num_qubits(),
            "Hamiltonian acts on more qubits than the state"
        );
        let dim = input.dim();
        let input = input.amplitudes();
        let out = out.amplitudes_mut();
        let target = target.amplitudes_mut();
        let lanes = self.use_lanes(context, dim);
        let (participants, chunk) = context.plan(dim);
        if participants <= 1 {
            let norm_sqr = if lanes {
                self.lane_apply_accumulate_both_range(input, out, target, f_input, f_out, 0)
            } else {
                self.apply_accumulate_both_range(input, out, target, f_input, f_out, 0)
            };
            return norm_sqr.sqrt();
        }
        let shared_out = SharedAmps::new(out);
        let shared_target = SharedAmps::new(target);
        let norm_sqr = exec::pool_run(participants, &|participant: usize| {
            let (start, len) = chunk_bounds(participant, chunk, dim);
            // SAFETY: participants own disjoint output/target ranges.
            let out_chunk = unsafe { shared_out.slice(start, len) };
            let target_chunk = unsafe { shared_target.slice(start, len) };
            if lanes {
                self.lane_apply_accumulate_both_range(
                    input,
                    out_chunk,
                    target_chunk,
                    f_input,
                    f_out,
                    start,
                )
            } else {
                self.apply_accumulate_both_range(
                    input,
                    out_chunk,
                    target_chunk,
                    f_input,
                    f_out,
                    start,
                )
            }
        });
        norm_sqr.sqrt()
    }
}

/// A borrowed kernel view driving one fused `H|ψ⟩` write pass over a
/// [`RealizationBlock`]: R noise realizations in structure-of-arrays form,
/// where the amplitude of basis state `j`, realization `r` lives at
/// `j · stride + r`.
///
/// This is the realization-batched twin of [`FusedKernel`]. Every mask,
/// diagonal-table entry, gather index, **and sign popcount** is read or
/// computed **once** per basis state for all R realizations, and the
/// [`F64x4`]/[`F64x8`] lanes vectorize *across realizations*: the source of
/// the gather at output row `j` is the whole row `j ^ x_mask`, whose lane
/// blocks are stride-aligned for every mask — no in-register permute,
/// divergence-free SIMD even where gathers defeat within-state lanes.
///
/// Per-realization physics enters through exactly one multiply: coherent
/// amplitude miscalibration scales the **whole** segment Hamiltonian, so
/// `H_r|ψ_r⟩ = s_r · (H|ψ_r⟩)`. The kernel therefore keeps the *shared*
/// scalar weight row of the segment (the same row [`FusedKernel`] reads) and
/// applies the per-realization scale lane once per basis row at the end —
/// the `R × S × T` weight product is formed in-register instead of being
/// materialized, and every untabled diagonal term folds into **one** scalar
/// per basis row before touching any amplitude lane.
///
/// Padding lanes (`realizations ≤ r < stride`) hold zero amplitudes and
/// zero scales; every output lane only reads input lanes of the same
/// realization index, so padding stays identically zero through any number
/// of applications.
#[derive(Clone, Copy)]
pub struct BlockKernel<'a> {
    pub(crate) num_qubits: usize,
    /// Lane-aligned realization count: `realizations.next_multiple_of(4)`.
    pub(crate) stride: usize,
    /// Shared unscaled diagonal table, indexed by `basis & (len − 1)`.
    pub(crate) diag_table: &'a [f64],
    /// Untabled diagonal terms: masks and shared scalar weights from the
    /// segment's columnar weight row.
    pub(crate) diag_masks: &'a [usize],
    pub(crate) diag_weights: &'a [f64],
    /// Pure bit-flip terms, shared scalar weights.
    pub(crate) flip_masks: &'a [usize],
    pub(crate) flip_weights: &'a [f64],
    /// Generic gather terms: each term's weight is its unit `i^{y_count}`
    /// phase, the shared real coefficient rides in the parallel
    /// `gather_weights` column.
    pub(crate) gather_terms: &'a [CompiledTerm],
    pub(crate) gather_weights: &'a [f64],
    /// Per-realization miscalibration scales duplicated into complex-pair
    /// positions (`[s_0, s_0, s_1, s_1, …]`, length `2 · stride`, padding
    /// zero): one [`F64x8`] load per lane block, no shuffle.
    pub(crate) scale_pairs: &'a [f64],
}

impl BlockKernel<'_> {
    /// `true` when the kernel has no terms at all (`H = 0`).
    pub fn is_empty(&self) -> bool {
        self.diag_table.is_empty()
            && self.diag_masks.is_empty()
            && self.flip_masks.is_empty()
            && self.gather_terms.is_empty()
    }

    /// One scalar element: `H_r|ψ_r⟩` at basis row `j`, realization lane
    /// `r` — the conformance reference of the lane path below. The shared
    /// unscaled element is assembled first, then scaled once by `s_r`.
    #[inline(always)]
    fn element(&self, input: &[Complex], j: usize, r: usize, diag_index_mask: usize) -> Complex {
        let stride = self.stride;
        let mut diag = if self.diag_table.is_empty() {
            0.0
        } else {
            self.diag_table[j & diag_index_mask]
        };
        for (&z_mask, &weight) in self.diag_masks.iter().zip(self.diag_weights) {
            let sign = 1.0 - 2.0 * ((j & z_mask).count_ones() & 1) as f64;
            diag += sign * weight;
        }
        let has_diag = !self.diag_table.is_empty() || !self.diag_masks.is_empty();
        let mut acc = if has_diag {
            input[j * stride + r].scale(diag)
        } else {
            Complex::ZERO
        };
        for (&x_mask, &weight) in self.flip_masks.iter().zip(self.flip_weights) {
            acc += input[(j ^ x_mask) * stride + r].scale(weight);
        }
        for (term, &weight) in self.gather_terms.iter().zip(self.gather_weights) {
            let i = j ^ term.x_mask;
            acc += (term.weight * input[i * stride + r]).scale(weight * term.sign(i));
        }
        acc.scale(self.scale_pairs[2 * r])
    }

    /// One lane block of the fused kernel: basis row `j`, realization lanes
    /// `lane .. lane + LANE_WIDTH`, assembled in an [`F64x8`] of interleaved
    /// complex amplitudes.
    ///
    /// Every per-basis-state quantity — table value, diagonal sign, gather
    /// sign, and the weight itself — is a **scalar** here, identical for all
    /// realizations of the row: the whole diagonal class folds into one
    /// scalar before touching amplitudes, each flip/gather term is one
    /// aligned lane load and one scalar-broadcast multiply (never a permute,
    /// never a per-lane sign), and the per-realization miscalibration scale
    /// multiplies the finished row once at the end.
    #[inline(always)]
    fn lane_row(&self, input: &[Complex], j: usize, lane: usize, diag_index_mask: usize) -> F64x8 {
        let stride = self.stride;
        // Fold the table and every untabled diagonal column into one scalar
        // first: one popcount per column per row, for all realizations.
        let mut diag = if self.diag_table.is_empty() {
            0.0
        } else {
            self.diag_table[j & diag_index_mask]
        };
        for (&z_mask, &weight) in self.diag_masks.iter().zip(self.diag_weights) {
            let sign = 1.0 - 2.0 * ((j & z_mask).count_ones() & 1) as f64;
            diag += sign * weight;
        }
        let has_diag = !self.diag_table.is_empty() || !self.diag_masks.is_empty();
        let mut acc = if has_diag {
            load_block(input, j * stride + lane).scale(diag)
        } else {
            F64x8::ZERO
        };
        // Two accumulators halve the floating-point dependency chain through
        // the flip terms, mirroring the within-state lane kernel.
        let mut acc_odd = F64x8::ZERO;
        for (c, (&x_mask, &weight)) in self.flip_masks.iter().zip(self.flip_weights).enumerate() {
            let contribution = load_block(input, (j ^ x_mask) * stride + lane).scale(weight);
            if c & 1 == 0 {
                acc = acc + contribution;
            } else {
                acc_odd = acc_odd + contribution;
            }
        }
        acc = acc + acc_odd;
        // Gather terms: real-weight contributions land in `acc` directly;
        // imaginary-weight contributions (odd Y count, weight `±i`)
        // accumulate **unrotated** in `acc_im` and pay the `i·(…)` pair swap
        // once per row instead of once per term. The sign is one scalar per
        // term per row — shared by every realization lane.
        if !self.gather_terms.is_empty() {
            let mut acc_im = F64x8::ZERO;
            for (term, &weight) in self.gather_terms.iter().zip(self.gather_weights) {
                let i = j ^ term.x_mask;
                let src = load_block(input, i * stride + lane);
                let w = weight * row_sign(i, term.z_mask);
                if term.weight.im == 0.0 {
                    acc = acc + src.scale(term.weight.re * w);
                } else {
                    acc_im = acc_im + src.scale(term.weight.im * w);
                }
            }
            // i · (a + b·i) = −b + a·i: swap each pair, negate the real lane.
            acc = acc + acc_im.swap_pairs() * F64x8([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]);
        }
        acc * F64x8::load(&self.scale_pairs[2 * lane..])
    }

    /// Two adjacent lane blocks of basis row `j` (realization lanes
    /// `lane .. lane + 2·LANE_WIDTH`) sharing one evaluation of the row's
    /// scalar work: the diagonal fold, every gather sign, and every scalar
    /// weight are computed **once** and drive both blocks. This is the hot
    /// path for strides ≥ 8 — it halves the per-row scalar overhead that
    /// [`lane_row`](Self::lane_row) would pay per block, and the two
    /// accumulator chains give the same instruction-level parallelism as the
    /// single-block path's odd/even split.
    #[inline(always)]
    fn lane_row_pair(
        &self,
        input: &[Complex],
        j: usize,
        lane: usize,
        diag_index_mask: usize,
    ) -> [F64x8; 2] {
        let stride = self.stride;
        let base = j * stride + lane;
        let mut diag = if self.diag_table.is_empty() {
            0.0
        } else {
            self.diag_table[j & diag_index_mask]
        };
        for (&z_mask, &weight) in self.diag_masks.iter().zip(self.diag_weights) {
            let sign = 1.0 - 2.0 * ((j & z_mask).count_ones() & 1) as f64;
            diag += sign * weight;
        }
        let has_diag = !self.diag_table.is_empty() || !self.diag_masks.is_empty();
        let (mut acc0, mut acc1) = if has_diag {
            (
                load_block(input, base).scale(diag),
                load_block(input, base + LANE_WIDTH).scale(diag),
            )
        } else {
            (F64x8::ZERO, F64x8::ZERO)
        };
        for (&x_mask, &weight) in self.flip_masks.iter().zip(self.flip_weights) {
            let src = (j ^ x_mask) * stride + lane;
            acc0 = acc0 + load_block(input, src).scale(weight);
            acc1 = acc1 + load_block(input, src + LANE_WIDTH).scale(weight);
        }
        if !self.gather_terms.is_empty() {
            let mut im0 = F64x8::ZERO;
            let mut im1 = F64x8::ZERO;
            for (term, &weight) in self.gather_terms.iter().zip(self.gather_weights) {
                let i = j ^ term.x_mask;
                let src = i * stride + lane;
                let w = row_sign(i, term.z_mask) * weight;
                if term.weight.im == 0.0 {
                    let w = term.weight.re * w;
                    acc0 = acc0 + load_block(input, src).scale(w);
                    acc1 = acc1 + load_block(input, src + LANE_WIDTH).scale(w);
                } else {
                    let w = term.weight.im * w;
                    im0 = im0 + load_block(input, src).scale(w);
                    im1 = im1 + load_block(input, src + LANE_WIDTH).scale(w);
                }
            }
            let rot = F64x8([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]);
            acc0 = acc0 + im0.swap_pairs() * rot;
            acc1 = acc1 + im1.swap_pairs() * rot;
        }
        [
            acc0 * F64x8::load(&self.scale_pairs[2 * lane..]),
            acc1 * F64x8::load(&self.scale_pairs[2 * (lane + LANE_WIDTH)..]),
        ]
    }

    /// The fused kernel over basis rows `row_offset ..` covering `out`
    /// (`out.len()` is a multiple of `stride`): one write pass, returns the
    /// chunk's squared norm summed over all realization lanes.
    fn apply_rows(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        row_offset: usize,
        lanes: bool,
    ) -> f64 {
        let stride = self.stride;
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        if lanes {
            let mut norm_acc = F64x8::ZERO;
            if stride.is_multiple_of(2 * LANE_WIDTH) {
                for (k, row) in out.chunks_exact_mut(stride).enumerate() {
                    let j = row_offset + k;
                    for (pair, chunk) in row.chunks_exact_mut(2 * LANE_WIDTH).enumerate() {
                        let accs =
                            self.lane_row_pair(input, j, pair * 2 * LANE_WIDTH, diag_index_mask);
                        for (n, acc) in accs.into_iter().enumerate() {
                            norm_acc = norm_acc + acc * acc;
                            store_block(acc, &mut chunk[n * LANE_WIDTH..]);
                        }
                    }
                }
            } else {
                for (k, row) in out.chunks_exact_mut(stride).enumerate() {
                    let j = row_offset + k;
                    for (block, chunk) in row.chunks_exact_mut(LANE_WIDTH).enumerate() {
                        let acc = self.lane_row(input, j, block * LANE_WIDTH, diag_index_mask);
                        norm_acc = norm_acc + acc * acc;
                        store_block(acc, chunk);
                    }
                }
            }
            return norm_acc.horizontal_sum();
        }
        let mut norm_sqr = 0.0;
        for (k, row) in out.chunks_exact_mut(stride).enumerate() {
            let j = row_offset + k;
            for (r, slot) in row.iter_mut().enumerate() {
                let acc = self.element(input, j, r, diag_index_mask);
                norm_sqr += acc.norm_sqr();
                *slot = acc;
            }
        }
        norm_sqr
    }

    /// [`apply_rows`](Self::apply_rows) with the Taylor accumulation fused
    /// into the same pass: `target += factor · out`, lane by lane.
    fn apply_accumulate_rows(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        target: &mut [Complex],
        factor: Complex,
        row_offset: usize,
        lanes: bool,
    ) -> f64 {
        let stride = self.stride;
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        if lanes {
            let mut norm_acc = F64x8::ZERO;
            if stride.is_multiple_of(2 * LANE_WIDTH) {
                for (k, (row, target_row)) in out
                    .chunks_exact_mut(stride)
                    .zip(target.chunks_exact_mut(stride))
                    .enumerate()
                {
                    let j = row_offset + k;
                    for (pair, (chunk, target_chunk)) in row
                        .chunks_exact_mut(2 * LANE_WIDTH)
                        .zip(target_row.chunks_exact_mut(2 * LANE_WIDTH))
                        .enumerate()
                    {
                        let accs =
                            self.lane_row_pair(input, j, pair * 2 * LANE_WIDTH, diag_index_mask);
                        for (n, acc) in accs.into_iter().enumerate() {
                            let slot = &mut chunk[n * LANE_WIDTH..];
                            norm_acc = norm_acc + acc * acc;
                            store_block(acc, slot);
                            let target_slot = &mut target_chunk[n * LANE_WIDTH..];
                            let updated =
                                load_block(target_slot, 0) + acc.mul_complex(factor.re, factor.im);
                            store_block(updated, target_slot);
                        }
                    }
                }
            } else {
                for (k, (row, target_row)) in out
                    .chunks_exact_mut(stride)
                    .zip(target.chunks_exact_mut(stride))
                    .enumerate()
                {
                    let j = row_offset + k;
                    for (block, (chunk, target_chunk)) in row
                        .chunks_exact_mut(LANE_WIDTH)
                        .zip(target_row.chunks_exact_mut(LANE_WIDTH))
                        .enumerate()
                    {
                        let acc = self.lane_row(input, j, block * LANE_WIDTH, diag_index_mask);
                        norm_acc = norm_acc + acc * acc;
                        store_block(acc, chunk);
                        let updated =
                            load_block(target_chunk, 0) + acc.mul_complex(factor.re, factor.im);
                        store_block(updated, target_chunk);
                    }
                }
            }
            return norm_acc.horizontal_sum();
        }
        let mut norm_sqr = 0.0;
        for (k, (row, target_row)) in out
            .chunks_exact_mut(stride)
            .zip(target.chunks_exact_mut(stride))
            .enumerate()
        {
            let j = row_offset + k;
            for (r, (slot, target_slot)) in row.iter_mut().zip(target_row.iter_mut()).enumerate() {
                let acc = self.element(input, j, r, diag_index_mask);
                norm_sqr += acc.norm_sqr();
                *slot = acc;
                *target_slot += factor * acc;
            }
        }
        norm_sqr
    }

    /// [`apply_accumulate_rows`](Self::apply_accumulate_rows) with **two**
    /// Taylor terms retired in the same pass:
    /// `target += f_input · input + f_out · out`.
    #[allow(clippy::too_many_arguments)]
    fn apply_accumulate_both_rows(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        target: &mut [Complex],
        f_input: Complex,
        f_out: Complex,
        row_offset: usize,
        lanes: bool,
    ) -> f64 {
        let stride = self.stride;
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        if lanes {
            let mut norm_acc = F64x8::ZERO;
            if stride.is_multiple_of(2 * LANE_WIDTH) {
                for (k, (row, target_row)) in out
                    .chunks_exact_mut(stride)
                    .zip(target.chunks_exact_mut(stride))
                    .enumerate()
                {
                    let j = row_offset + k;
                    for (pair, (chunk, target_chunk)) in row
                        .chunks_exact_mut(2 * LANE_WIDTH)
                        .zip(target_row.chunks_exact_mut(2 * LANE_WIDTH))
                        .enumerate()
                    {
                        let lane = pair * 2 * LANE_WIDTH;
                        let accs = self.lane_row_pair(input, j, lane, diag_index_mask);
                        for (n, acc) in accs.into_iter().enumerate() {
                            let base = j * stride + lane + n * LANE_WIDTH;
                            let slot = &mut chunk[n * LANE_WIDTH..];
                            norm_acc = norm_acc + acc * acc;
                            store_block(acc, slot);
                            let target_slot = &mut target_chunk[n * LANE_WIDTH..];
                            let update = load_block(input, base)
                                .mul_complex(f_input.re, f_input.im)
                                + acc.mul_complex(f_out.re, f_out.im);
                            store_block(load_block(target_slot, 0) + update, target_slot);
                        }
                    }
                }
            } else {
                for (k, (row, target_row)) in out
                    .chunks_exact_mut(stride)
                    .zip(target.chunks_exact_mut(stride))
                    .enumerate()
                {
                    let j = row_offset + k;
                    for (block, (chunk, target_chunk)) in row
                        .chunks_exact_mut(LANE_WIDTH)
                        .zip(target_row.chunks_exact_mut(LANE_WIDTH))
                        .enumerate()
                    {
                        let base = j * stride + block * LANE_WIDTH;
                        let acc = self.lane_row(input, j, block * LANE_WIDTH, diag_index_mask);
                        norm_acc = norm_acc + acc * acc;
                        store_block(acc, chunk);
                        let update = load_block(input, base).mul_complex(f_input.re, f_input.im)
                            + acc.mul_complex(f_out.re, f_out.im);
                        store_block(load_block(target_chunk, 0) + update, target_chunk);
                    }
                }
            }
            return norm_acc.horizontal_sum();
        }
        let mut norm_sqr = 0.0;
        for (k, (row, target_row)) in out
            .chunks_exact_mut(stride)
            .zip(target.chunks_exact_mut(stride))
            .enumerate()
        {
            let j = row_offset + k;
            for (r, (slot, target_slot)) in row.iter_mut().zip(target_row.iter_mut()).enumerate() {
                let acc = self.element(input, j, r, diag_index_mask);
                norm_sqr += acc.norm_sqr();
                *slot = acc;
                *target_slot += f_input * input[j * stride + r] + f_out * acc;
            }
        }
        norm_sqr
    }

    /// Shape check shared by the entry points.
    fn check_shapes(&self, input: &RealizationBlock, out: &RealizationBlock) {
        assert_eq!(input.dim(), out.dim(), "block dimension mismatch");
        assert_eq!(input.stride(), out.stride(), "block stride mismatch");
        assert_eq!(self.stride, input.stride(), "kernel stride mismatch");
        assert!(
            self.num_qubits <= input.num_qubits(),
            "Hamiltonian acts on more qubits than the block"
        );
    }

    /// Whether the realization-lane path runs: the stride is always a lane
    /// multiple by construction, so only an explicit scalar-path request
    /// falls back.
    fn use_lanes(&self, context: &ExecutionContext) -> bool {
        debug_assert_eq!(self.stride % LANE_WIDTH, 0, "stride must be lane-aligned");
        context.kernel_path() == KernelPath::Lane
    }

    /// Computes `out_r = H_r|ψ_r⟩` for every realization lane `r` and
    /// returns the Frobenius norm `√(Σ_r ‖H_r|ψ_r⟩‖²)` of the whole block.
    /// `out` is fully overwritten. The worker pool splits the **basis rows**
    /// above the context's parallel threshold; each participant owns whole
    /// rows, so realization lanes never race.
    ///
    /// # Panics
    ///
    /// Panics if the block shapes or strides differ, or the kernel acts on
    /// more qubits than the block has.
    pub fn apply_into_with(
        &self,
        context: &ExecutionContext,
        input: &RealizationBlock,
        out: &mut RealizationBlock,
    ) -> f64 {
        self.check_shapes(input, out);
        let dim = input.dim();
        let stride = self.stride;
        let input = input.as_slice();
        let out = out.as_mut_slice();
        let lanes = self.use_lanes(context);
        let (participants, chunk) = context.plan(dim);
        if participants <= 1 {
            return self.apply_rows(input, out, 0, lanes).sqrt();
        }
        let shared_out = SharedAmps::new(out);
        let norm_sqr = exec::pool_run(participants, &|participant: usize| {
            let (start, len) = chunk_bounds(participant, chunk, dim);
            // SAFETY: participants own disjoint row ranges.
            let out_chunk = unsafe { shared_out.slice(start * stride, len * stride) };
            self.apply_rows(input, out_chunk, start, lanes)
        });
        norm_sqr.sqrt()
    }

    /// [`apply_into_with`](Self::apply_into_with) with `target += factor ·
    /// out` fused into the same write pass. Returns the block norm of `out`.
    ///
    /// # Panics
    ///
    /// Panics if any block shapes differ, or the kernel acts on more qubits
    /// than the block has.
    pub fn apply_accumulate_into_with(
        &self,
        context: &ExecutionContext,
        input: &RealizationBlock,
        out: &mut RealizationBlock,
        target: &mut RealizationBlock,
        factor: Complex,
    ) -> f64 {
        self.check_shapes(input, out);
        self.check_shapes(input, target);
        let dim = input.dim();
        let stride = self.stride;
        let input = input.as_slice();
        let out = out.as_mut_slice();
        let target = target.as_mut_slice();
        let lanes = self.use_lanes(context);
        let (participants, chunk) = context.plan(dim);
        if participants <= 1 {
            return self
                .apply_accumulate_rows(input, out, target, factor, 0, lanes)
                .sqrt();
        }
        let shared_out = SharedAmps::new(out);
        let shared_target = SharedAmps::new(target);
        let norm_sqr = exec::pool_run(participants, &|participant: usize| {
            let (start, len) = chunk_bounds(participant, chunk, dim);
            // SAFETY: participants own disjoint row ranges.
            let out_chunk = unsafe { shared_out.slice(start * stride, len * stride) };
            let target_chunk = unsafe { shared_target.slice(start * stride, len * stride) };
            self.apply_accumulate_rows(input, out_chunk, target_chunk, factor, start, lanes)
        });
        norm_sqr.sqrt()
    }

    /// [`apply_accumulate_into_with`](Self::apply_accumulate_into_with) with
    /// **two** series terms retired in the same write pass:
    /// `target += f_input·input + f_out·out`. Returns the block norm of
    /// `out`. This is the fused first-and-second-order pass of the block
    /// Taylor sweep, exactly mirroring
    /// [`FusedKernel::apply_accumulate_both_into_with`].
    ///
    /// # Panics
    ///
    /// Panics if any block shapes differ, or the kernel acts on more qubits
    /// than the block has.
    pub fn apply_accumulate_both_into_with(
        &self,
        context: &ExecutionContext,
        input: &RealizationBlock,
        out: &mut RealizationBlock,
        target: &mut RealizationBlock,
        f_input: Complex,
        f_out: Complex,
    ) -> f64 {
        self.check_shapes(input, out);
        self.check_shapes(input, target);
        let dim = input.dim();
        let stride = self.stride;
        let input = input.as_slice();
        let out = out.as_mut_slice();
        let target = target.as_mut_slice();
        let lanes = self.use_lanes(context);
        let (participants, chunk) = context.plan(dim);
        if participants <= 1 {
            return self
                .apply_accumulate_both_rows(input, out, target, f_input, f_out, 0, lanes)
                .sqrt();
        }
        let shared_out = SharedAmps::new(out);
        let shared_target = SharedAmps::new(target);
        let norm_sqr = exec::pool_run(participants, &|participant: usize| {
            let (start, len) = chunk_bounds(participant, chunk, dim);
            // SAFETY: participants own disjoint row ranges.
            let out_chunk = unsafe { shared_out.slice(start * stride, len * stride) };
            let target_chunk = unsafe { shared_target.slice(start * stride, len * stride) };
            self.apply_accumulate_both_rows(
                input,
                out_chunk,
                target_chunk,
                f_input,
                f_out,
                start,
                lanes,
            )
        });
        norm_sqr.sqrt()
    }
}

/// The `±1` sign of basis state `i` under a diagonal `z_mask`:
/// `(−1)^popcount(i & z_mask)`. Single-bit masks (a lone `Y` or `Z` factor,
/// the common case) take a two-instruction bit test; wider masks pay the
/// portable popcount, which baseline targets lower as a bithack.
#[inline(always)]
fn row_sign(i: usize, z_mask: usize) -> f64 {
    let parity = if z_mask & z_mask.wrapping_sub(1) == 0 {
        (i & z_mask != 0) as u32
    } else {
        (i & z_mask).count_ones() & 1
    };
    1.0 - 2.0 * parity as f64
}

/// Loads one lane block of interleaved complex amplitudes starting at
/// `base` into an [`F64x8`].
#[inline(always)]
fn load_block(amps: &[Complex], base: usize) -> F64x8 {
    let mut out = [0.0; 2 * LANE_WIDTH];
    // One slice bounds check for the whole block; the element loop then
    // lowers to a single unmasked vector load.
    for (k, amp) in amps[base..base + LANE_WIDTH].iter().enumerate() {
        out[2 * k] = amp.re;
        out[2 * k + 1] = amp.im;
    }
    F64x8(out)
}

/// Stores an [`F64x8`] block back into the first [`LANE_WIDTH`] amplitudes
/// of `out`.
#[inline(always)]
fn store_block(block: F64x8, out: &mut [Complex]) {
    for (k, slot) in out.iter_mut().take(LANE_WIDTH).enumerate() {
        *slot = Complex::new(block.0[2 * k], block.0[2 * k + 1]);
    }
}

/// Loads the block of `input[(b..b+LANE_WIDTH) ^ x_mask]` as a contiguous
/// block load at the lane-aligned base `b ^ (x_mask & !3)` followed by an
/// in-register pair permute for the low mask bits (`b` is block-aligned, so
/// `(b + k) ^ x_mask = base + (k ^ p)`).
#[inline(always)]
fn gather_block(input: &[Complex], b: usize, x_mask: usize) -> F64x8 {
    let base = (b ^ x_mask) & !(LANE_WIDTH - 1);
    let block = load_block(input, base);
    let p = x_mask & (LANE_WIDTH - 1);
    if p == 0 {
        block
    } else {
        block.permute_pairs_xor(p)
    }
}

/// Per-lane low-bit `z_mask` signs for a permuted gather block: lane `k`
/// holds `(−1)^popcount((k ^ p) & z_mask & 3)`.
#[inline(always)]
fn lane_signs(z_mask: usize, p: usize) -> F64x4 {
    let z_lo = z_mask & (LANE_WIDTH - 1);
    let mut signs = [0.0; LANE_WIDTH];
    for (k, slot) in signs.iter_mut().enumerate() {
        let parity = ((k ^ p) & z_lo).count_ones() & 1;
        *slot = 1.0 - 2.0 * parity as f64;
    }
    F64x4(signs)
}

/// One gather term's contribution to a lane block: permuted source load ×
/// complex term weight × per-lane signs (scaled by the columnar `weight`).
#[inline(always)]
fn gather_term_block(input: &[Complex], b: usize, term: &CompiledTerm, weight: f64) -> F64x8 {
    let src = gather_block(input, b, term.x_mask);
    let base = (b ^ term.x_mask) & !(LANE_WIDTH - 1);
    // The base is lane-aligned (low bits zero), so the sign factors exactly
    // into a per-block high part and a per-lane low part.
    let sign_hi = 1.0 - 2.0 * ((base & term.z_mask).count_ones() & 1) as f64;
    let p = term.x_mask & (LANE_WIDTH - 1);
    let signs = lane_signs(term.z_mask, p).scale(sign_hi * weight);
    src.mul_complex(term.weight.re, term.weight.im) * signs.dup_pairs()
}

/// A raw, length-tagged pointer to an amplitude buffer, sliced per
/// participant inside a pool job. Chunks handed to distinct participants
/// are disjoint by construction (the planner tiles `0..dim` contiguously).
struct SharedAmps {
    ptr: *mut Complex,
    len: usize,
}

// SAFETY: participants only touch disjoint ranges (see `SharedAmps::slice`).
unsafe impl Sync for SharedAmps {}

impl SharedAmps {
    fn new(slice: &mut [Complex]) -> Self {
        SharedAmps {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Reborrows `start..start + len` as a mutable chunk.
    ///
    /// # Safety
    ///
    /// Callers must hand non-overlapping ranges to different participants,
    /// and the range must lie inside the original slice.
    #[allow(clippy::mut_from_ref)] // disjointness is the whole point
    unsafe fn slice(&self, start: usize, len: usize) -> &mut [Complex] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// `(start, len)` of a participant's chunk in a `dim`-element tiling.
#[inline(always)]
fn chunk_bounds(participant: usize, chunk: usize, dim: usize) -> (usize, usize) {
    let start = participant * chunk;
    (start, chunk.min(dim - start))
}

/// `Σ_t w_t · (−1)^{parity(basis & z_t)}` — the diagonal contribution of
/// parallel mask/weight columns at one basis index.
#[inline(always)]
pub(crate) fn diagonal_value(diag_masks: &[usize], diag_weights: &[f64], basis: usize) -> f64 {
    let mut value = 0.0;
    for (&z_mask, &weight) in diag_masks.iter().zip(diag_weights) {
        value += weight * (1.0 - 2.0 * ((basis & z_mask).count_ones() & 1) as f64);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn masks_of_basic_strings() {
        let x0 = CompiledTerm::compile(1.0, &PauliString::single(0, Pauli::X));
        assert_eq!((x0.x_mask(), x0.z_mask()), (1, 0));
        assert_eq!(x0.weight(), Complex::ONE);

        let z1 = CompiledTerm::compile(2.0, &PauliString::single(1, Pauli::Z));
        assert_eq!((z1.x_mask(), z1.z_mask()), (0, 2));
        assert_eq!(z1.weight(), Complex::from_real(2.0));

        let y2 = CompiledTerm::compile(1.0, &PauliString::single(2, Pauli::Y));
        assert_eq!((y2.x_mask(), y2.z_mask()), (4, 4));
        assert_eq!(y2.weight(), Complex::I);
        assert_eq!(y2.max_qubit(), Some(2));

        let identity = CompiledTerm::compile(0.5, &PauliString::identity());
        assert_eq!((identity.x_mask(), identity.z_mask()), (0, 0));
        assert_eq!(identity.max_qubit(), None);
    }

    #[test]
    fn y_phase_wraps_modulo_four() {
        for y_count in 0..8usize {
            let string = PauliString::from_ops((0..y_count).map(|q| (q, Pauli::Y)));
            let term = CompiledTerm::compile(1.0, &string);
            let expected = match y_count % 4 {
                0 => Complex::ONE,
                1 => Complex::I,
                2 => -Complex::ONE,
                _ => -Complex::I,
            };
            assert_close(term.weight(), expected);
        }
    }

    #[test]
    fn compiled_apply_matches_naive_reference() {
        let strings = [
            PauliString::identity(),
            PauliString::single(0, Pauli::X),
            PauliString::single(1, Pauli::Y),
            PauliString::two(0, Pauli::Z, 2, Pauli::Y),
            PauliString::from_ops([(0, Pauli::Y), (1, Pauli::Y), (2, Pauli::Z)]),
        ];
        let state = StateVector::from_amplitudes(
            (0..8)
                .map(|k| Complex::new(1.0 + k as f64, 0.5 - k as f64))
                .collect(),
        );
        for string in &strings {
            let naive = state.apply_pauli_string(string);
            let compiled =
                CompiledHamiltonian::compile(&Hamiltonian::from_terms(3, [(1.0, string.clone())]));
            let mut fast = StateVector::zeros(3);
            compiled.apply_into(&state, &mut fast);
            for (a, b) in naive.amplitudes().iter().zip(fast.amplitudes()) {
                assert_close(*a, *b);
            }
            // Expectation agrees with the inner-product route.
            let via_apply = state.inner_product(&naive).re;
            assert!((compiled.expectation(&state) - via_apply).abs() < 1e-12);
        }
    }

    #[test]
    fn hamiltonian_on_smaller_register_than_state() {
        // A 1-qubit H applied to a 2-qubit state acts as H ⊗ I.
        let h = Hamiltonian::from_terms(1, [(1.0, PauliString::single(0, Pauli::X))]);
        let compiled = CompiledHamiltonian::compile(&h);
        let state = StateVector::zero_state(2);
        let mut out = StateVector::zeros(2);
        compiled.apply_into(&state, &mut out);
        assert_close(out.amplitudes()[1], Complex::ONE);
        assert_close(out.amplitudes()[0], Complex::ZERO);
    }

    #[test]
    fn step_strength_matches_hamiltonian_norms() {
        let h = Hamiltonian::from_terms(
            2,
            [
                (3.0, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                (-1.0, PauliString::single(0, Pauli::X)),
                (0.5, PauliString::identity()),
            ],
        );
        let compiled = CompiledHamiltonian::compile(&h);
        assert_eq!(
            compiled.step_strength(),
            h.coefficient_l1_norm() + h.max_abs_coefficient()
        );
        assert_eq!(compiled.num_terms(), 3);
        assert!(!compiled.is_empty());
        assert!(CompiledHamiltonian::compile(&Hamiltonian::new(2)).is_empty());
    }

    /// A Hamiltonian exercising every kernel term class: a tabled diagonal
    /// (Z + ZZ), aligned and unaligned pure flips, and weighted gathers with
    /// both low- and high-bit `z_mask` parts (Y, ZY).
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
            ],
        )
    }

    fn ramp_state(num_qubits: usize) -> StateVector {
        let dim = 1usize << num_qubits;
        StateVector::from_amplitudes(
            (0..dim)
                .map(|k| Complex::new(0.3 + k as f64, 1.7 - 0.5 * k as f64))
                .collect(),
        )
    }

    #[test]
    fn lane_path_matches_scalar_reference() {
        let compiled = CompiledHamiltonian::compile(&every_class_hamiltonian(4));
        for num_qubits in 4..=6 {
            let state = ramp_state(num_qubits);
            let scalar_ctx = ExecutionContext::auto().with_kernel_path(KernelPath::Scalar);
            let lane_ctx = ExecutionContext::auto().with_kernel_path(KernelPath::Lane);
            let mut scalar = StateVector::zeros(num_qubits);
            let mut lane = StateVector::zeros(num_qubits);
            let scalar_norm = compiled
                .kernel()
                .apply_into_with(&scalar_ctx, &state, &mut scalar);
            let lane_norm = compiled
                .kernel()
                .apply_into_with(&lane_ctx, &state, &mut lane);
            for (a, b) in scalar.amplitudes().iter().zip(lane.amplitudes()) {
                assert_close(*a, *b);
            }
            assert!((scalar_norm - lane_norm).abs() < 1e-10 * scalar_norm.max(1.0));
        }
    }

    #[test]
    fn lane_path_matches_scalar_for_fused_accumulations() {
        let compiled = CompiledHamiltonian::compile(&every_class_hamiltonian(4));
        let state = ramp_state(5);
        let factor = Complex::new(0.3, -0.8);
        let (f_input, f_out) = (Complex::new(-0.2, 0.45), Complex::new(0.15, 0.9));
        let scalar_ctx = ExecutionContext::auto().with_kernel_path(KernelPath::Scalar);
        let lane_ctx = ExecutionContext::auto().with_kernel_path(KernelPath::Lane);

        let mut out_s = StateVector::zeros(5);
        let mut out_l = StateVector::zeros(5);
        let mut target_s = ramp_state(5);
        let mut target_l = ramp_state(5);
        compiled.kernel().apply_accumulate_into_with(
            &scalar_ctx,
            &state,
            &mut out_s,
            &mut target_s,
            factor,
        );
        compiled.kernel().apply_accumulate_into_with(
            &lane_ctx,
            &state,
            &mut out_l,
            &mut target_l,
            factor,
        );
        for (a, b) in target_s.amplitudes().iter().zip(target_l.amplitudes()) {
            assert_close(*a, *b);
        }

        let mut target_s = ramp_state(5);
        let mut target_l = ramp_state(5);
        compiled.kernel().apply_accumulate_both_into_with(
            &scalar_ctx,
            &state,
            &mut out_s,
            &mut target_s,
            f_input,
            f_out,
        );
        compiled.kernel().apply_accumulate_both_into_with(
            &lane_ctx,
            &state,
            &mut out_l,
            &mut target_l,
            f_input,
            f_out,
        );
        for (a, b) in target_s.amplitudes().iter().zip(target_l.amplitudes()) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn pooled_application_matches_inline() {
        let compiled = CompiledHamiltonian::compile(&every_class_hamiltonian(4));
        let state = ramp_state(5);
        let inline_ctx = ExecutionContext::auto().with_threads(1);
        let pooled_ctx = ExecutionContext::auto()
            .with_threads(3)
            .with_parallel_threshold(0);
        let mut inline_out = StateVector::zeros(5);
        let mut pooled_out = StateVector::zeros(5);
        let inline_norm = compiled
            .kernel()
            .apply_into_with(&inline_ctx, &state, &mut inline_out);
        let pooled_norm = compiled
            .kernel()
            .apply_into_with(&pooled_ctx, &state, &mut pooled_out);
        assert_eq!(inline_out.amplitudes(), pooled_out.amplitudes());
        assert!((inline_norm - pooled_norm).abs() < 1e-12 * inline_norm.max(1.0));
    }

    #[test]
    fn tiny_states_fall_back_to_the_scalar_path() {
        // dim 2 < LANE_WIDTH: the lane context must transparently run scalar.
        let h = Hamiltonian::from_terms(1, [(1.0, PauliString::single(0, Pauli::X))]);
        let compiled = CompiledHamiltonian::compile(&h);
        let state = StateVector::zero_state(1);
        let mut out = StateVector::zeros(1);
        compiled.apply_into(&state, &mut out);
        assert_close(out.amplitudes()[1], Complex::ONE);
    }

    #[test]
    #[should_panic(expected = "more qubits than the state")]
    fn oversized_hamiltonian_panics() {
        let h = Hamiltonian::from_terms(3, [(1.0, PauliString::single(2, Pauli::X))]);
        let compiled = CompiledHamiltonian::compile(&h);
        let state = StateVector::zero_state(1);
        let mut out = StateVector::zeros(1);
        compiled.apply_into(&state, &mut out);
    }
}
