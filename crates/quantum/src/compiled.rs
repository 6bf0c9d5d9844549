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
//! runs each chunk through the SIMD **lane kernels**: blocks of
//! [`LANE_WIDTH`] amplitudes in [`F64x8`] registers, with a per-amplitude
//! tail loop for states smaller than one block — see [`ExecutionContext`].
//! Every lane-kernel body is compiled once per vector ISA and runs at the
//! widest one the host supports ([`KernelIsa`](crate::exec::KernelIsa)).
//!
//! The naive per-qubit reference implementation is retained as
//! [`StateVector::apply_pauli_string`](crate::StateVector::apply_pauli_string)
//! and [`crate::propagate::apply_hamiltonian_naive`]; it is the one
//! conformance reference of the kernels here (the unit tests below and
//! `tests/prop_propagation.rs` pin the two together).

use crate::exec::{self, ExecutionContext, F64x4, F64x8, LANE_WIDTH};
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
    /// naive reference [`crate::propagate::evolve_naive`] so both produce
    /// identical step counts).
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
///
/// There is one implementation, the lane kernels: every state runs in
/// blocks of [`LANE_WIDTH`] amplitudes, and the amplitudes past the last
/// full block (a state smaller than one block) run one at a time. Each
/// entry point's body is compiled for every vector ISA and runs at the
/// host's widest ([`KernelIsa`](crate::exec::KernelIsa)); the variants give
/// the same bits. Besides `H|ψ⟩`, the entry points fuse what the steppers
/// do with it into the same write pass: the Taylor accumulations, and one
/// whole order of the Chebyshev recurrence. Its conformance reference is
/// the naive per-term apply, [`crate::propagate::apply_hamiltonian_naive`].
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
    /// terms, and the generic gathers. The lane kernels run it on the
    /// amplitudes past the last full block, which only a state smaller than
    /// [`LANE_WIDTH`] amplitudes has.
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

    // -- lane kernels ------------------------------------------------------

    /// One lane block of the fused kernel: `H|ψ⟩` at output indices
    /// `b .. b + LANE_WIDTH` (with `b` block-aligned), assembled in an
    /// [`F64x8`] register of interleaved complex amplitudes.
    ///
    /// Term classes lower as follows:
    ///
    /// * diagonal table — contiguous table block × contiguous input block
    ///   (the table is at least one block long: a register narrower than
    ///   [`LANE_WIDTH`] amplitudes gets a tiled table, see
    ///   `CompiledSchedule::update_diag_table`);
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

    /// The fused kernel over output indices `offset .. offset + out.len()`:
    /// one write pass in lane blocks, returns the chunk's squared norm. The
    /// amplitudes past the last full block (the whole state below
    /// [`LANE_WIDTH`] amplitudes; chunks are lane-aligned) run through
    /// [`element`](Self::element).
    #[inline(always)]
    fn lane_apply_range(&self, input: &[Complex], out: &mut [Complex], offset: usize) -> f64 {
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        let full = (out.len() / LANE_WIDTH) * LANE_WIDTH;
        let mut norm_acc = F64x8::ZERO;
        for (tile_index, tile) in out[..full].chunks_mut(NORM_TILE).enumerate() {
            let tile_offset = offset + tile_index * NORM_TILE;
            for (block, chunk) in tile.chunks_exact_mut(LANE_WIDTH).enumerate() {
                let acc = self.lane_block(input, tile_offset + block * LANE_WIDTH, diag_index_mask);
                store_block(acc, chunk);
            }
            norm_acc = sum_norm_sqr(norm_acc, tile);
        }
        let mut norm_sqr = norm_acc.horizontal_sum();
        for k in (out.len() / LANE_WIDTH) * LANE_WIDTH..out.len() {
            let acc = self.element(input, offset + k, diag_index_mask);
            norm_sqr += acc.norm_sqr();
            out[k] = acc;
        }
        norm_sqr
    }

    /// [`lane_apply_range`](Self::lane_apply_range) with the Taylor
    /// accumulation fused into the same pass: `target[j] += factor · out[j]`.
    #[inline(always)]
    fn lane_apply_accumulate_range(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        target: &mut [Complex],
        factor: Complex,
        offset: usize,
    ) -> f64 {
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        let full = (out.len() / LANE_WIDTH) * LANE_WIDTH;
        let mut norm_acc = F64x8::ZERO;
        for (tile_index, (tile, target_tile)) in out[..full]
            .chunks_mut(NORM_TILE)
            .zip(target.chunks_mut(NORM_TILE))
            .enumerate()
        {
            let tile_offset = offset + tile_index * NORM_TILE;
            for (block, (out_chunk, target_chunk)) in tile
                .chunks_exact_mut(LANE_WIDTH)
                .zip(target_tile.chunks_exact_mut(LANE_WIDTH))
                .enumerate()
            {
                let acc = self.lane_block(input, tile_offset + block * LANE_WIDTH, diag_index_mask);
                store_block(acc, out_chunk);
                let updated = load_block(target_chunk, 0) + acc.mul_complex(factor.re, factor.im);
                store_block(updated, target_chunk);
            }
            norm_acc = sum_norm_sqr(norm_acc, tile);
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

    /// [`lane_apply_accumulate_range`](Self::lane_apply_accumulate_range)
    /// with **two** Taylor terms retired in the same pass: `target[j] +=
    /// f_input · input[j] + f_out · out[j]`. The input block at `j` is
    /// already loaded for the gather work, so the extra accumulation costs
    /// no additional memory traffic — this is how the batched sweep fuses
    /// the first- and second-order updates of a step into one traversal.
    #[inline(always)]
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
        let full = (out.len() / LANE_WIDTH) * LANE_WIDTH;
        let mut norm_acc = F64x8::ZERO;
        for (tile_index, (tile, target_tile)) in out[..full]
            .chunks_mut(NORM_TILE)
            .zip(target.chunks_mut(NORM_TILE))
            .enumerate()
        {
            let tile_offset = offset + tile_index * NORM_TILE;
            for (block, (out_chunk, target_chunk)) in tile
                .chunks_exact_mut(LANE_WIDTH)
                .zip(target_tile.chunks_exact_mut(LANE_WIDTH))
                .enumerate()
            {
                let b = tile_offset + block * LANE_WIDTH;
                let acc = self.lane_block(input, b, diag_index_mask);
                store_block(acc, out_chunk);
                let update = load_block(input, b).mul_complex(f_input.re, f_input.im)
                    + acc.mul_complex(f_out.re, f_out.im);
                store_block(load_block(target_chunk, 0) + update, target_chunk);
            }
            norm_acc = sum_norm_sqr(norm_acc, tile);
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

    /// One order of the Chebyshev recurrence over output indices `offset ..
    /// offset + out.len()`, in one traversal. With `T_k = input` and `H̃ =
    /// (H − center)·inverse_radius`, it forms `m = H̃·T_k` at each index and
    ///
    /// * `FIRST` (`T_k = T₀`): writes `T₁ = m` into `out` and seeds `target =
    ///   order.seed·T₀ + order.factor·T₁`;
    /// * otherwise: writes `T_{k+1} = 2·m − T_{k−1}` over `out` (which holds
    ///   `T_{k−1}`) and adds `order.factor·T_{k+1}` to `target`.
    ///
    /// Each element runs the operations, in the order, of the separate
    /// apply, map, recurrence and accumulate passes it replaces, so the
    /// result is bit for bit theirs.
    #[inline(always)]
    fn lane_chebyshev_range<const FIRST: bool>(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        target: &mut [Complex],
        order: ChebyshevOrder,
        offset: usize,
    ) -> f64 {
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        let ChebyshevOrder {
            center,
            inverse_radius,
            seed,
            factor,
            ..
        } = order;
        for (block, (out_chunk, target_chunk)) in out
            .chunks_exact_mut(LANE_WIDTH)
            .zip(target.chunks_exact_mut(LANE_WIDTH))
            .enumerate()
        {
            let b = offset + block * LANE_WIDTH;
            let t_k = load_block(input, b);
            let mapped = (self.lane_block(input, b, diag_index_mask) - t_k.scale(center))
                .scale(inverse_radius);
            if FIRST {
                store_block(mapped, out_chunk);
                store_block(
                    t_k.scale(seed) + mul_complex_full(mapped, factor),
                    target_chunk,
                );
            } else {
                let next = mapped.scale(2.0) - load_block(out_chunk, 0);
                store_block(next, out_chunk);
                store_block(
                    load_block(target_chunk, 0) + mul_complex_full(next, factor),
                    target_chunk,
                );
            }
        }
        for k in (out.len() / LANE_WIDTH) * LANE_WIDTH..out.len() {
            let j = offset + k;
            let t_k = input[j];
            let mapped =
                (self.element(input, j, diag_index_mask) - t_k.scale(center)).scale(inverse_radius);
            if FIRST {
                out[k] = mapped;
                target[k] = t_k.scale(seed) + factor * mapped;
            } else {
                let next = mapped.scale(2.0) - out[k];
                out[k] = next;
                target[k] += factor * next;
            }
        }
        0.0
    }

    /// Asserts the shape contract of the entry points: `input` and every
    /// `other` state have one dimension, and the kernel fits the register.
    fn check_shapes(&self, input: &StateVector, others: &[&StateVector]) {
        for other in others {
            assert_eq!(input.dim(), other.dim(), "state dimension mismatch");
        }
        assert!(
            self.num_qubits <= input.num_qubits(),
            "Hamiltonian acts on more qubits than the state"
        );
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
    /// [`ExecutionContext`]: the context splits the output across the
    /// persistent worker pool above its parallel threshold.
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
        self.check_shapes(input, &[out]);
        let (dim, input) = (input.dim(), input.amplitudes());
        run_pass(
            context,
            dim,
            1,
            out.amplitudes_mut(),
            &mut [],
            #[inline(always)]
            |out, _, offset| self.lane_apply_range(input, out, offset),
        )
        .sqrt()
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
        self.check_shapes(input, &[out, target]);
        let (dim, input) = (input.dim(), input.amplitudes());
        run_pass(
            context,
            dim,
            1,
            out.amplitudes_mut(),
            target.amplitudes_mut(),
            #[inline(always)]
            |out, target, offset| {
                self.lane_apply_accumulate_range(input, out, target, factor, offset)
            },
        )
        .sqrt()
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
        self.check_shapes(input, &[out, target]);
        let (dim, input) = (input.dim(), input.amplitudes());
        run_pass(
            context,
            dim,
            1,
            out.amplitudes_mut(),
            target.amplitudes_mut(),
            #[inline(always)]
            |out, target, offset| {
                self.lane_apply_accumulate_both_range(input, out, target, f_input, f_out, offset)
            },
        )
        .sqrt()
    }

    /// One order of the Chebyshev recurrence as one fused traversal: the
    /// kernel application, the spectral map, the three-term recurrence and
    /// the accumulation, which would otherwise be four passes.
    ///
    /// With `t_k = T_k`:
    ///
    /// * `order.first` (`t_k = T₀`): writes `T₁ = H̃·T₀` into `t_other`
    ///   and sets `accumulator = order.seed·T₀ + order.factor·T₁`;
    /// * otherwise: overwrites `t_other` (`T_{k−1}`) with `T_{k+1} =
    ///   2·H̃·T_k − T_{k−1}` and adds `order.factor·T_{k+1}` to
    ///   `accumulator`.
    ///
    /// `H̃ = (H − order.center)·order.inverse_radius` is the Hamiltonian
    /// mapped onto the unit spectral interval.
    ///
    /// # Panics
    ///
    /// Panics if any dimensions differ, or the kernel acts on more qubits
    /// than the state has.
    pub(crate) fn chebyshev_order_with(
        &self,
        context: &ExecutionContext,
        t_k: &StateVector,
        t_other: &mut StateVector,
        accumulator: &mut StateVector,
        order: ChebyshevOrder,
    ) {
        self.check_shapes(t_k, &[t_other, accumulator]);
        let (dim, input) = (t_k.dim(), t_k.amplitudes());
        let (out, target) = (t_other.amplitudes_mut(), accumulator.amplitudes_mut());
        if order.first {
            run_pass(
                context,
                dim,
                1,
                out,
                target,
                #[inline(always)]
                |out, target, offset| {
                    self.lane_chebyshev_range::<true>(input, out, target, order, offset)
                },
            );
        } else {
            run_pass(
                context,
                dim,
                1,
                out,
                target,
                #[inline(always)]
                |out, target, offset| {
                    self.lane_chebyshev_range::<false>(input, out, target, order, offset)
                },
            );
        }
    }
}

/// The scalars of one Chebyshev order, for
/// [`FusedKernel::chebyshev_order_with`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChebyshevOrder {
    /// Center of the spectral interval.
    pub(crate) center: f64,
    /// `1 / radius` of the spectral interval.
    pub(crate) inverse_radius: f64,
    /// `true` for the pass that forms `T₁` and seeds the accumulator.
    pub(crate) first: bool,
    /// The accumulator seed `c₀` (read by the first pass only).
    pub(crate) seed: f64,
    /// `(−i)^{k+1}·c_{k+1}`, the weight of the order being written.
    pub(crate) factor: Complex,
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
///
/// The stride is a lane multiple by construction, so the lane rows cover
/// every realization and there is no per-element path. Its conformance
/// reference is the sequential [`FusedKernel`] sweep: block and sequential
/// device runs agree to 1e-10 (`tests/conformance_device.rs`).
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
    #[inline(always)]
    fn apply_rows(&self, input: &[Complex], out: &mut [Complex], row_offset: usize) -> f64 {
        let stride = self.stride;
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
        let mut norm_acc = F64x8::ZERO;
        if stride.is_multiple_of(2 * LANE_WIDTH) {
            for (k, row) in out.chunks_exact_mut(stride).enumerate() {
                let j = row_offset + k;
                for (pair, chunk) in row.chunks_exact_mut(2 * LANE_WIDTH).enumerate() {
                    let accs = self.lane_row_pair(input, j, pair * 2 * LANE_WIDTH, diag_index_mask);
                    for (n, acc) in accs.into_iter().enumerate() {
                        store_block(acc, &mut chunk[n * LANE_WIDTH..]);
                    }
                }
                norm_acc = sum_norm_sqr(norm_acc, row);
            }
        } else {
            for (k, row) in out.chunks_exact_mut(stride).enumerate() {
                let j = row_offset + k;
                for (block, chunk) in row.chunks_exact_mut(LANE_WIDTH).enumerate() {
                    let acc = self.lane_row(input, j, block * LANE_WIDTH, diag_index_mask);
                    store_block(acc, chunk);
                }
                norm_acc = sum_norm_sqr(norm_acc, row);
            }
        }
        norm_acc.horizontal_sum()
    }

    /// [`apply_rows`](Self::apply_rows) with the Taylor accumulation fused
    /// into the same pass: `target += factor · out`, lane by lane.
    #[inline(always)]
    fn apply_accumulate_rows(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        target: &mut [Complex],
        factor: Complex,
        row_offset: usize,
    ) -> f64 {
        let stride = self.stride;
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
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
                    let accs = self.lane_row_pair(input, j, pair * 2 * LANE_WIDTH, diag_index_mask);
                    for (n, acc) in accs.into_iter().enumerate() {
                        let slot = &mut chunk[n * LANE_WIDTH..];
                        store_block(acc, slot);
                        let target_slot = &mut target_chunk[n * LANE_WIDTH..];
                        let updated =
                            load_block(target_slot, 0) + acc.mul_complex(factor.re, factor.im);
                        store_block(updated, target_slot);
                    }
                }
                norm_acc = sum_norm_sqr(norm_acc, row);
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
                    store_block(acc, chunk);
                    let updated =
                        load_block(target_chunk, 0) + acc.mul_complex(factor.re, factor.im);
                    store_block(updated, target_chunk);
                }
                norm_acc = sum_norm_sqr(norm_acc, row);
            }
        }
        norm_acc.horizontal_sum()
    }

    /// [`apply_accumulate_rows`](Self::apply_accumulate_rows) with **two**
    /// Taylor terms retired in the same pass:
    /// `target += f_input · input + f_out · out`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn apply_accumulate_both_rows(
        &self,
        input: &[Complex],
        out: &mut [Complex],
        target: &mut [Complex],
        f_input: Complex,
        f_out: Complex,
        row_offset: usize,
    ) -> f64 {
        let stride = self.stride;
        let diag_index_mask = self.diag_table.len().wrapping_sub(1);
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
                        store_block(acc, slot);
                        let target_slot = &mut target_chunk[n * LANE_WIDTH..];
                        let update = load_block(input, base).mul_complex(f_input.re, f_input.im)
                            + acc.mul_complex(f_out.re, f_out.im);
                        store_block(load_block(target_slot, 0) + update, target_slot);
                    }
                }
                norm_acc = sum_norm_sqr(norm_acc, row);
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
                    store_block(acc, chunk);
                    let update = load_block(input, base).mul_complex(f_input.re, f_input.im)
                        + acc.mul_complex(f_out.re, f_out.im);
                    store_block(load_block(target_chunk, 0) + update, target_chunk);
                }
                norm_acc = sum_norm_sqr(norm_acc, row);
            }
        }
        norm_acc.horizontal_sum()
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
        let (dim, input) = (input.dim(), input.as_slice());
        run_pass(
            context,
            dim,
            self.stride,
            out.as_mut_slice(),
            &mut [],
            #[inline(always)]
            |out, _, row_offset| self.apply_rows(input, out, row_offset),
        )
        .sqrt()
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
        let (dim, input) = (input.dim(), input.as_slice());
        run_pass(
            context,
            dim,
            self.stride,
            out.as_mut_slice(),
            target.as_mut_slice(),
            #[inline(always)]
            |out, target, row_offset| {
                self.apply_accumulate_rows(input, out, target, factor, row_offset)
            },
        )
        .sqrt()
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
        let (dim, input) = (input.dim(), input.as_slice());
        run_pass(
            context,
            dim,
            self.stride,
            out.as_mut_slice(),
            target.as_mut_slice(),
            #[inline(always)]
            |out, target, row_offset| {
                self.apply_accumulate_both_rows(input, out, target, f_input, f_out, row_offset)
            },
        )
        .sqrt()
    }
}

/// Runs one fused kernel pass over the output rows `0..rows` (`row_len`
/// amplitudes each: 1 for a state, the stride for a realization block) and
/// returns the sum of the per-chunk results.
///
/// `range(out_chunk, target_chunk, first_row)` is the lane-kernel body. It
/// runs compiled for the host's [`KernelIsa`](crate::exec::KernelIsa)
/// through [`exec::dispatch`], so it must be an `#[inline(always)]` closure
/// calling `#[inline(always)]` range functions. Above the context's
/// parallel threshold the worker pool splits the rows into contiguous
/// lane-aligned chunks; every output row is written by exactly one
/// participant, and reads gather from the shared input. `target` is either
/// empty (the pass has no second output; every chunk gets an empty slice)
/// or as long as `out`.
fn run_pass<F>(
    context: &ExecutionContext,
    rows: usize,
    row_len: usize,
    out: &mut [Complex],
    target: &mut [Complex],
    range: F,
) -> f64
where
    F: Fn(&mut [Complex], &mut [Complex], usize) -> f64 + Sync,
{
    assert_eq!(out.len(), rows * row_len, "output length mismatch");
    assert!(
        target.is_empty() || target.len() == out.len(),
        "target length mismatch"
    );
    let (participants, chunk) = context.plan(rows);
    if participants <= 1 {
        return exec::dispatch(
            #[inline(always)]
            || range(out, target, 0),
        );
    }
    let has_target = !target.is_empty();
    let shared_out = SharedAmps::new(out);
    let shared_target = SharedAmps::new(target);
    exec::pool_run(participants, &|participant: usize| {
        let (start, len) = chunk_bounds(participant, chunk, rows);
        // SAFETY: participants own disjoint row ranges inside `0..rows`, and
        // both buffers hold `rows · row_len` amplitudes (asserted above).
        let out_chunk = unsafe { shared_out.slice(start * row_len, len * row_len) };
        let target_chunk: &mut [Complex] = if has_target {
            // SAFETY: as for `out_chunk`.
            unsafe { shared_target.slice(start * row_len, len * row_len) }
        } else {
            &mut []
        };
        exec::dispatch(
            #[inline(always)]
            || range(out_chunk, target_chunk, start),
        )
    })
}

/// `factor · block` for every complex pair, with both halves of the product
/// always formed: the operations, in the order, of the scalar `Complex`
/// product (`re·x − im·y`, `re·y + im·x`), so a lane result equals the
/// scalar one bit for bit. [`F64x8::mul_complex`] skips a zero half, which
/// can flip the sign of a zero.
#[inline(always)]
fn mul_complex_full(block: F64x8, factor: Complex) -> F64x8 {
    let (re, im) = (factor.re, factor.im);
    block.scale(re) + block.swap_pairs() * F64x8([-im, im, -im, im, -im, im, -im, im])
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

/// Amplitudes per norm tile of a [`FusedKernel`] range (4 KiB of output):
/// a tile is still in L1 when [`sum_norm_sqr`] reads it back.
const NORM_TILE: usize = 64 * LANE_WIDTH;

/// Adds the squared moduli of `tile`'s lane blocks to `norm_acc`, block by
/// block in output order.
///
/// The Taylor lane kernels return `‖H|ψ⟩‖²`. Summed by a loop-carried
/// [`F64x8`] inside the kernel loop, it keeps the AVX-512 build of that
/// loop no faster than the baseline one; summed here, one tile (or one
/// [`BlockKernel`] row) after it is written, it leaves the kernel loop free
/// to widen. The additions are the same, in the same order, so the norm is
/// the same bits.
#[inline(always)]
fn sum_norm_sqr(mut norm_acc: F64x8, tile: &[Complex]) -> F64x8 {
    for chunk in tile.chunks_exact(LANE_WIDTH) {
        let block = load_block(chunk, 0);
        norm_acc = norm_acc + block * block;
    }
    norm_acc
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
    use crate::propagate::apply_hamiltonian_naive;

    fn assert_close(a: Complex, b: Complex) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    fn assert_states_close(a: &StateVector, b: &StateVector) {
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert_close(*x, *y);
        }
    }

    /// Runs `h` on `state` through all three `FusedKernel::*_into_with`
    /// entry points and pins each result to the naive per-term apply at
    /// 1e-12: `out = H|ψ⟩`, `target + factor·H|ψ⟩`, and `target +
    /// f_input·|ψ⟩ + f_out·H|ψ⟩`, plus the returned norm `‖H|ψ⟩‖`.
    fn assert_entry_points_match_naive(h: &Hamiltonian, state: &StateVector) {
        let num_qubits = state.num_qubits();
        let compiled = CompiledHamiltonian::compile(h);
        let kernel = compiled.kernel();
        let context = ExecutionContext::auto();
        let naive = apply_hamiltonian_naive(h, state);
        let target = ramp_state(num_qubits);
        let factor = Complex::new(0.3, -0.8);
        let (f_input, f_out) = (Complex::new(-0.2, 0.45), Complex::new(0.15, 0.9));

        let mut out = StateVector::zeros(num_qubits);
        let norm = kernel.apply_into_with(&context, state, &mut out);
        assert_states_close(&out, &naive);
        assert!((norm - naive.norm()).abs() < 1e-12 * naive.norm().max(1.0));

        let mut out = StateVector::zeros(num_qubits);
        let mut accumulated = target.clone();
        kernel.apply_accumulate_into_with(&context, state, &mut out, &mut accumulated, factor);
        let mut expected = target.clone();
        expected.accumulate(factor, &naive);
        assert_states_close(&out, &naive);
        assert_states_close(&accumulated, &expected);

        let mut out = StateVector::zeros(num_qubits);
        let mut accumulated = target.clone();
        kernel.apply_accumulate_both_into_with(
            &context,
            state,
            &mut out,
            &mut accumulated,
            f_input,
            f_out,
        );
        let mut expected = target;
        expected.accumulate(f_input, state);
        expected.accumulate(f_out, &naive);
        assert_states_close(&out, &naive);
        assert_states_close(&accumulated, &expected);
    }

    /// The 1-qubit `0.3·I + 0.7·Z + 0.5·X`: two diagonal terms, so its
    /// diagonal table is built — on a register narrower than one lane block.
    fn one_qubit_tabled_hamiltonian() -> Hamiltonian {
        Hamiltonian::from_terms(
            1,
            [
                (0.3, PauliString::identity()),
                (0.7, PauliString::single(0, Pauli::Z)),
                (0.5, PauliString::single(0, Pauli::X)),
            ],
        )
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
        // A tabled 1-qubit H on a non-uniform 3-qubit state: the lane
        // kernels read its tiled, one-block table under `j & mask`.
        assert_entry_points_match_naive(&one_qubit_tabled_hamiltonian(), &ramp_state(3));
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

    /// The naive per-term apply is the scalar reference of the lane
    /// kernels: every term class, at several widths above the Hamiltonian's
    /// own register.
    #[test]
    fn lane_path_matches_scalar_reference() {
        let h = every_class_hamiltonian(4);
        for num_qubits in 4..=6 {
            let state = ramp_state(num_qubits);
            let compiled = CompiledHamiltonian::compile(&h);
            let mut lane = StateVector::zeros(num_qubits);
            let norm =
                compiled
                    .kernel()
                    .apply_into_with(&ExecutionContext::auto(), &state, &mut lane);
            let naive = apply_hamiltonian_naive(&h, &state);
            assert_states_close(&lane, &naive);
            assert!((norm - naive.norm()).abs() < 1e-10 * naive.norm().max(1.0));
        }
    }

    #[test]
    fn lane_path_matches_scalar_for_fused_accumulations() {
        assert_entry_points_match_naive(&every_class_hamiltonian(4), &ramp_state(5));
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
    fn tiny_states_run_the_lane_tail_loop() {
        // dim 2 < LANE_WIDTH: no full block, the tail loop covers the state.
        let h = Hamiltonian::from_terms(1, [(1.0, PauliString::single(0, Pauli::X))]);
        let compiled = CompiledHamiltonian::compile(&h);
        let state = StateVector::zero_state(1);
        let mut out = StateVector::zeros(1);
        compiled.apply_into(&state, &mut out);
        assert_close(out.amplitudes()[1], Complex::ONE);
        assert_entry_points_match_naive(&one_qubit_tabled_hamiltonian(), &ramp_state(1));
    }

    /// `every_class_hamiltonian` with a lone diagonal term, which the
    /// kernel evaluates on the fly instead of tabling.
    fn untabled_hamiltonian(num_qubits: usize) -> Hamiltonian {
        Hamiltonian::from_terms(
            num_qubits,
            [
                (0.7, PauliString::single(0, Pauli::Z)),
                (0.9, PauliString::single(1, Pauli::X)),
                (0.35, PauliString::single(3, Pauli::X)),
                (-0.6, PauliString::single(0, Pauli::Y)),
                (0.25, PauliString::two(2, Pauli::Z, 1, Pauli::Y)),
            ],
        )
    }

    /// The IEEE bit patterns of `amps`: equal bits, not just equal values
    /// (`-0.0 == 0.0`).
    fn bits(amps: &[Complex]) -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    /// One Chebyshev order as the four passes the fused order replaces:
    /// apply, map onto the unit interval, recurrence (or, for the first
    /// order, copy and seed), accumulate.
    fn four_pass_order(
        kernel: FusedKernel<'_>,
        context: &ExecutionContext,
        t_k: &StateVector,
        t_other: &mut StateVector,
        accumulator: &mut StateVector,
        order: ChebyshevOrder,
    ) {
        let mut mapped = StateVector::zeros(t_k.num_qubits());
        kernel.apply_into_with(context, t_k, &mut mapped);
        for (slot, v) in mapped.amplitudes_mut().iter_mut().zip(t_k.amplitudes()) {
            *slot = (*slot - v.scale(order.center)).scale(order.inverse_radius);
        }
        if order.first {
            t_other.copy_from(&mapped);
            accumulator.copy_from(t_k);
            accumulator.scale(order.seed);
        } else {
            for (prev, w) in t_other.amplitudes_mut().iter_mut().zip(mapped.amplitudes()) {
                *prev = w.scale(2.0) - *prev;
            }
        }
        accumulator.accumulate(order.factor, t_other);
    }

    /// Runs the first six Chebyshev orders of `h` from `state` through the
    /// fused pass and through the four-pass composition, and asserts every
    /// recurrence vector and accumulator are equal bit for bit.
    fn assert_fused_chebyshev_matches_four_passes(
        h: &Hamiltonian,
        state: &StateVector,
        context: &ExecutionContext,
    ) {
        let compiled = CompiledHamiltonian::compile(h);
        let kernel = compiled.kernel();
        let bound = compiled.spectral_bound();
        let n = state.num_qubits();
        let mut fused = [state.clone(), StateVector::zeros(n), StateVector::zeros(n)];
        let mut reference = fused.clone();
        let mut phase = -Complex::I;
        for k in 1..=6 {
            let order = ChebyshevOrder {
                center: bound.center,
                inverse_radius: 1.0 / bound.radius,
                first: k == 1,
                seed: 0.45,
                factor: phase.scale(0.8 / k as f64),
            };
            for (fuse, [prev, curr, acc]) in [(true, &mut fused), (false, &mut reference)] {
                let run = |t_k: &StateVector, t_other: &mut StateVector, acc| {
                    if fuse {
                        kernel.chebyshev_order_with(context, t_k, t_other, acc, order);
                    } else {
                        four_pass_order(kernel, context, t_k, t_other, acc, order);
                    }
                };
                if order.first {
                    run(prev, curr, acc);
                } else {
                    run(curr, prev, acc);
                    std::mem::swap(prev, curr);
                }
            }
            for (a, b) in fused.iter().zip(&reference) {
                assert_eq!(bits(a.amplitudes()), bits(b.amplitudes()), "order {k}");
            }
            phase *= -Complex::I;
        }
    }

    #[test]
    fn fused_chebyshev_order_matches_four_passes_bitwise() {
        let inline = ExecutionContext::auto().with_threads(1);
        for h in [every_class_hamiltonian(4), untabled_hamiltonian(4)] {
            assert_fused_chebyshev_matches_four_passes(&h, &ramp_state(5), &inline);
        }
        // States narrower than one lane block run the per-amplitude tail.
        let lone_diagonal = Hamiltonian::from_terms(
            1,
            [
                (0.7, PauliString::single(0, Pauli::Z)),
                (0.5, PauliString::single(0, Pauli::X)),
            ],
        );
        for h in [one_qubit_tabled_hamiltonian(), lone_diagonal] {
            assert_fused_chebyshev_matches_four_passes(&h, &ramp_state(1), &inline);
        }
        // The pool path: two workers, the threshold lowered below the state.
        let pooled = ExecutionContext::auto()
            .with_threads(2)
            .with_parallel_threshold(0);
        for h in [every_class_hamiltonian(4), untabled_hamiltonian(4)] {
            assert_fused_chebyshev_matches_four_passes(&h, &ramp_state(6), &pooled);
        }
    }

    /// Every FusedKernel and BlockKernel lane body, run at each ISA variant
    /// the host supports, equals the portable body bit for bit.
    #[test]
    fn every_isa_variant_matches_the_portable_body_bitwise() {
        use crate::exec::{run_on, KernelIsa};
        let n = 5;
        let (factor, f_input, f_out) = (
            Complex::new(0.3, -0.8),
            Complex::new(-0.2, 0.45),
            Complex::new(0.15, 0.9),
        );
        let order = |first| ChebyshevOrder {
            center: 0.3,
            inverse_radius: 0.4,
            first,
            seed: 0.45,
            factor,
        };
        for h in [every_class_hamiltonian(4), untabled_hamiltonian(4)] {
            let compiled = CompiledHamiltonian::compile(&h);
            let kernel = compiled.kernel();
            let input = ramp_state(n).amplitudes().to_vec();
            let seed = ramp_state(n)
                .amplitudes()
                .iter()
                .rev()
                .copied()
                .collect::<Vec<_>>();
            let fused_bodies = |isa| {
                let mut outs = Vec::new();
                for body in 0..5 {
                    let (mut out, mut target) = (seed.clone(), seed.clone());
                    let norm = run_on(
                        isa,
                        #[inline(always)]
                        || match body {
                            0 => kernel.lane_apply_range(&input, &mut out, 0),
                            1 => kernel.lane_apply_accumulate_range(
                                &input,
                                &mut out,
                                &mut target,
                                factor,
                                0,
                            ),
                            2 => kernel.lane_apply_accumulate_both_range(
                                &input,
                                &mut out,
                                &mut target,
                                f_input,
                                f_out,
                                0,
                            ),
                            3 => kernel.lane_chebyshev_range::<true>(
                                &input,
                                &mut out,
                                &mut target,
                                order(true),
                                0,
                            ),
                            _ => kernel.lane_chebyshev_range::<false>(
                                &input,
                                &mut out,
                                &mut target,
                                order(false),
                                0,
                            ),
                        },
                    );
                    outs.push((norm.to_bits(), bits(&out), bits(&target)));
                }
                outs
            };
            for stride in [4, 8] {
                let scale_pairs: Vec<f64> = (0..2 * stride)
                    .map(|k| 0.9 + 0.05 * (k / 2) as f64)
                    .collect();
                let block = BlockKernel {
                    num_qubits: kernel.num_qubits,
                    stride,
                    diag_table: kernel.diag_table,
                    diag_masks: kernel.diag_masks,
                    diag_weights: kernel.diag_weights,
                    flip_masks: kernel.flip_masks,
                    flip_weights: kernel.flip_weights,
                    gather_terms: kernel.gather_terms,
                    gather_weights: kernel.gather_weights,
                    scale_pairs: &scale_pairs,
                };
                let rows = ramp_state(n + stride.trailing_zeros() as usize);
                let block_input = rows.amplitudes();
                let block_bodies = |isa| {
                    let mut outs = Vec::new();
                    for body in 0..3 {
                        let mut out = block_input.iter().rev().copied().collect::<Vec<_>>();
                        let mut target = out.clone();
                        let norm = run_on(
                            isa,
                            #[inline(always)]
                            || match body {
                                0 => block.apply_rows(block_input, &mut out, 0),
                                1 => block.apply_accumulate_rows(
                                    block_input,
                                    &mut out,
                                    &mut target,
                                    factor,
                                    0,
                                ),
                                _ => block.apply_accumulate_both_rows(
                                    block_input,
                                    &mut out,
                                    &mut target,
                                    f_input,
                                    f_out,
                                    0,
                                ),
                            },
                        );
                        outs.push((norm.to_bits(), bits(&out), bits(&target)));
                    }
                    outs
                };
                let portable = block_bodies(KernelIsa::Portable);
                for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
                    assert_eq!(
                        block_bodies(isa),
                        portable,
                        "block stride {stride}, {isa:?}"
                    );
                }
            }
            let portable = fused_bodies(KernelIsa::Portable);
            for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
                assert_eq!(fused_bodies(isa), portable, "{isa:?}");
            }
        }
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
