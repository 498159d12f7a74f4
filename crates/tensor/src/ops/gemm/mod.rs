//! Packed, cache-tiled, register-blocked GEMM.
//!
//! This module is the compute core behind [`crate::ops::matmul`] and
//! friends. It is organised BLIS-style in three layers:
//!
//! * [`pack`] — copies cache-block-sized pieces of `A` and `B` into
//!   contiguous, zero-padded *panels* (`MR`-row panels of `A`, `NR`-column
//!   panels of `B`) so the innermost loops only ever touch unit-stride
//!   memory, regardless of the GEMM variant's logical transposes;
//! * [`microkernel`] — the register-blocked `MR × NR` tile kernel: a
//!   fixed-size `f32` accumulator array that LLVM keeps in vector
//!   registers (f32x4-style lanes without any `unsafe`), fed one packed
//!   `A`-panel and one packed `B`-panel;
//! * the driver in this file — loops over `NC`/`MC` cache blocks, packs,
//!   and dispatches tiles to the microkernel.
//!
//! All three GEMM variants (`NN`, `TN`, `NT`) share this single driver:
//! a variant is nothing but a `(row-stride, column-stride)` pair per
//! operand (see [`GemmVariant::strides`]), and only the packing routines
//! ever see strides. Shapes that are not multiples of the tile sizes are
//! handled by zero-padding the panels — the microkernel always computes a
//! full `MR × NR` tile and the store-back clips to the valid region.
//!
//! # Determinism and accuracy
//!
//! Every kernel in this module accumulates each output element in
//! strictly ascending reduction order, so every kernel is fully
//! deterministic: same operands, same bits out, on every run.
//!
//! [`reference::naive_into`] and [`reference::blocked_into`] both use
//! separate f32 multiply-then-add (Rust never fuses into FMA
//! implicitly) and are **bit-identical** to each other — the
//! kernel-comparison harness in `reduce-bench` gates them on exact
//! equality. [`packed_into`] instead fuses each multiply-add with
//! [`f32::mul_add`] (one rounding per MAC instead of two), which makes
//! it slightly *more* accurate than the references but not bit-identical
//! to them; the harness and the property tests gate it against the naive
//! oracle with a reduction-length-scaled tolerance.
//!
//! The packed panels span the *full* reduction dimension instead of
//! being blocked along `k` the way classic BLIS `KC` blocking would:
//! splitting `k` would sum each block into the register tile separately
//! and then add block subtotals, making the result depend on the block
//! size chosen. One register tile per output block accumulates the whole
//! chain in order, keeping the kernel's rounding a pure function of the
//! operands, at the price of pack buffers that grow with `k`
//! (`MC × k` and `k × NC` floats — comfortably cache-sized for every
//! layer shape in this framework). The buffers are per-thread scratch
//! that only grows, so steady-state products never allocate.
//!
//! # Dispatch
//!
//! [`dispatch_into`] picks the packed path when a problem is big enough
//! to amortise packing (see [`use_packed`]) and falls back to the simpler
//! cache-blocked loops from [`reference`] for small or degenerate shapes
//! (GEMV-like `m = 1` products, tiny layers). The choice is a pure
//! function of the shape, so a given call site always takes the same
//! path and results never depend on anything but the operands.
//!
//! The two rounding contracts are named by [`GemmFamily`].
//! [`gemm_family_into`] runs a product in a chosen family whatever its
//! shape; the conv lowering uses it to keep each transposed product in
//! the family of the product it replaces.

pub(crate) mod microkernel;
pub(crate) mod pack;
pub mod reference;

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;
use microkernel::{MR, NR};
use std::cell::RefCell;

/// Row cache block: one packed `A` block is `MC × k` floats, sized so a
/// single `k × MR` micro-panel stays L1-resident while every `B` panel
/// of the block streams past it.
pub(crate) const MC: usize = 128;

/// Column cache block: one packed `B` block is `k × NC` floats at most,
/// streamed through the microkernel once per `MC` rows.
pub(crate) const NC: usize = 1024;

/// Below this many multiply-adds the packing overhead is not worth it
/// and [`dispatch_into`] uses the blocked reference loops instead.
pub(crate) const PACKED_MIN_MACS: usize = 16_384;

/// The three GEMM orientations the NN framework needs. The letters name
/// the storage of `A` and `B` respectively: `N` as-is, `T` transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmVariant {
    /// `C = A · B` with `A: (m, k)`, `B: (k, n)`.
    NN,
    /// `C = Aᵀ · B` with `A: (k, m)`, `B: (k, n)` — weight gradients.
    TN,
    /// `C = A · Bᵀ` with `A: (m, k)`, `B: (n, k)` — input gradients.
    NT,
}

impl GemmVariant {
    /// Short lowercase name (`nn`/`tn`/`nt`), used by the bench harness.
    pub fn name(self) -> &'static str {
        match self {
            GemmVariant::NN => "nn",
            GemmVariant::TN => "tn",
            GemmVariant::NT => "nt",
        }
    }

    /// `((rsa, csa), (rsb, csb))`: element `a(i, p)` of the *logical*
    /// `(m, k)` left operand lives at `ad[i * rsa + p * csa]`, and
    /// element `b(p, j)` of the logical `(k, n)` right operand at
    /// `bd[p * rsb + j * csb]`. Transposition is nothing but a stride
    /// swap, which is why one packed driver serves all three variants.
    pub(crate) fn strides(self, m: usize, k: usize, n: usize) -> ((usize, usize), (usize, usize)) {
        match self {
            GemmVariant::NN => ((k, 1), (n, 1)),
            GemmVariant::TN => ((1, m), (n, 1)),
            GemmVariant::NT => ((k, 1), (1, k)),
        }
    }

    /// The logical `(m, k, n)` problem size given the stored operand
    /// shapes, after validating ranks and the shared dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] naming `op` for a
    /// non-rank-2 operand (checked *before* any dimension is read, so a
    /// rank-1 gradient reaching a backward-pass GEMM reports the actual
    /// entry point instead of a generic shape error), and
    /// [`TensorError::ShapeMismatch`] naming `op` if the shared
    /// dimensions differ.
    pub(crate) fn problem_size(
        self,
        op: &'static str,
        a: &Tensor,
        b: &Tensor,
    ) -> Result<(usize, usize, usize)> {
        let (ar, ac) = check_rank2(op, a)?;
        let (br, bc) = check_rank2(op, b)?;
        let ((m, ka), (kb, n)) = match self {
            GemmVariant::NN => ((ar, ac), (br, bc)),
            GemmVariant::TN => ((ac, ar), (br, bc)),
            GemmVariant::NT => ((ar, ac), (bc, br)),
        };
        if ka != kb {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: a.dims().to_vec(),
                rhs: b.dims().to_vec(),
            });
        }
        Ok((m, ka, n))
    }
}

/// Validates that `t` is rank-2 and returns its `(rows, cols)`, with the
/// error naming the calling kernel entry point.
pub(crate) fn check_rank2(op: &'static str, t: &Tensor) -> Result<(usize, usize)> {
    match t.dims() {
        &[r, c] => Ok((r, c)),
        other => Err(TensorError::InvalidArgument {
            op,
            reason: format!("expected a rank-2 operand, got shape {other:?}"),
        }),
    }
}

/// Validates the output buffer shape for an `_into` kernel, with the
/// error naming the exact entry point (`matmul_tn_into`, …) so a shape
/// bug in a backward pass is diagnosable from the message alone.
pub(crate) fn check_out(op: &'static str, out: &Tensor, m: usize, n: usize) -> Result<()> {
    if out.dims() != [m, n] {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: vec![m, n],
            rhs: out.dims().to_vec(),
        });
    }
    Ok(())
}

/// Whether a problem is large enough for the packed path: at least one
/// full tile in each output direction and enough multiply-adds to
/// amortise packing. A pure function of the shape — never of the data —
/// so dispatch is deterministic.
pub(crate) fn use_packed(m: usize, k: usize, n: usize) -> bool {
    m >= MR && n >= NR && k >= 2 && m * k * n >= PACKED_MIN_MACS
}

/// Tolerance for comparing a fused (FMA) kernel against the
/// separate-rounding naive oracle over a length-`k` reduction of entries
/// bounded by ~10: `max(1e-3, k·1e-4)`. A real kernel bug (wrong
/// element, missed tile, bad stride) shows up as O(1) error, orders of
/// magnitude past this. The one definition the unit tests, the property
/// tests and the kernel-comparison harness all gate with.
pub fn fma_tol(k: usize) -> f32 {
    1e-3f32.max(k as f32 * 1e-4)
}

/// The rounding family of a GEMM: which of the two bit-level contracts
/// in the module docs a product's elements follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmFamily {
    /// One fused multiply-add per step ([`packed_into`]).
    Packed,
    /// Separate multiply and add per step ([`reference::blocked_into`]).
    Blocked,
}

impl GemmFamily {
    /// The family [`crate::ops::matmul`] and friends use for a logical
    /// `(m, k, n)` problem — a pure function of the shape.
    pub fn for_problem(m: usize, k: usize, n: usize) -> Self {
        if use_packed(m, k, n) {
            GemmFamily::Packed
        } else {
            GemmFamily::Blocked
        }
    }
}

/// Computes `C += op(A) · op(B)` over a **pre-zeroed** (or accumulating)
/// output slice, choosing between the packed and blocked kernels by
/// shape. This is the single compute entry behind every `matmul*`
/// public function.
pub(crate) fn dispatch_into(
    variant: GemmVariant,
    m: usize,
    k: usize,
    n: usize,
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
) {
    family_into(
        GemmFamily::for_problem(m, k, n),
        variant,
        m,
        k,
        n,
        ad,
        bd,
        cd,
    );
}

/// Computes `C += op(A) · op(B)` into a **pre-zeroed** `cd` with the
/// rounding of `family`, whatever the shape. A caller that stores a
/// product transposed (the conv lowering computes `W · cols` where the
/// position-major form computes `cols · Wᵀ`) passes the family of the
/// *logical* problem here, so every element keeps its bits.
///
/// [`GemmFamily::Blocked`] runs the register-tiled driver with separate
/// rounding when the shape is big enough to pack, and the blocked loops
/// otherwise. Both compute each element as the ascending chain
/// `acc + a·b` from `+0.0`, so they agree bit for bit on finite operands
/// (the blocked loops' exact-zero skip adds nothing to such a chain).
#[allow(clippy::too_many_arguments)] // family + variant + shape + operands
pub(crate) fn family_into(
    family: GemmFamily,
    variant: GemmVariant,
    m: usize,
    k: usize,
    n: usize,
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
) {
    let ((rsa, csa), (rsb, csb)) = variant.strides(m, k, n);
    match family {
        GemmFamily::Packed => gemm_packed::<true>(m, k, n, ad, rsa, csa, bd, rsb, csb, cd),
        GemmFamily::Blocked if use_packed(m, k, n) => {
            gemm_packed::<false>(m, k, n, ad, rsa, csa, bd, rsb, csb, cd)
        }
        GemmFamily::Blocked => reference::blocked_slices(variant, m, k, n, ad, bd, cd),
    }
}

/// Runs `variant` into `out` with the rounding of `family` regardless of
/// shape. `out` is zeroed first. [`GemmFamily::Packed`] is
/// [`packed_into`]; [`GemmFamily::Blocked`] is bit-identical to
/// [`reference::blocked_into`] on finite operands but register-tiled on
/// shapes large enough to pack.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for non-rank-2 operands and
/// [`TensorError::ShapeMismatch`] for non-conforming shapes, naming
/// `gemm_family_into`.
pub fn gemm_family_into(
    family: GemmFamily,
    variant: GemmVariant,
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
) -> Result<()> {
    let (m, k, n) = variant.problem_size("gemm_family_into", a, b)?;
    check_out("gemm_family_into", out, m, n)?;
    out.fill_zero();
    family_into(family, variant, m, k, n, a.data(), b.data(), out.data_mut());
    Ok(())
}

thread_local! {
    /// Per-thread pack buffers of [`gemm_packed`]: `A` block, `B` block.
    /// Capacity only grows, so after the first product of a given size a
    /// thread packs without touching the allocator.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The packed, cache-tiled, register-blocked driver. `cd` must hold
/// `m * n` elements and is accumulated into (callers zero it first).
/// `FUSED` selects the microkernel's rounding family (see
/// [`microkernel::microtile`]).
///
/// Loop structure, outermost first: `NC` column blocks of `B` (each
/// packed once into `bpack`), `MC` row blocks of `A` (each packed once
/// into `apack`), then `MR × NR` register tiles. Panels span the full
/// reduction dimension so each output element is one ascending-`k`
/// accumulation chain — the bit-exactness invariant of the module docs.
/// The packed `A` micro-panel is the hot operand: it stays in L1 while
/// every `B` panel of the block streams past it. The pack buffers are the
/// calling thread's grow-only scratch.
// BLAS-style kernel signature: problem size + two strided operands + out.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed<const FUSED: bool>(
    m: usize,
    k: usize,
    n: usize,
    ad: &[f32],
    rsa: usize,
    csa: usize,
    bd: &[f32],
    rsb: usize,
    csb: usize,
    cd: &mut [f32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    PACK_SCRATCH.with_borrow_mut(|(apack, bpack)| {
        for jc in (0..n).step_by(NC) {
            let nc = (jc + NC).min(n) - jc;
            pack::pack_b(bd, rsb, csb, 0, jc, k, nc, bpack);
            for ic in (0..m).step_by(MC) {
                let mc = (ic + MC).min(m) - ic;
                pack::pack_a(ad, rsa, csa, ic, 0, mc, k, apack);
                for (qa, ap) in apack.chunks_exact(k * MR).enumerate() {
                    let i0 = ic + qa * MR;
                    let mr_v = MR.min(mc - qa * MR);
                    for (qb, bp) in bpack.chunks_exact(k * NR).enumerate() {
                        let j0 = jc + qb * NR;
                        let nr_v = NR.min(nc - qb * NR);
                        let acc = microkernel::microtile::<FUSED>(ap, bp);
                        microkernel::store_tile(&acc, cd, n, i0, j0, mr_v, nr_v);
                    }
                }
            }
        }
    });
}

/// Runs the packed kernel for `variant` into `out` regardless of shape
/// (no size dispatch): the kernel-comparison harness and the property
/// tests use this to exercise the packed path on degenerate shapes
/// (`m = 1`, `n = 1`, `k = 1`) that production dispatch would route to
/// the blocked loops.
///
/// `out` is zeroed first. Results agree with [`reference::naive_into`]
/// within a reduction-length-scaled tolerance and are deterministic (see
/// the module docs on determinism and accuracy).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for non-rank-2 operands and
/// [`TensorError::ShapeMismatch`] for non-conforming shapes, naming
/// `gemm_packed_into`.
pub fn packed_into(variant: GemmVariant, a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (m, k, n) = variant.problem_size("gemm_packed_into", a, b)?;
    check_out("gemm_packed_into", out, m, n)?;
    out.fill_zero();
    let ((rsa, csa), (rsb, csb)) = variant.strides(m, k, n);
    gemm_packed::<true>(
        m,
        k,
        n,
        a.data(),
        rsa,
        csa,
        b.data(),
        rsb,
        csb,
        out.data_mut(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Operands bounded by 10, the magnitude [`fma_tol`] is calibrated for.
    fn rand(dims: [usize; 2], seed: u64) -> Tensor {
        Tensor::rand_uniform(dims, -10.0, 10.0, seed)
    }

    #[test]
    fn strides_address_the_logical_operands() {
        // NN: a(i, p) at i*k + p; TN reads the transpose in place.
        let ((rsa, csa), (rsb, csb)) = GemmVariant::TN.strides(3, 5, 2);
        assert_eq!((rsa, csa), (1, 3));
        assert_eq!((rsb, csb), (2, 1));
        let ((rsa, csa), (rsb, csb)) = GemmVariant::NT.strides(3, 5, 2);
        assert_eq!((rsa, csa), (5, 1));
        assert_eq!((rsb, csb), (1, 5));
    }

    #[test]
    fn problem_size_validates_rank_first() {
        let a = Tensor::zeros([6]);
        let b = Tensor::zeros([3, 2]);
        let err = GemmVariant::NN
            .problem_size("matmul_tn_into", &a, &b)
            .expect_err("rank-1 lhs");
        let msg = err.to_string();
        assert!(msg.contains("matmul_tn_into"), "names the entry: {msg}");
        assert!(msg.contains("rank-2"), "explains the rank: {msg}");
    }

    #[test]
    fn problem_size_checks_the_shared_dim() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(GemmVariant::NN.problem_size("matmul", &a, &b).is_err());
        // TN shares the *row* count of both operands.
        let at = Tensor::zeros([4, 2]);
        assert!(GemmVariant::TN.problem_size("matmul_tn", &at, &b).is_ok());
    }

    #[test]
    fn packed_matches_naive_on_tile_edges() {
        // Shapes straddling every tile boundary: below, at, and just past
        // MR/NR/KC multiples.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (MR - 1, 3, NR - 1),
            (MR, 256, NR),
            (MR + 1, 257, NR + 1),
            (2 * MR + 3, 517, 2 * NR + 7),
            (MC + MR + 1, 259, NR + 3),
        ] {
            for (variant, adim, bdim) in [
                (GemmVariant::NN, [m, k], [k, n]),
                (GemmVariant::TN, [k, m], [k, n]),
                (GemmVariant::NT, [m, k], [n, k]),
            ] {
                let a = rand(adim, 11);
                let b = rand(bdim, 23);
                let mut packed = Tensor::full([m, n], f32::NAN);
                packed_into(variant, &a, &b, &mut packed).expect("conformable");
                let mut naive = Tensor::zeros([m, n]);
                reference::naive_into(variant, &a, &b, &mut naive).expect("conformable");
                assert!(
                    packed.approx_eq(&naive, fma_tol(k)),
                    "variant {} shape {m}x{k}x{n}",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn dispatch_is_a_pure_shape_function() {
        assert!(!use_packed(1, 512, 512), "GEMV stays on the blocked path");
        assert!(!use_packed(512, 512, 1), "GEMV stays on the blocked path");
        assert!(!use_packed(8, 8, 8), "tiny products stay blocked");
        assert!(use_packed(64, 96, 48), "layer-sized GEMMs pack");
        assert!(use_packed(256, 256, 256));
    }

    #[test]
    fn zero_sized_problems_are_no_ops() {
        for variant in [GemmVariant::NN, GemmVariant::TN, GemmVariant::NT] {
            let (adim, bdim) = match variant {
                GemmVariant::NN => ([0, 3], [3, 2]),
                GemmVariant::TN => ([3, 0], [3, 2]),
                GemmVariant::NT => ([0, 3], [2, 3]),
            };
            let a = Tensor::zeros(adim);
            let b = Tensor::zeros(bdim);
            let mut out = Tensor::zeros([0, 2]);
            packed_into(variant, &a, &b, &mut out).expect("conformable");
            assert_eq!(out.dims(), &[0, 2]);
        }
        // k == 0: the output is all zeros.
        let a = Tensor::zeros([2, 0]);
        let b = Tensor::zeros([0, 3]);
        let mut out = Tensor::full([2, 3], 7.0);
        packed_into(GemmVariant::NN, &a, &b, &mut out).expect("conformable");
        assert_eq!(out, Tensor::zeros([2, 3]));
    }
}
