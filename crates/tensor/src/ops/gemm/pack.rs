//! Panel packing: strided cache blocks → contiguous, zero-padded panels.
//!
//! The packers are the only code in the GEMM that ever sees an operand's
//! storage layout. They read through a `(row-stride, column-stride)`
//! pair — so a transposed variant is just a stride swap, never a copy of
//! the whole matrix — and write *panels*: [`pack_a`] interleaves `MR`
//! rows per reduction step, [`pack_b`] interleaves `NR` columns, which
//! is exactly the access order of the microkernel's register tile.
//! Partial panels at the matrix edges are padded with zeros; padded
//! lanes flow through the microkernel as exact `+0.0` contributions and
//! are clipped on store, which is how non-tile-multiple shapes stay on
//! the fast path.
//!
//! Each panel is written by one of three copy loops, picked by the
//! operand's strides:
//!
//! * unit stride across the panel width (`A` stored transposed, `B`
//!   row-major): every reduction step is one contiguous `MR`/`NR`-wide
//!   run, copied as a fixed-size array;
//! * unit stride along the reduction (`A` row-major, `B` stored
//!   transposed): every panel row is one contiguous `kc`-long run, and the
//!   runs are interleaved into the panel one 64-step window at a time,
//!   four runs per vectorised pass;
//! * anything else falls back to the per-element strided gather.
//!
//! All three write every slot of the panel, padding included, so the
//! output buffer only ever grows and is never zero-filled first; they are
//! interchangeable bit for bit (pinned by a property test below).
//!
//! Packing is O(block area) against the O(block volume) of the compute
//! it feeds, so its cost vanishes as shapes grow; [`super::use_packed`]
//! keeps shapes too small to amortise it on the blocked loops.

use super::microkernel::{MR, NR};

/// Reduction steps per interleave window of the unit-depth-stride copy:
/// one window is `64 × NR` floats (4 KiB), comfortably L1-resident, and
/// so is its quad staging buffer.
const STEP_WINDOW: usize = 64;

/// Packs the `mc × kc` block of the logical left operand starting at
/// row `i0`, depth `p0` into `out` as `ceil(mc / MR)` panels of
/// `kc × MR` floats. Element `a(i, p)` is read from
/// `ad[(i0 + i) * rs + (p0 + p) * cs]`; rows past `mc` are zeroed.
// BLAS-style packing signature: strides + block origin + block extent are
// six independent scalars by nature; bundling them into a struct would
// only move the argument list.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a(
    ad: &[f32],
    rs: usize,
    cs: usize,
    i0: usize,
    p0: usize,
    mc: usize,
    kc: usize,
    out: &mut Vec<f32>,
) {
    pack_panels::<MR>(ad, rs, cs, i0, p0, mc, kc, out);
}

/// Packs the `kc × nc` block of the logical right operand starting at
/// depth `p0`, column `j0` into `out` as `ceil(nc / NR)` panels of
/// `kc × NR` floats. Element `b(p, j)` is read from
/// `bd[(p0 + p) * rs + (j0 + j) * cs]`; columns past `nc` are zeroed.
#[allow(clippy::too_many_arguments)] // same shape as pack_a
pub(crate) fn pack_b(
    bd: &[f32],
    rs: usize,
    cs: usize,
    p0: usize,
    j0: usize,
    kc: usize,
    nc: usize,
    out: &mut Vec<f32>,
) {
    pack_panels::<NR>(bd, cs, rs, j0, p0, nc, kc, out);
}

/// The packer behind both [`pack_a`] and [`pack_b`], in panel terms: a
/// `W`-wide panel interleaves `W` consecutive indices of the *width*
/// axis (rows of `A`, columns of `B`) per reduction step. Element
/// `(w, p)` of the block lives at `src[(w0 + w) * sw + (p0 + p) * sp]`.
/// `out` is resized to `ceil(wc / W) · kc · W` floats (grow-only
/// capacity) and every slot is written.
#[allow(clippy::too_many_arguments)] // strides + origin + extent
fn pack_panels<const W: usize>(
    src: &[f32],
    sw: usize,
    sp: usize,
    w0: usize,
    p0: usize,
    wc: usize,
    kc: usize,
    out: &mut Vec<f32>,
) {
    out.resize(wc.div_ceil(W) * kc * W, 0.0);
    if kc == 0 {
        return;
    }
    for (q, panel) in out.chunks_exact_mut(kc * W).enumerate() {
        let first = w0 + q * W;
        let valid = W.min(wc - q * W);
        if sw == 1 {
            pack_runs::<W>(panel, src, first + p0 * sp, sp, valid);
        } else if sp == 1 {
            pack_interleaved::<W>(panel, src, first, p0, sw, valid);
        } else {
            pack_strided::<W>(panel, src, first, p0, sw, sp, valid);
        }
    }
}

/// Unit width stride: step `p` of the panel is the contiguous run
/// `src[base + p * sp ..][..valid]`, zero-padded to `W`.
fn pack_runs<const W: usize>(panel: &mut [f32], src: &[f32], base: usize, sp: usize, valid: usize) {
    for (p, step) in panel.chunks_exact_mut(W).enumerate() {
        let start = base + p * sp;
        let run = src.get(start..start + valid).unwrap_or(&[]);
        if let (Ok(dst), Ok(full)) = (
            <&mut [f32; W]>::try_from(&mut *step),
            <&[f32; W]>::try_from(run),
        ) {
            *dst = *full;
            continue;
        }
        // `run` drives the zip so no slot is consumed past its end.
        let mut slots = step.iter_mut();
        for (&v, slot) in run.iter().zip(&mut slots) {
            *slot = v;
        }
        slots.for_each(|slot| *slot = 0.0);
    }
}

/// Unit depth stride: panel row `r` is the contiguous run
/// `src[(first + r) * sw + p0 ..][..kc]`, interleaved into every `W`-th
/// slot one [`STEP_WINDOW`]-step window at a time. Rows past `valid`
/// are zeroed.
///
/// The interleave runs in two stages per window: runs are zipped four at
/// a time into `[f32; 4]` quads (a factor-4 interleave LLVM vectorises
/// with shuffles), then each step's `W / 4` quads are stored as
/// fixed-size 16-byte copies. A direct `W`-way scatter compiles to one
/// scalar store per slot and runs ~3× slower at `W = 16`.
fn pack_interleaved<const W: usize>(
    panel: &mut [f32],
    src: &[f32],
    first: usize,
    p0: usize,
    sw: usize,
    valid: usize,
) {
    const {
        assert!(
            W.is_multiple_of(4) && W <= NR,
            "panels are whole quads, at most NR wide"
        )
    };
    let mut quads = [[[0.0f32; 4]; STEP_WINDOW]; NR / 4];
    for (blk, window) in panel.chunks_mut(STEP_WINDOW * W).enumerate() {
        let steps = window.len() / W;
        let run = |r: usize| -> &[f32] {
            if r >= valid {
                return &[];
            }
            let start = (first + r) * sw + p0 + blk * STEP_WINDOW;
            src.get(start..start + steps).unwrap_or(&[])
        };
        for (g, group) in quads.iter_mut().enumerate().take(W / 4) {
            let dst = group.get_mut(..steps).unwrap_or(&mut []);
            fill_quads(
                run(4 * g),
                run(4 * g + 1),
                run(4 * g + 2),
                run(4 * g + 3),
                dst,
            );
        }
        for (p, step) in window.chunks_exact_mut(W).enumerate() {
            for (dst, group) in step.chunks_exact_mut(4).zip(&quads) {
                if let (Ok(dst), Some(quad)) = (<&mut [f32; 4]>::try_from(dst), group.get(p)) {
                    *dst = *quad;
                }
            }
        }
    }
}

/// `out[p] = [a[p], b[p], c[p], d[p]]`, with short (or empty) runs
/// reading as zero.
fn fill_quads(a: &[f32], b: &[f32], c: &[f32], d: &[f32], out: &mut [[f32; 4]]) {
    let runs = [a, b, c, d];
    if runs.iter().all(|r| r.len() >= out.len()) {
        for ((((q, &x0), &x1), &x2), &x3) in out.iter_mut().zip(a).zip(b).zip(c).zip(d) {
            *q = [x0, x1, x2, x3];
        }
        return;
    }
    for (lane, run) in runs.iter().enumerate() {
        let vals = run.iter().copied().chain(std::iter::repeat(0.0));
        for (q, v) in out.iter_mut().zip(vals) {
            if let Some(slot) = q.get_mut(lane) {
                *slot = v;
            }
        }
    }
}

/// The generic fallback for any stride pair: one bounds-checked gather
/// per slot.
#[allow(clippy::too_many_arguments)] // strides + origin + extent
fn pack_strided<const W: usize>(
    panel: &mut [f32],
    src: &[f32],
    first: usize,
    p0: usize,
    sw: usize,
    sp: usize,
    valid: usize,
) {
    for (p, step) in panel.chunks_exact_mut(W).enumerate() {
        for (r, slot) in step.iter_mut().enumerate() {
            *slot = if r < valid {
                src.get((first + r) * sw + (p0 + p) * sp)
                    .copied()
                    .unwrap_or(0.0)
            } else {
                0.0
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::GemmVariant;
    use super::*;
    use crate::tensor::Tensor;
    use proptest::prelude::*;

    /// The generic per-element gather over a whole block: the reference
    /// the specialised copy loops must reproduce bit for bit.
    fn pack_generic<const W: usize>(
        src: &[f32],
        (sw, sp): (usize, usize),
        (w0, p0): (usize, usize),
        (wc, kc): (usize, usize),
    ) -> Vec<u32> {
        let mut out = vec![f32::NAN; wc.div_ceil(W) * kc * W];
        if kc > 0 {
            for (q, panel) in out.chunks_exact_mut(kc * W).enumerate() {
                pack_strided::<W>(panel, src, w0 + q * W, p0, sw, sp, W.min(wc - q * W));
            }
        }
        out.iter().map(|v| v.to_bits()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn specialised_packers_match_the_generic_gather(
            (m, k, n) in (1usize..=40, 1usize..=150, 1usize..=40),
            (ri, rp, rj) in (0usize..1000, 0usize..1000, 0usize..1000),
            (rmc, rkc, rnc) in (0usize..1000, 0usize..1000, 0usize..1000),
            dirty in 0usize..4000,
            seed in 0u64..1000,
        ) {
            // A block anywhere inside the logical operands, ragged against
            // MR/NR on both edges as often as not.
            let (i0, p0, j0) = (ri % m, rp % k, rj % n);
            let (mc, kc, nc) = (1 + rmc % (m - i0), 1 + rkc % (k - p0), 1 + rnc % (n - j0));
            let a = Tensor::rand_uniform([m * k], -1.0, 1.0, seed);
            let b = Tensor::rand_uniform([k * n], -1.0, 1.0, seed + 1);
            for variant in [GemmVariant::NN, GemmVariant::TN, GemmVariant::NT] {
                let ((rsa, csa), (rsb, csb)) = variant.strides(m, k, n);
                // A reused, NaN-dirty buffer of arbitrary length: the
                // packers must overwrite every slot they hand out.
                let mut got = vec![f32::NAN; dirty];
                pack_a(a.data(), rsa, csa, i0, p0, mc, kc, &mut got);
                prop_assert_eq!(
                    bits(&got),
                    pack_generic::<MR>(a.data(), (rsa, csa), (i0, p0), (mc, kc)),
                    "pack_a {} {}x{}x{} block ({},{})+({},{})",
                    variant.name(), m, k, n, i0, p0, mc, kc
                );
                pack_b(b.data(), rsb, csb, p0, j0, kc, nc, &mut got);
                prop_assert_eq!(
                    bits(&got),
                    pack_generic::<NR>(b.data(), (csb, rsb), (j0, p0), (nc, kc)),
                    "pack_b {} {}x{}x{} block ({},{})+({},{})",
                    variant.name(), m, k, n, p0, j0, kc, nc
                );
            }
        }
    }

    #[test]
    fn pack_a_interleaves_rows_per_step() {
        // A = [[1, 2], [3, 4]] stored row-major (rs = 2, cs = 1).
        let ad = [1.0f32, 2.0, 3.0, 4.0];
        let mut out = Vec::new();
        pack_a(&ad, 2, 1, 0, 0, 2, 2, &mut out);
        assert_eq!(out.len(), 2 * MR, "one padded panel, two steps");
        // Step p=0 holds column 0 of A: [1, 3, pad, pad].
        assert_eq!(&out[..MR], &[1.0, 3.0, 0.0, 0.0]);
        // Step p=1 holds column 1 of A: [2, 4, pad, pad].
        assert_eq!(&out[MR..2 * MR], &[2.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn pack_a_transposed_is_a_stride_swap() {
        // The same logical A as above but stored transposed
        // ([[1, 3], [2, 4]], shape (k=2, m=2)): rs = 1, cs = 2.
        let ad_t = [1.0f32, 3.0, 2.0, 4.0];
        let mut out_t = Vec::new();
        pack_a(&ad_t, 1, 2, 0, 0, 2, 2, &mut out_t);
        let ad = [1.0f32, 2.0, 3.0, 4.0];
        let mut out = Vec::new();
        pack_a(&ad, 2, 1, 0, 0, 2, 2, &mut out);
        assert_eq!(out_t, out);
    }

    #[test]
    fn pack_b_interleaves_cols_per_step() {
        // B = [[1, 2, 3], [4, 5, 6]] (k=2, n=3), rs = 3, cs = 1.
        let bd = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = Vec::new();
        pack_b(&bd, 3, 1, 0, 0, 2, 3, &mut out);
        assert_eq!(out.len(), 2 * NR);
        assert_eq!(&out[..3], &[1.0, 2.0, 3.0]);
        assert_eq!(&out[3..NR], &[0.0; NR - 3], "columns padded to NR");
        assert_eq!(&out[NR..NR + 3], &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn packers_respect_block_offsets() {
        // 3x3 row-major matrix; take the 2x2 block at (1, 1).
        let md: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let mut out = Vec::new();
        pack_a(&md, 3, 1, 1, 1, 2, 2, &mut out);
        assert_eq!(&out[..2], &[4.0, 7.0], "step 0 = column 1, rows 1-2");
        assert_eq!(&out[MR..MR + 2], &[5.0, 8.0]);
        pack_b(&md, 3, 1, 1, 1, 2, 2, &mut out);
        assert_eq!(&out[..2], &[4.0, 5.0], "step 0 = row 1, cols 1-2");
        assert_eq!(&out[NR..NR + 2], &[7.0, 8.0]);
    }

    #[test]
    fn multi_panel_packing_splits_rows() {
        // mc = MR + 1 rows → two A panels, the second mostly padding.
        let rows = MR + 1;
        let ad: Vec<f32> = (0..rows).map(|i| (i + 1) as f32).collect();
        let mut out = Vec::new();
        // One column (kc = 1), column-stride irrelevant.
        pack_a(&ad, 1, 1, 0, 0, rows, 1, &mut out);
        assert_eq!(out.len(), 2 * MR);
        assert_eq!(&out[..MR], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&out[MR..], &[5.0, 0.0, 0.0, 0.0]);
    }
}
