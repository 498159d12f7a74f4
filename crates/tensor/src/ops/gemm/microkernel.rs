//! The register-blocked `MR × NR` tile kernel.
//!
//! [`microtile`] is the only loop in the GEMM that touches every
//! multiply-add: a `4 × 16` f32 accumulator array that LLVM keeps
//! entirely in vector registers (eight f32x8 lanes — enough independent
//! accumulation chains to hide FMA latency on two issue ports) for the
//! whole reduction loop. Everything is safe Rust: the accumulator is a
//! fixed-size array, the panels are walked with `chunks_exact`, and the
//! fixed-bound inner loops are fully unrolled and vectorised without a
//! single bounds check surviving.
//!
//! Each multiply-add is an explicit [`f32::mul_add`], compiled to one
//! fused `vfmadd` on any target with FMA (the workspace builds with
//! `target-cpu=native`, see `.cargo/config.toml`). Fusion halves the
//! arithmetic ops per MAC versus separate mul-then-add and rounds each
//! partial product once instead of twice — which is why this kernel is
//! *more* accurate than, but not bit-identical to, the reference loops
//! (see the determinism notes in [`super`]). The reduction order is
//! still strictly ascending `p` for every element, so results are fully
//! deterministic for a given build. The same tile also runs unfused
//! (`microtile::<false>`, separate multiply and add), which reproduces
//! the reference loops bit for bit: that is how the blocked family gets
//! register-tiled speed on large shapes.
//!
//! Tile-size notes from the machines this was tuned on: `4 × 8` without
//! FMA saturates the two vector ALU ports but FMA then stalls on four
//! accumulator chains; `8 × 16` and larger spill the accumulator to the
//! stack and run several times slower. `4 × 16` is the sweet spot — and
//! the kernel-comparison harness in `reduce-bench` is the tool for
//! re-measuring any retune.

/// Rows per register tile (`A` panel width).
pub(crate) const MR: usize = 4;

/// Columns per register tile (`B` panel width).
pub(crate) const NR: usize = 16;

/// Computes one `MR × NR` register tile from a packed `A` micro-panel
/// (`kc × MR`, from [`super::pack::pack_a`]) and a packed `B` micro-panel
/// (`kc × NR`, from [`super::pack::pack_b`]).
///
/// Both panels interleave their tile's values per reduction step, so the
/// `p`-th `chunks_exact` window holds exactly the `MR` (resp. `NR`)
/// values needed for that step and the zip pairs them up; zero padding
/// in either panel contributes exact zeros to the accumulators.
///
/// The accumulator is a local fixed-size array returned by value: built
/// this way LLVM promotes all `MR × NR` lanes to vector registers for
/// the whole reduction loop (passing `&mut acc` in defeats that
/// promotion and made the kernel run scalar from memory). The
/// `try_into` conversions to array references are how the slice bounds
/// checks disappear from the inner loop.
///
/// `FUSED` picks the rounding family. `true` contracts each step into one
/// [`f32::mul_add`] (the packed family). `false` rounds the product and
/// the sum separately, exactly like the blocked reference loops: every
/// element is then the same ascending chain `acc + a·b` from `+0.0` that
/// [`super::reference::blocked_into`] computes, so the register tile
/// reproduces the blocked family bit for bit at packed-kernel speed.
#[inline]
#[allow(clippy::expect_used)] // chunks_exact guarantees the window lengths
pub(crate) fn microtile<const FUSED: bool>(ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        // xtask:allow(expect): chunks_exact(MR) yields exactly-MR windows, so the array conversion is statically infallible
        let arow: &[f32; MR] = arow.try_into().expect("chunks_exact yields MR");
        // xtask:allow(expect): chunks_exact(NR) yields exactly-NR windows, so the array conversion is statically infallible
        let brow: &[f32; NR] = brow.try_into().expect("chunks_exact yields NR");
        if FUSED {
            for (acc_row, &a) in acc.iter_mut().zip(arow) {
                for (c, &b) in acc_row.iter_mut().zip(brow) {
                    *c = b.mul_add(a, *c);
                }
            }
        } else {
            // Products first, then the adds — the same `acc + a·b` per
            // element. Written as one pass, LLVM's SLP vectoriser packs
            // the MR axis instead (gather/scatter through the stack, ~8×
            // slower); the split keeps the NR axis in vector lanes.
            let mut prods = [[0.0f32; NR]; MR];
            for (prow, &a) in prods.iter_mut().zip(arow) {
                for (p, &b) in prow.iter_mut().zip(brow) {
                    *p = a * b;
                }
            }
            for (acc_row, prow) in acc.iter_mut().zip(&prods) {
                for (c, &p) in acc_row.iter_mut().zip(prow) {
                    *c += p;
                }
            }
        }
    }
    acc
}

/// Adds the valid `mr_v × nr_v` region of a finished register tile into
/// the output matrix `cd` (row-major, `n` columns) at `(i0, j0)`.
/// Rows/columns beyond the valid region hold contributions of the zero
/// padding and are dropped.
#[inline]
pub(crate) fn store_tile(
    acc: &[[f32; NR]; MR],
    cd: &mut [f32],
    n: usize,
    i0: usize,
    j0: usize,
    mr_v: usize,
    nr_v: usize,
) {
    for (di, acc_row) in acc.iter().enumerate().take(mr_v) {
        let start = (i0 + di) * n + j0;
        if let Some(crow) = cd.get_mut(start..start + nr_v) {
            for (c, &v) in crow.iter_mut().zip(acc_row) {
                *c += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::pack;
    use super::*;

    #[test]
    fn tile_accumulates_outer_products() {
        // kc = 2: step 0 contributes a=1 on row 0, step 1 contributes
        // a=2 on row 1; B rows are ramps.
        let kc = 2;
        let mut ap = vec![0.0f32; kc * MR];
        ap[0] = 1.0; // step 0, row 0
        ap[MR + 1] = 2.0; // step 1, row 1
        let bp: Vec<f32> = (0..kc * NR).map(|i| i as f32).collect();
        let acc = microtile::<true>(&ap, &bp);
        assert_eq!(acc[0][3], 3.0, "row 0 = 1 * B[0][j]");
        assert_eq!(acc[1][3], 2.0 * (NR + 3) as f32, "row 1 = 2 * B[1][j]");
        assert_eq!(acc[2], [0.0; NR]);
    }

    #[test]
    fn store_clips_to_the_valid_region() {
        let mut acc = [[0.0f32; NR]; MR];
        for (i, row) in acc.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * NR + j) as f32 + 1.0;
            }
        }
        // 3x5 output, tile placed at (1, 2): only 2 rows x 3 cols fit.
        let n = 5;
        let mut cd = vec![0.0f32; 3 * n];
        store_tile(&acc, &mut cd, n, 1, 2, 2, 3);
        assert_eq!(cd[n + 2..n + 5], [1.0, 2.0, 3.0]);
        let r1 = (NR + 1) as f32;
        assert_eq!(cd[2 * n + 2..2 * n + 5], [r1, r1 + 1.0, r1 + 2.0]);
        assert_eq!(cd[..n], [0.0; 5], "row above the tile untouched");
        assert_eq!(cd[n], 0.0, "columns left of the tile untouched");
    }

    #[test]
    fn panel_sizes_line_up_with_the_packers() {
        // One MR-wide and one NR-wide panel for a 1x3 step count.
        let ad = [1.0f32, 2.0, 3.0];
        let mut ap = Vec::new();
        pack::pack_a(&ad, 3, 1, 0, 0, 1, 3, &mut ap);
        let mut bp = Vec::new();
        pack::pack_b(&ad, 1, 0, 0, 0, 3, 1, &mut bp);
        let acc = microtile::<true>(&ap, &bp);
        // dot([1,2,3], [1,2,3]) lands in acc[0][0].
        assert_eq!(acc[0][0], 14.0);
        assert_eq!(acc[1][0], 0.0, "padded A rows contribute zero");
        assert_eq!(acc[0][1], 0.0, "padded B cols contribute zero");
    }
}
