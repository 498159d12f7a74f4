//! Convolution and max-pooling kernels for NCHW tensors.
//!
//! Convolution is lowered to GEMM through im2col: the input patches are
//! unrolled into a column matrix so the convolution becomes one product
//! with the `(OC, C·KH·KW)` filter matrix — exactly the reshaping the
//! systolic-array mapper in `reduce-systolic` assumes when it lays filter
//! weights onto the PE grid. Two layouts of that lowering live here:
//!
//! * **Tap-major** (the training path, `Conv2d` in `reduce-nn`):
//!   [`im2col_tap_major_into`] builds `cols` as `(C·KH·KW, N·OH·OW)`, one
//!   row per kernel tap, each row filled from contiguous runs of input
//!   rows. The products are OC-major — [`conv2d_forward_gemm_into`]
//!   (`W · cols`), [`conv2d_weight_grad_into`] (`G · colsᵀ`),
//!   [`conv2d_input_grad_into`] (`Wᵀ · G`) — with the bias add and the
//!   NCHW layout moves as block copies ([`conv2d_output_into`],
//!   [`conv2d_grad_oc_major_into`]), and [`col2im_tap_major_into`]
//!   scatters the column gradient back.
//! * **Position-major** (the reference): [`im2col_into`] builds
//!   `(N·OH·OW, C·KH·KW)`, the products run through `matmul_nt_into` /
//!   `matmul_tn_into` / `matmul_into`, and [`rows_to_nchw_into`],
//!   [`nchw_to_rows_into`] and [`col2im_into`] move the layouts.
//!
//! The two paths are bit-identical on `y`, `dW`, `db` and `dX`. Each
//! tap-major product runs in the rounding family
//! ([`GemmFamily`]) that `matmul*` dispatch picks for the *logical*
//! position-major problem (`m` = positions, `k` = patch, `n` = OC), and
//! every element is the same ascending reduction chain in both layouts.
//! [`col2im_tap_major_into`] visits taps with `ky`, then `kx`, descending,
//! which is exactly the order in which ascending output positions reach
//! any one input pixel.

use crate::error::{Result, TensorError};
use crate::ops::gemm::{self, GemmFamily, GemmVariant};
use crate::tensor::Tensor;

/// Spatial geometry of a 2-D convolution or pooling window.
///
/// # Examples
///
/// ```
/// use reduce_tensor::ops::Conv2dGeometry;
///
/// # fn main() -> Result<(), reduce_tensor::TensorError> {
/// let g = Conv2dGeometry::new(32, 32, 3, 3, 1, 1)?;
/// assert_eq!(g.out_h, 32); // "same" padding with 3x3/stride 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes output geometry for the given window parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the stride is zero, the
    /// kernel is empty, or the padded input is smaller than the kernel.
    pub fn new(
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::InvalidArgument {
                op: "Conv2dGeometry",
                reason: "stride must be nonzero".to_string(),
            });
        }
        if kernel_h == 0 || kernel_w == 0 {
            return Err(TensorError::InvalidArgument {
                op: "Conv2dGeometry",
                reason: "kernel must be non-empty".to_string(),
            });
        }
        let padded_h = in_h + 2 * padding;
        let padded_w = in_w + 2 * padding;
        if padded_h < kernel_h || padded_w < kernel_w {
            return Err(TensorError::InvalidArgument {
                op: "Conv2dGeometry",
                reason: format!(
                    "kernel {kernel_h}x{kernel_w} larger than padded input {padded_h}x{padded_w}"
                ),
            });
        }
        Ok(Conv2dGeometry {
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            padding,
            out_h: (padded_h - kernel_h) / stride + 1,
            out_w: (padded_w - kernel_w) / stride + 1,
        })
    }

    /// Number of output positions per image (`out_h * out_w`).
    pub fn out_positions(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// A [`TensorError::ShapeMismatch`] naming `op`: `want` is the shape the
/// kernel expected, `got` the one it was handed.
fn shape_mismatch(op: &'static str, want: &[usize], got: &[usize]) -> TensorError {
    TensorError::ShapeMismatch {
        op,
        lhs: want.to_vec(),
        rhs: got.to_vec(),
    }
}

fn check_nchw(op: &'static str, x: &Tensor) -> Result<(usize, usize, usize, usize)> {
    let d = x.dims();
    if d.len() != 4 {
        return Err(TensorError::InvalidArgument {
            op,
            reason: format!("expected NCHW rank-4 tensor, got shape {:?}", d),
        });
    }
    Ok((d[0], d[1], d[2], d[3]))
}

/// Unrolls input patches: `(N, C, H, W)` → `(N·OH·OW, C·KH·KW)`.
///
/// Row `n·OH·OW + oy·OW + ox` holds the flattened receptive field of output
/// position `(oy, ox)` of image `n`; out-of-bounds (padding) taps are zero.
///
/// # Errors
///
/// Returns an error if `x` is not rank-4 or the geometry does not match its
/// spatial dims.
pub fn im2col(x: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let (n, c, _, _) = check_nchw("im2col", x)?;
    let mut out = Tensor::zeros([
        n * geom.out_h * geom.out_w,
        c * geom.kernel_h * geom.kernel_w,
    ]);
    im2col_into(x, geom, &mut out)?;
    Ok(out)
}

/// Like [`im2col`] but writing into a caller-provided scratch tensor of
/// shape `(N·OH·OW, C·KH·KW)`. `out` is zeroed first (padding taps must
/// read zero); results are bit-identical to [`im2col`].
///
/// # Errors
///
/// Same conditions as [`im2col`], plus a shape check on `out`.
pub fn im2col_into(x: &Tensor, geom: &Conv2dGeometry, out: &mut Tensor) -> Result<()> {
    let (n, c, h, w) = check_nchw("im2col", x)?;
    check_spatial("im2col", geom, h, w)?;
    let (kh, kw, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let (oh, ow) = (geom.out_h, geom.out_w);
    let row_len = c * kh * kw;
    if out.dims() != [n * oh * ow, row_len] {
        return Err(shape_mismatch(
            "im2col_into",
            &[n * oh * ow, row_len],
            out.dims(),
        ));
    }
    out.fill_zero();
    let xd = x.data();
    let od = out.data_mut();
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (img * oh + oy) * ow + ox;
                let base = row * row_len;
                for ch in 0..c {
                    let chan_base = (img * c + ch) * h * w;
                    for ky in 0..kh {
                        let iy = (oy * s + ky) as isize - p as isize;
                        if iy < 0 || iy >= h as isize {
                            continue; // padding row stays zero
                        }
                        let iy = iy as usize;
                        for kx in 0..kw {
                            let ix = (ox * s + kx) as isize - p as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            od[base + (ch * kh + ky) * kw + kx] =
                                xd[chan_base + iy * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Scatters column gradients back: the adjoint of [`im2col`].
///
/// `cols` has shape `(N·OH·OW, C·KH·KW)`; the result has shape
/// `(N, C, H, W)` with overlapping taps accumulated.
///
/// # Errors
///
/// Returns an error if `cols` does not match the geometry.
pub fn col2im(cols: &Tensor, n: usize, c: usize, geom: &Conv2dGeometry) -> Result<Tensor> {
    let mut out = Tensor::zeros([n, c, geom.in_h, geom.in_w]);
    col2im_into(cols, n, c, geom, &mut out)?;
    Ok(out)
}

/// Like [`col2im`] but accumulating into a caller-provided tensor of shape
/// `(N, C, H, W)`. `out` is zeroed first; results are bit-identical to
/// [`col2im`].
///
/// # Errors
///
/// Same conditions as [`col2im`], plus a shape check on `out`.
pub fn col2im_into(
    cols: &Tensor,
    n: usize,
    c: usize,
    geom: &Conv2dGeometry,
    out: &mut Tensor,
) -> Result<()> {
    let (rows, row_len) = cols.shape().as_matrix()?;
    let (kh, kw, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let (oh, ow, h, w) = (geom.out_h, geom.out_w, geom.in_h, geom.in_w);
    if rows != n * oh * ow || row_len != c * kh * kw {
        return Err(shape_mismatch(
            "col2im",
            &[n * oh * ow, c * kh * kw],
            &[rows, row_len],
        ));
    }
    if out.dims() != [n, c, h, w] {
        return Err(shape_mismatch("col2im_into", &[n, c, h, w], out.dims()));
    }
    out.fill_zero();
    let cd = cols.data();
    let od = out.data_mut();
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (img * oh + oy) * ow + ox;
                let base = row * row_len;
                for ch in 0..c {
                    let chan_base = (img * c + ch) * h * w;
                    for ky in 0..kh {
                        let iy = (oy * s + ky) as isize - p as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for kx in 0..kw {
                            let ix = (ox * s + kx) as isize - p as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            od[chan_base + iy * w + ix as usize] +=
                                cd[base + (ch * kh + ky) * kw + kx];
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Output planes at or above this many positions are moved one tap
/// region per image at a time — one shifted span on stride-1 geometries,
/// row runs otherwise. Smaller planes (the 2×2 and 1×1 tail of a VGG)
/// copy each valid pixel across all images instead, so no
/// per-image work is paid on regions only a few floats long.
const SPAN_MIN_PLANE: usize = 16;

/// The half-open range `lo..hi` of output coordinates `o < out` whose
/// tap at kernel offset `k` reads inside an input axis of length `len`,
/// i.e. `0 ≤ o·s + k − p < len`. Empty when the tap is all padding.
fn valid_taps(k: usize, s: usize, p: usize, len: usize, out: usize) -> (usize, usize) {
    let lo = p.saturating_sub(k).div_ceil(s).min(out);
    let hi = (len + p).saturating_sub(k).div_ceil(s).min(out).max(lo);
    (lo, hi)
}

/// Element-wise copy of the common prefix of `src` into `dst`.
fn copy_run(dst: &mut [f32], src: &[f32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = v;
    }
}

/// A tap region in shift form (see [`TapRegion::shifted_span`]): output
/// offsets `out_lo..out_lo + len` read input offsets
/// `in_lo..in_lo + len`. Inside the span, every row after the first
/// starts with a gap: the `pitch − width` positions from the end of one
/// row's valid columns to the start of the next row's, which read padding.
#[derive(Debug, Clone, Copy)]
struct ShiftedSpan {
    out_lo: usize,
    in_lo: usize,
    len: usize,
    width: usize,
    pitch: usize,
}

impl ShiftedSpan {
    /// Zeroes the gap positions of a span-length slice: strided stores,
    /// one per row and gap column.
    fn zero_gaps(&self, span: &mut [f32]) {
        for g in self.width..self.pitch {
            for v in span.iter_mut().skip(g).step_by(self.pitch) {
                *v = 0.0;
            }
        }
    }
}

/// The valid region of one kernel tap over an `(h, w)` input plane:
/// output rows `oy_lo..oy_hi`, columns `ox_lo..ox_hi`, and the input
/// pixel `(iy0, ix0)` read by the region's first output pixel.
#[derive(Debug, Clone, Copy)]
struct TapRegion {
    oy_lo: usize,
    oy_hi: usize,
    ox_lo: usize,
    ox_hi: usize,
    iy0: usize,
    ix0: usize,
}

impl TapRegion {
    /// `None` when every output position of the tap reads padding.
    fn new(geom: &Conv2dGeometry, ky: usize, kx: usize) -> Option<Self> {
        let (s, p) = (geom.stride, geom.padding);
        let (oy_lo, oy_hi) = valid_taps(ky, s, p, geom.in_h, geom.out_h);
        let (ox_lo, ox_hi) = valid_taps(kx, s, p, geom.in_w, geom.out_w);
        if oy_lo == oy_hi || ox_lo == ox_hi {
            return None;
        }
        Some(TapRegion {
            oy_lo,
            oy_hi,
            ox_lo,
            ox_hi,
            iy0: oy_lo * s + ky - p,
            ix0: ox_lo * s + kx - p,
        })
    }

    /// For stride 1 with equal input and output row pitch, output
    /// offset `q` of the tap reads input offset `q + (ky − p)·W + (kx − p)`
    /// everywhere: the region is one contiguous span shifted by a
    /// constant. `None` for any other geometry.
    fn shifted_span(&self, geom: &Conv2dGeometry) -> Option<ShiftedSpan> {
        if geom.stride != 1 || geom.out_w != geom.in_w {
            return None;
        }
        let ow = geom.out_w;
        let width = self.ox_hi - self.ox_lo;
        let out_lo = self.oy_lo * ow + self.ox_lo;
        Some(ShiftedSpan {
            out_lo,
            in_lo: self.iy0 * ow + self.ix0,
            len: (self.oy_hi - 1) * ow + self.ox_hi - out_lo,
            width,
            pitch: ow,
        })
    }

    /// Lists `(output offset, input offset)` within one plane for every
    /// valid pixel, row-major, into `pairs`; returns how many were
    /// written. Only called for planes smaller than `pairs`.
    fn pixels(&self, geom: &Conv2dGeometry, pairs: &mut [(usize, usize)]) -> usize {
        let (s, ow, w) = (geom.stride, geom.out_w, geom.in_w);
        let all = (self.oy_lo..self.oy_hi).flat_map(|oy| {
            let iy = self.iy0 + (oy - self.oy_lo) * s;
            (self.ox_lo..self.ox_hi)
                .map(move |ox| (oy * ow + ox, iy * w + self.ix0 + (ox - self.ox_lo) * s))
        });
        let mut count = 0;
        for (slot, pair) in pairs.iter_mut().zip(all) {
            *slot = pair;
            count += 1;
        }
        count
    }
}

/// Checks that `geom` was built for an `(h, w)` input.
fn check_spatial(op: &'static str, geom: &Conv2dGeometry, h: usize, w: usize) -> Result<()> {
    if h != geom.in_h || w != geom.in_w {
        return Err(shape_mismatch(op, &[geom.in_h, geom.in_w], &[h, w]));
    }
    Ok(())
}

/// Unrolls input patches tap-major: `(N, C, H, W)` → `(C·KH·KW, N·OH·OW)`.
///
/// Row `(ch·KH + ky)·KW + kx` holds kernel tap `(ch, ky, kx)` for every
/// output position `n·OH·OW + oy·OW + ox`; padding taps are zero. This is
/// the transpose of [`im2col`], built from contiguous runs of input rows:
/// a tap row reads `OW`-long runs (stride 1) instead of `KW`-long ones,
/// an all-padding tap row is one fill, and on small output planes each
/// valid pixel is gathered across all images in one pass.
///
/// # Errors
///
/// Returns an error if `x` is not rank-4, the geometry does not match its
/// spatial dims, or `out` is not `(C·KH·KW, N·OH·OW)`.
pub fn im2col_tap_major_into(x: &Tensor, geom: &Conv2dGeometry, out: &mut Tensor) -> Result<()> {
    let (n, c, h, w) = check_nchw("im2col_tap_major", x)?;
    check_spatial("im2col_tap_major", geom, h, w)?;
    let (kh, kw) = (geom.kernel_h, geom.kernel_w);
    let plane = geom.out_positions();
    let positions = n * plane;
    if out.dims() != [c * kh * kw, positions] {
        return Err(shape_mismatch(
            "im2col_tap_major_into",
            &[c * kh * kw, positions],
            out.dims(),
        ));
    }
    let (hw, chw) = (h * w, c * h * w);
    if positions == 0 || hw == 0 {
        out.fill_zero(); // nothing to read: every tap is padding
        return Ok(());
    }
    let xd = x.data();
    let mut pairs = [(0, 0); SPAN_MIN_PLANE];
    let mut rows = out.data_mut().chunks_exact_mut(positions);
    for ch in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let Some(row) = rows.next() else {
                    return Ok(());
                };
                let Some(tap) = TapRegion::new(geom, ky, kx) else {
                    row.fill(0.0); // all padding
                    continue;
                };
                if plane < SPAN_MIN_PLANE {
                    row.fill(0.0);
                    let count = tap.pixels(geom, &mut pairs);
                    let pixels = pairs.get(..count).unwrap_or(&[]);
                    for &(o, i) in pixels {
                        let src = ch * hw + i;
                        for (seg, img) in row.chunks_exact_mut(plane).zip(xd.chunks_exact(chw)) {
                            if let (Some(d), Some(&v)) = (seg.get_mut(o), img.get(src)) {
                                *d = v;
                            }
                        }
                    }
                    continue;
                }
                let Some(sp) = tap.shifted_span(geom) else {
                    row.fill(0.0);
                    im2col_row_runs(row, xd, &tap, geom, ch * hw, chw);
                    continue;
                };
                // One copy per image for the whole region, the padding
                // around it zeroed, and the wrapped-around padding
                // columns inside it set back to zero.
                for (seg, img) in row.chunks_exact_mut(plane).zip(xd.chunks_exact(chw)) {
                    let src = img.get(ch * hw + sp.in_lo..).unwrap_or(&[]);
                    let (head, rest) = seg.split_at_mut(sp.out_lo.min(plane));
                    let (span, tail) = rest.split_at_mut(sp.len.min(rest.len()));
                    head.fill(0.0);
                    tail.fill(0.0);
                    copy_run(span, src);
                    sp.zero_gaps(span);
                }
            }
        }
    }
    Ok(())
}

/// The general tap-row fill of [`im2col_tap_major_into`] (any stride):
/// for every image, one run of `ox_hi − ox_lo` input pixels per valid
/// output row into a zeroed `row`. `chan` is the channel's offset inside
/// an image of `chw` floats.
fn im2col_row_runs(
    row: &mut [f32],
    xd: &[f32],
    tap: &TapRegion,
    geom: &Conv2dGeometry,
    chan: usize,
    chw: usize,
) {
    let (s, ow, w) = (geom.stride, geom.out_w, geom.in_w);
    let width = tap.ox_hi - tap.ox_lo;
    for (seg, img) in row
        .chunks_exact_mut(geom.out_positions())
        .zip(xd.chunks_exact(chw))
    {
        let body = seg
            .get_mut(tap.oy_lo * ow..tap.oy_hi * ow)
            .unwrap_or(&mut []);
        for (r, drow) in body.chunks_exact_mut(ow).enumerate() {
            let start = chan + (tap.iy0 + r * s) * w + tap.ix0;
            let srow = img.get(start..).unwrap_or(&[]);
            let dst = drow.get_mut(tap.ox_lo..tap.ox_hi).unwrap_or(&mut []);
            if s == 1 {
                copy_run(dst, srow.get(..width).unwrap_or(&[]));
            } else {
                for (d, &v) in dst.iter_mut().zip(srow.iter().step_by(s)) {
                    *d = v;
                }
            }
        }
    }
}

/// Scatters tap-major column gradients back: the adjoint of
/// [`im2col_tap_major_into`], accumulating into `out` of shape
/// `(N, C, H, W)` (zeroed first).
///
/// Taps are visited `ky` descending, then `kx` descending. Ascending
/// output positions reach a given input pixel in exactly that tap order,
/// so every pixel sums the same terms in the same order as
/// [`col2im_into`] over the transposed columns, and the results are
/// bit-identical.
///
/// `cols` is scratch: entries at padding taps carry no gradient, and on
/// stride-1 geometries whose output rows are as wide as the input rows
/// they are zeroed so each tap's region can be added as one shifted span
/// (a `+0.0` leaves any partial sum's bits unchanged).
///
/// # Errors
///
/// Returns an error if `cols` is not `(C·KH·KW, N·OH·OW)` or `out` is not
/// `(N, C, H, W)` for the geometry.
pub fn col2im_tap_major_into(
    cols: &mut Tensor,
    n: usize,
    c: usize,
    geom: &Conv2dGeometry,
    out: &mut Tensor,
) -> Result<()> {
    let (kh, kw, h, w) = (geom.kernel_h, geom.kernel_w, geom.in_h, geom.in_w);
    let plane = geom.out_positions();
    let positions = n * plane;
    if cols.dims() != [c * kh * kw, positions] {
        return Err(shape_mismatch(
            "col2im_tap_major",
            &[c * kh * kw, positions],
            cols.dims(),
        ));
    }
    if out.dims() != [n, c, h, w] {
        return Err(shape_mismatch(
            "col2im_tap_major_into",
            &[n, c, h, w],
            out.dims(),
        ));
    }
    out.fill_zero();
    let (hw, chw) = (h * w, c * h * w);
    if positions == 0 || hw == 0 {
        return Ok(());
    }
    let cd = cols.data_mut();
    let od = out.data_mut();
    let mut pairs = [(0, 0); SPAN_MIN_PLANE];
    for ch in 0..c {
        for ky in (0..kh).rev() {
            for kx in (0..kw).rev() {
                let Some(tap) = TapRegion::new(geom, ky, kx) else {
                    continue;
                };
                let start = ((ch * kh + ky) * kw + kx) * positions;
                let row = cd.get_mut(start..start + positions).unwrap_or(&mut []);
                if plane < SPAN_MIN_PLANE {
                    let count = tap.pixels(geom, &mut pairs);
                    let pixels = pairs.get(..count).unwrap_or(&[]);
                    for &(o, i) in pixels {
                        let dst = ch * hw + i;
                        for (seg, img) in row.chunks_exact(plane).zip(od.chunks_exact_mut(chw)) {
                            if let (Some(d), Some(&v)) = (img.get_mut(dst), seg.get(o)) {
                                *d += v;
                            }
                        }
                    }
                    continue;
                }
                let Some(sp) = tap.shifted_span(geom) else {
                    col2im_row_runs(row, od, &tap, geom, ch * hw, chw);
                    continue;
                };
                // Padding columns inside the span to +0.0, then one add
                // per image for the whole region.
                for (seg, img) in row.chunks_exact_mut(plane).zip(od.chunks_exact_mut(chw)) {
                    let src = seg.get_mut(sp.out_lo..sp.out_lo + sp.len);
                    let src = src.unwrap_or(&mut []);
                    sp.zero_gaps(src);
                    let dst = img.get_mut(ch * hw + sp.in_lo..).unwrap_or(&mut []);
                    for (d, &v) in dst.iter_mut().zip(&*src) {
                        *d += v;
                    }
                }
            }
        }
    }
    Ok(())
}

/// The general scatter of one tap row in [`col2im_tap_major_into`] (any
/// stride): for every image, one run of `ox_hi − ox_lo` gradients per
/// valid output row added into its input row. `chan` is the channel's
/// offset inside an image of `chw` floats.
fn col2im_row_runs(
    row: &[f32],
    od: &mut [f32],
    tap: &TapRegion,
    geom: &Conv2dGeometry,
    chan: usize,
    chw: usize,
) {
    let (s, ow, w) = (geom.stride, geom.out_w, geom.in_w);
    for (seg, img) in row
        .chunks_exact(geom.out_positions())
        .zip(od.chunks_exact_mut(chw))
    {
        let body = seg.get(tap.oy_lo * ow..tap.oy_hi * ow).unwrap_or(&[]);
        for (r, srow) in body.chunks_exact(ow).enumerate() {
            let start = chan + (tap.iy0 + r * s) * w + tap.ix0;
            let drow = img.get_mut(start..).unwrap_or(&mut []);
            let src = srow.get(tap.ox_lo..tap.ox_hi).unwrap_or(&[]);
            if s == 1 {
                for (d, &v) in drow.iter_mut().zip(src) {
                    *d += v;
                }
            } else {
                for (d, &v) in drow.iter_mut().step_by(s).zip(src) {
                    *d += v;
                }
            }
        }
    }
}

/// The forward product of the tap-major lowering:
/// `out (OC, N·OH·OW) = W (OC, C·KH·KW) · cols (C·KH·KW, N·OH·OW)`,
/// in the rounding family of the position-major product it replaces,
/// `matmul_nt(colsᵀ, W)`.
///
/// # Errors
///
/// Returns an error for non-conforming shapes, naming
/// `conv2d_forward_gemm_into`.
pub fn conv2d_forward_gemm_into(weight: &Tensor, cols: &Tensor, out: &mut Tensor) -> Result<()> {
    const OP: &str = "conv2d_forward_gemm_into";
    let (oc, patch, positions) = GemmVariant::NN.problem_size(OP, weight, cols)?;
    gemm::check_out(OP, out, oc, positions)?;
    out.fill_zero();
    gemm::family_into(
        GemmFamily::for_problem(positions, patch, oc),
        GemmVariant::NN,
        oc,
        patch,
        positions,
        weight.data(),
        cols.data(),
        out.data_mut(),
    );
    Ok(())
}

/// The weight gradient of the tap-major lowering:
/// `out (OC, C·KH·KW) = G (OC, N·OH·OW) · colsᵀ`, in the rounding family
/// of the position-major product it replaces, `matmul_tn(Gᵀ, colsᵀ)`.
///
/// # Errors
///
/// Returns an error for non-conforming shapes, naming
/// `conv2d_weight_grad_into`.
pub fn conv2d_weight_grad_into(grad: &Tensor, cols: &Tensor, out: &mut Tensor) -> Result<()> {
    const OP: &str = "conv2d_weight_grad_into";
    let (oc, positions, patch) = GemmVariant::NT.problem_size(OP, grad, cols)?;
    gemm::check_out(OP, out, oc, patch)?;
    out.fill_zero();
    gemm::family_into(
        GemmFamily::for_problem(oc, positions, patch),
        GemmVariant::NT,
        oc,
        positions,
        patch,
        grad.data(),
        cols.data(),
        out.data_mut(),
    );
    Ok(())
}

/// The column gradient of the tap-major lowering:
/// `out (C·KH·KW, N·OH·OW) = Wᵀ · G (OC, N·OH·OW)`, in the rounding
/// family of the position-major product it replaces, `matmul(Gᵀ, W)`.
///
/// # Errors
///
/// Returns an error for non-conforming shapes, naming
/// `conv2d_input_grad_into`.
pub fn conv2d_input_grad_into(weight: &Tensor, grad: &Tensor, out: &mut Tensor) -> Result<()> {
    const OP: &str = "conv2d_input_grad_into";
    let (patch, oc, positions) = GemmVariant::TN.problem_size(OP, weight, grad)?;
    gemm::check_out(OP, out, patch, positions)?;
    out.fill_zero();
    gemm::family_into(
        GemmFamily::for_problem(positions, oc, patch),
        GemmVariant::TN,
        patch,
        oc,
        positions,
        weight.data(),
        grad.data(),
        out.data_mut(),
    );
    Ok(())
}

/// Moves an OC-major product `(OC, N·OH·OW)` into NCHW `out`
/// `(N, OC, OH, OW)`, adding `bias[oc]` on the way: one block copy per
/// `(image, channel)` plane. Every element of `out` is overwritten.
///
/// # Errors
///
/// Returns an error if `out` is not rank-4 or `prod`/`bias` do not match
/// it.
pub fn conv2d_output_into(prod: &Tensor, bias: &Tensor, out: &mut Tensor) -> Result<()> {
    let (n, oc, oh, ow) = check_nchw("conv2d_output_into", out)?;
    let plane = oh * ow;
    if prod.dims() != [oc, n * plane] {
        return Err(shape_mismatch(
            "conv2d_output_into",
            &[oc, n * plane],
            prod.dims(),
        ));
    }
    if bias.dims() != [oc] {
        return Err(shape_mismatch("conv2d_output_into", &[oc], bias.dims()));
    }
    if n * plane * oc == 0 {
        return Ok(());
    }
    let (pd, bd) = (prod.data(), bias.data());
    for (img, y_img) in out.data_mut().chunks_exact_mut(oc * plane).enumerate() {
        let planes = y_img.chunks_exact_mut(plane);
        for ((y, prow), &b) in planes.zip(pd.chunks_exact(n * plane)).zip(bd) {
            let src = prow.get(img * plane..(img + 1) * plane).unwrap_or(&[]);
            for (yv, &v) in y.iter_mut().zip(src) {
                *yv = v + b;
            }
        }
    }
    Ok(())
}

/// Moves an NCHW gradient `(N, OC, OH, OW)` into OC-major `out`
/// `(OC, N·OH·OW)`, the layout the tap-major backward products read.
/// Every element of `out` is overwritten.
///
/// # Errors
///
/// Returns an error if `grad` is not rank-4 or `out` does not match it.
pub fn conv2d_grad_oc_major_into(grad: &Tensor, out: &mut Tensor) -> Result<()> {
    let (n, oc, oh, ow) = check_nchw("conv2d_grad_oc_major_into", grad)?;
    let plane = oh * ow;
    if out.dims() != [oc, n * plane] {
        return Err(shape_mismatch(
            "conv2d_grad_oc_major_into",
            &[oc, n * plane],
            out.dims(),
        ));
    }
    if n * plane * oc == 0 {
        return Ok(());
    }
    let od = out.data_mut();
    for (img, g_img) in grad.data().chunks_exact(oc * plane).enumerate() {
        for (g, orow) in g_img
            .chunks_exact(plane)
            .zip(od.chunks_exact_mut(n * plane))
        {
            let dst = orow
                .get_mut(img * plane..(img + 1) * plane)
                .unwrap_or(&mut []);
            copy_run(dst, g);
        }
    }
    Ok(())
}

/// The bias gradient from an OC-major gradient `(OC, P)`: `out[oc]` is
/// the sum of row `oc` in ascending position order from `+0.0` — the
/// same chain [`Tensor::sum_rows_into`] runs over the position-major
/// `(P, OC)` layout, so the bits agree.
///
/// # Errors
///
/// Returns an error if `grad` is not rank-2 or `out` is not `(OC,)`.
pub fn conv2d_bias_grad_into(grad: &Tensor, out: &mut Tensor) -> Result<()> {
    let (oc, positions) = gemm::check_rank2("conv2d_bias_grad_into", grad)?;
    if out.dims() != [oc] {
        return Err(shape_mismatch("conv2d_bias_grad_into", &[oc], out.dims()));
    }
    out.fill_zero();
    if positions == 0 {
        return Ok(());
    }
    for (acc, row) in out
        .data_mut()
        .iter_mut()
        .zip(grad.data().chunks_exact(positions))
    {
        *acc = row.iter().fold(0.0, |sum, &v| sum + v);
    }
    Ok(())
}

/// Reorders a `(N·OH·OW, OC)` GEMM output into NCHW `(N, OC, OH, OW)`.
///
/// # Errors
///
/// Returns an error on inconsistent dimensions.
pub fn rows_to_nchw(rows: &Tensor, n: usize, oc: usize, oh: usize, ow: usize) -> Result<Tensor> {
    let mut out = Tensor::zeros([n, oc, oh, ow]);
    rows_to_nchw_into(rows, n, oc, oh, ow, &mut out)?;
    Ok(out)
}

/// Like [`rows_to_nchw`] but writing into a caller-provided tensor of shape
/// `(N, OC, OH, OW)`. Every element is overwritten.
///
/// # Errors
///
/// Same conditions as [`rows_to_nchw`], plus a shape check on `out`.
pub fn rows_to_nchw_into(
    rows: &Tensor,
    n: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    out: &mut Tensor,
) -> Result<()> {
    let (r, c) = rows.shape().as_matrix()?;
    if r != n * oh * ow || c != oc {
        return Err(shape_mismatch("rows_to_nchw", &[n * oh * ow, oc], &[r, c]));
    }
    if out.dims() != [n, oc, oh, ow] {
        return Err(shape_mismatch(
            "rows_to_nchw_into",
            &[n, oc, oh, ow],
            out.dims(),
        ));
    }
    let rd = rows.data();
    let od = out.data_mut();
    for img in 0..n {
        for y in 0..oh {
            for x in 0..ow {
                let row = (img * oh + y) * ow + x;
                for ch in 0..oc {
                    od[((img * oc + ch) * oh + y) * ow + x] = rd[row * oc + ch];
                }
            }
        }
    }
    Ok(())
}

/// Inverse of [`rows_to_nchw`]: NCHW `(N, OC, OH, OW)` → `(N·OH·OW, OC)`.
///
/// # Errors
///
/// Returns an error if `x` is not rank-4.
pub fn nchw_to_rows(x: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw("nchw_to_rows", x)?;
    let mut out = Tensor::zeros([n * h * w, c]);
    nchw_to_rows_into(x, &mut out)?;
    Ok(out)
}

/// Like [`nchw_to_rows`] but writing into a caller-provided tensor of shape
/// `(N·H·W, C)`. Every element is overwritten.
///
/// # Errors
///
/// Same conditions as [`nchw_to_rows`], plus a shape check on `out`.
pub fn nchw_to_rows_into(x: &Tensor, out: &mut Tensor) -> Result<()> {
    let (n, c, h, w) = check_nchw("nchw_to_rows", x)?;
    if out.dims() != [n * h * w, c] {
        return Err(shape_mismatch(
            "nchw_to_rows_into",
            &[n * h * w, c],
            out.dims(),
        ));
    }
    let xd = x.data();
    let od = out.data_mut();
    for img in 0..n {
        for ch in 0..c {
            for y in 0..h {
                for xcol in 0..w {
                    let row = (img * h + y) * w + xcol;
                    od[row * c + ch] = xd[((img * c + ch) * h + y) * w + xcol];
                }
            }
        }
    }
    Ok(())
}

/// Output of [`max_pool2d`]: pooled values plus flat argmax indices used by
/// the backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxPoolOutput {
    /// Pooled tensor `(N, C, OH, OW)`.
    pub output: Tensor,
    /// For each output element, the flat index into the input tensor of the
    /// element that produced it.
    pub argmax: Vec<usize>,
}

/// 2-D max pooling over an NCHW tensor (no padding).
///
/// # Errors
///
/// Returns an error for non-rank-4 input, a zero window/stride, or a window
/// larger than the input.
pub fn max_pool2d(x: &Tensor, window: usize, stride: usize) -> Result<MaxPoolOutput> {
    let (n, c, h, w) = check_nchw("max_pool2d", x)?;
    let geom = Conv2dGeometry::new(h, w, window, window, stride, 0)?;
    let mut output = Tensor::zeros([n, c, geom.out_h, geom.out_w]);
    let mut argmax = Vec::new();
    max_pool2d_into(x, window, stride, &mut output, &mut argmax)?;
    Ok(MaxPoolOutput { output, argmax })
}

/// Like [`max_pool2d`] but writing pooled values into `out` (shape
/// `(N, C, OH, OW)`) and argmax indices into a caller-owned `argmax`
/// buffer, which is cleared and refilled (its allocation is reused once it
/// has grown to size). Results are bit-identical to [`max_pool2d`].
///
/// # Errors
///
/// Same conditions as [`max_pool2d`], plus a shape check on `out`.
pub fn max_pool2d_into(
    x: &Tensor,
    window: usize,
    stride: usize,
    out: &mut Tensor,
    argmax: &mut Vec<usize>,
) -> Result<()> {
    let (n, c, h, w) = check_nchw("max_pool2d", x)?;
    let geom = Conv2dGeometry::new(h, w, window, window, stride, 0)?;
    let (oh, ow) = (geom.out_h, geom.out_w);
    if out.dims() != [n, c, oh, ow] {
        return Err(shape_mismatch(
            "max_pool2d_into",
            &[n, c, oh, ow],
            out.dims(),
        ));
    }
    argmax.clear();
    argmax.resize(n * c * oh * ow, 0);
    let output = out;
    let xd = x.data();
    let od = output.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let chan_base = (img * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = chan_base + (oy * stride) * w + ox * stride;
                    for ky in 0..window {
                        for kx in 0..window {
                            let idx = chan_base + (oy * stride + ky) * w + (ox * stride + kx);
                            if xd[idx] > best {
                                best = xd[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let out_idx = ((img * c + ch) * oh + oy) * ow + ox;
                    od[out_idx] = best;
                    argmax[out_idx] = best_idx;
                }
            }
        }
    }
    Ok(())
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the input
/// element that won the max.
///
/// # Errors
///
/// Returns an error if `grad` and `argmax` lengths differ.
pub fn max_pool2d_backward(
    grad: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Result<Tensor> {
    let mut out = Tensor::zeros(input_dims.to_vec());
    max_pool2d_backward_into(grad, argmax, &mut out)?;
    Ok(out)
}

/// Like [`max_pool2d_backward`] but accumulating into a caller-provided
/// tensor already shaped like the pooling input. `out` is zeroed first;
/// results are bit-identical to [`max_pool2d_backward`].
///
/// # Errors
///
/// Returns an error if `grad` and `argmax` lengths differ.
pub fn max_pool2d_backward_into(grad: &Tensor, argmax: &[usize], out: &mut Tensor) -> Result<()> {
    if grad.len() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            expected: argmax.len(),
            actual: grad.len(),
        });
    }
    out.fill_zero();
    let od = out.data_mut();
    for (g, &idx) in grad.data().iter().zip(argmax) {
        od[idx] += g;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::matmul_nt;

    /// Direct (definition-level) convolution used as an oracle.
    fn naive_conv(x: &Tensor, w: &Tensor, geom: &Conv2dGeometry) -> Tensor {
        let xd = x.dims().to_vec();
        let (n, c, h, wd) = (xd[0], xd[1], xd[2], xd[3]);
        let wdims = w.dims().to_vec();
        let oc = wdims[0];
        let (kh, kw, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
        let (oh, ow) = (geom.out_h, geom.out_w);
        Tensor::from_fn([n, oc, oh, ow], |flat| {
            let ox = flat % ow;
            let oy = (flat / ow) % oh;
            let f = (flat / (ow * oh)) % oc;
            let img = flat / (ow * oh * oc);
            let mut acc = 0.0f32;
            for ch in 0..c {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let iy = (oy * s + ky) as isize - p as isize;
                        let ix = (ox * s + kx) as isize - p as isize;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= wd as isize {
                            continue;
                        }
                        let xval = x.data()[((img * c + ch) * h + iy as usize) * wd + ix as usize];
                        let wval = w.data()[((f * c + ch) * kh + ky) * kw + kx];
                        acc += xval * wval;
                    }
                }
            }
            acc
        })
    }

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(8, 8, 3, 3, 1, 1).expect("valid");
        assert_eq!((g.out_h, g.out_w), (8, 8));
        assert_eq!(g.out_positions(), 64);
    }

    #[test]
    fn geometry_strided() {
        let g = Conv2dGeometry::new(8, 8, 2, 2, 2, 0).expect("valid");
        assert_eq!((g.out_h, g.out_w), (4, 4));
    }

    #[test]
    fn geometry_rejects_bad_args() {
        assert!(Conv2dGeometry::new(8, 8, 3, 3, 0, 0).is_err());
        assert!(Conv2dGeometry::new(8, 8, 0, 3, 1, 0).is_err());
        assert!(Conv2dGeometry::new(2, 2, 5, 5, 1, 0).is_err());
    }

    #[test]
    fn im2col_gemm_matches_naive_conv() {
        let geom = Conv2dGeometry::new(6, 5, 3, 3, 1, 1).expect("valid");
        let x = Tensor::rand_uniform([2, 3, 6, 5], -1.0, 1.0, 11);
        let w = Tensor::rand_uniform([4, 3 * 3 * 3], -1.0, 1.0, 12);
        let cols = im2col(&x, &geom).expect("geometry matches");
        let rows = matmul_nt(&cols, &w).expect("conformable");
        let got = rows_to_nchw(&rows, 2, 4, geom.out_h, geom.out_w).expect("consistent");
        let w4 = w.reshape([4, 3, 3, 3]).expect("same volume");
        let want = naive_conv(&x, &w4, &geom);
        assert!(got.approx_eq(&want, 1e-4));
    }

    #[test]
    fn im2col_strided_no_padding() {
        let geom = Conv2dGeometry::new(4, 4, 2, 2, 2, 0).expect("valid");
        let x = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let cols = im2col(&x, &geom).expect("geometry matches");
        assert_eq!(cols.dims(), &[4, 4]);
        // First patch is the top-left 2x2 block.
        assert_eq!(cols.row(0).expect("in range").data(), &[0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn im2col_rejects_wrong_spatial_dims() {
        let geom = Conv2dGeometry::new(6, 6, 3, 3, 1, 1).expect("valid");
        let x = Tensor::zeros([1, 1, 5, 5]);
        assert!(im2col(&x, &geom).is_err());
        assert!(im2col(&Tensor::zeros([5, 5]), &geom).is_err());
    }

    /// `(h, w, kernel, stride, padding)` cases covering every tap-major
    /// copy path: shifted spans ("same" stride 1), row runs (stride 2,
    /// valid padding, output narrower than input), small-plane pixel
    /// gathers, and all-padding taps.
    const TAP_MAJOR_CASES: [(usize, usize, usize, usize, usize); 8] = [
        (16, 16, 3, 1, 1),
        (6, 9, 5, 1, 2),
        (9, 7, 3, 2, 1),
        (8, 10, 3, 1, 0),
        (4, 4, 3, 1, 1),
        (2, 2, 3, 1, 1),
        (1, 1, 3, 1, 1),
        (2, 3, 5, 2, 2),
    ];

    #[test]
    fn tap_major_im2col_is_the_transpose_of_im2col() {
        for (i, &(h, w, k, s, p)) in TAP_MAJOR_CASES.iter().enumerate() {
            let geom = Conv2dGeometry::new(h, w, k, k, s, p).expect("valid");
            let x = Tensor::rand_uniform([3, 2, h, w], -1.0, 1.0, 40 + i as u64);
            let cols = im2col(&x, &geom).expect("geometry matches");
            let (rows, taps) = cols.shape().as_matrix().expect("matrix");
            let mut tap_major = Tensor::full([taps, rows], f32::NAN);
            im2col_tap_major_into(&x, &geom, &mut tap_major).expect("geometry matches");
            let want = Tensor::from_fn([taps, rows], |f| cols.data()[(f % rows) * taps + f / rows]);
            assert_eq!(tap_major, want, "case {:?}", TAP_MAJOR_CASES[i]);
        }
    }

    #[test]
    fn tap_major_col2im_is_bit_identical_to_col2im() {
        for (i, &(h, w, k, s, p)) in TAP_MAJOR_CASES.iter().enumerate() {
            let geom = Conv2dGeometry::new(h, w, k, k, s, p).expect("valid");
            let (rows, taps) = (3 * geom.out_positions(), 2 * k * k);
            let cols = Tensor::rand_uniform([rows, taps], -1.0, 1.0, 60 + i as u64);
            let want = col2im(&cols, 3, 2, &geom).expect("consistent");
            let mut tap_major =
                Tensor::from_fn([taps, rows], |f| cols.data()[(f % rows) * taps + f / rows]);
            let mut got = Tensor::full([3, 2, h, w], f32::NAN);
            col2im_tap_major_into(&mut tap_major, 3, 2, &geom, &mut got).expect("consistent");
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "case {:?}", TAP_MAJOR_CASES[i]);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        let geom = Conv2dGeometry::new(5, 5, 3, 3, 1, 1).expect("valid");
        let x = Tensor::rand_uniform([1, 2, 5, 5], -1.0, 1.0, 21);
        let cols = im2col(&x, &geom).expect("geometry matches");
        let y = Tensor::rand_uniform(cols.dims().to_vec(), -1.0, 1.0, 22);
        let xback = col2im(&y, 1, 2, &geom).expect("consistent");
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(xback.data())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn rows_nchw_round_trip() {
        let x = Tensor::rand_uniform([2, 3, 4, 5], -1.0, 1.0, 31);
        let rows = nchw_to_rows(&x).expect("rank 4");
        let back = rows_to_nchw(&rows, 2, 3, 4, 5).expect("consistent");
        assert_eq!(back, x);
    }

    #[test]
    fn max_pool_forward() {
        let x = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let p = max_pool2d(&x, 2, 2).expect("valid window");
        assert_eq!(p.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(p.output.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let p = max_pool2d(&x, 2, 2).expect("valid window");
        let g = Tensor::ones(p.output.dims().to_vec());
        let gx = max_pool2d_backward(&g, &p.argmax, x.dims()).expect("consistent");
        assert_eq!(gx.sum(), 4.0);
        assert_eq!(gx.at(&[0, 0, 1, 1]).expect("valid"), 1.0); // element 5
        assert_eq!(gx.at(&[0, 0, 0, 0]).expect("valid"), 0.0);
    }

    #[test]
    fn pool_gradcheck_against_finite_difference() {
        let x = Tensor::rand_uniform([1, 2, 4, 4], -1.0, 1.0, 41);
        let p = max_pool2d(&x, 2, 2).expect("valid window");
        // Loss = sum of pooled outputs; analytic gradient routes ones.
        let g = Tensor::ones(p.output.dims().to_vec());
        let gx = max_pool2d_backward(&g, &p.argmax, x.dims()).expect("consistent");
        let eps = 1e-3;
        for probe in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let lp = max_pool2d(&xp, 2, 2).expect("valid window").output.sum();
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let lm = max_pool2d(&xm, 2, 2).expect("valid window").output.sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gx.data()[probe]).abs() < 1e-2,
                "probe {probe}: fd {fd} vs analytic {}",
                gx.data()[probe]
            );
        }
    }
}
