//! The `Conv2d` layer runs the tap-major lowering (tap-major `cols`,
//! OC-major products, tap-major `col2im`). These properties pin it bit for
//! bit to the position-major reference path — `im2col_into` +
//! `matmul_nt_into` / `matmul_tn_into` / `matmul_into` + `col2im_into` — on
//! the output, the weight and bias gradients and the input gradient, over
//! random geometries and FAP-masked filters.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use reduce_nn::layers::{Conv2d, Layer, Mode};
use reduce_nn::Workspace;
use reduce_tensor::ops::{self, Conv2dGeometry};
use reduce_tensor::Tensor;

/// `(y, dW, db, dX)` of the position-major lowering, with the gradients
/// accumulated into zeroed buffers exactly as the layer accumulates them.
fn position_major(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    grad: &Tensor,
    geom: &Conv2dGeometry,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let (n, c) = (x.dims()[0], x.dims()[1]);
    let (oc, patch) = (weight.dims()[0], weight.dims()[1]);
    let positions = n * geom.out_positions();
    let mut cols = Tensor::zeros([positions, patch]);
    ops::im2col_into(x, geom, &mut cols).expect("geometry matches");
    let mut rows = Tensor::zeros([positions, oc]);
    ops::matmul_nt_into(&cols, weight, &mut rows).expect("conformable");
    ops::add_bias_rows_in_place(&mut rows, bias).expect("bias matches");
    let y = ops::rows_to_nchw(&rows, n, oc, geom.out_h, geom.out_w).expect("consistent");

    let grows = ops::nchw_to_rows(grad).expect("rank 4");
    let mut dw = Tensor::zeros([oc, patch]);
    dw.axpy(1.0, &ops::matmul_tn(&grows, &cols).expect("conformable"))
        .expect("same shape");
    let mut sums = Tensor::zeros([oc]);
    grows.sum_rows_into(&mut sums).expect("same width");
    let mut db = Tensor::zeros([oc]);
    db.axpy(1.0, &sums).expect("same shape");
    let dcols = ops::matmul(&grows, weight).expect("conformable");
    let dx = ops::col2im(&dcols, n, c, geom).expect("consistent");
    (y, dw, db, dx)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Batch, input channels and output channels — below and at or above the
/// packed kernel's 16-wide tile.
fn channels() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        1usize..=4,
        1usize..=4,
        prop_oneof![1usize..=15, 16usize..=24],
    )
}

/// Kernel, stride, padding and how far each spatial side exceeds the
/// smallest input the window fits (so every case is a valid geometry,
/// including inputs smaller than the kernel when padding covers it).
fn window() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
    (
        prop_oneof![Just(1usize), Just(3), Just(5)],
        1usize..=2,
        0usize..=2,
        0usize..=10,
        0usize..=10,
    )
}

proptest! {
    #[test]
    fn tap_major_layer_matches_position_major_path_bit_for_bit(
        (n, c, oc) in channels(),
        (k, s, p, extra_h, extra_w) in window(),
        seed in 0u64..1000,
        mask_every in 0usize..4,
    ) {
        let smallest = k.saturating_sub(2 * p).max(1);
        let (h, w) = (smallest + extra_h, smallest + extra_w);
        let geom = Conv2dGeometry::new(h, w, k, k, s, p).expect("valid geometry");
        let mut layer = Conv2d::new(c, oc, k, s, p, &mut SmallRng::seed_from_u64(seed));
        let patch = c * k * k;
        {
            let mut params = layer.params_mut();
            params[0].load_value(Tensor::rand_uniform([oc, patch], -1.0, 1.0, seed + 1))
                .expect("weight shape");
            params[1].load_value(Tensor::rand_uniform([oc], -0.5, 0.5, seed + 2))
                .expect("bias shape");
        }
        if mask_every > 0 {
            // FAP: weights on faulty PEs read as exact zeros.
            let mask = Tensor::from_fn([oc, patch], |i| {
                if (i * 7 + seed as usize) % (mask_every + 1) == 0 { 0.0 } else { 1.0 }
            });
            layer.weight_mut().set_mask(Some(mask)).expect("valid mask");
        }
        let weight = layer.weight().value().clone();
        let bias = layer.params()[1].value().clone();
        let x = Tensor::rand_uniform([n, c, h, w], -1.0, 1.0, seed + 3);
        let grad = Tensor::rand_uniform([n, oc, geom.out_h, geom.out_w], -1.0, 1.0, seed + 4);
        let (y_ref, dw_ref, db_ref, dx_ref) = position_major(&x, &weight, &bias, &grad, &geom);

        // Dirty, reused workspace buffers: every kernel must overwrite.
        let mut ws = Workspace::new();
        for dims in [[patch, n * geom.out_positions()], [oc, n * geom.out_positions()]] {
            ws.give(Tensor::full(dims.to_vec(), f32::NAN));
        }
        for p in layer.params_mut() {
            p.zero_grad();
        }
        let y = layer.forward_ws(&x, Mode::Train, &mut ws).expect("valid input");
        let dx = layer.backward_ws(&grad, &mut ws).expect("forward ran");
        let case = format!("n{n} c{c} oc{oc} {h}x{w} k{k} s{s} p{p} mask{mask_every}");
        prop_assert_eq!(bits(&y), bits(&y_ref), "y: {}", case);
        prop_assert_eq!(bits(layer.weight().grad()), bits(&dw_ref), "dW: {}", case);
        prop_assert_eq!(bits(layer.params()[1].grad()), bits(&db_ref), "db: {}", case);
        prop_assert_eq!(bits(&dx), bits(&dx_ref), "dX: {}", case);
    }
}
