//! Bit-level numerics pin for the paper-scale training path.
//!
//! Pre-trains a reduced `Workbench::paper_scale` nano-VGG11 for one epoch,
//! masks it with a chip's FAP fault map and runs one fault-aware-retraining
//! epoch. The digest covers every bit of the pre-trained and retrained
//! weights and of every accuracy the run reports, so any change to the
//! arithmetic of a forward or backward kernel (conv lowering, GEMM family,
//! summation order, bias or gradient accumulation) fails it. Kernel
//! refactors must leave it unchanged; a deliberate numerics change updates
//! the pinned value and says so.

use reduce_repro::core::{FatRunner, Mitigation, StopRule, Workbench};
use reduce_repro::systolic::{FaultMap, FaultModel};
use reduce_repro::tensor::Tensor;

/// FNV-1a over a stream of 32-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f32(&mut self, v: f32) {
        self.word(v.to_bits());
    }

    fn state(&mut self, state: &[(String, Tensor)]) {
        for (name, t) in state {
            for b in name.bytes() {
                self.word(u32::from(b));
            }
            for &d in t.dims() {
                self.word(d as u32);
            }
            for &v in t.data() {
                self.f32(v);
            }
        }
    }
}

#[test]
fn paper_scale_fat_epoch_is_bit_identical_to_the_pinned_digest() {
    let wb = Workbench::paper_scale(64, 64, 3);
    let pre = wb.pretrain(1).expect("paper-scale workbench pre-trains");
    let runner = FatRunner::new(wb).expect("datasets materialise");
    let (rows, cols) = runner.workbench().array_dims();
    let map = FaultMap::generate(rows, cols, 0.15, FaultModel::Random, 11).expect("valid rate");
    let out = runner
        .run(&pre, &map, 1, StopRule::Exact, Mitigation::Fap, 5)
        .expect("one FAT epoch runs");
    assert_eq!(out.accuracy_after_epoch.len(), 1);
    assert!(
        out.pruned_fraction > 0.0,
        "the chip's map must prune weights"
    );

    let mut d = Digest::new();
    d.f32(pre.baseline_accuracy);
    d.state(&pre.state);
    d.f32(out.pre_retrain_accuracy);
    for &a in &out.accuracy_after_epoch {
        d.f32(a);
    }
    d.state(&out.final_state);
    assert_eq!(
        format!("{:016x}", d.0),
        "311835cf9c7813dd",
        "paper-scale numerics changed (pre-trained {:?}, FAP {:?}, after FAT {:?})",
        pre.baseline_accuracy,
        out.pre_retrain_accuracy,
        out.accuracy_after_epoch
    );
}
