//! Inference composed from the public `core` entry points, with a span
//! around each: `FrozenAdarNet::try_plan` (scorer, ranker, latent
//! augmentation), then per bin the decoder-input assembly and one
//! `FrozenDecoder::forward`. The composition mirrors
//! `FrozenAdarNet::try_predict` and must reproduce it bitwise; the traced
//! runs check that on every input.

use adarnet_cfd::FlowState;
use adarnet_core::checkpoint::ModelCheckpoint;
use adarnet_core::network::{ForwardPlan, FrozenAdarNet, Prediction};
use adarnet_core::ranker::RankerError;
use adarnet_tensor::Tensor;

use crate::inputs::Digest;
use crate::report::Metrics;
use crate::trace::Tracer;

/// Decoder floating-point operations per output pixel: every decoder
/// layer is a stride-1 3x3 (de)convolution that keeps the patch extent,
/// so each output pixel costs two operations per weight.
pub fn decoder_flops_per_pixel(ckpt: &ModelCheckpoint) -> f64 {
    2.0 * ckpt
        .decoder
        .iter()
        .filter(|t| t.shape().rank() == 4)
        .map(|t| t.len() as f64)
        .sum::<f64>()
}

/// Infer one normalized `(C, H, W)` field through the public stage entry
/// points, recording `core.plan` and one `core.decode` span per non-empty
/// bin under `parent`.
pub fn composed_predict(
    frozen: &FrozenAdarNet,
    x: &Tensor<f32>,
    tr: &Tracer,
    parent: u64,
) -> Result<Prediction, RankerError> {
    let plan = {
        let _s = tr.span("core.plan", parent);
        frozen.try_plan(x)?
    };
    let layout = plan.layout;
    let mut patches: Vec<Option<Tensor<f32>>> = (0..layout.num_patches()).map(|_| None).collect();
    for bin in 0..frozen.cfg().bins {
        let group = &plan.binning.groups[bin as usize];
        if group.is_empty() {
            continue;
        }
        let mut s = tr.span("core.decode", parent);
        let (th, tw) = layout.patch_extent(bin);
        s.attr("bin", f64::from(bin));
        s.attr("patches", group.len() as f64);
        s.attr("pixels", (group.len() * th * tw) as f64);
        let inputs: Vec<Tensor<f32>> = group.iter().map(|&i| plan.decoder_input(i)).collect();
        let batch = Tensor::pooled_stack(&inputs);
        for t in inputs {
            t.recycle();
        }
        let out = frozen.decoder().forward(&batch);
        batch.recycle();
        for (k, &i) in group.iter().enumerate() {
            patches[i] = Some(out.pooled_image(k));
        }
        out.recycle();
    }
    let ForwardPlan {
        layout,
        scores,
        aug,
        binning,
    } = plan;
    aug.recycle();
    Ok(Prediction {
        layout,
        binning,
        patches: patches
            .into_iter()
            .map(|p| p.expect("every patch sits in exactly one bin"))
            .collect(),
        scores,
    })
}

/// Digest of a prediction: bins, scores and every patch value, bitwise.
pub fn prediction_digest(p: &Prediction) -> u64 {
    let mut d = Digest::default();
    d.bytes(&p.binning.bin_of_patch);
    d.tensor(&p.scores);
    for t in &p.patches {
        d.tensor(t);
    }
    d.finish()
}

/// Digest of a flow state, bitwise over every patch of every variable.
pub fn state_digest(s: &FlowState) -> u64 {
    let mut d = Digest::default();
    for f in [&s.u, &s.v, &s.p, &s.nt] {
        for idx in 0..f.map().layout().num_patches() {
            for v in f.patch_at(idx).as_slice() {
                d.bytes(&v.to_bits().to_le_bytes());
            }
        }
    }
    d.finish()
}

/// Fill the `core.*` and `nn.*` metrics from the spans of `inferences`
/// composed inferences (`core.plan` / `core.decode`).
pub fn core_metrics(m: &mut Metrics, tr: &Tracer, inferences: usize, flops_per_pixel: f64) {
    let n = inferences.max(1) as f64;
    let plans = tr.named("core.plan");
    m.set(
        "core.plan_ms",
        tr.total_s("core.plan") * 1e3 / n,
        plans.len(),
    );
    let decodes = tr.named("core.decode");
    let names = [
        ("core.decode_ms.bin0", "core.patches.bin0"),
        ("core.decode_ms.bin1", "core.patches.bin1"),
        ("core.decode_ms.bin2", "core.patches.bin2"),
        ("core.decode_ms.bin3", "core.patches.bin3"),
    ];
    for (bin, (time, count)) in names.into_iter().enumerate() {
        let of_bin: Vec<_> = decodes
            .iter()
            .filter(|s| s.attr("bin") as usize == bin)
            .collect();
        let seconds: f64 = of_bin.iter().map(|s| s.seconds()).sum();
        let patches: f64 = of_bin.iter().map(|s| s.attr("patches")).sum();
        m.set(time, seconds * 1e3 / n, of_bin.len());
        m.set(count, patches, of_bin.len());
    }
    let pixels: f64 = decodes.iter().map(|s| s.attr("pixels")).sum();
    let decode_s: f64 = decodes.iter().map(|s| s.seconds()).sum();
    let gflop = pixels * flops_per_pixel * 1e-9;
    m.set("core.active_cells", pixels, decodes.len());
    m.set("nn.decoder_gflop", gflop, decodes.len());
    m.set(
        "nn.decoder_gflop_per_s",
        if decode_s > 0.0 {
            gflop / decode_s
        } else {
            0.0
        },
        decodes.len(),
    );
}
