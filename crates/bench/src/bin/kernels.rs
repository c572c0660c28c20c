//! Convolution kernel throughput sweep over the paper's shapes, per
//! compute backend, plus the RANS solver's pseudo-time step.
//!
//! Benchmarks the four forward paths — direct (`Device::conv2d_forward`),
//! im2col + row GEMM (`conv2d_forward_gemm`), the register-tiled,
//! cache-blocked micro-kernel (`conv2d_forward_blocked`), and the
//! pre-packed-weights variant as the layers actually dispatch it
//! (packed above `PACKED_MIN_OLEN`, blocked-unpacked in the
//! `[GEMM_THRESHOLD, PACKED_MIN_OLEN)` band, direct below; panels
//! packed once outside the timed region as a frozen model would) —
//! across the patch extents the decoder actually sees (16/32/64/128
//! per side: 16x16 patches refined to bins 0–3) and the decoder/scorer
//! channel widths (8/16/64), plus the scorer's full 64x256 LR field.
//! Every configuration runs on **both** backends: the scalar reference
//! plane and the AVX2+FMA vectorized plane.
//!
//! The sweep is what `GEMM_THRESHOLD` and `PACKED_MIN_OLEN` in
//! `adarnet_nn::kernels` are calibrated from: the `sub0_*` probe rows
//! bracket the direct/blocked crossover (between 4 and 16 output
//! pixels) and the packed path's break-even against blocked (packing
//! pays for itself from ~64 output pixels; below that the v1 baseline
//! showed packed 0.65–0.94x blocked, which is why the layers now route
//! that band to blocked-unpacked).
//!
//! The `cfd_step` rows time `RansSolver` steps of a warm solver on the
//! Table 1 LR layout (32x64 cells in 8x8 patches) refined uniformly to
//! level 0 and level 2, on the cylinder and the channel, with the sweep
//! on one thread and on every available core. Each row reports
//! nanoseconds per cell-iteration (one cell updated once).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p adarnet-bench --bin kernels                # full sweep -> BENCH_kernels.json
//! cargo run --release -p adarnet-bench --bin kernels -- --smoke     # CI budget, no file written
//! cargo run --release -p adarnet-bench --bin kernels -- --smoke \
//!     --check-against BENCH_kernels.json                            # regression gate (>1.5x fails)
//! cargo run --release -p adarnet-bench --bin kernels -- --gate-simd # SIMD >= 1.5x scalar at bin 3
//! cargo run --release -p adarnet-bench --bin kernels -- --gate-bf16 # bf16 >= 0.95x f32 dispatched
//! cargo run --release -p adarnet-bench --bin kernels -- --out path  # explicit output path
//! ```
//!
//! Four gates, all ratio-based so they hold on noisy shared machines:
//!
//! * **Packed floor** (always on): the *dispatched* packed path must
//!   reach at least 0.95x blocked throughput on every row in full
//!   mode (0.75x under `--smoke` budgets) — the regression the
//!   `PACKED_MIN_OLEN` routing exists to prevent.
//! * **`--check-against`**: per `(label, backend)` row, the blocked
//!   path must run within 1.5x of the committed baseline, and so must
//!   every single-thread `cfd_step` row's ns per cell-iteration.
//! * **`--gate-simd`**: same-run comparison — the SIMD backend's
//!   blocked GFLOP/s must be >= 1.5x scalar on the bin-3 rows (skipped
//!   with a note on hardware without AVX2/FMA, where both planes run
//!   the same scalar micro-kernels).
//! * **`--gate-bf16`**: same-run comparison — the bf16 packed path
//!   (half-size panels, widened once per forward call into pooled
//!   scratch ahead of the shared f32 FMA tiles) must reach at least
//!   0.95x the dispatched f32 path (0.75x under `--smoke`) on every
//!   packed-eligible row, on both backends. The reduced plane halves
//!   weight-panel bytes; this gate proves the widening work doesn't
//!   give the win back.

use std::hint::black_box;
use std::time::Instant;

use adarnet_amr::{PatchLayout, RefinementMap};
use adarnet_cfd::{CaseConfig, CaseMesh, RansSolver, SolverConfig};
use adarnet_nn::he_normal;
use adarnet_nn::kernels::{
    pack_weight_panels, packed_panels_len, PackedPanels, GEMM_THRESHOLD, PACKED_MIN_OLEN,
};
use adarnet_nn::quantize::{pack_weight_panels_bf16, PackedPanelsBf16};
use adarnet_nn::Device;
use adarnet_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// One benchmarked (extent, channels, backend) configuration.
#[derive(Debug, Serialize, Deserialize)]
struct ConfigResult {
    /// Square spatial extent per side (bin n of a 16x16 patch -> 16 << n),
    /// except the scorer row which is 64x256.
    label: String,
    /// Backend the row ran on (`cpu_scalar` / `cpu_simd`).
    backend: String,
    /// Input spatial extent.
    h: usize,
    w: usize,
    /// Channel width (input == output channels, 3x3 same-padded).
    channels: usize,
    /// Output pixels per image (`h * w` with same padding) — the quantity
    /// the layers dispatch on.
    o_len: usize,
    /// Seconds per iteration, per path.
    naive_secs: f64,
    gemm_secs: f64,
    blocked_secs: f64,
    /// The dispatched pre-packed path: what a frozen layer runs for
    /// this shape — packed panels above `PACKED_MIN_OLEN` (packed once
    /// outside the timed region), blocked-unpacked in the mid band,
    /// direct below `GEMM_THRESHOLD`.
    packed_secs: f64,
    /// The bf16 weight plane's packed path: panels narrowed to bf16
    /// once outside the timed region (what `freeze_as(Bf16)` does),
    /// then the widen-once-per-call packed driver timed alone. The
    /// bf16 plane dispatches every shape through this path.
    bf16_packed_secs: f64,
    /// Blocked-path throughput in GFLOP/s (2 * oc * k_len * o_len flops).
    blocked_gflops: f64,
    /// Speedup of the blocked path over the row-GEMM reference.
    blocked_vs_gemm: f64,
    /// Speedup of the dispatched packed path over per-call-packing
    /// blocked: best paired round (see the rotation comment in
    /// `bench_config`). The packed-floor gate holds this >= 0.95
    /// (full mode) on every row.
    packed_vs_blocked: f64,
    /// Speedup of the bf16 packed path over the dispatched f32 path
    /// for the same shape: best paired round. The `--gate-bf16` floor
    /// holds this >= 0.95 (full mode) on every packed-eligible row:
    /// halving panel bytes must not cost throughput to the per-call
    /// widening stage.
    bf16_vs_f32: f64,
}

/// One `cfd_step` row: a warm solver's pseudo-time step.
#[derive(Debug, Serialize, Deserialize)]
struct CfdStepResult {
    /// `{case}_l{level}_{1t|all}`.
    label: String,
    /// Uniform refinement level of the 32x64 LR layout.
    level: u8,
    /// Sweep threads: 1, or every available core.
    threads: usize,
    /// Active cells.
    cells: usize,
    /// Wall time per cell-iteration: best round's seconds per step over
    /// `cells`.
    ns_per_cell_iter: f64,
}

/// The committed benchmark artifact.
#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    schema: String,
    /// `full` or `smoke` — smoke numbers are for the regression gate
    /// only and are never written over a full baseline.
    mode: String,
    /// The thresholds compiled into `adarnet_nn::kernels` when this
    /// report was produced.
    gemm_threshold: usize,
    packed_min_olen: usize,
    /// Whether the `cpu_simd` rows actually ran the AVX2+FMA
    /// micro-kernels on the producing machine (false = they degraded
    /// to scalar, so the two backends' rows measure the same code).
    simd_active: bool,
    configs: Vec<ConfigResult>,
    cfd_step: Vec<CfdStepResult>,
}

/// Time `f` adaptively: one probe iteration sizes a batch that targets
/// `budget` seconds, then the batch is timed. Returns secs per iteration.
fn time_secs(budget: f64, mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64().max(1e-7);
    let reps = ((budget / once).ceil() as usize).clamp(1, 10_000);
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn bench_config(
    label: &str,
    dev: Device,
    h: usize,
    w: usize,
    ch: usize,
    budget: f64,
) -> ConfigResult {
    let x = Tensor::<f32>::from_vec(
        Shape::d4(1, ch, h, w),
        (0..ch * h * w)
            .map(|i| ((i as f32) * 0.013).sin())
            .collect(),
    );
    let wt = he_normal(Shape::d4(ch, ch, 3, 3), ch * 9, 7);
    let b = Tensor::<f32>::zeros(Shape::d1(ch));
    let o_len = h * w;
    let k_len = ch * 9;

    let naive_secs = time_secs(budget, || {
        black_box(dev.conv2d_forward(black_box(&x), &wt, &b, 1)).recycle();
    });
    let gemm_secs = time_secs(budget, || {
        black_box(dev.conv2d_forward_gemm(black_box(&x), &wt, &b, 1)).recycle();
    });

    // Panels for the two pre-packed paths, built outside the timed
    // region — exactly what a frozen model does at construction.
    let mut panels = vec![0.0f32; packed_panels_len(ch, k_len)];
    pack_weight_panels(wt.as_slice(), ch, k_len, &mut panels);
    let packed = PackedPanels {
        data: &panels,
        oc: ch,
        ic: ch,
        kh: 3,
        kw: 3,
    };
    let mut bf16_panels = vec![0u16; packed_panels_len(ch, k_len)];
    pack_weight_panels_bf16(wt.as_slice(), ch, k_len, &mut bf16_panels);
    let bf16_packed = PackedPanelsBf16 {
        data: &bf16_panels,
        oc: ch,
        ic: ch,
        kh: 3,
        kw: 3,
    };

    // The three ratio-gated paths (packed-floor, `--check-against`,
    // `--gate-simd`, `--gate-bf16` all divide pairs of these) are
    // timed in rotation — blocked, then the dispatched f32 path, then
    // the bf16 plane — for several rounds. Absolute columns take the
    // per-path minimum (the classical least-interference estimator);
    // the two floor-gated ratios are computed *per round* from the
    // adjacent measurements and the best round is kept. Pairing
    // matters on a steal-prone shared host: a hypervisor burst that
    // lands inside one path's batch skews an unpaired min-over-min
    // ratio by ±10% (the difference between a floor pass and a flaky
    // failure), while a paired ratio only needs one round where both
    // adjacent batches ran clean. A *systematic* kernel regression
    // slows its path in every round, so best-of-rounds still catches
    // everything the floors exist to catch. Full mode buys five
    // rounds; smoke stays at three to hold the CI budget. The
    // informational naive/row-GEMM columns keep one cheap batch.
    //
    // The dispatched f32 path is what a frozen layer runs for this
    // shape: packed panels above `PACKED_MIN_OLEN`, blocked-unpacked
    // in the mid band, direct loops below `GEMM_THRESHOLD`. The bf16
    // plane routes every shape through its packed panels (it keeps no
    // unpacked f32 copy to fall back to).
    let rounds = if budget > 0.1 { 5 } else { 3 };
    let mut blocked_secs = f64::INFINITY;
    let mut packed_secs = f64::INFINITY;
    let mut bf16_packed_secs = f64::INFINITY;
    let mut packed_vs_blocked = 0.0f64;
    let mut bf16_vs_f32 = 0.0f64;
    for _ in 0..rounds {
        let blocked_r = time_secs(budget, || {
            black_box(dev.conv2d_forward_blocked(black_box(&x), &wt, &b, 1)).recycle();
        });
        let packed_r = if o_len >= PACKED_MIN_OLEN {
            time_secs(budget, || {
                black_box(dev.conv2d_forward_packed(black_box(&x), packed, &b, 1)).recycle();
            })
        } else if o_len >= GEMM_THRESHOLD {
            time_secs(budget, || {
                black_box(dev.conv2d_forward_blocked(black_box(&x), &wt, &b, 1)).recycle();
            })
        } else {
            time_secs(budget, || {
                black_box(dev.conv2d_forward(black_box(&x), &wt, &b, 1)).recycle();
            })
        };
        let bf16_r = time_secs(budget, || {
            black_box(dev.conv2d_forward_packed_bf16(black_box(&x), bf16_packed, &b, 1)).recycle();
        });
        blocked_secs = blocked_secs.min(blocked_r);
        packed_secs = packed_secs.min(packed_r);
        bf16_packed_secs = bf16_packed_secs.min(bf16_r);
        packed_vs_blocked = packed_vs_blocked.max(blocked_r / packed_r);
        bf16_vs_f32 = bf16_vs_f32.max(packed_r / bf16_r);
    }

    let flops = 2.0 * ch as f64 * k_len as f64 * o_len as f64;
    ConfigResult {
        label: label.to_string(),
        backend: dev.name().to_string(),
        h,
        w,
        channels: ch,
        o_len,
        naive_secs,
        gemm_secs,
        blocked_secs,
        packed_secs,
        bf16_packed_secs,
        blocked_gflops: flops / blocked_secs / 1e9,
        blocked_vs_gemm: gemm_secs / blocked_secs,
        packed_vs_blocked,
        bf16_vs_f32,
    }
}

/// Time warm `RansSolver` steps, one thread and all threads per mesh.
fn bench_cfd_step(budget: f64, rounds: usize) -> Vec<CfdStepResult> {
    let all = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    for (name, case) in [
        ("cylinder", CaseConfig::cylinder(1e5)),
        ("channel", CaseConfig::channel(2.5e3)),
    ] {
        for level in [0u8, 2] {
            let map = RefinementMap::uniform(PatchLayout::for_field(32, 64, 8, 8), level, 3);
            let mut solver =
                RansSolver::new(CaseMesh::new(case.clone(), map), SolverConfig::default());
            let cells = solver.mesh.map.active_cells();
            for _ in 0..20 {
                solver.step();
            }
            for (threads, tag) in [(1, "1t"), (all, "all")] {
                let label = format!("{name}_l{level}_{tag}");
                eprintln!("  running cfd_step {label} ...");
                let secs = (0..rounds)
                    .map(|_| {
                        time_secs(budget, || {
                            black_box(solver.step_parts(threads));
                        })
                    })
                    .fold(f64::INFINITY, f64::min);
                rows.push(CfdStepResult {
                    label,
                    level,
                    threads,
                    cells,
                    ns_per_cell_iter: secs * 1e9 / cells as f64,
                });
            }
        }
    }
    rows
}

const BACKENDS: [Device; 2] = [Device::CpuScalar, Device::CpuSimd];

fn run_sweep(smoke: bool) -> BenchReport {
    // Per-path, per-config measurement budget. Smoke keeps the whole
    // sweep under a few seconds for CI; full targets stable numbers.
    let budget = if smoke { 0.02 } else { 0.25 };
    let mut shapes: Vec<(String, usize, usize, usize)> = Vec::new();
    // Crossover probes below the smallest paper shape: where the direct
    // path still beats blocked (`GEMM_THRESHOLD` is read off 2x2/4x4)
    // and where packing starts paying for itself (`PACKED_MIN_OLEN`,
    // read off 4x4 vs 8x8).
    for &e in &[2usize, 4, 8] {
        shapes.push((format!("sub0_{e}x{e}_8ch"), e, e, 8));
    }
    // 16x16 patches at bins 0..=3 -> 16/32/64/128 per side.
    for bin in 0..4usize {
        let e = 16 << bin;
        for &ch in &[8usize, 16, 64] {
            shapes.push((format!("bin{bin}_{e}x{e}_{ch}ch"), e, e, ch));
        }
    }
    // The scorer runs on the full LR field, not a patch.
    shapes.push(("scorer_64x256_16ch".to_string(), 64, 256, 16));

    // Interleave backends per shape (scalar then simd on the same
    // warmed caches) so cross-backend ratios cancel machine drift.
    let mut configs = Vec::new();
    for (label, h, w, ch) in &shapes {
        for dev in BACKENDS {
            eprintln!("  running {label} on {} ...", dev.name());
            configs.push(bench_config(label, dev, *h, *w, *ch, budget));
        }
    }

    let cfd_step = bench_cfd_step(budget, if smoke { 3 } else { 5 });

    BenchReport {
        schema: "adarnet-bench-kernels-v4".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        gemm_threshold: GEMM_THRESHOLD,
        packed_min_olen: PACKED_MIN_OLEN,
        simd_active: Device::CpuSimd.is_simd_active(),
        configs,
        cfd_step,
    }
}

/// Compare `current` against a committed baseline; returns the rows
/// whose blocked path or single-thread `cfd_step` time regressed by more
/// than `max_ratio`. Kernel rows are keyed `(label, backend)`, `cfd_step`
/// rows by label; baseline rows without a match (e.g. an older schema)
/// are skipped.
fn regressions(current: &BenchReport, baseline: &BenchReport, max_ratio: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for cur in &current.configs {
        if let Some(base) = baseline
            .configs
            .iter()
            .find(|c| c.label == cur.label && c.backend == cur.backend)
        {
            let ratio = cur.blocked_secs / base.blocked_secs;
            if ratio > max_ratio {
                bad.push(format!(
                    "{} [{}]: blocked path {:.2}x slower than baseline ({:.3e}s vs {:.3e}s)",
                    cur.label, cur.backend, ratio, cur.blocked_secs, base.blocked_secs
                ));
            }
        }
    }
    // Only single-thread `cfd_step` rows are gated. On a small shared
    // host the other cores' availability swings the all-threads rows by
    // up to 2x from one minute to the next, with no change in the code.
    for cur in current.cfd_step.iter().filter(|c| c.threads == 1) {
        if let Some(base) = baseline.cfd_step.iter().find(|c| c.label == cur.label) {
            let ratio = cur.ns_per_cell_iter / base.ns_per_cell_iter;
            if ratio > max_ratio {
                bad.push(format!(
                    "cfd_step {}: {:.2}x slower than baseline ({:.1} vs {:.1} ns/cell-iter)",
                    cur.label, ratio, cur.ns_per_cell_iter, base.ns_per_cell_iter
                ));
            }
        }
    }
    bad
}

/// The packed-floor gate: the dispatched packed path must not fall
/// below `floor` of blocked throughput on any row. This is the
/// regression `PACKED_MIN_OLEN` routing fixed — packing overhead
/// swamping small GEMMs — so it is asserted on every run.
fn packed_floor_violations(report: &BenchReport, floor: f64) -> Vec<String> {
    report
        .configs
        .iter()
        .filter(|c| c.packed_vs_blocked < floor)
        .map(|c| {
            format!(
                "{} [{}]: dispatched packed path at {:.3}x blocked (floor {floor})",
                c.label, c.backend, c.packed_vs_blocked
            )
        })
        .collect()
}

/// The bf16 gate: on every packed-eligible row (the shapes the f32
/// plane also dispatches through packed panels), the bf16 path's
/// per-call widening stage must not cost more than the floor relative
/// to the dispatched f32 path, on either backend. Same-run ratio, so machine
/// drift cancels. Sub-threshold rows are exempt: there f32 dispatches
/// direct/blocked while bf16 has only the packed plane, and that
/// mismatch is a routing question, not a micro-kernel regression.
fn bf16_gate_violations(report: &BenchReport, floor: f64) -> Vec<String> {
    report
        .configs
        .iter()
        .filter(|c| c.o_len >= PACKED_MIN_OLEN && c.bf16_vs_f32 < floor)
        .map(|c| {
            format!(
                "{} [{}]: bf16 packed path at {:.3}x dispatched f32 (floor {floor})",
                c.label, c.backend, c.bf16_vs_f32
            )
        })
        .collect()
}

/// The SIMD gate: same-run blocked GFLOP/s, SIMD vs scalar, on the
/// bin-3 (128x128) rows — the largest decode shapes, where the vector
/// plane's advantage must be unambiguous even on a noisy host.
fn simd_gate_violations(report: &BenchReport, min_speedup: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for cur in report
        .configs
        .iter()
        .filter(|c| c.label.starts_with("bin3_") && c.backend == Device::CpuSimd.name())
    {
        let Some(scalar) = report
            .configs
            .iter()
            .find(|c| c.label == cur.label && c.backend == Device::CpuScalar.name())
        else {
            continue;
        };
        let speedup = cur.blocked_gflops / scalar.blocked_gflops;
        if speedup < min_speedup {
            bad.push(format!(
                "{}: simd {:.2} GFLOP/s vs scalar {:.2} GFLOP/s = {:.2}x (need >= {min_speedup}x)",
                cur.label, cur.blocked_gflops, scalar.blocked_gflops, speedup
            ));
        }
    }
    bad
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate_simd = args.iter().any(|a| a == "--gate-simd");
    let gate_bf16 = args.iter().any(|a| a == "--gate-bf16");
    let check_against = args
        .iter()
        .position(|a| a == "--check-against")
        .map(|i| args[i + 1].clone());
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args[i + 1].clone());

    eprintln!(
        "kernel sweep ({}): naive vs gemm vs blocked vs dispatched-packed, \
         backends {:?}, GEMM_THRESHOLD={}, PACKED_MIN_OLEN={}, simd_active={}",
        if smoke { "smoke" } else { "full" },
        BACKENDS.map(Device::name),
        GEMM_THRESHOLD,
        PACKED_MIN_OLEN,
        Device::CpuSimd.is_simd_active(),
    );
    let report = run_sweep(smoke);

    println!(
        "{:<22} {:<11} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10} {:>9} {:>10} {:>9}",
        "config",
        "backend",
        "o_len",
        "naive s",
        "gemm s",
        "blocked s",
        "packed s",
        "bf16 s",
        "GFLOP/s",
        "vs gemm",
        "vs packed",
        "bf16/f32"
    );
    for c in &report.configs {
        println!(
            "{:<22} {:<11} {:>8} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>10.2} {:>8.2}x {:>9.2}x {:>8.2}x",
            c.label,
            c.backend,
            c.o_len,
            c.naive_secs,
            c.gemm_secs,
            c.blocked_secs,
            c.packed_secs,
            c.bf16_packed_secs,
            c.blocked_gflops,
            c.blocked_vs_gemm,
            c.packed_vs_blocked,
            c.bf16_vs_f32
        );
    }

    println!(
        "{:<22} {:>7} {:>8} {:>14}",
        "cfd_step", "threads", "cells", "ns/cell-iter"
    );
    for c in &report.cfd_step {
        println!(
            "{:<22} {:>7} {:>8} {:>14.1}",
            c.label, c.threads, c.cells, c.ns_per_cell_iter
        );
    }

    let mut failed = false;

    // Packed floor: always on. Smoke budgets are noisy on shared
    // 1-core hosts, so the floor loosens there; a full run must show
    // the dispatched packed path essentially never losing to blocked.
    let floor = if smoke { 0.75 } else { 0.95 };
    let bad = packed_floor_violations(&report, floor);
    if bad.is_empty() {
        println!(
            "packed-floor gate: OK (all {} rows >= {floor}x blocked)",
            report.configs.len()
        );
    } else {
        eprintln!("packed-floor gate FAILED:");
        for b in &bad {
            eprintln!("  {b}");
        }
        failed = true;
    }

    if gate_bf16 {
        // Same floor schedule as the packed gate: the bf16 plane uses
        // the identical blocked tiling, so its noise envelope matches.
        let bad = bf16_gate_violations(&report, floor);
        let eligible = report
            .configs
            .iter()
            .filter(|c| c.o_len >= PACKED_MIN_OLEN)
            .count();
        if bad.is_empty() {
            println!(
                "bf16 gate: OK (all {eligible} packed-eligible rows >= {floor}x dispatched f32)"
            );
        } else {
            eprintln!("bf16 gate FAILED:");
            for b in &bad {
                eprintln!("  {b}");
            }
            failed = true;
        }
    }

    if gate_simd {
        if Device::CpuSimd.is_simd_active() {
            let bad = simd_gate_violations(&report, 1.5);
            if bad.is_empty() {
                println!("simd gate: OK (bin-3 blocked GEMM >= 1.5x scalar)");
            } else {
                eprintln!("simd gate FAILED:");
                for b in &bad {
                    eprintln!("  {b}");
                }
                failed = true;
            }
        } else {
            println!("simd gate: skipped (no AVX2/FMA; cpu_simd degrades to scalar here)");
        }
    }

    if let Some(path) = &check_against {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline: BenchReport = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
        let bad = regressions(&report, &baseline, 1.5);
        if bad.is_empty() {
            let gated = report.cfd_step.iter().filter(|c| c.threads == 1).count();
            println!(
                "regression gate: OK ({} rows within 1.5x of baseline)",
                report.configs.len() + gated
            );
        } else {
            eprintln!("regression gate FAILED:");
            for b in &bad {
                eprintln!("  {b}");
            }
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return; // gate runs never overwrite the committed baseline
    }

    if failed {
        std::process::exit(1);
    }
    if smoke && out.is_none() {
        return; // smoke numbers never replace the committed full baseline
    }

    let path = out.unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json + "\n").unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}
