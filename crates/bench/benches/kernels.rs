//! Microbenchmarks of the computational kernels underneath every
//! experiment: convolution forward/backward, bicubic resampling, one
//! solver pseudo-time step, and composite-mesh ghost exchange.

use adarnet_amr::{CompositeField, PatchLayout, RefinementMap, Side};
use adarnet_cfd::{CaseConfig, CaseMesh, RansSolver, SolverConfig};
use adarnet_nn::kernels::{conv2d_forward, conv2d_forward_gemm};
use adarnet_nn::{bicubic_resize3, he_normal};
use adarnet_tensor::{Shape, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_conv(c: &mut Criterion) {
    let x = Tensor::<f32>::full(Shape::d4(1, 8, 64, 64), 0.5);
    let w = he_normal(Shape::d4(16, 8, 3, 3), 72, 0);
    let b = Tensor::<f32>::zeros(Shape::d1(16));
    c.bench_function("conv2d_direct_8to16_64x64", |bench| {
        bench.iter(|| black_box(conv2d_forward(black_box(&x), &w, &b, 1)))
    });
    c.bench_function("conv2d_gemm_8to16_64x64", |bench| {
        bench.iter(|| black_box(conv2d_forward_gemm(black_box(&x), &w, &b, 1)))
    });
}

fn bench_bicubic(c: &mut Criterion) {
    let x = Tensor::<f32>::full(Shape::d3(5, 16, 16), 0.3);
    c.bench_function("bicubic_16to128_5ch", |bench| {
        bench.iter(|| black_box(bicubic_resize3(black_box(&x), 128, 128)))
    });
}

fn bench_solver_step(c: &mut Criterion) {
    let mut case = CaseConfig::channel(2.5e3);
    case.lx = 1.0;
    let layout = PatchLayout::new(2, 8, 8, 8);
    let mesh = CaseMesh::new(case, RefinementMap::uniform(layout, 0, 3));
    let mut solver = RansSolver::new(mesh, SolverConfig::default());
    c.bench_function("rans_step_16x64_uniform", |bench| {
        bench.iter(|| black_box(solver.step()))
    });

    // Mixed-refinement step (the composite-mesh overhead).
    let mut case = CaseConfig::channel(2.5e3);
    case.lx = 1.0;
    let mut levels = vec![0u8; 16];
    for l in levels.iter_mut().take(8) {
        *l = 1;
    }
    let map = RefinementMap::from_levels(layout, levels, 3);
    let mesh = CaseMesh::new(case, map);
    let mut solver = RansSolver::new(mesh, SolverConfig::default());
    c.bench_function("rans_step_16x64_mixed_levels", |bench| {
        bench.iter(|| black_box(solver.step()))
    });
}

fn bench_ghost_exchange(c: &mut Criterion) {
    let layout = PatchLayout::new(4, 4, 16, 16);
    let map = RefinementMap::from_levels(layout, (0..16).map(|i| (i % 4) as u8).collect(), 3);
    let field = CompositeField::constant(&map, 1.0);
    c.bench_function("ghost_lines_16_patches_mixed", |bench| {
        let mut g = Vec::new();
        bench.iter(|| {
            let mut acc = 0.0;
            for py in 0..4 {
                for px in 0..4 {
                    for side in Side::ALL {
                        if field.ghost_line_into(py, px, side, &mut g) {
                            acc += g[0];
                        }
                    }
                }
            }
            black_box(acc)
        })
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_conv, bench_bicubic, bench_solver_step, bench_ghost_exchange
);
criterion_main!(kernels);
