//! Golden equivalence for the RANS pseudo-time sweep.
//!
//! The first four digests below were recorded from the sequential
//! collect-and-copy sweep that the partitioned sweep replaced; the
//! level-3 and recirculating ones from the partitioned per-cell sweep
//! that the row-wise flux and SA passes replaced. Every input must
//! reproduce them bit for bit, through `step()` and through every
//! partition of the patches into contiguous ranges: the update is Jacobi
//! in space and the residual is reduced per patch in patch-index order,
//! so the thread count cannot change a single bit.
//!
//! Digests are FNV-1a over the `f64` bit patterns of the final state
//! (fields u, v, p, nu_tilde; patches in index order; cells row-major) and
//! of the residual returned by every step. NaN is hashed as one canonical
//! pattern: the compiler does not preserve NaN payloads, only NaN-ness.

use adarnet_amr::{PatchLayout, RefinementMap};
use adarnet_cfd::{CaseConfig, CaseMesh, FlowState, RansSolver, SolverConfig};

/// The Table 1 quick-scale LR layout: 32x64 cells in 8x8 patches.
fn lr_layout() -> PatchLayout {
    PatchLayout::for_field(32, 64, 8, 8)
}

/// Levels around the cylinder (center (2, 1), radius 0.5; patches are
/// 1 m x 0.5 m): the level jumps between patches (1, 1), (1, 2) and
/// (2, 1) cut through solid cells, one of them by two levels.
fn mixed_cylinder_map() -> RefinementMap {
    let layout = lr_layout();
    let mut levels = vec![0u8; layout.num_patches()];
    levels[layout.idx(1, 1)] = 2;
    levels[layout.idx(1, 2)] = 1;
    levels[layout.idx(2, 2)] = 1;
    levels[layout.idx(0, 1)] = 1;
    RefinementMap::from_levels(layout, levels, 3)
}

/// A level-3 patch (row length 64) over part of the body, with a level-2
/// patch below it, level-0 patches left and right of it (the one to the
/// right cutting the body too) and a level-1 patch above.
fn level3_cylinder_map() -> RefinementMap {
    let layout = lr_layout();
    let mut levels = vec![0u8; layout.num_patches()];
    levels[layout.idx(2, 1)] = 3;
    levels[layout.idx(1, 1)] = 2;
    levels[layout.idx(3, 1)] = 1;
    RefinementMap::from_levels(layout, levels, 3)
}

fn cylinder_l0() -> RansSolver {
    let mesh = CaseMesh::new(
        CaseConfig::cylinder(1e5),
        RefinementMap::uniform(lr_layout(), 0, 3),
    );
    RansSolver::new(mesh, SolverConfig::default())
}

fn cylinder_mixed() -> RansSolver {
    let mesh = CaseMesh::new(CaseConfig::cylinder(1e5), mixed_cylinder_map());
    RansSolver::new(mesh, SolverConfig::default())
}

fn cylinder_level3() -> RansSolver {
    let mesh = CaseMesh::new(CaseConfig::cylinder(1e5), level3_cylinder_map());
    RansSolver::new(mesh, SolverConfig::default())
}

fn channel() -> RansSolver {
    let mut case = CaseConfig::channel(2.5e3);
    case.lx = 1.0;
    let mesh = CaseMesh::new(case, RefinementMap::uniform(lr_layout(), 0, 3));
    RansSolver::new(mesh, SolverConfig::default())
}

/// A prediction-like start on the mixed mesh: smooth but wrong fields,
/// nonzero values inside the body, negative nu_tilde over a band of
/// cells, one NaN nu_tilde in the first fluid cell that touches the body,
/// and a blended convection scheme.
fn dnn_like() -> RansSolver {
    let mesh = CaseMesh::new(CaseConfig::cylinder(1e5), mixed_cylinder_map());
    let layout = *mesh.layout();
    let u_in = mesh.case.u_in;
    let nt_in = mesh.case.nu_tilde_inflow();
    let mut state = FlowState::zeros(&mesh.map);
    for idx in 0..layout.num_patches() {
        let (py, px) = layout.coords(idx);
        let (ny, nx) = (state.u.patch_at(idx).ny(), state.u.patch_at(idx).nx());
        for i in 0..ny {
            for j in 0..nx {
                let (x, y) = mesh.cell_center(py, px, i, j);
                let k = i * nx + j;
                let wave = (1.7 * x).sin() * (3.1 * y).cos();
                state.u.patch_at_mut(idx).as_mut_slice()[k] = u_in * (0.9 + 0.2 * wave);
                state.v.patch_at_mut(idx).as_mut_slice()[k] = 0.05 * u_in * wave;
                state.p.patch_at_mut(idx).as_mut_slice()[k] = 0.1 * u_in * u_in * (0.7 * x).cos();
                state.nt.patch_at_mut(idx).as_mut_slice()[k] = nt_in * (3.0 * wave + 0.5);
            }
        }
    }
    let (idx, k) = first_fluid_cell_touching_solid(&mesh);
    state.nt.patch_at_mut(idx).as_mut_slice()[k] = f64::NAN;
    let cfg = SolverConfig {
        conv_blend: 0.3,
        ..SolverConfig::default()
    };
    RansSolver::with_state(mesh, state, cfg)
}

/// A recirculating start on the uniform cylinder mesh: a reversed-flow
/// band (`u < 0`) in the wake, `v < 0` over half the domain, and a
/// blended convection scheme, so both upwind directions and both signs of
/// the central term run on every field.
fn recirculating() -> RansSolver {
    let mesh = CaseMesh::new(
        CaseConfig::cylinder(1e5),
        RefinementMap::uniform(lr_layout(), 0, 3),
    );
    let layout = *mesh.layout();
    let u_in = mesh.case.u_in;
    let nt_in = mesh.case.nu_tilde_inflow();
    let mut state = FlowState::zeros(&mesh.map);
    for idx in 0..layout.num_patches() {
        let (py, px) = layout.coords(idx);
        let (ny, nx) = (state.u.patch_at(idx).ny(), state.u.patch_at(idx).nx());
        for i in 0..ny {
            for j in 0..nx {
                let (x, y) = mesh.cell_center(py, px, i, j);
                let k = i * nx + j;
                let band = (-(y - 1.0) * (y - 1.0) / 0.1).exp();
                let wake = if x > 2.0 { 1.6 * band } else { 0.0 };
                state.u.patch_at_mut(idx).as_mut_slice()[k] = u_in * (1.0 - wake);
                state.v.patch_at_mut(idx).as_mut_slice()[k] =
                    0.4 * u_in * (1.3 * x).sin() * (2.2 * y).cos();
                state.p.patch_at_mut(idx).as_mut_slice()[k] =
                    0.2 * u_in * u_in * (0.9 * x).sin() * (1.7 * y).sin();
                state.nt.patch_at_mut(idx).as_mut_slice()[k] =
                    nt_in * (2.0 + 1.5 * (2.3 * x).cos() * (3.7 * y).sin());
            }
        }
    }
    state.enforce_solid(&mesh);
    let cfg = SolverConfig {
        conv_blend: 0.5,
        ..SolverConfig::default()
    };
    RansSolver::with_state(mesh, state, cfg)
}

/// `(patch, cell)` of the first fluid cell with a solid 4-neighbour in its
/// own patch.
fn first_fluid_cell_touching_solid(mesh: &CaseMesh) -> (usize, usize) {
    for (idx, solid) in mesh.solid.iter().enumerate() {
        let (ny, nx) = mesh.layout().patch_extent(mesh.map.level_at(idx));
        for i in 1..ny - 1 {
            for j in 1..nx - 1 {
                let k = i * nx + j;
                if !solid[k] && (solid[k - 1] || solid[k + 1] || solid[k - nx] || solid[k + nx]) {
                    return (idx, k);
                }
            }
        }
    }
    unreachable!("the cylinder mesh has a body")
}

struct Golden {
    name: &'static str,
    build: fn() -> RansSolver,
    steps: usize,
    state: u64,
    residuals: u64,
}

const GOLDEN: [Golden; 6] = [
    Golden {
        name: "cylinder L0",
        build: cylinder_l0,
        steps: 300,
        state: 0xb12e_aedd_3fc8_761c,
        residuals: 0xfa8f_43d5_a17a_b9e1,
    },
    Golden {
        name: "cylinder mixed-level",
        build: cylinder_mixed,
        steps: 120,
        state: 0x7e35_69f2_e075_242f,
        residuals: 0x905f_28a5_7118_10d9,
    },
    Golden {
        name: "channel",
        build: channel,
        steps: 300,
        state: 0x6814_0dc9_c98a_ff39,
        residuals: 0xb27b_2923_5f88_9084,
    },
    Golden {
        name: "prediction-like state",
        build: dnn_like,
        steps: 25,
        state: 0x0d7b_7340_bc5b_fbbe,
        residuals: 0xd058_35e5_c989_2580,
    },
    Golden {
        name: "cylinder level-3 patch",
        build: cylinder_level3,
        steps: 30,
        state: 0x0793_dc99_c8ee_e0a3,
        residuals: 0x71fc_6820_19c5_cee1,
    },
    Golden {
        name: "recirculating start",
        build: recirculating,
        steps: 40,
        state: 0x0a3d_4fa8_b1eb_422e,
        residuals: 0xc9bd_7342_0cd9_06e3,
    },
];

fn fnv(h: &mut u64, x: f64) {
    let bits = if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    };
    for b in bits.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn state_digest(s: &FlowState) -> u64 {
    let mut h = FNV_OFFSET;
    for f in [&s.u, &s.v, &s.p, &s.nt] {
        for idx in 0..f.map().layout().num_patches() {
            for &x in f.patch_at(idx).as_slice() {
                fnv(&mut h, x);
            }
        }
    }
    h
}

/// `(state digest, residual-sequence digest)` after `g.steps` steps,
/// through `step()` or through `step_parts(parts)`.
fn run(g: &Golden, parts: Option<usize>) -> (u64, u64) {
    let mut s = (g.build)();
    let mut h = FNV_OFFSET;
    for _ in 0..g.steps {
        let r = match parts {
            None => s.step(),
            Some(k) => s.step_parts(k),
        };
        fnv(&mut h, r);
    }
    (state_digest(&s.state), h)
}

#[test]
fn step_reproduces_golden_digests() {
    for g in &GOLDEN {
        assert_eq!(
            run(g, None),
            (g.state, g.residuals),
            "{}: step() drifted from the recorded sweep",
            g.name
        );
    }
}

#[test]
fn every_partition_reproduces_golden_digests() {
    for g in &GOLDEN {
        let num_patches = (g.build)().mesh.layout().num_patches();
        for parts in [1, 2, 3, num_patches] {
            assert_eq!(
                run(g, Some(parts)),
                (g.state, g.residuals),
                "{}: {parts} ranges drifted from the recorded sweep",
                g.name
            );
        }
    }
}

#[test]
fn recirculating_start_runs_both_upwind_branches() {
    let mut s = recirculating();
    let reversed = |s: &RansSolver| {
        let n = s.mesh.layout().num_patches();
        let count = |f: &adarnet_amr::CompositeField| {
            (0..n)
                .flat_map(|idx| f.patch_at(idx).as_slice().iter().zip(&s.mesh.solid[idx]))
                .filter(|&(&x, &solid)| !solid && x < 0.0)
                .count()
        };
        (count(&s.state.u), count(&s.state.v))
    };
    let (u0, v0) = reversed(&s);
    assert!(
        u0 > 50 && v0 > 500,
        "start not recirculating: {u0} u<0, {v0} v<0"
    );
    for _ in 0..40 {
        assert!(s.step().is_finite());
    }
    let (u1, v1) = reversed(&s);
    assert!(u1 > 0 && v1 > 0, "reversed flow gone: {u1} u<0, {v1} v<0");
}
