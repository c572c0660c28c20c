//! Solver outcomes on the metrics registry: every `solve_to_convergence`
//! bumps exactly one of the converged / capped / non-finite counters and
//! adds its steps to the iteration counter.
//!
//! This is the only test in its binary, so no other solve runs in the
//! process and the counter deltas are exact.

use adarnet_amr::{PatchLayout, RefinementMap};
use adarnet_cfd::{CaseConfig, CaseMesh, RansSolver, SolverConfig};

const COUNTERS: [&str; 4] = [
    "solver_converged_total",
    "solver_capped_total",
    "solver_nonfinite_total",
    "solver_iterations_total",
];

fn counters() -> [u64; 4] {
    let snap = adarnet_obs::registry().snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

fn channel(cfg: SolverConfig) -> RansSolver {
    let mut case = CaseConfig::channel(2.5e3);
    case.lx = 0.5;
    let map = RefinementMap::uniform(PatchLayout::new(2, 4, 4, 4), 0, 3);
    RansSolver::new(CaseMesh::new(case, map), cfg)
}

#[test]
fn every_solve_outcome_is_counted() {
    let cases = [
        // Converged: any residual is under this tolerance.
        (
            SolverConfig {
                tol: 1e9,
                ..SolverConfig::default()
            },
            [1, 0, 0],
        ),
        // Capped: stops at the iteration cap, residual finite.
        (
            SolverConfig {
                tol: 1e-12,
                max_iters: 7,
                ..SolverConfig::default()
            },
            [0, 1, 0],
        ),
        // A zero cap takes no step and is capped, not diverged.
        (
            SolverConfig {
                max_iters: 0,
                ..SolverConfig::default()
            },
            [0, 1, 0],
        ),
        // Non-finite: an absurd CFL blows the explicit march up.
        (
            SolverConfig {
                cfl: 50.0,
                tol: 1e-12,
                max_iters: 5000,
                ..SolverConfig::default()
            },
            [0, 0, 1],
        ),
    ];
    for (cfg, outcome) in cases {
        let before = counters();
        let stats = channel(cfg).solve_to_convergence();
        let after = counters();
        let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(
            delta,
            [outcome[0], outcome[1], outcome[2], stats.iterations],
            "counter deltas {COUNTERS:?} for {stats:?}"
        );
    }
}
