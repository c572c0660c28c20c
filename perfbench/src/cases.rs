//! The case workloads: `adarnet_ttc` (LR solve, then `run_adarnet_case`)
//! and `amr_ttc` (`run_amr_baseline`), both on Table 1's quick
//! configuration.
//!
//! A job is one case, timed by wall clock from its configuration to its
//! final state. After each case, convergence is verified from outside: a
//! fresh `RansSolver::with_state` on the returned state takes one step,
//! whose return value is the residual of that state. A case counts as
//! converged only if that residual is finite and below the tolerance, so a
//! solve stopped by the iteration cap is a failure, not a fast TTC.
//!
//! The untraced pass calls the public entry points and yields the
//! end-to-end metrics. The traced pass composes the same pipelines from
//! their public parts, with a span around each, and must reproduce the
//! untraced pass exactly: predictions bitwise, iteration counts and final
//! states.

use std::time::Instant;

use adarnet_amr::{AmrSim, RefinementMap, SolveStats};
use adarnet_cfd::{CaseConfig, CaseMesh, FlowState, RansSolver, SolverConfig};
use adarnet_core::checkpoint::{self, ModelCheckpoint};
use adarnet_core::framework::{prediction_to_state, LrInput};
use adarnet_core::{run_adarnet_case, run_amr_baseline, AdarNet, NormStats};

use crate::infer::{
    composed_predict, core_metrics, decoder_flops_per_pixel, prediction_digest, state_digest,
};
use crate::inputs::{self, CaseSet};
use crate::report::{self, Metrics, Outcome};
use crate::stats::{mean, median, nearest_rank};
use crate::trace::Tracer;
use crate::SETUPS;

/// Which case workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// ADARNet one-shot: LR solve, inference, physics solve.
    Adarnet,
    /// Iterative AMR baseline.
    Amr,
}

/// What one case run produced, for checks and metrics.
#[derive(Debug, Clone, PartialEq)]
struct CaseRun {
    /// Wall clock from configuration to final state.
    wall_s: f64,
    /// The program's own TTC report.
    self_report_s: f64,
    /// Iterations of every solve, in order.
    iterations: Vec<u64>,
    /// Residual of the final state, recomputed from outside.
    residual: f64,
    /// Bitwise digest of the prediction (0 for AMR).
    prediction: u64,
    /// Bitwise digest of the final state.
    state: u64,
    /// Refinement levels of the final mesh.
    levels: Vec<u8>,
}

impl CaseRun {
    fn same_work(&self, other: &CaseRun) -> bool {
        (&self.iterations, self.prediction, self.state, &self.levels)
            == (
                &other.iterations,
                other.prediction,
                other.state,
                &other.levels,
            )
    }
}

/// The model and the case set, ready to run.
struct Ready {
    ckpt: ModelCheckpoint,
    model: AdarNet,
    norm: NormStats,
    set: CaseSet,
}

fn setup(pipeline: Pipeline) -> Result<Ready, String> {
    let ckpt = inputs::load_checkpoint()?;
    let (model, norm) = checkpoint::restore(&ckpt)?;
    let set = match pipeline {
        Pipeline::Adarnet => CaseSet::adarnet(),
        Pipeline::Amr => CaseSet::amr(),
    };
    Ok(Ready {
        ckpt,
        model,
        norm,
        set,
    })
}

/// Residual of `state` on `map`: one step of a fresh solver started from
/// it returns the residual of the state it started from.
fn verified_residual(
    case: &CaseConfig,
    map: &RefinementMap,
    state: &FlowState,
    cfg: SolverConfig,
) -> f64 {
    let mesh = CaseMesh::new(case.clone(), map.clone());
    RansSolver::with_state(mesh, state.clone(), cfg).step()
}

fn lr_mesh(case: &CaseConfig, set: &CaseSet) -> CaseMesh {
    CaseMesh::new(
        case.clone(),
        RefinementMap::uniform(set.layout, 0, set.driver.max_level),
    )
}

fn adarnet_untraced(r: &Ready, case: &CaseConfig) -> CaseRun {
    let cfg = r.set.solver;
    let t0 = Instant::now();
    let mut lr = RansSolver::new(lr_mesh(case, &r.set), cfg);
    let lr_stats = lr.solve_to_convergence();
    let lr_field = lr.state.to_tensor(0);
    let report = run_adarnet_case(
        &r.model,
        &r.norm,
        case,
        &lr_field,
        LrInput {
            seconds: lr_stats.seconds,
            iterations: lr_stats.iterations,
        },
        cfg,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    CaseRun {
        wall_s,
        self_report_s: report.ttc_seconds(),
        iterations: vec![lr_stats.iterations, report.physics.iterations],
        residual: verified_residual(case, &report.map, &report.final_state, cfg),
        prediction: prediction_digest(&report.prediction),
        state: state_digest(&report.final_state),
        levels: report.map.levels().to_vec(),
    }
}

fn solve_span(tr: &Tracer, name: &'static str, parent: u64, solver: &mut RansSolver) -> SolveStats {
    let mut s = tr.span(name, parent);
    let stats = solver.solve_to_convergence();
    s.attr("iterations", stats.iterations as f64);
    s.attr("cells", solver.mesh.active_cells() as f64);
    stats
}

fn adarnet_traced(r: &Ready, case: &CaseConfig, tr: &Tracer) -> Result<CaseRun, String> {
    let cfg = r.set.solver;
    let root = tr.span("case", 0);
    let id = root.id();
    let t0 = Instant::now();
    let mesh = {
        let _s = tr.span("cfd.mesh_build", id);
        lr_mesh(case, &r.set)
    };
    let mut lr = RansSolver::new(mesh, cfg);
    let lr_stats = solve_span(tr, "cfd.lr_solve", id, &mut lr);
    let lr_field = {
        let _s = tr.span("cfd.lr_field", id);
        lr.state.to_tensor(0)
    };
    let frozen = {
        let _s = tr.span("core.prepack", id);
        r.model.freeze()
    };
    let prediction = {
        let mut s = tr.span("core.infer", id);
        let allocs = adarnet_tensor::workspace::data_allocs();
        let normalized = r.norm.normalize(&lr_field);
        let p = composed_predict(&frozen, &normalized, tr, s.id()).map_err(|e| e.to_string())?;
        normalized.recycle();
        s.attr(
            "allocs",
            (adarnet_tensor::workspace::data_allocs() - allocs) as f64,
        );
        p
    };
    let max_level = r.model.cfg.bins - 1;
    let (map, mut state) = {
        let _s = tr.span("core.state_assembly", id);
        (
            prediction.refinement_map(max_level),
            prediction_to_state(&prediction, &r.norm, max_level),
        )
    };
    let mesh = {
        let _s = tr.span("cfd.mesh_build", id);
        CaseMesh::new(case.clone(), map.clone())
    };
    {
        let _s = tr.span("cfd.enforce_solid", id);
        state.enforce_solid(&mesh);
    }
    let mut solver = RansSolver::with_state(mesh, state, cfg);
    let physics = solve_span(tr, "cfd.physics_solve", id, &mut solver);
    let wall_s = t0.elapsed().as_secs_f64();
    drop(root);
    Ok(CaseRun {
        wall_s,
        self_report_s: 0.0,
        iterations: vec![lr_stats.iterations, physics.iterations],
        residual: verified_residual(case, &map, &solver.state, cfg),
        prediction: prediction_digest(&prediction),
        state: state_digest(&solver.state),
        levels: map.levels().to_vec(),
    })
}

fn amr_untraced(r: &Ready, case: &CaseConfig) -> CaseRun {
    let cfg = r.set.solver;
    let t0 = Instant::now();
    let report = run_amr_baseline(case, r.set.layout, cfg, r.set.driver);
    let wall_s = t0.elapsed().as_secs_f64();
    CaseRun {
        wall_s,
        self_report_s: report.outcome.total_seconds(),
        iterations: report
            .outcome
            .rounds
            .iter()
            .map(|x| x.solve.iterations)
            .collect(),
        residual: verified_residual(case, &report.outcome.final_map, &report.final_state, cfg),
        prediction: 0,
        state: state_digest(&report.final_state),
        levels: report.outcome.final_map.levels().to_vec(),
    }
}

/// `AmrSim` around `RansSolver` that times each call the driver makes.
/// It does what `RansSolver`'s own `AmrSim` impl does, with the mesh
/// rebuild inside a projection timed on its own.
struct TimedSim<'a> {
    inner: RansSolver,
    tr: &'a Tracer,
    parent: u64,
}

impl AmrSim for TimedSim<'_> {
    fn solve(&mut self, map: &RefinementMap) -> SolveStats {
        if map != &self.inner.mesh.map {
            self.project_to(map);
        }
        solve_span(self.tr, "cfd.solve", self.parent, &mut self.inner)
    }

    fn indicator(&self) -> Vec<f64> {
        let _s = self.tr.span("amr.indicator", self.parent);
        self.inner.indicator()
    }

    fn project_to(&mut self, new_map: &RefinementMap) {
        let s = self.tr.span("amr.project", self.parent);
        self.inner.mesh = {
            let _m = self.tr.span("cfd.mesh_build", s.id());
            self.inner.mesh.with_map(new_map.clone())
        };
        self.inner.state = self.inner.state.project_to(new_map);
        self.inner.state.enforce_solid(&self.inner.mesh);
    }
}

fn amr_traced(r: &Ready, case: &CaseConfig, tr: &Tracer) -> CaseRun {
    let cfg = r.set.solver;
    let root = tr.span("case", 0);
    let t0 = Instant::now();
    let mesh = {
        let _s = tr.span("cfd.mesh_build", root.id());
        lr_mesh(case, &r.set)
    };
    let run = tr.span("amr.run", root.id());
    let mut sim = TimedSim {
        inner: RansSolver::new(mesh, cfg),
        tr,
        parent: run.id(),
    };
    let outcome = r.set.driver.run(&mut sim, r.set.layout);
    if sim.inner.mesh.map != outcome.final_map {
        sim.project_to(&outcome.final_map.clone());
    }
    drop(run);
    let wall_s = t0.elapsed().as_secs_f64();
    drop(root);
    let mut s = tr.span("amr.outcome", 0);
    s.attr("rounds", outcome.rounds.len() as f64);
    s.attr("active_cells", sim.inner.mesh.active_cells() as f64);
    drop(s);
    CaseRun {
        wall_s,
        self_report_s: outcome.total_seconds(),
        iterations: outcome.rounds.iter().map(|x| x.solve.iterations).collect(),
        residual: verified_residual(case, &outcome.final_map, &sim.inner.state, cfg),
        prediction: 0,
        state: state_digest(&sim.inner.state),
        levels: outcome.final_map.levels().to_vec(),
    }
}

/// Case sets an untraced run measures at least. The host's CPU speed
/// swings by tens of percent from one case to the next, and a second set
/// averages some of that out.
const MIN_SETS: usize = 2;

/// Run a case workload: set up [`SETUPS`] times (median is `setup_s`), run
/// the case set at least [`MIN_SETS`] times and until `seconds` have
/// passed; with `traced`, run it once untraced and once more under spans.
pub fn run(pipeline: Pipeline, seconds: f64, traced: bool, tr: &Tracer) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let r = setup(pipeline)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some(r);
    }
    let r = ready.expect("set-up ran");
    inputs::check_cases()?;
    let tol = r.set.solver.tol;

    let mut out = Outcome::default();
    let mut runs: Vec<Vec<CaseRun>> = Vec::new();
    let t0 = Instant::now();
    // Back to back, at least [`MIN_SETS`] times and until `seconds` have
    // passed (the verification inside each job is outside its wall time
    // but inside this window). A traced run needs one untraced set to
    // compare against.
    let min_sets = if traced { 1 } else { MIN_SETS };
    while runs.len() < min_sets || (!traced && t0.elapsed().as_secs_f64() < seconds) {
        runs.push(
            r.set
                .cases
                .iter()
                .map(|case| match pipeline {
                    Pipeline::Adarnet => adarnet_untraced(&r, case),
                    Pipeline::Amr => amr_untraced(&r, case),
                })
                .collect(),
        );
    }
    out.note(format!(
        "peak resident set {:.1} MB after the measured sets",
        report::peak_rss_mb()?
    ));

    let jobs: Vec<&CaseRun> = runs.iter().flatten().collect();
    out.attempted = jobs.len() as u64;
    for (k, job) in jobs.iter().enumerate() {
        let converged = job.residual.is_finite() && job.residual < tol;
        if !converged {
            out.failed += 1;
        }
        let case = &r.set.cases[k % r.set.cases.len()];
        out.note(format!(
            "case {:<16} wall {:.3} s, self-report {:.3} s, iterations {:?}, verified residual {:.4e} (tol {tol:.1e}) -> {}",
            case.name,
            job.wall_s,
            job.self_report_s,
            job.iterations,
            job.residual,
            if converged { "converged" } else { "NOT converged" }
        ));
    }
    out.check(
        "repeated case sets do the same work (iterations, prediction, final state)",
        runs.iter()
            .all(|set| set.iter().zip(&runs[0]).all(|(a, b)| a.same_work(b))),
    );

    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let set_walls: Vec<f64> = runs
        .iter()
        .map(|s| s.iter().map(|j| j.wall_s).sum())
        .collect();
    let self_reports: Vec<f64> = runs
        .iter()
        .map(|s| s.iter().map(|j| j.self_report_s).sum())
        .collect();
    let ttc = median(&set_walls);
    let self_report = median(&self_reports);
    out.note(format!(
        "ttc_s {:.4} s (n={} sets), self-reported {:.4} s, untimed_s {:.4} s",
        ttc.value,
        ttc.n,
        self_report.value,
        ttc.value - self_report.value
    ));

    let m = &mut out.metrics;
    if !traced {
        let p50 = median(&walls);
        let p95 = nearest_rank(&walls, 0.95);
        m.set("p50_ms", p50.value * 1e3, p50.n);
        m.set("p95_ms", p95.value * 1e3, p95.n);
        m.set(
            "throughput_per_s",
            jobs.len() as f64 / walls.iter().sum::<f64>(),
            jobs.len(),
        );
        let setup = median(&setup_s);
        m.set("setup_s", setup.value, setup.n);
        return Ok(out);
    }

    let traced_runs: Vec<CaseRun> = r
        .set
        .cases
        .iter()
        .map(|case| match pipeline {
            Pipeline::Adarnet => adarnet_traced(&r, case, tr),
            Pipeline::Amr => Ok(amr_traced(&r, case, tr)),
        })
        .collect::<Result<_, _>>()?;
    out.check(
        "traced pass reproduces the untraced pass (predictions bitwise, iterations, final states)",
        traced_runs
            .iter()
            .zip(&runs[0])
            .all(|(a, b)| a.same_work(b)),
    );
    out.attempted += traced_runs.len() as u64;
    out.failed += traced_runs
        .iter()
        .filter(|j| !(j.residual.is_finite() && j.residual < tol))
        .count() as u64;
    let m = &mut out.metrics;
    m.set("case.ttc_s", ttc.value, ttc.n);
    m.set("case.self_report_s", self_report.value, self_report.n);
    m.set("case.untimed_s", ttc.value - self_report.value, ttc.n);
    let traced_wall: f64 = traced_runs.iter().map(|j| j.wall_s).sum();
    m.set(
        "trace.overhead_pct",
        (traced_wall / mean(&set_walls) - 1.0) * 100.0,
        1,
    );
    layer_metrics(m, tr, pipeline, &r.ckpt);
    m.set(
        "cfd.final_residual_max",
        traced_runs.iter().map(|j| j.residual).fold(0.0, f64::max),
        traced_runs.len(),
    );
    Ok(out)
}

fn layer_metrics(m: &mut Metrics, tr: &Tracer, pipeline: Pipeline, ckpt: &ModelCheckpoint) {
    let solves = ["cfd.lr_solve", "cfd.physics_solve", "cfd.solve"];
    let mut iters = 0.0;
    let mut cell_iters = 0.0;
    let mut solve_s = 0.0;
    let mut n = 0;
    for name in solves {
        for s in tr.named(name) {
            iters += s.attr("iterations");
            cell_iters += s.attr("iterations") * s.attr("cells");
            solve_s += s.seconds();
            n += 1;
        }
    }
    m.set("cfd.solve_iters", iters, n);
    m.set(
        "cfd.ns_per_cell_iter",
        solve_s * 1e9 / cell_iters.max(1.0),
        n,
    );
    let builds = tr.named("cfd.mesh_build").len();
    m.set("cfd.mesh_build_s", tr.total_s("cfd.mesh_build"), builds);
    m.set(
        "cfd.lr_solve_s",
        tr.total_s("cfd.lr_solve"),
        tr.named("cfd.lr_solve").len(),
    );
    m.set(
        "cfd.physics_solve_s",
        tr.total_s("cfd.physics_solve"),
        tr.named("cfd.physics_solve").len(),
    );
    match pipeline {
        Pipeline::Adarnet => {
            let inferences = tr.named("core.infer").len();
            core_metrics(m, tr, inferences, decoder_flops_per_pixel(ckpt));
            let prepacks = tr.named("core.prepack").len();
            m.set(
                "core.prepack_ms",
                tr.total_s("core.prepack") * 1e3 / prepacks.max(1) as f64,
                prepacks,
            );
            let states = tr.named("core.state_assembly").len();
            m.set(
                "core.state_assembly_ms",
                tr.total_s("core.state_assembly") * 1e3 / states.max(1) as f64,
                states,
            );
            m.set(
                "tensor.pool_allocs_per_request",
                tr.attr_sum("core.infer", "allocs") / inferences.max(1) as f64,
                inferences,
            );
        }
        Pipeline::Amr => {
            let outcome = tr.named("amr.outcome");
            m.set(
                "amr.rounds",
                outcome.iter().map(|s| s.attr("rounds")).sum(),
                outcome.len(),
            );
            m.set(
                "amr.active_cells_final",
                outcome.iter().map(|s| s.attr("active_cells")).sum(),
                outcome.len(),
            );
            m.set(
                "amr.solve_s",
                tr.total_s("cfd.solve"),
                tr.named("cfd.solve").len(),
            );
            m.set(
                "amr.indicator_s",
                tr.total_s("amr.indicator"),
                tr.named("amr.indicator").len(),
            );
            m.set(
                "amr.project_s",
                tr.total_s("amr.project"),
                tr.named("amr.project").len(),
            );
            m.set(
                "amr.mark_s",
                tr.self_s("amr.run"),
                tr.named("amr.run").len(),
            );
        }
    }
}
