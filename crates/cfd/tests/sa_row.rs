//! The row-staged SA source (`sa::source_row`, what the solver's SA pass
//! runs) against the one-cell `sa::source`: bit for bit, over seeded
//! random rows with edge cases mixed in. NaN is compared as NaN-ness
//! only, as in the sweep goldens: the compiler does not keep NaN
//! payloads.

use adarnet_cfd::sa::{self, SaConstants, SourceRow};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const C: SaConstants = SaConstants::standard();
const NU: f64 = 1.5e-5;

fn canonical(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// `10^e` for `e` uniform in `lo..hi`.
fn log_uniform(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> f64 {
    10f64.powf(rng.gen_range(lo..hi))
}

/// Hand-picked `(nu_tilde, omega, d)` cells: every sign and class of
/// `nu_tilde`, a tiny wall distance, zero vorticity, `r` at its clamp
/// and the `S_tilde` clip active.
fn edge_cells() -> Vec<(f64, f64, f64)> {
    let mut cells = Vec::new();
    for nt in [
        -3.0 * NU,
        -f64::MIN_POSITIVE,
        -0.0,
        0.0,
        f64::from_bits(1),
        1e-310,
        f64::NAN,
        -f64::NAN,
        1e150,
        1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        for (omega, d) in [(50.0, 0.1), (0.0, 1e-3), (3.0, 1e-300)] {
            cells.push((nt, omega, d));
        }
    }
    cells.extend([
        // Tiny wall distance, ordinary nu_tilde.
        (5.0 * NU, 10.0, 1e-12),
        // Zero vorticity: S_tilde from the wall term alone.
        (5.0 * NU, 0.0, 0.05),
        // r clamped at 10: nu_tilde large against S_tilde kappa^2 d^2.
        (1.0, 0.0, 0.01),
        (0.3, 1e-3, 0.2),
        // S_tilde clip: fv2 < 0 at chi ~ 5 drives S below 0.3 omega.
        (5.0 * NU, 100.0, 1e-3),
        (3.0 * NU, 20.0, 5e-4),
    ]);
    cells
}

fn r_of(nt: f64, omega: f64, d: f64) -> f64 {
    let s_t = sa::s_tilde(omega, nt, d, nt / NU, &C);
    nt / (s_t * C.kappa * C.kappa * d * d)
}

#[test]
fn edge_cells_reach_the_clamps() {
    let cells = edge_cells();
    assert!(
        cells
            .iter()
            .any(|&(nt, om, d)| nt > 0.0 && r_of(nt, om, d) > 10.0),
        "no edge cell clamps r"
    );
    assert!(
        cells.iter().any(|&(nt, om, d)| {
            let s = om + nt / (C.kappa * C.kappa * d * d) * sa::fv2(nt / NU, &C);
            nt > 0.0 && s < 0.3 * om
        }),
        "no edge cell clips S_tilde"
    );
}

#[test]
fn source_row_matches_scalar_source_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5a_2023);
    let edges = edge_cells();
    let mut scratch = SourceRow::default();
    let mut checked = 0usize;
    for _ in 0..2000 {
        let n = rng.gen_range(1usize..=70);
        let mut nt = Vec::with_capacity(n);
        let mut omega = Vec::with_capacity(n);
        let mut d = Vec::with_capacity(n);
        for _ in 0..n {
            let cell = if rng.gen_range(0.0..1.0) < 0.15 {
                edges[rng.gen_range(0..edges.len())]
            } else {
                let sign = if rng.gen_range(0.0..1.0) < 0.1 {
                    -1.0
                } else {
                    1.0
                };
                (
                    sign * log_uniform(&mut rng, -9.0, 0.0),
                    log_uniform(&mut rng, -4.0, 4.0),
                    log_uniform(&mut rng, -6.0, 1.0),
                )
            };
            nt.push(cell.0);
            omega.push(cell.1);
            d.push(cell.2);
        }
        let mut next = 0;
        sa::source_row(&nt, NU, &omega, &d, &C, &mut scratch, |k, src| {
            assert_eq!(k, next, "cells emitted out of order");
            next += 1;
            let want = sa::source(nt[k], NU, omega[k], d[k], &C);
            assert_eq!(
                canonical(src),
                canonical(want),
                "nu_tilde {:e}, omega {:e}, d {:e}: row {src:e} vs scalar {want:e}",
                nt[k],
                omega[k],
                d[k]
            );
        });
        assert_eq!(next, n, "not every cell was emitted");
        checked += n;
    }
    assert!(checked > 50_000);
}
