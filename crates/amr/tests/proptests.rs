//! Property-based tests for the AMR substrate invariants.

use adarnet_amr::{CompositeField, PatchLayout, RefinementMap, Side};
use adarnet_tensor::Grid2;
use proptest::prelude::*;

fn arb_levels(n: usize, max: u8) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=max, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Active-cell accounting: sum over patches of ph*pw*4^level.
    #[test]
    fn active_cells_formula(levels in arb_levels(6, 3)) {
        let layout = PatchLayout::new(2, 3, 4, 4);
        let map = RefinementMap::from_levels(layout, levels.clone(), 3);
        let expect: usize = levels.iter().map(|&l| 16usize << (2 * l)).sum();
        prop_assert_eq!(map.active_cells(), expect);
    }

    /// Balance never lowers a level and always terminates with jumps
    /// within the bound.
    #[test]
    fn balance_monotone_and_bounded(levels in arb_levels(12, 3)) {
        let layout = PatchLayout::new(3, 4, 4, 4);
        let mut map = RefinementMap::from_levels(layout, levels.clone(), 3);
        map.balance(1);
        for (before, after) in levels.iter().zip(map.levels()) {
            prop_assert!(after >= before, "balance lowered a level");
        }
        for py in 0..3 {
            for px in 0..4 {
                let l = map.level(py, px) as i16;
                if py + 1 < 3 {
                    prop_assert!((map.level(py + 1, px) as i16 - l).abs() <= 1);
                }
                if px + 1 < 4 {
                    prop_assert!((map.level(py, px + 1) as i16 - l).abs() <= 1);
                }
            }
        }
    }

    /// Ghost lines always have the requesting patch's interface extent and
    /// stay within the neighbor's value bounds (linear interpolation
    /// cannot overshoot).
    #[test]
    fn ghost_line_into_extent_and_bounds(levels in arb_levels(4, 3), seed in 0u64..500) {
        let layout = PatchLayout::new(2, 2, 4, 4);
        let map = RefinementMap::from_levels(layout, levels, 3);
        let mut f = CompositeField::zeros(&map);
        let mut s = seed;
        for idx in 0..4 {
            let p = f.patch_at_mut(idx);
            for k in 0..p.len() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((s >> 33) % 1000) as f64 / 100.0;
                p.as_mut_slice()[k] = v;
            }
        }
        let mut g = Vec::new();
        for py in 0..2 {
            for px in 0..2 {
                let me = f.patch(py, px);
                for side in Side::ALL {
                    if f.ghost_line_into(py, px, side, &mut g) {
                        let expect = match side {
                            Side::ILo | Side::IHi => me.nx(),
                            Side::JLo | Side::JHi => me.ny(),
                        };
                        prop_assert_eq!(g.len(), expect);
                        for &v in &g {
                            prop_assert!((0.0..=10.0).contains(&v), "ghost {v} out of range");
                        }
                    }
                }
            }
        }
    }

    /// Projection onto any new map preserves constants exactly.
    #[test]
    fn projection_preserves_constants(
        from in arb_levels(4, 3),
        to in arb_levels(4, 3),
        value in -100.0f64..100.0,
    ) {
        let layout = PatchLayout::new(2, 2, 4, 4);
        let map_a = RefinementMap::from_levels(layout, from, 3);
        let map_b = RefinementMap::from_levels(layout, to, 3);
        let f = CompositeField::constant(&map_a, value);
        let g = f.project_to(&map_b);
        for idx in 0..4 {
            for &v in g.patch_at(idx).as_slice() {
                prop_assert!((v - value).abs() < 1e-9);
            }
        }
    }

    /// to_uniform/from_uniform roundtrip at the finest common level keeps
    /// the mean (both directions are averaging/interpolating).
    #[test]
    fn uniform_roundtrip_mean(levels in arb_levels(4, 2), seed in 0u64..100) {
        let layout = PatchLayout::new(2, 2, 4, 4);
        let map = RefinementMap::from_levels(layout, levels, 3);
        let g = Grid2::from_fn(8, 8, |i, j| ((i * 13 + j * 7 + seed as usize) % 17) as f64);
        let f = CompositeField::from_uniform(&map, &g, 0);
        let back = f.to_uniform(0);
        let mean_in: f64 = g.as_slice().iter().sum::<f64>() / 64.0;
        let mean_out: f64 = back.as_slice().iter().sum::<f64>() / 64.0;
        // Bilinear clamping at edges perturbs the mean slightly on refined
        // patches; bound the drift rather than demand exactness.
        prop_assert!((mean_in - mean_out).abs() < 0.35 * (1.0 + mean_in.abs()));
    }
}
