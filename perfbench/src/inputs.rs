//! The benchmark's inputs: the pinned model checkpoint, the paper's case
//! configurations, and the seeded field pools and arrival schedules of the
//! serving workloads.
//!
//! Every input is hashed. Inputs that do not depend on the seed (the
//! checkpoint and the case configurations) are checked against pinned
//! digests. Seeded inputs are checked twice: the inputs of seed 0 against
//! pinned digests, so a change to the generators shows, and the run's own
//! seed by generating its inputs a second time, so the same seed gives the
//! same inputs.

use std::path::PathBuf;

use adarnet_amr::{AmrDriver, PatchLayout};
use adarnet_bench::{bench_case, Scale};
use adarnet_cfd::{CaseConfig, SolverConfig};
use adarnet_core::checkpoint::ModelCheckpoint;
use adarnet_dataset::{synthesize, TestCase};
use adarnet_tensor::Tensor;

/// Digest of `model/adarnet_quick.json` (FNV-1a 64 over its bytes).
pub const CHECKPOINT_DIGEST: u64 = 0x2992_9f7a_bd47_3852;
/// Digest of the case workloads' configurations.
pub const CASES_DIGEST: u64 = 0x47b9_ecb5_1bca_cded;
/// Digest of seed 0's `serve_open` fields and arrival schedule (10 s).
pub const OPEN_SEED0_DIGEST: u64 = 0xeefe_3ab0_642d_8d79;
/// Digest of seed 0's `serve_miss` field pool (10 s).
pub const MISS_SEED0_DIGEST: u64 = 0xce5b_7b89_d4de_04da;
/// Digest of seed 0's `net_repeat` field pool.
pub const NET_SEED0_DIGEST: u64 = 0xac5c_f254_841b_aa07;

/// Environment knobs that would change what the program computes or how
/// the paper harnesses behave; a benchmark run refuses to start under any.
const FORBIDDEN_ENV: [&str; 2] = ["ADARNET_DEVICE", "ADARNET_PRECISION"];
const FORBIDDEN_ENV_PREFIX: &str = "ADARNET_BENCH_";

/// LR extent of every serving request.
pub const SERVE_H: usize = 16;
/// LR extent of every serving request.
pub const SERVE_W: usize = 32;
/// Distinct fields `net_repeat` cycles through.
pub const NET_POOL: usize = 8;
/// Open-loop arrival rate (requests per second): about a third of the
/// ~29 rps saturation of the default `ServeConfig` on distinct 16x32
/// fields (2-vCPU x86-64 VM). At 20 rps (70%) the queue did not settle
/// within a run.
pub const OPEN_RATE_PER_S: f64 = 10.0;
/// Distinct fields `serve_miss` prepares per second of run: twice what the
/// default `ServeConfig` can serve, so the closed loop never runs out.
pub const MISS_FIELDS_PER_S: f64 = 60.0;
/// Synthesized flows the distinct fields of a load are jittered from.
const BASE_FLOWS: usize = 96;
/// Per-value relative jitter that makes every served patch distinct.
const JITTER: f32 = 1e-3;

/// Fail unless no forbidden environment knob is set.
pub fn check_env() -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy();
        if FORBIDDEN_ENV.contains(&key.as_ref()) || key.starts_with(FORBIDDEN_ENV_PREFIX) {
            return Err(format!("refusing to run with {key} set"));
        }
    }
    Ok(())
}

/// SplitMix64: the benchmark's own generator, so its inputs depend on
/// this file alone and not on the program's random-number crates.
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed` and input `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// FNV-1a 64 digest builder.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Mix in a tensor's shape and exact values.
    pub fn tensor(&mut self, t: &Tensor<f32>) -> &mut Self {
        for d in 0..t.shape().rank() {
            self.bytes(&(t.dim(d) as u64).to_le_bytes());
        }
        for v in t.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn check_digest(what: &str, got: u64, pinned: u64) -> Result<(), String> {
    if got == pinned {
        Ok(())
    } else {
        Err(format!(
            "{what} digest {got:#018x} does not match the pinned {pinned:#018x}"
        ))
    }
}

/// Path of the committed checkpoint.
pub fn checkpoint_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("model/adarnet_quick.json")
}

/// Read the committed checkpoint, check its digest and parse it.
pub fn load_checkpoint() -> Result<ModelCheckpoint, String> {
    let path = checkpoint_path();
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    check_digest(
        "checkpoint",
        Digest::default().bytes(&bytes).finish(),
        CHECKPOINT_DIGEST,
    )?;
    let text = std::str::from_utf8(&bytes).map_err(|e| format!("checkpoint: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("checkpoint: {e}"))
}

/// Table 1's quick configuration, shared by both case workloads.
#[derive(Debug, Clone)]
pub struct CaseSet {
    /// The cases, run in this order.
    pub cases: Vec<CaseConfig>,
    /// Patch layout of the 32x64 LR mesh (8x8 patches).
    pub layout: PatchLayout,
    /// Solver settings of every solve (tol 2.5e-3, cap 2000).
    pub solver: SolverConfig,
    /// The iterative AMR driver (max level 3, theta 0.5, 4 rounds, balance 1).
    pub driver: AmrDriver,
}

impl CaseSet {
    fn table1(cases: &[TestCase]) -> CaseSet {
        let scale = Scale::Quick;
        let mut solver = scale.solver_cfg();
        solver.max_iters = solver.max_iters.min(2000);
        CaseSet {
            cases: cases.iter().map(|&tc| bench_case(tc, scale)).collect(),
            layout: scale.layout(),
            solver,
            driver: AmrDriver {
                max_level: 3,
                theta: 0.5,
                max_rounds: 4,
                balance_jump: Some(1),
                ..AmrDriver::default()
            },
        }
    }

    /// `adarnet_ttc`: cylinder Re=1e5 and channel Re=2.5e3.
    pub fn adarnet() -> CaseSet {
        CaseSet::table1(&[TestCase::Cylinder, TestCase::ChannelInt])
    }

    /// `amr_ttc`: cylinder Re=1e5.
    pub fn amr() -> CaseSet {
        CaseSet::table1(&[TestCase::Cylinder])
    }

    /// Digest of the configuration (exact `Debug` rendering of every field).
    pub fn digest(&self) -> u64 {
        Digest::default()
            .bytes(format!("{self:?}").as_bytes())
            .finish()
    }
}

/// Check both case sets against the pinned digest.
pub fn check_cases() -> Result<(), String> {
    let mut d = Digest::default();
    d.bytes(&CaseSet::adarnet().digest().to_le_bytes());
    d.bytes(&CaseSet::amr().digest().to_le_bytes());
    check_digest("case configuration", d.finish(), CASES_DIGEST)
}

/// `n` distinct seeded 16x32 LR fields from the three training families.
/// Up to [`BASE_FLOWS`] flows are synthesized, stratified: the families
/// take turns, and each family's main parameter takes one random value
/// from each of equal slices of its training range, so every seed offers
/// the same spread of flows (and of decode work). Each field is one of
/// these flows with a 1e-3 relative jitter on every value, so no two
/// fields share a patch; the fields come in a seeded random order.
fn seeded_fields(rng: &mut Rng, n: usize) -> Vec<Tensor<f32>> {
    let lerp = |lo: f64, hi: f64, t: f64| lo + (hi - lo) * t;
    let flows = n.min(BASE_FLOWS);
    let per_family = flows.div_ceil(3) as f64;
    let base: Vec<Tensor<f32>> = (0..flows)
        .map(|i| {
            let t = ((i / 3) as f64 + rng.unit()) / per_family;
            let case = match i % 3 {
                0 => CaseConfig::channel(lerp(2e3, 1.35e4, t)),
                1 => CaseConfig::flat_plate(lerp(1.35e5, 1.1e6, t)),
                _ => CaseConfig::ellipse(
                    lerp(0.05, 0.75, t),
                    rng.range(-2.0, 6.0),
                    rng.range(5e4, 9e4),
                ),
            };
            synthesize(&case, SERVE_H, SERVE_W)
        })
        .collect();
    let mut fields: Vec<Tensor<f32>> = (0..n)
        .map(|i| {
            let mut field = base[i % flows].clone();
            for v in field.as_mut_slice() {
                *v *= 1.0 + JITTER * (rng.unit() as f32 - 0.5);
            }
            field
        })
        .collect();
    for i in (1..n).rev() {
        fields.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    fields
}

/// The inputs of a serving workload.
pub struct Load {
    /// Distinct fields, in the order the workload uses them.
    pub fields: Vec<Tensor<f32>>,
    /// Open loop: due time of each request, in seconds from the start,
    /// ascending (empty for a closed loop).
    pub offsets: Vec<f64>,
}

impl Load {
    /// `serve_open`: Poisson arrivals at [`OPEN_RATE_PER_S`] over
    /// `seconds`, conditioned on their count (`rate * seconds` arrivals
    /// placed uniformly at random, so every seed offers the same load),
    /// each with its own field.
    pub fn open(seed: u64, seconds: f64) -> Load {
        let n = ((OPEN_RATE_PER_S * seconds).round() as usize).max(1);
        let mut rng = Rng::new(seed, 1);
        let mut offsets: Vec<f64> = (0..n).map(|_| rng.range(0.0, seconds)).collect();
        offsets.sort_by(f64::total_cmp);
        let fields = seeded_fields(&mut Rng::new(seed, 2), n);
        Load { fields, offsets }
    }

    /// `serve_miss`: [`MISS_FIELDS_PER_S`] distinct fields per second.
    pub fn miss(seed: u64, seconds: f64) -> Load {
        let n = ((MISS_FIELDS_PER_S * seconds).ceil() as usize).max(1);
        Load {
            fields: seeded_fields(&mut Rng::new(seed, 3), n),
            offsets: Vec::new(),
        }
    }

    /// `net_repeat`: a pool of [`NET_POOL`] distinct fields.
    pub fn net(seed: u64) -> Load {
        Load {
            fields: seeded_fields(&mut Rng::new(seed, 4), NET_POOL),
            offsets: Vec::new(),
        }
    }

    /// Digest of fields and schedule.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for f in &self.fields {
            d.tensor(f);
        }
        for t in &self.offsets {
            d.bytes(&t.to_bits().to_le_bytes());
        }
        d.finish()
    }
}

/// Check a seeded input generator: its 10-second inputs for seed 0
/// against the `pinned` digest, and `load` against a second generation
/// for the run's own seed.
pub fn check_seeded(
    what: &str,
    generate: impl Fn(u64, f64) -> Load,
    pinned: u64,
    seed: u64,
    seconds: f64,
    load: &Load,
) -> Result<(), String> {
    check_digest(
        &format!("{what} seed-0 input"),
        generate(0, 10.0).digest(),
        pinned,
    )?;
    if generate(seed, seconds).digest() != load.digest() {
        return Err(format!("seed {seed} gave different {what} inputs twice"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(seed: u64) -> [Load; 3] {
        [
            Load::open(seed, 2.0),
            Load::miss(seed, 2.0),
            Load::net(seed),
        ]
    }

    #[test]
    fn same_seed_gives_same_inputs() {
        for (a, b) in loads(11).iter().zip(&loads(11)) {
            assert_eq!(a.digest(), b.digest());
        }
        for (a, b) in loads(11).iter().zip(&loads(12)) {
            assert_ne!(a.digest(), b.digest());
        }
    }

    #[test]
    fn pinned_inputs_match() {
        check_cases().unwrap();
        load_checkpoint().unwrap();
        check_seeded(
            "serve_open",
            Load::open,
            OPEN_SEED0_DIGEST,
            3,
            2.0,
            &Load::open(3, 2.0),
        )
        .unwrap();
        check_seeded(
            "serve_miss",
            Load::miss,
            MISS_SEED0_DIGEST,
            3,
            2.0,
            &Load::miss(3, 2.0),
        )
        .unwrap();
        check_seeded(
            "net_repeat",
            |s, _| Load::net(s),
            NET_SEED0_DIGEST,
            3,
            2.0,
            &Load::net(3),
        )
        .unwrap();
    }

    #[test]
    fn loads_are_sized_sorted_and_distinct() {
        let open = Load::open(5, 4.0);
        let n = (OPEN_RATE_PER_S * 4.0).round() as usize;
        assert_eq!((open.fields.len(), open.offsets.len()), (n, n));
        assert!(open.offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(open.offsets.iter().all(|&t| (0.0..4.0).contains(&t)));
        let miss = Load::miss(5, 4.0);
        assert_eq!(miss.fields.len(), 240);
        let mut digests: Vec<u64> = miss
            .fields
            .iter()
            .map(|f| Digest::default().tensor(f).finish())
            .collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 240);
    }
}
