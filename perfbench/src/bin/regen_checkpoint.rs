//! Regenerate the benchmark's pinned model checkpoint.
//!
//! Trains ADARNet with the quick-scale recipe of the paper harnesses
//! (`adarnet_bench::trained_model` at `Scale::Quick`: 4 samples per
//! family at 32x64, 5 epochs, lr 2e-3, mu 25, seed 42) and writes the
//! checkpoint JSON to the path given as the only argument. The recipe is
//! deterministic, so the output is byte-for-byte the committed
//! `model/adarnet_quick.json`; its digest is pinned in `src/inputs.rs`.
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml --bin regen_checkpoint -- perfbench/model/adarnet_quick.json`

use adarnet_bench::{training_set, Scale};
use adarnet_core::{AdarNet, AdarNetConfig, NormStats, Trainer, TrainerConfig};

fn main() {
    let Some(out) = std::env::args().nth(1) else {
        eprintln!("usage: regen_checkpoint <out.json>");
        std::process::exit(2);
    };
    let scale = Scale::Quick;
    let train = training_set(scale);
    let (_, epochs) = scale.training();
    let norm = NormStats::from_samples(train.iter().map(|s| &s.field));
    let p = scale.patch();
    let model = AdarNet::new(AdarNetConfig {
        ph: p,
        pw: p,
        bins: 4,
        seed: 42,
        ..AdarNetConfig::default()
    });
    let mut trainer = Trainer::new(
        model,
        norm,
        TrainerConfig {
            lr: scale.learning_rate(),
            mu: 25.0,
            ..TrainerConfig::default()
        },
    );
    for e in 0..epochs {
        let st = trainer.train_epoch(&train);
        eprintln!("epoch {e}: total {:.3e}", st.total);
    }
    if let Err(e) = adarnet_core::checkpoint::save_file(&trainer.model, &trainer.norm, &out) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
}
