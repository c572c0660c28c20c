//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin perfbench -- \
//!     --workload <adarnet_ttc|amr_ttc|serve_miss|net_repeat|serve_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing. With `--trace 1` it makes the same untraced pass, then a traced
//! pass that records a span around each public call into a layer, and
//! reports the per-layer metrics plus the tracing overhead (traced against
//! untraced). The spans are written to `perfbench/out/` when the run ends.
//! The last line of standard output is the JSON result; the lines before
//! it give every metric with its unit and sample count, every correctness
//! check and the failure share. The exit code is non-zero when the
//! arguments, the pinned inputs or the metric set are wrong.

mod cases;
mod infer;
mod inputs;
mod report;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

const WORKLOADS: [&str; 5] = [
    "adarnet_ttc",
    "amr_ttc",
    "serve_miss",
    "net_repeat",
    "serve_open",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run(args: &Args, tr: &Tracer) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "adarnet_ttc" => cases::run(cases::Pipeline::Adarnet, args.seconds, args.trace, tr),
        "amr_ttc" => cases::run(cases::Pipeline::Amr, args.seconds, args.trace, tr),
        "serve_open" => serving::run(serving::Loop::Open, args.seed, args.seconds, args.trace, tr),
        "serve_miss" => serving::run(serving::Loop::Miss, args.seed, args.seconds, args.trace, tr),
        "net_repeat" => serving::run(
            serving::Loop::NetRepeat,
            args.seed,
            args.seconds,
            args.trace,
            tr,
        ),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let result = (|| -> Result<bool, String> {
        inputs::check_env()?;
        let args = parse_args()?;
        let run_id = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64)
            ^ args.seed.rotate_left(32);
        let tr = if args.trace {
            Tracer::new(run_id)
        } else {
            Tracer::disabled()
        };
        let mut out = run(&args, &tr)?;

        let backend = adarnet_nn::Device::active().name();
        let precision = adarnet_nn::Precision::active().name();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        out.note(format!(
            "seed {} seconds {} trace {} backend {backend} precision {precision} nproc {nproc}",
            args.seed, args.seconds, args.trace as u8
        ));
        let names = if args.trace {
            out.metrics.zero_missing(&PER_LAYER);
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            let header = format!(
                "{{\"run\":{run_id},\"workload\":\"{}\",\"seed\":{},\"backend\":\"{backend}\",\"precision\":\"{precision}\",\"nproc\":{nproc}}}",
                args.workload, args.seed
            );
            tr.write_jsonl(&path, &header)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            out.note(format!("spans written to {}", path.display()));
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        Ok(report::print(&args.workload, &out, names))
    })();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
