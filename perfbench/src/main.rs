//! `kcz-perfbench`: the end-to-end benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <publish_bulk|serve_mixed|window_slide|mpc_batch|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Replays one seeded workload from a single driver thread in closed
//! loop, times every call into the program from outside, checks every
//! output against the benchmark's own brute-force computations, and
//! prints the result as the last line of stdout: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics (with the program's
//! in-process stage spans enabled) with `--trace 1`.  See README.md.

mod engine_wl;
mod gen;
mod mpc_wl;
mod oracle;
mod outcome;
mod report;

use std::process::ExitCode;

use outcome::Outcome;
use report::result_json;

const WORKLOADS: [&str; 4] = ["publish_bulk", "serve_mixed", "window_slide", "mpc_batch"];

pub struct Args {
    workload: String,
    pub seed: u64,
    seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<String, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{flag} needs a value"))
        };
        let workload = get("--workload")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (one of {WORKLOADS:?} or all)"
            ));
        }
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(1..=600).contains(&seconds) {
            return Err("--seconds must be in 1..=600".into());
        }
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }

    /// The schedule length: `per_second` rounds per second of
    /// `--seconds` (a rate calibrated so a run takes about that long on
    /// the reference host), never fewer than `min` — each workload's
    /// `min` yields at least 100 samples of every percentile it reports,
    /// so a p90 always has ten samples beyond it.  The length depends on
    /// the flags alone, never on elapsed time, so every count repeats.
    pub fn rounds(&self, per_second: f64, min: usize) -> usize {
        ((per_second * self.seconds as f64).ceil() as usize).max(min)
    }
}

fn run(name: &str, args: &Args) -> Outcome {
    match name {
        "publish_bulk" => engine_wl::publish_bulk(args),
        "serve_mixed" => engine_wl::serve_mixed(args),
        "window_slide" => engine_wl::window_slide(args),
        "mpc_batch" => mpc_wl::mpc_batch(args),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kcz-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut all_metrics = Vec::new();
    for name in &names {
        let out = run(name, &args);
        let metrics = if args.trace {
            out.per_layer()
        } else {
            out.end_to_end()
        };
        println!(
            "workload {name} seed {} trace {}",
            args.seed,
            u8::from(args.trace)
        );
        println!("{}", out.ledger.summary());
        println!("digest {:016x}", out.digest.value());
        for note in &out.notes {
            println!("{note}");
        }
        if args.trace {
            // The same schedule with tracing on: against an untraced run's
            // end-to-end metrics, the difference is the tracing overhead.
            let traced: Vec<String> = out
                .end_to_end()
                .iter()
                .map(|m| format!("{}={:.4}", m.name, m.value))
                .collect();
            println!("traced end-to-end: {}", traced.join(" "));
        }
        attempted += out.ledger.attempted();
        failed += out.ledger.failed();
        if names.len() == 1 {
            all_metrics = metrics;
        } else {
            println!(
                "{}",
                result_json(
                    out.ledger.failed() == 0,
                    out.ledger.attempted(),
                    out.ledger.failed(),
                    &metrics
                )
            );
            all_metrics.extend(metrics.into_iter().map(|mut m| {
                m.name = format!("{name}.{}", m.name);
                m
            }));
        }
    }
    println!(
        "{}",
        result_json(failed == 0, attempted, failed, &all_metrics)
    );
    ExitCode::SUCCESS
}
