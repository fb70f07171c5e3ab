//! The repository benchmark: the `perfbench` command line.
//!
//! ```text
//! perfbench --workload <sweep_paper|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the machine/build block and the run's facts, then — as the
//! last line — one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). Exits non-zero without a result line when the run cannot be
//! set up.

use std::process::ExitCode;

use perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Config, Workload};

const USAGE: &str = "usage: perfbench --workload <sweep_paper|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{value}`")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        scratch: std::path::PathBuf::from(".bench_tmp").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("machine: {}", workloads::machine_block(&cfg));
    let outcome = match workloads::run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for (name, value) in &outcome.facts {
        println!("fact: {name} = {value}");
    }
    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    for def in defs {
        let value = outcome.values.get(def.name).copied().unwrap_or(f64::NAN);
        println!("metric: {:<30} {value:>16.6} {}", def.name, def.unit);
    }
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            defs,
            &outcome.values
        )
    );
    ExitCode::SUCCESS
}
