//! The Edge-LLM benchmark: one command that runs a seeded workload
//! through the workspace's public APIs, checks the outputs, and prints
//! every end-to-end metric (or, with `--trace 1`, every per-layer
//! metric) as the last line of its output.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <adapt|serve_open|fleet_burst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs with one kernel thread (`EDGELLM_THREADS=1`
//! semantics) from this one process. RATIONALE.md says why each workload
//! was chosen and which end-to-end metric each layer metric should move.

mod adapt;
mod fleet_burst;
mod probe;
mod report;
mod serve_open;
mod serving_model;
mod stats;
mod trace;

use report::{Outcome, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <adapt|serve_open|fleet_burst> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["adapt", "serve_open", "fleet_burst"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where traces and the cached fixture go: `out/` in the benchmark's
/// directory.
pub(crate) fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads_env = std::env::var(edge_llm::tensor::THREADS_ENV_VAR).unwrap_or_default();
    edge_llm::tensor::set_configured_threads(1);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"edgellm_threads\": {}, \"edgellm_threads_env\": \"{threads_env}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        edge_llm::tensor::configured_threads(),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_commit(&root),
    );
    println!("context {context}");

    let run = match args.workload.as_str() {
        "adapt" => adapt::run(args.seed, args.seconds, args.trace),
        "serve_open" => serve_open::run(args.seed, args.seconds, args.trace),
        _ => fleet_burst::run(args.seed, args.seconds, args.trace),
    };
    let (base, traced) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    for (name, value, unit) in base.named.iter() {
        println!("metric {name} {value} {unit}");
    }
    let mut problems = base.problems.clone();
    let (result, attempted, failed) = match &traced {
        None => {
            let wanted: Vec<(String, &str)> = END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect();
            let metrics = report::select(&wanted, &base.e2e, false, &mut problems);
            (metrics, base.attempted, base.failed)
        }
        Some(t) => {
            problems.extend(t.outcome.problems.iter().cloned());
            let layer = per_layer(&base, t);
            let metrics = report::select(&report::per_layer(), &layer, true, &mut problems);
            let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            match trace::write(&path, &t.events) {
                Ok(()) => println!("trace {} ({} events)", path.display(), t.events.len()),
                Err(e) => problems.push(format!("writing {}: {e}", path.display())),
            }
            (metrics, t.outcome.attempted, t.outcome.failed)
        }
    };
    println!(
        "ops attempted={attempted} succeeded={} failed={failed}",
        attempted - failed
    );
    for p in &problems {
        println!("check FAILED: {p}");
    }
    let correct = problems.is_empty();
    let line = report::result_json(correct, attempted, failed, &result);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The traced pass's per-layer metrics plus self time per layer from the
/// span tree and the tracing overhead against the untraced pass.
fn per_layer(base: &Outcome, t: &trace::Traced) -> report::Metrics {
    let mut layer = t.outcome.layer.clone();
    let self_ms = trace::self_ms_by_layer(&t.events);
    for l in report::LAYERS {
        layer.put(
            format!("self_ms.{l}"),
            self_ms.get(l).copied().unwrap_or(0.0),
            "ms",
        );
    }
    let overhead = if base.basis_ms > 0.0 {
        (t.outcome.basis_ms - base.basis_ms) / base.basis_ms * 100.0
    } else {
        0.0
    };
    layer.put("telemetry.overhead_pct", overhead, "%");
    layer.put("telemetry.events", t.events.len() as f64, "count");
    layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload adapt --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("adapt", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload adapt --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload adapt --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload adapt --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload adapt --seed 1 --seconds 1").is_err());
    }
}
