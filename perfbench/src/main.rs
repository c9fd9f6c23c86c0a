//! `perfbench`: the end-to-end and per-layer benchmark of the dCUDA
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_apps|rt_p2p|rt_allreduce|sched_jobs> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets its workload up several times (the median is `setup_s`),
//! measures whole blocks of operations for `--seconds`, checks every
//! output against computations made apart from the program, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See `perfbench/README.md` for the metrics and what moves them.

mod blocks;
mod checks;
mod metrics;
mod rt_allreduce;
mod rt_p2p;
mod sched_jobs;
mod sim_apps;
mod stats;
mod sys;
mod trace;
mod world;

use metrics::{Metrics, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use trace::Tracer;

/// The four workloads, in the order a traced run visits them.
const WORKLOADS: [&str; 4] = ["sim_apps", "rt_p2p", "rt_allreduce", "sched_jobs"];

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Timed seconds a traced run gives each workload other than its own, so
/// that every traced run prints every per-layer metric.
const TRACE_SLICE_S: f64 = 1.5;

/// Settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Setups to make (the last one is kept and measured).
    pub setups: usize,
    /// Measure the rt round-trip probe after the timed phase (untraced
    /// runs of workloads other than `rt_p2p`, which measures it itself).
    pub probe: bool,
}

/// Directory, relative to the working directory, for the trace file and
/// the shared-memory pair files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn run_workload(name: &str, cfg: &RunCfg, tracer: Option<&Arc<Tracer>>) -> Outcome {
    match name {
        "sim_apps" => sim_apps::run(cfg, tracer),
        "rt_p2p" => rt_p2p::run(cfg, tracer),
        "rt_allreduce" => rt_allreduce::run(cfg, tracer),
        "sched_jobs" => sched_jobs::run(cfg, tracer),
        other => unreachable!("workload {other} was validated by the argument parser"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sim_apps|rt_p2p|rt_allreduce|sched_jobs> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} outside (0, 600]", args.seconds));
    }
    Ok(args)
}

/// A traced run: the named workload for the full time, then every other
/// workload for a short slice, all under one tracer. Per-layer metrics
/// come from the named workload where it produces them.
fn traced(args: &Args) -> (Outcome, Vec<trace::Span>) {
    let tracer = Tracer::new();
    let main_cfg = RunCfg {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        setups: 1,
        probe: false,
    };
    let mut out = run_workload(&args.workload, &main_cfg, Some(&tracer));
    eprintln!(
        "perfbench: traced {} end-to-end: {}",
        args.workload, out.e2e
    );
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let cfg = RunCfg {
            seconds: Duration::from_secs_f64(TRACE_SLICE_S.min(args.seconds)),
            ..main_cfg
        };
        let slice = run_workload(other, &cfg, Some(&tracer));
        out.absorb_slice(slice);
    }
    let spans = tracer.spans();
    for (layer, secs) in trace::self_time_by_layer(&spans) {
        out.layer.set(&format!("self_s.{layer}"), secs, "s");
    }
    (out, spans)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(1);
    }
    let steal0 = sys::steal_ticks();
    let (out, shown): (Outcome, fn(&Outcome) -> &Metrics) = if args.trace {
        let (out, spans) = traced(&args);
        let path = out_dir().join(format!("trace-{}.tsv", args.workload));
        match trace::write_tsv(&spans, &path) {
            Ok(()) => eprintln!("perfbench: {} spans -> {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        (out, |o| &o.layer)
    } else {
        let cfg = RunCfg {
            seed: args.seed,
            seconds: Duration::from_secs_f64(args.seconds),
            setups: SETUPS,
            probe: args.workload != "rt_p2p",
        };
        (run_workload(&args.workload, &cfg, None), |o| &o.e2e)
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, sys::steal_ticks()) {
        // Stolen time slows every metric; say how much this run lost.
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        eprintln!(
            "perfbench: the hypervisor stole {:.1}% of CPU time during the run",
            share * 100.0
        );
    }
    for e in &out.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!("{}", out.to_json(shown(&out)));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_validated() {
        let a = parse("--workload rt_p2p --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("rt_p2p", 7, true));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload rt_p2p --trace 2").is_err());
        assert!(parse("--workload rt_p2p --seconds 0").is_err());
        assert!(parse("--workload rt_p2p --seed").is_err());
    }
}
