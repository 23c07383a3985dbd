//! End-to-end and per-layer benchmark of the PIM simulation stack.
//!
//! ```text
//! cargo run --release --manifest-path pimbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one named workload from a seed, checks every output against an
//! independent host reference, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it holds the run's facts (threads, host
//! cores, tail percentile and sample count, failures by cause, the
//! known-defect probes, gate failures). See `pimbench/NOTES.md` for the workloads, seeds and noise
//! notes.

mod bitmap;
mod graph;
mod model;
mod outcome;
mod runner;
mod spans;
mod stats;
mod tensor;

use rand::rngs::StdRng;
use rand::SeedableRng;
use runner::{host_cores, passes_for, run_timed, run_traced, with_threads, Report, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

/// The seed used while the benchmark was tuned.
const DEFAULT_SEED: u64 = 1;
/// Seconds a run measures by default, as `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 20;

/// Workloads, with the nominal seconds one pass takes on the reference
/// host (a 2-core x86-64 VM, one worker thread). `--seconds` divided by
/// it fixes the number of passes.
const WORKLOADS: [(&str, f64); 4] = [
    ("bitmap_query", 0.27),
    ("simd_tensor", 1.9),
    ("graph_tesseract", 1.75),
    ("bitmap_observed", 0.85),
];

const USAGE: &str =
    "usage: pimbench --workload <bitmap_query|simd_tensor|graph_tesseract|bitmap_observed> \
     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug)]
struct Args {
    workload: &'static str,
    nominal_pass_s: f64,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(n, _)| *n == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = num(&value)?,
            "--seconds" => seconds = num(&value)?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let &(workload, nominal_pass_s) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        nominal_pass_s,
        seed,
        seconds,
        trace,
    })
}

fn measure<W: Workload>(mut w: W, args: &Args) -> Report {
    let passes = passes_for(args.seconds, args.nominal_pass_s);
    if args.trace {
        run_traced(&mut w, passes)
    } else {
        run_timed(&mut w, passes)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pimbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Inputs come from the seed alone; generating them is not set-up.
    // Everything runs on one worker thread unless a pass asks for more.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let report = with_threads(1, || match args.workload {
        "bitmap_query" => measure(bitmap::Bitmap::generate(&mut rng, false), &args),
        "bitmap_observed" => measure(bitmap::Bitmap::generate(&mut rng, true), &args),
        "simd_tensor" => measure(tensor::Tensor::generate(&mut rng), &args),
        "graph_tesseract" => measure(graph::Tesseract::generate(&mut rng), &args),
        other => unreachable!("parse accepts only listed workloads, got {other}"),
    });

    let mut facts = format!(
        "{{\"workload\": {}, \"seed\": {}, \"mode\": {}, \"threads\": 1, \"host_cores\": {}",
        json_str(args.workload),
        args.seed,
        json_str(if args.trace { "traced" } else { "timed" }),
        host_cores()
    );
    for (k, v) in &report.facts {
        let _ = write!(facts, ", {}: {}", json_str(k), json_str(v));
    }
    let causes = |o: &outcome::Outcomes| {
        o.by_cause()
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let ledger = |o: &outcome::Outcomes| {
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"by_cause\": {{{}}}}}",
            o.attempted(),
            o.failed(),
            causes(o)
        )
    };
    let _ = write!(
        facts,
        ", \"failures_by_cause\": {{{}}}, \"other_passes\": {}, \"defect_probes\": {}, \"gate_failures\": [{}]}}",
        causes(&report.measured),
        ledger(&report.other),
        ledger(&report.probes),
        report
            .gates
            .failures()
            .iter()
            .map(|g| json_str(g))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("{facts}");

    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.measured.attempted(),
        report.measured.failed()
    );
    ExitCode::SUCCESS
}
