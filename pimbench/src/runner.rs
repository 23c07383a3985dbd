//! The measurement loop shared by every workload.
//!
//! A run is a closed loop: one client, no think time, one request in
//! flight. Every timed pass serves the whole request list once, so every
//! run serves the same number of requests and the tail percentile keeps
//! its rank. Host-clock numbers are taken with the program pinned to one
//! worker thread (`rayon::ThreadPoolBuilder::num_threads(1).install`).
//!
//! * The timed run (`--trace 0`) sets the program up several times, each
//!   time building its stack and serving one untimed warm-up pass, then
//!   times the passes. A workload whose simulator events only the
//!   captures expose serves one more pass with capture on, untimed. It
//!   prints the end-to-end metrics.
//! * The traced run (`--trace 1`) sets up once, serves one capture pass
//!   at one thread and one at `nproc` threads on fresh stacks (the
//!   counters only the captures expose, and the parallel speed-up), then
//!   alternates traced and untraced passes. It prints the per-layer
//!   metrics and the tracing overhead.
//!
//! Both runs fail their determinism gates if any modeled number differs
//! between set-ups or passes; the traced run also compares thread counts
//! and capture settings. Both finish with the workload's defect probes,
//! outside every measurement.

use crate::model::{Captured, Model};
use crate::outcome::{Failure, Outcomes};
use crate::spans::{self_time_by_name, uncovered_share, Tracer};
use crate::stats::{median, nearest_rank, sorted, tail};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Times the program is set up in a timed run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Samples the tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;
/// Largest share of a traced pass's request time that may lie outside
/// every layer span (the benchmark's own glue between public calls).
const MAX_UNCOVERED: f64 = 0.05;

/// One workload: its generated requests and how to serve and check them
/// through the program's public functions.
pub trait Workload {
    /// The program's own stack (runtime, backends, sessions, sims).
    type Sys;
    /// What serving one request returns.
    type Out;

    /// Requests per pass.
    fn len(&self) -> usize;
    /// Builds the stack, with trace/telemetry/profile capture on or off.
    fn build(&self, capture: bool) -> Self::Sys;
    /// Serves request `i` — the timed part — opening a span per public
    /// call on `tr`.
    fn serve(&self, sys: &mut Self::Sys, i: usize, tr: &mut Tracer) -> Self::Out;
    /// Folds the modeled results and captured counters of a served
    /// request into the pass totals (outside the timed window).
    fn account(
        &self,
        sys: &mut Self::Sys,
        i: usize,
        out: &Self::Out,
        model: &mut Model,
        cap: &mut Captured,
    );
    /// Compares the output with an independent host reference.
    fn check(&mut self, i: usize, out: Self::Out) -> Result<(), Failure>;
    /// Simulator events of one pass.
    fn events(&self, model: &Model, cap: &Captured) -> f64;
    /// Whether `events` needs the counters of a capture pass.
    fn events_from_capture(&self) -> bool {
        false
    }
    /// Whether the workload serves with capture on.
    fn default_capture(&self) -> bool {
        false
    }
    /// Switches capture on an existing stack (only workloads that
    /// compare capture on and off need it).
    fn set_capture(&self, _sys: &mut Self::Sys, _on: bool) {}
    /// Times the workload's innermost engine alone, where the runtime
    /// hides it from the request's spans.
    fn isolate(&self, _tr: &mut Tracer) {}
    /// Requests outside the measured ones that exercise known program
    /// defects; each should match its reference or fail with the
    /// defect's named cause.
    fn probe_defects(&self) -> Outcomes {
        Outcomes::default()
    }
}

/// Shuffles in place (Fisher–Yates).
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Runs `f` with parallel operations pinned to `threads` workers.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the thread pool builder is infallible")
        .install(f)
}

/// Host cores the process may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One pass over the request list.
#[derive(Debug, Default)]
pub struct Pass {
    /// Modeled results.
    pub model: Model,
    /// Counters from the captures (empty with capture off).
    pub cap: Captured,
    /// Request latencies, seconds.
    pub latencies: Vec<f64>,
    /// Sum of the latencies: host time spent serving requests.
    pub busy_s: f64,
}

impl Pass {
    fn rate(&self) -> f64 {
        self.latencies.len() as f64 / self.busy_s
    }
}

/// Serves every request once, checking each output outside the timed
/// window (the check is its own root span, never charged to a layer).
pub fn run_pass<W: Workload>(
    w: &mut W,
    sys: &mut W::Sys,
    tr: &mut Tracer,
    outcomes: &mut Outcomes,
) -> Pass {
    let mut pass = Pass::default();
    for i in 0..w.len() {
        tr.set_request(i as u64);
        tr.open("request");
        let t0 = Instant::now();
        let out = w.serve(sys, i, tr);
        let latency = t0.elapsed().as_secs_f64();
        tr.close();
        w.account(sys, i, &out, &mut pass.model, &mut pass.cap);
        tr.open("bench.reference");
        outcomes.record(w.check(i, out));
        tr.close();
        pass.latencies.push(latency);
    }
    pass.busy_s = pass.latencies.iter().sum();
    pass
}

/// Determinism-gate failures collected over a run.
#[derive(Debug, Default)]
pub struct Gates(Vec<String>);

impl Gates {
    fn model(&mut self, what: &str, a: &Model, b: &Model) {
        if let Some(d) = a.diff(b) {
            self.0.push(format!("{what}: {d}"));
        }
    }

    fn fail(&mut self, what: String) {
        self.0.push(what);
    }

    /// The failures, empty when every gate held.
    pub fn failures(&self) -> &[String] {
        &self.0
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Outcomes of the measured requests.
    pub measured: Outcomes,
    /// Outcomes of every other pass (setup, capture, `nproc` passes).
    pub other: Outcomes,
    /// Outcomes of the defect probes.
    pub probes: Outcomes,
    /// Determinism gates.
    pub gates: Gates,
    /// Run facts printed beside the metrics.
    pub facts: BTreeMap<&'static str, String>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Whether every output matched its reference or failed for a known
    /// cause, and every determinism gate held.
    pub fn correct(&self) -> bool {
        self.measured.all_explained()
            && self.other.all_explained()
            && self.probes.all_explained()
            && self.gates.0.is_empty()
    }
}

/// Number of passes a run of `seconds` serves, from the workload's
/// nominal pass time on the reference host. It depends on nothing
/// measured, so every run serves the same requests.
pub fn passes_for(seconds: u64, nominal_pass_s: f64) -> usize {
    ((seconds as f64 / nominal_pass_s).round() as usize).max(3)
}

/// The timed run: end-to-end metrics.
pub fn run_timed<W: Workload>(w: &mut W, passes: usize) -> Report {
    let mut r = Report::default();
    let capture = w.default_capture();
    let mut setup_s = Vec::new();
    let mut sys = None;
    let mut reference: Option<Model> = None;
    for k in 0..SETUPS {
        drop(sys.take());
        let t0 = Instant::now();
        let mut s = w.build(capture);
        let built = t0.elapsed().as_secs_f64();
        let warm = run_pass(w, &mut s, &mut Tracer::off(), &mut r.other);
        setup_s.push(built + warm.busy_s);
        match &reference {
            Some(m) => r
                .gates
                .model(&format!("setup {k} vs setup 0"), m, &warm.model),
            None => reference = Some(warm.model),
        }
        sys = Some(s);
    }
    let reference = reference.expect("at least one setup");
    let mut sys = sys.expect("at least one setup");

    let mut lat = Vec::new();
    // The timed loop: the sum of request latencies, without the checks
    // between requests.
    let mut loop_s = 0.0;
    for p in 0..passes {
        let pass = run_pass(w, &mut sys, &mut Tracer::off(), &mut r.measured);
        r.gates
            .model(&format!("timed pass {p} vs setup"), &reference, &pass.model);
        lat.extend(pass.latencies.iter().map(|s| s * 1e3));
        loop_s += pass.busy_s;
    }
    let rss = peak_rss_mib();
    drop(sys);

    let cap = if w.events_from_capture() && !capture {
        let mut s = w.build(true);
        let pass = run_pass(w, &mut s, &mut Tracer::off(), &mut r.other);
        r.gates.model(
            "capture on vs off",
            &reference.without_sinks(),
            &pass.model.without_sinks(),
        );
        pass.cap
    } else {
        Captured::default()
    };
    let events = w.events(&reference, &cap);

    let lat = sorted(&lat);
    let t =
        tail(&lat, TAIL_BEYOND).expect("three passes of a dozen requests exceed the tail minimum");
    r.push("req_per_s", lat.len() as f64 / loop_s, "1/s");
    r.push("req_p50_ms", nearest_rank(&lat, 50.0), "ms");
    r.push("req_tail_ms", t.value, "ms");
    r.push("setup_s", median(&setup_s), "s");
    r.push("peak_rss_mib", rss, "MiB");
    r.push("model_time_us", reference.ns / 1e3, "us");
    r.push("model_energy_uj", reference.nj / 1e3, "uJ");
    r.push("sim_events_per_s", events * passes as f64 / loop_s, "1/s");
    r.facts
        .insert("tail_percentile", format!("{:.3}", t.percentile));
    r.facts.insert("tail_samples_beyond", t.beyond.to_string());
    r.facts.insert("latency_samples", t.samples.to_string());
    r.facts.insert("passes", passes.to_string());
    r.facts.insert("setups", SETUPS.to_string());
    r.facts.insert("events_per_pass", events.to_string());
    r.facts.insert("model_fingerprint", reference.fingerprint());
    r.probes = w.probe_defects();
    r
}

/// How a pass of the traced loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Traced,
    Untraced,
    /// Traced with capture switched off (the capture-overhead baseline).
    TracedBare,
}

/// Host seconds per pass spent in spans of each name (self time).
#[derive(Debug, Default)]
struct Layers {
    by_name: BTreeMap<&'static str, u64>,
    passes: usize,
}

impl Layers {
    fn add(&mut self, tr: &Tracer) {
        for (k, v) in self_time_by_name(tr.spans()) {
            *self.by_name.entry(k).or_default() += v;
        }
        self.passes += 1;
    }

    /// Seconds per pass in spans named `name`.
    fn s(&self, name: &str) -> f64 {
        let ns = self.by_name.get(name).copied().unwrap_or(0);
        if self.passes == 0 {
            0.0
        } else {
            ns as f64 / 1e9 / self.passes as f64
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The traced run: per-layer metrics and the tracing overhead.
pub fn run_traced<W: Workload>(w: &mut W, passes: usize) -> Report {
    let mut r = Report::default();
    let capture = w.default_capture();
    let mut sys = w.build(capture);
    let reference = run_pass(w, &mut sys, &mut Tracer::off(), &mut r.other).model;

    // Capture passes on fresh stacks at one thread and at every core.
    let nproc = host_cores();
    let mut capture_pass = |threads: usize| {
        with_threads(threads, || {
            let mut s = w.build(true);
            run_pass(w, &mut s, &mut Tracer::off(), &mut r.other)
        })
    };
    let one = capture_pass(1);
    let all = capture_pass(nproc);
    r.gates.model(
        "capture on vs default capture",
        &reference.without_sinks(),
        &one.model.without_sinks(),
    );
    r.gates.model(
        &format!("{nproc} threads vs 1 thread"),
        &one.model,
        &all.model,
    );
    if one.cap != all.cap {
        r.gates
            .fail(format!("captured counters differ at {nproc} threads"));
    }

    let mut isolated = Tracer::on();
    w.isolate(&mut isolated);
    let isolated_run_ns: u64 = self_time_by_name(isolated.spans())
        .get("tesseract.run")
        .copied()
        .unwrap_or(0);

    let cycle: &[Kind] = if capture {
        &[Kind::Traced, Kind::Untraced, Kind::TracedBare]
    } else {
        &[Kind::Traced, Kind::Untraced]
    };
    let mut layers = Layers::default();
    let mut bare = Layers::default();
    let (mut traced_rates, mut untraced_rates) = (Vec::new(), Vec::new());
    let mut uncovered_max: f64 = 0.0;
    for p in 0..passes.max(cycle.len()) {
        let kind = cycle[p % cycle.len()];
        let mut tr = if kind == Kind::Untraced {
            Tracer::off()
        } else {
            Tracer::on()
        };
        let label = format!("traced-loop pass {p} vs setup");
        let pass = if kind == Kind::TracedBare {
            w.set_capture(&mut sys, false);
            let pass = run_pass(w, &mut sys, &mut tr, &mut r.measured);
            w.set_capture(&mut sys, true);
            let bare_model = pass.model.without_sinks();
            r.gates
                .model(&label, &reference.without_sinks(), &bare_model);
            pass
        } else {
            let pass = run_pass(w, &mut sys, &mut tr, &mut r.measured);
            r.gates.model(&label, &reference, &pass.model);
            pass
        };
        if kind != Kind::Untraced {
            let share = uncovered_share(tr.spans(), "request");
            if share > MAX_UNCOVERED {
                r.gates.fail(format!(
                    "pass {p}: {share:.3} of request time lies outside every layer span (at most {MAX_UNCOVERED})"
                ));
            }
            uncovered_max = uncovered_max.max(share);
        }
        match kind {
            Kind::Traced => {
                layers.add(&tr);
                traced_rates.push(pass.rate());
            }
            Kind::Untraced => untraced_rates.push(pass.rate()),
            Kind::TracedBare => bare.add(&tr),
        }
    }

    let m = &reference;
    let c = &one.cap;
    let jobs = c.jobs() as f64;
    let cpu_jobs = c.jobs_by_backend.get("cpu").copied().unwrap_or(0) as f64;
    let cmd = |k: &str| c.get(&format!("ambit.dram.cmd.{k}"));
    let dram_cmds = c.dram_commands();
    let issuing_s = layers.s("runtime.drain") + layers.s("tensor.eval");
    let hits = c.get("ambit.dram.ctrl.row_hit");
    let row_ops = hits + c.get("ambit.dram.ctrl.row_miss") + c.get("ambit.dram.ctrl.row_conflict");
    let supersteps = m.get("tesseract.supersteps");
    let run_s = isolated_run_ns as f64 / 1e9;
    let trace_records = m.get("sinks.trace_records");
    let mut err = c.estimate_err.clone();
    if err.is_empty() {
        err.push(0.0);
    }

    r.push("runtime.submit_s", layers.s("runtime.submit"), "s");
    r.push("runtime.drain_s", layers.s("runtime.drain"), "s");
    r.push("runtime.jobs", jobs, "count");
    r.push(
        "runtime.offload_frac",
        ratio(jobs - cpu_jobs, jobs),
        "ratio",
    );
    r.push(
        "runtime.coalesce_groups",
        c.get("ambit.coalesce.groups"),
        "count",
    );
    r.push(
        "runtime.jobs_per_group",
        ratio(
            c.get("ambit.coalesce.batch_jobs.sum"),
            c.get("ambit.coalesce.batch_jobs.n"),
        ),
        "count",
    );
    r.push(
        "runtime.queue_high_water",
        c.queue_high_water as f64,
        "count",
    );
    r.push("runtime.rejected", c.rejected as f64, "count");
    r.push("runtime.queue_wait_cycles", c.phases[0] as f64, "cycles");
    r.push("runtime.exec_cycles", c.phases[1] as f64, "cycles");
    r.push("runtime.drain_cycles", c.phases[2] as f64, "cycles");
    r.push("runtime.estimate_err_p50", median(&err), "ratio");

    r.push("dram.cmds", dram_cmds, "count");
    r.push("dram.tra", cmd("tra") + cmd("traaap"), "count");
    r.push("dram.aap", cmd("aap") + cmd("ap"), "count");
    r.push("dram.act", cmd("act"), "count");
    r.push("dram.rd", cmd("rd") + cmd("rda"), "count");
    r.push("dram.wr", cmd("wr") + cmd("wra"), "count");
    r.push("dram.cmds_per_s", ratio(dram_cmds, issuing_s), "1/s");
    r.push(
        "dram.faw_stall_cycles",
        c.get("ambit.dram.ctrl.faw_stall_cycles"),
        "cycles",
    );
    r.push(
        "dram.refresh_busy_cycles",
        c.get("ambit.dram.ctrl.refresh_busy_cycles"),
        "cycles",
    );
    r.push("dram.row_hit_frac", ratio(hits, row_ops), "ratio");
    r.push("ambit.sites", c.get("ambit.ambit.sites"), "count");
    r.push("ambit.ops", c.get("ambit.ambit.ops"), "count");
    r.push(
        "ambit.chunk_width",
        ratio(
            c.get("ambit.ambit.chunk_width.sum"),
            c.get("ambit.ambit.chunk_width.n"),
        ),
        "count",
    );
    r.push(
        "ambit.operand_mib",
        m.get("ambit.operand_bytes") / (1024.0 * 1024.0),
        "MiB",
    );

    r.push("simd.compile_s", layers.s("simd.compile"), "s");
    r.push("simd.cmds", m.get("simd.cmds"), "count");
    r.push("simd.stages", m.get("simd.stages"), "count");
    r.push("simd.splits", m.get("simd.splits"), "count");

    let tensor_jobs = c.get("tensor.jobs");
    r.push("tensor.eval_s", layers.s("tensor.eval"), "s");
    r.push("tensor.jobs", tensor_jobs, "count");
    r.push("tensor.stages", c.get("tensor.stages"), "count");
    r.push("tensor.tiles", c.get("tensor.tiles"), "count");
    r.push(
        "tensor.fused_nodes",
        c.get("tensor.fused_nodes.sum"),
        "count",
    );
    r.push(
        "tensor.fallback_frac",
        ratio(c.get("tensor.fallback_host"), tensor_jobs),
        "ratio",
    );

    r.push("tesseract.run_s", run_s, "s");
    r.push(
        "tesseract.us_per_superstep",
        ratio(run_s * 1e6, supersteps),
        "us",
    );
    r.push("tesseract.supersteps", supersteps, "count");
    r.push(
        "tesseract.edges_scanned",
        m.get("tesseract.edges_scanned"),
        "count",
    );
    r.push(
        "tesseract.msgs_remote",
        m.get("tesseract.msgs_remote"),
        "count",
    );
    r.push(
        "tesseract.remote_frac",
        ratio(m.get("tesseract.msgs_remote"), m.get("tesseract.msgs")),
        "ratio",
    );

    r.push("host.graph_model_s", layers.s("host.graph_model"), "s");
    r.push(
        "host.graph_miss_rate",
        ratio(m.get("host.graph_miss_rate_sum"), m.get("host.graph_runs")),
        "ratio",
    );
    r.push("host.cpu_jobs", cpu_jobs, "count");

    r.push("sinks.take_s", layers.s("sinks.take"), "s");
    r.push("sinks.export_s", layers.s("sinks.export"), "s");
    r.push("sinks.bytes", c.get("sinks.bytes"), "count");
    r.push("sinks.trace_records", trace_records, "count");
    r.push(
        "sinks.profile_events",
        m.get("sinks.profile_events"),
        "count",
    );
    let overhead = if bare.passes > 0 {
        ratio(layers.s("runtime.drain"), bare.s("runtime.drain")) - 1.0
    } else {
        0.0
    };
    r.push("sinks.capture_overhead_frac", overhead, "ratio");

    r.push("check.validate_s", layers.s("check.validate"), "s");
    r.push(
        "check.records_per_s",
        ratio(trace_records, layers.s("check.validate")),
        "1/s",
    );
    r.push(
        "parallel.speedup_nproc",
        ratio(one.busy_s, all.busy_s),
        "ratio",
    );
    r.push(
        "trace.overhead_frac",
        1.0 - ratio(median(&traced_rates), median(&untraced_rates)),
        "ratio",
    );
    r.push("bench.reference_s", layers.s("bench.reference"), "s");
    r.facts
        .insert("passes", passes.max(cycle.len()).to_string());
    r.facts.insert("traced_passes", layers.passes.to_string());
    r.facts.insert("nproc", nproc.to_string());
    r.facts.insert("model_fingerprint", reference.fingerprint());
    r.facts
        .insert("request_uncovered_max", format!("{uncovered_max:.4}"));
    r.probes = w.probe_defects();
    r
}
