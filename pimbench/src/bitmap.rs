//! `bitmap_query` and `bitmap_observed`: bulk-bitwise analytics on a
//! CPU + Ambit (DDR3) runtime with advised placement.
//!
//! A request is one small batch, submitted together and drained once:
//! a `BitmapIndex` all-active or any-active plan over 2–8 trailing weeks,
//! four single-operation `Job::bulk` jobs small enough to coalesce
//! (1–8 rows), and one `RowCopy` or `RowInit` (the write path). Bitmaps
//! are 128 KiB to 4 MiB. Every pass holds each (bitmap size, weeks) pair
//! once, with the same write-path job, so passes differ between seeds
//! only in data, order, all-versus-any, and the operations and sizes of
//! the small jobs.
//!
//! `bitmap_observed` serves the same list with trace, telemetry and
//! profile capture on. After each request it takes the captures, builds
//! the PIMTEL01 and PIMPROF01 envelopes, encodes the PIMTRC01 trace and
//! checks it with the `pim-check` oracle.
//!
//! Outside the measured requests, both workloads probe the one known
//! defect: a 5 MiB and an 8 MiB AND on the Ambit backend, past the
//! 4 MiB (512-chunk) reach of `AmbitSystem::execute` on DDR3.

use crate::model::{Captured, Model};
use crate::outcome::{classify_ambit_mismatch, Failure, Outcomes};
use crate::runner::{shuffle, Workload};
use crate::spans::Tracer;
use pim_ambit::AmbitConfig;
use pim_check::{check_trace, CheckOptions, Trace};
use pim_core::Objective;
use pim_host::{CpuConfig, CpuModel};
use pim_profile::Profile;
use pim_runtime::{AmbitBackend, Completion, CpuBackend, Job, Placement, Runtime};
use pim_telemetry::{Snapshot, TelemetrySink};
use pim_workloads::{BitVec, BitmapIndex, BitwisePlan, BulkOp};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::sync::Arc;

/// Bitmap sizes in KiB, all within the 4 MiB (512-chunk) reach of
/// `AmbitSystem::execute` on DDR3.
const SIZES_KIB: [usize; 5] = [128, 1024, 2048, 3072, 4096];
/// Operand sizes in KiB of the defect probe, past that reach.
const PROBE_KIB: [usize; 2] = [5120, 8192];
/// Weeks per index (the trailing-window maximum).
const WEEKS: usize = 8;
/// Single-operation jobs per request.
const BULK_JOBS: usize = 4;
const BULK_OPS: [BulkOp; 7] = [
    BulkOp::Not,
    BulkOp::And,
    BulkOp::Or,
    BulkOp::Nand,
    BulkOp::Nor,
    BulkOp::Xor,
    BulkOp::Xnor,
];

/// The write-path job for each weeks value (2..=8), the same for every
/// bitmap size and seed, so the request a percentile lands on does not
/// change with the seed.
#[derive(Debug, Clone, Copy)]
enum RowKind {
    Copy { psm: bool },
    Init,
}

const ROW_KINDS: [RowKind; WEEKS - 1] = [
    RowKind::Init,
    RowKind::Copy { psm: false },
    RowKind::Copy { psm: true },
    RowKind::Init,
    RowKind::Copy { psm: false },
    RowKind::Copy { psm: true },
    RowKind::Init,
];

/// The write-path job of a request.
#[derive(Debug, Clone)]
enum RowJob {
    Copy { data: Arc<BitVec>, psm: bool },
    Init { bits: usize, ones: bool },
}

#[derive(Debug, Clone)]
struct Request {
    size: usize,
    weeks: usize,
    any: bool,
    plan: BitwisePlan,
    bulk: Vec<(BulkOp, Arc<BitVec>, Option<Arc<BitVec>>)>,
    row: RowJob,
}

/// The generated inputs plus the serving configuration.
#[derive(Debug)]
pub struct Bitmap {
    observed: bool,
    /// Week bitmaps per size class, oldest first.
    columns: Vec<Vec<Arc<BitVec>>>,
    requests: Vec<Request>,
    /// AND operands of the defect probe.
    probe: Vec<(Arc<BitVec>, Arc<BitVec>)>,
    row_bits: usize,
    chunk_limit: usize,
}

/// The program's own stack: the runtime and its two backends.
#[derive(Debug)]
pub struct Sys {
    rt: Runtime,
    capture: bool,
}

/// What one request returned.
#[derive(Debug)]
pub struct Served {
    done: Result<Vec<Completion>, String>,
    telemetry: Option<TelemetrySink>,
    profile: Option<Profile>,
    trace_records: u64,
    export_bytes: u64,
    /// The trace oracle's first violation, if any.
    oracle_violation: Option<String>,
}

/// A random bitmap with ~3/4 of the bits set (active users).
fn active_bitmap(bits: usize, rng: &mut StdRng) -> BitVec {
    let words = (0..bits / 64)
        .map(|_| rng.next_u64() | rng.next_u64())
        .collect();
    BitVec::from_words(words, bits)
}

fn random_bits(bits: usize, rng: &mut StdRng) -> Arc<BitVec> {
    let words = (0..bits / 64).map(|_| rng.next_u64()).collect();
    Arc::new(BitVec::from_words(words, bits))
}

impl Bitmap {
    /// Generates the request list for `seed`.
    pub fn generate(rng: &mut StdRng, observed: bool) -> Self {
        let spec = AmbitConfig::ddr3().spec;
        let row_bits = spec.org.row_bits() as usize;
        let chunk_limit = (spec.org.total_banks() * spec.org.subarrays) as usize;
        let mut columns: Vec<Vec<Arc<BitVec>>> = Vec::new();
        let mut plans = Vec::new();
        for kib in SIZES_KIB {
            let bits = kib * 1024 * 8;
            let weeks: Vec<BitVec> = (0..WEEKS).map(|_| active_bitmap(bits, rng)).collect();
            let index = BitmapIndex::new(weeks);
            plans.push(
                (2..=WEEKS)
                    .map(|w| (index.all_active_plan(w), index.any_active_plan(w)))
                    .collect::<Vec<_>>(),
            );
            columns.push(index.columns().iter().cloned().map(Arc::new).collect());
        }
        let mut requests = Vec::new();
        for (size, kib) in SIZES_KIB.iter().enumerate() {
            for weeks in 2..=WEEKS {
                let any = rng.gen_bool(0.5);
                let (all_plan, any_plan) = &plans[size][weeks - 2];
                let bulk = (0..BULK_JOBS)
                    .map(|_| {
                        let op = BULK_OPS[rng.gen_range(0..BULK_OPS.len())];
                        let bits = rng.gen_range(1..=8usize) * row_bits;
                        let a = random_bits(bits, rng);
                        let b = (!op.is_unary()).then(|| random_bits(bits, rng));
                        (op, a, b)
                    })
                    .collect();
                let row = match ROW_KINDS[weeks - 2] {
                    RowKind::Copy { psm } => RowJob::Copy {
                        data: Arc::clone(&columns[size][rng.gen_range(0..WEEKS)]),
                        psm,
                    },
                    RowKind::Init => RowJob::Init {
                        bits: kib * 1024 * 8,
                        ones: rng.gen_bool(0.5),
                    },
                };
                requests.push(Request {
                    size,
                    weeks,
                    any,
                    plan: if any { any_plan } else { all_plan }.clone(),
                    bulk,
                    row,
                });
            }
        }
        shuffle(&mut requests, rng);
        let probe = PROBE_KIB
            .iter()
            .map(|kib| (random_bits(kib * 8192, rng), random_bits(kib * 8192, rng)))
            .collect();
        Bitmap {
            observed,
            columns,
            requests,
            probe,
            row_bits,
            chunk_limit,
        }
    }

    fn plan_inputs(&self, req: &Request) -> &[Arc<BitVec>] {
        &self.columns[req.size][WEEKS - req.weeks..]
    }

    fn jobs(&self, req: &Request) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(2 + req.bulk.len());
        jobs.push(Job::Bitwise {
            plan: req.plan.clone(),
            inputs: self.plan_inputs(req).to_vec(),
        });
        for (op, a, b) in &req.bulk {
            jobs.push(Job::bulk(*op, Arc::clone(a), b.clone()));
        }
        jobs.push(match &req.row {
            RowJob::Copy { data, psm } => Job::RowCopy {
                data: Arc::clone(data),
                psm: *psm,
            },
            RowJob::Init { bits, ones } => Job::RowInit {
                bits: *bits,
                ones: *ones,
            },
        });
        jobs
    }

    /// Operand bytes the Ambit backend stages through its untimed
    /// `write`/`read` for job `j` of `req`: inputs in, result out.
    fn operand_bytes(&self, req: &Request, j: usize) -> f64 {
        let bytes = |v: &BitVec| v.byte_len() as f64;
        if j == 0 {
            let inputs: f64 = self.plan_inputs(req).iter().map(|v| bytes(v)).sum();
            inputs + bytes(&self.columns[req.size][0])
        } else if j <= req.bulk.len() {
            let (_, a, b) = &req.bulk[j - 1];
            bytes(a) * (2.0 + f64::from(u8::from(b.is_some())))
        } else {
            match &req.row {
                RowJob::Copy { data, .. } => 2.0 * bytes(data),
                RowJob::Init { bits, .. } => (*bits / 8) as f64,
            }
        }
    }
}

impl Workload for Bitmap {
    type Sys = Sys;
    type Out = Served;

    fn len(&self) -> usize {
        self.requests.len()
    }

    fn default_capture(&self) -> bool {
        self.observed
    }

    fn build(&self, capture: bool) -> Sys {
        let rt = Runtime::new()
            .with(Box::new(CpuBackend::new(
                "cpu",
                CpuModel::new(CpuConfig::skylake_ddr3()),
            )))
            .with(Box::new(AmbitBackend::new("ambit", AmbitConfig::ddr3())));
        let mut sys = Sys { rt, capture };
        self.set_capture(&mut sys, capture);
        sys
    }

    fn set_capture(&self, sys: &mut Sys, on: bool) {
        sys.rt.set_trace(on);
        sys.rt.set_telemetry(on);
        sys.rt.set_profile(on);
        sys.capture = on;
    }

    fn serve(&self, sys: &mut Sys, i: usize, tr: &mut Tracer) -> Served {
        let req = &self.requests[i];
        let rt = &mut sys.rt;
        let mut submitted = Ok(());
        for job in self.jobs(req) {
            let r = tr.time("runtime.submit", || {
                rt.submit(job, Placement::Advised(Objective::Time))
            });
            if let Err(e) = r {
                submitted = Err(format!("submit: {e}"));
            }
        }
        let done = tr.time("runtime.drain", || rt.drain());
        let done = submitted.and(done.map_err(|e| format!("drain: {e}")));
        let mut out = Served {
            done,
            telemetry: None,
            profile: None,
            trace_records: 0,
            export_bytes: 0,
            oracle_violation: None,
        };
        if !sys.capture {
            return out;
        }
        let (telemetry, profile, traces) = tr.time("sinks.take", || {
            (rt.take_telemetry(), rt.take_profile(), rt.take_traces())
        });
        out.trace_records = traces.iter().map(|(_, _, r)| r.len() as u64).sum();
        out.telemetry = telemetry;
        out.profile = profile;
        if !self.observed {
            return out;
        }
        let traces = tr.time("sinks.export", || {
            let snapshot = Snapshot::from_sink(out.telemetry.take().unwrap_or_default());
            out.export_bytes += snapshot.to_json_string().len() as u64;
            out.telemetry = Some(snapshot.into_sink());
            if let Some(p) = &out.profile {
                out.export_bytes += p.to_json_string().len() as u64;
            }
            let traces: Vec<Trace> = traces
                .into_iter()
                .map(|(_, spec, records)| Trace::capture(spec, records))
                .collect();
            for t in &traces {
                out.export_bytes += t.to_bytes().len() as u64;
            }
            traces
        });
        out.oracle_violation = tr.time("check.validate", || {
            traces.iter().find_map(|t| {
                check_trace(t, CheckOptions::timing_only())
                    .err()
                    .map(|v| v.to_string())
            })
        });
        out
    }

    fn account(
        &self,
        sys: &mut Sys,
        i: usize,
        out: &Served,
        model: &mut Model,
        cap: &mut Captured,
    ) {
        let req = &self.requests[i];
        if let Ok(done) = &out.done {
            for (j, c) in done.iter().enumerate() {
                model.add_completion(c);
                if c.report.backend == "ambit" {
                    model.add("ambit.operand_bytes", self.operand_bytes(req, j));
                }
            }
        }
        model.events = model.dram_commands();
        if self.observed {
            if let Some(p) = &out.profile {
                model.add("sinks.profile_events", p.events_total() as f64);
            }
            model.add("sinks.trace_records", out.trace_records as f64);
            // Envelope sizes grow with the engine clock's digits, so
            // they are a measurement, not a modeled count.
            cap.add("sinks.bytes", out.export_bytes as f64);
        }
        cap.absorb(
            out.telemetry.as_ref(),
            out.profile.as_ref(),
            &sys.rt.stats(),
        );
    }

    fn check(&mut self, i: usize, out: Served) -> Result<(), Failure> {
        let req = &self.requests[i];
        let done = out.done.map_err(Failure::Unexpected)?;
        if done.len() != 2 + req.bulk.len() {
            return Err(Failure::Unexpected(format!(
                "{} completions for {} jobs",
                done.len(),
                2 + req.bulk.len()
            )));
        }
        if let Some(v) = out.oracle_violation {
            return Err(Failure::Unexpected(format!("trace oracle: {v}")));
        }
        let mut failures = Vec::new();
        let mut expect = |c: &Completion, want: &BitVec, what: &str| {
            let failure = match c.output.bits() {
                Some(got) if got == want => return,
                Some(got) if c.report.backend == "ambit" => {
                    classify_ambit_mismatch(got, want, self.row_bits, self.chunk_limit, what)
                }
                _ => Failure::Unexpected(format!("{what} mismatch on {}", c.report.backend)),
            };
            failures.push(failure);
        };

        // The plan, against a fold of BitVec ops over the same weeks.
        let inputs = self.plan_inputs(req);
        let op = if req.any { BulkOp::Or } else { BulkOp::And };
        let want = inputs[1..]
            .iter()
            .fold((*inputs[0]).clone(), |acc, w| acc.binary(op, w));
        expect(&done[0], &want, "bitmap plan");
        for ((op, a, b), c) in req.bulk.iter().zip(&done[1..]) {
            expect(c, &BitVec::apply(*op, a, b.as_deref()), "bulk op");
        }
        let row = done.last().expect("length checked above");
        match &req.row {
            RowJob::Copy { data, .. } => expect(row, data, "row copy"),
            RowJob::Init { bits, ones: true } => expect(row, &BitVec::ones(*bits), "row init"),
            RowJob::Init { bits, ones: false } => expect(row, &BitVec::zeros(*bits), "row init"),
        }
        let unexpected = failures
            .iter()
            .position(|f| matches!(f, Failure::Unexpected(_)));
        match unexpected.or((!failures.is_empty()).then_some(0)) {
            Some(k) => Err(failures.swap_remove(k)),
            None => Ok(()),
        }
    }

    fn events(&self, model: &Model, _cap: &Captured) -> f64 {
        model.events as f64
    }

    /// ANDs the probe operands on the Ambit backend of a fresh stack and
    /// checks each result against `BitVec` ops.
    fn probe_defects(&self) -> Outcomes {
        let mut outcomes = Outcomes::default();
        let mut sys = self.build(false);
        for (a, b) in &self.probe {
            let job = Job::bulk(BulkOp::And, Arc::clone(a), Some(Arc::clone(b)));
            let result = sys
                .rt
                .submit(job, Placement::Forced("ambit".into()))
                .map_err(|e| format!("submit: {e}"))
                .and_then(|_| sys.rt.drain().map_err(|e| format!("drain: {e}")));
            let want = a.binary(BulkOp::And, b);
            outcomes.record(match result.as_deref() {
                Ok([c]) => match c.output.bits() {
                    Some(got) if *got == want => Ok(()),
                    Some(got) => Err(classify_ambit_mismatch(
                        got,
                        &want,
                        self.row_bits,
                        self.chunk_limit,
                        "probe AND",
                    )),
                    None => Err(Failure::Unexpected("probe AND returned no bits".into())),
                },
                Ok(done) => Err(Failure::Unexpected(format!(
                    "probe AND: {} completions for 1 job",
                    done.len()
                ))),
                Err(e) => Err(Failure::Unexpected(e.to_string())),
            });
        }
        outcomes
    }
}
