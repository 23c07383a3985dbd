//! `simd_tensor`: bit-serial compute in the SIMDRAM/SimplePIM style.
//!
//! Seven requests run the E12 kernels through `TensorSession::ddr3()`
//! (CPU + Ambit, advised placement): vector add, reduce_sum, a 16-bin
//! histogram, k-means assignment (placed for energy, as E12 does),
//! linear and logistic regression inference, and a 32-bit multiply the
//! advisor keeps on the host. Six more requests build an `OpGraph`
//! directly (add/sub/lt/eq/mul at 8–32 bits), compile it with
//! `pim_simd::compile_staged` and submit each stage as a
//! `Job::SimdProgram` to the session's runtime, so compile time is its
//! own span. Inputs fill one DDR3 wave (8 banks × 65536 lanes) less a
//! random sliver of up to 1/128 wave.

use crate::model::{Captured, Model};
use crate::outcome::Failure;
use crate::runner::{shuffle, Workload};
use crate::spans::Tracer;
use pim_core::Objective;
use pim_profile::Profile;
use pim_runtime::{Completion, Job, JobOutput, Placement, RuntimeError};
use pim_simd::{compile_staged, OpGraph, StageBinding, DEFAULT_SCRATCH_BUDGET};
use pim_telemetry::TelemetrySink;
use pim_tensor::{PimTensor, TensorSession};
use pim_workloads::BitSlicedIntVec;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Lanes in one bank-parallel DDR3 wave: 8 banks × 65536-bit rows.
const WAVE: usize = 8 * 65536;
/// k-means centroids over two 7-bit features (as in E12).
const CENTROIDS: [[u8; 2]; 4] = [[16, 24], [48, 80], [96, 32], [112, 112]];
/// Regression weights are powers of two (shift-adds), bias and class
/// threshold fixed (as in E12).
const WEIGHT_SHIFTS: [u32; 4] = [1, 4, 3, 5];
const BIAS: u32 = 1000;
const THRESHOLD: u32 = 8000;
/// Lanes short of a full wave: every request is one eight-chunk tile
/// whose last row is cut by up to 1/128 wave, so modeled numbers move a
/// little with the seed without changing any placement.
const JITTER: usize = WAVE / 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GraphOp {
    Add,
    Sub,
    Lt,
    Eq,
    Mul,
}

/// The directly built graphs and their operand widths. With the seven
/// kernels that makes an odd request count, so the median falls inside
/// one request's samples.
const GRAPHS: [(GraphOp, u32); 6] = [
    (GraphOp::Add, 8),
    (GraphOp::Add, 32),
    (GraphOp::Sub, 16),
    (GraphOp::Lt, 32),
    (GraphOp::Eq, 16),
    (GraphOp::Mul, 8),
];

/// One request's inputs: raw lane values (for the reference) and the
/// frontend's source tensors built from them.
#[derive(Debug)]
enum Request {
    VectorAdd {
        v: [Vec<u64>; 2],
        t: [PimTensor<u32>; 2],
    },
    ReduceSum {
        v: Vec<u64>,
        t: PimTensor<u32>,
    },
    Histogram {
        v: Vec<u64>,
        t: PimTensor<u8>,
    },
    Kmeans {
        v: [Vec<u64>; 2],
        t: [PimTensor<u8>; 2],
    },
    Linreg {
        v: [Vec<u64>; 4],
        t: [PimTensor<u8>; 4],
    },
    Logreg {
        v: [Vec<u64>; 4],
        t: [PimTensor<u8>; 4],
    },
    WideMul {
        v: [Vec<u64>; 2],
        t: [PimTensor<u32>; 2],
    },
    Graph {
        op: GraphOp,
        graph: OpGraph,
        v: [Vec<u64>; 2],
        inputs: [Arc<BitSlicedIntVec>; 2],
    },
}

/// The generated request list.
#[derive(Debug)]
pub struct Tensor {
    requests: Vec<Request>,
}

/// The program's own stack: one tensor session (its runtime serves the
/// directly built graphs too).
pub struct Sys {
    sess: TensorSession,
    capture: bool,
}

impl std::fmt::Debug for Sys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sys")
            .field("capture", &self.capture)
            .finish()
    }
}

/// Compiled-program counts of a directly built graph.
#[derive(Debug, Default)]
pub struct Compiled {
    commands: u64,
    stages: u64,
    splits: u64,
}

/// What one request returned.
#[derive(Debug)]
pub struct Served {
    values: Result<Vec<u64>, String>,
    completions: Vec<Completion>,
    compiled: Option<Compiled>,
    telemetry: Option<TelemetrySink>,
    profile: Option<Profile>,
}

fn lanes_of(rng: &mut StdRng, bits: u32) -> Vec<u64> {
    let hi = 1u64 << bits;
    let n = WAVE - rng.gen_range(0..JITTER);
    (0..n).map(|_| rng.gen_range(0..hi)).collect()
}

fn same_len(rng: &mut StdRng, n: usize, bits: u32) -> Vec<u64> {
    let hi = 1u64 << bits;
    (0..n).map(|_| rng.gen_range(0..hi)).collect()
}

fn u32s(v: &[u64]) -> PimTensor<u32> {
    PimTensor::from_u64_values(v.to_vec())
}

fn u8s(v: &[u64]) -> PimTensor<u8> {
    PimTensor::from_u64_values(v.to_vec())
}

fn build_graph(op: GraphOp, width: u32) -> OpGraph {
    let mut b = OpGraph::builder();
    let x = b.input(width);
    let y = b.input(width);
    let out = match op {
        GraphOp::Add => b.add(x, y),
        GraphOp::Sub => b.sub(x, y),
        GraphOp::Lt => b.lt(x, y),
        GraphOp::Eq => b.eq(x, y),
        GraphOp::Mul => b.mul(x, y),
    };
    b.output(out);
    b.finish()
}

/// L1 distance of the two features to a centroid, in the u8 lane.
fn l1_dist(x: &[PimTensor<u8>; 2], c: [u8; 2]) -> PimTensor<u8> {
    let d = |f: usize| {
        let c = PimTensor::<u8>::splat(c[f], x[f].len());
        x[f].lt(&c).select(&(&c - &x[f]), &(&x[f] - &c))
    };
    &d(0) + &d(1)
}

fn kmeans_expr(x: &[PimTensor<u8>; 2]) -> PimTensor<u8> {
    let lanes = x[0].len();
    let mut best_d = l1_dist(x, CENTROIDS[0]);
    let mut best_k = PimTensor::<u8>::splat(0, lanes);
    for (k, c) in CENTROIDS.iter().enumerate().skip(1) {
        let d = l1_dist(x, *c);
        let closer = d.lt(&best_d);
        best_d = closer.select(&d, &best_d);
        best_k = closer.select(&PimTensor::<u8>::splat(k as u8, lanes), &best_k);
    }
    best_k
}

fn score_expr(xs: &[PimTensor<u8>; 4]) -> PimTensor<u32> {
    let mut acc = PimTensor::<u32>::splat(BIAS, xs[0].len());
    for (x, &s) in xs.iter().zip(&WEIGHT_SHIFTS) {
        let x: PimTensor<u32> = x.widen();
        acc = &acc + &x.shl(s);
    }
    acc
}

fn score_scalar(v: &[Vec<u64>; 4], i: usize) -> u64 {
    v.iter()
        .zip(&WEIGHT_SHIFTS)
        .map(|(x, &s)| x[i] << s)
        .sum::<u64>()
        + u64::from(BIAS)
}

impl Tensor {
    /// Generates the request list for `seed`.
    pub fn generate(rng: &mut StdRng) -> Self {
        let mut requests = Vec::new();
        let pair32 = |rng: &mut StdRng| {
            let a = lanes_of(rng, 32);
            let b = same_len(rng, a.len(), 32);
            [a, b]
        };
        let v = pair32(rng);
        requests.push(Request::VectorAdd {
            t: [u32s(&v[0]), u32s(&v[1])],
            v,
        });
        let v = lanes_of(rng, 32);
        requests.push(Request::ReduceSum { t: u32s(&v), v });
        let v = lanes_of(rng, 8);
        requests.push(Request::Histogram { t: u8s(&v), v });
        let a = lanes_of(rng, 7);
        let v = [same_len(rng, a.len(), 7), a];
        requests.push(Request::Kmeans {
            t: [u8s(&v[0]), u8s(&v[1])],
            v,
        });
        for logistic in [false, true] {
            let a = lanes_of(rng, 8);
            let n = a.len();
            let v = [
                a,
                same_len(rng, n, 8),
                same_len(rng, n, 8),
                same_len(rng, n, 8),
            ];
            let t = [u8s(&v[0]), u8s(&v[1]), u8s(&v[2]), u8s(&v[3])];
            requests.push(if logistic {
                Request::Logreg { v, t }
            } else {
                Request::Linreg { v, t }
            });
        }
        let v = pair32(rng);
        requests.push(Request::WideMul {
            t: [u32s(&v[0]), u32s(&v[1])],
            v,
        });
        for (op, width) in GRAPHS {
            let a = lanes_of(rng, width);
            let v = [same_len(rng, a.len(), width), a];
            let inputs = [
                Arc::new(BitSlicedIntVec::from_values(&v[0], width)),
                Arc::new(BitSlicedIntVec::from_values(&v[1], width)),
            ];
            requests.push(Request::Graph {
                op,
                graph: build_graph(op, width),
                v,
                inputs,
            });
        }
        shuffle(&mut requests, rng);
        Tensor { requests }
    }
}

/// Runs a directly built graph: compile (staged), then one advised
/// `Job::SimdProgram` per stage, intermediates carried between stages.
fn serve_graph(
    sess: &mut TensorSession,
    graph: &OpGraph,
    inputs: &[Arc<BitSlicedIntVec>; 2],
    tr: &mut Tracer,
    out: &mut Served,
) -> Result<Vec<u64>, String> {
    let staged = tr
        .time("simd.compile", || {
            compile_staged(graph, DEFAULT_SCRATCH_BUDGET)
        })
        .map_err(|e| format!("compile: {e}"))?;
    out.compiled = Some(Compiled {
        commands: staged.commands(),
        stages: staged.stages.len() as u64,
        splits: staged.splits() as u64,
    });
    let rt = sess.runtime_mut();
    let mut produced: Vec<Vec<Arc<BitSlicedIntVec>>> = Vec::new();
    for stage in staged.stages {
        let bound = stage
            .bindings
            .iter()
            .map(|b| match *b {
                StageBinding::External(i) => Arc::clone(&inputs[i]),
                StageBinding::Intermediate { stage, output } => {
                    Arc::clone(&produced[stage][output])
                }
            })
            .collect();
        let job = Job::SimdProgram {
            program: Arc::new(stage.program),
            inputs: bound,
        };
        tr.time("runtime.submit", || {
            rt.submit(job, Placement::Advised(Objective::Time))
        })
        .map_err(|e| format!("submit: {e}"))?;
        let mut done = tr
            .time("runtime.drain", || rt.drain())
            .map_err(|e: RuntimeError| format!("drain: {e}"))?;
        let mut c = done.pop().ok_or("no completion")?;
        let outs = match std::mem::replace(&mut c.output, JobOutput::None) {
            JobOutput::Sliced(outs) => outs,
            other => return Err(format!("unexpected output {other:?}")),
        };
        produced.push(outs.into_iter().map(Arc::new).collect());
        out.completions.push(c);
    }
    let (s, o) = staged.outputs[0];
    Ok(tr.time("simd.gather", || produced[s][o].to_values()))
}

fn serve_kernel(sess: &mut TensorSession, req: &Request) -> pim_tensor::Result<Vec<u64>> {
    let wide = |v: Vec<u32>| v.into_iter().map(u64::from).collect::<Vec<_>>();
    Ok(match req {
        Request::VectorAdd { t, .. } => wide(sess.eval(&(&t[0] + &t[1]))?),
        Request::ReduceSum { t, .. } => vec![sess.sum(t)?],
        Request::Histogram { t, .. } => sess.histogram(t, 16)?,
        Request::Kmeans { t, .. } => sess
            .eval(&kmeans_expr(t))?
            .into_iter()
            .map(u64::from)
            .collect(),
        Request::Linreg { t, .. } => wide(sess.eval(&score_expr(t))?),
        Request::Logreg { t, .. } => {
            let class = score_expr(t)
                .lt(&PimTensor::<u32>::splat(THRESHOLD, t[0].len()))
                .not();
            sess.eval_mask(&class)?.into_iter().map(u64::from).collect()
        }
        Request::WideMul { t, .. } => sess.eval(&(&t[0] * &t[1]))?,
        Request::Graph { .. } => unreachable!("graphs are served by serve_graph"),
    })
}

/// The scalar reference of a request.
fn reference(req: &Request) -> Vec<u64> {
    match req {
        Request::VectorAdd { v, .. } => v[0]
            .iter()
            .zip(&v[1])
            .map(|(&a, &b)| (a + b) & 0xffff_ffff)
            .collect(),
        Request::ReduceSum { v, .. } => vec![v.iter().sum()],
        Request::Histogram { v, .. } => {
            let mut bins = vec![0u64; 16];
            for &x in v {
                bins[(x >> 4) as usize] += 1;
            }
            bins
        }
        Request::Kmeans { v, .. } => (0..v[0].len())
            .map(|i| {
                let dist = |c: &[u8; 2]| {
                    v[0][i].abs_diff(u64::from(c[0])) + v[1][i].abs_diff(u64::from(c[1]))
                };
                let mut best = 0;
                for (k, c) in CENTROIDS.iter().enumerate().skip(1) {
                    if dist(c) < dist(&CENTROIDS[best]) {
                        best = k;
                    }
                }
                best as u64
            })
            .collect(),
        Request::Linreg { v, .. } => (0..v[0].len()).map(|i| score_scalar(v, i)).collect(),
        Request::Logreg { v, .. } => (0..v[0].len())
            .map(|i| u64::from(score_scalar(v, i) >= u64::from(THRESHOLD)))
            .collect(),
        Request::WideMul { v, .. } => v[0].iter().zip(&v[1]).map(|(&a, &b)| a * b).collect(),
        Request::Graph { graph, v, .. } => graph.eval_reference(&[&v[0], &v[1]]).swap_remove(0),
    }
}

fn name(req: &Request) -> String {
    match req {
        Request::VectorAdd { .. } => "vector_add".into(),
        Request::ReduceSum { .. } => "reduce_sum".into(),
        Request::Histogram { .. } => "histogram16".into(),
        Request::Kmeans { .. } => "kmeans_assign".into(),
        Request::Linreg { .. } => "linreg".into(),
        Request::Logreg { .. } => "logreg".into(),
        Request::WideMul { .. } => "wide_mul32".into(),
        Request::Graph { op, .. } => format!("opgraph_{op:?}").to_lowercase(),
    }
}

impl Workload for Tensor {
    type Sys = Sys;
    type Out = Served;

    fn len(&self) -> usize {
        self.requests.len()
    }

    fn build(&self, capture: bool) -> Sys {
        let mut sess = TensorSession::ddr3();
        sess.set_telemetry(capture);
        sess.set_profile(capture);
        Sys { sess, capture }
    }

    fn serve(&self, sys: &mut Sys, i: usize, tr: &mut Tracer) -> Served {
        let req = &self.requests[i];
        let mut out = Served {
            values: Ok(Vec::new()),
            completions: Vec::new(),
            compiled: None,
            telemetry: None,
            profile: None,
        };
        let sess = &mut sys.sess;
        out.values = match req {
            Request::Graph { graph, inputs, .. } => serve_graph(sess, graph, inputs, tr, &mut out),
            _ => {
                let objective = match req {
                    Request::Kmeans { .. } => Objective::Energy,
                    _ => Objective::Time,
                };
                sess.config_mut().placement = Placement::Advised(objective);
                tr.time("tensor.eval", || serve_kernel(sess, req))
                    .map_err(|e| format!("eval: {e}"))
            }
        };
        if sys.capture {
            let (t, p) = tr.time("sinks.take", || {
                (sess.take_telemetry(), sess.take_profile())
            });
            out.telemetry = t;
            out.profile = p;
        }
        out
    }

    fn account(
        &self,
        sys: &mut Sys,
        _i: usize,
        out: &Served,
        model: &mut Model,
        cap: &mut Captured,
    ) {
        let (ns, nj) = sys.sess.take_modeled_cost();
        model.ns += ns;
        model.nj += nj;
        for c in &out.completions {
            model.add_completion(c);
        }
        if let Some(c) = &out.compiled {
            model.add("simd.cmds", c.commands as f64);
            model.add("simd.stages", c.stages as f64);
            model.add("simd.splits", c.splits as f64);
        }
        cap.absorb(
            out.telemetry.as_ref(),
            out.profile.as_ref(),
            &sys.sess.runtime_mut().stats(),
        );
    }

    fn check(&mut self, i: usize, out: Served) -> Result<(), Failure> {
        let req = &self.requests[i];
        let got = out
            .values
            .map_err(|e| Failure::Unexpected(format!("{}: {e}", name(req))))?;
        if got == reference(req) {
            Ok(())
        } else {
            Err(Failure::Unexpected(format!(
                "{} output mismatch",
                name(req)
            )))
        }
    }

    fn events(&self, _model: &Model, cap: &Captured) -> f64 {
        cap.dram_commands()
    }

    fn events_from_capture(&self) -> bool {
        true
    }
}
