//! `graph_tesseract`: the five Tesseract kernels (ATF, conductance,
//! PageRank, SSSP, vertex cover) on R-MAT graphs of scales 12 to 16
//! (degree 16). Each request submits one `Job::GraphBatch` to a
//! Tesseract runtime, drains it, and prices the returned execution
//! trace on the DDR3 out-of-order `HostGraphModel`, as E5 does.

use crate::model::{Captured, Model};
use crate::outcome::Failure;
use crate::runner::{shuffle, Workload};
use crate::spans::Tracer;
use pim_core::Objective;
use pim_profile::Profile;
use pim_runtime::{Completion, Job, JobOutput, Placement, Runtime, TesseractBackend};
use pim_telemetry::TelemetrySink;
use pim_tesseract::{
    HostGraphConfig, HostGraphModel, HostGraphReport, KernelOutput, TesseractConfig, TesseractSim,
};
use pim_workloads::{kernels, Graph, KernelKind};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// R-MAT scales of the graphs in every pass. An odd request count (five
/// kernels on five graphs) puts the median inside one request's
/// samples rather than on the boundary between two.
const SCALES: [u32; 5] = [12, 13, 14, 15, 16];
const DEGREE: usize = 16;
/// PageRank iterations and SSSP source the engine's standard kernels use.
const PAGERANK_ITERS: u32 = 10;
const SSSP_SOURCE: u32 = 0;

/// The generated graphs and request list.
#[derive(Debug)]
pub struct Tesseract {
    graphs: Vec<Arc<Graph>>,
    requests: Vec<(KernelKind, usize)>,
    references: BTreeMap<(usize, usize), KernelOutput>,
}

/// The program's own stack: the Tesseract runtime and the host model.
#[derive(Debug)]
pub struct Sys {
    rt: Runtime,
    host: HostGraphModel,
    capture: bool,
}

/// What one request returned.
#[derive(Debug)]
pub struct Served {
    done: Result<Completion, String>,
    host: Option<HostGraphReport>,
    telemetry: Option<TelemetrySink>,
    profile: Option<Profile>,
}

fn kernel_index(k: KernelKind) -> usize {
    KernelKind::ALL
        .iter()
        .position(|&x| x == k)
        .expect("every kernel is listed")
}

/// The host reference for one kernel, from `pim_workloads::kernels`.
fn reference(k: KernelKind, g: &Graph) -> KernelOutput {
    match k {
        KernelKind::AverageTeenageFollower => {
            let (counts, avg) = kernels::average_teenage_followers(g);
            KernelOutput::TeenCounts(counts, avg)
        }
        KernelKind::Conductance => KernelOutput::Conductance(kernels::conductance(g)),
        KernelKind::PageRank => KernelOutput::Ranks(kernels::pagerank(g, PAGERANK_ITERS)),
        KernelKind::Sssp => KernelOutput::Distances(kernels::sssp(g, SSSP_SOURCE)),
        KernelKind::VertexCover => KernelOutput::Cover(kernels::vertex_cover(g)),
    }
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}

/// Compares an engine output with the reference. Floating-point results
/// may differ in summation order, so they match within a tolerance; a
/// vertex cover is checked for validity, since any maximal matching's
/// endpoints are a correct answer.
fn matches(got: &KernelOutput, want: &KernelOutput, g: &Graph) -> bool {
    match (got, want) {
        (KernelOutput::TeenCounts(c, a), KernelOutput::TeenCounts(rc, ra)) => {
            c == rc && close(*a, *ra, 1e-12)
        }
        (KernelOutput::Conductance(c), KernelOutput::Conductance(rc)) => close(*c, *rc, 1e-12),
        (KernelOutput::Ranks(r), KernelOutput::Ranks(rr)) => {
            r.len() == rr.len() && r.iter().zip(rr).all(|(a, b)| close(*a, *b, 1e-9))
        }
        (KernelOutput::Distances(d), KernelOutput::Distances(rd)) => d == rd,
        (KernelOutput::Cover(c), KernelOutput::Cover(_)) => {
            c.len() == g.num_vertices()
                && g.edges()
                    .all(|(u, v)| u == v || c[u as usize] || c[v as usize])
        }
        _ => false,
    }
}

impl Tesseract {
    /// Generates the graphs and request list for `seed`.
    pub fn generate(rng: &mut StdRng) -> Self {
        let graphs: Vec<Arc<Graph>> = SCALES
            .iter()
            .map(|&s| Arc::new(Graph::rmat(s, DEGREE, rng)))
            .collect();
        let mut requests: Vec<(KernelKind, usize)> = (0..graphs.len())
            .flat_map(|g| KernelKind::ALL.into_iter().map(move |k| (k, g)))
            .collect();
        shuffle(&mut requests, rng);
        Tesseract {
            graphs,
            requests,
            references: BTreeMap::new(),
        }
    }
}

impl Workload for Tesseract {
    type Sys = Sys;
    type Out = Served;

    fn len(&self) -> usize {
        self.requests.len()
    }

    fn build(&self, capture: bool) -> Sys {
        let mut rt = Runtime::new().with(Box::new(TesseractBackend::new(
            "tesseract",
            TesseractConfig::isca2015(),
        )));
        rt.set_telemetry(capture);
        rt.set_profile(capture);
        Sys {
            rt,
            host: HostGraphModel::new(HostGraphConfig::ddr3_ooo()),
            capture,
        }
    }

    fn serve(&self, sys: &mut Sys, i: usize, tr: &mut Tracer) -> Served {
        let (kernel, g) = self.requests[i];
        let graph = &self.graphs[g];
        let rt = &mut sys.rt;
        let job = Job::GraphBatch {
            kernel,
            graph: Arc::clone(graph),
        };
        let submitted = tr.time("runtime.submit", || {
            rt.submit(job, Placement::Advised(Objective::Time))
        });
        let done = tr.time("runtime.drain", || rt.drain());
        let done = match (submitted, done) {
            (Ok(_), Ok(mut d)) if d.len() == 1 => Ok(d.pop().expect("one completion")),
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
            (_, Ok(d)) => Err(format!("{} completions for one job", d.len())),
        };
        let host = match &done {
            Ok(Completion {
                output: JobOutput::Graph(run),
                ..
            }) => Some(tr.time("host.graph_model", || sys.host.run(&run.trace, graph))),
            _ => None,
        };
        let (telemetry, profile) = if sys.capture {
            tr.time("sinks.take", || (rt.take_telemetry(), rt.take_profile()))
        } else {
            (None, None)
        };
        Served {
            done,
            host,
            telemetry,
            profile,
        }
    }

    fn account(
        &self,
        sys: &mut Sys,
        _i: usize,
        out: &Served,
        model: &mut Model,
        cap: &mut Captured,
    ) {
        if let Ok(c) = &out.done {
            model.add_completion(c);
            if let JobOutput::Graph(run) = &c.output {
                let t = run.trace.totals();
                model.events += t.edges_scanned + t.msgs_in();
                model.add("tesseract.supersteps", run.trace.supersteps.len() as f64);
                model.add("tesseract.edges_scanned", t.edges_scanned as f64);
                model.add("tesseract.msgs", t.msgs_in() as f64);
                model.add("tesseract.msgs_remote", t.msgs_in_remote as f64);
            }
        }
        if let Some(h) = &out.host {
            model.add("host.graph_runs", 1.0);
            model.add("host.graph_miss_rate_sum", h.miss_rate);
            model.add("host.graph_model_ns", h.ns);
        }
        cap.absorb(
            out.telemetry.as_ref(),
            out.profile.as_ref(),
            &sys.rt.stats(),
        );
    }

    fn check(&mut self, i: usize, out: Served) -> Result<(), Failure> {
        let (kernel, g) = self.requests[i];
        let c = out.done.map_err(Failure::Unexpected)?;
        let JobOutput::Graph(run) = c.output else {
            return Err(Failure::Unexpected(format!("{kernel}: not a graph output")));
        };
        let graph = &self.graphs[g];
        let want = self
            .references
            .entry((kernel_index(kernel), g))
            .or_insert_with(|| reference(kernel, graph));
        if matches(&run.output, want, graph) {
            Ok(())
        } else {
            Err(Failure::Unexpected(format!(
                "{kernel} on R-MAT-{} differs from the host reference",
                SCALES[g]
            )))
        }
    }

    fn events(&self, model: &Model, _cap: &Captured) -> f64 {
        model.events as f64
    }

    /// Times the Tesseract engine alone: `TesseractSim::run` on every
    /// request, outside the runtime.
    fn isolate(&self, tr: &mut Tracer) {
        let sim = TesseractSim::new(TesseractConfig::isca2015());
        for (i, &(kernel, g)) in self.requests.iter().enumerate() {
            tr.set_request(i as u64);
            let (out, _, _) = tr.time("tesseract.run", || sim.run(kernel, &self.graphs[g]));
            std::hint::black_box(out);
        }
    }
}
