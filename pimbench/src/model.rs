//! Modeled results of one pass over a request list.
//!
//! [`Model`] holds what the public outputs say about the simulated
//! machine — `JobReport` time/energy/commands, placement, Tesseract
//! traces, compiled-program stats — summed in request order, so it
//! repeats bit for bit. [`Captured`] holds the counters that only the
//! telemetry and profile captures expose. The determinism gates compare
//! both across passes, thread counts and capture settings.

use pim_dram::CommandKind;
use pim_profile::Profile;
use pim_runtime::{BackendStats, Completion};
use pim_telemetry::{Metric, TelemetrySink};
use std::collections::BTreeMap;

/// Keys of [`Model::counts`] that describe capture output rather than the
/// simulated machine; excluded when comparing capture-on with
/// capture-off passes.
pub const SINK_PREFIX: &str = "sinks.";

/// Modeled time, energy, simulator events and per-layer counts of one
/// pass, read from public outputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    /// Simulated nanoseconds (sum of per-request modeled times).
    pub ns: f64,
    /// Simulated nanojoules.
    pub nj: f64,
    /// Simulator events (DRAM commands or graph edges plus messages).
    pub events: u64,
    /// Modeled per-layer counts by metric key.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Model {
    /// Adds `v` to the count under `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }

    /// The count under `key` (0 when never added).
    pub fn get(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Folds one runtime completion in: time, energy, commands by kind,
    /// and where it ran.
    pub fn add_completion(&mut self, c: &Completion) {
        self.ns += c.report.ns;
        self.nj += c.report.energy.total_nj();
        self.add("runtime.completions", 1.0);
        if c.report.backend == "cpu" {
            self.add("host.cpu_completions", 1.0);
        }
        if let Some(cmds) = &c.report.commands {
            for (kind, n) in cmds.iter() {
                if n > 0 {
                    self.add(command_key(kind), n as f64);
                }
            }
        }
    }

    /// DRAM commands recorded by [`Model::add_completion`].
    pub fn dram_commands(&self) -> u64 {
        CommandKind::ALL
            .iter()
            .map(|&k| self.get(command_key(k)) as u64)
            .sum()
    }

    /// The model without capture-output counts.
    pub fn without_sinks(&self) -> Model {
        Model {
            counts: self
                .counts
                .iter()
                .filter(|(k, _)| !k.starts_with(SINK_PREFIX))
                .map(|(k, v)| (*k, *v))
                .collect(),
            ..self.clone()
        }
    }

    /// Exact comparison; lists the first differences.
    pub fn diff(&self, other: &Model) -> Option<String> {
        let mut out = Vec::new();
        if self.ns.to_bits() != other.ns.to_bits() {
            out.push(format!("ns {} vs {}", self.ns, other.ns));
        }
        if self.nj.to_bits() != other.nj.to_bits() {
            out.push(format!("nj {} vs {}", self.nj, other.nj));
        }
        if self.events != other.events {
            out.push(format!("events {} vs {}", self.events, other.events));
        }
        let keys: std::collections::BTreeSet<_> =
            self.counts.keys().chain(other.counts.keys()).collect();
        for k in keys {
            let (a, b) = (self.get(k), other.get(k));
            if a.to_bits() != b.to_bits() {
                out.push(format!("{k} {a} vs {b}"));
            }
        }
        (!out.is_empty()).then(|| out.into_iter().take(4).collect::<Vec<_>>().join("; "))
    }

    /// A stable 64-bit FNV-1a fingerprint, printed so that runs in
    /// different processes can be compared.
    pub fn fingerprint(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.ns.to_bits().to_le_bytes());
        eat(&self.nj.to_bits().to_le_bytes());
        eat(&self.events.to_le_bytes());
        for (k, v) in &self.counts {
            eat(k.as_bytes());
            eat(&v.to_bits().to_le_bytes());
        }
        format!("{h:016x}")
    }
}

/// Model key of one DRAM command kind.
pub fn command_key(kind: CommandKind) -> &'static str {
    match kind {
        CommandKind::Act => "dram.cmd.act",
        CommandKind::Pre => "dram.cmd.pre",
        CommandKind::PreAll => "dram.cmd.prea",
        CommandKind::Rd => "dram.cmd.rd",
        CommandKind::RdA => "dram.cmd.rda",
        CommandKind::Wr => "dram.cmd.wr",
        CommandKind::WrA => "dram.cmd.wra",
        CommandKind::Ref => "dram.cmd.ref",
        CommandKind::Aap => "dram.cmd.aap",
        CommandKind::Ap => "dram.cmd.ap",
        CommandKind::Tra => "dram.cmd.tra",
        CommandKind::TraAap => "dram.cmd.traaap",
    }
}

/// Counters exposed only through the telemetry and profile captures,
/// summed over a pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Captured {
    /// Telemetry series summed over instance indices. Histograms add
    /// `<name>.sum` and `<name>.n`; gauges keep `<name>.hw`, the maximum.
    pub series: BTreeMap<String, f64>,
    /// Jobs by backend, from the runtime's job spans.
    pub jobs_by_backend: BTreeMap<String, u64>,
    /// Per-job advisor error `|actual - estimate| / actual`.
    pub estimate_err: Vec<f64>,
    /// Profile job-phase sums: queue wait, execute, drain (engine cycles).
    pub phases: [u64; 3],
    /// Deepest any backend queue got.
    pub queue_high_water: u64,
    /// Cumulative `QueueFull` rejections at the end of the pass.
    pub rejected: u64,
}

impl Captured {
    /// Folds in one request's taken captures (absent with capture off)
    /// and the runtime's queue statistics after it.
    pub fn absorb(
        &mut self,
        telemetry: Option<&TelemetrySink>,
        profile: Option<&Profile>,
        stats: &[BackendStats],
    ) {
        if let Some(t) = telemetry {
            self.absorb_telemetry(t);
        }
        if let Some(p) = profile {
            self.absorb_profile(p);
        }
        for s in stats {
            self.queue_high_water = self.queue_high_water.max(s.queue_high_water as u64);
        }
        self.rejected = stats.iter().map(|s| s.rejections).sum();
    }

    fn absorb_telemetry(&mut self, sink: &TelemetrySink) {
        for (key, metric) in sink.metrics() {
            let name = key.name.as_ref();
            match metric {
                Metric::Counter(n) => self.add(name, *n as f64),
                Metric::Sum(v) => self.add(name, *v),
                Metric::Gauge { high_water, .. } => {
                    let slot = self.series.entry(format!("{name}.hw")).or_default();
                    *slot = slot.max(*high_water as f64);
                }
                Metric::Histogram { counts, total, .. } => {
                    self.add(&format!("{name}.sum"), *total as f64);
                    self.add(&format!("{name}.n"), counts.iter().sum::<u64>() as f64);
                }
            }
        }
        for span in sink.spans() {
            *self
                .jobs_by_backend
                .entry(span.backend.clone())
                .or_default() += 1;
            if span.actual_ns > 0.0 {
                self.estimate_err
                    .push((span.actual_ns - span.est_ns).abs() / span.actual_ns);
            }
        }
    }

    fn absorb_profile(&mut self, profile: &Profile) {
        for job in &profile.jobs {
            if let Some(p) = job.phases {
                self.phases[0] += p.queue_wait();
                self.phases[1] += p.execute();
                self.phases[2] += p.drain();
            }
        }
    }

    /// Adds `v` to the series `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.series.entry(name.to_string()).or_default() += v;
    }

    /// A summed series (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.series.get(name).copied().unwrap_or(0.0)
    }

    /// Jobs the runtime recorded spans for.
    pub fn jobs(&self) -> u64 {
        self.jobs_by_backend.values().sum()
    }

    /// DRAM commands the Ambit backend's device counted.
    pub fn dram_commands(&self) -> f64 {
        CommandKind::ALL
            .iter()
            .map(|&k| self.get(&format!("ambit.{}", command_key(k))))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_is_exact_and_names_the_key() {
        let mut a = Model::default();
        a.add("dram.cmd.tra", 3.0);
        let mut b = a.clone();
        assert_eq!(a.diff(&b), None);
        b.add("dram.cmd.tra", 1.0);
        assert!(a.diff(&b).unwrap().contains("dram.cmd.tra"));
        let mut c = a.clone();
        c.ns = f64::EPSILON;
        assert!(a.diff(&c).unwrap().starts_with("ns"));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn sink_counts_are_dropped_for_cross_capture_gates() {
        let mut a = Model::default();
        a.add("sinks.bytes", 10.0);
        a.add("dram.cmd.aap", 2.0);
        let b = a.without_sinks();
        assert_eq!(b.get("sinks.bytes"), 0.0);
        assert_eq!(b.get("dram.cmd.aap"), 2.0);
    }
}
