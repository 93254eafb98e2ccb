//! One run's results and the per-layer numbers read from the stack's
//! public counters, the engine profiler and `critpath`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use suca_sim::critpath::{analyze, bottleneck_report};
use suca_sim::{MetricsSnapshot, ProfReport, RunOutcome, Sim};

use crate::spans::{totals, NameTotals, Span};
use crate::stats::median;

/// One named value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples a latency rests on.
    pub samples: Option<u64>,
}

/// Everything one run of one workload produces. `virt` holds only
/// virtual-time quantities and deterministic counts, which repeat exactly
/// at a fixed seed and must match between traced and untraced runs.
#[derive(Default)]
pub struct Report {
    /// Host-time end-to-end metrics.
    pub host: BTreeMap<String, Metric>,
    /// Virtual-time metrics.
    pub virt: BTreeMap<String, Metric>,
    /// Per-layer metrics (traced run only).
    pub layer: BTreeMap<String, Metric>,
    /// Correctness checks: name -> failure detail (empty when passed).
    pub checks: BTreeMap<String, String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
}

impl Report {
    /// Record a host-time metric.
    pub fn host(&mut self, name: &str, value: f64, unit: &'static str) {
        let m = Metric {
            value,
            unit,
            samples: None,
        };
        self.host.insert(name.to_string(), m);
    }

    /// Record a virtual-time metric with its sample count.
    pub fn virt(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<u64>) {
        let m = Metric {
            value,
            unit,
            samples,
        };
        self.virt.insert(name.to_string(), m);
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        let m = Metric {
            value,
            unit,
            samples: None,
        };
        self.layer.insert(name.to_string(), m);
    }

    /// Record a check; `ok == false` stores `detail`.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let d = if ok { String::new() } else { detail() };
        // A check evaluated more than once keeps its first failure.
        let e = self.checks.entry(name.to_string()).or_default();
        if e.is_empty() {
            *e = d;
        }
    }

    /// One-line JSON for the orchestrating script.
    pub fn to_json(&self, workload: &str, seed: u64, traced: bool) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        fn map(out: &mut String, key: &str, m: &BTreeMap<String, Metric>) {
            let _ = write!(out, "\"{key}\": {{");
            for (i, (k, v)) in m.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let n = v.samples.map_or("null".to_string(), |n| n.to_string());
                let _ = write!(
                    out,
                    "{sep}\"{k}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {n}}}",
                    num(v.value),
                    v.unit
                );
            }
            out.push('}');
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"traced\": {traced}, \
             \"attempted\": {}, \"failed\": {}, ",
            self.attempted, self.failed
        );
        map(&mut out, "host", &self.host);
        out.push_str(", ");
        map(&mut out, "virt", &self.virt);
        out.push_str(", ");
        map(&mut out, "layer", &self.layer);
        out.push_str(", \"checks\": {");
        for (i, (k, v)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = v.replace('\\', "\\\\").replace('"', "'");
            let _ = write!(out, "{sep}\"{k}\": \"{v}\"");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set of this process, MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Stages whose per-message self time is reported, with their metric
/// names.
const STAGES: [(&str, &str); 9] = [
    ("api:send", "api_send"),
    ("kernel:trap_enter", "kernel_trap_enter"),
    ("kernel:pin", "kernel_pin"),
    ("kernel:pio", "kernel_pio"),
    ("mcp:inject", "mcp_inject"),
    ("wire:hop", "wire_hop"),
    ("dma:data", "dma_data"),
    ("dma:cq", "dma_cq"),
    ("api:poll_recv", "api_poll_recv"),
];

/// Messages up to this size count as small; larger ones as large.
const SMALL_MAX_BYTES: u64 = 1024;

/// Per-message stage self time of one size bucket, summed.
#[derive(Default)]
struct Bucket {
    msgs: u64,
    wait_ns: u64,
    self_ns: BTreeMap<&'static str, u64>,
}

/// Engine, observability and lower-layer work summed over every
/// simulation of a run (a run simulates several seeds).
#[derive(Default)]
pub struct Layers {
    counters: BTreeMap<String, u64>,
    queue_high_water: u64,
    events: u64,
    dispatch_count: [u64; 3],
    dispatch_ns: [u64; 3],
    allocs: u64,
    alloc_bytes: u64,
    locks: u64,
    samples: u64,
    probes: u64,
    buckets: [Bucket; 2],
    /// Wall time of each simulation's `Sim::run`, s.
    runs: Vec<f64>,
    /// CPU time of each simulation's set-up (`build` and every
    /// `spawn_process`) on the calling thread, s.
    pub setups: Vec<f64>,
    /// CPU time of `ClusterSpec::build` on the calling thread, s.
    pub build_s: f64,
    /// Processes spawned.
    pub actors: u64,
    /// Summed CPU time of the `spawn_process` calls on the calling
    /// thread, ns.
    pub spawn_ns: u64,
    /// Useful payload bytes delivered.
    pub payload_bytes: u64,
}

impl Layers {
    /// Add one finished simulation: its counters, its profiler report and
    /// its message trace.
    pub fn add_sim(&mut self, sim: &Sim, snap: &MetricsSnapshot, prof: &ProfReport) {
        for (k, v) in &snap.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        let hw = snap
            .gauges
            .get("rpc.srv_queue_depth")
            .map_or(0, |g| g.high_water);
        self.queue_high_water = self.queue_high_water.max(hw);
        self.events += sim.events_dispatched();
        for i in 0..3 {
            self.dispatch_count[i] += prof.dispatch_count[i];
            self.dispatch_ns[i] += prof.dispatch_ns[i];
        }
        self.allocs += prof.alloc_count.iter().sum::<u64>();
        self.alloc_bytes += prof.alloc_bytes.iter().sum::<u64>();
        self.locks += prof.lock_acquisitions;
        self.samples += sim.timeseries().samples_taken();
        self.probes = self.probes.max(sim.timeseries().probe_count() as u64);
        let report = bottleneck_report(&analyze(&sim.trace_events()));
        for b in &report.buckets {
            let acc = &mut self.buckets[usize::from(b.max_bytes > SMALL_MAX_BYTES)];
            acc.msgs += b.messages as u64;
            acc.wait_ns += b.wait_ns;
            for (stage, _) in STAGES {
                *acc.self_ns.entry(stage).or_default() +=
                    b.stage_self_ns.get(stage).copied().unwrap_or(0);
            }
        }
    }

    /// `Sim::run`, timed on the wall clock.
    pub fn run(&mut self, sim: &Sim) -> RunOutcome {
        let wall = Instant::now();
        let outcome = sim.run();
        self.runs.push(wall.elapsed().as_secs_f64());
        outcome
    }

    /// The host-time end-to-end metrics. `host_s` is the simulations'
    /// count times their median `Sim::run` wall time: the work of the
    /// whole run, with a simulation that a hiccup on the host slowed
    /// counting no more than a typical one.
    pub fn host_metrics(&self, r: &mut Report) {
        r.host("host_s", median(&self.runs) * self.runs.len() as f64, "s");
        r.host("setup_s", median(&self.setups), "s");
        r.host("peak_rss_mb", peak_rss_mb(), "MB");
    }

    fn c(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Emit every engine, observability, lower-layer and RPC counter
    /// metric.
    pub fn emit(&self, r: &mut Report) {
        let c = |n: &str| self.c(n);
        let events = self.events as f64;
        r.layer("sim.events", events, "count");
        r.layer(
            "sim.host_ns_per_event",
            ratio(self.runs.iter().sum::<f64>() * 1e9, events),
            "ns",
        );
        for (i, kind) in ["calls", "wakes", "polls"].iter().enumerate() {
            r.layer(
                &format!("sim.{kind}"),
                self.dispatch_count[i] as f64,
                "count",
            );
        }
        r.layer("sim.call_host_ns", self.dispatch_ns[0] as f64, "ns");
        r.layer("sim.wake_host_ns", self.dispatch_ns[1] as f64, "ns");
        r.layer("sim.poll_host_ns", self.dispatch_ns[2] as f64, "ns");
        r.layer(
            "sim.allocs_per_event",
            ratio(self.allocs as f64, events),
            "count",
        );
        r.layer(
            "sim.alloc_bytes_per_event",
            ratio(self.alloc_bytes as f64, events),
            "B",
        );
        r.layer(
            "sim.locks_per_event",
            ratio(self.locks as f64, events),
            "count",
        );
        r.layer("sim.actors", self.actors as f64, "count");
        r.layer(
            "sim.spawn_host_ns",
            ratio(self.spawn_ns as f64, self.actors as f64),
            "ns",
        );
        r.layer("cluster.build_host_s", self.build_s, "s");

        r.layer("obs.samples", self.samples as f64, "count");
        r.layer("obs.probes", self.probes as f64, "count");
        r.layer("obs.health_evals", c("health.evals"), "count");

        r.layer("os.interrupts", c("os.interrupts"), "count");
        let (hits, misses) = (c("kmod.pin_hits"), c("kmod.pin_misses"));
        r.layer("kmod.pin_hit_ratio", ratio(hits, hits + misses), "ratio");
        r.layer("kmod.pin_evictions", c("kmod.pin_evictions"), "count");
        r.layer(
            "pci.pio_descriptors_per_send",
            ratio(c("kmod.pio_descriptors"), c("os.traps")),
            "count",
        );
        r.layer(
            "dma.busy_ns_per_transfer",
            ratio(c("dma.host.busy_ns"), c("dma.host.transfers")),
            "ns",
        );
        r.layer(
            "bcl.retx_frac",
            ratio(c("bcl.retx_packets"), c("fabric.injected")),
            "ratio",
        );
        r.layer("bcl.timeouts", c("bcl.timeouts"), "count");
        r.layer("bcl.rx_discarded", c("bcl.rx_discarded"), "count");
        r.layer(
            "mcp.completion_dmas_per_msg",
            ratio(c("mcp.completion_dmas"), c("kmod.pio_descriptors")),
            "count",
        );
        r.layer(
            "fabric.wire_bytes_per_payload_byte",
            ratio(c("link.tx_bytes"), self.payload_bytes as f64),
            "ratio",
        );
        r.layer("fabric.dropped", c("fabric.dropped"), "count");
        r.layer(
            "switch.drops",
            sum_switch_drops(&self.counters) as f64,
            "count",
        );

        for (b, bucket) in ["small", "large"].iter().zip(&self.buckets) {
            let per = |ns: u64| ratio(ns as f64, bucket.msgs as f64) / 1e3;
            r.layer(&format!("stage.{b}.msgs"), bucket.msgs as f64, "count");
            for (stage, name) in STAGES {
                let ns = bucket.self_ns.get(stage).copied().unwrap_or(0);
                r.layer(&format!("stage.{b}.{name}_us"), per(ns), "us");
            }
            r.layer(&format!("stage.{b}.wait_us"), per(bucket.wait_ns), "us");
        }

        r.layer("rpc.srv_sheds", c("rpc.srv_sheds"), "count");
        r.layer("rpc.cli_retries", c("rpc.cli_retries"), "count");
        r.layer("rpc.cli_timeout", c("rpc.cli_timeout"), "count");
        r.layer(
            "rpc.srv_queue_high_water",
            self.queue_high_water as f64,
            "count",
        );
        r.layer(
            "rpc.srv_scratch_stalls",
            c("rpc.srv_scratch_stalls"),
            "count",
        );
        let (inline, rma) = (c("rpc.srv_inline_responses"), c("rpc.srv_rma_responses"));
        r.layer("rpc.rma_share", ratio(rma, inline + rma), "ratio");
        r.layer(
            "pubsub.fanout_throttled",
            c("pubsub.fanout_throttled"),
            "count",
        );
        r.layer("pubsub.fanout_shed", c("pubsub.fanout_shed"), "count");
    }
}

/// Drops at any switch in a counter map, summed over drop causes.
fn sum_switch_drops<'a>(counters: impl IntoIterator<Item = (&'a String, &'a u64)>) -> u64 {
    counters
        .into_iter()
        .filter(|(k, _)| k.starts_with("switch.") && k.ends_with("drop"))
        .map(|(_, v)| *v)
        .sum()
}

/// Drops at any switch in one simulation.
pub fn switch_drops(snap: &MetricsSnapshot) -> u64 {
    sum_switch_drops(&snap.counters)
}

/// Span-derived per-layer metrics. Names absent from the span set read 0.
pub fn span_layers(r: &mut Report, spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let t = totals(spans);
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    r.layer("bcl.send_us", get("bcl.send").virt_us(), "us");
    r.layer("bcl.send_host_ns", get("bcl.send").host_ns_mean(), "ns");
    r.layer("bcl.recv_wait_us", get("bcl.wait_recv").virt_us(), "us");
    r.layer("rpc.issue_host_ns", get("rpc.issue").host_ns_mean(), "ns");
    r.layer("rpc.pump_host_ns", get("rpc.pump").host_ns_mean(), "ns");
    for tenant in ["kv", "pubsub", "pipeline"] {
        let name = format!("rpc.handler.{tenant}");
        let h = t
            .iter()
            .find(|(k, _)| **k == name)
            .map(|(_, v)| *v)
            .unwrap_or_default();
        r.layer(&format!("rpc.handler_us.{tenant}"), h.virt_us(), "us");
    }
    let handlers: Vec<NameTotals> = t
        .iter()
        .filter(|(k, _)| k.starts_with("rpc.handler."))
        .map(|(_, v)| *v)
        .collect();
    let (n, host): (u64, u64) = handlers
        .iter()
        .fold((0, 0), |(n, h), v| (n + v.count, h + v.host_ns));
    r.layer("rpc.handler_host_ns", ratio(host as f64, n as f64), "ns");
    r.layer("bench.loop_self_us", get("bench.round").self_us(), "us");
    t
}
