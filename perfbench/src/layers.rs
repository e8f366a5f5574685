//! Per-layer numbers of one traced replay.
//!
//! Host time per layer comes from the simulator's own phase profiler: the
//! self time of every phase is summed by phase name over the call tree and
//! grouped into the repository's modules. Simulated per-hop numbers come
//! from the simulator's public getters, with every node put in one hop
//! class.

use std::collections::BTreeSet;

use gcopss_sim::prof::ProfReport;
use gcopss_sim::{NodeId, SimTime};

use crate::workloads::Prepared;

/// The host-time layer a profiler phase belongs to, by the phase's name.
fn layer_of(phase: &str) -> Option<&'static str> {
    let module = phase.split('/').next().unwrap_or(phase);
    Some(match phase {
        "engine/pop" | "engine/insert" => "engine.queue",
        "engine/run" | "engine/start" | "engine/arrival" | "engine/service" | "engine/resume"
        | "engine/timer" => "engine.dispatch",
        "engine/transmit" => "engine.transmit",
        "engine/fault" => "fault",
        "engine/overload" => "overload",
        "engine/telemetry" | "engine/timeseries" | "engine/lineage" => "obs",
        _ if module == "copss" => "copss",
        _ if module == "ndn" => "ndn",
        _ if module == "broker" => "broker",
        _ if module.ends_with("_client") => "client",
        _ => return None,
    })
}

/// Hop classes of the simulated network, in the order a link takes the
/// class of its higher-ranked endpoint.
pub const HOP_CLASSES: [&str; 5] = ["host", "broker", "rp", "edge", "core"];

/// Self-time totals of one profile.
pub struct Profile<'a> {
    report: &'a ProfReport,
    self_sum: u64,
}

impl<'a> Profile<'a> {
    /// Wraps a report.
    pub fn new(report: &'a ProfReport) -> Self {
        Self {
            report,
            self_sum: report.self_sum_ns(),
        }
    }

    /// All self time in the tree, nanoseconds.
    pub fn self_sum_ns(&self) -> u64 {
        self.self_sum
    }

    fn select(&self, pred: impl Fn(&str) -> bool) -> (u64, u64) {
        self.report
            .phases
            .iter()
            .filter(|p| pred(&p.name))
            .fold((0, 0), |(calls, ns), p| (calls + p.calls, ns + p.self_ns))
    }

    /// `(calls, self ns)` of one phase name over the whole tree.
    pub fn phase(&self, name: &str) -> (u64, u64) {
        self.select(|n| n == name)
    }

    /// Share of all self time spent in `layer` (see [`layer_of`]).
    pub fn share(&self, layer: &str) -> f64 {
        let (_, ns) = self.select(|n| layer_of(n) == Some(layer));
        ratio(ns as f64, self.self_sum as f64)
    }

    /// Self nanoseconds per call of one phase name.
    pub fn ns_per_call(&self, name: &str) -> f64 {
        let (calls, ns) = self.phase(name);
        ratio(ns as f64, calls as f64)
    }
}

/// Per-class totals of the simulated network.
#[derive(Debug, Clone, Copy, Default)]
pub struct HopClass {
    /// Nodes in the class.
    pub nodes: u64,
    /// Mean fraction of simulated time a node of the class was serving.
    pub busy_share: f64,
    /// Largest service queue any node of the class saw.
    pub max_queue: u64,
    /// Bytes carried by the links of the class, in GB.
    pub gb: f64,
}

/// Splits the simulated network's busy time, queues and bytes by hop class.
///
/// Hosts are the players, brokers the extra hosts, `rp` the routers that
/// host the initial RPs, `core` the remaining RP-pool routers and `edge`
/// every other router.
pub fn hop_classes(p: &Prepared) -> [HopClass; 5] {
    let b = &p.built;
    let sim = &b.sim;
    let hosts: BTreeSet<NodeId> = b.player_nodes.iter().copied().collect();
    let brokers: BTreeSet<NodeId> = b.extra_nodes.iter().copied().collect();
    let rps: BTreeSet<NodeId> = b.rp_nodes.values().copied().collect();
    let core: BTreeSet<NodeId> = p.net.rp_pool_preview().into_iter().collect();
    let class_of = |n: NodeId| -> usize {
        if hosts.contains(&n) {
            0
        } else if brokers.contains(&n) {
            1
        } else if rps.contains(&n) {
            2
        } else if core.contains(&n) {
            4
        } else {
            3
        }
    };
    let elapsed = sim
        .now()
        .saturating_duration_since(SimTime::ZERO)
        .as_nanos() as f64;
    let mut out = [HopClass::default(); 5];
    let mut busy = [0f64; 5];
    let topo = sim.topology();
    for n in topo.node_ids() {
        let c = &mut out[class_of(n)];
        c.nodes += 1;
        c.max_queue = c.max_queue.max(sim.node_max_queue(n) as u64);
        busy[class_of(n)] += sim.node_busy_time(n).as_nanos() as f64;
    }
    for l in 0..topo.link_count() {
        let link = gcopss_sim::LinkId(l as u32);
        let (a, b) = topo.link_endpoints(link);
        let class = class_of(a).min(class_of(b));
        out[class].gb += sim.link_bytes(link) as f64 / 1e9;
    }
    for (c, busy) in out.iter_mut().zip(busy) {
        c.busy_share = ratio(busy, c.nodes as f64 * elapsed);
    }
    out
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
