//! A deterministic discrete-event network simulator for G-COPSS.
//!
//! The paper evaluates G-COPSS on a small lab testbed (for microbenchmarks)
//! and on a trace-driven simulator parameterized by those microbenchmarks
//! (§V). This crate is that simulator, built from scratch:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`Topology`] — nodes and bidirectional links with propagation delay and
//!   optional bandwidth; generators for the paper's 6-router benchmark
//!   topology and a Rocketfuel-like backbone (79 core routers).
//! * [`RoutingTable`] — all-pairs shortest-path next hops (Dijkstra over
//!   link weights), standing in for the routing underlay.
//! * [`Simulator`] — the event loop. Every node is a [`NodeBehavior`]: a
//!   state machine that receives packets and timers and emits sends. Every
//!   packet is a [`SimPacket`]: it reports its wire size and classifies
//!   itself for telemetry, lineage and overload control. Nodes
//!   are single-server FIFO queues (per-packet service time), links add
//!   propagation delay plus serialization time when bandwidth is finite —
//!   exactly the two latency sources the paper measures (processing and
//!   queueing). Every drop, whoever causes it, is counted once in an
//!   always-on drop ledger ([`Simulator::drop_count`]).
//! * [`fault`] — deterministic fault injection: a seeded chaos schedule of
//!   link/node failures and repairs plus per-hop Bernoulli loss, with
//!   routing recomputed over the surviving subgraph after every change and
//!   behaviors notified through [`NodeBehavior::on_fault`].
//! * [`overload`] — overload control: bounded per-node service queues with
//!   drop-tail or CoDel-style sojourn AQM admission, priority
//!   classes (control preempts bulk, stale superseded updates shed first),
//!   and congestion marks surfaced to behaviors via
//!   [`Ctx::congestion_marked`]; installed via
//!   [`Simulator::install_overload`], vacuous configs are byte-identical
//!   no-ops.
//! * [`metrics`] — latency recorders, CDFs and link-load accounting used to
//!   regenerate the paper's tables and figures.
//! * [`telemetry`] — per-node/per-link counters, log-scale histograms, a
//!   bounded deterministic packet-trace journal (exportable as Chrome
//!   trace-event JSON for Perfetto), and a periodic time-series sampler,
//!   fed automatically by the engine when enabled via
//!   [`Simulator::enable_telemetry`] / [`Simulator::enable_timeseries`].
//! * [`lineage`] — per-message causal span tracing (origin, hops, fan-out,
//!   drops, terminal deliveries) plus a post-run delivery auditor that
//!   classifies every `(message, subscriber)` pair; enabled via
//!   [`Simulator::enable_lineage`].
//! * [`stream`] — in-simulation streaming metrics: windowed counters, EWMA
//!   gauges and space-saving heavy-hitter sketches rolled at a simulated
//!   tick, fed and read back by behaviors through [`Ctx`] so adaptive
//!   policies (RP balancing, per-prefix caching) can act on live signals;
//!   installed via [`Simulator::install_streams`], vacuous configs are
//!   byte-identical no-ops.
//! * [`prof`] — self-profiling of the simulator itself: a hierarchical
//!   phase profiler over a monotonic clock, instrumenting the event loop
//!   and every engine's dispatch path; reports a hot-loop time-attribution
//!   table and a counts-only determinism fingerprint.
//!
//! The simulator is fully deterministic: no wall-clock time, no random
//! iteration order, and ties in the event queue are broken by insertion
//! sequence number.
//!
//! # Example
//!
//! A two-node hop: a packet injected at `a` is forwarded to `b`, which
//! records its arrival time in the shared world state. A packet type only
//! has to report its wire size; [`SimPacket`]'s other methods default to
//! an unclassified, untraced control-class packet.
//!
//! ```
//! use gcopss_sim::{
//!     Ctx, NodeBehavior, NodeId, SimDuration, SimPacket, SimTime, Simulator, Topology,
//! };
//!
//! struct Ping;
//! impl SimPacket for Ping {
//!     fn wire_size(&self) -> u32 {
//!         100
//!     }
//! }
//!
//! struct Forward(NodeId);
//! impl NodeBehavior<Ping, Vec<u64>> for Forward {
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_, Ping, Vec<u64>>, _from: Option<NodeId>, pkt: Ping) {
//!         ctx.send(self.0, pkt);
//!     }
//! }
//!
//! struct Sink;
//! impl NodeBehavior<Ping, Vec<u64>> for Sink {
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_, Ping, Vec<u64>>, _from: Option<NodeId>, _pkt: Ping) {
//!         let now = ctx.now();
//!         ctx.world().push(now.as_nanos());
//!     }
//! }
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node("a");
//! let b = topo.add_node("b");
//! topo.try_add_link(a, b, SimDuration::from_millis(5), None).unwrap();
//!
//! let mut sim = Simulator::new(topo, Vec::new());
//! sim.set_behavior(a, Box::new(Forward(b)));
//! sim.set_behavior(b, Box::new(Sink));
//! sim.inject(SimTime::ZERO, a, Ping);
//! sim.run();
//! assert_eq!(sim.world()[0], 5_000_000); // one 5 ms hop
//! assert_eq!(sim.total_link_bytes(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod fault;
pub mod generators;
pub mod json;
pub mod lineage;
pub mod metrics;
pub mod overload;
pub mod prof;
mod routing;
pub mod stream;
pub mod telemetry;
mod time;
mod topology;

pub use engine::{Ctx, NodeBehavior, SimPacket, Simulator};
pub use fault::{FaultEvent, FaultNotice, FaultPlan, LINK_LOST, NODE_LOST};
pub use overload::{AdmissionPolicy, OverloadConfig, AQM_SHED, QUEUE_FULL, STALE_SUPERSEDED};
pub use lineage::{AuditReport, LineageConfig, LineageLog, SpanEvent, SpanRecord, NO_SPAN};
pub use stream::{MetricStreams, SpaceSaving, StreamConfig};
pub use telemetry::{
    LogHistogram, Telemetry, TelemetryConfig, TelemetryReport, TimeSeries, TimeSeriesConfig,
    TraceEvent, TraceRecord,
};
pub use routing::RoutingTable;
pub use time::{SimDuration, SimTime};
pub use topology::{LinkId, NodeId, NodeKind, Topology, TopologyError};
