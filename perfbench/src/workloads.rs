//! The three benchmark workloads, assembled through the public API of
//! `gcopss-core` the same way the experiment drivers assemble them.
//!
//! Each workload is a fixed-size batch replay of a synthetic Counter-Strike
//! trace whose schedule is open-loop in simulated time. The game world (map,
//! objects, player placement, per-player update rates) and the 79-core
//! Rocketfuel-like backbone are those of the experiment drivers' default
//! seeds; the benchmark seed draws the trace played in that world (for the
//! rejoin storm, the recovery jitter). With the world fixed, the work a
//! replay does barely moves between seeds, so the spread of the host-time
//! metrics is the host's, not the workload's.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gcopss_core::broker::{partition_cds_to_brokers, SnapshotBroker};
use gcopss_core::experiments::audit::register_expectations;
use gcopss_core::experiments::{Workload, WorkloadParams};
use gcopss_core::scenario::{
    expected_deliveries, ExtraHost, GcopssConfig, GcopssSim, NetworkSpec, ScenarioSpec,
};
use gcopss_core::{
    CatchUpConfig, CatchUpMode, MetricsMode, RateAdaptConfig, RecoveryConfig, SimParams,
};
use gcopss_game::trace::{CsTraceGenerator, CsTraceParams};
use gcopss_sim::metrics::LatencySamples;
use gcopss_sim::{
    AdmissionPolicy, FaultPlan, LineageConfig, OverloadConfig, SimDuration, SimTime, StreamConfig,
    TelemetryConfig,
};

/// Topology seed of the experiment drivers.
const NET_SEED: u64 = 7;

/// Workload seed of the experiment drivers, which fixes the game world.
const WORLD_SEED: u64 = 42;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table II G-COPSS at the trace's peak rate: lossless, engine and COPSS
    /// bound.
    GcopssPeak,
    /// Chunked-delta rejoin storm after an RP crash: NDN Interest/Data,
    /// brokers and fault handling dominate.
    RejoinStorm,
    /// G-COPSS at 4x RP capacity under CoDel, priorities, marks and client
    /// pacing, with telemetry counters and the stream hub live.
    OverloadAqm,
}

impl Kind {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "gcopss_peak" => Some(Self::GcopssPeak),
            "rejoin_storm" => Some(Self::RejoinStorm),
            "overload_aqm" => Some(Self::OverloadAqm),
            _ => None,
        }
    }

    /// The game world with its trace.
    fn workload(self, seed: u64) -> Workload {
        let p = self.params();
        let world = Workload::counter_strike(&WorkloadParams {
            updates: 0,
            ..p.clone()
        });
        let gen = CsTraceGenerator::new(
            WORLD_SEED,
            &world.population,
            CsTraceParams {
                total_updates: p.updates,
                mean_interarrival_ns: p.mean_interarrival.as_nanos(),
                ..CsTraceParams::default()
            },
        );
        // The storm's catch-up count hinges on the trace (watchdog resyncs
        // follow each player's delivery gaps), so its trace is drawn from
        // the world seed and the seed draws the recovery jitter instead.
        let trace_seed = if self == Self::RejoinStorm {
            WORLD_SEED
        } else {
            seed
        };
        let trace = gen.generate(trace_seed, &world.map, &world.objects, &world.population);
        Workload {
            trace: Arc::new(trace),
            ..world
        }
    }

    fn params(self) -> WorkloadParams {
        let (players, updates, mean_interarrival) = match self {
            // The paper's 414 players at the 2.4 ms network-wide peak.
            Self::GcopssPeak => (414, 3_000, SimDuration::from_micros(2_400)),
            // The rejoin experiment's calm background rate: the storm
            // measures the catch-up plane, which needs the link capacity.
            Self::RejoinStorm => (120, 1_500, SimDuration::from_secs(1)),
            // 4x the aggregate service rate of 3 RPs (3.3 ms each).
            Self::OverloadAqm => (120, 20_000, SimDuration::from_micros(275)),
        };
        WorkloadParams {
            seed: WORLD_SEED,
            players,
            updates,
            mean_interarrival,
        }
    }
}

/// Wall time of the three set-up steps the benchmark times from outside.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// The game world and its trace.
    pub trace_gen: Duration,
    /// Broker prewarm: the brokers' object model with the trace applied.
    pub prewarm: Duration,
    /// `ScenarioSpec::build`: topology, routing, behaviors, fault plan.
    pub build: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.trace_gen + self.prewarm + self.build
    }
}

/// A workload assembled and ready to simulate.
pub struct Prepared {
    /// Which workload.
    pub kind: Kind,
    /// The game workload the scenario was built from.
    pub workload: Workload,
    /// The assembled simulation.
    pub built: GcopssSim,
    /// The network the scenario was built on.
    pub net: NetworkSpec,
    /// Stop time; `None` runs to quiescence.
    pub horizon: Option<SimTime>,
    /// When the last trace event is published.
    pub last_publish: SimTime,
    /// Settling period before the first trace event.
    pub warmup: SimDuration,
    /// How long each set-up step took.
    pub setup: SetupTimes,
}

/// Assembles `kind` for `seed`, timing each set-up step.
pub fn prepare(kind: Kind, seed: u64) -> Prepared {
    let net = NetworkSpec::default_backbone(NET_SEED);
    let t = Instant::now();
    let w = kind.workload(seed);
    let mut setup = SetupTimes {
        trace_gen: t.elapsed(),
        ..SetupTimes::default()
    };
    let span = SimDuration::from_nanos(w.trace.last().map_or(0, |e| e.time_ns));
    let warmup = SimDuration::from_secs(2);
    let (built, horizon) = match kind {
        Kind::GcopssPeak => {
            let cfg = GcopssConfig {
                metrics_mode: MetricsMode::Full,
                rp_count: 6,
                warmup,
                ..GcopssConfig::default()
            };
            let t = Instant::now();
            let built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
                .gcopss(cfg)
                .build()
                .into_gcopss();
            setup.build = t.elapsed();
            (built, None)
        }
        Kind::RejoinStorm => {
            let built = build_rejoin(&w, &net, warmup, span, seed, &mut setup);
            // Catch-ups must drain for the ledger to close.
            let drain = SimDuration::from_secs(600);
            (built, Some(SimTime::ZERO + warmup + span + drain))
        }
        Kind::OverloadAqm => {
            let cfg = GcopssConfig {
                metrics_mode: MetricsMode::Full,
                rp_count: 3,
                warmup,
                recovery: Some(RecoveryConfig {
                    subscribe_refresh: Some(SimDuration::from_millis(200)),
                    ..RecoveryConfig::default()
                }),
                overload: Some(OverloadConfig {
                    queue_capacity: Some(64),
                    policy: AdmissionPolicy::CoDel {
                        target: SimDuration::from_millis(15),
                        interval: SimDuration::from_millis(100),
                    },
                    priority: true,
                    mark_sojourn: Some(SimDuration::from_millis(30)),
                }),
                rate_adapt: Some(RateAdaptConfig::default()),
                stream: StreamConfig::every(SimDuration::from_millis(25)),
                ..GcopssConfig::default()
            };
            let t = Instant::now();
            let mut built = ScenarioSpec::new(&net, &w.map, &w.population, &w.trace)
                .gcopss(cfg)
                .build()
                .into_gcopss();
            // Counters only: the per-class control counters live in
            // telemetry, and a zero-capacity journal keeps the registry.
            built.sim.enable_telemetry(TelemetryConfig {
                journal_capacity: 0,
                journal_sample: 1,
            });
            setup.build = t.elapsed();
            let drain = SimDuration::from_secs(10);
            (built, Some(SimTime::ZERO + warmup + span + drain))
        }
    };
    Prepared {
        kind,
        workload: w,
        built,
        net,
        horizon,
        last_publish: SimTime::ZERO + warmup + span,
        warmup,
        setup,
    }
}

/// The rejoin storm's chunked-delta arm: 2 game RPs, 3 snapshot brokers,
/// the last RP's router crashing at 30 % of the trace while every other
/// player loses its access link until 35 %. `seed` draws the jitter of the
/// clients' resubscribe timers.
fn build_rejoin(
    w: &Workload,
    net: &NetworkSpec,
    warmup: SimDuration,
    span: SimDuration,
    seed: u64,
    setup: &mut SetupTimes,
) -> GcopssSim {
    const RP_COUNT: usize = 2;
    const BROKERS: usize = 3;
    let at =
        |pct: u64| SimTime::ZERO + warmup + SimDuration::from_nanos(span.as_nanos() * pct / 100);

    let t = Instant::now();
    let mut broker_objects = w.objects.clone();
    for e in w.trace.iter() {
        broker_objects.apply_update(e.object, e.size);
    }
    setup.prewarm = t.elapsed();

    let t = Instant::now();
    let pool = net.rp_pool_preview();
    let params = SimParams::default();
    let mut extra_hosts = Vec::new();
    for (i, cds) in partition_cds_to_brokers(&w.map, BROKERS)
        .into_iter()
        .enumerate()
    {
        let mut routes = SnapshotBroker::fib_prefixes(&cds);
        routes.extend(SnapshotBroker::chunk_fib_prefixes(&cds));
        let objects = broker_objects.clone();
        let trace = Arc::clone(&w.trace);
        let p = params.clone();
        extra_hosts.push(ExtraHost {
            attach_to: pool[(RP_COUNT + i) % pool.len()],
            routes,
            make: Box::new(move |_node, edge| {
                Box::new(SnapshotBroker::new(p, edge, cds, objects, trace))
            }),
        });
    }
    let crash = pool[(RP_COUNT - 1) % pool.len()];
    let mut plan = FaultPlan::new(0x0e01_d007)
        .node_down(at(30), crash)
        .node_up(at(50), crash);
    for l in net
        .player_access_links(w.population.len())
        .into_iter()
        .step_by(2)
    {
        plan = plan.link_down(at(30), l).link_up(at(35), l);
    }
    let cfg = GcopssConfig {
        params,
        metrics_mode: MetricsMode::StatsOnly,
        rp_count: RP_COUNT,
        warmup,
        recovery: Some(RecoveryConfig {
            // Far above the calm rate's inter-delivery gap, far below the
            // access outage.
            watchdog: SimDuration::from_secs(10),
            seed,
            ..RecoveryConfig::default()
        }),
        ..GcopssConfig::default()
    };
    let catch_up = CatchUpConfig {
        mode: CatchUpMode::ChunkedDelta,
        window: 15,
        initial_at: Some(at(25)),
        retry: SimDuration::from_secs(2),
    };
    let built = ScenarioSpec::new(net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .extra_hosts(extra_hosts)
        .catch_up(catch_up)
        .fault_plan(plan)
        .build()
        .into_gcopss();
    setup.build = t.elapsed();
    built
}

impl Prepared {
    /// The simulate phase in one piece, as the traced and audited replays
    /// run it.
    pub fn simulate(&mut self) {
        match self.horizon {
            Some(h) => self.built.sim.run_until(h),
            None => self.built.sim.run(),
        }
    }

    /// The simulate phase cut into `slices` equal spans of simulated time
    /// (plus the drain to quiescence of a workload without a horizon),
    /// calling `lap` with the engine's event count after each. Cut runs
    /// execute exactly the events of an uncut run, in the same order.
    pub fn simulate_in_slices(&mut self, slices: u64, mut lap: impl FnMut(u64)) {
        let end = self.horizon.unwrap_or(self.last_publish).as_nanos();
        for k in 1..=slices {
            let at = u64::try_from(u128::from(end) * u128::from(k) / u128::from(slices))
                .expect("a slice boundary lies before the end");
            self.built
                .sim
                .run_until(SimTime::ZERO + SimDuration::from_nanos(at));
            lap(self.built.sim.events_processed());
        }
        if self.horizon.is_none() {
            self.built.sim.run();
            lap(self.built.sim.events_processed());
        }
    }

    /// Arms the lineage tracer and registers one delivery expectation per
    /// owed pair, for the delivery audit of [`Prepared::lineage_audit_clean`].
    pub fn arm_lineage(&mut self) {
        self.built.sim.enable_lineage(LineageConfig::default());
        register_expectations(&mut self.built.sim, &self.workload, self.warmup);
    }

    /// Whether the lineage auditor explains every owed pair. No fault is
    /// injected, so no damage window is granted.
    pub fn lineage_audit_clean(&self) -> bool {
        let h = self
            .horizon
            .expect("the audited workload runs to a horizon");
        self.built.sim.lineage().audit(h, None).is_clean()
    }

    /// Reads the simulated outcome and runs the workload's output checks.
    pub fn outcome(&mut self) -> Outcome {
        let sim = &mut self.built.sim;
        let events = sim.events_processed();
        let network_bytes = sim.total_link_bytes();
        let mut failures = Vec::new();
        let mut check = |ok: bool, what: &str| {
            if !ok {
                failures.push(what.to_string());
            }
        };
        let (mut samples, owed, delivered, attempted, failed) = match self.kind {
            Kind::GcopssPeak | Kind::OverloadAqm => {
                let w = &self.workload;
                let owed = expected_deliveries(&w.map, &w.population, &w.trace);
                let world = sim.world_mut();
                let delivered = world.metrics.delivered();
                let samples = std::mem::take(world.metrics.samples_mut());
                check(delivered <= owed, "more deliveries than owed");
                if self.kind == Kind::GcopssPeak {
                    check(delivered == owed, "lossless run lost deliveries");
                    (samples, owed, delivered, owed, owed - delivered.min(owed))
                } else {
                    // Shedding data is this workload's purpose; the
                    // operations it must not fail are the control-plane
                    // messages that the priority classes protect.
                    let tel = sim.telemetry();
                    let ctl_in = tel.counter_total("ctl-in");
                    let ctl_drop = tel.counter_total("ctl-drop");
                    check(ctl_in > 0, "no control traffic offered");
                    check(delivered > 0, "nothing delivered");
                    (samples, owed, delivered, ctl_in + ctl_drop, ctl_drop)
                }
            }
            Kind::RejoinStorm => {
                let world = sim.world();
                let audit = world.catchup_ledger.audit();
                check(audit.clean(), "catch-up ledger not clean");
                check(
                    world.counter("catchup-reassembly-failed") == 0,
                    "chunk reassembly failed",
                );
                check(
                    world.counter("rp-failovers") >= 1,
                    "the crash did not fail over",
                );
                let mut samples = LatencySamples::new();
                for r in world.catchups.iter().filter(|r| r.recovery) {
                    samples.record(r.latency);
                }
                check(!samples.is_empty(), "no recovery catch-up ran");
                let failed = audit.outstanding + audit.over_delivered;
                (samples, audit.owed, audit.delivered, audit.owed, failed)
            }
        };
        let n = samples.len();
        let q = |s: &mut LatencySamples, p: f64| s.quantile(p).map_or(0, |d| d.as_nanos());
        let p50_ns = q(&mut samples, 0.50);
        let p99_ns = q(&mut samples, 0.99);
        let beyond_p99 = n - (n as f64 * 0.99).ceil() as usize;
        check(beyond_p99 >= 10, "fewer than 10 latency samples beyond p99");
        check(owed > 0 && attempted > 0, "nothing owed");
        Outcome {
            events,
            latency_samples: n as u64,
            p50_ns,
            p99_ns,
            owed,
            delivered,
            network_bytes,
            attempted,
            failed,
            failures,
        }
    }
}

/// The simulated outcome of one replay. Every field is a pure function of
/// the seed: same-seed replays must agree on all of them exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Events the engine executed.
    pub events: u64,
    /// Latency samples behind the quantiles.
    pub latency_samples: u64,
    /// Exact median latency (ceil-rank), simulated nanoseconds.
    pub p50_ns: u64,
    /// Exact 99th-percentile latency (ceil-rank), simulated nanoseconds.
    pub p99_ns: u64,
    /// Deliveries (or catch-up ledger items) owed.
    pub owed: u64,
    /// Deliveries (or ledger items) made by the horizon.
    pub delivered: u64,
    /// Bytes carried by all links.
    pub network_bytes: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Delivered over owed.
    pub fn delivery_ratio(&self) -> f64 {
        self.delivered as f64 / self.owed.max(1) as f64
    }
}
