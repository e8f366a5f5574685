//! Property-based tests for the discrete-event simulator, on the
//! deterministic `gcopss_compat::prop` harness.

use gcopss_compat::prop;
use gcopss_sim::telemetry::LogHistogram;
use gcopss_sim::{
    generators, Ctx, FaultPlan, LinkId, NodeBehavior, NodeId, RoutingTable, SimDuration, SimPacket,
    SimTime, Simulator,
};

const CASES: u32 = 24;

/// A flooding behavior: records arrival order and forwards each packet to
/// every neighbor except the one it came from, with a TTL embedded in the
/// packet id (high byte).
struct Flood;

type World = Vec<(u64, u32, u32)>; // (time ns, node, pkt id)

/// Test packet `(id, wire size)`.
#[derive(Debug, Clone, Copy)]
struct Pkt(u32, u32);

impl SimPacket for Pkt {
    fn wire_size(&self) -> u32 {
        self.1
    }
}

impl NodeBehavior<Pkt, World> for Flood {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Pkt, World>, from: Option<NodeId>, pkt: Pkt) {
        let now = ctx.now().as_nanos();
        let node = ctx.node();
        ctx.world().push((now, node.0, pkt.0));
        let ttl = pkt.0 >> 24;
        if ttl == 0 {
            return;
        }
        let next = ((ttl - 1) << 24) | (pkt.0 & 0x00ff_ffff);
        let neighbors: Vec<NodeId> = ctx
            .topology()
            .neighbors(node)
            .map(|(n, _)| n)
            .filter(|n| Some(*n) != from)
            .collect();
        for n in neighbors {
            ctx.send(n, Pkt(next, 64));
        }
    }

    fn service_time(&self, _pkt: &Pkt) -> SimDuration {
        SimDuration::from_micros(10)
    }
}

/// Event timestamps observed by behaviors never decrease.
#[test]
fn time_is_monotonic() {
    let input = (prop::range(0u64..1000), prop::range(2usize..8));
    prop::check(0x51301, CASES, &input, |(seed, hosts)| {
        let params = generators::BackboneParams {
            core_routers: 6,
            edge_per_core: 1,
            ..Default::default()
        };
        let mut b = generators::rocketfuel_like(*seed, &params);
        let hs = generators::attach_hosts(
            &mut b.topology,
            &b.edge,
            *hosts,
            SimDuration::from_millis(1),
            "h",
        );
        let topo = b.topology;
        let all: Vec<NodeId> = topo.node_ids().collect();
        let mut sim = Simulator::new(topo, World::new());
        for n in all {
            sim.set_behavior(n, Box::new(Flood));
        }
        // Inject a TTL-3 flood from the first host.
        sim.inject(SimTime::ZERO, hs[0], Pkt(3 << 24, 64));
        sim.run();
        let w = sim.world();
        assert!(!w.is_empty());
        for pair in w.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "time went backwards");
        }
    });
}

/// Same seed, same injections => bit-identical event log.
#[test]
fn simulation_is_deterministic() {
    prop::check(0x51302, CASES, &prop::range(0u64..1000), |seed| {
        let run = || {
            let params = generators::BackboneParams {
                core_routers: 8,
                edge_per_core: 1,
                ..Default::default()
            };
            let b = generators::rocketfuel_like(*seed, &params);
            let topo = b.topology;
            let all: Vec<NodeId> = topo.node_ids().collect();
            let mut sim = Simulator::new(topo, World::new());
            for n in all {
                sim.set_behavior(n, Box::new(Flood));
            }
            sim.inject(SimTime::ZERO, b.core[0], Pkt(2 << 24, 64));
            sim.inject(SimTime::from_millis(1), b.core[1], Pkt((2 << 24) | 1, 64));
            sim.run();
            (sim.total_link_bytes(), sim.events_processed(), sim.into_world())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    });
}

/// Shortest-path distances satisfy the triangle inequality and symmetry
/// (links are bidirectional with symmetric delay).
#[test]
fn routing_distances_are_metric() {
    prop::check(0x51303, CASES, &prop::range(0u64..500), |seed| {
        let params = generators::BackboneParams {
            core_routers: 10,
            edge_per_core: 1,
            ..Default::default()
        };
        let b = generators::rocketfuel_like(*seed, &params);
        let rt = RoutingTable::shortest_paths(&b.topology);
        let nodes: Vec<NodeId> = b.topology.node_ids().collect();
        for &x in nodes.iter().take(6) {
            for &y in nodes.iter().take(6) {
                let dxy = rt.distance(x, y).unwrap();
                let dyx = rt.distance(y, x).unwrap();
                assert_eq!(dxy, dyx);
                for &z in nodes.iter().take(6) {
                    let dxz = rt.distance(x, z).unwrap();
                    let dzy = rt.distance(z, y).unwrap();
                    assert!(dxy <= dxz + dzy, "triangle inequality violated");
                }
            }
        }
    });
}

fn hist(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The histogram tolerates the full `u64` domain: recording `u64::MAX`
/// (top bucket) and `0` (bucket zero) alongside arbitrary values keeps
/// count/min/max exact and the extreme quantiles pinned to them.
#[test]
fn log_histogram_survives_extreme_values() {
    let input = prop::vec(prop::range(0u64..u64::MAX), 0..=48);
    prop::check(0x51305, CASES, &input, |values| {
        let mut h = hist(values);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), values.len() as u64 + 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // The JSON summary must render without panicking on the extremes.
        assert!(h.to_json().to_string().contains("\"count\""));
    });
}

/// An empty histogram answers every quantile with 0 and reports no
/// min/max, regardless of `q`.
#[test]
fn log_histogram_empty_quantiles_are_zero() {
    prop::check(0x51306, CASES, &prop::range(0u32..=1000), |q| {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(f64::from(*q) / 1000.0), 0);
    });
}

/// Merging is associative and agrees with bulk recording: the merge
/// order of per-shard histograms must not affect the aggregate.
#[test]
fn log_histogram_merge_is_associative() {
    let vals = || prop::vec(prop::range(0u64..1 << 40), 0..=24);
    let input = (vals(), vals(), vals());
    prop::check(0x51307, CASES, &input, |(a, b, c)| {
        let (ha, hb, hc) = (hist(a), hist(b), hist(c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha;
        right.merge(&bc);
        assert_eq!(left, right, "merge order changed the aggregate");
        let all: Vec<u64> = a.iter().chain(b).chain(c).copied().collect();
        assert_eq!(left, hist(&all), "merge disagrees with bulk recording");
    });
}

/// Quantiles are monotone in `q` and always land inside the observed
/// `[min, max]` range.
#[test]
fn log_histogram_quantiles_are_monotone() {
    let input = (
        prop::vec(prop::range(0u64..1 << 48), 1..=40),
        prop::range(0u32..=1000),
        prop::range(0u32..=1000),
    );
    prop::check(0x51308, CASES, &input, |(values, qa, qb)| {
        let h = hist(values);
        let (lo, hi) = (*qa.min(qb), *qa.max(qb));
        let (ql, qh) = (f64::from(lo) / 1000.0, f64::from(hi) / 1000.0);
        assert!(
            h.quantile(ql) <= h.quantile(qh),
            "quantile({ql}) > quantile({qh})"
        );
        for q in [ql, qh] {
            let v = h.quantile(q);
            assert!(v >= h.min().unwrap(), "quantile below observed min");
            assert!(v <= h.max().unwrap(), "quantile above observed max");
        }
    });
}

/// The path returned by the routing table has total delay equal to the
/// reported distance.
#[test]
fn path_delay_equals_distance() {
    prop::check(0x51304, CASES, &prop::range(0u64..500), |seed| {
        let params = generators::BackboneParams {
            core_routers: 12,
            edge_per_core: 1,
            ..Default::default()
        };
        let b = generators::rocketfuel_like(*seed, &params);
        let rt = RoutingTable::shortest_paths(&b.topology);
        let nodes: Vec<NodeId> = b.topology.node_ids().collect();
        for &x in nodes.iter().take(8) {
            for &y in nodes.iter().take(8) {
                let p = rt.path(x, y);
                assert!(!p.is_empty());
                let total: SimDuration = p
                    .windows(2)
                    .map(|w| {
                        let l = b.topology.link_between(w[0], w[1]).expect("adjacent");
                        b.topology.link_delay(l)
                    })
                    .sum();
                assert_eq!(Some(total), rt.distance(x, y));
            }
        }
    });
}

/// After every fault event, the routing table the engine keeps up to date
/// (patched in place for bridge cuts and joins, recomputed otherwise)
/// equals a full all-pairs recompute over the surviving subgraph.
///
/// The backbones have single-homed leaf hosts (every access link is a
/// bridge), mesh shortcuts and an extra edge-to-edge link (cycles), and
/// 1–2 ms core delays (equal-delay ties). The plans mix bridge and
/// non-bridge link cuts and repairs, node crashes and restarts, link
/// events at dead endpoints, and leaf cuts during their router's crash.
/// Release builds run this too, where the engine's own debug-build check
/// is compiled out.
#[test]
fn fault_time_routing_matches_full_recompute() {
    // Each op is (kind, target); ops fire 1 ms apart in order.
    let ops = prop::vec((prop::range(0u8..7), prop::range(0usize..1000)), 1..=40);
    let input = (prop::range(0u64..1000), prop::range(1usize..10), ops);
    prop::check(0x51309, CASES, &input, |(seed, hosts, ops)| {
        let params = generators::BackboneParams {
            core_routers: 7,
            edge_per_core: 1,
            extra_link_fraction: 0.5,
            core_delay_ms: (1, 2),
            edge_delay: SimDuration::from_millis(1),
        };
        let mut b = generators::rocketfuel_like(*seed, &params);
        let topo = &mut b.topology;
        topo.try_add_link(b.edge[0], b.edge[1], SimDuration::from_millis(2), None).unwrap();
        let hs = generators::attach_hosts(topo, &b.edge, *hosts, SimDuration::from_millis(1), "h");
        let access: Vec<(LinkId, NodeId)> = hs
            .iter()
            .map(|&h| {
                let (r, l) = topo.neighbors(h).next().unwrap();
                (l, r)
            })
            .collect();
        let links: Vec<LinkId> = (0..topo.link_count()).map(|i| LinkId(i as u32)).collect();
        let nodes: Vec<NodeId> = topo.node_ids().collect();

        let mut plan = FaultPlan::new(*seed);
        let mut t = 0;
        let mut at = || {
            t += 1;
            SimTime::from_millis(t)
        };
        for &(kind, k) in ops {
            let (leaf, router) = access[k % access.len()];
            plan = match kind {
                0 => plan.link_down(at(), links[k % links.len()]),
                1 => plan.link_up(at(), links[k % links.len()]),
                2 => plan.node_down(at(), nodes[k % nodes.len()]),
                3 => plan.node_up(at(), nodes[k % nodes.len()]),
                4 => plan.link_down(at(), leaf),
                5 => plan.link_up(at(), leaf),
                // A leaf cut and repair while its router is down.
                _ => plan
                    .node_down(at(), router)
                    .link_down(at(), leaf)
                    .link_up(at(), leaf)
                    .link_down(at(), leaf)
                    .node_up(at(), router),
            };
        }
        let mut sim: Simulator<Pkt, World> = Simulator::new(b.topology, World::new());
        sim.install_faults(plan);
        while sim.step(1) == 1 {
            let full = RoutingTable::shortest_paths_filtered(
                sim.topology(),
                |l| sim.link_is_up(l),
                |n| sim.node_is_up(n),
            );
            assert!(*sim.routing() == full, "diverged at {}", sim.now());
        }
    });
}
