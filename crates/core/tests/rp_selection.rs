//! Tests for RP placement on automatic splits: a new RP goes to the next
//! free node of the RP pool, in rotation (the paper picks it at random;
//! rotation spreads load the same way, deterministically).

use gcopss_core::experiments::{Workload, WorkloadParams};
use gcopss_core::scenario::{expected_deliveries, GcopssConfig, NetworkSpec, ScenarioSpec};
use gcopss_core::{MetricsMode, SimParams};

fn congested_workload(seed: u64) -> Workload {
    Workload::counter_strike(&WorkloadParams {
        seed,
        updates: 2_500,
        players: 100,
        ..WorkloadParams::default()
    })
}

/// Runs one auto-balancing G-COPSS scenario from a single RP; returns the
/// RP nodes in RP-id order, the split count and the mean latency.
fn run_with_splits(net: &NetworkSpec, seed: u64) -> (Vec<u32>, u64, u64) {
    let w = congested_workload(seed);
    let expected = expected_deliveries(&w.map, &w.population, &w.trace);
    let mut params = SimParams::default().with_auto_balancing(35);
    params.rp_split_cooldown_packets = 1_000;
    let cfg = GcopssConfig {
        params,
        delivery_log: true,
        metrics_mode: MetricsMode::StatsOnly,
        rp_count: 1,
        ..GcopssConfig::default()
    };
    let mut b = ScenarioSpec::new(net, &w.map, &w.population, &w.trace)
        .gcopss(cfg)
        .build()
        .into_gcopss();
    b.sim.run();
    let world = b.sim.world();
    assert_eq!(world.metrics.delivered(), expected, "splits lost updates");
    let nodes: Vec<u32> = world.rp_locations.values().copied().collect();
    (
        nodes,
        world.splits.len() as u64,
        world.metrics.stats().mean().as_nanos(),
    )
}

#[test]
fn rotation_splits_without_loss_onto_distinct_nodes() {
    let net = NetworkSpec::default_backbone(19);
    let (nodes, splits, mean) = run_with_splits(&net, 47);
    assert!(splits >= 1, "no split fired");
    assert!(mean > 0, "no latency recorded");
    // Every RP lives on a distinct node (rotation skips taken nodes) ...
    let mut dedup = nodes.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), nodes.len(), "co-located RPs: {nodes:?}");
    // ... drawn from the RP pool, and the first split rotates past the
    // splitting RP's own node (the pool's head) to the next candidate.
    let pool: Vec<u32> = net.rp_pool_preview().iter().map(|n| n.0).collect();
    assert!(
        nodes.iter().all(|n| pool.contains(n)),
        "{nodes:?} not in the pool"
    );
    assert_eq!(
        nodes[..2],
        pool[..2],
        "first split skipped a free candidate"
    );
}

#[test]
fn rp_pool_preview_is_deterministic_and_matches_build() {
    let net = NetworkSpec::default_backbone(19);
    let a = net.rp_pool_preview();
    let b = net.rp_pool_preview();
    assert_eq!(a, b);
    assert!(!a.is_empty());
    // The preview spreads placements: the first few picks are distinct.
    let head: std::collections::BTreeSet<_> = a.iter().take(6).collect();
    assert_eq!(head.len(), 6);
}
