//! Calibration parameters of the simulated systems.
//!
//! The paper parameterizes its simulator with microbenchmark measurements
//! (§V-B): an RP's per-packet processing (FIB lookup, decapsulation, ST
//! lookup) of ≈3.3 ms and a game-server processing time of ≈6 ms. The
//! remaining constants model the relative costs the paper describes
//! qualitatively ("IP routers are much more efficient than the G-COPSS
//! routers"; the NDN baseline's routers buckle under query load).

use gcopss_sim::SimDuration;

/// Per-packet service times and related constants of every simulated node
/// type. All experiments take a `SimParams`; the defaults reproduce §V-B,
/// and the microbenchmark overrides a few (see
/// [`SimParams::microbenchmark`]).
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Native COPSS multicast forwarding at a transit router (Bloom-filter
    /// ST check on precomputed hashes — cheap).
    pub copss_multicast_proc: SimDuration,
    /// Forwarding an RP-encapsulated publication (an Interest through the
    /// NDN engine).
    pub encap_proc: SimDuration,
    /// Full RP processing: FIB lookup + decapsulation + ST lookup
    /// (paper: ≈3.3 ms).
    pub rp_proc: SimDuration,
    /// COPSS control packets (Subscribe/Unsubscribe/FIB/RP updates).
    pub control_proc: SimDuration,
    /// NDN Interest/Data forwarding at a router (the paper's CCNx v0.4.0
    /// measurements make this the heaviest per-packet path).
    pub ndn_proc: SimDuration,
    /// IP forwarding at a router.
    pub ip_proc: SimDuration,
    /// Game-server base processing per update (paper: ≈6 ms, including
    /// location translation and collision detection).
    pub server_proc: SimDuration,
    /// Additional server cost per unicast recipient of an update.
    pub server_per_recipient: SimDuration,
    /// Broker cost per snapshot object served (QR response or cyclic
    /// multicast emission).
    pub broker_per_object: SimDuration,
    /// Pacing gap between consecutive cyclic-multicast object emissions.
    pub cyclic_gap: SimDuration,
    /// RP queue-length threshold that triggers automatic RP splitting
    /// (§IV-B). `None` disables auto-balancing.
    pub rp_split_queue_threshold: Option<usize>,
    /// Sliding-window size (packets) for RP traffic monitoring.
    pub rp_window: usize,
    /// Minimum packets an RP must serve between consecutive splits
    /// (prevents split storms while the first split takes effect).
    pub rp_split_cooldown_packets: u64,
    /// Stream-driven RP balancing (§IV-B closed over live telemetry):
    /// `true` makes RPs trigger splits from observed queue-depth EWMAs and
    /// served-load skew (the trigger's constants are in the router)
    /// instead of the fixed [`SimParams::rp_split_queue_threshold`].
    /// Strictly opt-in — `false` is byte-identical to builds that predate
    /// adaptive control; enabling it additionally requires the engine's
    /// stream hub (a non-vacuous `StreamConfig`), without which the
    /// trigger never evaluates.
    pub rp_adaptive: bool,
    /// Stream-driven per-prefix caching: `true` makes brokers promote the
    /// freshness class of snapshot Data for content descriptors the live
    /// popularity sketch reports as hot, so NDN content stores along the
    /// path absorb flash crowds. Strictly opt-in like
    /// [`SimParams::rp_adaptive`].
    pub cache_adaptive: bool,
}

impl Default for SimParams {
    /// The §V-B large-scale simulation calibration.
    fn default() -> Self {
        Self {
            copss_multicast_proc: SimDuration::from_micros(300),
            encap_proc: SimDuration::from_millis(1),
            rp_proc: SimDuration::from_micros(3_300),
            control_proc: SimDuration::from_micros(200),
            ndn_proc: SimDuration::from_micros(1_500),
            ip_proc: SimDuration::from_micros(20),
            server_proc: SimDuration::from_millis(6),
            server_per_recipient: SimDuration::from_micros(50),
            broker_per_object: SimDuration::from_micros(300),
            cyclic_gap: SimDuration::from_millis(8),
            rp_split_queue_threshold: None,
            rp_window: 2_000,
            rp_split_cooldown_packets: 5_000,
            rp_adaptive: false,
            cache_adaptive: false,
        }
    }
}

/// Initial client re-Subscribe backoff after a watchdog firing
/// ([`RecoveryConfig`]).
pub(crate) const RECOVERY_BACKOFF_BASE: SimDuration = SimDuration::from_millis(500);

/// Cap on the exponential client re-Subscribe backoff.
pub(crate) const RECOVERY_BACKOFF_CAP: SimDuration = SimDuration::from_millis(8_000);

/// Maximum seeded jitter added to each watchdog or refresh re-arm
/// (decorrelates the re-Subscribe storm after a repair).
pub(crate) const RECOVERY_JITTER: SimDuration = SimDuration::from_millis(100);

/// Period of the router-side expired-PIT sweep.
pub(crate) const PIT_SWEEP_PERIOD: SimDuration = SimDuration::from_millis(1_000);

/// Tunables of the failure-recovery half of the protocol stack.
///
/// Recovery is strictly opt-in: every scenario config carries an
/// `Option<RecoveryConfig>` defaulting to `None`, and with `None` the
/// simulation is byte-identical to builds that predate fault injection.
/// When enabled, clients arm silence watchdogs (so runs must use
/// [`gcopss_sim::Simulator::run_until`] — the watchdogs re-arm forever),
/// routers sweep expired PIT entries every second, and the
/// NDN baseline client retries stale Interests indefinitely.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Client-side silence threshold: if nothing was delivered for this
    /// long, the client assumes its subscription state was lost upstream
    /// and re-Subscribes, backing off exponentially from 500 ms up to 8 s.
    pub watchdog: SimDuration,
    /// Periodic soft-state Subscribe refresh (COPSS only): every interval
    /// (plus jitter) a client re-expresses its subscriptions and a router
    /// re-expresses its upstream joins (one batched Subscribe per RP tree,
    /// PIM-style), deliveries or not. Aggregation absorbs each refresh at
    /// the next hop, but the packets still transit the upstream service
    /// queues — so under overload, control traffic genuinely contends with
    /// bulk data. `None` disables the refresh and is byte-identical to
    /// builds that predate it.
    pub subscribe_refresh: Option<SimDuration>,
    /// Seed for the per-client jitter PRNG (mixed with the player id).
    pub seed: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            watchdog: SimDuration::from_millis(2_000),
            subscribe_refresh: None,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// Client-side congestion-feedback rate adaptation.
///
/// Like [`RecoveryConfig`], this is strictly opt-in: scenario configs carry
/// an `Option<RateAdaptConfig>` defaulting to `None`, and with `None` the
/// simulation is byte-identical to builds that predate overload control.
/// When enabled, a client that receives a congestion-marked delivery (see
/// `Ctx::congestion_marked`) multiplicatively stretches the minimum gap
/// between its own publishes — from 20 ms, doubling per marked delivery,
/// up to 500 ms — and halves the gap again on every clean delivery.
/// Publishes attempted inside the gap are shed at the source
/// (`"rate-limited"`): under overload, sending a stale position later is
/// worse than not sending it.
#[derive(Debug, Clone, Default)]
pub struct RateAdaptConfig;

impl SimParams {
    /// The testbed microbenchmark calibration (§V-A): the same machines,
    /// but the server runs less game logic (no 414-player location
    /// translation) and the RP path was measured slightly cheaper. The
    /// server constants put it near (but below) saturation for the
    /// 62-player trace, reproducing the paper's ≈3× latency gap and its
    /// >55 ms tail.
    #[must_use]
    pub fn microbenchmark() -> Self {
        Self {
            rp_proc: SimDuration::from_micros(2_500),
            server_proc: SimDuration::from_micros(2_500),
            server_per_recipient: SimDuration::from_micros(70),
            ..Self::default()
        }
    }

    /// Enables automatic RP balancing with the given queue threshold.
    #[must_use]
    pub fn with_auto_balancing(mut self, queue_threshold: usize) -> Self {
        self.rp_split_queue_threshold = Some(queue_threshold);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_calibration() {
        let p = SimParams::default();
        assert_eq!(p.rp_proc, SimDuration::from_micros(3_300));
        assert_eq!(p.server_proc, SimDuration::from_millis(6));
        assert!(p.rp_split_queue_threshold.is_none());
    }

    #[test]
    fn microbenchmark_overrides() {
        let p = SimParams::microbenchmark();
        assert!(p.rp_proc < SimParams::default().rp_proc);
        assert!(p.server_proc < SimParams::default().server_proc);
        assert!(p.server_per_recipient > SimParams::default().server_per_recipient);
    }

    #[test]
    fn auto_balancing_builder() {
        let p = SimParams::default().with_auto_balancing(40);
        assert_eq!(p.rp_split_queue_threshold, Some(40));
    }

    #[test]
    fn adaptive_control_defaults_off() {
        let p = SimParams::default();
        assert!(!p.rp_adaptive);
        assert!(!p.cache_adaptive);
    }
}
