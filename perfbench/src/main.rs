//! G-COPSS benchmark: the simulator's own cost and the simulated network's
//! outcomes on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gcopss_peak|rejoin_storm|overload_aqm> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats set-up + replay of one fixed-size workload for as many
//! replays as fit in `--seconds` (at least three), checks every replay's
//! outputs, and reports host times taken at their fastest replay (see
//! [`fastest_slices`]). With `--trace 0`
//! every observer and the profiler stay off and the end-to-end metrics are
//! printed. With `--trace 1` the untraced replays are followed by one
//! replay under the simulator's phase profiler, and the per-layer metrics
//! are printed. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod layers;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gcopss_sim::json::Json;
use gcopss_sim::prof;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux /proc files and the 64-bit Linux timespec");

use layers::{hop_classes, ratio, Profile, HOP_CLASSES};
use workloads::{prepare, Kind, Outcome, SetupTimes};

/// Replays per run, at the least.
const MIN_REPS: usize = 3;

/// Simulated-time slices a timed replay is cut into.
const SLICES: u64 = 50;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// CPU time (user + system) of the main thread, which runs the whole
/// simulation: `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, which brings the
/// scheduler's count up to date before reading it. `/proc/self/stat` counts
/// 10 ms ticks, and `/proc/self/sched` shows the count as of the last tick
/// or context switch, milliseconds stale: too coarse for one slice.
fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the C layout on 64-bit
    // Linux, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Host time of one slice of a replay, and the engine's event count at
/// its end.
#[derive(Debug, Clone, Copy)]
struct Lap {
    wall: Duration,
    cpu: Duration,
    events: u64,
}

/// One set-up + replay with every observer and the profiler off.
struct Rep {
    setup: SetupTimes,
    laps: Vec<Lap>,
    outcome: Outcome,
}

impl Rep {
    fn run(&self) -> Duration {
        self.laps.iter().map(|l| l.wall).sum()
    }

    fn cpu(&self) -> Duration {
        self.laps.iter().map(|l| l.cpu).sum()
    }
}

fn timed_rep(kind: Kind, seed: u64) -> Result<Rep, String> {
    let mut p = prepare(kind, seed);
    if prof::is_enabled() {
        return Err("the profiler is on at the start of a timed replay".into());
    }
    let mut laps = Vec::new();
    let mut last = (Instant::now(), cpu_time());
    p.simulate_in_slices(SLICES, |events| {
        let now = (Instant::now(), cpu_time());
        laps.push(Lap {
            wall: now.0 - last.0,
            cpu: now.1.saturating_sub(last.1),
            events,
        });
        last = now;
    });
    Ok(Rep {
        setup: p.setup,
        laps,
        outcome: p.outcome(),
    })
}

/// The fastest replay's figure, in seconds. Every replay of a run does the
/// same work, and interference from other tenants of a shared host only
/// ever slows a replay down, so the minimum is the steadiest estimate of
/// the replay's own cost.
fn fastest(reps: &[Rep], f: impl Fn(&Rep) -> Duration) -> f64 {
    reps.iter()
        .map(|r| f(r).as_secs_f64())
        .fold(f64::INFINITY, f64::min)
}

/// The simulate phase's host time with every slice taken at its fastest
/// replay, in seconds. Slice `k` executes the same events in every replay
/// (checked), and interference bursts last seconds, so this recovers the
/// uncontended cost even of replays no single one of which ran undisturbed.
fn fastest_slices(reps: &[Rep], f: impl Fn(&Lap) -> Duration) -> f64 {
    (0..reps[0].laps.len())
        .map(|k| {
            reps.iter()
                .map(|r| f(&r.laps[k]).as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// A metric as printed: name, unit, value.
type Metric = (String, &'static str, f64);

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    (name.into(), unit, value)
}

fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let o = &reps[0].outcome;
    vec![
        metric("setup_s", "s", fastest(reps, |r| r.setup.total())),
        metric("run_s", "s", fastest_slices(reps, |l| l.wall)),
        metric("run_cpu_s", "s", fastest_slices(reps, |l| l.cpu)),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric("sim_latency_p50_ms", "ms", o.p50_ns as f64 / 1e6),
        metric("sim_latency_p99_ms", "ms", o.p99_ns as f64 / 1e6),
        metric("sim_delivery_ratio", "ratio", o.delivery_ratio()),
        metric("sim_network_gb", "GB", o.network_bytes as f64 / 1e9),
    ]
}

/// The traced replay: the same workload under the phase profiler.
fn per_layer(kind: Kind, seed: u64, reps: &[Rep], failures: &mut Vec<String>) -> Vec<Metric> {
    let mut p = prepare(kind, seed);
    prof::reset();
    prof::enable();
    let t = Instant::now();
    p.simulate();
    let traced_run = t.elapsed().as_secs_f64();
    prof::disable();
    let report = prof::take_report();
    let outcome = p.outcome();
    if outcome != reps[0].outcome {
        failures.push("the profiled replay changed the simulated outcome".into());
    }
    let prof = Profile::new(&report);
    let run_s = fastest_slices(reps, |l| l.wall);
    let events = outcome.events as f64;
    let sim = &p.built.sim;
    let world = sim.world();
    let (cs_hit, cs_miss) = (world.counter("cs-hit"), world.counter("cs-miss"));
    let (held, fetched) = world
        .catchups
        .iter()
        .filter(|r| r.recovery)
        .fold((0, 0), |(h, f), r| {
            (h + r.chunks_held, f + r.chunks_fetched)
        });
    let (link_lost, node_lost) = sim.fault_drops();
    let (queue_full, aqm_shed, superseded) = sim.overload_drops();
    let (st_calls, _) = prof.phase("copss/st_match");
    let (pop, insert) = (prof.phase("engine/pop").1, prof.phase("engine/insert").1);

    let mut m = vec![
        metric("engine.events", "count", events),
        metric("engine.events_per_s", "1/s", ratio(events, run_s)),
        metric("engine.ns_per_event", "ns", ratio(run_s * 1e9, events)),
        metric(
            "engine.queue_self_ns_per_event",
            "ns",
            ratio((pop + insert) as f64, events),
        ),
        metric(
            "engine.dispatch_share",
            "ratio",
            prof.share("engine.dispatch"),
        ),
        metric(
            "engine.transmit_share",
            "ratio",
            prof.share("engine.transmit"),
        ),
        metric("copss.st_match_calls", "count", st_calls as f64),
        metric(
            "copss.st_match_ns_per_call",
            "ns",
            prof.ns_per_call("copss/st_match"),
        ),
        metric("copss.share", "ratio", prof.share("copss")),
        metric("ndn.share", "ratio", prof.share("ndn")),
        metric(
            "ndn.fib_lpm_ns_per_call",
            "ns",
            prof.ns_per_call("ndn/fib_lpm"),
        ),
        metric(
            "ndn.cs_hit_ratio",
            "ratio",
            ratio(cs_hit as f64, (cs_hit + cs_miss) as f64),
        ),
        metric("broker.share", "ratio", prof.share("broker")),
        metric(
            "catchup.dedup_ratio",
            "ratio",
            ratio(held as f64, (held + fetched) as f64),
        ),
        metric(
            "catchup.retries",
            "count",
            world.counter("client-catchup-retries") as f64,
        ),
        metric("fault.drops", "count", (link_lost + node_lost) as f64),
        metric("fault.share", "ratio", prof.share("fault")),
        metric("overload.queue_full", "count", queue_full as f64),
        metric("overload.aqm_shed", "count", aqm_shed as f64),
        metric("overload.superseded", "count", superseded as f64),
        metric("overload.marks", "count", sim.congestion_marks() as f64),
        metric("overload.share", "ratio", prof.share("overload")),
        metric("obs.share", "ratio", prof.share("obs")),
        metric("obs.stream_rolls", "count", sim.streams().rolls() as f64),
        metric("client.share", "ratio", prof.share("client")),
        metric(
            "setup.trace_gen_s",
            "s",
            fastest(reps, |r| r.setup.trace_gen),
        ),
        metric("setup.build_s", "s", fastest(reps, |r| r.setup.build)),
        metric("setup.prewarm_s", "s", fastest(reps, |r| r.setup.prewarm)),
    ];
    for (name, c) in HOP_CLASSES.iter().zip(hop_classes(&p)) {
        m.push(metric(
            format!("net.{name}.busy_share"),
            "ratio",
            c.busy_share,
        ));
        m.push(metric(
            format!("net.{name}.max_queue"),
            "count",
            c.max_queue as f64,
        ));
        m.push(metric(format!("net.{name}.gb"), "GB", c.gb));
    }
    m.push(metric(
        "trace.overhead_ratio",
        "ratio",
        ratio(traced_run, run_s),
    ));
    m.push(metric(
        "trace.coverage",
        "ratio",
        ratio(prof.self_sum_ns() as f64 / 1e9, traced_run),
    ));
    drop(p);

    if kind == Kind::OverloadAqm {
        lineage_check(kind, seed, &reps[0].outcome, failures);
    }
    m
}

/// The overload workload's delivery audit: one more replay under the
/// lineage tracer, which must explain every owed pair that was not
/// delivered, and must not change the outcome.
fn lineage_check(kind: Kind, seed: u64, expected: &Outcome, failures: &mut Vec<String>) {
    let mut p = prepare(kind, seed);
    p.arm_lineage();
    p.simulate();
    if !p.lineage_audit_clean() {
        failures.push("the lineage delivery audit is not clean".into());
    }
    if p.outcome() != *expected {
        failures.push("the audited replay changed the simulated outcome".into());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The trace run spends half its budget on untraced replays, which give
    // the untraced side of the overhead ratio.
    let budget = Duration::from_secs(if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    });
    // A replay starts only if one as long as the longest so far still ends
    // within the budget, so a run overshoots `--seconds` only to reach
    // `MIN_REPS`.
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut longest = Duration::ZERO;
    while reps.len() < MIN_REPS || start.elapsed() + longest <= budget {
        let t = Instant::now();
        match timed_rep(args.kind, args.seed) {
            Ok(r) => {
                reps.push(r);
                longest = longest.max(t.elapsed());
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failures = reps[0].outcome.failures.clone();
    let slice_events = |r: &Rep| r.laps.iter().map(|l| l.events).collect::<Vec<_>>();
    if reps
        .iter()
        .any(|r| r.outcome != reps[0].outcome || slice_events(r) != slice_events(&reps[0]))
    {
        failures.push("same-seed replays disagree".into());
    }
    let metrics = if args.trace {
        per_layer(args.kind, args.seed, &reps, &mut failures)
    } else {
        end_to_end(&reps)
    };
    let o = &reps[0].outcome;
    if metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        failures.push("a metric is not a finite number".into());
    }

    println!(
        "workload {:?} seed {} replays {}: events {} owed {} delivered {} latency samples {}",
        args.kind,
        args.seed,
        reps.len(),
        o.events,
        o.owed,
        o.delivered,
        o.latency_samples
    );
    for (i, r) in reps.iter().enumerate() {
        println!(
            "  replay {i}: setup {:.4} s, run {:.4} s, cpu {:.4} s",
            r.setup.total().as_secs_f64(),
            r.run().as_secs_f64(),
            r.cpu().as_secs_f64()
        );
    }
    for (name, unit, value) in &metrics {
        println!("  {name:<34} {value:>18.6} {unit}");
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    let doc = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(o.attempted.max(1))),
        (
            "failed",
            Json::UInt(if correct {
                o.failed
            } else {
                o.attempted.max(1)
            }),
        ),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, unit, value)| {
                (
                    name,
                    Json::obj([("value", Json::Float(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    println!("{doc}");
    ExitCode::SUCCESS
}
