//! The repository benchmark: seeded workloads over the workspace's public
//! APIs, each checked for correctness, timed end to end, and (in a
//! separate traced run) broken down by layer. `BENCHMARK.json` declares
//! three of them; `clos_mtp` runs on request only. See `NOTES.md`.
//!
//! ```text
//! perfbench --workload <clos_mtp|clos_faults|fabric_10k|wire_loopback>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `metrics` holds
//! the end-to-end metrics `BENCHMARK.json` declares (`--trace 0`) or its
//! per-layer metrics (`--trace 1`). Every metric the workload measures is
//! printed above it by name and unit, and everything is also written to
//! `.bench_out/<workload>-seed<n>-trace<t>.json`. A failed correctness
//! gate exits 1.

mod clos;
mod fabric;
mod probe;
mod report;
mod wire;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use probe::{Probe, Span};
use report::{median, metrics_json, num, Report};

/// Every workload the command runs: those `BENCHMARK.json` declares plus
/// `clos_mtp`, the fault-free fabric, which carries the `leafspine`
/// cross-check but drifts too far from run to run on a shared host to be
/// declared (see `NOTES.md`).
const WORKLOADS: &[&str] = &["clos_mtp", "clos_faults", "fabric_10k", "wire_loopback"];

/// End-to-end metrics declared in `BENCHMARK.json`; every workload
/// reports each of them.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("payload_mb_per_s", "MB/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics declared in `BENCHMARK.json`. A workload that does
/// not reach a layer reports 0 for its metrics.
pub const LAYERS: &[(&str, &str)] = &[
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("sim.link_tx_pkts", "count"),
    ("sim.link_dropped_pkts", "count"),
    ("sim.link_marked_pkts", "count"),
    ("sim.max_qlen_pkts", "pkts"),
    ("sim.shard.serial_wall_s", "s"),
    ("sim.shard.scaling", "ratio"),
    ("sim.shard.boundary_crossings", "count"),
    ("net.switch_self_s", "s"),
    ("net.switch_calls", "count"),
    ("net.switch_ns_per_call", "ns"),
    ("core.sender_self_s", "s"),
    ("core.sender_calls", "count"),
    ("core.sender_ns_per_call", "ns"),
    ("core.receiver_self_s", "s"),
    ("core.receiver_calls", "count"),
    ("core.retransmissions", "count"),
    ("core.timeouts", "count"),
    ("core.useful_frac", "ratio"),
    ("sim.corrupted_frames", "count"),
    ("sim.malformed_pkts", "count"),
    ("sim.corrupted_unchanged_frames", "count"),
    ("core.sender_dirty_accepted", "count"),
    ("faults.applied", "count"),
    ("io.try_send_s", "s"),
    ("io.poll_s", "s"),
    ("io.wait_s", "s"),
    ("io.listener_poll_s", "s"),
    ("io.listener_wait_s", "s"),
    ("io.backpressure", "count"),
    ("io.datagrams_tx", "count"),
    ("io.frames_per_datagram", "ratio"),
    ("io.datagrams_per_syscall", "ratio"),
    ("io.handshake_rounds", "count"),
    ("io.send_ns_per_msg_first", "ns"),
    ("io.send_ns_per_msg_last", "ns"),
    ("bench.check_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Repetitions measured even when they outlast `--seconds`, unless a
/// workload asks for more.
const MIN_REPS: usize = 3;

/// Wall-clock phases every repetition reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    /// Topology build and schedule generation (wire: bind + handshake).
    pub setup_s: f64,
    /// The measured phase.
    pub wall_s: f64,
    /// Correctness gates, outside both timed phases.
    pub check_s: f64,
    /// Peak RSS of the process so far, read right after the measured
    /// phase.
    pub rss_mb: f64,
}

/// One workload.
pub trait Bench {
    /// What one repetition produced.
    type Rep;

    /// Set up, run the measured phase, and check the outcome; an error
    /// names the gate that failed. `P` is the tracing probe.
    fn rep<P: Probe>(&mut self) -> Result<Self::Rep, String>;

    /// The repetition's timed phases.
    fn times(rep: &Self::Rep) -> Times;

    /// Untraced repetitions measured even when they outlast `--seconds`.
    fn min_reps(&self) -> usize {
        MIN_REPS
    }

    /// Untraced repetitions whose measured phases the reported peak RSS
    /// covers.
    fn rss_reps(&self) -> usize {
        1
    }

    /// Add the workload's own metrics from untraced (`plain`) and traced
    /// repetitions.
    fn report(&self, plain: &[Self::Rep], traced: &[Self::Rep], r: &mut Report);
}

/// Repeat `b` for `seconds` (at least [`Bench::min_reps`] times),
/// alternating with traced repetitions when `trace`, and summarize. The
/// traced repetitions share the deadline, so a traced run takes as long
/// as an untraced one.
fn measure<B: Bench>(mut b: B, seconds: u64, trace: bool) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < b.min_reps() || Instant::now() < deadline {
        plain.push(b.rep::<()>()?);
        let t = B::times(plain.last().expect("just pushed"));
        eprintln!(
            "rep {}: setup {:.6} s, wall {:.6} s, peak rss {:.1} MB",
            plain.len(),
            t.setup_s,
            t.wall_s,
            t.rss_mb
        );
        if trace {
            traced.push(b.rep::<Span>()?);
        }
    }
    let col = |reps: &[B::Rep], f: fn(&Times) -> f64| -> Vec<f64> {
        reps.iter().map(|x| f(&B::times(x))).collect()
    };
    let mut r = Report::default();
    r.timing("setup_s", &col(&plain, |t| t.setup_s), "s");
    r.timing("wall_s", &col(&plain, |t| t.wall_s), "s");
    let first = b.rss_reps();
    r.e2e(
        "peak_rss_mb",
        B::times(&plain[first - 1]).rss_mb,
        "MB",
        format!("through the measured phase of repetition {first}"),
    );
    b.report(&plain, &traced, &mut r);
    if trace {
        let mut checks = col(&plain, |t| t.check_s);
        checks.extend(col(&traced, |t| t.check_s));
        r.layer("bench.check_s", median(&checks), "s");
        r.layer(
            "bench.trace_overhead_frac",
            median(&col(&traced, |t| t.wall_s)) / median(&col(&plain, |t| t.wall_s)) - 1.0,
            "ratio",
        );
    }
    Ok(r)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: clos::DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Run one workload by name; `small` selects the smoke test's reduced
/// sizes.
fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    small: bool,
) -> Result<Report, String> {
    match workload {
        "clos_mtp" | "clos_faults" => {
            let shape = if small {
                clos::Shape::small()
            } else {
                clos::Shape::full()
            };
            let faults = workload == "clos_faults";
            measure(clos::Clos::new(seed, shape, faults), seconds, trace)
        }
        "fabric_10k" => {
            let shape = if small {
                fabric::Shape::small()
            } else {
                fabric::Shape::full()
            };
            measure(fabric::Fabric::new(seed, shape), seconds, trace)
        }
        "wire_loopback" => {
            let messages = if small { 500 } else { 20_000 };
            measure(wire::Wire::new(seed, messages), seconds, trace)
        }
        other => unreachable!("unknown workload {other}"),
    }
}

/// The result line: the declared metrics of the requested kind.
fn result_line(r: &Report, correct: bool, trace: bool) -> String {
    let declared = if trace { LAYERS } else { E2E };
    let metrics = declared.iter().map(|&(name, unit)| {
        let value = r.get(name).unwrap_or(0.0);
        (name, value, unit)
    });
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.attempted.max(1),
        r.failed,
        metrics_json(metrics)
    )
}

/// Everything measured, for `.bench_out/`.
fn full_json(args: &Args, r: &Report, error: Option<&str>) -> String {
    let all = |ms: &[report::Metric]| metrics_json(ms.iter().map(|m| (m.name, m.value, m.unit)));
    let mut s = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"cores\": {}, \"error\": {}, \
         \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"unavailable\": {{",
        args.workload,
        args.seed,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        error.map_or("null".into(), |e| format!("{e:?}")),
        r.attempted,
        r.failed,
        all(&r.e2e),
        all(&r.layers),
    );
    for (i, (name, why)) in r.unavailable.iter().enumerate() {
        let _ = write!(s, "{}\"{name}\": {why:?}", if i > 0 { ", " } else { "" });
    }
    s.push('}');
    for (key, raw) in &r.extra {
        let _ = write!(s, ", \"{key}\": {raw}");
    }
    s.push('}');
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) if a.workload.is_empty() => usage("--workload is required"),
        Ok(a) => usage(&format!("unknown workload {}", a.workload)),
        Err(e) => usage(&e),
    };
    let outcome = run(&args.workload, args.seed, args.seconds, args.trace, false);
    let (report, error) = match outcome {
        Ok(r) => (r, None),
        Err(e) => (Report::default(), Some(e)),
    };
    for m in report.e2e.iter().chain(report.layers.iter()) {
        println!(
            "{:<28} {:>16} {:<6} {}",
            m.name,
            num(m.value),
            m.unit,
            m.note
        );
    }
    for (name, why) in &report.unavailable {
        println!("{name:<28} unavailable: {why}");
    }
    let _ = std::fs::create_dir_all(".bench_out");
    let path = format!(
        ".bench_out/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::write(&path, full_json(&args, &report, error.as_deref())) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    if let Some(e) = &error {
        eprintln!("perfbench: correctness gate failed: {e}");
    }
    println!("{}", result_line(&report, error.is_none(), args.trace));
    if error.is_some() {
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <clos_mtp|clos_faults|fabric_10k|wire_loopback> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOS_E2E: &[&str] = &[
        "events_per_s",
        "sim_fct_p50_us",
        "sim_fct_p99_us",
        "sim_small_fct_p99_us",
        "msgs_failed_frac",
    ];
    const CLOS_LAYERS: &[&str] = &[
        "sim.self_s",
        "sim.events",
        "sim.link_tx_pkts",
        "sim.link_dropped_pkts",
        "sim.link_marked_pkts",
        "sim.max_qlen_pkts",
        "net.switch_self_s",
        "net.switch_calls",
        "net.switch_ns_per_call",
        "core.sender_self_s",
        "core.sender_calls",
        "core.sender_ns_per_call",
        "core.receiver_self_s",
        "core.receiver_calls",
        "core.retransmissions",
        "core.timeouts",
        "core.useful_frac",
        "sim.corrupted_frames",
        "sim.malformed_pkts",
        "sim.corrupted_unchanged_frames",
        "core.sender_dirty_accepted",
        "faults.applied",
    ];

    /// The metrics each workload is responsible for, beyond the common
    /// ones: (workload, end-to-end, per-layer).
    fn owned() -> Vec<(&'static str, Vec<&'static str>, Vec<&'static str>)> {
        vec![
            ("clos_mtp", CLOS_E2E.to_vec(), CLOS_LAYERS.to_vec()),
            ("clos_faults", CLOS_E2E.to_vec(), CLOS_LAYERS.to_vec()),
            (
                "fabric_10k",
                vec!["events_per_s"],
                vec![
                    "sim.self_s",
                    "sim.events",
                    "sim.link_tx_pkts",
                    "sim.link_dropped_pkts",
                    "sim.link_marked_pkts",
                    "sim.max_qlen_pkts",
                    "sim.shard.serial_wall_s",
                    "sim.shard.scaling",
                    "sim.shard.boundary_crossings",
                    "sim.corrupted_frames",
                    "sim.malformed_pkts",
                    "faults.applied",
                ],
            ),
            (
                "wire_loopback",
                vec![
                    "msg_latency_p50_us",
                    "msg_latency_p99_us",
                    "goodput_mbps",
                    "close_s",
                    "msgs_failed_frac",
                ],
                LAYERS
                    .iter()
                    .map(|l| l.0)
                    .filter(|n| n.starts_with("io.") || n.starts_with("core."))
                    .filter(|&n| n != "core.sender_dirty_accepted")
                    .collect(),
            ),
        ]
    }

    /// Each workload at a reduced size passes its gates and reports every
    /// metric it is responsible for (or why one is unavailable).
    #[test]
    fn smoke_every_workload() {
        for (workload, e2e, layers) in owned() {
            let r = run(workload, 1, 0, true, true)
                .unwrap_or_else(|e| panic!("{workload}: gate failed: {e}"));
            let common = E2E.iter().map(|m| m.0);
            for name in common.chain(e2e) {
                assert!(
                    r.e2e.iter().any(|m| m.name == name),
                    "{workload}: no {name}"
                );
            }
            let bench = ["bench.check_s", "bench.trace_overhead_frac"];
            for name in layers.into_iter().chain(bench) {
                let measured = r.layers.iter().any(|m| m.name == name);
                let excused = r.unavailable.iter().any(|u| u.0 == name);
                assert!(
                    measured ^ excused,
                    "{workload}: {name} neither measured nor excused"
                );
            }
            assert!(r.attempted > 0 && r.failed == 0, "{workload}: failures");
            if workload == "clos_faults" {
                for name in [
                    "sim.corrupted_frames",
                    "sim.malformed_pkts",
                    "faults.applied",
                ] {
                    assert!(r.get(name) > Some(0.0), "{workload}: {name} is zero");
                }
            }
        }
    }

    /// Simulated outcomes repeat exactly for one seed and move with it.
    #[test]
    fn sim_metrics_repeat_per_seed() {
        let sim = |seed| {
            let r = run("clos_mtp", seed, 0, false, true).expect("gates pass");
            ["sim_fct_p50_us", "sim_fct_p99_us", "sim_small_fct_p99_us"].map(|n| r.get(n))
        };
        assert_eq!(sim(1), sim(1));
        assert_ne!(sim(1), sim(2));
    }

    /// At the default seed `clos_mtp` is `results/leafspine.json`'s MTP-LB
    /// row (the repetition fails its gate otherwise). Slow in debug
    /// builds: run the tests with `--release`.
    #[test]
    fn leafspine_row_is_reproduced() {
        let mut c = clos::Clos::new(clos::DEFAULT_SEED, clos::Shape::full(), false);
        c.rep::<()>().expect("leafspine MTP-LB row");
    }

    /// The workloads declared in `BENCHMARK.json`.
    const DECLARED: &[&str] = &["clos_faults", "fabric_10k", "wire_loopback"];

    /// `BENCHMARK.json` declares exactly the workloads `DECLARED` names
    /// and the metrics the result line carries.
    #[test]
    fn benchmark_json_matches() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(json.matches("\"why\"").count(), DECLARED.len());
        for w in DECLARED {
            assert!(WORKLOADS.contains(w), "{w}");
            assert!(json.contains(&format!("\"name\": \"{w}\", \"why\"")), "{w}");
        }
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, E2E.len() + LAYERS.len());
        for (name, unit) in E2E.iter().chain(LAYERS) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
