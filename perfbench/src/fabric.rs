//! `fabric_10k`: the 10 240-endpoint, 8-pod Clos of `mtp_bench::fabric`
//! with synthetic hosts (no transport) and that module's seeded fault and
//! corruption schedule, run sharded. Its nodes are private to
//! `mtp_bench::fabric`, so no handler spans exist here: the traced run
//! reports engine and shard counters only.

use std::time::Instant;

use mtp_bench::fabric::{build, fault_schedule, run_serial, FabricCfg, FabricNet};
use mtp_sim::time::{Duration, Time};
use mtp_sim::{monolithic_digest, DirLinkId, Metric, ShardedSimulator};

use crate::probe::Probe;
use crate::report::{median, Report};
use crate::{Bench, Times};

/// Worker threads of the sharded run (the container has two cores).
pub const SHARDS: usize = 2;

/// Size of a fabric run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    cfg: FabricCfg,
    horizon_ms: u64,
}

impl Shape {
    /// `FabricCfg::figure()` with eight messages per host.
    pub fn full() -> Shape {
        Shape {
            cfg: FabricCfg {
                msgs_per_host: 8,
                ..FabricCfg::figure()
            },
            horizon_ms: 10,
        }
    }

    /// `FabricCfg::tiny()`, for the smoke test.
    pub fn small() -> Shape {
        Shape {
            cfg: FabricCfg::tiny(),
            horizon_ms: 2,
        }
    }
}

/// The serial engine's run of the same seed: the digest reference and
/// the per-link counters (identical to the sharded run's when the
/// digests agree).
struct Serial {
    digest: String,
    wall_s: f64,
    link_tx: u64,
    link_dropped: u64,
    link_marked: u64,
    max_qlen: u64,
    corrupted: u64,
}

/// What one repetition produced.
pub struct FabricRep {
    times: Times,
    events: u64,
    crossings: u64,
    malformed: u64,
    faults_applied: u64,
    pkts_sent: u64,
}

/// The fabric workload.
pub struct Fabric {
    seed: u64,
    shape: Shape,
    serial: Option<Serial>,
}

impl Fabric {
    /// `fabric_10k` at `seed`.
    pub fn new(seed: u64, shape: Shape) -> Fabric {
        Fabric {
            seed,
            shape,
            serial: None,
        }
    }

    fn horizon(&self) -> Time {
        Time::ZERO + Duration::from_millis(self.shape.horizon_ms)
    }

    fn run_serial(&self, net: &FabricNet) -> Result<Serial, String> {
        let t0 = Instant::now();
        let sim = run_serial(
            net,
            self.seed,
            None,
            self.horizon(),
            fault_schedule(net, self.seed),
        );
        let wall_s = t0.elapsed().as_secs_f64();
        let audit = sim.audit();
        if !audit.ok() {
            return Err(format!("serial audit: {}", audit.violations.join("; ")));
        }
        let mut s = Serial {
            digest: monolithic_digest(&sim),
            wall_s,
            link_tx: 0,
            link_dropped: 0,
            link_marked: 0,
            max_qlen: 0,
            corrupted: 0,
        };
        for d in 0..sim.num_links() {
            let st = sim.link_stats(DirLinkId(d));
            s.link_tx += st.tx_pkts;
            s.link_dropped += st.dropped_pkts;
            s.link_marked += st.marked_pkts;
            s.max_qlen = s.max_qlen.max(st.max_qlen_pkts as u64);
            s.corrupted += st.corrupted_pkts;
        }
        Ok(s)
    }
}

impl Bench for Fabric {
    type Rep = FabricRep;

    fn rep<P: Probe>(&mut self) -> Result<FabricRep, String> {
        let t0 = Instant::now();
        let net = build(self.shape.cfg);
        let mut ss = ShardedSimulator::new(net.graph.plan(SHARDS, self.seed, None));
        ss.schedule_admin(fault_schedule(&net, self.seed));
        // Shards build their simulators on their own threads; the audit
        // is a barrier that returns once every shard has been built.
        ss.audit();
        let setup_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        ss.run_until(self.horizon());
        let wall_s = t0.elapsed().as_secs_f64();
        let rss_mb = crate::report::peak_rss_mb();

        let t0 = Instant::now();
        let audit = ss.audit();
        if !audit.ok() {
            return Err(format!("sharded audit: {}", audit.violations.join("; ")));
        }
        let digest = ss.digest();
        let snap = ss.merged_snapshot();
        let events = ss.events_processed();
        drop(ss);
        if self.serial.is_none() {
            self.serial = Some(self.run_serial(&net)?);
        }
        if self.serial.as_ref().is_some_and(|s| s.digest != digest) {
            return Err("sharded digest differs from the serial engine's".into());
        }
        let c = self.shape.cfg;
        Ok(FabricRep {
            times: Times {
                setup_s,
                wall_s,
                check_s: t0.elapsed().as_secs_f64(),
                rss_mb,
            },
            events,
            crossings: snap.get(Metric::PktsBoundaryIn),
            malformed: snap.get(Metric::PktsMalformed),
            faults_applied: snap.get(Metric::FaultsApplied),
            pkts_sent: (c.num_hosts() as u64) * c.msgs_per_host as u64 * c.pkts_per_msg as u64,
        })
    }

    fn times(rep: &FabricRep) -> Times {
        rep.times
    }

    fn report(&self, plain: &[FabricRep], traced: &[FabricRep], r: &mut Report) {
        let rates: Vec<f64> = plain
            .iter()
            .map(|x| x.events as f64 / x.times.wall_s)
            .collect();
        r.timing("events_per_s", &rates, "1/s");
        let c = self.shape.cfg;
        let bytes = c.num_hosts() as f64 * (c.msgs_per_host * c.pkts_per_msg * c.payload) as f64;
        let payload: Vec<f64> = plain.iter().map(|x| bytes / 1e6 / x.times.wall_s).collect();
        r.timing("payload_mb_per_s", &payload, "MB/s");
        // A synthetic host has no transport, so a packet lost to a queue
        // or an injected fault is simulated behaviour, not a failure; a
        // packet the audits cannot account for would be one, and fails
        // the run instead.
        r.attempted = plain.iter().map(|x| x.pkts_sent).sum();
        r.failed = 0;
        let Some(t) = traced.first() else {
            return;
        };
        let s = self
            .serial
            .as_ref()
            .expect("first repetition ran the serial engine");
        r.layer("sim.events", t.events as f64, "count");
        r.layer("sim.link_tx_pkts", s.link_tx as f64, "count");
        r.layer("sim.link_dropped_pkts", s.link_dropped as f64, "count");
        r.layer("sim.link_marked_pkts", s.link_marked as f64, "count");
        r.layer("sim.max_qlen_pkts", s.max_qlen as f64, "pkts");
        r.layer("sim.corrupted_frames", s.corrupted as f64, "count");
        r.layer("sim.malformed_pkts", t.malformed as f64, "count");
        r.layer("faults.applied", t.faults_applied as f64, "count");
        let sharded: Vec<f64> = plain.iter().map(|x| x.times.wall_s).collect();
        r.layer("sim.shard.serial_wall_s", s.wall_s, "s");
        r.layer("sim.shard.scaling", s.wall_s / median(&sharded), "ratio");
        r.layer("sim.shard.boundary_crossings", t.crossings as f64, "count");
        r.unavailable.push((
            "sim.self_s",
            "fabric nodes are private to mtp_bench::fabric, so their handlers cannot be wrapped",
        ));
    }
}
