//! `clos_mtp` and `clos_faults`: MTP duplex hosts on a leaf-spine fabric
//! with MTP-LB leaves, carrying a cross-leaf permutation of heavy-tailed
//! Poisson messages; `clos_faults` adds failover and a seeded fault
//! schedule (blackhole cuts, a corruption storm, a spine crash).
//!
//! The fabric is built here from the public `SwitchNode` /
//! `FanoutForwarder` / `StaticRoutes` parts, in the same order as
//! `mtp_bench::topo::leaf_spine_ext`, so that traced runs can put a
//! [`Traced`](crate::probe::Traced) wrapper around every switch. At the
//! default seed `clos_mtp` is the MTP-LB row of the `leafspine` binary.

use std::time::Instant;

use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_faults::{FaultDriver, FaultSchedule, LinkSpec};
use mtp_net::{FanoutForwarder, Stamp, StampKind, StaticRoutes, Strategy, SwitchNode};
use mtp_sim::corrupt::materialize;
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{
    sanitize, Ctx, DirLinkId, Headers, LinkFailMode, Node, NodeFault, NodeId, Packet, PortId,
    Simulator,
};
use mtp_wire::{EntityId, PathletId, PktType};
use mtp_workload::{poisson_schedule, FctCollector, SizeDist};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::probe::{spans_json, Probe, Span};
use crate::report::{median, Report};
use crate::{Bench, Times};

/// The seed at which `clos_mtp` reproduces `results/leafspine.json`.
pub const DEFAULT_SEED: u64 = 0;

/// The MTP-LB row of `results/leafspine.json`: completed, total,
/// small-message p99 (µs), all-message p99 (µs), retransmissions.
pub const LEAFSPINE_MTP_LB: (usize, usize, f64, f64, u64) =
    (9240, 9240, 132.936256, 984.085995, 489);

/// Fabric shape and traffic.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    /// Messages arrive over `[0, send_ms)`.
    send_ms: u64,
    /// The simulation runs to this horizon.
    horizon_ms: u64,
    /// Independent traffic samples per run seed, one per repetition, so
    /// that one run's figures do not hang on a single heavy-tailed draw.
    samples: u64,
}

impl Shape {
    /// The `leafspine` experiment's fabric: 4 × 4 × 4, 5 ms of arrivals.
    pub fn full() -> Shape {
        Shape {
            leaves: 4,
            spines: 4,
            hosts_per_leaf: 4,
            send_ms: 5,
            horizon_ms: 30,
            samples: 4,
        }
    }

    /// A reduced fabric for the smoke test. With two leaves, 1 to 5 of 60
    /// samples saw no corrupted frame and failed the fault-path gate;
    /// with four, none of 260 did.
    pub fn small() -> Shape {
        Shape {
            leaves: 4,
            spines: 4,
            hosts_per_leaf: 2,
            send_ms: 1,
            horizon_ms: 20,
            samples: 2,
        }
    }

    fn hosts(&self) -> usize {
        self.leaves * self.hosts_per_leaf
    }

    fn addr(&self, k: usize) -> u16 {
        k as u16 + 1
    }

    /// Host `k` sends to the host one leaf over.
    fn dst(&self, k: usize) -> usize {
        (k + self.hosts_per_leaf) % self.hosts()
    }
}

/// Offered load on each host's 100 Gbps link.
const LOAD: f64 = 0.45;
/// Messages up to this size are the paper's short RPCs.
const SMALL_BYTES: u64 = 100 * 1024;

/// A host that sends its schedule and sinks whatever arrives, with the
/// sender and receiver halves timed as separate layers.
struct DuplexHost<P> {
    sender: MtpSenderNode,
    sink: MtpSinkNode,
    tx: P,
    rx: P,
    /// Frames whose header verified but whose payload checksum failed,
    /// handed to the sender half: it accepts them (an ACK carries no
    /// payload) without counting them malformed.
    dirty_accepted: u64,
}

impl<P: Probe> Node for DuplexHost<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let sender = &mut self.sender;
        self.tx.time(|| sender.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // Data goes to the sink half; ACK/NACK/Control to the sender half.
        let is_data = pkt
            .headers
            .as_mtp()
            .is_some_and(|h| h.pkt_type == PktType::Data);
        if is_data {
            let sink = &mut self.sink;
            self.rx.time(|| sink.on_packet(ctx, port, pkt));
        } else {
            if pkt.payload_dirty && pkt.headers.as_mtp().is_some() {
                self.dirty_accepted += 1;
            }
            let sender = &mut self.sender;
            self.tx.time(|| sender.on_packet(ctx, port, pkt));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let sender = &mut self.sender;
        self.tx.time(|| sender.on_timer(ctx, token));
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        Node::audit_counters(&self.sender, out);
        Node::audit_counters(&self.sink, out);
    }

    fn name(&self) -> &str {
        "duplex-host"
    }
}

/// A switch that also counts the corrupted frames it receives whose bytes
/// are those of an intact frame: two bit flips on one bit cancel, so the
/// frame verifies and is forwarded although its link counted it
/// corrupted. Every other damaged frame must be rejected (`malformed`).
struct CheckedSwitch {
    sw: SwitchNode,
    unchanged: u64,
}

/// True when a mangled frame is byte-identical to a valid sealed header.
fn unchanged(pkt: &Packet) -> bool {
    let Headers::Mangled { bytes, .. } = &pkt.headers else {
        return false;
    };
    let mut copy = pkt.clone();
    sanitize(&mut copy).is_ok()
        && !copy.payload_dirty
        && materialize(&copy.headers).is_some_and(|(_, sealed)| sealed == *bytes)
}

impl Node for CheckedSwitch {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        if unchanged(&pkt) {
            self.unchanged += 1;
        }
        self.sw.on_packet(ctx, port, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.sw.on_timer(ctx, token);
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.sw.on_start(ctx);
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: NodeFault) {
        self.sw.on_fault(ctx, fault);
    }

    fn name(&self) -> &str {
        self.sw.name()
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        self.sw.audit_counters(out);
    }
}

/// A built fabric, ready to run.
struct Built {
    sim: Simulator,
    hosts: Vec<NodeId>,
    switches: Vec<NodeId>,
    schedules: Vec<Vec<ScheduledMsg>>,
    faults: Option<FaultSchedule>,
}

/// What one traffic sample produced.
#[derive(Default)]
pub struct ClosRep {
    times: Times,
    events: u64,
    scheduled: usize,
    completed: usize,
    /// Payload bytes of every scheduled message.
    bytes: u64,
    fct: FctCollector,
    retransmissions: u64,
    timeouts: u64,
    pkts_sent: u64,
    link_tx: u64,
    link_dropped: u64,
    link_marked: u64,
    max_qlen: u64,
    corrupted: u64,
    malformed: u64,
    unchanged: u64,
    dirty_accepted: u64,
    faults_applied: u64,
    /// Switch, sender and receiver handler spans (empty when untraced).
    spans: [Span; 3],
    /// Digest of every simulated outcome, for the determinism gate.
    signature: u64,
    /// Which of the run seed's samples this is.
    index: usize,
}

/// The clos workloads.
pub struct Clos {
    seed: u64,
    shape: Shape,
    faults: bool,
    /// Samples simulated so far by untraced and by traced repetitions.
    done: [u64; 2],
    /// Each sample's signature from its first run; later runs, traced or
    /// not, must match it.
    signatures: Vec<Option<u64>>,
}

impl Clos {
    /// `clos_mtp` (`faults = false`) or `clos_faults` at `seed`.
    pub fn new(seed: u64, shape: Shape, faults: bool) -> Clos {
        Clos {
            seed,
            shape,
            faults,
            done: [0; 2],
            signatures: vec![None; shape.samples as usize],
        }
    }

    fn cfg(&self) -> MtpConfig {
        if self.faults {
            MtpConfig::default().with_failover()
        } else {
            MtpConfig::default()
        }
    }

    /// Poisson schedules per host; at sample seed 0 these are the
    /// `leafspine` binary's (host `k` seeded `900 + k`).
    fn schedules(&self, seed: u64) -> Vec<Vec<ScheduledMsg>> {
        let sh = self.shape;
        (0..sh.hosts())
            .map(|k| {
                let mut rng =
                    SmallRng::seed_from_u64(seed.wrapping_mul(1000).wrapping_add(900 + k as u64));
                poisson_schedule(
                    &mut rng,
                    &SizeDist::BoundedPareto {
                        alpha: 1.2,
                        min: 10 * 1024,
                        max: 10 << 20,
                    },
                    Bandwidth::from_gbps(100),
                    LOAD,
                    Time::ZERO,
                    Duration::from_millis(sh.send_ms),
                    None,
                )
                .into_iter()
                .map(|(t, b)| {
                    let mut m = ScheduledMsg::new(t, b as u32);
                    m.pri = (64 - b.leading_zeros()) as u8;
                    m
                })
                .collect()
            })
            .collect()
    }

    /// The fabric and traffic of one sample; sample seed 0 is the
    /// `leafspine` binary's run (simulator seed 77).
    fn build<P: Probe>(&self, seed: u64) -> Built {
        let sh = self.shape;
        let link = LinkSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1));
        let schedules = self.schedules(seed);
        let mut sim = Simulator::new(77u64.wrapping_add(seed));
        let hosts: Vec<NodeId> = (0..sh.hosts())
            .map(|k| {
                let addr = sh.addr(k);
                sim.add_node(Box::new(DuplexHost::<P> {
                    sender: MtpSenderNode::new(
                        self.cfg(),
                        addr,
                        sh.addr(sh.dst(k)),
                        EntityId(addr),
                        (k as u64 + 1) << 40,
                        schedules[k].clone(),
                    ),
                    sink: MtpSinkNode::new(addr, Duration::from_micros(100)),
                    tx: P::default(),
                    rx: P::default(),
                    dirty_accepted: 0,
                }))
            })
            .collect();
        let fan: Vec<PortId> = (0..sh.spines)
            .map(|s| PortId(sh.hosts_per_leaf + s))
            .collect();
        let leaves: Vec<NodeId> = (0..sh.leaves)
            .map(|leaf| {
                let mut routes = StaticRoutes::new();
                for i in 0..sh.hosts_per_leaf {
                    routes = routes.add(sh.addr(leaf * sh.hosts_per_leaf + i), PortId(i));
                }
                let strategy = Strategy::mtp_lb(
                    sh.spines,
                    (0..sh.spines)
                        .map(|s| Some(PathletId(s as u16 + 1)))
                        .collect(),
                );
                let mut sw = SwitchNode::new(
                    format!("leaf{leaf}"),
                    Box::new(FanoutForwarder::new(routes, fan.clone(), strategy)),
                );
                for (s, port) in fan.iter().enumerate() {
                    sw = sw.with_stamp(
                        *port,
                        Stamp::new(PathletId(s as u16 + 1), StampKind::Presence),
                    );
                }
                sim.add_node(P::wrap(CheckedSwitch { sw, unchanged: 0 }))
            })
            .collect();
        let spines: Vec<NodeId> = (0..sh.spines)
            .map(|s| {
                let mut routes = StaticRoutes::new();
                for k in 0..sh.hosts() {
                    routes = routes.add(sh.addr(k), PortId(k / sh.hosts_per_leaf));
                }
                let sw = SwitchNode::new(
                    format!("spine{s}"),
                    Box::new(FanoutForwarder::new(routes, vec![], Strategy::Fixed)),
                );
                sim.add_node(P::wrap(CheckedSwitch { sw, unchanged: 0 }))
            })
            .collect();
        let (mut access, mut uplinks) = (Vec::new(), Vec::new());
        for leaf in 0..sh.leaves {
            for i in 0..sh.hosts_per_leaf {
                let h = hosts[leaf * sh.hosts_per_leaf + i];
                access.push(sim.connect(
                    h,
                    PortId(0),
                    leaves[leaf],
                    PortId(i),
                    link.link_cfg(),
                    link.link_cfg(),
                ));
            }
            for (s, &spine) in spines.iter().enumerate() {
                uplinks.push(sim.connect(
                    leaves[leaf],
                    PortId(sh.hosts_per_leaf + s),
                    spine,
                    PortId(leaf),
                    link.link_cfg(),
                    link.link_cfg(),
                ));
            }
        }
        let faults = self
            .faults
            .then(|| self.fault_schedule(seed, &access, &uplinks, &spines));
        let mut switches = leaves;
        switches.extend_from_slice(&spines);
        Built {
            sim,
            hosts,
            switches,
            schedules,
            faults,
        }
    }

    /// Two blackhole cable pulls on leaf-spine links, a corruption storm
    /// on one host's access link, and one spine crash/restart, all while
    /// traffic is arriving. The storm is on a host's own link because only
    /// that link is sure to carry frames: MTP-LB can leave a leaf's uplink
    /// to one spine almost idle for a whole sample (one sample sent 253
    /// frames on it against 29 000–68 000 on its three siblings).
    fn fault_schedule(
        &self,
        seed: u64,
        access: &[(DirLinkId, DirLinkId)],
        uplinks: &[(DirLinkId, DirLinkId)],
        spines: &[NodeId],
    ) -> FaultSchedule {
        let ms = self.shape.send_ms as f64;
        let at = |frac: f64| Time::ZERO + Duration::from_nanos((frac * ms * 1e6) as u64);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17_5EED);
        let mut s = FaultSchedule::new();
        let first = rng.gen_range(0..uplinks.len());
        let second = (first + rng.gen_range(1..uplinks.len())) % uplinks.len();
        for (n, &l) in [first, second].iter().enumerate() {
            let (up, down) = uplinks[l];
            let t = 0.1 + 0.3 * n as f64 + rng.gen_range(0.0..0.1);
            s.cut_both(up, down, at(t), at(t + 0.2), LinkFailMode::Blackhole);
        }
        let (storm, _) = access[rng.gen_range(0..access.len())];
        let t = rng.gen_range(0.1..0.3);
        s.corrupt_rate(at(t), storm, 20_000, 2, seed ^ 0xC0);
        s.corrupt_rate(at(t + 0.4), storm, 0, 0, 0);
        let spine = spines[rng.gen_range(0..spines.len())];
        let t = rng.gen_range(0.3..0.6);
        s.crash_restart(spine, at(t), at(t + 0.1));
        s
    }

    /// Build, run and check one traffic sample.
    fn sample<P: Probe>(&self, seed: u64) -> Result<ClosRep, String> {
        let t0 = Instant::now();
        let mut f = self.build::<P>(seed);
        let setup_s = t0.elapsed().as_secs_f64();
        let horizon = Time::ZERO + Duration::from_millis(self.shape.horizon_ms);
        let t0 = Instant::now();
        let faults_applied = match f.faults.take() {
            Some(schedule) => {
                let mut driver = FaultDriver::new(schedule);
                driver.run_until(&mut f.sim, horizon);
                driver.applied.len() as u64
            }
            None => {
                f.sim.run_until(horizon);
                0
            }
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let rss_mb = crate::report::peak_rss_mb();

        let t0 = Instant::now();
        let sim = &f.sim;
        let sh = self.shape;
        let audit = sim.audit();
        if !audit.ok() {
            return Err(format!(
                "conservation audit: {}",
                audit.violations.join("; ")
            ));
        }
        let mut r = ClosRep {
            faults_applied,
            events: sim.events_processed(),
            scheduled: f.schedules.iter().map(Vec::len).sum(),
            bytes: f.schedules.iter().flatten().map(|m| m.bytes as u64).sum(),
            ..ClosRep::default()
        };
        let mut sig = Fnv::new();
        for (k, &h) in f.hosts.iter().enumerate() {
            let node = sim.node_as::<DuplexHost<P>>(h);
            let stats = &node.sender.sender.stats;
            r.retransmissions += stats.retransmissions;
            r.timeouts += stats.timeouts;
            r.pkts_sent += stats.pkts_sent;
            r.malformed += node.sender.malformed + node.sink.malformed;
            r.dirty_accepted += node.dirty_accepted;
            for m in &node.sender.msgs {
                if let Some(d) = m.fct() {
                    r.fct.record(m.bytes as u64, d);
                    r.completed += 1;
                    sig.add(d.0);
                }
            }
            sig.add(stats.retransmissions);
            if let (Some(tx), Some(rx)) = (node.tx.span(), node.rx.span()) {
                r.spans[1].merge(tx);
                r.spans[2].merge(rx);
            }
            exactly_once::<P>(&f, sh, k)?;
        }
        for &s in &f.switches {
            let node = P::inner::<CheckedSwitch>(sim, s);
            r.malformed += node.sw.stats.malformed;
            r.unchanged += node.unchanged;
            if let Some(span) = P::node_span::<CheckedSwitch>(sim, s) {
                r.spans[0].merge(span);
            }
        }
        for d in 0..sim.num_links() {
            let st = sim.link_stats(DirLinkId(d));
            r.link_tx += st.tx_pkts;
            r.link_dropped += st.dropped_pkts;
            r.link_marked += st.marked_pkts;
            r.max_qlen = r.max_qlen.max(st.max_qlen_pkts as u64);
            r.corrupted += st.corrupted_pkts;
        }
        // Every damaged frame was rejected, destroyed, or accepted in one
        // of the two ways the devices are known to accept one.
        let destroyed = sim.corrupted_destroyed();
        if r.malformed + destroyed + r.unchanged + r.dirty_accepted != r.corrupted {
            return Err(format!(
                "corruption ledger: {} malformed + {destroyed} destroyed + {} unchanged \
                 + {} dirty accepted != {} corrupted",
                r.malformed, r.unchanged, r.dirty_accepted, r.corrupted
            ));
        }
        if self.faults && (r.corrupted == 0 || r.malformed == 0 || faults_applied == 0) {
            return Err(format!(
                "fault path idle: {} corrupted, {} malformed, {faults_applied} faults",
                r.corrupted, r.malformed
            ));
        }
        if r.completed != r.scheduled {
            return Err(format!(
                "{} of {} messages completed",
                r.completed, r.scheduled
            ));
        }
        if !self.faults && seed == DEFAULT_SEED && sh.hosts() == Shape::full().hosts() {
            leafspine_row(&r)?;
        }
        sig.add(r.events);
        r.signature = sig.0;
        r.times = Times {
            setup_s,
            wall_s,
            check_s: t0.elapsed().as_secs_f64(),
            rss_mb,
        };
        Ok(r)
    }
}

/// Exactly-once delivery from host `k` to its sink: every scheduled
/// message was delivered once, with its size, under the id the sender
/// allocated for it, and the sink saw nothing else.
fn exactly_once<P: Probe>(f: &Built, sh: Shape, k: usize) -> Result<(), String> {
    let base = (k as u64 + 1) << 40;
    let sched = &f.schedules[k];
    let sink = &f.sim.node_as::<DuplexHost<P>>(f.hosts[sh.dst(k)]).sink;
    let mut mine: Vec<(u64, u32)> = sink
        .delivered
        .iter()
        .filter(|d| d.src == sh.addr(k))
        .map(|d| (d.id.0, d.bytes))
        .collect();
    mine.sort_unstable();
    if mine.len() != sched.len() || sink.delivered.len() != mine.len() {
        return Err(format!(
            "host {k}: {} of {} messages delivered ({} deliveries at its sink)",
            mine.len(),
            sched.len(),
            sink.delivered.len()
        ));
    }
    for (i, (&(id, bytes), m)) in mine.iter().zip(sched).enumerate() {
        if id != base + i as u64 || bytes != m.bytes {
            return Err(format!(
                "host {k}: delivery {i} is ({id:#x}, {bytes} B), expected ({:#x}, {} B)",
                base + i as u64,
                m.bytes
            ));
        }
    }
    Ok(())
}

/// The `leafspine` MTP-LB row must come out of sample seed 0.
fn leafspine_row(r: &ClosRep) -> Result<(), String> {
    let (done, total, small, all, retx) = LEAFSPINE_MTP_LB;
    let got = (
        r.completed,
        r.scheduled,
        r.fct.summary_for_sizes(0, SMALL_BYTES + 1).p99_us,
        r.fct.summary().p99_us,
        r.retransmissions,
    );
    let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
    if got.0 != done
        || got.1 != total
        || !close(got.2, small)
        || !close(got.3, all)
        || got.4 != retx
    {
        return Err(format!(
            "leafspine MTP-LB row not reproduced: got {got:?}, expected {LEAFSPINE_MTP_LB:?}"
        ));
    }
    Ok(())
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

impl Bench for Clos {
    type Rep = ClosRep;

    /// One repetition simulates one of the run seed's traffic samples;
    /// untraced and traced repetitions each cycle through them in order.
    /// Sample seeds are `seed * samples + i`, so run seed 0 starts with
    /// the `leafspine` run.
    fn rep<P: Probe>(&mut self) -> Result<ClosRep, String> {
        let n = self.shape.samples;
        let done = &mut self.done[usize::from(P::ON)];
        let i = *done % n;
        *done += 1;
        let mut rep = self.sample::<P>(self.seed.wrapping_mul(n).wrapping_add(i))?;
        rep.index = i as usize;
        match &mut self.signatures[i as usize] {
            s @ None => *s = Some(rep.signature),
            Some(s) if *s != rep.signature => {
                return Err(format!(
                    "simulated outcome of sample {i} differs between repetitions of one seed"
                ))
            }
            Some(_) => {}
        }
        Ok(rep)
    }

    /// One pass over every traffic sample, so that the simulated outcomes
    /// cover them all.
    fn min_reps(&self) -> usize {
        crate::MIN_REPS.max(self.shape.samples as usize)
    }

    /// The peak RSS covers one pass over the samples.
    fn rss_reps(&self) -> usize {
        self.shape.samples as usize
    }

    fn times(rep: &ClosRep) -> Times {
        rep.times
    }

    fn report(&self, plain: &[ClosRep], traced: &[ClosRep], r: &mut Report) {
        // Rates over one pass over the samples, each sample timed by its
        // median: samples differ in cost per byte by more than the
        // run-to-run noise, so a median over all repetitions would hang
        // on which sample lands in the middle, and a plain total on how
        // often each sample ran.
        let n = self.shape.samples as usize;
        let wall: f64 = (0..n)
            .map(|i| {
                let walls: Vec<f64> = plain
                    .iter()
                    .filter(|x| x.index == i)
                    .map(|x| x.times.wall_s)
                    .collect();
                median(&walls)
            })
            .sum();
        let first = self.pass(plain);
        let over = format!(
            "{} repetitions; one pass over {n} samples, each at its median wall, sums to {wall:.6} s",
            plain.len()
        );
        r.e2e(
            "events_per_s",
            first.events as f64 / wall,
            "1/s",
            over.clone(),
        );
        r.e2e(
            "payload_mb_per_s",
            first.bytes as f64 / 1e6 / wall,
            "MB/s",
            over,
        );
        let all = first.fct.summary();
        let small = first.fct.summary_for_sizes(0, SMALL_BYTES + 1);
        let note = |n: usize| format!("simulated, exact for the seed; n={n}");
        r.e2e("sim_fct_p50_us", all.p50_us, "us", note(all.count));
        r.e2e("sim_fct_p99_us", all.p99_us, "us", note(all.count));
        r.e2e(
            "sim_small_fct_p99_us",
            small.p99_us,
            "us",
            note(small.count),
        );
        r.e2e(
            "msgs_failed_frac",
            (first.scheduled - first.completed) as f64 / first.scheduled as f64,
            "ratio",
            format!("{} scheduled", first.scheduled),
        );
        r.attempted = plain.iter().map(|x| x.scheduled as u64).sum();
        r.failed = plain
            .iter()
            .map(|x| (x.scheduled - x.completed) as u64)
            .sum();
        if traced.is_empty() {
            return;
        }
        // Counts: totals over one pass over the samples. Times: medians
        // over the traced repetitions, one sample each.
        let t = self.pass(traced);
        r.layer("sim.events", t.events as f64, "count");
        r.layer("sim.link_tx_pkts", t.link_tx as f64, "count");
        r.layer("sim.link_dropped_pkts", t.link_dropped as f64, "count");
        r.layer("sim.link_marked_pkts", t.link_marked as f64, "count");
        r.layer("sim.max_qlen_pkts", t.max_qlen as f64, "pkts");
        r.layer("sim.corrupted_frames", t.corrupted as f64, "count");
        r.layer("sim.malformed_pkts", t.malformed as f64, "count");
        r.layer(
            "sim.corrupted_unchanged_frames",
            t.unchanged as f64,
            "count",
        );
        r.layer(
            "core.sender_dirty_accepted",
            t.dirty_accepted as f64,
            "count",
        );
        r.layer("faults.applied", t.faults_applied as f64, "count");
        r.layer("core.retransmissions", t.retransmissions as f64, "count");
        r.layer("core.timeouts", t.timeouts as f64, "count");
        r.layer(
            "core.useful_frac",
            (t.pkts_sent - t.retransmissions) as f64 / t.pkts_sent.max(1) as f64,
            "ratio",
        );
        let per_rep =
            |f: &dyn Fn(&ClosRep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let engine = per_rep(&|x| x.times.wall_s - x.spans.iter().map(Span::secs).sum::<f64>());
        r.layer("sim.self_s", engine, "s");
        let secs = |i: usize| per_rep(&|x| x.spans[i].secs());
        let ns_per_call =
            |i: usize| per_rep(&|x| x.spans[i].secs() * 1e9 / x.spans[i].calls as f64);
        let calls = |i: usize| t.spans[i].calls as f64;
        r.layer("net.switch_self_s", secs(0), "s");
        r.layer("net.switch_calls", calls(0), "count");
        r.layer("net.switch_ns_per_call", ns_per_call(0), "ns");
        r.layer("core.sender_self_s", secs(1), "s");
        r.layer("core.sender_calls", calls(1), "count");
        r.layer("core.sender_ns_per_call", ns_per_call(1), "ns");
        r.layer("core.receiver_self_s", secs(2), "s");
        r.layer("core.receiver_calls", calls(2), "count");
        let names = ["net.switch", "core.sender", "core.receiver"];
        let spans: Vec<(&str, &Span)> = names.into_iter().zip(&t.spans).collect();
        r.extra.push(("spans", spans_json(&spans)));
    }
}

impl Clos {
    /// The first pass over the samples, pooled: counts summed, completion
    /// times pooled, queue high-water marks maxed.
    fn pass(&self, reps: &[ClosRep]) -> ClosRep {
        let mut p = ClosRep::default();
        for o in &reps[..self.shape.samples as usize] {
            p.events += o.events;
            p.bytes += o.bytes;
            p.scheduled += o.scheduled;
            p.completed += o.completed;
            p.fct.samples.extend_from_slice(&o.fct.samples);
            p.retransmissions += o.retransmissions;
            p.timeouts += o.timeouts;
            p.pkts_sent += o.pkts_sent;
            p.link_tx += o.link_tx;
            p.link_dropped += o.link_dropped;
            p.link_marked += o.link_marked;
            p.max_qlen = p.max_qlen.max(o.max_qlen);
            p.corrupted += o.corrupted;
            p.malformed += o.malformed;
            p.unchanged += o.unchanged;
            p.dirty_accepted += o.dirty_accepted;
            p.faults_applied += o.faults_applied;
            for (a, b) in p.spans.iter_mut().zip(&o.spans) {
                a.merge(b);
            }
        }
        p
    }
}
