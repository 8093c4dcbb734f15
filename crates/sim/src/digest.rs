//! Engine-state digests: deterministic text dumps of a finished run that
//! regression gates compare byte for byte (or hash and pin).
//!
//! Two forms exist, on purpose:
//!
//! * [`engine_dump`] — the **ordered** dump: event count, clock, every
//!   link's counters in link-id order, then every retained trace event in
//!   the order the engine recorded it. Intra-timestamp trace order is part
//!   of the record, so any change to event ordering shows up as a diff.
//!   The perf-gate workloads and the scenario cells digest this form.
//! * [`render_digest`] — the **sharded canonical** form: per-shard
//!   [`DigestParts`] merged with link stats sorted by global id, trace
//!   events sorted by content key, and counters summed. A sharded run
//!   interleaves shards nondeterministically, so its merge must be
//!   order-independent; that sort is exactly what the ordered dump must
//!   not do. [`monolithic_digest`] renders a serial run in the same form
//!   for parallel == serial comparisons.

use std::fmt::Write as _;

use crate::engine::{DirLinkId, LinkStats, Simulator};
use crate::time::Time;
use crate::tracefile::flight_code;

/// The ordered dump of everything the engine observes about a run: an
/// `events=… final_now=…` header, one line per link with its counters,
/// and one line per retained trace event in recording order.
pub fn engine_dump(sim: &Simulator) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "events={} final_now={}",
        sim.events_processed(),
        sim.now().0
    );
    for i in 0..sim.num_links() {
        let s = sim.link_stats(DirLinkId(i));
        let _ = writeln!(
            out,
            "link {i}: offered={} tx={} bytes={} dropped={} marked={} trimmed={} maxq={}",
            s.offered_pkts,
            s.tx_pkts,
            s.tx_bytes,
            s.dropped_pkts,
            s.marked_pkts,
            s.trimmed_pkts,
            s.max_qlen_pkts
        );
    }
    for (i, e) in sim.trace_events().iter().enumerate() {
        let _ = writeln!(
            out,
            "trace {i}: t={} pkt={} node={} port={} kind={:?}",
            e.time.0, e.pkt.0, e.node.0, e.port.0, e.kind
        );
    }
    out
}

/// The digest-relevant content of one simulator, with ids translated to
/// global coordinates so per-shard parts can merge.
#[derive(Debug, Clone)]
pub struct DigestParts {
    /// `(global dir id, stats)` for every link whose egress state this
    /// simulator owns (ingress half-links are skipped — their stats live
    /// with the egress shard).
    pub links: Vec<(usize, LinkStats)>,
    /// Trace events as content keys:
    /// `(time ps, global node, port, packet id, kind code)`.
    pub trace: Vec<(u64, usize, usize, u64, u16)>,
    /// Events processed by this simulator.
    pub events: u64,
    /// This simulator's clock.
    pub now: Time,
    /// Packets delivered to live nodes.
    pub delivered_pkts: u64,
    /// Wire bytes delivered to live nodes.
    pub delivered_bytes: u64,
    /// Packets destroyed on arrival at crashed nodes.
    pub faulted_deliveries: u64,
    /// Wire bytes destroyed on arrival at crashed nodes.
    pub faulted_delivery_bytes: u64,
    /// Corruption-damaged packets the engine destroyed.
    pub corrupted_destroyed: u64,
}

/// Extract [`DigestParts`] from a simulator. `node_globals` and
/// `dir_globals` map local ids to global ones (identity for a monolithic
/// run — see [`monolithic_digest`]).
///
/// # Panics
/// Panics if the trace ring wrapped: a digest over a partial trace window
/// would silently compare incomplete records. Raise the trace cap (or
/// disable tracing; an empty trace is a complete record of nothing).
pub fn digest_parts(sim: &Simulator, node_globals: &[usize], dir_globals: &[usize]) -> DigestParts {
    let mut links = Vec::new();
    for (d, &global) in dir_globals.iter().enumerate().take(sim.num_links()) {
        let dir = DirLinkId(d);
        if sim.link_is_boundary_ingress(dir) {
            continue;
        }
        links.push((global, *sim.link_stats(dir)));
    }
    let trace: Vec<_> = sim
        .trace_events()
        .iter()
        .map(|e| {
            (
                e.time.0,
                node_globals[e.node.0],
                e.port.0,
                e.pkt.0,
                flight_code(e.kind),
            )
        })
        .collect();
    assert!(
        sim.trace_total() == trace.len() as u64,
        "trace ring wrapped ({} recorded, {} retained): digest would be incomplete",
        sim.trace_total(),
        trace.len()
    );
    DigestParts {
        links,
        trace,
        events: sim.events_processed(),
        now: sim.now(),
        delivered_pkts: sim.delivered_pkts(),
        delivered_bytes: sim.delivered_bytes(),
        faulted_deliveries: sim.faulted_deliveries(),
        faulted_delivery_bytes: sim.faulted_delivery_bytes(),
        corrupted_destroyed: sim.corrupted_destroyed(),
    }
}

/// Merge parts (one per shard, or a single monolithic part) into the
/// canonical digest string: link stats sorted by global id, trace events
/// sorted by content key, counters summed, clock = max. A sharded run and
/// its monolithic twin must render byte-identically.
///
/// This stays separate from [`engine_dump`]: merging across shards must be
/// independent of the order the shards' events interleaved in, while the
/// ordered dump deliberately pins intra-timestamp trace order.
pub fn render_digest(parts: Vec<DigestParts>) -> String {
    let mut links: Vec<(usize, LinkStats)> = Vec::new();
    let mut trace: Vec<(u64, usize, usize, u64, u16)> = Vec::new();
    let mut events = 0u64;
    let mut now = Time::ZERO;
    let (mut dp, mut db, mut fd, mut fdb, mut cd) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for p in parts {
        links.extend(p.links);
        trace.extend(p.trace);
        events += p.events;
        now = now.max(p.now);
        dp += p.delivered_pkts;
        db += p.delivered_bytes;
        fd += p.faulted_deliveries;
        fdb += p.faulted_delivery_bytes;
        cd += p.corrupted_destroyed;
    }
    links.sort_by_key(|&(g, _)| g);
    trace.sort_unstable();
    let mut out = String::new();
    let _ = writeln!(out, "now={} events={}", now.0, events);
    let _ = writeln!(
        out,
        "delivered={dp}/{db} faulted_deliveries={fd}/{fdb} corrupted_destroyed={cd}"
    );
    for (g, s) in &links {
        let _ = writeln!(out, "link {g}: {s:?}");
    }
    let _ = writeln!(out, "trace={}", trace.len());
    for (t, node, port, pkt, kind) in &trace {
        let _ = writeln!(out, "{t} n{node} p{port} pkt{pkt:#x} k{kind}");
    }
    out
}

/// The canonical digest of a monolithic simulator (identity id maps) —
/// the serial side of a parallel == serial comparison.
pub fn monolithic_digest(sim: &Simulator) -> String {
    let nodes: Vec<usize> = (0..sim.num_nodes()).collect();
    let dirs: Vec<usize> = (0..sim.num_links()).collect();
    render_digest(vec![digest_parts(sim, &nodes, &dirs)])
}
