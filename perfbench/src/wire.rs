//! `wire_loopback`: one `SenderSession` over real UDP loopback, driven as
//! a closed loop that keeps a fixed number of messages outstanding, with
//! a small-message-dominated size mix. The sender runs on the calling
//! thread; the `Listener` runs on one more thread, driven here through
//! `poll_once`/`wait`.
//!
//! Timed phases: `setup_s` is listener bind plus the connect handshake,
//! `wall_s` runs from the first submission to the last sender-side
//! completion, and `close_s` is the sender's flush plus FIN/FIN-ACK. The
//! listener's TIME-WAIT linger falls in no metric.

use std::net::SocketAddrV4;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use mtp_io::payload::{fill, synth_message_digest};
use mtp_io::{Listener, SenderSession, SessionConfig, SessionError, SessionReport};
use mtp_telemetry::Metric;
use mtp_wire::MsgId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::probe::{spans_json, Probe, Span};
use crate::report::{median, tail_note, Report};
use crate::{Bench, Times};

/// Messages kept outstanding on the session.
const WINDOW: usize = 8;

/// Wall-clock limit on the send and close phases of one session.
const PHASE_LIMIT: Duration = Duration::from_secs(20);

/// Per-session wire counters and spans.
#[derive(Default)]
struct Spans {
    try_send: Span,
    poll: Span,
    wait: Span,
    listener_poll: Span,
    listener_wait: Span,
}

/// What one session produced.
pub struct WireRep {
    times: Times,
    close_s: f64,
    /// Per-message latency, submission to sender-side completion, in µs.
    latency_us: Vec<f64>,
    bytes: u64,
    failed: usize,
    retransmissions: u64,
    timeouts: u64,
    pkts_sent: u64,
    backpressure: u64,
    datagrams_tx: u64,
    frames_tx: u64,
    send_batches: u64,
    handshake_rounds: u32,
    /// Traced runs: call spans, per-`try_send` nanoseconds, and each
    /// message's (submit, complete) session-clock picoseconds.
    spans: Option<Spans>,
    send_ns: Vec<u64>,
    msg_spans: Vec<(u64, u64)>,
}

/// The wire workload.
pub struct Wire {
    seed: u64,
    sizes: Vec<u32>,
}

impl Wire {
    /// `wire_loopback` at `seed` with `messages` per session: 90% of sizes
    /// uniform in 200 B–4 KB, the rest up to 64 KB.
    pub fn new(seed: u64, messages: usize) -> Wire {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x31AE_0000);
        let sizes = (0..messages)
            .map(|_| {
                if rng.gen_range(0..10) < 9 {
                    rng.gen_range(200..=4096)
                } else {
                    rng.gen_range(4097..=65536)
                }
            })
            .collect();
        Wire { seed, sizes }
    }

    fn cfg(&self) -> SessionConfig {
        SessionConfig {
            seed: self.seed,
            ..SessionConfig::default()
        }
    }
}

fn err(what: &str) -> impl Fn(SessionError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Serve one session to its end (FIN plus linger) or until `abort`.
fn serve<P: Probe>(mut l: Listener, abort: &AtomicBool) -> Result<(SessionReport, P, P), String> {
    let (mut poll, mut wait) = (P::default(), P::default());
    let deadline = Instant::now() + 3 * PHASE_LIMIT;
    loop {
        poll.time(|| l.poll_once())
            .map_err(|e| format!("listener poll: {e}"))?;
        if let Some(report) = l.take_finished().pop() {
            return Ok((report, poll, wait));
        }
        if abort.load(Ordering::Relaxed) || Instant::now() > deadline {
            return Err("listener stopped before the session closed".into());
        }
        wait.time(|| l.wait(Duration::from_millis(5)))
            .map_err(|e| format!("listener wait: {e}"))?;
    }
}

/// The sender side of one session.
struct Client<P> {
    s: SenderSession,
    /// Id of the first message.
    base: u64,
    setup_s: f64,
    wall_s: f64,
    rss_mb: f64,
    close_s: f64,
    /// Per-message latency, submission to sender-side completion, in µs.
    latency_us: Vec<f64>,
    /// Traced runs: nanoseconds of each `try_send`, and each message's
    /// (submit, complete) session-clock picoseconds.
    send_ns: Vec<u64>,
    msg_spans: Vec<(u64, u64)>,
    /// Probes around `try_send`, `poll` and `wait`.
    probes: [P; 3],
}

impl Wire {
    /// Connect (set-up began at `t0`), drive the closed loop, and close.
    fn client<P: Probe>(
        &self,
        cfg: &SessionConfig,
        addr: SocketAddrV4,
        t0: Instant,
    ) -> Result<Client<P>, String> {
        let mut s = SenderSession::connect(cfg, addr).map_err(err("connect"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        let n = self.sizes.len();
        let base = s.next_msg_id();
        let mut sp = [P::default(), P::default(), P::default()];
        let mut submitted_at = vec![0u64; n];
        let mut latency_us = Vec::with_capacity(n);
        let mut send_ns = Vec::new();
        let mut msg_spans = Vec::new();
        let (mut next, mut done, mut seen) = (0usize, 0usize, 0usize);
        let t1 = Instant::now();
        let deadline = t1 + PHASE_LIMIT;
        while done < n {
            while next < n && next - done < WINDOW {
                let len = self.sizes[next];
                let mut bytes = vec![0u8; len as usize];
                fill(MsgId(base + next as u64), 0, &mut bytes);
                let at = s.now().0;
                let before = sp[0].span().map(|x| x.ns);
                match sp[0].time(|| s.try_send(bytes)) {
                    Ok(_) => {}
                    Err(SessionError::Backpressure { .. }) => break,
                    Err(e) => return Err(format!("try_send: {e}")),
                }
                if let (Some(b), Some(x)) = (before, sp[0].span()) {
                    send_ns.push(x.ns - b);
                }
                submitted_at[next] = at;
                next += 1;
            }
            sp[1].time(|| s.poll()).map_err(err("poll"))?;
            for &(id, at) in &s.completions()[seen..] {
                let i = (id - base) as usize;
                latency_us.push((at.0 - submitted_at[i]) as f64 / 1e6);
                if P::ON {
                    msg_spans.push((submitted_at[i], at.0));
                }
                done += 1;
            }
            seen = s.completions().len();
            if done < n && (next == n || next - done >= WINDOW) {
                sp[2]
                    .time(|| s.wait(Duration::from_millis(1)))
                    .map_err(err("wait"))?;
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "{done} of {n} messages completed in {PHASE_LIMIT:?}"
                ));
            }
        }
        let wall_s = t1.elapsed().as_secs_f64();
        let rss_mb = crate::report::peak_rss_mb();
        let t1 = Instant::now();
        s.close(Instant::now() + PHASE_LIMIT)
            .map_err(err("close"))?;
        Ok(Client {
            s,
            base,
            setup_s,
            wall_s,
            rss_mb,
            close_s: t1.elapsed().as_secs_f64(),
            latency_us,
            send_ns,
            msg_spans,
            probes: sp,
        })
    }

    /// Exactly-once delivery, with each message's content digest equal to
    /// its payload-synthesis digest.
    fn check(
        &self,
        base: u64,
        completions: &[(u64, mtp_sim::Time)],
        served: &SessionReport,
    ) -> Result<(), String> {
        let n = self.sizes.len() as u64;
        let mut ids: Vec<u64> = completions.iter().map(|c| c.0).collect();
        ids.sort_unstable();
        if ids.len() as u64 != n || ids.iter().enumerate().any(|(i, &id)| id != base + i as u64) {
            return Err(format!(
                "sender completed {} distinct-id messages of {n}",
                ids.len()
            ));
        }
        let mut digests = served.digests.clone();
        digests.sort_unstable();
        if digests.len() as u64 != n {
            return Err(format!(
                "listener delivered {} messages of {n}",
                digests.len()
            ));
        }
        let mut scratch = Vec::new();
        for (i, &(id, len, digest)) in digests.iter().enumerate() {
            if id != base + i as u64 || len != self.sizes[i] {
                return Err(format!("delivery {i} is ({id:#x}, {len} B)"));
            }
            if digest != synth_message_digest(MsgId(id), len, &mut scratch) {
                return Err(format!("message {id:#x} delivered with corrupted content"));
            }
        }
        Ok(())
    }
}

impl Bench for Wire {
    type Rep = WireRep;

    fn rep<P: Probe>(&mut self) -> Result<WireRep, String> {
        let cfg = self.cfg();
        let abort = AtomicBool::new(false);
        let t0 = Instant::now();
        let listener = Listener::bind(&cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = listener.hello_addr().map_err(|e| format!("bind: {e}"))?;
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve::<P>(listener, &abort));
            let client = self.client::<P>(&cfg, addr, t0);
            if client.is_err() {
                abort.store(true, Ordering::Relaxed);
            }
            let served = server.join().expect("listener thread panicked");
            let c = client?;
            let (report, lpoll, lwait) = served?;
            let t1 = Instant::now();
            self.check(c.base, c.s.completions(), &report)?;
            let reg = c.s.registry();
            let stats = &c.s.core().stats;
            let spans = P::ON.then(|| {
                let span = |p: &P| p.span().cloned().unwrap_or_default();
                Spans {
                    try_send: span(&c.probes[0]),
                    poll: span(&c.probes[1]),
                    wait: span(&c.probes[2]),
                    listener_poll: span(&lpoll),
                    listener_wait: span(&lwait),
                }
            });
            Ok(WireRep {
                times: Times {
                    setup_s: c.setup_s,
                    wall_s: c.wall_s,
                    check_s: t1.elapsed().as_secs_f64(),
                    rss_mb: c.rss_mb,
                },
                close_s: c.close_s,
                bytes: self.sizes.iter().map(|&b| b as u64).sum(),
                failed: self.sizes.len() - c.s.completions().len(),
                retransmissions: stats.retransmissions,
                timeouts: stats.timeouts,
                pkts_sent: stats.pkts_sent,
                backpressure: reg.get(Metric::SessionBackpressure),
                datagrams_tx: reg.get(Metric::WireDatagramsTx),
                frames_tx: reg.get(Metric::WireFramesTx),
                send_batches: reg.get(Metric::WireSendBatches),
                handshake_rounds: c.s.handshake_rounds(),
                spans,
                latency_us: c.latency_us,
                send_ns: c.send_ns,
                msg_spans: c.msg_spans,
            })
        })
    }

    fn times(rep: &WireRep) -> Times {
        rep.times
    }

    fn report(&self, plain: &[WireRep], traced: &[WireRep], r: &mut Report) {
        let lat: Vec<f64> = plain
            .iter()
            .flat_map(|x| x.latency_us.iter().copied())
            .collect();
        let note = tail_note(&lat);
        r.e2e(
            "msg_latency_p50_us",
            mtp_workload::percentile(&lat, 50.0),
            "us",
            note.clone(),
        );
        r.e2e(
            "msg_latency_p99_us",
            mtp_workload::percentile(&lat, 99.0),
            "us",
            note,
        );
        let goodput: Vec<f64> = plain
            .iter()
            .map(|x| x.bytes as f64 * 8.0 / x.times.wall_s / 1e6)
            .collect();
        r.timing("goodput_mbps", &goodput, "Mb/s");
        let payload: Vec<f64> = goodput.iter().map(|g| g / 8.0).collect();
        r.timing("payload_mb_per_s", &payload, "MB/s");
        let close: Vec<f64> = plain.iter().map(|x| x.close_s).collect();
        r.timing("close_s", &close, "s");
        r.attempted = (plain.len() * self.sizes.len()) as u64;
        r.failed = plain.iter().map(|x| x.failed as u64).sum();
        r.e2e(
            "msgs_failed_frac",
            r.failed as f64 / r.attempted as f64,
            "ratio",
            format!("{} messages over {} sessions", r.attempted, plain.len()),
        );
        if traced.is_empty() {
            return;
        }
        let t = &traced[0];
        let sum = |f: fn(&Spans) -> &Span| -> Vec<f64> {
            traced
                .iter()
                .map(|x| f(x.spans.as_ref().expect("traced rep has spans")).secs())
                .collect()
        };
        r.layer("io.try_send_s", median(&sum(|s| &s.try_send)), "s");
        r.layer("io.poll_s", median(&sum(|s| &s.poll)), "s");
        r.layer("io.wait_s", median(&sum(|s| &s.wait)), "s");
        r.layer(
            "io.listener_poll_s",
            median(&sum(|s| &s.listener_poll)),
            "s",
        );
        r.layer(
            "io.listener_wait_s",
            median(&sum(|s| &s.listener_wait)),
            "s",
        );
        r.layer("io.backpressure", t.backpressure as f64, "count");
        r.layer("io.datagrams_tx", t.datagrams_tx as f64, "count");
        r.layer(
            "io.frames_per_datagram",
            t.frames_tx as f64 / t.datagrams_tx.max(1) as f64,
            "ratio",
        );
        r.layer(
            "io.datagrams_per_syscall",
            t.datagrams_tx as f64 / t.send_batches.max(1) as f64,
            "ratio",
        );
        r.layer("io.handshake_rounds", t.handshake_rounds as f64, "count");
        // Mean try_send cost over the first and last tenth of the session:
        // the growth is the session-length cost.
        let tenth = |last: bool| -> Vec<f64> {
            traced
                .iter()
                .map(|x| {
                    let k = (x.send_ns.len() / 10).max(1);
                    let part = if last {
                        &x.send_ns[x.send_ns.len() - k..]
                    } else {
                        &x.send_ns[..k]
                    };
                    part.iter().sum::<u64>() as f64 / part.len() as f64
                })
                .collect()
        };
        r.layer("io.send_ns_per_msg_first", median(&tenth(false)), "ns");
        r.layer("io.send_ns_per_msg_last", median(&tenth(true)), "ns");
        r.layer("core.retransmissions", t.retransmissions as f64, "count");
        r.layer("core.timeouts", t.timeouts as f64, "count");
        r.layer(
            "core.useful_frac",
            (t.pkts_sent - t.retransmissions) as f64 / t.pkts_sent.max(1) as f64,
            "ratio",
        );
        for name in [
            "core.sender_self_s",
            "core.sender_calls",
            "core.sender_ns_per_call",
            "core.receiver_self_s",
            "core.receiver_calls",
        ] {
            r.unavailable.push((
                name,
                "the session calls its sans-IO core internally; timing the core needs spans inside mtp-io",
            ));
        }
        let sp = t.spans.as_ref().expect("traced rep has spans");
        let spans = [
            ("io.try_send", &sp.try_send),
            ("io.poll", &sp.poll),
            ("io.wait", &sp.wait),
            ("io.listener_poll", &sp.listener_poll),
            ("io.listener_wait", &sp.listener_wait),
        ];
        r.extra.push(("spans", spans_json(&spans)));
        let last = traced.last().expect("non-empty");
        let spans: Vec<String> = last
            .msg_spans
            .iter()
            .map(|&(a, b)| format!("[{},{}]", a / 1000, b / 1000))
            .collect();
        r.extra
            .push(("msg_spans_ns", format!("[{}]", spans.join(","))));
    }
}
