//! Benchmark-side spans: timing the calls into a layer from outside it.
//!
//! A [`Probe`] wraps one call site. The untraced build uses `()`, whose
//! `time` is the bare call, so measured end-to-end runs carry no tracing
//! code at all; the traced build uses [`Span`], which aggregates self
//! time, a call count and a log2 duration histogram in memory.

use std::time::Instant;

use mtp_sim::{Ctx, Node, NodeAuditCounters, NodeFault, NodeId, Packet, PortId, Simulator};

/// Aggregated timings of the calls into one layer.
#[derive(Debug, Clone, Default)]
pub struct Span {
    /// Total nanoseconds spent inside the calls.
    pub ns: u64,
    /// Number of calls.
    pub calls: u64,
    /// Call durations by power of two: bucket `b` counts calls that took
    /// `[2^(b-1), 2^b)` ns.
    pub hist: [u64; 32],
}

impl Span {
    /// Record one call of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
        let b = (64 - ns.leading_zeros()).min(31) as usize;
        self.hist[b] += 1;
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Span) {
        self.ns += other.ns;
        self.calls += other.calls;
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
    }

    /// Total time in seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// `{"layer": {"ns": …, "calls": …, "log2_ns_hist": […]}, …}`.
pub fn spans_json(spans: &[(&str, &Span)]) -> String {
    let body: Vec<String> = spans
        .iter()
        .map(|(name, s)| {
            let hist: Vec<String> = s.hist.iter().map(u64::to_string).collect();
            format!(
                "\"{name}\": {{\"ns\": {}, \"calls\": {}, \"log2_ns_hist\": [{}]}}",
                s.ns,
                s.calls,
                hist.join(",")
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A call-site timer: `()` when tracing is off, [`Span`] when it is on.
pub trait Probe: Default + Send + 'static {
    /// Whether this probe records anything.
    const ON: bool;

    /// Run `f`, recording its duration when tracing.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R;

    /// The aggregate so far (`None` when tracing is off).
    fn span(&self) -> Option<&Span>;

    /// Box `node` for the simulator, behind a [`Traced`] wrapper when
    /// tracing.
    fn wrap<N: Node>(node: N) -> Box<dyn Node>;

    /// The node added by [`wrap`](Probe::wrap) as `id`.
    fn inner<N: Node>(sim: &Simulator, id: NodeId) -> &N;

    /// The span of the node added by [`wrap`](Probe::wrap) as `id`.
    fn node_span<N: Node>(sim: &Simulator, id: NodeId) -> Option<&Span>;
}

impl Probe for () {
    const ON: bool = false;

    #[inline(always)]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn span(&self) -> Option<&Span> {
        None
    }

    fn wrap<N: Node>(node: N) -> Box<dyn Node> {
        Box::new(node)
    }

    fn inner<N: Node>(sim: &Simulator, id: NodeId) -> &N {
        sim.node_as::<N>(id)
    }

    fn node_span<N: Node>(_: &Simulator, _: NodeId) -> Option<&Span> {
        None
    }
}

impl Probe for Span {
    const ON: bool = true;

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(t0.elapsed().as_nanos() as u64);
        r
    }

    fn span(&self) -> Option<&Span> {
        Some(self)
    }

    fn wrap<N: Node>(node: N) -> Box<dyn Node> {
        Box::new(Traced {
            inner: node,
            span: Span::default(),
        })
    }

    fn inner<N: Node>(sim: &Simulator, id: NodeId) -> &N {
        &sim.node_as::<Traced<N>>(id).inner
    }

    fn node_span<N: Node>(sim: &Simulator, id: NodeId) -> Option<&Span> {
        Some(&sim.node_as::<Traced<N>>(id).span)
    }
}

/// A node whose event handlers are timed as one layer. Time spent in
/// `ctx.send` (queue discipline, link scheduling) falls inside the
/// handler that called it.
pub struct Traced<N> {
    /// The wrapped node.
    pub inner: N,
    /// Its handler timings.
    pub span: Span,
}

impl<N: Node> Node for Traced<N> {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_packet(ctx, port, pkt));
    }

    fn on_packet_batch(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkts: &mut Vec<Packet>) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_packet_batch(ctx, port, pkts));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_timer(ctx, token));
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_start(ctx));
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: NodeFault) {
        self.inner.on_fault(ctx, fault);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn audit_counters(&self, out: &mut NodeAuditCounters) {
        self.inner.audit_counters(out);
    }
}
