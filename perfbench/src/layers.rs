//! Counting, timing wrappers around the trait objects the simulators take
//! from their callers: the `PathSelector`, the `Transport`, and every
//! queue a `DisciplineFactory` builds. Each wrapper forwards every trait
//! method unchanged, so a traced run simulates exactly what an untraced
//! run does; it only adds a call count and the time spent inside.

use dcn_routing::PathSelector;
use dcn_sim::{
    AckActions, EnqueueOutcome, Flow, Ns, Packet, PacketArena, PktId, QueueDiscipline, SimConfig,
    Transport,
};
use dcn_topology::{LinkId, NodeId, Topology};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Calls into one layer boundary and the wall time spent inside them.
/// The counters publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Span {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn seconds(&self) -> f64 {
        self.ns.load(Relaxed) as f64 / 1e9
    }
}

/// A layer's self time: its span minus the part its child spans cover.
pub fn self_time(total_s: f64, children_s: &[f64]) -> f64 {
    total_s - children_s.iter().sum::<f64>()
}

/// Path selection, plus the switch hops of every path handed out.
#[derive(Debug, Default)]
pub struct SelectSpan {
    pub span: Span,
    hops: AtomicU64,
}

impl SelectSpan {
    pub fn hops_mean(&self) -> f64 {
        match self.span.calls() {
            0 => 0.0,
            n => self.hops.load(Relaxed) as f64 / n as f64,
        }
    }
}

pub struct CountedSelector {
    pub inner: Box<dyn PathSelector>,
    pub stats: Arc<SelectSpan>,
}

impl CountedSelector {
    fn path(&self, f: impl FnOnce() -> Vec<LinkId>) -> Vec<LinkId> {
        let path = self.stats.span.time(f);
        self.stats.hops.fetch_add(path.len() as u64, Relaxed);
        path
    }
}

impl PathSelector for CountedSelector {
    fn select(&self, src: NodeId, dst: NodeId, key: u64, bytes_sent: u64) -> Vec<LinkId> {
        self.path(|| self.inner.select(src, dst, key, bytes_sent))
    }

    fn select_with_feedback(
        &self,
        src: NodeId,
        dst: NodeId,
        key: u64,
        bytes_sent: u64,
        ecn_marks: u64,
    ) -> Vec<LinkId> {
        self.path(|| {
            self.inner
                .select_with_feedback(src, dst, key, bytes_sent, ecn_marks)
        })
    }

    fn rebuild(&self, topo: &Topology) -> Box<dyn PathSelector> {
        Box::new(CountedSelector {
            inner: self.inner.rebuild(topo),
            stats: self.stats.clone(),
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

pub struct CountedTransport {
    pub inner: Box<dyn Transport>,
    pub span: Arc<Span>,
}

impl Transport for CountedTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_cwnd(&self, cfg: &SimConfig) -> f64 {
        self.span.time(|| self.inner.initial_cwnd(cfg))
    }

    fn on_ack(
        &self,
        f: &mut Flow,
        c: u32,
        ack_ecn: bool,
        rtt_ns: Ns,
        cfg: &SimConfig,
    ) -> AckActions {
        self.span
            .time(|| self.inner.on_ack(f, c, ack_ecn, rtt_ns, cfg))
    }

    fn on_timeout(&self, f: &mut Flow, cfg: &SimConfig) {
        self.span.time(|| self.inner.on_timeout(f, cfg))
    }

    fn on_send(&self, f: &mut Flow, seq: u32, cfg: &SimConfig) {
        self.span.time(|| self.inner.on_send(f, seq, cfg))
    }

    fn priority(&self, f: &Flow, cfg: &SimConfig) -> u32 {
        self.span.time(|| self.inner.priority(f, cfg))
    }
}

pub struct CountedQueue {
    pub inner: Box<dyn QueueDiscipline>,
    pub span: Arc<Span>,
}

impl QueueDiscipline for CountedQueue {
    fn enqueue(&mut self, id: PktId, pool: &mut PacketArena) -> EnqueueOutcome {
        let inner = &mut self.inner;
        self.span.time(|| inner.enqueue(id, pool))
    }

    fn dequeue(&mut self) -> Option<PktId> {
        let inner = &mut self.inner;
        self.span.time(|| inner.dequeue())
    }

    fn queue_bytes(&self) -> u64 {
        self.span.time(|| self.inner.queue_bytes())
    }

    fn queue_len(&self) -> usize {
        self.span.time(|| self.inner.queue_len())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn snapshot_queue(&self, pool: &PacketArena) -> Option<Vec<Packet>> {
        self.inner.snapshot_queue(pool)
    }

    fn restore_queue(&mut self, pkts: Vec<Packet>, pool: &mut PacketArena) {
        self.inner.restore_queue(pkts, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_routing::RoutingSuite;
    use dcn_sim::{Dctcp, QueueDiscKind};
    use dcn_topology::xpander::Xpander;

    #[test]
    fn self_time_subtracts_child_spans() {
        assert_eq!(self_time(2.0, &[0.5, 0.25, 0.25]), 1.0);
        assert_eq!(self_time(1.5, &[]), 1.5);
    }

    #[test]
    fn selector_forwards_and_rebuilt_selector_keeps_counting() {
        let t = Xpander::new(6, 4, 2, 1).build();
        let suite = RoutingSuite::new(&t);
        let stats = Arc::new(SelectSpan::default());
        let sel = CountedSelector {
            inner: Box::new(suite.hyb(100_000)),
            stats: stats.clone(),
        };
        assert_eq!(sel.name(), "HYB");
        let direct = suite.hyb(100_000).select(0, 9, 77, 0);
        assert_eq!(sel.select(0, 9, 77, 0), direct);
        let rebuilt = sel.rebuild(&t);
        assert_eq!(rebuilt.name(), "HYB");
        assert_eq!(rebuilt.select_with_feedback(0, 9, 77, 0, 0), direct);
        assert_eq!(stats.span.calls(), 2);
        assert_eq!(stats.hops_mean(), direct.len() as f64);
    }

    #[test]
    fn transport_and_queue_forward_names() {
        let tr = CountedTransport {
            inner: Box::new(Dctcp),
            span: Arc::default(),
        };
        assert_eq!(tr.name(), "dctcp");
        let cfg = SimConfig::default();
        assert_eq!(tr.initial_cwnd(&cfg), Dctcp.initial_cwnd(&cfg));
        assert_eq!(tr.span.calls(), 1);
        let q = CountedQueue {
            inner: QueueDiscKind::TailDropEcn.build(150_000, 30_000),
            span: Arc::default(),
        };
        assert_eq!(q.name(), "tail_drop_ecn");
        assert_eq!(q.queue_len(), 0);
        assert_eq!(q.span.calls(), 1);
    }
}
