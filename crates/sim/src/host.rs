//! The host layer: per-flow sender/receiver state and pluggable
//! congestion control behind the [`Transport`] trait.
//!
//! A [`Flow`] holds everything an end host tracks — the send window, RTT
//! estimate, loss-recovery bookkeeping, the receive bitmap, and the
//! flowlet path cache. *Policy* — how the window reacts to ACKs, ECN
//! echoes, and timeouts — lives behind [`Transport`], one shared
//! (stateless) object per simulation operating on each flow's state:
//!
//! - [`Dctcp`] — the paper's transport: ECN-fraction-proportional window
//!   scaling (Alizadeh et al., SIGCOMM 2010) over NewReno loss recovery.
//! - [`NewReno`] — the loss-based baseline: identical recovery machinery,
//!   ECN echoes ignored.
//! - [`PFabric`] — pFabric's minimal transport: a fixed near-BDP window,
//!   no AIMD and no ECN reaction; the fabric's strict-priority queues
//!   (see [`crate::switch::PFabricQueue`]) do the scheduling.
//!
//! The engine drives the trait: it delivers ACK/timeout events, then
//! executes the returned [`AckActions`] (re-arm the RTO, retransmit a
//! hole, pump the window) so all event scheduling stays in one place.
//! It holds its transport by value as an `AnyTransport`, so the
//! built-in ones are called without a virtual dispatch.

use crate::path::PathId;
use crate::types::{Ns, SimConfig, TransportKind};
use dcn_topology::NodeId;

/// Per-flow sender + receiver state. The congestion-control fields are
/// public so external [`Transport`] implementations can drive them; the
/// routing/receiver plumbing stays crate-private.
pub struct Flow {
    pub(crate) src_server: u32,
    pub(crate) dst_server: u32,
    pub(crate) src_tor: NodeId,
    pub(crate) dst_tor: NodeId,
    pub(crate) size_bytes: u64,
    pub(crate) start_ns: Ns,
    /// Total data packets this flow must deliver.
    pub total_pkts: u32,
    // --- sender ---
    /// Next sequence number to send (go-back-N rewinds it).
    pub next_seq: u32,
    /// Cumulatively acknowledged packets.
    pub acked: u32,
    /// Congestion window in bytes.
    pub cwnd: f64,
    pub ssthresh: f64,
    /// DCTCP's EWMA of the marked fraction.
    pub alpha: f64,
    /// ECN-echoed ACKed packets in the current window (DCTCP α input).
    pub ecn_acked: u32,
    /// Lifetime count of ECN-marked ACKs (feedback for adaptive routing).
    pub(crate) ecn_total: u64,
    /// Packets ACKed in the current window (DCTCP α denominator).
    pub window_acked: u32,
    /// Sequence ending the current cwnd-update window.
    pub window_end: u32,
    pub cwnd_cut_this_window: bool,
    pub dupacks: u32,
    /// NewReno-style recovery: while `acked < recover`, no further window
    /// reductions from duplicate ACKs; partial ACKs retransmit the next
    /// hole immediately.
    pub in_recovery: bool,
    pub recover: u32,
    /// Smoothed RTT estimate in nanoseconds (0 before the first sample).
    pub srtt: f64,
    /// RTO backoff multiplier: doubles per timeout (capped at 64), reset
    /// to 1 by the first new ACK.
    pub rto_backoff: u32,
    /// When the armed retransmission timer expires.
    pub(crate) rto_deadline: Ns,
    /// When this flow's one `Rto` event in the calendar fires (0: none).
    /// Never later than `rto_deadline`; when it pops short of the
    /// deadline it is re-pushed at the deadline.
    pub(crate) rto_live: Ns,
    // --- flowlets ---
    pub(crate) last_send_ns: Ns,
    pub(crate) flowlet_count: u64,
    /// The current flowlet's route (`None` before the first flowlet and
    /// after an RTO or a no-route drop).
    pub(crate) cur_path: Option<PathId>,
    pub(crate) in_window: bool,
    // --- faults ---
    /// Terminated by the simulator: endpoints permanently disconnected,
    /// or still unfinished when the run stopped. Mirrored in
    /// [`FlowRx::failed`].
    pub(crate) failed: bool,
    /// When this flow first lost a packet to an injected fault.
    pub(crate) fault_hit_ns: Option<Ns>,
    /// When it next made forward progress (new cumulative ACK) after that.
    pub(crate) recovery_ns: Option<Ns>,
    /// Folded into the flowlet hash; bumped on RTO so retransmissions
    /// explore different paths (sender-side reroute around failures).
    pub(crate) path_salt: u64,
}

impl Flow {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        src_server: u32,
        dst_server: u32,
        src_tor: NodeId,
        dst_tor: NodeId,
        size_bytes: u64,
        start_ns: Ns,
        total_pkts: u32,
        init_cwnd: f64,
        in_window: bool,
    ) -> Self {
        Flow {
            src_server,
            dst_server,
            src_tor,
            dst_tor,
            size_bytes,
            start_ns,
            total_pkts,
            next_seq: 0,
            acked: 0,
            cwnd: init_cwnd,
            ssthresh: f64::INFINITY,
            alpha: 0.0,
            ecn_acked: 0,
            ecn_total: 0,
            window_acked: 0,
            window_end: 0,
            cwnd_cut_this_window: false,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            srtt: 0.0,
            rto_backoff: 1,
            rto_deadline: 0,
            rto_live: 0,
            last_send_ns: 0,
            flowlet_count: 0,
            cur_path: None,
            in_window,
            failed: false,
            fault_hit_ns: None,
            recovery_ns: None,
            path_salt: 0,
        }
    }

    /// Sender-side view of the packets not yet cumulatively acked — the
    /// remaining size pFabric stamps as its scheduling priority and the
    /// trace layer reports in flow summaries.
    pub fn remaining_pkts(&self) -> u32 {
        self.total_pkts - self.acked
    }

    /// Whether the flow is live at `now`: started, not finished, not
    /// terminated — the population the telemetry sampler counts. Takes
    /// the flow's receiver half because completion is receiver state.
    pub(crate) fn is_active(&self, rx: &FlowRx, now: Ns) -> bool {
        !self.failed && rx.finished_ns.is_none() && self.start_ns <= now
    }

    /// Sender-side bytes sent but not yet cumulatively acked (payload
    /// only, capped at the flow size for the short final packet).
    pub fn inflight_bytes(&self, mss: u32) -> u64 {
        let sent = (self.next_seq as u64 * mss as u64).min(self.size_bytes);
        let acked = (self.acked as u64 * mss as u64).min(self.size_bytes);
        sent - acked
    }
}

/// The receiver half of a flow: the state the destination host keeps.
/// Fields both halves need (`failed`, `in_window`, timing) are mirrored
/// at construction or when the flow is failed.
pub(crate) struct FlowRx {
    pub(crate) total_pkts: u32,
    pub(crate) dst_server: u32,
    pub(crate) start_ns: Ns,
    pub(crate) in_window: bool,
    /// Allocated lazily on the first data packet.
    pub(crate) rcv_bitmap: Vec<u64>,
    pub(crate) rcv_cum: u32,
    pub(crate) finished_ns: Option<Ns>,
    /// Mirror of [`Flow::failed`].
    pub(crate) failed: bool,
}

impl FlowRx {
    pub(crate) fn new(flow: &Flow) -> Self {
        FlowRx {
            total_pkts: flow.total_pkts,
            dst_server: flow.dst_server,
            start_ns: flow.start_ns,
            in_window: flow.in_window,
            rcv_bitmap: Vec::new(),
            rcv_cum: 0,
            finished_ns: None,
            failed: false,
        }
    }

    /// Record `seq` and advance the cumulative-ACK point.
    pub(crate) fn rcv_mark(&mut self, seq: u32) {
        let (w, b) = ((seq / 64) as usize, seq % 64);
        self.rcv_bitmap[w] |= 1 << b;
        while self.rcv_cum < self.total_pkts {
            let (w, b) = ((self.rcv_cum / 64) as usize, self.rcv_cum % 64);
            if self.rcv_bitmap[w] & (1 << b) == 0 {
                break;
            }
            self.rcv_cum += 1;
        }
    }
}

/// What the engine must do after a [`Transport`] processed an ACK: all
/// event scheduling stays with the engine, transports only decide.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AckActions {
    /// Re-arm the retransmission timer.
    pub rearm_rto: bool,
    /// Retransmit this sequence immediately (fast retransmit or a
    /// partial-ACK hole).
    pub retransmit: Option<u32>,
    /// Try to send more data (the window may have opened).
    pub pump: bool,
}

/// Congestion control for the packet simulator — the host-layer seam.
///
/// One transport instance is shared by every flow in a simulation; all
/// per-flow numbers live in [`Flow`]. Implementations must be
/// deterministic functions of their inputs. The engine calls
/// [`Transport::on_ack`] for every arriving ACK (new or duplicate),
/// [`Transport::on_timeout`] when the RTO fires (the engine itself then
/// rewinds `next_seq`, re-salts the path, and backs the timer off — that
/// go-back-N machinery is transport-independent), and
/// [`Transport::on_send`]/[`Transport::priority`] when emitting data.
pub trait Transport: Send + Sync {
    fn name(&self) -> &'static str;

    /// Initial congestion window in bytes for a new flow.
    fn initial_cwnd(&self, cfg: &SimConfig) -> f64 {
        (cfg.init_cwnd_pkts * cfg.mss) as f64
    }

    /// Processes an arriving ACK carrying cumulative sequence `c` and ECN
    /// echo `ack_ecn`; `rtt_ns` is the measured sample for this ACK.
    fn on_ack(
        &self,
        f: &mut Flow,
        c: u32,
        ack_ecn: bool,
        rtt_ns: Ns,
        cfg: &SimConfig,
    ) -> AckActions;

    /// The RTO fired: apply the transport's window reaction. Sequence
    /// rewinding and timer backoff are the engine's job.
    fn on_timeout(&self, f: &mut Flow, cfg: &SimConfig);

    /// A data packet with sequence `seq` is about to leave the host
    /// (pacing/priority hook; default no-op).
    fn on_send(&self, _f: &mut Flow, _seq: u32, _cfg: &SimConfig) {}

    /// Priority stamped onto outgoing data packets (lower = more urgent).
    /// Only priority-aware queue disciplines look at it.
    fn priority(&self, _f: &Flow, _cfg: &SimConfig) -> u32 {
        0
    }
}

/// Builds the built-in transport for a [`TransportKind`].
pub fn transport_for(kind: TransportKind) -> Box<dyn Transport> {
    match kind {
        TransportKind::Dctcp => Box::new(Dctcp),
        TransportKind::NewReno => Box::new(NewReno),
        TransportKind::PFabric => Box::new(PFabric),
    }
}

/// The engine's transport, held by value: a built-in one, or a caller's
/// behind a box (only [`crate::Simulator::with_transport`] and
/// [`crate::Simulator::with_parts`] build the `Custom` arm).
pub(crate) enum AnyTransport {
    Dctcp(Dctcp),
    NewReno(NewReno),
    PFabric(PFabric),
    Custom(Box<dyn Transport>),
}

impl AnyTransport {
    pub(crate) fn of(kind: TransportKind) -> Self {
        match kind {
            TransportKind::Dctcp => AnyTransport::Dctcp(Dctcp),
            TransportKind::NewReno => AnyTransport::NewReno(NewReno),
            TransportKind::PFabric => AnyTransport::PFabric(PFabric),
        }
    }
}

/// Runs `$body` with `$t` bound to whichever transport `$any` holds.
macro_rules! dispatch_transport {
    ($any:expr, $t:ident => $body:expr) => {
        match $any {
            AnyTransport::Dctcp($t) => $body,
            AnyTransport::NewReno($t) => $body,
            AnyTransport::PFabric($t) => $body,
            AnyTransport::Custom($t) => $body,
        }
    };
}

impl Transport for AnyTransport {
    fn name(&self) -> &'static str {
        dispatch_transport!(self, t => t.name())
    }

    fn initial_cwnd(&self, cfg: &SimConfig) -> f64 {
        dispatch_transport!(self, t => t.initial_cwnd(cfg))
    }

    #[inline]
    fn on_ack(
        &self,
        f: &mut Flow,
        c: u32,
        ack_ecn: bool,
        rtt_ns: Ns,
        cfg: &SimConfig,
    ) -> AckActions {
        dispatch_transport!(self, t => t.on_ack(f, c, ack_ecn, rtt_ns, cfg))
    }

    fn on_timeout(&self, f: &mut Flow, cfg: &SimConfig) {
        dispatch_transport!(self, t => t.on_timeout(f, cfg))
    }

    #[inline]
    fn on_send(&self, f: &mut Flow, seq: u32, cfg: &SimConfig) {
        dispatch_transport!(self, t => t.on_send(f, seq, cfg))
    }

    #[inline]
    fn priority(&self, f: &Flow, cfg: &SimConfig) -> u32 {
        dispatch_transport!(self, t => t.priority(f, cfg))
    }
}

/// The shared NewReno ACK machinery both [`Dctcp`] and [`NewReno`] use;
/// `ecn_echo` feeds DCTCP's α/window reaction and is always `false` for
/// plain NewReno.
fn reno_ack(f: &mut Flow, c: u32, ecn_echo: bool, rtt_ns: Ns, cfg: &SimConfig) -> AckActions {
    let mss = cfg.mss as f64;
    let mut act = AckActions::default();
    if c > f.acked {
        let newly = c - f.acked;
        f.acked = c;
        // An RTO may have rewound next_seq below what late ACKs cover.
        f.next_seq = f.next_seq.max(f.acked);
        f.dupacks = 0;
        let rtt = rtt_ns as f64;
        f.srtt = if f.srtt == 0.0 {
            rtt
        } else {
            0.875 * f.srtt + 0.125 * rtt
        };
        f.rto_backoff = 1;
        f.window_acked += newly;
        if ecn_echo {
            f.ecn_acked += newly;
        }
        if f.acked >= f.window_end {
            // DCTCP α update at window boundaries (α stays 0 without
            // ECN echoes, so NewReno is unaffected).
            if f.window_acked > 0 {
                let frac = f.ecn_acked as f64 / f.window_acked as f64;
                f.alpha = (1.0 - cfg.dctcp_g) * f.alpha + cfg.dctcp_g * frac;
            }
            f.ecn_acked = 0;
            f.window_acked = 0;
            f.window_end = f.next_seq.max(f.acked + 1);
            f.cwnd_cut_this_window = false;
        }
        if f.in_recovery {
            if f.acked >= f.recover {
                f.in_recovery = false;
            } else {
                // Partial ACK: retransmit the next hole right away.
                act.retransmit = Some(f.acked);
            }
        }
        if !f.in_recovery {
            if ecn_echo && !f.cwnd_cut_this_window {
                f.cwnd = (f.cwnd * (1.0 - f.alpha / 2.0)).max(mss);
                f.ssthresh = f.cwnd;
                f.cwnd_cut_this_window = true;
            } else if !ecn_echo {
                if f.cwnd < f.ssthresh {
                    f.cwnd += mss * newly as f64; // slow start
                } else {
                    f.cwnd += mss * mss / f.cwnd * newly as f64; // AI
                }
            }
        }
        if f.acked < f.total_pkts {
            act.rearm_rto = true;
            act.pump = true;
        } else {
            act.retransmit = None;
        }
    } else {
        f.dupacks += 1;
        if f.dupacks >= 3 && !f.in_recovery {
            // Fast retransmit: one window reduction per loss event.
            f.in_recovery = true;
            f.recover = f.next_seq;
            f.ssthresh = (f.cwnd / 2.0).max(2.0 * mss);
            f.cwnd = f.ssthresh;
            f.dupacks = 0;
            act.rearm_rto = true;
            act.retransmit = Some(f.acked);
        }
    }
    act
}

/// Go-back-N window collapse shared by the loss-based transports.
fn reno_timeout(f: &mut Flow, cfg: &SimConfig) {
    let mss = cfg.mss as f64;
    f.ssthresh = (f.cwnd / 2.0).max(2.0 * mss);
    f.cwnd = mss;
}

/// DCTCP (the paper's setting): NewReno recovery plus
/// ECN-fraction-proportional window cuts, one per window.
pub struct Dctcp;

impl Transport for Dctcp {
    fn name(&self) -> &'static str {
        "dctcp"
    }

    fn on_ack(
        &self,
        f: &mut Flow,
        c: u32,
        ack_ecn: bool,
        rtt_ns: Ns,
        cfg: &SimConfig,
    ) -> AckActions {
        reno_ack(f, c, ack_ecn, rtt_ns, cfg)
    }

    fn on_timeout(&self, f: &mut Flow, cfg: &SimConfig) {
        reno_timeout(f, cfg);
    }
}

/// Loss-based NewReno baseline: ECN echoes are ignored entirely.
pub struct NewReno;

impl Transport for NewReno {
    fn name(&self) -> &'static str {
        "newreno"
    }

    fn on_ack(
        &self,
        f: &mut Flow,
        c: u32,
        _ack_ecn: bool,
        rtt_ns: Ns,
        cfg: &SimConfig,
    ) -> AckActions {
        reno_ack(f, c, false, rtt_ns, cfg)
    }

    fn on_timeout(&self, f: &mut Flow, cfg: &SimConfig) {
        reno_timeout(f, cfg);
    }
}

/// pFabric-style minimal transport (Alizadeh et al., SIGCOMM 2013): a
/// fixed near-BDP window ([`SimConfig::pfabric_cwnd_pkts`]), no AIMD and
/// no ECN reaction — the fabric's remaining-size-priority queues do the
/// scheduling. Loss recovery keeps the fast-retransmit/RTO machinery (no
/// window reduction) so holes are repaired promptly.
pub struct PFabric;

impl Transport for PFabric {
    fn name(&self) -> &'static str {
        "pfabric"
    }

    fn initial_cwnd(&self, cfg: &SimConfig) -> f64 {
        (cfg.pfabric_cwnd_pkts * cfg.mss) as f64
    }

    fn on_ack(
        &self,
        f: &mut Flow,
        c: u32,
        _ack_ecn: bool,
        rtt_ns: Ns,
        _cfg: &SimConfig,
    ) -> AckActions {
        let mut act = AckActions::default();
        if c > f.acked {
            f.acked = c;
            f.next_seq = f.next_seq.max(f.acked);
            f.dupacks = 0;
            let rtt = rtt_ns as f64;
            f.srtt = if f.srtt == 0.0 {
                rtt
            } else {
                0.875 * f.srtt + 0.125 * rtt
            };
            f.rto_backoff = 1;
            if f.in_recovery {
                if f.acked >= f.recover {
                    f.in_recovery = false;
                } else {
                    act.retransmit = Some(f.acked);
                }
            }
            if f.acked < f.total_pkts {
                act.rearm_rto = true;
                act.pump = true;
            } else {
                act.retransmit = None;
            }
        } else {
            f.dupacks += 1;
            if f.dupacks >= 3 && !f.in_recovery {
                f.in_recovery = true;
                f.recover = f.next_seq;
                f.dupacks = 0;
                act.rearm_rto = true;
                act.retransmit = Some(f.acked);
            }
        }
        act
    }

    fn on_timeout(&self, _f: &mut Flow, _cfg: &SimConfig) {
        // The window never adapts; the engine's go-back-N rewind and
        // timer backoff are the whole reaction.
    }

    fn priority(&self, f: &Flow, _cfg: &SimConfig) -> u32 {
        // Remaining flow size in packets — pFabric's ideal priority.
        f.remaining_pkts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_flow(total: u32) -> Flow {
        let cfg = SimConfig::default();
        Flow::new(
            0,
            1,
            0,
            1,
            total as u64 * cfg.mss as u64,
            0,
            total,
            Dctcp.initial_cwnd(&cfg),
            true,
        )
    }

    #[test]
    fn new_ack_advances_and_grows_slow_start() {
        let cfg = SimConfig::default();
        let mut f = test_flow(100);
        f.next_seq = 10;
        f.window_end = 1;
        let cwnd0 = f.cwnd;
        let act = Dctcp.on_ack(&mut f, 4, false, 10_000, &cfg);
        assert_eq!(f.acked, 4);
        assert!(f.cwnd > cwnd0, "slow start must grow the window");
        assert_eq!(f.srtt, 10_000.0);
        assert_eq!(
            act,
            AckActions {
                rearm_rto: true,
                retransmit: None,
                pump: true
            }
        );
    }

    #[test]
    fn dctcp_cuts_once_per_window_proportionally() {
        let cfg = SimConfig::default();
        let mut f = test_flow(1000);
        f.next_seq = 20;
        f.window_end = 1;
        f.alpha = 1.0; // pretend everything was marked
        let cwnd0 = f.cwnd;
        Dctcp.on_ack(&mut f, 1, true, 10_000, &cfg);
        assert!(f.cwnd_cut_this_window);
        assert!((f.cwnd - cwnd0 / 2.0).abs() < 1e-9, "α=1 halves the window");
        let cwnd1 = f.cwnd;
        Dctcp.on_ack(&mut f, 2, true, 10_000, &cfg);
        assert_eq!(f.cwnd, cwnd1, "only one cut per window");
    }

    #[test]
    fn newreno_ignores_ecn_echo() {
        let cfg = SimConfig::default();
        let mut f = test_flow(1000);
        f.next_seq = 20;
        f.window_end = 1;
        f.alpha = 1.0;
        let cwnd0 = f.cwnd;
        NewReno.on_ack(&mut f, 1, true, 10_000, &cfg);
        assert!(f.cwnd > cwnd0, "NewReno must keep growing through marks");
        assert!(!f.cwnd_cut_this_window);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit_once() {
        let cfg = SimConfig::default();
        let mut f = test_flow(100);
        f.acked = 5;
        f.next_seq = 20;
        f.cwnd = 20.0 * cfg.mss as f64;
        for _ in 0..2 {
            let act = Dctcp.on_ack(&mut f, 5, false, 10_000, &cfg);
            assert_eq!(act, AckActions::default());
        }
        let act = Dctcp.on_ack(&mut f, 5, false, 10_000, &cfg);
        assert_eq!(act.retransmit, Some(5));
        assert!(act.rearm_rto && !act.pump);
        assert!(f.in_recovery);
        assert_eq!(f.recover, 20);
        assert_eq!(f.cwnd, 10.0 * cfg.mss as f64, "halved on fast retransmit");
        // Further dupacks inside recovery change nothing.
        for _ in 0..5 {
            assert_eq!(
                Dctcp.on_ack(&mut f, 5, false, 10_000, &cfg),
                AckActions::default()
            );
        }
        assert_eq!(f.cwnd, 10.0 * cfg.mss as f64);
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let cfg = SimConfig::default();
        let mut f = test_flow(100);
        f.acked = 5;
        f.next_seq = 20;
        f.in_recovery = true;
        f.recover = 20;
        f.window_end = 50;
        let act = NewReno.on_ack(&mut f, 10, false, 10_000, &cfg);
        assert!(f.in_recovery, "partial ACK stays in recovery");
        assert_eq!(act.retransmit, Some(10));
        let act = NewReno.on_ack(&mut f, 20, false, 10_000, &cfg);
        assert!(!f.in_recovery, "full ACK exits recovery");
        assert_eq!(act.retransmit, None);
    }

    #[test]
    fn reno_timeout_collapses_window() {
        let cfg = SimConfig::default();
        let mut f = test_flow(100);
        f.cwnd = 30.0 * cfg.mss as f64;
        Dctcp.on_timeout(&mut f, &cfg);
        assert_eq!(f.cwnd, cfg.mss as f64);
        assert_eq!(f.ssthresh, 15.0 * cfg.mss as f64);
    }

    #[test]
    fn pfabric_window_is_fixed() {
        let cfg = SimConfig::default().with_pfabric();
        let mut f = test_flow(100);
        f.cwnd = PFabric.initial_cwnd(&cfg);
        let fixed = (cfg.pfabric_cwnd_pkts * cfg.mss) as f64;
        assert_eq!(f.cwnd, fixed);
        f.next_seq = 10;
        PFabric.on_ack(&mut f, 5, true, 10_000, &cfg);
        assert_eq!(f.cwnd, fixed, "ACKs must not grow the window");
        PFabric.on_timeout(&mut f, &cfg);
        assert_eq!(f.cwnd, fixed, "timeouts must not shrink the window");
    }

    #[test]
    fn pfabric_priority_is_remaining_size() {
        let cfg = SimConfig::default().with_pfabric();
        let mut f = test_flow(40);
        assert_eq!(PFabric.priority(&f, &cfg), 40);
        f.acked = 25;
        assert_eq!(f.remaining_pkts(), 15);
        assert_eq!(PFabric.priority(&f, &cfg), 15);
        assert_eq!(Dctcp.priority(&f, &cfg), 0, "FIFO transports don't rank");
    }

    #[test]
    fn transport_factory_names() {
        for kind in [
            TransportKind::Dctcp,
            TransportKind::NewReno,
            TransportKind::PFabric,
        ] {
            assert_eq!(transport_for(kind).name(), kind.name());
            assert_eq!(AnyTransport::of(kind).name(), kind.name());
        }
        let custom = AnyTransport::Custom(Box::new(PFabric));
        assert_eq!(custom.name(), "pfabric");
        let cfg = SimConfig::default();
        assert_eq!(custom.initial_cwnd(&cfg), PFabric.initial_cwnd(&cfg));
    }
}
