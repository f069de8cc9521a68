//! Core simulator types: time, packets, configuration.

use crate::path::PathId;

/// Simulation time in integer nanoseconds.
pub type Ns = u64;

pub const MS: Ns = 1_000_000;
pub const US: Ns = 1_000;
pub const SEC: Ns = 1_000_000_000;

/// A packet in flight. Data packets carry `seq` = packet index within the
/// flow; ACKs carry `seq` = cumulative packets received in order.
///
/// A plain 32-byte value: the route is an id into the run's path table
/// (see [`crate::path`]), so copying a packet touches no heap and no
/// reference count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Packet {
    pub flow: u32,
    pub seq: u32,
    /// Wire size in bytes (headers included).
    pub bytes: u32,
    /// Congestion Experienced: set by switches when queues exceed the ECN
    /// threshold (DCTCP marking).
    pub ecn_ce: bool,
    pub is_ack: bool,
    /// ECN echo carried back by ACKs.
    pub ack_ecn: bool,
    /// Send timestamp of the data packet this (or its ACK) measures.
    pub ts: Ns,
    /// Index of the next channel to traverse in `path`.
    pub hop: u8,
    /// Scheduling priority for priority-aware queue disciplines; lower is
    /// more urgent. pFabric stamps the flow's remaining size in packets;
    /// FIFO disciplines ignore it. ACKs are always priority 0.
    pub prio: u32,
    /// The route: directed channel ids from source server to
    /// destination server, interned in the run's path table.
    pub path: PathId,
}

const _: () = assert!(std::mem::size_of::<Packet>() <= 32);

/// Congestion-control flavor — the built-in [`crate::host::Transport`]
/// implementations selectable from a [`SimConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// DCTCP (the paper's setting): ECN-proportional window scaling.
    Dctcp,
    /// Loss-based NewReno baseline: ECN marks are ignored; the window
    /// reacts only to duplicate ACKs and timeouts.
    NewReno,
    /// pFabric-style minimal transport: a fixed near-BDP window, no
    /// AIMD/ECN reaction, loss recovery only. Pair it with
    /// [`QueueDiscKind::PFabric`] so the fabric schedules by remaining
    /// flow size.
    PFabric,
}

impl TransportKind {
    /// Parses a config-file name (`dctcp` / `newreno` / `pfabric`).
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "dctcp" => Some(TransportKind::Dctcp),
            "newreno" => Some(TransportKind::NewReno),
            "pfabric" => Some(TransportKind::PFabric),
            _ => None,
        }
    }

    /// The config-file name ([`TransportKind::parse`]'s inverse).
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Dctcp => "dctcp",
            TransportKind::NewReno => "newreno",
            TransportKind::PFabric => "pfabric",
        }
    }
}

/// Queue-discipline flavor — the built-in
/// [`crate::switch::QueueDiscipline`] implementations selectable from a
/// [`SimConfig`]. Every directed channel (switch port and host NIC queue)
/// gets its own instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueDiscKind {
    /// FIFO with tail drop and DCTCP-style ECN marking on enqueue — the
    /// paper's switch model.
    TailDropEcn,
    /// pFabric strict priority: dequeue the smallest-remaining-size packet
    /// first; when full, drop from the tail of the lowest-priority flow.
    /// No ECN marking.
    PFabric,
}

impl QueueDiscKind {
    /// Parses a config-file name (`tail_drop_ecn` / `pfabric`).
    pub fn parse(s: &str) -> Option<QueueDiscKind> {
        match s {
            "tail_drop_ecn" => Some(QueueDiscKind::TailDropEcn),
            "pfabric" => Some(QueueDiscKind::PFabric),
            _ => None,
        }
    }

    /// The config-file name ([`QueueDiscKind::parse`]'s inverse).
    pub fn name(&self) -> &'static str {
        match self {
            QueueDiscKind::TailDropEcn => "tail_drop_ecn",
            QueueDiscKind::PFabric => "pfabric",
        }
    }
}

/// Simulator configuration. Defaults reproduce the paper's §6.4 setup:
/// 10 Gbps links, DCTCP with ECN threshold 20 full-sized packets,
/// 50 µs flowlet gap.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Switch-to-switch link rate in Gbps.
    pub link_gbps: f64,
    /// Server-to-ToR link rate in Gbps. §6.6's "server-level bottlenecks
    /// ignored" mode sets this very high (e.g. 1000.0).
    pub server_link_gbps: f64,
    /// Per-link propagation delay.
    pub prop_delay_ns: Ns,
    /// Switch egress queue capacity in full-sized packets.
    pub queue_pkts: u32,
    /// DCTCP ECN marking threshold in full-sized packets.
    pub ecn_k_pkts: u32,
    /// Flowlet inactivity gap (Vanini et al.; the paper uses 50 µs).
    pub flowlet_gap_ns: Ns,
    /// Maximum transmission unit (wire bytes per data packet).
    pub mtu: u32,
    /// Payload bytes per data packet.
    pub mss: u32,
    /// ACK wire size.
    pub ack_bytes: u32,
    /// Initial congestion window in packets.
    pub init_cwnd_pkts: u32,
    /// Minimum retransmission timeout.
    pub min_rto_ns: Ns,
    /// DCTCP gain g for the fraction-of-marked-bytes EWMA.
    pub dctcp_g: f64,
    /// Host egress queue capacity in packets (the NIC/stack queue; it
    /// ECN-marks at the same threshold as switch ports so DCTCP
    /// self-paces instead of overflowing it).
    pub host_queue_pkts: u32,
    /// Congestion control; the paper evaluates DCTCP.
    pub transport: TransportKind,
    /// Per-port queue discipline; the paper's switches are tail-drop FIFOs
    /// with ECN marking.
    pub queue_disc: QueueDiscKind,
    /// Fixed congestion window for the pFabric transport, in packets
    /// (pFabric hosts send at a near-BDP window and never adapt it).
    pub pfabric_cwnd_pkts: u32,
    /// Control-plane reconvergence delay: time between a hard fault
    /// (link/switch down or up) and the routing tables being rebuilt on
    /// the survivor topology. Until it elapses selectors keep handing out
    /// dead paths and only end-host retransmission makes progress.
    pub reconverge_delay_ns: Ns,
    /// Watchdog: panic if a run processes more than this many events
    /// (0 disables). Guards against fault scenarios that would otherwise
    /// spin forever instead of failing loudly.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link_gbps: 10.0,
            server_link_gbps: 10.0,
            prop_delay_ns: 100,
            queue_pkts: 100,
            ecn_k_pkts: 20,
            flowlet_gap_ns: 50 * US,
            mtu: 1500,
            mss: 1460,
            ack_bytes: 40,
            init_cwnd_pkts: 10,
            min_rto_ns: MS,
            dctcp_g: 1.0 / 16.0,
            host_queue_pkts: 256,
            transport: TransportKind::Dctcp,
            queue_disc: QueueDiscKind::TailDropEcn,
            pfabric_cwnd_pkts: 18,
            reconverge_delay_ns: MS,
            max_events: 0,
        }
    }
}

impl SimConfig {
    /// §6.6 ProjecToR-style evaluation: "unconstrained capacity for
    /// server-switch links".
    pub fn unconstrained_servers(mut self) -> Self {
        self.server_link_gbps = 1000.0;
        self
    }

    /// Loss-based NewReno baseline instead of DCTCP.
    pub fn with_newreno(mut self) -> Self {
        self.transport = TransportKind::NewReno;
        self
    }

    /// The pFabric pair: minimal fixed-window transport plus
    /// strict-priority remaining-size queues at every port.
    pub fn with_pfabric(mut self) -> Self {
        self.transport = TransportKind::PFabric;
        self.queue_disc = QueueDiscKind::PFabric;
        self
    }

    /// Serialization time of `bytes` at `gbps`.
    pub fn ser_ns(bytes: u32, gbps: f64) -> Ns {
        ((bytes as f64 * 8.0) / gbps).ceil() as Ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_10g() {
        // 1500 B at 10 Gbps = 1.2 µs.
        assert_eq!(SimConfig::ser_ns(1500, 10.0), 1200);
        assert_eq!(SimConfig::ser_ns(40, 10.0), 32);
    }

    #[test]
    fn default_matches_paper_constants() {
        let c = SimConfig::default();
        assert_eq!(c.ecn_k_pkts, 20);
        assert_eq!(c.flowlet_gap_ns, 50_000);
        assert_eq!(c.link_gbps, 10.0);
    }

    #[test]
    fn unconstrained_servers_mode() {
        let c = SimConfig::default().unconstrained_servers();
        assert_eq!(c.server_link_gbps, 1000.0);
        assert_eq!(c.link_gbps, 10.0);
    }

    #[test]
    fn pfabric_mode_sets_transport_and_queue() {
        let c = SimConfig::default().with_pfabric();
        assert_eq!(c.transport, TransportKind::PFabric);
        assert_eq!(c.queue_disc, QueueDiscKind::PFabric);
        // The default pair stays the paper's DCTCP + tail-drop/ECN.
        let d = SimConfig::default();
        assert_eq!(d.transport, TransportKind::Dctcp);
        assert_eq!(d.queue_disc, QueueDiscKind::TailDropEcn);
    }

    #[test]
    fn kind_name_parsing() {
        assert_eq!(TransportKind::parse("dctcp"), Some(TransportKind::Dctcp));
        assert_eq!(
            TransportKind::parse("pfabric"),
            Some(TransportKind::PFabric)
        );
        assert_eq!(TransportKind::parse("cubic"), None);
        assert_eq!(
            QueueDiscKind::parse("tail_drop_ecn"),
            Some(QueueDiscKind::TailDropEcn)
        );
        assert_eq!(
            QueueDiscKind::parse("pfabric"),
            Some(QueueDiscKind::PFabric)
        );
        assert_eq!(QueueDiscKind::parse("red"), None);
    }
}
