//! The switch layer: per-port queue disciplines and the fabric substrate.
//!
//! A switch port (and a host NIC queue) is a channel in
//! [`crate::channel::Channels`]: a serializing transmitter fed by a
//! queue. What *kind* of queue — FIFO tail-drop with ECN marking, strict
//! priority, anything else — is decided here, behind the
//! [`QueueDiscipline`] trait. The engine never looks inside a queue; it
//! offers packet ids and takes whatever id the discipline hands back.
//!
//! Disciplines queue dense [`PktId`]s plus the few packet fields their
//! scheduling decisions read (bytes, priority, flow identity), copied
//! into their own contiguous entries at enqueue time. Scans — pFabric's
//! best/worst search, byte accounting — therefore run over a flat array
//! instead of chasing per-packet heap pointers; the full packet stays in
//! the [`PacketArena`] and is only touched to apply an ECN mark.
//!
//! Two disciplines ship with the simulator:
//!
//! - [`TailDropEcn`] — the paper's switch model: FIFO, tail drop when the
//!   byte cap is exceeded, DCTCP-style CE marking on enqueue once the
//!   queue holds at least K packets' worth of bytes.
//! - [`PFabricQueue`] — pFabric (Alizadeh et al., SIGCOMM 2013) strict
//!   priority: dequeue the packet with the smallest remaining flow size
//!   first; when full, evict from the tail of the *lowest*-priority flow
//!   (or reject the newcomer if it is itself the least urgent).
//!
//! A channel holds its discipline as a boxed `AnyQueue` (a built-in one
//! or a caller's), built the first time a packet waits at the port for
//! a built-in discipline and with the fabric for a caller's.
//!
//! [`Fabric`] bundles the channel table, the link→channel numbering, and
//! the server↔rack maps — the static substrate the engine routes over
//! and the fault layer degrades.

use crate::channel::Channels;
use crate::slab::{PacketArena, PktId};
use crate::types::{Packet, QueueDiscKind, SimConfig};
use dcn_topology::{NodeId, Topology};
use std::collections::{HashMap, VecDeque};

/// What happened when a packet was offered to a queue discipline.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct EnqueueOutcome {
    /// The offered packet itself was accepted into the queue.
    pub accepted: bool,
    /// Packets lost in this enqueue: the offered one (if rejected) plus
    /// any lower-priority victims evicted to make room.
    pub dropped: u32,
    /// An ECN CE mark was applied to the offered packet.
    pub marked: bool,
    /// `(flow, seq)` of each queued packet evicted to make room for the
    /// offered one (excludes the offered packet itself when rejected).
    /// Empty for disciplines that never evict, so the common path
    /// allocates nothing. Victims' arena ids are freed by the discipline.
    pub evicted: Vec<(u32, u32)>,
}

/// A per-port packet queue: the switch-layer seam.
///
/// Implementations decide admission (drop/evict), marking (ECN), and
/// service order (FIFO, strict priority, …). They must be deterministic —
/// no clocks, no randomness — so simulations stay reproducible.
///
/// Ownership protocol: an accepted id belongs to the discipline until
/// [`QueueDiscipline::dequeue`] hands it back. Eviction victims are freed
/// into the arena by the discipline itself; a *rejected* offered id is
/// NOT freed here — the channel layer frees it (the discipline never
/// owned it).
pub trait QueueDiscipline: Send {
    /// Offers a packet while the transmitter is busy. The discipline
    /// keeps it (`accepted`), rejects it, and/or evicts queued packets;
    /// `dropped` counts every packet lost either way.
    fn enqueue(&mut self, id: PktId, pool: &mut PacketArena) -> EnqueueOutcome;

    /// Next packet to serialize, or `None` if the queue is empty.
    fn dequeue(&mut self) -> Option<PktId>;

    /// Bytes currently queued (excludes the packet being serialized).
    fn queue_bytes(&self) -> u64;

    /// Packets currently queued.
    fn queue_len(&self) -> usize;

    fn name(&self) -> &'static str;

    /// Checkpoint support: clones of the queued packets in internal
    /// (arrival) order. `None` refuses the snapshot —
    /// [`crate::Simulator::checkpoint`] then fails cleanly instead of
    /// silently losing queue state; the built-in disciplines never refuse.
    fn snapshot_queue(&self, pool: &PacketArena) -> Option<Vec<Packet>>;

    /// Reinstates packets captured by [`QueueDiscipline::snapshot_queue`]
    /// in the same order, allocating one fresh arena id per packet in
    /// that order and bypassing admission entirely (no marking, drops, or
    /// evictions — the packets already carry their marks). A FIFO port's
    /// restore relies on the allocation order: the packets' pending
    /// Deliveries take the same ids.
    fn restore_queue(&mut self, pkts: Vec<Packet>, pool: &mut PacketArena);
}

/// A factory producing one [`QueueDiscipline`] instance per channel;
/// called with the channel's byte capacity and ECN threshold.
pub type DisciplineFactory<'a> = &'a dyn Fn(u64, u64) -> Box<dyn QueueDiscipline>;

/// One channel's discipline: a built-in one, called without a virtual
/// dispatch, or a caller's behind a box (only
/// [`crate::Simulator::with_parts`] builds the `Custom` arm).
pub(crate) enum AnyQueue {
    TailDropEcn(TailDropEcn),
    PFabric(PFabricQueue),
    Custom(Box<dyn QueueDiscipline>),
}

impl AnyQueue {
    /// The built-in discipline of `kind`, as [`QueueDiscKind::build`]
    /// makes it but unboxed.
    pub(crate) fn of(kind: QueueDiscKind, cap_bytes: u64, ecn_bytes: u64) -> Self {
        match kind {
            QueueDiscKind::TailDropEcn => {
                AnyQueue::TailDropEcn(TailDropEcn::new(cap_bytes, ecn_bytes))
            }
            QueueDiscKind::PFabric => AnyQueue::PFabric(PFabricQueue::new(cap_bytes)),
        }
    }
}

impl AnyQueue {
    /// Dequeues the head of a FIFO port's queue, whose transmission has
    /// begun, and returns its wire bytes; the id itself stays with the
    /// packet's pending Deliver. The built-in FIFO keeps the size in its
    /// entry; any other discipline is asked through the trait and the
    /// size read from the arena.
    #[inline]
    pub(crate) fn dequeue_fifo(&mut self, pool: &PacketArena) -> u32 {
        match self {
            AnyQueue::TailDropEcn(q) => q.pop_front(),
            q => {
                let id = q.dequeue().expect("a FIFO port's qlen counts its queue");
                pool.get(id).bytes
            }
        }
    }
}

/// Runs `$body` with `$q` bound to whichever discipline `$any` holds.
macro_rules! dispatch_queue {
    ($any:expr, $q:ident => $body:expr) => {
        match $any {
            AnyQueue::TailDropEcn($q) => $body,
            AnyQueue::PFabric($q) => $body,
            AnyQueue::Custom($q) => $body,
        }
    };
}

impl QueueDiscipline for AnyQueue {
    #[inline]
    fn enqueue(&mut self, id: PktId, pool: &mut PacketArena) -> EnqueueOutcome {
        dispatch_queue!(self, q => q.enqueue(id, pool))
    }

    #[inline]
    fn dequeue(&mut self) -> Option<PktId> {
        dispatch_queue!(self, q => q.dequeue())
    }

    #[inline]
    fn queue_bytes(&self) -> u64 {
        dispatch_queue!(self, q => q.queue_bytes())
    }

    fn queue_len(&self) -> usize {
        dispatch_queue!(self, q => q.queue_len())
    }

    fn name(&self) -> &'static str {
        dispatch_queue!(self, q => q.name())
    }

    fn snapshot_queue(&self, pool: &PacketArena) -> Option<Vec<Packet>> {
        dispatch_queue!(self, q => q.snapshot_queue(pool))
    }

    fn restore_queue(&mut self, pkts: Vec<Packet>, pool: &mut PacketArena) {
        dispatch_queue!(self, q => q.restore_queue(pkts, pool))
    }
}

impl QueueDiscKind {
    /// Builds one queue instance of this kind for a channel with the given
    /// byte capacity and ECN-marking threshold (ignored by disciplines
    /// that do not mark).
    pub fn build(self, cap_bytes: u64, ecn_bytes: u64) -> Box<dyn QueueDiscipline> {
        match self {
            QueueDiscKind::TailDropEcn => Box::new(TailDropEcn::new(cap_bytes, ecn_bytes)),
            QueueDiscKind::PFabric => Box::new(PFabricQueue::new(cap_bytes)),
        }
    }
}

/// A queued packet in a [`TailDropEcn`] port: the id plus the one field
/// byte accounting needs.
#[derive(Clone, Copy, Debug)]
struct FifoEntry {
    id: PktId,
    bytes: u32,
}

/// FIFO + tail drop + DCTCP ECN marking — the paper's §6.4 switch port.
#[derive(Debug)]
pub struct TailDropEcn {
    queue: VecDeque<FifoEntry>,
    bytes: u64,
    cap_bytes: u64,
    ecn_threshold_bytes: u64,
}

impl TailDropEcn {
    pub fn new(cap_bytes: u64, ecn_threshold_bytes: u64) -> Self {
        TailDropEcn {
            queue: VecDeque::new(),
            bytes: 0,
            cap_bytes,
            ecn_threshold_bytes,
        }
    }
}

impl TailDropEcn {
    /// Removes the head entry and returns its bytes.
    #[inline]
    fn pop_front(&mut self) -> u32 {
        let e = self.queue.pop_front().expect("pop_front on an empty queue");
        self.bytes -= e.bytes as u64;
        e.bytes
    }
}

impl QueueDiscipline for TailDropEcn {
    fn enqueue(&mut self, id: PktId, pool: &mut PacketArena) -> EnqueueOutcome {
        let (pkt_bytes, is_ack) = {
            let p = pool.get(id);
            (p.bytes, p.is_ack)
        };
        if self.bytes + pkt_bytes as u64 > self.cap_bytes {
            return EnqueueOutcome {
                accepted: false,
                dropped: 1,
                ..Default::default()
            };
        }
        // DCTCP: mark on enqueue when the instantaneous queue exceeds K.
        let marked = self.bytes >= self.ecn_threshold_bytes && !is_ack;
        if marked {
            pool.get_mut(id).ecn_ce = true;
        }
        self.bytes += pkt_bytes as u64;
        self.queue.push_back(FifoEntry {
            id,
            bytes: pkt_bytes,
        });
        EnqueueOutcome {
            accepted: true,
            marked,
            ..Default::default()
        }
    }

    fn dequeue(&mut self) -> Option<PktId> {
        let e = self.queue.pop_front()?;
        self.bytes -= e.bytes as u64;
        Some(e.id)
    }

    fn queue_bytes(&self) -> u64 {
        self.bytes
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        "tail_drop_ecn"
    }

    fn snapshot_queue(&self, pool: &PacketArena) -> Option<Vec<Packet>> {
        Some(self.queue.iter().map(|e| *pool.get(e.id)).collect())
    }

    fn restore_queue(&mut self, pkts: Vec<Packet>, pool: &mut PacketArena) {
        for pkt in pkts {
            let bytes = pkt.bytes;
            let id = pool.alloc(pkt);
            self.bytes += bytes as u64;
            self.queue.push_back(FifoEntry { id, bytes });
        }
    }
}

/// A queued packet in a [`PFabricQueue`] port: the id plus the fields the
/// priority scans and victim reporting read, kept contiguous so best/worst
/// searches never leave the entry array.
#[derive(Clone, Copy, Debug)]
struct PrioEntry {
    id: PktId,
    bytes: u32,
    prio: u32,
    flow: u32,
    seq: u32,
}

/// pFabric strict-priority queue: serve the smallest remaining flow size
/// first (FIFO among equals); when full, drop from the tail of the
/// lowest-priority traffic. Never marks ECN — pFabric's fabric scheduling
/// replaces congestion signaling.
#[derive(Debug)]
pub struct PFabricQueue {
    /// Arrival order is the queue order; service order is by priority.
    queue: VecDeque<PrioEntry>,
    bytes: u64,
    cap_bytes: u64,
}

impl PFabricQueue {
    pub fn new(cap_bytes: u64) -> Self {
        PFabricQueue {
            queue: VecDeque::new(),
            bytes: 0,
            cap_bytes,
        }
    }

    /// Index of the worst queued packet: highest `prio` value, latest
    /// arrival among ties (the "tail of the lowest priority").
    fn worst(&self) -> Option<usize> {
        let mut worst: Option<(u32, usize)> = None;
        for (i, e) in self.queue.iter().enumerate() {
            if worst.is_none_or(|(wp, _)| e.prio >= wp) {
                worst = Some((e.prio, i));
            }
        }
        worst.map(|(_, i)| i)
    }
}

impl QueueDiscipline for PFabricQueue {
    fn enqueue(&mut self, id: PktId, pool: &mut PacketArena) -> EnqueueOutcome {
        let (pkt_bytes, prio, flow, seq) = {
            let p = pool.get(id);
            (p.bytes, p.prio, p.flow, p.seq)
        };
        let mut evicted = Vec::new();
        while self.bytes + pkt_bytes as u64 > self.cap_bytes {
            match self.worst() {
                // A strictly less urgent packet is queued: evict it. On a
                // tie the newcomer is the tail of that priority and loses.
                Some(w) if self.queue[w].prio > prio => {
                    let victim = self.queue.remove(w).unwrap();
                    self.bytes -= victim.bytes as u64;
                    evicted.push((victim.flow, victim.seq));
                    pool.free(victim.id);
                }
                _ => {
                    return EnqueueOutcome {
                        accepted: false,
                        dropped: evicted.len() as u32 + 1,
                        marked: false,
                        evicted,
                    };
                }
            }
        }
        self.bytes += pkt_bytes as u64;
        self.queue.push_back(PrioEntry {
            id,
            bytes: pkt_bytes,
            prio,
            flow,
            seq,
        });
        EnqueueOutcome {
            accepted: true,
            dropped: evicted.len() as u32,
            marked: false,
            evicted,
        }
    }

    fn dequeue(&mut self) -> Option<PktId> {
        // Most urgent = smallest prio; earliest arrival breaks ties.
        let mut best: Option<(u32, usize)> = None;
        for (i, e) in self.queue.iter().enumerate() {
            if best.is_none_or(|(bp, _)| e.prio < bp) {
                best = Some((e.prio, i));
            }
        }
        let (_, i) = best?;
        let e = self.queue.remove(i).unwrap();
        self.bytes -= e.bytes as u64;
        Some(e.id)
    }

    fn queue_bytes(&self) -> u64 {
        self.bytes
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        "pfabric"
    }

    fn snapshot_queue(&self, pool: &PacketArena) -> Option<Vec<Packet>> {
        Some(self.queue.iter().map(|e| *pool.get(e.id)).collect())
    }

    fn restore_queue(&mut self, pkts: Vec<Packet>, pool: &mut PacketArena) {
        for pkt in pkts {
            let (bytes, prio, flow, seq) = (pkt.bytes, pkt.prio, pkt.flow, pkt.seq);
            let id = pool.alloc(pkt);
            self.bytes += bytes as u64;
            self.queue.push_back(PrioEntry {
                id,
                bytes,
                prio,
                flow,
                seq,
            });
        }
    }
}

/// The static forwarding substrate: every directed channel (two per
/// topology link, two per server) and the server↔rack numbering. Built
/// once per simulation; the fault layer flips channel `up` flags, the
/// engine routes packets over it.
pub struct Fabric {
    pub(crate) channels: Channels,
    /// First channel id of the host (server) channel block; link
    /// channels come first, two per link.
    pub(crate) host_ch_base: u32,
    /// Node ids `< num_switches` are switches; servers follow.
    pub(crate) num_switches: u32,
    /// ToR of each server, indexed by global server id.
    pub(crate) server_tor: Vec<NodeId>,
    /// First global server id of each rack (`u32::MAX` for rackless nodes).
    pub(crate) rack_base: Vec<u32>,
}

impl Fabric {
    /// Builds the channel table for `topo` under `cfg`. Channel
    /// numbering: link `l`'s a→b direction is channel `2l`, b→a is
    /// `2l+1`; after [`Fabric::host_ch_base`] come per-server (up, down)
    /// pairs. Channels that share (rate, propagation delay, queue cap,
    /// ECN threshold) share one class. With `custom`, every channel's
    /// discipline is built here from the factory (called with the
    /// channel's byte capacity and ECN threshold); without, each port
    /// builds `cfg.queue_disc` the first time a packet waits there.
    pub(crate) fn build(
        topo: &Topology,
        cfg: &SimConfig,
        custom: Option<DisciplineFactory>,
    ) -> Self {
        let mtu = cfg.mtu as u64;
        let link_cap = cfg.queue_pkts as u64 * mtu;
        let host_cap = cfg.host_queue_pkts as u64 * mtu;
        let ecn_at = cfg.ecn_k_pkts as u64 * mtu;
        let prop = cfg.prop_delay_ns;
        let servers = topo.num_servers();
        let fifo = cfg.queue_disc == QueueDiscKind::TailDropEcn;
        let built_in = custom.is_none().then_some(cfg.queue_disc);
        let n = 2 * topo.num_links() + 2 * servers;
        let mut channels = Channels::new(cfg.mtu, cfg.ack_bytes, n, fifo, built_in);
        // Looked up once per link and per rack, not per channel: hashing
        // the key of every channel costs more than the rest of the build.
        let mut class_ids = HashMap::new();
        let mut class = |channels: &mut Channels, gbps: f64, cap: u64| {
            let key = ((gbps / 8.0).to_bits(), prop, cap, ecn_at);
            *class_ids
                .entry(key)
                .or_insert_with(|| channels.add_class(gbps, prop, cap, ecn_at))
        };
        let queue = |cap| custom.map(|disc| AnyQueue::Custom(disc(cap, ecn_at)));
        for l in topo.links() {
            let c = class(&mut channels, cfg.link_gbps * l.capacity, link_cap);
            channels.push(l.b, c, queue(link_cap));
            channels.push(l.a, c, queue(link_cap));
        }
        let host_ch_base = channels.len() as u32;
        let num_switches = topo.num_nodes() as u32;
        let mut server_tor = Vec::with_capacity(servers);
        let mut rack_base = vec![u32::MAX; topo.num_nodes()];
        for rack in 0..topo.num_nodes() as NodeId {
            let s = topo.servers_at(rack);
            if s == 0 {
                continue;
            }
            rack_base[rack as usize] = server_tor.len() as u32;
            let up = class(&mut channels, cfg.server_link_gbps, host_cap);
            let down = class(&mut channels, cfg.server_link_gbps, link_cap);
            for _ in 0..s {
                let server_node = num_switches + server_tor.len() as u32;
                // Up: server → ToR. The NIC queue marks ECN like a switch
                // port so DCTCP self-paces instead of overflowing the host
                // queue (real stacks backpressure at the qdisc).
                channels.push(rack, up, queue(host_cap));
                // Down: ToR → server (a real switch port: ECN + drops).
                channels.push(server_node, down, queue(link_cap));
                server_tor.push(rack);
            }
        }
        Fabric {
            channels,
            host_ch_base,
            num_switches,
            server_tor,
            rack_base,
        }
    }

    /// The directed channel of link `l` that leaves node `from` (one of
    /// the link's ends): `2l` if `from` is its `a` end, else `2l + 1`.
    #[inline]
    pub(crate) fn link_channel(&self, l: u32, from: NodeId) -> u32 {
        let to_node = &self.channels.to_node;
        // Channel 2l arrives at b and 2l+1 at a.
        if to_node[2 * l as usize + 1] == from {
            2 * l
        } else {
            debug_assert_eq!(
                to_node[2 * l as usize],
                from,
                "node is not an end of the link"
            );
            2 * l + 1
        }
    }

    /// Number of servers attached to the fabric.
    pub(crate) fn num_servers(&self) -> usize {
        self.server_tor.len()
    }

    /// Global server id for `(rack, server)`.
    pub(crate) fn server_id(&self, rack: NodeId, server: u32) -> u32 {
        let base = self.rack_base[rack as usize];
        assert!(base != u32::MAX, "rack {rack} has no servers");
        base + server
    }

    /// Recomputes every channel's up flag from the link and switch fault
    /// state. Downed channels keep serializing their queues — those
    /// packets drain onto the dead wire and are dropped at delivery.
    pub(crate) fn apply_fault_state(&mut self, down_links: &[bool], down_sw: &[bool]) {
        for l in 0..self.host_ch_base / 2 {
            // Channel 2l arrives at the link's b end and 2l+1 at its a end.
            let ends = [2 * l, 2 * l + 1].map(|ch| self.channels.to_node[ch as usize]);
            let up = !down_links[l as usize] && !ends.iter().any(|&n| down_sw[n as usize]);
            self.channels.set_up(2 * l, up);
            self.channels.set_up(2 * l + 1, up);
        }
        for s in 0..self.server_tor.len() {
            let up = !down_sw[self.server_tor[s] as usize];
            self.channels.set_up(self.host_ch_base + 2 * s as u32, up);
            self.channels
                .set_up(self.host_ch_base + 2 * s as u32 + 1, up);
        }
    }

    /// Total congestion tail drops across all channels (includes
    /// priority evictions).
    pub(crate) fn total_congestion_drops(&self) -> u64 {
        self.channels.sum_drops()
    }

    /// Queued packets evicted by priority disciplines (a subset of
    /// [`Fabric::total_congestion_drops`]).
    pub(crate) fn total_evictions(&self) -> u64 {
        self.channels.sum_evictions()
    }

    /// Packets lost on dead or gray channels.
    pub(crate) fn total_fault_drops(&self) -> u64 {
        self.channels.sum_fault_drops()
    }

    /// Total ECN marks across all channels.
    pub(crate) fn total_marks(&self) -> u64 {
        self.channels.sum_marks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathId;

    fn pkt(a: &mut PacketArena, bytes: u32, prio: u32) -> PktId {
        a.alloc(Packet {
            flow: 0,
            seq: 0,
            bytes,
            ecn_ce: false,
            is_ack: false,
            ack_ecn: false,
            ts: 0,
            hop: 0,
            prio,
            path: PathId::default(),
        })
    }

    #[test]
    fn tail_drop_marks_above_threshold_and_drops_when_full() {
        let mut a = PacketArena::new();
        let mut q = TailDropEcn::new(3 * 1500, 1500);
        let p = pkt(&mut a, 1500, 0);
        assert!(q.enqueue(p, &mut a).accepted); // 0 < 1500: no mark
        let p = pkt(&mut a, 1500, 0);
        let out = q.enqueue(p, &mut a); // queue holds 1500 ≥ K
        assert!(out.accepted && out.marked);
        let p = pkt(&mut a, 1500, 0);
        assert!(q.enqueue(p, &mut a).accepted);
        let rejected = pkt(&mut a, 1500, 0);
        let out = q.enqueue(rejected, &mut a); // 4500 + 1500 > cap
        assert_eq!(
            out,
            EnqueueOutcome {
                accepted: false,
                dropped: 1,
                marked: false,
                evicted: vec![],
            }
        );
        a.free(rejected); // the channel layer frees rejected offers
                          // FIFO order out, marks travel with the packets.
        assert!(!a.get(q.dequeue().unwrap()).ecn_ce);
        assert!(a.get(q.dequeue().unwrap()).ecn_ce);
        assert!(a.get(q.dequeue().unwrap()).ecn_ce);
        assert!(q.dequeue().is_none());
        assert_eq!(q.queue_bytes(), 0);
    }

    #[test]
    fn pfabric_serves_smallest_remaining_first() {
        let mut a = PacketArena::new();
        let mut q = PFabricQueue::new(10 * 1500);
        for prio in [50, 3, 7] {
            let p = pkt(&mut a, 1500, prio);
            q.enqueue(p, &mut a);
        }
        assert_eq!(a.get(q.dequeue().unwrap()).prio, 3);
        assert_eq!(a.get(q.dequeue().unwrap()).prio, 7);
        assert_eq!(a.get(q.dequeue().unwrap()).prio, 50);
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn pfabric_fifo_among_equal_priorities() {
        let mut a = PacketArena::new();
        let mut q = PFabricQueue::new(10 * 1500);
        for seq in 0..3 {
            let p = pkt(&mut a, 1500, 5);
            a.get_mut(p).seq = seq;
            q.enqueue(p, &mut a);
        }
        assert_eq!(a.get(q.dequeue().unwrap()).seq, 0);
        assert_eq!(a.get(q.dequeue().unwrap()).seq, 1);
        assert_eq!(a.get(q.dequeue().unwrap()).seq, 2);
    }

    #[test]
    fn pfabric_evicts_lowest_priority_when_full() {
        let mut a = PacketArena::new();
        let mut q = PFabricQueue::new(3 * 1500);
        let p = pkt(&mut a, 1500, 10);
        q.enqueue(p, &mut a);
        let straggler = pkt(&mut a, 1500, 90);
        a.get_mut(straggler).flow = 4;
        a.get_mut(straggler).seq = 2;
        q.enqueue(straggler, &mut a);
        let p = pkt(&mut a, 1500, 20);
        q.enqueue(p, &mut a);
        // Full. An urgent packet evicts the prio-90 straggler...
        let live = a.live_count();
        let p = pkt(&mut a, 1500, 1);
        let out = q.enqueue(p, &mut a);
        assert!(out.accepted);
        assert_eq!(out.dropped, 1);
        assert_eq!(out.evicted, vec![(4, 2)], "victim identity reported");
        assert_eq!(q.queue_len(), 3);
        assert_eq!(a.live_count(), live, "victim freed, newcomer allocated");
        // ...while a hopeless one is rejected outright.
        let hopeless = pkt(&mut a, 1500, 99);
        let out = q.enqueue(hopeless, &mut a);
        assert!(!out.accepted);
        assert_eq!(out.dropped, 1);
        assert!(out.evicted.is_empty(), "rejection evicts nothing");
        a.free(hopeless);
        // Ties lose too: the tail of the lowest priority is the newcomer.
        let tie = pkt(&mut a, 1500, 20);
        let out = q.enqueue(tie, &mut a);
        assert!(!out.accepted, "equal-priority newcomer must be the victim");
        a.free(tie);
        assert_eq!(
            vec![
                a.get(q.dequeue().unwrap()).prio,
                a.get(q.dequeue().unwrap()).prio,
                a.get(q.dequeue().unwrap()).prio
            ],
            vec![1, 10, 20]
        );
    }

    #[test]
    fn pfabric_never_marks() {
        let mut a = PacketArena::new();
        let mut q = PFabricQueue::new(10 * 1500);
        for _ in 0..9 {
            let p = pkt(&mut a, 1500, 1);
            assert!(!q.enqueue(p, &mut a).marked);
        }
        assert!(q.dequeue().is_some());
    }

    #[test]
    fn snapshot_restore_roundtrips_through_the_arena() {
        let mut a = PacketArena::new();
        let mut q = TailDropEcn::new(10 * 1500, 1500);
        for seq in 0..4 {
            let p = pkt(&mut a, 1500, 0);
            a.get_mut(p).seq = seq;
            q.enqueue(p, &mut a);
        }
        let snap = q.snapshot_queue(&a).unwrap();
        assert_eq!(snap.len(), 4);
        let mut b = PacketArena::new();
        let mut q2 = TailDropEcn::new(10 * 1500, 1500);
        q2.restore_queue(snap, &mut b);
        assert_eq!(q2.queue_len(), 4);
        assert_eq!(q2.queue_bytes(), q.queue_bytes());
        for seq in 0..4 {
            assert_eq!(b.get(q2.dequeue().unwrap()).seq, seq);
        }
    }

    /// The class table reproduces, bit for bit, the serialization times
    /// and delays each channel used to precompute from its own rate, on
    /// links of mixed capacity, with one class per distinct (rate, delay,
    /// queue cap, ECN threshold).
    #[test]
    fn channel_classes_reproduce_per_channel_timing_bits() {
        use crate::types::Ns;
        use dcn_topology::NodeKind;
        use std::collections::HashSet;
        let mut t = Topology::new("mixed");
        for _ in 0..4 {
            t.add_node(NodeKind::Tor, 2);
        }
        for (a, b, cap) in [
            (0, 1, 1.0),
            (1, 2, 0.5),
            (2, 3, 1.0 / 3.0),
            (3, 0, 2.5),
            (0, 2, 1.0),
        ] {
            t.add_link_cap(a, b, cap);
        }
        let cfg = SimConfig {
            link_gbps: 10.0,
            server_link_gbps: 10.0,
            ..SimConfig::default()
        };
        let fabric = Fabric::build(&t, &cfg, None);
        let chs = &fabric.channels;
        let (mtu, link_cap) = (cfg.mtu as u64, cfg.queue_pkts as u64 * cfg.mtu as u64);
        let (host_cap, ecn) = (
            cfg.host_queue_pkts as u64 * mtu,
            cfg.ecn_k_pkts as u64 * mtu,
        );
        // Each channel's (rate in Gbps, queue cap), in channel order.
        let mut want: Vec<(f64, u64)> = Vec::new();
        for l in t.links() {
            want.extend([(cfg.link_gbps * l.capacity, link_cap); 2]);
        }
        for _ in 0..t.num_servers() {
            want.extend([
                (cfg.server_link_gbps, host_cap),
                (cfg.server_link_gbps, link_cap),
            ]);
        }
        assert_eq!(chs.len(), want.len());
        let mut tuples = HashSet::new();
        for (ch, &(gbps, cap)) in want.iter().enumerate() {
            let ch = ch as u32;
            let rate_bpns = gbps / 8.0;
            for bytes in [cfg.mtu, cfg.ack_bytes, 1, 777, 1499, 9000] {
                let old = (bytes as f64 / rate_bpns).ceil() as Ns;
                assert_eq!(chs.ser_ns(ch, bytes), old, "channel {ch}, {bytes} B");
            }
            assert_eq!(chs.prop_ns(ch), cfg.prop_delay_ns);
            assert_eq!(chs.queue_limits(ch), (cap, ecn));
            tuples.insert((rate_bpns.to_bits(), cfg.prop_delay_ns, cap, ecn));
        }
        // Link rates 10, 5, 3.33 and 25 Gbps with the link cap (the 10 Gbps
        // class shared with the servers' down ports), plus the servers'
        // up ports with the host cap.
        assert_eq!(tuples.len(), 5);
        assert_eq!(chs.num_classes(), tuples.len());
    }

    #[test]
    fn kind_builds_matching_discipline() {
        for kind in [QueueDiscKind::TailDropEcn, QueueDiscKind::PFabric] {
            assert_eq!(kind.build(1, 1).name(), kind.name());
            assert_eq!(AnyQueue::of(kind, 1, 1).name(), kind.name());
        }
        let custom = AnyQueue::Custom(QueueDiscKind::PFabric.build(1, 1));
        assert_eq!(custom.name(), "pfabric");
    }
}
