//! Directed channels: pluggable output queues plus serializing
//! transmitters.
//!
//! Every undirected topology link is two channels; every server has an
//! up-channel (server→ToR) and a down-channel (ToR→server). *How* packets
//! queue — tail-drop FIFO with ECN marking, pFabric strict priority, … —
//! is the owned [`QueueDiscipline`]'s decision (see [`crate::switch`]);
//! the channel layer itself only models the transmitter, the wire, and
//! the fault state.
//!
//! [`Channels`] keeps one `to_node` entry and one hot [`ChanDyn`] record
//! per channel (the transmitter clock, the queue length and the class
//! index). The immutable fields a channel shares with every other channel
//! of its link class — rate, propagation delay, the serialization times
//! of the two wire sizes that dominate every run (full MTU data packets
//! and ACKs), queue cap and ECN threshold — live once per class in a
//! small [`ChanClass`] table. The rest is allocated only where it is
//! used: the drop, mark and eviction counters are zeroed tables whose
//! pages only a drop or mark touches; a port's queue is built the first
//! time a packet waits there (every reader treats a port without one as
//! empty); and the fault table ([`ChanFault`]) stays empty — and unread —
//! until a fault plan first changes a channel.
//!
//! # Two transmitter models
//!
//! A FIFO port (the run's `queue_disc` is tail-drop) neither reorders nor
//! evicts, so a packet's transmission start is known the moment it is
//! accepted: the end of the one ahead of it. Such a channel keeps a
//! *departure clock* — `cur_end`, when the transmission in progress ends,
//! and `tx_end`, when the last scheduled one ends — and
//! [`Channels::offer_fifo`] hands back each accepted packet's
//! transmission end, so the engine pushes its Deliver at once and no
//! `TxFree` event exists. [`Channels::catch_up`] retires the packets
//! whose transmission has begun by a given time, so the discipline holds
//! exactly the packets still waiting and tail-drop and ECN decisions see
//! the same backlog an event-driven transmitter would.
//!
//! A reordering port (pFabric) cannot know which packet goes next until
//! the transmitter frees, so it keeps the event-driven model:
//! [`Channels::offer`], [`Channels::begin_tx`], [`Channels::arm_tx_free`]
//! and [`Channels::tx_done`] around a `TxFree` pushed only once a packet
//! waits for it. Both models share the tie rule: a transmission that
//! ends at `t` has ended for everything processed at `t`, so a reordering
//! port is idle iff no `TxFree` is armed and `cur_end ≤ now`.

use crate::slab::{PacketArena, PktId};
use crate::switch::{AnyQueue, EnqueueOutcome, QueueDiscipline};
use crate::types::{Ns, Packet, QueueDiscKind};

/// Result of offering a packet to a channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offer {
    /// Channel idle: the transmission starts now. On a reordering port
    /// the caller must record its end (`now + ser`) with
    /// [`Channels::begin_tx`] and schedule Deliver(now + ser + prop); the
    /// TxFree itself is pushed only once a packet queues behind it.
    StartTx,
    /// Queued behind the current transmission. On a FIFO port its
    /// transmission is already scheduled; on a reordering port the caller
    /// pushes the TxFree if [`Channels::arm_tx_free`] says it is not in
    /// the calendar yet.
    Queued,
    /// The offered packet was dropped by the queue discipline (and its
    /// arena slot freed).
    Dropped,
}

/// The hot, mutable half of one channel: what every hop reads.
pub(crate) struct ChanDyn {
    /// When the transmission in progress ends.
    pub(crate) cur_end: Ns,
    /// FIFO ports: when the last scheduled transmission ends; the
    /// channel is idle from then on. Unused on reordering ports.
    pub(crate) tx_end: Ns,
    /// Cached `queue.queue_len()` (0 without a queue), kept by the
    /// channel layer from each enqueue's outcome: the per-event path
    /// checks for an empty queue without following the queue pointer or
    /// dispatching on the discipline (a virtual call for a `Custom` one).
    pub(crate) qlen: u32,
    /// The channel's index into [`Channels::classes`].
    class: u16,
    /// Reordering ports: the TxFree at `cur_end` is in the calendar.
    /// Armed whenever packets are queued (see [`Channels::tx_done`] for
    /// the one way the queue can empty under an armed TxFree); unarmed,
    /// the transmitter is busy until `cur_end` and no event marks its end.
    pub(crate) armed: bool,
    /// The output queue feeding the transmitter. A built-in discipline
    /// is built the first time a packet waits at the port, so a port
    /// that never queues holds none; a caller's discipline
    /// ([`crate::Simulator::with_parts`]) is built with the fabric. On a
    /// FIFO port it holds the packets whose transmission has not begun;
    /// each of them also has its Deliver in the calendar already.
    queue: Option<Box<AnyQueue>>,
}

const _: () = assert!(std::mem::size_of::<ChanDyn>() <= 32);

/// The static fields every channel of one link class shares: one entry
/// per distinct (rate, propagation delay, queue cap, ECN threshold).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ChanClass {
    /// Bytes per nanosecond.
    rate_bpns: f64,
    prop_ns: Ns,
    /// Precomputed [`Channels::ser_ns`] for a full-MTU packet.
    ser_mtu_ns: Ns,
    /// Precomputed [`Channels::ser_ns`] for an ACK.
    ser_ack_ns: Ns,
    /// Byte capacity of the port's queue.
    cap_bytes: u64,
    /// Queue depth in bytes at which the port marks ECN.
    ecn_bytes: u64,
}

/// One channel's fault state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ChanFault {
    /// A hard-failed channel delivers nothing. The fault layer flips this
    /// (never the channel layer itself) and the engine drops packets at
    /// the offer and delivery points, so queued packets drain onto the
    /// dead wire and are lost — "in-flight packets are lost on failure".
    pub(crate) up: bool,
    /// Gray-failure per-packet drop probability (0.0 = healthy).
    pub(crate) loss_prob: f64,
    /// Gray-loss draw counter: each offered packet on a lossy channel
    /// bumps it, and the (seed, channel, counter) hash decides the drop.
    pub(crate) gray_ctr: u64,
    /// Packets lost to hard or gray faults on the channel.
    pub(crate) drops: u64,
}

impl ChanFault {
    const HEALTHY: ChanFault = ChanFault {
        up: true,
        loss_prob: 0.0,
        gray_ctr: 0,
        drops: 0,
    };
}

/// All directed channels of a fabric: one `to_node` entry and one
/// [`ChanDyn`] record per channel, the [`ChanClass`] table, and the cold
/// side tables.
pub struct Channels {
    /// Node (switch or server, in the simulator's global id space) that
    /// packets *leaving* the channel arrive at.
    pub(crate) to_node: Vec<u32>,
    pub(crate) state: Vec<ChanDyn>,
    /// The distinct link classes, indexed by [`ChanDyn`]'s `class`.
    classes: Vec<ChanClass>,
    /// Congestion drops (tail or priority-evicted), per channel.
    pub(crate) drops: Vec<u64>,
    /// ECN marks applied, per channel.
    pub(crate) marks: Vec<u64>,
    /// Queued packets evicted by the discipline to admit more urgent
    /// ones — a subset of `drops`, split out so drops can be reported by
    /// cause.
    pub(crate) evictions: Vec<u64>,
    /// Per-channel fault state: empty (every channel up and lossless)
    /// until the fault layer first changes a channel, then one entry per
    /// channel.
    pub(crate) faults: Vec<ChanFault>,
    /// Whether every channel's discipline departs in FIFO order and so
    /// runs on the departure clock (decided by the run's
    /// [`crate::types::QueueDiscKind`]).
    pub(crate) fifo: bool,
    /// The built-in discipline a port builds when a packet first waits
    /// there; `None` when every port's queue was built with the fabric.
    built_in: Option<QueueDiscKind>,
    mtu_bytes: u32,
    ack_bytes: u32,
}

impl Channels {
    /// An empty table for `n` channels: the counter tables are allocated
    /// zeroed here, in one step each, so the pages of ports that never
    /// drop or mark are never touched. `mtu_bytes`/`ack_bytes` are the
    /// two wire sizes the serialization-time cache covers, `fifo` selects
    /// the departure clock for every channel, and `built_in` is the
    /// discipline a port without a queue builds (`None`: every
    /// [`Channels::push`] brings its own).
    pub(crate) fn new(
        mtu_bytes: u32,
        ack_bytes: u32,
        n: usize,
        fifo: bool,
        built_in: Option<QueueDiscKind>,
    ) -> Self {
        Channels {
            to_node: Vec::with_capacity(n),
            state: Vec::with_capacity(n),
            classes: Vec::new(),
            drops: vec![0; n],
            marks: vec![0; n],
            evictions: vec![0; n],
            faults: Vec::new(),
            fifo,
            built_in,
            mtu_bytes,
            ack_bytes,
        }
    }

    /// Appends a link class — `gbps` line rate, `prop_ns` propagation
    /// delay, a queue of `cap_bytes` that marks ECN from `ecn_bytes` —
    /// and returns its index. Callers intern: one class per distinct
    /// tuple (see [`crate::switch::Fabric`]).
    pub(crate) fn add_class(
        &mut self,
        gbps: f64,
        prop_ns: Ns,
        cap_bytes: u64,
        ecn_bytes: u64,
    ) -> u16 {
        let id = u16::try_from(self.classes.len()).expect("at most 65,536 channel classes");
        let rate_bpns = gbps / 8.0;
        self.classes.push(ChanClass {
            rate_bpns,
            prop_ns,
            ser_mtu_ns: (self.mtu_bytes as f64 / rate_bpns).ceil() as Ns,
            ser_ack_ns: (self.ack_bytes as f64 / rate_bpns).ceil() as Ns,
            cap_bytes,
            ecn_bytes,
        });
        id
    }

    /// Appends one channel of link class `class` and returns its id.
    /// `queue` is its discipline when built up front; `None` builds the
    /// run's built-in one when a packet first waits.
    pub(crate) fn push(&mut self, to_node: u32, class: u16, queue: Option<AnyQueue>) -> u32 {
        let id = self.to_node.len() as u32;
        assert!(
            (id as usize) < self.drops.len(),
            "more channels than the table was sized for"
        );
        assert!((class as usize) < self.classes.len());
        debug_assert!(queue.is_some() || self.built_in.is_some());
        self.to_node.push(to_node);
        self.state.push(ChanDyn {
            cur_end: 0,
            tx_end: 0,
            qlen: 0,
            class,
            armed: false,
            queue: queue.map(Box::new),
        });
        id
    }

    pub(crate) fn len(&self) -> usize {
        self.to_node.len()
    }

    /// Number of distinct link classes.
    pub(crate) fn num_classes(&self) -> usize {
        self.classes.len()
    }

    #[inline]
    fn d(&self, ch: u32) -> &ChanDyn {
        &self.state[ch as usize]
    }

    #[inline]
    fn d_mut(&mut self, ch: u32) -> &mut ChanDyn {
        &mut self.state[ch as usize]
    }

    #[inline]
    fn class(&self, ch: u32) -> &ChanClass {
        &self.classes[self.d(ch).class as usize]
    }

    /// The byte cap and ECN threshold of channel `ch`'s queue.
    #[cfg(test)]
    pub(crate) fn queue_limits(&self, ch: u32) -> (u64, u64) {
        let c = self.class(ch);
        (c.cap_bytes, c.ecn_bytes)
    }

    /// Whether channel `ch` holds a queue (has ever had a packet wait,
    /// or was handed its discipline up front).
    #[cfg(test)]
    pub(crate) fn has_queue(&self, ch: u32) -> bool {
        self.d(ch).queue.is_some()
    }

    /// Channel `ch`'s queue, built first if no packet has waited there
    /// yet.
    #[inline]
    fn queue_mut(&mut self, ch: u32) -> &mut AnyQueue {
        let d = &mut self.state[ch as usize];
        let (classes, built_in) = (&self.classes, self.built_in);
        d.queue.get_or_insert_with(|| {
            let c = &classes[d.class as usize];
            let kind = built_in.expect("a channel without a queue has a built-in discipline");
            Box::new(AnyQueue::of(kind, c.cap_bytes, c.ecn_bytes))
        })
    }

    /// Whether some channel's fault state has ever been set: until then
    /// every channel is up and lossless and the engine skips its fault
    /// checks.
    #[inline]
    pub(crate) fn faulty(&self) -> bool {
        !self.faults.is_empty()
    }

    /// The fault table, filled with healthy entries on first use.
    fn fault_mut(&mut self, ch: u32) -> &mut ChanFault {
        if self.faults.is_empty() {
            self.faults = vec![ChanFault::HEALTHY; self.len()];
        }
        &mut self.faults[ch as usize]
    }

    #[inline]
    pub(crate) fn up(&self, ch: u32) -> bool {
        self.faults.get(ch as usize).is_none_or(|f| f.up)
    }

    pub(crate) fn set_up(&mut self, ch: u32, up: bool) {
        self.fault_mut(ch).up = up;
    }

    #[inline]
    pub(crate) fn loss_prob(&self, ch: u32) -> f64 {
        self.faults.get(ch as usize).map_or(0.0, |f| f.loss_prob)
    }

    pub(crate) fn set_loss_prob(&mut self, ch: u32, p: f64) {
        self.fault_mut(ch).loss_prob = p;
    }

    /// Counts a packet lost on channel `ch` to a fault, at the offer point
    /// or on arrival over a wire that died in flight.
    pub(crate) fn add_fault_drop(&mut self, ch: u32) {
        self.fault_mut(ch).drops += 1;
    }

    /// Bumps and returns the channel's gray-loss draw counter (at the
    /// offer point).
    pub(crate) fn gray_bump(&mut self, ch: u32) -> u64 {
        let f = self.fault_mut(ch);
        f.gray_ctr += 1;
        f.gray_ctr
    }

    /// Propagation delay of channel `ch`.
    #[inline]
    pub(crate) fn prop_ns(&self, ch: u32) -> Ns {
        self.class(ch).prop_ns
    }

    /// Serialization time for `bytes` on channel `ch`. MTU-sized packets
    /// and ACKs hit the class's precomputed cache; odd sizes (a flow's
    /// final packet) fall back to the same float expression the cache was
    /// filled from, so timing is bit-identical either way.
    #[inline]
    pub(crate) fn ser_ns(&self, ch: u32, bytes: u32) -> Ns {
        let c = self.class(ch);
        if bytes == self.mtu_bytes {
            c.ser_mtu_ns
        } else if bytes == self.ack_bytes {
            c.ser_ack_ns
        } else {
            (bytes as f64 / c.rate_bpns).ceil() as Ns
        }
    }

    /// Counts an enqueue's drops, evictions and mark on channel `ch`.
    #[inline]
    fn count(&mut self, ch: u32, out: &EnqueueOutcome) {
        let i = ch as usize;
        if out.dropped > 0 {
            self.drops[i] += out.dropped as u64;
            self.evictions[i] += out.evicted.len() as u64;
        }
        if out.marked {
            self.marks[i] += 1;
        }
    }

    /// FIFO ports: retires every queued packet whose transmission has
    /// begun by `t` — a transmission that begins at `t` has begun — and
    /// calls `on_start` with each one's wire bytes. Afterwards the
    /// discipline holds exactly the packets still waiting at `t`.
    #[inline]
    pub(crate) fn catch_up(
        &mut self,
        ch: u32,
        t: Ns,
        pool: &PacketArena,
        mut on_start: impl FnMut(u32),
    ) {
        let d = &self.state[ch as usize];
        if d.qlen == 0 || d.cur_end > t {
            return;
        }
        loop {
            let d = &mut self.state[ch as usize];
            let q = d
                .queue
                .as_deref_mut()
                .expect("a port with a backlog has a queue");
            let bytes = q.dequeue_fifo(pool);
            d.qlen -= 1;
            let left = d.qlen;
            let ser = self.ser_ns(ch, bytes);
            let d = &mut self.state[ch as usize];
            d.cur_end += ser;
            on_start(bytes);
            if left == 0 || d.cur_end > t {
                return;
            }
        }
    }

    /// FIFO ports: offers packet `id` of `bytes` wire bytes to channel
    /// `ch` at time `now`, after [`Channels::catch_up`] to `now`. An idle
    /// channel (its last transmission ended by `now`) starts it at once
    /// ([`Offer::StartTx`]); otherwise the discipline decides, and an
    /// accepted packet ([`Offer::Queued`]) starts when the last scheduled
    /// transmission ends. Either way the id stays live and the returned
    /// time is when its transmission ends. On [`Offer::Dropped`] the id
    /// has been freed and the time is meaningless.
    #[inline]
    pub(crate) fn offer_fifo(
        &mut self,
        ch: u32,
        id: PktId,
        bytes: u32,
        pool: &mut PacketArena,
        now: Ns,
    ) -> (Offer, Ns, EnqueueOutcome) {
        let ser = self.ser_ns(ch, bytes);
        let d = self.d_mut(ch);
        if d.tx_end <= now {
            debug_assert_eq!(d.qlen, 0, "a caught-up idle port has no backlog");
            d.cur_end = now + ser;
            d.tx_end = d.cur_end;
            let out = EnqueueOutcome {
                accepted: true,
                ..Default::default()
            };
            return (Offer::StartTx, d.cur_end, out);
        }
        let out = self.queue_mut(ch).enqueue(id, pool);
        let d = self.d_mut(ch);
        let offer = if out.accepted {
            d.qlen += 1;
            d.tx_end += ser;
            Offer::Queued
        } else {
            pool.free(id);
            Offer::Dropped
        };
        let end = d.tx_end;
        self.count(ch, &out);
        (offer, end, out)
    }

    /// Reordering ports: offers packet `id` to channel `ch` at time `now`.
    /// The channel is idle iff no TxFree is armed and its last
    /// transmission has ended by `now` (ties included). On
    /// [`Offer::StartTx`] the caller owns the in-flight transmission (the
    /// id stays live); on [`Offer::Queued`] the discipline holds it
    /// (possibly evicting less urgent packets — those count into `drops`
    /// and are freed); on [`Offer::Dropped`] the id has been freed. The
    /// returned [`EnqueueOutcome`] carries the mark flag and eviction
    /// victims for the observability layer.
    pub(crate) fn offer(
        &mut self,
        ch: u32,
        id: PktId,
        pool: &mut PacketArena,
        now: Ns,
    ) -> (Offer, EnqueueOutcome) {
        let d = self.d(ch);
        if !d.armed && d.cur_end <= now {
            debug_assert_eq!(d.qlen, 0, "an unarmed port has no backlog");
            let out = EnqueueOutcome {
                accepted: true,
                ..Default::default()
            };
            return (Offer::StartTx, out);
        }
        let out = self.queue_mut(ch).enqueue(id, pool);
        let d = self.d_mut(ch);
        d.qlen = d.qlen + out.accepted as u32 - out.evicted.len() as u32;
        let offer = if out.accepted {
            Offer::Queued
        } else {
            pool.free(id);
            Offer::Dropped
        };
        self.count(ch, &out);
        (offer, out)
    }

    /// Reordering ports: records that the transmission just started on
    /// `ch` ends at `free_at`. Returns whether packets are queued behind
    /// it, in which case the caller pushes its TxFree now.
    pub(crate) fn begin_tx(&mut self, ch: u32, free_at: Ns) -> bool {
        let d = self.d_mut(ch);
        d.cur_end = free_at;
        d.armed = d.qlen > 0;
        d.armed
    }

    /// Reordering ports: called after a packet queued on `ch`; if the
    /// transmitter's TxFree is not in the calendar yet, marks it armed
    /// and returns its time for the caller to push.
    pub(crate) fn arm_tx_free(&mut self, ch: u32) -> Option<Ns> {
        let d = self.d_mut(ch);
        if d.armed {
            return None;
        }
        d.armed = true;
        Some(d.cur_end)
    }

    /// Reordering ports: called when channel `ch`'s armed TxFree fires:
    /// dequeues the next packet to transmit (the caller starts it). A
    /// TxFree is armed only behind a queued packet, so one is there —
    /// unless a discipline's enqueue evicted the whole queue and still
    /// refused the newcomer (the built-in ones cannot: an empty queue
    /// admits any packet up to the MTU); the channel then goes idle.
    pub(crate) fn tx_done(&mut self, ch: u32) -> Option<PktId> {
        let d = self.d_mut(ch);
        debug_assert!(d.armed);
        d.armed = false;
        if d.qlen == 0 {
            return None;
        }
        d.qlen -= 1;
        let q = d
            .queue
            .as_deref_mut()
            .expect("a port with a backlog has a queue");
        let id = q.dequeue();
        debug_assert!(id.is_some(), "qlen said non-empty but dequeue had nothing");
        id
    }

    /// Bytes queued at `ch`. On a FIFO port, the packets still waiting as
    /// of its last [`Channels::catch_up`].
    pub(crate) fn queue_bytes(&self, ch: u32) -> u64 {
        self.d(ch).queue.as_ref().map_or(0, |q| q.queue_bytes())
    }

    /// Packets queued at `ch`, as [`Channels::queue_bytes`] counts them.
    pub(crate) fn queue_len(&self, ch: u32) -> usize {
        let d = self.d(ch);
        debug_assert_eq!(
            d.qlen as usize,
            d.queue.as_ref().map_or(0, |q| q.queue_len())
        );
        d.qlen as usize
    }

    /// Checkpoint support: copies of the packets queued at `ch` in
    /// arrival order (none for a port without a queue), or `None` if its
    /// discipline refuses the snapshot.
    pub(crate) fn snapshot_queue(&self, ch: u32, pool: &PacketArena) -> Option<Vec<Packet>> {
        match &self.d(ch).queue {
            Some(q) => q.snapshot_queue(pool),
            None => Some(Vec::new()),
        }
    }

    /// Checkpoint support: reinstates packets captured by
    /// [`Channels::snapshot_queue`] into `ch`'s queue, building it only
    /// if there is a packet to hold. The caller sets the cached length.
    pub(crate) fn restore_queue(&mut self, ch: u32, pkts: Vec<Packet>, pool: &mut PacketArena) {
        if !pkts.is_empty() {
            self.queue_mut(ch).restore_queue(pkts, pool);
        }
    }

    // --- whole-table sums (stats) ---

    pub(crate) fn sum_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    pub(crate) fn sum_evictions(&self) -> u64 {
        self.evictions.iter().sum()
    }

    pub(crate) fn sum_fault_drops(&self) -> u64 {
        self.faults.iter().map(|f| f.drops).sum()
    }

    pub(crate) fn sum_marks(&self) -> u64 {
        self.marks.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathId;

    fn pkt(a: &mut PacketArena, bytes: u32) -> PktId {
        a.alloc(Packet {
            flow: 0,
            seq: 0,
            bytes,
            ecn_ce: false,
            is_ack: false,
            ack_ecn: false,
            ts: 0,
            hop: 0,
            prio: 0,
            path: PathId::default(),
        })
    }

    /// 10 Gbps (1,200 ns per 1,500 B), 100 ns prop, 10-packet queue, ECN
    /// at 3 packets.
    fn chan(fifo: bool) -> Channels {
        let mut c = Channels::new(1500, 40, 1, fifo, Some(QueueDiscKind::TailDropEcn));
        let class = c.add_class(10.0, 100, 10 * 1500, 3 * 1500);
        c.push(1, class, None);
        c
    }

    /// Offers on the departure clock at `now`, catching up first as the
    /// engine does.
    fn offer_at(c: &mut Channels, id: PktId, a: &mut PacketArena, now: Ns) -> (Offer, Ns) {
        c.catch_up(0, now, a, |_| {});
        let bytes = a.get(id).bytes;
        let (o, end, _) = c.offer_fifo(0, id, bytes, a, now);
        (o, end)
    }

    /// Offers everything at the start of time.
    fn offer(c: &mut Channels, id: PktId, a: &mut PacketArena) -> Offer {
        offer_at(c, id, a, 0).0
    }

    #[test]
    fn departure_clock_schedules_each_packet_behind_the_last() {
        let mut a = PacketArena::new();
        let mut c = chan(true);
        let p = pkt(&mut a, 1500);
        assert_eq!(offer_at(&mut c, p, &mut a, 0), (Offer::StartTx, 1_200));
        assert!(!c.has_queue(0), "a packet that never waits builds no queue");
        assert_eq!((c.queue_len(0), c.queue_bytes(0)), (0, 0));
        let q1 = pkt(&mut a, 1500);
        let q2 = pkt(&mut a, 40);
        assert_eq!(offer_at(&mut c, q1, &mut a, 500), (Offer::Queued, 2_400));
        assert_eq!(offer_at(&mut c, q2, &mut a, 600), (Offer::Queued, 2_432));
        assert_eq!((c.queue_len(0), c.queue_bytes(0)), (2, 1540));
        // A transmission that begins at `t` has begun: q1 leaves the
        // queue at 1,200 exactly, q2 at 2,400.
        let mut started = Vec::new();
        c.catch_up(0, 1_199, &a, |b| started.push(b));
        assert_eq!(c.queue_len(0), 2);
        c.catch_up(0, 1_200, &a, |b| started.push(b));
        assert_eq!((c.queue_len(0), c.state[0].cur_end), (1, 2_400));
        c.catch_up(0, 9_999, &a, |b| started.push(b));
        assert_eq!(started, vec![1500, 40]);
        assert_eq!((c.queue_len(0), c.state[0].cur_end), (0, 2_432));
        assert_eq!(
            a.live_count(),
            3,
            "retired packets stay live for their Deliver"
        );
        // Idle from the last transmission's end on, ties included.
        let p = pkt(&mut a, 1500);
        assert_eq!(offer_at(&mut c, p, &mut a, 2_432), (Offer::StartTx, 3_632));
    }

    #[test]
    fn tail_drop_when_full_frees_the_id() {
        let mut a = PacketArena::new();
        let mut c = chan(true);
        offer(&mut c, pkt(&mut a, 1500), &mut a); // in flight
        for _ in 0..10 {
            let p = pkt(&mut a, 1500);
            assert_eq!(offer(&mut c, p, &mut a), Offer::Queued);
        }
        let live = a.live_count();
        let p = pkt(&mut a, 1500);
        assert_eq!(offer(&mut c, p, &mut a), Offer::Dropped);
        assert_eq!(c.drops[0], 1);
        assert_eq!(a.live_count(), live, "dropped packet must be freed");
        // Once the head's successor has begun, there is room again.
        let p = pkt(&mut a, 1500);
        assert_eq!(offer_at(&mut c, p, &mut a, 1_200).0, Offer::Queued);
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let mut a = PacketArena::new();
        let mut c = chan(true);
        let ids: Vec<PktId> = (0..5).map(|_| pkt(&mut a, 1500)).collect();
        offer(&mut c, ids[0], &mut a); // in flight, queue empty
        offer(&mut c, ids[1], &mut a); // queue -> 1500
        offer(&mut c, ids[2], &mut a); // queue -> 3000
        offer(&mut c, ids[3], &mut a); // queue -> 4500 (at 3000 < 4500 thresh)
        assert_eq!(c.marks[0], 0);
        offer(&mut c, ids[4], &mut a); // enqueued seeing 4500 >= 4500 → marked
        assert_eq!(c.marks[0], 1);
        assert!(a.get(ids[4]).ecn_ce && !a.get(ids[3]).ecn_ce);
    }

    #[test]
    fn acks_never_marked() {
        let mut a = PacketArena::new();
        let mut c = chan(true);
        offer(&mut c, pkt(&mut a, 1500), &mut a); // in flight
        for _ in 0..3 {
            offer(&mut c, pkt(&mut a, 1500), &mut a); // queue reaches the 4500 B threshold
        }
        assert_eq!(c.marks[0], 0);
        let ack = pkt(&mut a, 40);
        a.get_mut(ack).is_ack = true;
        offer(&mut c, ack, &mut a); // sees queue ≥ threshold but is an ACK
        assert_eq!(c.marks[0], 0);
        offer(&mut c, pkt(&mut a, 1500), &mut a); // a data packet here *is* marked
        assert_eq!(c.marks[0], 1);
    }

    #[test]
    fn serialization_uses_channel_rate_and_cache() {
        let mut c = Channels::new(1500, 40, 1, true, Some(QueueDiscKind::TailDropEcn));
        let class = c.add_class(40.0, 0, 1, 1);
        c.push(0, class, None);
        assert_eq!(c.ser_ns(0, 1500), 300); // cached MTU path, 4x faster than 10G
        assert_eq!(c.ser_ns(0, 40), 8); // cached ACK path
        assert_eq!(c.ser_ns(0, 777), 156); // uncached fallback: ceil(777/5)
    }

    #[test]
    fn fault_table_stays_empty_until_a_fault_sets_it() {
        let mut c = chan(true);
        assert!(!c.faulty() && c.up(0) && c.loss_prob(0) == 0.0);
        c.set_loss_prob(0, 0.5);
        assert!(c.faulty() && c.up(0) && c.loss_prob(0) == 0.5);
        assert_eq!((c.gray_bump(0), c.gray_bump(0)), (1, 2));
        c.add_fault_drop(0);
        assert_eq!(c.sum_fault_drops(), 1);
    }

    // --- reordering ports: the event-driven transmitter ---

    /// Offers at `now`, starting an idle port's packet (1,200 ns on the
    /// wire) and arming the TxFree when the packet queues, as the engine
    /// does; the `Option` is a TxFree the engine would push.
    fn offer_lazy_at(
        c: &mut Channels,
        id: PktId,
        a: &mut PacketArena,
        now: Ns,
    ) -> (Offer, Option<Ns>) {
        let (o, _) = c.offer(0, id, a, now);
        let pushed = match o {
            Offer::StartTx => c.begin_tx(0, now + 1_200).then_some(now + 1_200),
            Offer::Queued => c.arm_tx_free(0),
            Offer::Dropped => None,
        };
        (o, pushed)
    }

    fn offer_lazy(c: &mut Channels, id: PktId, a: &mut PacketArena) -> Offer {
        offer_lazy_at(c, id, a, 0).0
    }

    /// Fires the armed TxFree at `cur_end` and starts the dequeued packet.
    fn tx_done(c: &mut Channels) -> Option<PktId> {
        let id = c.tx_done(0);
        if id.is_some() {
            let end = c.state[0].cur_end + 1_200;
            c.begin_tx(0, end);
        }
        id
    }

    #[test]
    fn idle_channel_starts_tx() {
        let mut a = PacketArena::new();
        let mut c = chan(false);
        let p = pkt(&mut a, 1500);
        assert_eq!(offer_lazy(&mut c, p, &mut a), Offer::StartTx);
        let d = &c.state[0];
        assert_eq!((d.cur_end, d.armed), (1_200, false));
        assert_eq!(a.live_count(), 1, "StartTx leaves the id live");
    }

    #[test]
    fn busy_channel_queues_then_drains_fifo() {
        let mut a = PacketArena::new();
        let mut c = chan(false);
        let head = pkt(&mut a, 1500);
        offer_lazy(&mut c, head, &mut a);
        let q1 = pkt(&mut a, 100);
        a.get_mut(q1).seq = 1;
        let q2 = pkt(&mut a, 100);
        a.get_mut(q2).seq = 2;
        assert_eq!(
            offer_lazy_at(&mut c, q1, &mut a, 0),
            (Offer::Queued, Some(1_200)),
            "the first packet to queue pushes the TxFree"
        );
        assert_eq!(offer_lazy_at(&mut c, q2, &mut a, 0), (Offer::Queued, None));
        assert_eq!(c.queue_len(0), 2);
        let n1 = tx_done(&mut c).unwrap();
        assert_eq!(a.get(n1).seq, 1);
        let n2 = tx_done(&mut c).unwrap();
        assert_eq!(a.get(n2).seq, 2);
        // Nothing queued behind the last packet: no TxFree marks its end.
        let d = &c.state[0];
        assert_eq!((d.cur_end, d.armed), (3_600, false));
    }

    /// The FIFO tie rule on a reordering port: a transmission that ends
    /// at `t` has ended for everything processed at `t`. With nothing
    /// waiting, a packet offered at exactly `cur_end` starts at once;
    /// with a packet waiting, the TxFree is armed, so the newcomer queues
    /// and competes with it when the TxFree runs.
    #[test]
    fn offer_at_the_end_of_a_transmission_follows_the_fifo_tie_rule() {
        let mut a = PacketArena::new();
        let mut c = chan(false);
        let head = pkt(&mut a, 1500);
        assert_eq!(
            offer_lazy_at(&mut c, head, &mut a, 0),
            (Offer::StartTx, None)
        );
        let p = pkt(&mut a, 100);
        assert_eq!(
            offer_lazy_at(&mut c, p, &mut a, 1_199),
            (Offer::Queued, Some(1_200)),
            "still transmitting a nanosecond before the end"
        );
        assert_eq!(tx_done(&mut c), Some(p));
        assert_eq!(c.state[0].cur_end, 2_400);
        // Nothing waiting at 2,400: the port is idle at its end.
        let p = pkt(&mut a, 100);
        assert_eq!(
            offer_lazy_at(&mut c, p, &mut a, 2_400),
            (Offer::StartTx, None)
        );
        assert_eq!(c.state[0].cur_end, 3_600);

        // A packet waiting behind the transmission ending at 3,600 armed
        // its TxFree: an arrival at 3,600 queues too, and the discipline
        // picks between the two when the TxFree runs.
        let waiting = pkt(&mut a, 100);
        assert_eq!(
            offer_lazy_at(&mut c, waiting, &mut a, 3_000),
            (Offer::Queued, Some(3_600))
        );
        let tie = pkt(&mut a, 100);
        assert_eq!(
            offer_lazy_at(&mut c, tie, &mut a, 3_600),
            (Offer::Queued, None)
        );
        assert_eq!(c.queue_len(0), 2);
        assert_eq!(
            tx_done(&mut c),
            Some(waiting),
            "FIFO discipline: the older one"
        );
        assert_eq!(tx_done(&mut c), Some(tie));
    }

    #[test]
    fn eviction_counts_as_channel_drop() {
        let mut a = PacketArena::new();
        let mut c = Channels::new(1500, 40, 1, false, Some(QueueDiscKind::PFabric));
        let class = c.add_class(10.0, 100, 2 * 1500, 0);
        c.push(1, class, None);
        offer_lazy(&mut c, pkt(&mut a, 1500), &mut a); // in flight
        let low = pkt(&mut a, 1500);
        a.get_mut(low).prio = 9;
        offer_lazy(&mut c, low, &mut a);
        offer_lazy(&mut c, pkt(&mut a, 1500), &mut a);
        let urgent = pkt(&mut a, 1500);
        a.get_mut(urgent).prio = 1;
        a.get_mut(urgent).seq = 7;
        let live = a.live_count();
        let (o, out) = c.offer(0, urgent, &mut a, 0);
        assert_eq!(o, Offer::Queued, "urgent packet must win");
        assert_eq!(c.drops[0], 1, "the prio-9 victim is a congestion drop");
        assert_eq!(c.evictions[0], 1, "and is attributed to eviction");
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(a.live_count(), live - 1, "the victim's id must be freed");
    }
}
