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
//! [`Channels`] keeps the immutable per-channel fields (endpoints, rates,
//! precomputed serialization times) in dense `Vec`s indexed by channel
//! id, and the mutable state — transmitter, fault state, counters, and
//! the queue discipline itself, inline — in one [`ChanDyn`] record per
//! channel. The serialization-time cache for the two wire sizes that
//! dominate every run (full MTU data packets and ACKs) removes the float
//! divide from the common case.

use crate::slab::{PacketArena, PktId};
use crate::switch::{AnyQueue, EnqueueOutcome, QueueDiscipline};
use crate::types::Ns;

/// Result of offering a packet to a channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offer {
    /// Channel idle: caller must reserve the transmission's TxFree key
    /// (`now + ser`, next `seq`), record it with
    /// [`Channels::begin_tx`], and schedule Deliver(now + ser + prop).
    /// The TxFree itself is pushed only once a packet queues behind it.
    StartTx,
    /// Queued behind the current transmission (caller pushes the TxFree
    /// under its reserved key if [`Channels::arm_tx_free`] says it is
    /// still virtual).
    Queued,
    /// The offered packet was dropped by the queue discipline (and its
    /// arena slot freed).
    Dropped,
}

/// The mutable half of one channel.
pub(crate) struct ChanDyn {
    /// A transmission started whose TxFree has not run yet. With nothing
    /// queued behind it that TxFree stays virtual (never pushed): the
    /// channel is then really busy only until the engine's clock passes
    /// `(free_at, free_seq)`, which [`Channels::offer`] checks.
    pub(crate) busy: bool,
    /// Key `(t, seq)` reserved for the current transmission's TxFree —
    /// where the eager engine would have pushed it.
    pub(crate) free_at: Ns,
    pub(crate) free_seq: u64,
    /// The TxFree is in the calendar under that key. Armed whenever
    /// packets are queued (see [`Channels::tx_done`] for the one way the
    /// queue can empty under an armed TxFree).
    pub(crate) armed: bool,
    /// Fault state: a hard-failed channel delivers nothing. The fault layer
    /// flips this (never the channel layer itself) and the engine drops
    /// packets at the offer and delivery points, so queued packets drain
    /// onto the dead wire and are lost — "in-flight packets are lost on
    /// failure".
    pub(crate) up: bool,
    /// Gray-failure per-packet drop probability (0.0 = healthy).
    pub(crate) loss_prob: f64,
    /// Cached `disc.queue_len()`, kept by the channel layer from each
    /// enqueue's outcome: the per-event path checks for an empty queue
    /// without dispatching on the discipline (a virtual call for a
    /// `Custom` one).
    pub(crate) qlen: u32,
    /// Congestion drops (tail or priority-evicted), for stats and tests.
    pub(crate) drops: u64,
    /// ECN marks applied.
    pub(crate) marks: u64,
    /// Packets lost to hard or gray faults on the channel.
    pub(crate) fault_drops: u64,
    /// Queued packets evicted by the discipline to admit more urgent
    /// ones — a subset of `drops`, split out so drops can be reported by
    /// cause.
    pub(crate) evictions: u64,
    /// Gray-loss draw counter: each offered packet on a lossy channel
    /// bumps it, and the (seed, channel, counter) hash decides the drop.
    pub(crate) gray_ctr: u64,
    /// The output queue feeding the transmitter, held by value.
    pub(crate) disc: AnyQueue,
}

/// All directed channels of a fabric: dense static `Vec`s plus one
/// [`ChanDyn`] record per channel.
pub struct Channels {
    /// Node (switch or server, in the simulator's global id space) that
    /// packets *leaving* the channel arrive at.
    pub(crate) to_node: Vec<u32>,
    /// Bytes per nanosecond.
    pub(crate) rate_bpns: Vec<f64>,
    pub(crate) prop_ns: Vec<Ns>,
    /// Precomputed [`Channels::ser_ns`] for a full-MTU packet.
    ser_mtu_ns: Vec<Ns>,
    /// Precomputed [`Channels::ser_ns`] for an ACK.
    ser_ack_ns: Vec<Ns>,
    pub(crate) state: Vec<ChanDyn>,
    mtu_bytes: u32,
    ack_bytes: u32,
}

impl Channels {
    /// An empty table with room for `capacity` channels; `mtu_bytes`/
    /// `ack_bytes` are the two wire sizes the serialization-time cache
    /// covers.
    pub(crate) fn new(mtu_bytes: u32, ack_bytes: u32, capacity: usize) -> Self {
        Channels {
            to_node: Vec::with_capacity(capacity),
            rate_bpns: Vec::with_capacity(capacity),
            prop_ns: Vec::with_capacity(capacity),
            ser_mtu_ns: Vec::with_capacity(capacity),
            ser_ack_ns: Vec::with_capacity(capacity),
            state: Vec::with_capacity(capacity),
            mtu_bytes,
            ack_bytes,
        }
    }

    /// Appends one channel and returns its id.
    pub(crate) fn push(&mut self, to_node: u32, gbps: f64, prop_ns: Ns, disc: AnyQueue) -> u32 {
        let id = self.to_node.len() as u32;
        let rate_bpns = gbps / 8.0;
        self.to_node.push(to_node);
        self.rate_bpns.push(rate_bpns);
        self.prop_ns.push(prop_ns);
        self.ser_mtu_ns
            .push((self.mtu_bytes as f64 / rate_bpns).ceil() as Ns);
        self.ser_ack_ns
            .push((self.ack_bytes as f64 / rate_bpns).ceil() as Ns);
        self.state.push(ChanDyn {
            busy: false,
            free_at: 0,
            free_seq: 0,
            armed: false,
            up: true,
            loss_prob: 0.0,
            qlen: 0,
            drops: 0,
            marks: 0,
            fault_drops: 0,
            evictions: 0,
            gray_ctr: 0,
            disc,
        });
        id
    }

    pub(crate) fn len(&self) -> usize {
        self.to_node.len()
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
    pub(crate) fn up(&self, ch: u32) -> bool {
        self.d(ch).up
    }

    pub(crate) fn set_up(&mut self, ch: u32, up: bool) {
        self.d_mut(ch).up = up;
    }

    #[inline]
    pub(crate) fn loss_prob(&self, ch: u32) -> f64 {
        self.d(ch).loss_prob
    }

    pub(crate) fn set_loss_prob(&mut self, ch: u32, p: f64) {
        self.d_mut(ch).loss_prob = p;
    }

    pub(crate) fn drops(&self, ch: u32) -> u64 {
        self.d(ch).drops
    }

    pub(crate) fn marks(&self, ch: u32) -> u64 {
        self.d(ch).marks
    }

    pub(crate) fn evictions(&self, ch: u32) -> u64 {
        self.d(ch).evictions
    }

    pub(crate) fn fault_drops(&self, ch: u32) -> u64 {
        self.d(ch).fault_drops
    }

    /// Counts a packet lost on channel `ch` to a fault, at the offer point
    /// or on arrival over a wire that died in flight.
    pub(crate) fn add_fault_drop(&mut self, ch: u32) {
        self.d_mut(ch).fault_drops += 1;
    }

    /// Bumps and returns the channel's gray-loss draw counter (at the
    /// offer point).
    pub(crate) fn gray_bump(&mut self, ch: u32) -> u64 {
        let d = self.d_mut(ch);
        d.gray_ctr += 1;
        d.gray_ctr
    }

    /// Serialization time for `bytes` on channel `ch`. MTU-sized packets
    /// and ACKs hit the precomputed cache; odd sizes (a flow's final
    /// packet) fall back to the same float expression the cache was
    /// filled from, so timing is bit-identical either way.
    #[inline]
    pub(crate) fn ser_ns(&self, ch: u32, bytes: u32) -> Ns {
        if bytes == self.mtu_bytes {
            self.ser_mtu_ns[ch as usize]
        } else if bytes == self.ack_bytes {
            self.ser_ack_ns[ch as usize]
        } else {
            (bytes as f64 / self.rate_bpns[ch as usize]).ceil() as Ns
        }
    }

    /// Offers packet `id` to channel `ch` while the engine processes the
    /// event with key `now`. On [`Offer::StartTx`] the caller owns the
    /// in-flight transmission (the id stays live); on [`Offer::Queued`]
    /// the discipline holds it (possibly evicting less urgent packets —
    /// those count into `drops` and are freed); on [`Offer::Dropped`] the
    /// id has been freed. The returned [`EnqueueOutcome`] carries the mark
    /// flag and eviction victims for the observability layer.
    ///
    /// A virtual TxFree whose key lies before `now` has already happened
    /// in the eager schedule, so the channel counts as idle.
    pub(crate) fn offer(
        &mut self,
        ch: u32,
        id: PktId,
        pool: &mut PacketArena,
        now: (Ns, u64),
    ) -> (Offer, EnqueueOutcome) {
        let d = self.d_mut(ch);
        if d.busy && !d.armed && (d.free_at, d.free_seq) < now {
            d.busy = false;
        }
        if !d.busy {
            d.busy = true;
            let out = EnqueueOutcome {
                accepted: true,
                ..Default::default()
            };
            return (Offer::StartTx, out);
        }
        let out = d.disc.enqueue(id, pool);
        d.qlen = d.qlen + out.accepted as u32 - out.evicted.len() as u32;
        d.drops += out.dropped as u64;
        d.evictions += out.evicted.len() as u64;
        if out.marked {
            d.marks += 1;
        }
        if out.accepted {
            (Offer::Queued, out)
        } else {
            pool.free(id);
            (Offer::Dropped, out)
        }
    }

    /// Records the TxFree key `(free_at, free_seq)` reserved for the
    /// transmission just started on `ch`. Returns whether packets are
    /// queued behind it, in which case the caller pushes the TxFree now;
    /// otherwise it stays virtual.
    pub(crate) fn begin_tx(&mut self, ch: u32, free_at: Ns, free_seq: u64) -> bool {
        let d = self.d_mut(ch);
        debug_assert!(d.busy);
        d.free_at = free_at;
        d.free_seq = free_seq;
        d.armed = d.qlen > 0;
        d.armed
    }

    /// Called after a packet queued on `ch`: if the transmitter's TxFree
    /// is still virtual, marks it armed and returns its reserved key for
    /// the caller to push.
    pub(crate) fn arm_tx_free(&mut self, ch: u32) -> Option<(Ns, u64)> {
        let d = self.d_mut(ch);
        debug_assert!(d.busy);
        if d.armed {
            return None;
        }
        d.armed = true;
        Some((d.free_at, d.free_seq))
    }

    /// Called when channel `ch`'s armed TxFree fires: dequeues the next
    /// packet to transmit (the caller starts it). A TxFree is armed only
    /// behind a queued packet, so one is there — unless a discipline's
    /// enqueue evicted the whole queue and still refused the newcomer
    /// (the built-in ones cannot: an empty queue admits any packet up to
    /// the MTU); the channel then goes idle, as in the eager schedule.
    pub(crate) fn tx_done(&mut self, ch: u32) -> Option<PktId> {
        let d = self.d_mut(ch);
        debug_assert!(d.busy && d.armed);
        d.armed = false;
        if d.qlen == 0 {
            d.busy = false;
            return None;
        }
        d.qlen -= 1;
        let id = d.disc.dequeue();
        debug_assert!(id.is_some(), "qlen said non-empty but dequeue had nothing");
        id
    }

    pub(crate) fn queue_bytes(&self, ch: u32) -> u64 {
        self.d(ch).disc.queue_bytes()
    }

    pub(crate) fn queue_len(&self, ch: u32) -> usize {
        let d = self.d(ch);
        debug_assert_eq!(d.qlen as usize, d.disc.queue_len());
        d.qlen as usize
    }

    // --- whole-table sums (stats) ---

    pub(crate) fn sum_drops(&self) -> u64 {
        (0..self.len() as u32).map(|c| self.drops(c)).sum()
    }

    pub(crate) fn sum_evictions(&self) -> u64 {
        (0..self.len() as u32).map(|c| self.evictions(c)).sum()
    }

    pub(crate) fn sum_fault_drops(&self) -> u64 {
        (0..self.len() as u32).map(|c| self.fault_drops(c)).sum()
    }

    pub(crate) fn sum_marks(&self) -> u64 {
        (0..self.len() as u32).map(|c| self.marks(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathId;
    use crate::switch::TailDropEcn;
    use crate::types::Packet;

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

    /// Offers at the start of time, arming the TxFree when the packet
    /// queues, as the engine does.
    fn offer(c: &mut Channels, id: PktId, a: &mut PacketArena) -> (Offer, EnqueueOutcome) {
        let (o, out) = c.offer(0, id, a, (0, 0));
        match o {
            Offer::StartTx => assert!(!c.begin_tx(0, 1_200, 1)),
            Offer::Queued => {
                c.arm_tx_free(0);
            }
            Offer::Dropped => {}
        }
        (o, out)
    }

    /// Fires the armed TxFree and starts the dequeued packet.
    fn tx_done(c: &mut Channels) -> Option<PktId> {
        let id = c.tx_done(0);
        if id.is_some() {
            c.begin_tx(0, 2_400, 2);
        }
        id
    }

    fn chan() -> Channels {
        // 10 Gbps, 100ns prop, 10-packet queue, ECN at 3 packets.
        let mut c = Channels::new(1500, 40, 1);
        c.push(
            1,
            10.0,
            100,
            AnyQueue::TailDropEcn(TailDropEcn::new(10 * 1500, 3 * 1500)),
        );
        c
    }

    #[test]
    fn idle_channel_starts_tx() {
        let mut a = PacketArena::new();
        let mut c = chan();
        let p = pkt(&mut a, 1500);
        let (o, _) = offer(&mut c, p, &mut a);
        assert_eq!(o, Offer::StartTx);
        assert!(c.state[0].busy);
        assert_eq!(a.live_count(), 1, "StartTx leaves the id live");
    }

    #[test]
    fn busy_channel_queues_then_drains_fifo() {
        let mut a = PacketArena::new();
        let mut c = chan();
        let head = pkt(&mut a, 1500);
        offer(&mut c, head, &mut a);
        let q1 = pkt(&mut a, 100);
        a.get_mut(q1).seq = 1;
        let q2 = pkt(&mut a, 100);
        a.get_mut(q2).seq = 2;
        assert_eq!(offer(&mut c, q1, &mut a).0, Offer::Queued);
        assert_eq!(offer(&mut c, q2, &mut a).0, Offer::Queued);
        assert_eq!(c.queue_len(0), 2);
        let n1 = tx_done(&mut c).unwrap();
        assert_eq!(a.get(n1).seq, 1);
        let n2 = tx_done(&mut c).unwrap();
        assert_eq!(a.get(n2).seq, 2);
        // Nothing queued behind the last packet: its TxFree stays virtual.
        let d = &c.state[0];
        assert_eq!((d.free_at, d.free_seq, d.armed), (2_400, 2, false));
        assert!(d.busy);
    }

    #[test]
    fn virtual_tx_free_ends_the_transmission_at_its_key() {
        let mut a = PacketArena::new();
        let mut c = chan();
        let head = pkt(&mut a, 1500);
        assert_eq!(c.offer(0, head, &mut a, (0, 0)).0, Offer::StartTx);
        assert!(
            !c.begin_tx(0, 1_200, 7),
            "nothing queued: TxFree stays virtual"
        );
        // Same `t`, smaller seq: the eager TxFree has not popped yet.
        let p = pkt(&mut a, 100);
        assert_eq!(c.offer(0, p, &mut a, (1_200, 6)).0, Offer::Queued);
        assert_eq!(c.arm_tx_free(0), Some((1_200, 7)), "first packet arms it");
        assert_eq!(c.arm_tx_free(0), None, "armed once");
        let next = c.tx_done(0).unwrap();
        assert!(!c.begin_tx(0, 1_300, 9), "queue drained behind it");
        a.free(next);
        // Past the key: the virtual TxFree already freed the channel.
        let p = pkt(&mut a, 100);
        assert_eq!(c.offer(0, p, &mut a, (1_300, 10)).0, Offer::StartTx);
    }

    #[test]
    fn tail_drop_when_full_frees_the_id() {
        let mut a = PacketArena::new();
        let mut c = chan();
        offer(&mut c, pkt(&mut a, 1500), &mut a); // in flight
        for _ in 0..10 {
            let p = pkt(&mut a, 1500);
            assert_eq!(offer(&mut c, p, &mut a).0, Offer::Queued);
        }
        let live = a.live_count();
        let p = pkt(&mut a, 1500);
        assert_eq!(offer(&mut c, p, &mut a).0, Offer::Dropped);
        assert_eq!(c.drops(0), 1);
        assert_eq!(a.live_count(), live, "dropped packet must be freed");
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let mut a = PacketArena::new();
        let mut c = chan();
        offer(&mut c, pkt(&mut a, 1500), &mut a); // in flight, queue empty
        offer(&mut c, pkt(&mut a, 1500), &mut a); // queue -> 1500
        offer(&mut c, pkt(&mut a, 1500), &mut a); // queue -> 3000
        offer(&mut c, pkt(&mut a, 1500), &mut a); // queue -> 4500 (at 3000 < 4500 thresh)
        assert_eq!(c.marks(0), 0);
        offer(&mut c, pkt(&mut a, 1500), &mut a); // enqueued seeing 4500 >= 4500 → marked
        assert_eq!(c.marks(0), 1);
        // Drain: the marked packet is the last one.
        tx_done(&mut c);
        tx_done(&mut c);
        tx_done(&mut c);
        let marked = tx_done(&mut c).unwrap();
        assert!(a.get(marked).ecn_ce);
    }

    #[test]
    fn acks_never_marked() {
        let mut a = PacketArena::new();
        let mut c = chan();
        offer(&mut c, pkt(&mut a, 1500), &mut a); // in flight
        for _ in 0..3 {
            offer(&mut c, pkt(&mut a, 1500), &mut a); // queue reaches the 4500 B threshold
        }
        assert_eq!(c.marks(0), 0);
        let ack = pkt(&mut a, 40);
        a.get_mut(ack).is_ack = true;
        offer(&mut c, ack, &mut a); // sees queue ≥ threshold but is an ACK
        assert_eq!(c.marks(0), 0);
        offer(&mut c, pkt(&mut a, 1500), &mut a); // a data packet here *is* marked
        assert_eq!(c.marks(0), 1);
    }

    #[test]
    fn serialization_uses_channel_rate_and_cache() {
        let mut c = Channels::new(1500, 40, 1);
        c.push(0, 40.0, 0, AnyQueue::TailDropEcn(TailDropEcn::new(1, 1)));
        assert_eq!(c.ser_ns(0, 1500), 300); // cached MTU path, 4x faster than 10G
        assert_eq!(c.ser_ns(0, 40), 8); // cached ACK path
        assert_eq!(c.ser_ns(0, 777), 156); // uncached fallback: ceil(777/5)
    }

    #[test]
    fn eviction_counts_as_channel_drop() {
        use crate::switch::PFabricQueue;
        let mut a = PacketArena::new();
        let mut c = Channels::new(1500, 40, 1);
        c.push(1, 10.0, 100, AnyQueue::PFabric(PFabricQueue::new(2 * 1500)));
        offer(&mut c, pkt(&mut a, 1500), &mut a); // in flight
        let low = pkt(&mut a, 1500);
        a.get_mut(low).prio = 9;
        offer(&mut c, low, &mut a);
        offer(&mut c, pkt(&mut a, 1500), &mut a);
        let urgent = pkt(&mut a, 1500);
        a.get_mut(urgent).prio = 1;
        a.get_mut(urgent).seq = 7;
        let live = a.live_count();
        let (o, out) = offer(&mut c, urgent, &mut a);
        assert_eq!(o, Offer::Queued, "urgent packet must win");
        assert_eq!(c.drops(0), 1, "the prio-9 victim is a congestion drop");
        assert_eq!(c.evictions(0), 1, "and is attributed to eviction");
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(a.live_count(), live - 1, "the victim's id must be freed");
    }
}
