//! Versioned, fingerprinted snapshots of complete simulator state.
//!
//! [`Simulator::checkpoint`] captures everything the run depends on — the
//! event queue, per-flow transport state (sender and receiver
//! halves), switch queues, fault-controller state, the control-plane
//! schedule, observability cursors, and the intrinsic counters — into a
//! self-validating byte image. [`Simulator::restore`] rebuilds a simulator
//! from it that continues the run **byte-identically**: flow records,
//! JSONL traces, and telemetry streams from a checkpoint/restore cycle are
//! exactly those of the uninterrupted run, for every transport and with
//! fault plans active. The `dcnrun` supervisor leans on this to resume
//! crashed or killed jobs from their last good checkpoint.
//!
//! Checkpoints are taken outside [`Simulator::run`]/`run_until`, so the
//! calendar and the channel queues are the whole event state.
//!
//! Wire format (all integers little-endian):
//!
//! ```text
//! magic "DCNCKPT1" | version u32 | topo fingerprint u64 | cfg fingerprint u64
//! | now u64 | events_processed u64 | payload ... | FNV-1a of all prior bytes
//! ```
//!
//! The payload is a fixed sequence of sections — scalars, calendar,
//! flows, channels, faults, control schedule, goodput and routing view,
//! tracer and telemetry snapshots — written by `put` calls of the `Codec`
//! trait in [`Simulator::checkpoint`] and read back by the matching `get`
//! calls in [`Simulator::restore`]. Structs list their fields once, in
//! wire order, in a `codec!` invocation; only the tagged enums, the
//! calendar entries (whose `Deliver` packets live in the arena), and
//! `Packet` are written by hand. A route ([`crate::path::PathId`])
//! travels as its channel list and is re-interned on restore. All
//! wire-order knowledge is in this file.
//!
//! The topology fingerprint is [`Topology::fingerprint`]; the config
//! fingerprint hashes every behavior-relevant [`SimConfig`] field (floats
//! via `to_bits`) and the engine's [`SCHEDULE_VERSION`]. Restore refuses
//! images whose fingerprints do not match the topology and config it is
//! given, and any truncation or bit flip fails the trailing checksum in
//! [`Checkpoint::from_bytes`] before any state is trusted.
//!
//! Not checkpointable (checkpoint returns `Err`, nothing is written):
//! oracle routing (its selector is deliberately not rebuilt on restore),
//! tracers and telemetry over arbitrary in-memory sinks, and a
//! reordering port's queue discipline whose
//! [`QueueDiscipline::snapshot_queue`](crate::switch::QueueDiscipline)
//! returns `None` (both built-in ones always snapshot; a FIFO port's
//! queue travels in its packets' `Deliver` entries instead).

use crate::calendar::{CalEntry, CalendarQueue};
use crate::channel::{ChanFault, Channels};
use crate::counters::EventCounts;
use crate::engine::{CtrlEntry, CtrlEv, Ev, Simulator, SCHEDULE_VERSION};
use crate::fault::{
    survivor_topology_from, FaultController, FaultEvent, FaultKind, RemappedSelector,
};
use crate::host::{Flow, FlowRx};
use crate::path::{PathId, PathTable, MAX_PATH_CHANNELS};
use crate::slab::{PacketArena, PktId};
use crate::stats::{ChannelCounters, DropCounters, TraceCounters};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use crate::trace::TracerSnapshot;
use crate::types::{Ns, Packet, SimConfig};
use dcn_rng::Fnv1a;
use dcn_routing::PathSelector;
use dcn_topology::Topology;

const MAGIC: &[u8; 8] = b"DCNCKPT1";
/// v7: no reserved keys — the control schedule's `seq`s, the busy flag
/// and the scatter-fallback counter are gone, RTO deadlines are times,
/// and the calendar is written in pop order (v6 added the departure
/// clock).
pub const VERSION: u32 = 7;
/// magic + version + topo fp + cfg fp + now + events_processed.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

/// Fingerprint of every behavior-relevant [`SimConfig`] field plus the
/// engine's [`SCHEDULE_VERSION`], so a checkpoint can only be restored —
/// and a cached result only reused — under the exact configuration *and
/// event order* that produced it.
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    fingerprint_at(cfg, SCHEDULE_VERSION)
}

fn fingerprint_at(cfg: &SimConfig, schedule_version: u32) -> u64 {
    // Destructured, so a new config field does not compile until it is
    // fingerprinted here.
    let SimConfig {
        link_gbps,
        server_link_gbps,
        prop_delay_ns,
        queue_pkts,
        ecn_k_pkts,
        flowlet_gap_ns,
        mtu,
        mss,
        ack_bytes,
        init_cwnd_pkts,
        min_rto_ns,
        dctcp_g,
        host_queue_pkts,
        transport,
        queue_disc,
        pfabric_cwnd_pkts,
        reconverge_delay_ns,
        max_events,
    } = *cfg;
    let no_paths = PathTable::default();
    let mut e = Enc::new(Vec::new(), &no_paths);
    e.put(&(schedule_version, link_gbps, server_link_gbps, prop_delay_ns))
        .put(&(queue_pkts, ecn_k_pkts, flowlet_gap_ns, mtu, mss, ack_bytes))
        .put(&(init_cwnd_pkts, min_rto_ns, dctcp_g, host_queue_pkts))
        .put(&(transport.name().to_string(), queue_disc.name().to_string()))
        .put(&(pfabric_cwnd_pkts, reconverge_delay_ns, max_events));
    Fnv1a::hash(&e.out)
}

// ---- the codec ----

/// An image under construction. Routes are written as their channel
/// lists, looked up in the run's path table.
struct Enc<'p> {
    out: Vec<u8>,
    paths: &'p PathTable,
}

impl<'p> Enc<'p> {
    fn new(out: Vec<u8>, paths: &'p PathTable) -> Self {
        Enc { out, paths }
    }

    fn put<T: Codec>(&mut self, v: &T) -> &mut Self {
        v.put(self);
        self
    }
}

/// A cursor over an image's payload. Routes read back are checked against
/// the fabric's `channels` and interned into the restored path table.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    paths: &'a mut PathTable,
    channels: usize,
}

impl<'a> Dec<'a> {
    fn get<T: Codec>(&mut self) -> Result<T, String> {
        T::get(self)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let s = (self.buf.get(self.pos..self.pos + n)).ok_or("checkpoint truncated")?;
        self.pos += n;
        Ok(s)
    }

    /// Length prefix, sanity-capped so corrupt lengths fail instead of
    /// attempting enormous allocations.
    fn len(&mut self) -> Result<usize, String> {
        let n: usize = self.get()?;
        if n > self.buf.len() - self.pos {
            return Err("checkpoint corrupt: length exceeds remaining bytes".into());
        }
        Ok(n)
    }
}

/// A value's wire form: `put` appends it, `get` reads it back. `get` is
/// where damaged bytes are caught, so it checks everything it reads and
/// never panics.
trait Codec: Sized {
    fn put(&self, e: &mut Enc);
    fn get(d: &mut Dec) -> Result<Self, String>;
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn put(&self, e: &mut Enc) {
                e.out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec) -> Result<Self, String> {
                let b = d.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("take returns n bytes")))
            }
        }
    )*};
}
int_codec!(u8, u16, u32, u64);

/// Counts and cursors travel as `u64`.
impl Codec for usize {
    fn put(&self, e: &mut Enc) {
        (*self as u64).put(e);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok(d.get::<u64>()? as usize)
    }
}

/// The bit pattern, so every float restores exactly.
impl Codec for f64 {
    fn put(&self, e: &mut Enc) {
        self.to_bits().put(e);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok(f64::from_bits(d.get()?))
    }
}

/// One byte, strictly 0 or 1.
impl Codec for bool {
    fn put(&self, e: &mut Enc) {
        (*self as u8).put(e);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        match d.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("checkpoint corrupt: bad bool byte {b}")),
        }
    }
}

/// Length-prefixed UTF-8.
impl Codec for String {
    fn put(&self, e: &mut Enc) {
        self.len().put(e);
        e.out.extend_from_slice(self.as_bytes());
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        let n = d.len()?;
        String::from_utf8(d.take(n)?.to_vec())
            .map_err(|_| "checkpoint corrupt: invalid utf-8 string".into())
    }
}

/// Length-prefixed elements.
impl<T: Codec> Codec for Vec<T> {
    fn put(&self, e: &mut Enc) {
        self.len().put(e);
        for v in self {
            v.put(e);
        }
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        let n = d.len()?;
        (0..n).map(|_| d.get()).collect()
    }
}

/// A presence flag, then the value.
impl<T: Codec> Codec for Option<T> {
    fn put(&self, e: &mut Enc) {
        self.is_some().put(e);
        if let Some(v) = self {
            v.put(e);
        }
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok(if d.get()? { Some(d.get()?) } else { None })
    }
}

/// A route travels as its length-prefixed channel list, so images do not
/// depend on the order a run interned its routes in; restore re-interns
/// it. An empty or over-long list is refused.
impl Codec for PathId {
    fn put(&self, e: &mut Enc) {
        let chans = e.paths.channels(*self);
        chans.len().put(e);
        for c in chans {
            c.put(e);
        }
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        let chans: Vec<u32> = d.get()?;
        if chans.is_empty() || chans.len() > MAX_PATH_CHANNELS {
            return Err(format!(
                "checkpoint corrupt: a path of {} channels",
                chans.len()
            ));
        }
        if let Some(c) = chans.iter().find(|&&c| c as usize >= d.channels) {
            return Err(format!("checkpoint corrupt: a path through channel {c}"));
        }
        Ok(d.paths.intern(&chans))
    }
}

/// Tuples of 2 to 11 elements, in order.
macro_rules! tuple_codec {
    ($a:ident) => {};
    ($a:ident $($rest:ident)+) => {
        impl<$a: Codec, $($rest: Codec),+> Codec for ($a, $($rest),+) {
            fn put(&self, e: &mut Enc) {
                #[allow(non_snake_case)]
                let ($a, $($rest),+) = self;
                $a.put(e);
                $($rest.put(e);)+
            }
            fn get(d: &mut Dec) -> Result<Self, String> {
                Ok((d.get()?, $(d.get::<$rest>()?),+))
            }
        }
        tuple_codec!($($rest)+);
    };
}
tuple_codec!(A B C D E F G H I J K);

/// Implements [`Codec`] for a struct from one list of its fields, in wire
/// order. `get` builds a struct literal, so a field missing from the list
/// fails to compile.
macro_rules! codec {
    ($ty:ident { $($f:ident),* $(,)? }) => {
        impl Codec for $ty {
            fn put(&self, e: &mut Enc) {
                $(self.$f.put(e);)*
            }
            fn get(d: &mut Dec) -> Result<Self, String> {
                Ok($ty {
                    $($f: d.get()?,)*
                })
            }
        }
    };
}

/// Field by field in declaration order; `hop` keeps its `u16` wire width
/// and must index a channel of the packet's route.
impl Codec for Packet {
    fn put(&self, e: &mut Enc) {
        e.put(&(self.flow, self.seq, self.bytes, self.ecn_ce, self.is_ack))
            .put(&(self.ack_ecn, self.ts, self.hop as u16, self.prio, self.path));
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        let (flow, seq, bytes, ecn_ce, is_ack) = d.get()?;
        let (ack_ecn, ts, hop, prio, path): (bool, Ns, u16, u32, PathId) = d.get()?;
        if hop as usize >= d.paths.channels(path).len() {
            return Err(format!("checkpoint corrupt: hop {hop} past the path's end"));
        }
        Ok(Packet {
            flow,
            seq,
            bytes,
            ecn_ce,
            is_ack,
            ack_ecn,
            ts,
            hop: hop as u8,
            prio,
            path,
        })
    }
}
// The sender half; the receiver half is a separate `FlowRx` record.
codec! { Flow {
    src_server, dst_server, src_tor, dst_tor, size_bytes, start_ns, total_pkts, next_seq,
    acked, cwnd, ssthresh, alpha, ecn_acked, ecn_total, window_acked, window_end,
    cwnd_cut_this_window, dupacks, in_recovery, recover, srtt, rto_backoff, rto_deadline,
    rto_live, last_send_ns, flowlet_count, cur_path, in_window, failed, fault_hit_ns,
    recovery_ns, path_salt,
} }
codec! { FlowRx {
    total_pkts, dst_server, start_ns, in_window, rcv_bitmap, rcv_cum, finished_ns, failed
} }
codec! { EventCounts { flow_start, tx_free, deliver, rto_fired, rto_stale } }
codec! { CtrlEntry { t, ev } }
codec! { FaultEvent { at_ns, kind } }
// Pure counters and masks: the gray-loss draw state lives in the
// channels' counters.
codec! { FaultController { events, pending, epoch, down_links, down_sw, noroute_drops } }
codec! { DropCounters { congestion, eviction, fault, noroute } }
codec! { ChannelCounters {
    enqueues, dequeues, hwm_pkts, hwm_bytes, marks, drops_congestion, drops_eviction,
    drops_fault,
} }
codec! { TraceCounters {
    sent_data, sent_acks, delivered_data, delivered_acks, drops, marks, rtos,
    flowlet_switches, path_reselects, fault_transitions, flows_started, flows_finished,
    flows_failed, per_channel,
} }
codec! { TelemetrySnapshot { every_ns, path, samples, bytes, tx_bytes, tx_total } }
codec! { ChanFault { up, loss_prob, gray_ctr, drops } }

impl Codec for CtrlEv {
    fn put(&self, e: &mut Enc) {
        match *self {
            CtrlEv::Fault(i) => e.put(&(0u8, i)),
            CtrlEv::Reconverge(epoch) => e.put(&(1u8, epoch)),
        };
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok(match d.get::<u8>()? {
            0 => CtrlEv::Fault(d.get()?),
            1 => CtrlEv::Reconverge(d.get()?),
            t => return Err(format!("checkpoint corrupt: unknown control tag {t}")),
        })
    }
}

impl Codec for FaultKind {
    fn put(&self, e: &mut Enc) {
        match *self {
            FaultKind::LinkDown(l) => e.put(&(0u8, l)),
            FaultKind::LinkUp(l) => e.put(&(1u8, l)),
            FaultKind::SwitchDown(n) => e.put(&(2u8, n)),
            FaultKind::SwitchUp(n) => e.put(&(3u8, n)),
            FaultKind::LinkGray(l, p) => e.put(&(4u8, l, p)),
            FaultKind::LinkClear(l) => e.put(&(5u8, l)),
        };
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok(match d.get::<u8>()? {
            0 => FaultKind::LinkDown(d.get()?),
            1 => FaultKind::LinkUp(d.get()?),
            2 => FaultKind::SwitchDown(d.get()?),
            3 => FaultKind::SwitchUp(d.get()?),
            4 => FaultKind::LinkGray(d.get()?, d.get()?),
            5 => FaultKind::LinkClear(d.get()?),
            t => return Err(format!("checkpoint corrupt: unknown fault tag {t}")),
        })
    }
}

impl Codec for TracerSnapshot {
    fn put(&self, e: &mut Enc) {
        match self {
            TracerSnapshot::Nop => e.put(&0u8),
            TracerSnapshot::Counting {
                counters,
                last_t,
                time_regressions,
            } => e.put(&1u8).put(counters).put(&(*last_t, *time_regressions)),
            TracerSnapshot::JsonlFile { path, bytes, lines } => {
                e.put(&2u8).put(path).put(&(*bytes, *lines))
            }
        };
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok(match d.get::<u8>()? {
            0 => TracerSnapshot::Nop,
            1 => TracerSnapshot::Counting {
                counters: d.get()?,
                last_t: d.get()?,
                time_regressions: d.get()?,
            },
            2 => TracerSnapshot::JsonlFile {
                path: d.get()?,
                bytes: d.get()?,
                lines: d.get()?,
            },
            t => return Err(format!("checkpoint corrupt: unknown tracer tag {t}")),
        })
    }
}

/// One calendar entry. In-flight packets are serialized by value — the
/// wire format carries packets, not arena ids, so images are independent
/// of the arena's slot layout. A packet waiting at a FIFO port is written
/// here too, and only here.
fn put_entry(e: &mut Enc, c: &CalEntry, pkts: &PacketArena) {
    e.put(&(c.t, c.seq));
    match c.ev {
        Ev::FlowStart(f) => e.put(&(0u8, f)),
        Ev::TxFree(ch) => e.put(&(1u8, ch)),
        Ev::Deliver(id) => e.put(&2u8).put(pkts.get(id)),
        Ev::Rto(f) => e.put(&(3u8, f)),
    };
}

/// A decoded calendar entry; a `Deliver`'s packet gets its arena slot
/// once the channels are known (see [`Simulator::restore`]).
enum Pending {
    Ev(Ev),
    Deliver(Packet),
}

fn get_entry(d: &mut Dec) -> Result<(Ns, u64, Pending), String> {
    let (t, seq) = d.get()?;
    let ev = match d.get::<u8>()? {
        0 => Pending::Ev(Ev::FlowStart(d.get()?)),
        1 => Pending::Ev(Ev::TxFree(d.get()?)),
        2 => Pending::Deliver(d.get()?),
        3 => Pending::Ev(Ev::Rto(d.get()?)),
        t => return Err(format!("checkpoint corrupt: unknown event tag {t}")),
    };
    Ok((t, seq, ev))
}

/// Gives every decoded `Deliver` packet its arena slot. On a FIFO port
/// the waiting packets are the ones whose transmission ends after the
/// one in progress (`cur_end`), in the order their Deliveries fall;
/// [`Channels::restore_queue`] re-queues them, and their Deliver
/// entries take the ids it allocates. Every other packet is on a wire
/// and gets a fresh slot.
fn place_deliveries(
    pending: Vec<(Ns, u64, Pending)>,
    paths: &PathTable,
    chs: &mut Channels,
    pkts: &mut PacketArena,
) -> Result<Vec<CalEntry>, String> {
    // (channel, Deliver time, index into `pending`) of each waiting packet.
    let mut waiting = Vec::new();
    for (i, (t, _, ev)) in pending.iter().enumerate() {
        if let Pending::Deliver(p) = ev {
            let ch = paths.hop(p.path, p.hop);
            let c = &chs.state[ch as usize];
            let departs = c.cur_end.saturating_add(chs.prop_ns(ch));
            if chs.fifo && c.qlen > 0 && *t > departs {
                waiting.push((ch, *t, i));
            }
        }
    }
    waiting.sort_unstable();
    let mut ids: Vec<Option<PktId>> = vec![None; pending.len()];
    for run in waiting.chunk_by(|a, b| a.0 == b.0) {
        let ch = run[0].0;
        let queue: Vec<Packet> = run
            .iter()
            .map(|&(_, _, i)| match pending[i].2 {
                Pending::Deliver(p) => p,
                Pending::Ev(_) => unreachable!("only deliveries wait"),
            })
            .collect();
        // Each waiting packet's Deliver falls one serialization time
        // after the one ahead of it, and the last ends at `tx_end`.
        let (prop, mut end) = (chs.prop_ns(ch), chs.state[ch as usize].cur_end);
        let on_clock = (run.iter().zip(&queue)).all(|(&(_, t, _), p)| {
            end = end.saturating_add(chs.ser_ns(ch, p.bytes));
            t == end.saturating_add(prop)
        });
        if !on_clock || end != chs.state[ch as usize].tx_end {
            return Err(format!("checkpoint corrupt: channel {ch} off its clock"));
        }
        // Restore only allocates, so the discipline's allocations take
        // the next slots in order.
        let base = pkts.live_count() as PktId;
        chs.restore_queue(ch, queue.clone(), pkts);
        let in_order = pkts.live_count() == base as usize + queue.len()
            && (queue.iter().enumerate()).all(|(k, p)| pkts.get(base + k as PktId) == p);
        if !in_order {
            return Err("a FIFO discipline's restore_queue must allocate in queue order".into());
        }
        for (k, &(_, _, i)) in run.iter().enumerate() {
            ids[i] = Some(base + k as PktId);
        }
    }
    Ok(pending
        .into_iter()
        .zip(ids)
        .map(|((t, seq, ev), id)| {
            let ev = match ev {
                Pending::Ev(ev) => ev,
                Pending::Deliver(p) => Ev::Deliver(id.unwrap_or_else(|| pkts.alloc(p))),
            };
            CalEntry { t, seq, ev }
        })
        .collect())
}

/// Checks every id the restored state names against the table it
/// indexes, and the invariants the engine indexes or subtracts by (see
/// DESIGN.md "Crash safety & checkpointing"): a damaged image that passed
/// the decoder is refused here rather than panicking the run.
fn check_restored(sim: &Simulator) -> Result<(), String> {
    let (chs, flows, now) = (&sim.fabric.channels, &sim.flows, sim.now);
    let (servers, switches) = (sim.fabric.num_servers() as u32, sim.fabric.num_switches);
    let flow_ok = |(f, rx): (&Flow, &FlowRx)| {
        let n = f.total_pkts;
        f.src_server.max(f.dst_server) < servers
            && f.src_tor.max(f.dst_tor) < switches
            && (rx.dst_server, rx.start_ns, rx.total_pkts, rx.in_window)
                == (f.dst_server, f.start_ns, n, f.in_window)
            && f.size_bytes.div_ceil(sim.cfg.mss as u64).max(1) == n as u64
            && f.acked <= f.next_seq
            && f.next_seq.max(rx.rcv_cum) <= n
            && [0, (n as usize).div_ceil(64)].contains(&rx.rcv_bitmap.len())
            && f.last_send_ns <= now
            && (rx.finished_ns).is_none_or(|t| (f.start_ns..=now).contains(&t))
            && (f.recovery_ns).is_none_or(|t| f.fault_hit_ns.is_some_and(|h| h <= t && t <= now))
    };
    // A data packet's sequence number is below its flow's count; an
    // ACK's cumulative point may equal it.
    let pkt_ok = |p: &Packet| {
        let fits = |f: &Flow| (p.seq as u64) < f.total_pkts as u64 + p.is_ack as u64;
        p.ts <= now && flows.get(p.flow as usize).is_some_and(fits)
    };
    let mut ok = flows.iter().zip(&sim.rx).all(flow_ok);
    let mut frees = vec![None; chs.len()];
    for e in sim.queue.iter() {
        ok &= match e.ev {
            Ev::FlowStart(f) | Ev::Rto(f) => (f as usize) < flows.len(),
            Ev::Deliver(id) => pkt_ok(sim.pkts.get(id)),
            Ev::TxFree(ch) => {
                let slot = frees.get_mut(ch as usize);
                !chs.fifo && slot.is_some_and(|s| s.replace(e.t).is_none())
            }
        };
    }
    for (i, c) in chs.state.iter().enumerate() {
        let q = chs.snapshot_queue(i as u32, &sim.pkts).unwrap_or_default();
        ok &= q.len() == c.qlen as usize
            && (q.iter()).all(|p| pkt_ok(p) && sim.paths.hop(p.path, p.hop) as usize == i)
            && match chs.fifo {
                true => !c.armed && (c.qlen > 0 || c.tx_end == c.cur_end),
                false => frees[i] == c.armed.then_some(c.cur_end) && (c.armed || c.qlen == 0),
            };
    }
    // Every fault still to fire has one control entry, naming the plan.
    let (faults, mut to_fire) = (&sim.faults, 0);
    for c in &sim.ctrl {
        if let CtrlEv::Fault(i) = c.ev {
            ok &= (i as usize) < faults.events.len();
            to_fire += 1;
        }
    }
    ok &= faults.pending == to_fire
        && (faults.events.iter()).all(|e| match e.kind {
            FaultKind::SwitchDown(n) | FaultKind::SwitchUp(n) => n < faults.down_sw.len() as u32,
            k => k.target() < faults.down_links.len() as u32,
        });
    ok.then_some(())
        .ok_or_else(|| "checkpoint corrupt: a field out of range or out of step".into())
}

// ---- the checkpoint image ----

/// Header fields of a checkpoint, cheap to inspect without a restore —
/// `dcnrun` uses this for salvage reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointMeta {
    pub version: u32,
    pub topo_fingerprint: u64,
    pub cfg_fingerprint: u64,
    /// Simulated time at which the snapshot was taken.
    pub now: Ns,
    pub events_processed: u64,
}

/// A validated checkpoint image (see the module docs for the format).
#[derive(Clone)]
pub struct Checkpoint {
    data: Vec<u8>,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("bytes", &self.data.len())
            .field("meta", &self.meta())
            .finish()
    }
}

impl Checkpoint {
    /// Validates and adopts a serialized image: magic, version, and the
    /// trailing whole-image checksum must all hold.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, String> {
        if data.len() < HEADER_LEN + 8 {
            return Err("checkpoint truncated: shorter than header".into());
        }
        if &data[..8] != MAGIC {
            return Err("not a checkpoint: bad magic".into());
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            ));
        }
        let body = &data[..data.len() - 8];
        let want = u64::from_le_bytes(data[data.len() - 8..].try_into().unwrap());
        if Fnv1a::hash(body) != want {
            return Err("checkpoint corrupt: checksum mismatch".into());
        }
        Ok(Checkpoint { data })
    }

    /// The serialized image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Header fields, without decoding the payload.
    pub fn meta(&self) -> CheckpointMeta {
        let u = |at: usize| u64::from_le_bytes(self.data[at..at + 8].try_into().unwrap());
        CheckpointMeta {
            version: u32::from_le_bytes(self.data[8..12].try_into().unwrap()),
            topo_fingerprint: u(12),
            cfg_fingerprint: u(20),
            now: u(28),
            events_processed: u(36),
        }
    }

    /// Writes the image crash-safely: to `<path>.tmp`, fsynced, then
    /// renamed into place and the parent directory fsynced, so `path`
    /// only ever holds a complete image and a completed save survives
    /// power loss.
    ///
    /// Each step consults the installed I/O hook (see
    /// [`install_io_hook`]) under the sites `ckpt.save.write`,
    /// `ckpt.save.fsync`, and `ckpt.save.rename`, so the
    /// crash-consistency harness can fail or kill the process at every
    /// boundary and assert that resume is byte-identical.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        let tmp = format!("{path}.tmp");
        io_hook("ckpt.save.write")?;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&self.data)?;
        io_hook("ckpt.save.fsync")?;
        f.sync_all()?;
        io_hook("ckpt.save.rename")?;
        std::fs::rename(&tmp, path)?;
        // Durably record the rename in the directory entries, like
        // fsio::write_atomic does; without this a power loss can forget
        // the rename even though the image bytes themselves are durable.
        #[cfg(unix)]
        {
            let parent = match std::path::Path::new(path).parent() {
                Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
                _ => std::path::PathBuf::from("."),
            };
            std::fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    }

    /// Reads and validates an image from disk. Consults the installed
    /// I/O hook under the site `ckpt.load`.
    pub fn load(path: &str) -> Result<Self, String> {
        io_hook("ckpt.load").map_err(|e| format!("cannot read checkpoint {path}: {e}"))?;
        let data =
            std::fs::read(path).map_err(|e| format!("cannot read checkpoint {path}: {e}"))?;
        Self::from_bytes(data)
    }
}

/// Installable I/O fault hook for checkpoint persistence.
///
/// `dcn-sim` sits below `dcn-core` in the crate graph, so it cannot call
/// `dcn_core::failpoint` directly; instead the binaries install the
/// failpoint checker here once at startup (`jobs::worker_main` does).
/// Uninstalled, every site check is a single relaxed `OnceLock` read that
/// finds nothing — effectively free.
static IO_HOOK: std::sync::OnceLock<fn(&'static str) -> std::io::Result<()>> =
    std::sync::OnceLock::new();

/// Installs `hook` as the checkpoint I/O fault checker. The first
/// installation wins; later calls (e.g. in-process test harnesses
/// spinning up several workers) are no-ops, which is fine because every
/// caller installs the same function.
pub fn install_io_hook(hook: fn(&'static str) -> std::io::Result<()>) {
    let _ = IO_HOOK.set(hook);
}

fn io_hook(site: &'static str) -> std::io::Result<()> {
    match IO_HOOK.get() {
        Some(hook) => hook(site),
        None => Ok(()),
    }
}

impl Simulator {
    /// Snapshots the complete simulator state (see the module docs).
    ///
    /// Call outside [`Simulator::run`] and `run_until` (after a paused
    /// `run_until`, typically). Takes `&mut self` because file-backed
    /// observability sinks are flushed first, so their on-disk temporaries
    /// cover the cursors the snapshot records. Fails — without side
    /// effects on the run — when some installed component cannot be
    /// checkpointed.
    pub fn checkpoint(&mut self) -> Result<Checkpoint, String> {
        if self.oracle.is_some() {
            return Err("oracle routing cannot be checkpointed".into());
        }
        // The image holds each FIFO port's state at `now`: the packets
        // still waiting, and telemetry credited with every transmission
        // begun. Catching up early changes nothing the run later does.
        self.catch_up_all(self.now);
        let tracer = self
            .tracer
            .snapshot()
            .ok_or("installed tracer does not support checkpointing")?;
        let telemetry = (self.telemetry.as_ref())
            .map(|tel| {
                tel.snapshot()
                    .ok_or("installed telemetry sink does not support checkpointing")
            })
            .transpose()?;
        self.tracer.flush_output();
        if let Some(tel) = self.telemetry.as_mut() {
            tel.flush()
                .map_err(|e| format!("telemetry flush failed: {e}"))?;
        }

        let mut e = Enc::new(MAGIC.to_vec(), &self.paths);
        e.put(&VERSION)
            .put(&(self.topo.fingerprint(), config_fingerprint(&self.cfg)))
            .put(&(self.now, self.events_processed));
        // Scalars.
        e.put(&(self.window, self.window_remaining, self.pkts_sent))
            .put(&(self.pkts_delivered, self.telemetry_next))
            .put(&self.plan_seed);
        // The calendar: its counters, ring size, and cursor, then the
        // pending events in pop order — together enough for restore to
        // rebuild its partition, so the resumed queue pops, spills and
        // grows exactly like the original.
        let q = &self.queue;
        e.put(&(q.seq(), q.peak, q.ladder_spills))
            .put(&self.pkts.high_water())
            .put(&self.event_counts)
            .put(&(q.num_slots(), q.cursor(), q.len()));
        let mut pending: Vec<&CalEntry> = q.iter().collect();
        pending.sort_unstable_by_key(|c| (c.t, c.seq));
        for c in pending {
            put_entry(&mut e, c, &self.pkts);
        }
        // Flows: all sender halves, then all receiver halves.
        e.put(&self.flows);
        for rx in &self.rx {
            e.put(rx);
        }
        // Channels: transmitter and counters, then the queue — on a FIFO
        // port only its length, its packets being in the calendar above —
        // then the fault table.
        let chs = &self.fabric.channels;
        e.put(&chs.len());
        for (i, c) in chs.state.iter().enumerate() {
            e.put(&(c.cur_end, c.tx_end, c.armed)).put(&(
                chs.drops[i],
                chs.marks[i],
                chs.evictions[i],
            ));
            if chs.fifo {
                e.put(&c.qlen);
            } else {
                let queue = chs
                    .snapshot_queue(i as u32, &self.pkts)
                    .ok_or("a channel's queue discipline does not support checkpointing")?;
                e.put(&queue);
            }
        }
        e.put(&chs.faults);
        // The fault controller, then the control-plane schedule still to
        // run (fault firings and reconvergence completions).
        e.put(&self.faults);
        e.put(&self.ctrl[self.ctrl_pos..].to_vec());
        // Goodput timeline, routing view, observability cursors.
        e.put(&self.goodput_bins)
            .put(&self.routing_down)
            .put(&tracer)
            .put(&telemetry);

        let sum = Fnv1a::hash(&e.out);
        e.put(&sum);
        Ok(Checkpoint { data: e.out })
    }

    /// Rebuilds a simulator from a checkpoint taken on the same topology
    /// (`topo`), configuration (`cfg`), and routing scheme. `selector`
    /// must be the same *kind* of selector the original run used, built on
    /// the full topology — if faults had reconverged by checkpoint time,
    /// restore rebuilds it on the identical survivor view.
    ///
    /// The restored simulator continues byte-identically: driving it to
    /// the end produces the same flow records, trace lines, and telemetry
    /// samples the uninterrupted run would have.
    pub fn restore(
        topo: &Topology,
        selector: Box<dyn PathSelector>,
        cfg: SimConfig,
        ckpt: &Checkpoint,
    ) -> Result<Simulator, String> {
        let meta = ckpt.meta();
        for (what, got, want) in [
            ("topology", meta.topo_fingerprint, topo.fingerprint()),
            ("config", meta.cfg_fingerprint, config_fingerprint(&cfg)),
        ] {
            if got != want {
                return Err(format!(
                    "checkpoint {what} fingerprint {got:016x} does not match the given {what} ({want:016x})"
                ));
            }
        }

        // Decode straight into a fresh simulator, section by section.
        let mut sim = Simulator::new(topo, selector, cfg);
        sim.now = meta.now;
        sim.events_processed = meta.events_processed;
        let mut d = Dec {
            buf: &ckpt.data[HEADER_LEN..ckpt.data.len() - 8],
            pos: 0,
            paths: &mut sim.paths,
            channels: sim.fabric.channels.len(),
        };
        (sim.window, sim.window_remaining, sim.pkts_sent) = d.get()?;
        (sim.pkts_delivered, sim.telemetry_next) = d.get()?;
        sim.plan_seed = d.get()?;

        // The calendar; Deliver packets get their arena slots below.
        let (seq, peak, ladder_spills) = d.get()?;
        sim.pkts.set_high_water(d.get()?);
        sim.event_counts = d.get()?;
        let (num_slots, cursor) = d.get()?;
        let n = d.len()?;
        let pending = (0..n)
            .map(|_| get_entry(&mut d))
            .collect::<Result<Vec<_>, _>>()?;

        sim.flows = d.get()?;
        sim.rx = (0..sim.flows.len())
            .map(|_| d.get())
            .collect::<Result<_, _>>()?;

        let chs = &mut sim.fabric.channels;
        if d.len()? != chs.len() {
            return Err("checkpoint corrupt: channel count mismatch".into());
        }
        for i in 0..chs.len() {
            let c = &mut chs.state[i];
            (c.cur_end, c.tx_end, c.armed) = d.get()?;
            (chs.drops[i], chs.marks[i], chs.evictions[i]) = d.get()?;
            if chs.fifo {
                c.qlen = d.get()?;
            } else {
                let queue: Vec<Packet> = d.get()?;
                c.qlen = queue.len() as u32;
                chs.restore_queue(i as u32, queue, &mut sim.pkts);
            }
        }
        chs.faults = d.get()?;
        if !chs.faults.is_empty() && chs.faults.len() != chs.len() {
            return Err("checkpoint corrupt: fault table size mismatch".into());
        }
        let items = place_deliveries(pending, d.paths, chs, &mut sim.pkts)?;
        sim.queue = CalendarQueue::from_items(seq, peak, items, cursor, num_slots)
            .map_err(|e| format!("checkpoint corrupt: {e}"))?;
        sim.queue.ladder_spills = ladder_spills;

        let want = (sim.faults.down_links.len(), sim.faults.down_sw.len());
        sim.faults = d.get()?;
        sim.ctrl = d.get()?;
        sim.goodput_bins = d.get()?;
        sim.routing_down = d.get()?;
        let tracer: TracerSnapshot = d.get()?;
        let telemetry: Option<TelemetrySnapshot> = d.get()?;
        if d.pos != d.buf.len() {
            return Err("checkpoint corrupt: trailing payload bytes".into());
        }
        let fits = |dl: &[bool], ds: &[bool]| (dl.len(), ds.len()) == want;
        if !fits(&sim.faults.down_links, &sim.faults.down_sw)
            || matches!(&sim.routing_down, Some((dl, ds)) if !fits(dl, ds))
        {
            return Err("checkpoint corrupt: fault state size mismatch".into());
        }
        check_restored(&sim)?;

        // The selector must see the same survivor view the original's
        // last reconvergence built.
        if let Some((dl, ds)) = &sim.routing_down {
            let (survivor, map) = survivor_topology_from(topo, dl, ds);
            sim.selector = Box::new(RemappedSelector::new(sim.selector.rebuild(&survivor), map));
        }
        sim.set_tracer(tracer.resume()?);
        if let Some(snap) = &telemetry {
            let tel = Telemetry::resume_file(snap)
                .map_err(|e| format!("cannot resume telemetry file {}: {e}", snap.path))?;
            // Assign directly: set_telemetry would re-arm the deadline to
            // the first cadence boundary instead of the checkpointed one.
            sim.telemetry = Some(Box::new(tel));
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::trace::JsonlTracer;
    use crate::types::{MS, SEC};
    use dcn_routing::RoutingSuite;
    use dcn_topology::fattree::FatTree;
    use dcn_workloads::tm::Endpoint;
    use dcn_workloads::FlowEvent;

    fn flow(start_s: f64, src: (u32, u32), dst: (u32, u32), bytes: u64) -> FlowEvent {
        FlowEvent {
            start_s,
            src: Endpoint {
                rack: src.0,
                server: src.1,
            },
            dst: Endpoint {
                rack: dst.0,
                server: dst.1,
            },
            bytes,
        }
    }

    fn faulty_sim(t: &Topology) -> Simulator {
        faulty_sim_with(t, SimConfig::default())
    }

    fn faulty_sim_with(t: &Topology, cfg: SimConfig) -> Simulator {
        let suite = RoutingSuite::new(t);
        let mut sim = Simulator::new(t, Box::new(suite.ecmp()), cfg);
        sim.inject(&[
            flow(0.0, (0, 0), (12, 0), 8_000_000),
            flow(0.0005, (4, 1), (8, 1), 300_000),
            flow(0.001, (8, 0), (0, 1), 50_000),
        ]);
        let l = t.neighbors(0)[0].1;
        sim.set_fault_plan(&FaultPlan::new().with_seed(11).link_down(MS, l).link_gray(
            2 * MS,
            t.neighbors(12)[0].1,
            0.01,
        ));
        sim
    }

    #[test]
    fn roundtrip_preserves_flow_records() {
        let t = FatTree::full(4).build();
        let mut straight = faulty_sim(&t);
        let want = straight.run(10 * SEC);

        let mut sim = faulty_sim(&t);
        assert!(!sim.run_until(3 * MS), "run should pause mid-flight");
        let ckpt = sim.checkpoint().expect("checkpoint");
        let suite = RoutingSuite::new(&t);
        let mut resumed =
            Simulator::restore(&t, Box::new(suite.ecmp()), SimConfig::default(), &ckpt)
                .expect("restore");
        let got = resumed.run(10 * SEC);
        assert_eq!(got, want, "restored run diverged");
        assert_eq!(resumed.events_processed(), straight.events_processed());
        assert_eq!(straight.total_drops(), resumed.total_drops());
        assert_eq!(
            straight.goodput_timeline_ms(),
            resumed.goodput_timeline_ms()
        );
    }

    #[test]
    fn serialized_roundtrip_and_meta() {
        let t = FatTree::full(4).build();
        let mut sim = faulty_sim(&t);
        sim.run_until(2 * MS);
        let ckpt = sim.checkpoint().unwrap();
        let meta = ckpt.meta();
        assert_eq!(meta.version, 7);
        assert_eq!(meta.topo_fingerprint, t.fingerprint());
        assert_eq!(
            meta.cfg_fingerprint,
            config_fingerprint(&SimConfig::default())
        );
        assert_eq!(meta.now, 2 * MS);
        assert!(meta.events_processed > 0);
        let reparsed = Checkpoint::from_bytes(ckpt.as_bytes().to_vec()).unwrap();
        assert_eq!(reparsed.meta(), meta);
    }

    #[test]
    fn config_fingerprint_covers_the_schedule_version() {
        // An image or cached result produced under another event order
        // must never match, even for an identical config.
        let cfg = SimConfig::default();
        assert_eq!(
            config_fingerprint(&cfg),
            fingerprint_at(&cfg, SCHEDULE_VERSION)
        );
        assert_ne!(
            config_fingerprint(&cfg),
            fingerprint_at(&cfg, SCHEDULE_VERSION - 1)
        );
    }

    #[test]
    fn corruption_is_detected() {
        let t = FatTree::full(4).build();
        let mut sim = faulty_sim(&t);
        sim.run_until(2 * MS);
        let ckpt = sim.checkpoint().unwrap();
        let mut bytes = ckpt.as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = Checkpoint::from_bytes(bytes).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        let err = Checkpoint::from_bytes(b"DCNCKPT1".to_vec()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        let err = Checkpoint::from_bytes(vec![0u8; 64]).unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn restore_rejects_wrong_topology_and_config() {
        let t = FatTree::full(4).build();
        let mut sim = faulty_sim(&t);
        sim.run_until(2 * MS);
        let ckpt = sim.checkpoint().unwrap();

        let other = FatTree::full(6).build();
        let suite = RoutingSuite::new(&other);
        let err = Simulator::restore(&other, Box::new(suite.ecmp()), SimConfig::default(), &ckpt)
            .err()
            .expect("restore on wrong topology must fail");
        assert!(err.contains("topology fingerprint"), "{err}");

        let suite = RoutingSuite::new(&t);
        let other_cfg = SimConfig {
            queue_pkts: 7,
            ..Default::default()
        };
        let err = Simulator::restore(&t, Box::new(suite.ecmp()), other_cfg, &ckpt)
            .err()
            .expect("restore under wrong config must fail");
        assert!(err.contains("config fingerprint"), "{err}");
    }

    #[test]
    fn oracle_routing_refuses_checkpoint() {
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.enable_oracle_routing(&t, 4);
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 100_000)]);
        sim.run_until(0);
        let err = sim.checkpoint().unwrap_err();
        assert!(err.contains("oracle"), "{err}");
    }

    #[test]
    fn restore_keeps_a_grown_calendar_for_large_heaps() {
        // A checkpoint whose event population dwarfs the default calendar
        // sizing must restore into the ring the run had grown (not
        // degrade into an overloaded 1024-slot one) and still continue
        // byte-identically.
        let t = FatTree::full(4).build();
        let racks = t.tors_with_servers();
        let mk = || {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
            // ~80k flows spread over 8 simulated seconds: at t=0 the
            // calendar holds tens of thousands of FlowStarts, far beyond
            // MIN_SLOTS.
            let flows: Vec<FlowEvent> = (0..80_000usize)
                .map(|i| {
                    let src_rack = racks[i % racks.len()];
                    let dst_rack = racks[(i + 5) % racks.len()];
                    flow(
                        (i as f64) * 1e-4,
                        (src_rack, (i % 2) as u32),
                        (dst_rack, ((i / 2) % 2) as u32),
                        2_000,
                    )
                })
                .collect();
            sim.inject(&flows);
            sim
        };
        let mut straight = mk();
        let mut sim = mk();
        assert!(!sim.run_until(0), "population should still be pending");
        let ckpt = sim.checkpoint().expect("checkpoint");
        let suite = RoutingSuite::new(&t);
        let mut resumed =
            Simulator::restore(&t, Box::new(suite.ecmp()), SimConfig::default(), &ckpt)
                .expect("restore");
        let slots = resumed.queue.num_slots();
        assert!(
            slots > 1024,
            "the calendar must keep its grown ring, got {slots} slots"
        );
        straight.run_until(5 * MS);
        resumed.run_until(5 * MS);
        assert_eq!(straight.events_processed(), resumed.events_processed());
        assert_eq!(straight.records(), resumed.records());
        assert_eq!(straight.engine_counters(), resumed.engine_counters());
    }

    /// Runs [`faulty_sim_with`] traced, pausing every 50 µs until `pick`
    /// finds the state under test (a channel index), checkpoints there,
    /// and holds the restored run to the straight one byte for byte —
    /// flow records, the JSONL trace, and every engine counter. `recheck`
    /// sees the restored simulator and the picked channel.
    fn resume_matches_straight(
        cfg: SimConfig,
        leg: &str,
        pick: impl Fn(&mut Simulator) -> Option<usize>,
        recheck: impl Fn(&Simulator, usize),
    ) {
        let t = FatTree::full(4).build();
        let dir = std::env::temp_dir();
        let path = |run: &str| {
            dir.join(format!("ckpt_{leg}_{}_{run}.jsonl", std::process::id()))
                .to_string_lossy()
                .into_owned()
        };
        let traced = |run: &str| {
            let mut sim = faulty_sim_with(&t, cfg);
            sim.set_tracer(Box::new(JsonlTracer::create(&path(run)).unwrap()));
            sim
        };
        let mut straight = traced("straight");
        let want = straight.run(10 * SEC);

        let mut sim = traced("resumed");
        let mut pause = 0;
        let ch = loop {
            pause += 50_000;
            assert!(!sim.run_until(pause), "no pause point with the state");
            if let Some(ch) = pick(&mut sim) {
                break ch;
            }
        };
        let ckpt = sim.checkpoint().expect("checkpoint");
        drop(sim);
        let suite = RoutingSuite::new(&t);
        let mut resumed =
            Simulator::restore(&t, Box::new(suite.ecmp()), cfg, &ckpt).expect("restore");
        recheck(&resumed, ch);

        let got = resumed.run(10 * SEC);
        assert_eq!(got, want);
        assert_eq!(resumed.events_processed(), straight.events_processed());
        assert_eq!(resumed.engine_counters(), straight.engine_counters());
        let (a, b) = (path("straight"), path("resumed"));
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        let _ = (std::fs::remove_file(a), std::fs::remove_file(b));
    }

    /// Some flow's live RTO event sits short of a later deadline.
    fn deferred_rto(sim: &Simulator) -> bool {
        (sim.flows.iter()).any(|f| f.rto_live != 0 && f.rto_live < f.rto_deadline)
    }

    /// A reordering port paused mid-transmission with no TxFree pushed
    /// (nothing waits behind it), and a deferred RTO: both must survive
    /// the image.
    #[test]
    fn resume_with_virtual_tx_free_and_deferred_rto_is_byte_identical() {
        let virtual_tx_free = |sim: &Simulator, ch: usize| {
            let c = &sim.fabric.channels.state[ch];
            !c.armed && c.cur_end > sim.now
        };
        resume_matches_straight(
            SimConfig::default().with_pfabric(),
            "lazy",
            |sim| {
                let n = sim.fabric.channels.len();
                let ch = (0..n).find(|&ch| virtual_tx_free(sim, ch))?;
                deferred_rto(sim).then_some(ch)
            },
            |sim, ch| {
                assert!(virtual_tx_free(sim, ch));
                assert!(deferred_rto(sim));
            },
        );
    }

    /// A pause where some ports have never had a packet wait, and so hold
    /// no queue, while another has packets waiting: the image records the
    /// bare ports as empty, and the restored run holds a queue exactly
    /// where packets wait.
    #[test]
    fn resume_with_ports_that_never_queued_is_byte_identical() {
        for (cfg, leg) in [
            (SimConfig::default(), "bare_fifo"),
            (SimConfig::default().with_pfabric(), "bare_pfabric"),
        ] {
            resume_matches_straight(
                cfg,
                leg,
                |sim| {
                    sim.catch_up_all(sim.now);
                    let chs = &sim.fabric.channels;
                    let n = chs.len() as u32;
                    let bare = (0..n).any(|ch| !chs.has_queue(ch));
                    let ch = (0..n).find(|&ch| chs.queue_len(ch) > 0)?;
                    bare.then_some(ch as usize)
                },
                |sim, ch| {
                    let chs = &sim.fabric.channels;
                    assert!(chs.queue_len(ch as u32) > 0);
                    for ch in 0..chs.len() as u32 {
                        assert_eq!(chs.has_queue(ch), chs.queue_len(ch) > 0, "channel {ch}");
                    }
                },
            );
        }
    }

    /// A FIFO port paused with a deep queue, each waiting packet's
    /// Deliver already in the calendar: the image holds every packet
    /// once, and the restored queue and calendar share the arena slots.
    #[test]
    fn resume_with_deep_fifo_queues_and_pending_deliveries_is_byte_identical() {
        let delivers_on = |sim: &Simulator, ch: usize| {
            (sim.queue.iter())
                .filter(|e| match e.ev {
                    Ev::Deliver(id) => {
                        let p = sim.pkts.get(id);
                        sim.paths.hop(p.path, p.hop) as usize == ch
                    }
                    _ => false,
                })
                .count()
        };
        resume_matches_straight(
            SimConfig::default(),
            "fifo",
            |sim| {
                sim.catch_up_all(sim.now);
                let chs = &sim.fabric.channels;
                let ch = (0..chs.len()).find(|&ch| chs.queue_len(ch as u32) >= 8)?;
                deferred_rto(sim).then_some(ch)
            },
            |sim, ch| {
                let chs = &sim.fabric.channels;
                let qlen = chs.queue_len(ch as u32);
                assert!(qlen >= 8);
                assert!(delivers_on(sim, ch) > qlen, "waiting and on-wire packets");
                assert_eq!(sim.pkts.live_count() as u64, sim.packets_in_flight());
                assert!(deferred_rto(sim));
            },
        );
    }

    #[test]
    fn save_and_load_are_atomic_roundtrips() {
        let t = FatTree::full(4).build();
        let mut sim = faulty_sim(&t);
        sim.run_until(MS);
        let ckpt = sim.checkpoint().unwrap();
        let dir = std::env::temp_dir().join("dcn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.ckpt");
        let path = path.to_str().unwrap();
        ckpt.save(path).unwrap();
        let loaded = Checkpoint::load(path).unwrap();
        assert_eq!(loaded.as_bytes(), ckpt.as_bytes());
        assert!(Checkpoint::load("/nonexistent/x.ckpt").is_err());
        std::fs::remove_file(path).unwrap();
    }
}
