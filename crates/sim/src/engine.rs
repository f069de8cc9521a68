//! The engine layer: event queue, clock, and dispatch loop.
//!
//! [`Simulator`] owns the three lower layers and wires them together:
//!
//! - **time** — one [`CalendarQueue`] of `(t, seq)`-ordered events; the
//!   monotonically increasing `seq`, taken when an event is pushed, makes
//!   same-timestamp ordering (and therefore every run) deterministic,
//! - **hosts** — [`Flow`] state driven by a pluggable
//!   [`Transport`] (DCTCP by default; see [`crate::host`]),
//! - **fabric** — directed channels ([`Channels`](crate::channel::Channels):
//!   one hot mutable record per channel, the static fields once per link
//!   class, and counter and fault tables whose pages only drops, marks
//!   and faults touch) with per-port
//!   [`QueueDiscipline`](crate::switch::QueueDiscipline)s (see
//!   [`crate::switch`]), degraded by the fault layer ([`crate::fault`]).
//!
//! The transport is held by value (`AnyTransport`), and a port builds
//! its built-in discipline (`AnyQueue`) the first time a packet waits
//! there, so [`Simulator::new`]'s memory follows the fabric's classes
//! and its busy ports; the built-ins are called without a virtual
//! dispatch. Only the constructors that take caller-supplied trait
//! objects hold them as `Custom` arms.
//!
//! # Event loop
//!
//! One sequential loop drains the calendar: each popped event runs to
//! completion on `&mut Simulator`, and same-timestamp events run in the
//! order they were pushed (one global `seq`, taken by each push).
//! Control-plane events (faults, reconvergence) sit on a separate sorted
//! schedule and run before data events at the same `t`; telemetry samples
//! fire when the clock reaches a cadence boundary. Every side effect —
//! counters, goodput bins, trace events — is written as the event runs.
//! The event order is versioned by [`SCHEDULE_VERSION`], which result
//! caches and checkpoints fold into their keys.
//!
//! # The departure clock on FIFO ports
//!
//! When the run's discipline is FIFO (`cfg.queue_disc` is tail-drop, for
//! whichever discipline objects [`Simulator::with_parts`] is handed), a
//! port neither reorders nor evicts, so a packet's transmission start is
//! known when it is enqueued: the end of the transmission ahead of it.
//! Each channel keeps a departure clock (`cur_end`, `tx_end`; see
//! [`crate::channel`]) and an offer schedules the packet's far-end
//! `Deliver` at once, at `tx_end + prop`. No `TxFree` event exists. A
//! catch-up retires the packets whose transmission has begun before
//! anything reads a channel's occupancy — the offer itself (so tail
//! drops and ECN marks see the backlog still waiting), the packet's own
//! `Deliver` (so a discipline never holds a freed id), telemetry samples,
//! oracle routing and checkpoints. The tie rule at equal `t`: a
//! transmission that starts or ends at `t` has happened for everything
//! processed at `t`.
//!
//! The fault semantics are unchanged: a packet is lost iff its channel is
//! down when it is offered or when it arrives, and the pre-scheduled
//! `Deliver` is where the arrival check runs.
//!
//! # Lazy events
//!
//! Two event kinds mostly do nothing: on a reordering port (pFabric) a
//! `TxFree` with an empty queue behind it, and an `Rto` that a later ACK
//! re-armed. The engine pushes only the ones that will do work:
//!
//! - **TxFree** — [`Simulator::start_tx`] records the transmission's end
//!   on the channel and pushes the event only if packets are queued; the
//!   first packet to queue behind an unpushed TxFree pushes it. An offer
//!   finds the channel idle iff no TxFree is armed and the transmission
//!   has ended by `now` — the FIFO tie rule: a transmission that ends at
//!   `t` has ended for everything processed at `t`.
//! - **Rto** — each arm records the flow's deadline. A flow keeps one
//!   live `Rto` event, pushed only when the new deadline is earlier than
//!   the live one; when the live event pops short of the deadline it
//!   moves there. Only an event at the deadline fires.
//!
//! In-flight packets live in a [`PacketArena`] slab and travel through
//! events and queues as dense [`PktId`]s. A packet is a 32-byte `Copy`
//! value whose route is a [`PathId`](crate::path::PathId) into the run's
//! path table: each flowlet interns its channel list once (with its
//! reversal, which the flowlet's ACKs take), and a switch hop reads its
//! next channel from one flat array — the per-packet path does no heap
//! allocation and no reference counting.
//!
//! Servers are explicit endpoints attached to their ToR by a pair of host
//! channels; switches are source-routed (the path is chosen per flowlet at
//! the sender, which exactly reproduces per-hop ECMP hashing because the
//! selector hashes per hop — see `dcn-routing`).
//!
//! The default transport is DCTCP (Alizadeh et al., SIGCOMM 2010) with the
//! paper's constants: ECN marking at 20 full packets, flowlet gap 50 µs.
//! Loss recovery is fast-retransmit on 3 duplicate ACKs plus a go-back-N
//! RTO. The engine owns the transport-independent halves of recovery
//! (timer arming/backoff, sequence rewinding, flowlet re-salting);
//! transports decide what happens to the window.

use crate::calendar::CalendarQueue;
use crate::channel::Offer;
use crate::counters::{EngineCounters, EventCounts};
use crate::fault::{component_labels, gray_drop, FaultController, FaultPlan, RemappedSelector};
use crate::host::{AnyTransport, Flow, FlowRx, Transport};
use crate::path::PathTable;
use crate::slab::{PacketArena, PktId};
use crate::stats::{DropCounters, FlowRecord, TraceCounters};
use crate::switch::{DisciplineFactory, EnqueueOutcome, Fabric};
use crate::telemetry::{Sample, Telemetry};
use crate::trace::{Conservation, NopTracer, TraceEvent, Tracer};
use crate::types::{Ns, Packet, SimConfig, MS};
use dcn_routing::ecmp::hash3;
use dcn_routing::{KspSelector, PathSelector};
use dcn_topology::{NodeId, Topology};
use dcn_workloads::FlowEvent;

const HEADER_BYTES: u32 = 40;

/// Version of the engine's event order. Two builds with the same
/// `SCHEDULE_VERSION` produce byte-identical results for the same inputs;
/// bump it whenever a change reorders events (tie-breaking, loop
/// structure), so result caches and checkpoints keyed on
/// [`crate::config_fingerprint`] stop matching images and results from the
/// old order.
///
/// History (details in DESIGN.md, "Versioned order"): 1 — the 8-shard
/// parallel engine; 2 — one sequential calendar with a global push-order
/// `seq`; 3 — no-op `TxFree` and stale `Rto` events are never pushed,
/// their keys reserved instead; 4 — FIFO ports run on a departure clock
/// and push no `TxFree`, so equal-time events reorder; 5 — no reserved
/// keys: every event takes its `seq` when pushed, RTO deadlines are
/// times, and pFabric ports follow the FIFO tie rule (an arrival at the
/// instant a transmission ends, with nothing waiting, starts at once).
pub const SCHEDULE_VERSION: u32 = 5;

/// Data-plane events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    FlowStart(u32),
    TxFree(u32),
    Deliver(PktId),
    Rto(u32),
}

/// Control-plane events: they mutate global state (channel up/down, the
/// path selector) and run before data events at the same timestamp.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CtrlEv {
    /// A scheduled fault fires (index into the installed plan's events).
    Fault(u32),
    /// The control plane finishes reconverging. Tagged with an epoch so
    /// that of several queued rebuilds only the newest takes effect.
    Reconverge(u64),
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct CtrlEntry {
    pub(crate) t: Ns,
    pub(crate) ev: CtrlEv,
}

/// The packet-level simulator.
pub struct Simulator {
    pub(crate) cfg: SimConfig,
    pub(crate) fabric: Fabric,
    /// Sender halves of every injected flow, indexed by flow id.
    pub(crate) flows: Vec<Flow>,
    /// Receiver halves, same indexing.
    pub(crate) rx: Vec<FlowRx>,
    pub(crate) transport: AnyTransport,
    pub(crate) selector: Box<dyn PathSelector>,
    /// Congestion-oracle routing (§7.1 exploration): when set, flowlet
    /// paths are chosen as the least-queued of the k shortest paths,
    /// scored against live global queue occupancy.
    pub(crate) oracle: Option<KspSelector>,
    /// Seed of the installed fault plan (drives counter-based gray loss).
    pub(crate) plan_seed: u64,
    /// Cached `tracer.enabled()`: every emission site guards on this one
    /// bool so untraced runs skip event construction entirely.
    pub(crate) trace_on: bool,
    /// The data-plane event queue.
    pub(crate) queue: CalendarQueue,
    /// Every in-flight packet (queued at a channel or on the wire).
    pub(crate) pkts: PacketArena,
    /// Every route a flowlet has taken, interned; packets and flows hold
    /// ids into it.
    pub(crate) paths: PathTable,
    /// Scratch buffer a new flowlet's route is built in before interning.
    path_buf: Vec<u32>,
    /// Simulated time of the event being (or last) processed.
    pub(crate) now: Ns,
    pub(crate) window: (Ns, Ns),
    pub(crate) window_remaining: usize,
    pub(crate) events_processed: u64,
    /// Processed data-plane events by kind.
    pub(crate) event_counts: EventCounts,
    /// The full (pre-fault) topology, kept to derive survivor views.
    pub(crate) topo: Topology,
    pub(crate) faults: FaultController,
    /// Control-plane schedule, sorted by `t` and, at equal `t`, by
    /// insertion; `ctrl_pos` is the cursor of the next entry to fire.
    pub(crate) ctrl: Vec<CtrlEntry>,
    pub(crate) ctrl_pos: usize,
    /// Bytes newly acknowledged per 1-ms bin (goodput timeline).
    pub(crate) goodput_bins: Vec<u64>,
    /// The observability sink ([`crate::trace`]); [`NopTracer`] by
    /// default.
    pub(crate) tracer: Box<dyn Tracer>,
    /// The time-series sampler ([`crate::telemetry`]); `None` by default.
    pub(crate) telemetry: Option<Box<Telemetry>>,
    /// Cached next sample deadline (`u64::MAX` when telemetry is off).
    pub(crate) telemetry_next: Ns,
    /// Packets created (data + ACKs) — intrinsic conservation accounting.
    pub(crate) pkts_sent: u64,
    /// Packets that reached their end host.
    pub(crate) pkts_delivered: u64,
    /// The down-link / down-switch vectors behind the selector's last
    /// reconvergence rebuild (`None` while routing still sees the full
    /// topology). Checkpoints persist this so a restore can rebuild the
    /// identical survivor view.
    pub(crate) routing_down: Option<(Vec<bool>, Vec<bool>)>,
}

/// Inserts a control event into `ctrl[pos..]` after every entry at or
/// before `t`, so equal-`t` entries fire in insertion order.
pub(crate) fn ctrl_insert(ctrl: &mut Vec<CtrlEntry>, pos: usize, t: Ns, ev: CtrlEv) {
    let at = pos + ctrl[pos..].partition_point(|e| e.t <= t);
    ctrl.insert(at, CtrlEntry { t, ev });
}

impl Simulator {
    /// Builds a simulator over `topo` using `selector` for ToR-to-ToR
    /// paths, with the transport and queue discipline named in `cfg`
    /// ([`SimConfig::transport`] / [`SimConfig::queue_disc`]; DCTCP over
    /// tail-drop+ECN by default). Server count and placement come from the
    /// topology's per-switch server counts.
    pub fn new(topo: &Topology, selector: Box<dyn PathSelector>, cfg: SimConfig) -> Self {
        Self::assemble(topo, selector, cfg, AnyTransport::of(cfg.transport), None)
    }

    /// Like [`Simulator::new`] but with a caller-supplied [`Transport`]
    /// (external congestion-control implementations plug in here).
    pub fn with_transport(
        topo: &Topology,
        selector: Box<dyn PathSelector>,
        cfg: SimConfig,
        transport: Box<dyn Transport>,
    ) -> Self {
        Self::assemble(topo, selector, cfg, AnyTransport::Custom(transport), None)
    }

    /// Fully explicit constructor: caller-supplied transport *and* a
    /// per-channel queue-discipline factory (called with each channel's
    /// byte capacity and ECN threshold).
    ///
    /// The factory's disciplines must depart in the order
    /// `cfg.queue_disc` implies: when it names a FIFO discipline the
    /// engine runs every port on the departure clock (see the module
    /// docs), taking each packet's start from its place in line and
    /// calling `dequeue` only to retire packets already under way.
    /// Checkpointing such a port also needs `restore_queue` to allocate
    /// its packets in the order given.
    pub fn with_parts(
        topo: &Topology,
        selector: Box<dyn PathSelector>,
        cfg: SimConfig,
        transport: Box<dyn Transport>,
        disc: DisciplineFactory,
    ) -> Self {
        Self::assemble(
            topo,
            selector,
            cfg,
            AnyTransport::Custom(transport),
            Some(disc),
        )
    }

    fn assemble(
        topo: &Topology,
        selector: Box<dyn PathSelector>,
        cfg: SimConfig,
        transport: AnyTransport,
        disc: Option<DisciplineFactory>,
    ) -> Self {
        Simulator {
            fabric: Fabric::build(topo, &cfg, disc),
            cfg,
            flows: Vec::new(),
            rx: Vec::new(),
            transport,
            selector,
            oracle: None,
            plan_seed: 0,
            trace_on: false,
            queue: CalendarQueue::new(),
            pkts: PacketArena::new(),
            paths: PathTable::default(),
            path_buf: Vec::new(),
            now: 0,
            window: (0, Ns::MAX),
            window_remaining: 0,
            events_processed: 0,
            event_counts: EventCounts::default(),
            topo: topo.clone(),
            faults: FaultController::new(topo.num_links(), topo.num_nodes()),
            ctrl: Vec::new(),
            ctrl_pos: 0,
            goodput_bins: Vec::new(),
            tracer: Box::new(NopTracer),
            telemetry: None,
            telemetry_next: Ns::MAX,
            pkts_sent: 0,
            pkts_delivered: 0,
            routing_down: None,
        }
    }

    /// Installs a [`Tracer`]; call before [`Simulator::run`]. The default
    /// is [`NopTracer`], which disables event construction altogether.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.trace_on = tracer.enabled();
        self.tracer = tracer;
    }

    /// The folded counters of the installed tracer, when it keeps any
    /// (a [`crate::trace::CountingTracer`] does).
    pub fn trace_counters(&self) -> Option<&TraceCounters> {
        self.tracer.counters()
    }

    /// Monotone-clock violations the installed tracer has observed, when
    /// it tracks them (a [`crate::trace::CountingTracer`] does; 0 on
    /// every well-behaved run).
    pub fn trace_time_regressions(&self) -> Option<u64> {
        self.tracer.time_regressions()
    }

    /// Installs a time-series [`Telemetry`] sampler; call before
    /// [`Simulator::run`]. The first sample lands on the first cadence
    /// boundary the simulation clock crosses.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry_next = telemetry.every_ns();
        self.telemetry = Some(Box::new(telemetry));
    }

    /// The installed telemetry sampler, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// The conservation identity from the engine's own counters — no
    /// tracer required. `dropped` covers congestion (tail + eviction) and
    /// fault losses; no-route refusals are excluded because those packets
    /// are never created (see [`Simulator::drop_breakdown`]).
    pub fn conservation(&self) -> Conservation {
        Conservation {
            sent: self.pkts_sent,
            delivered: self.pkts_delivered,
            dropped: self.fabric.total_congestion_drops() + self.fabric.total_fault_drops(),
            in_flight: self.packets_in_flight(),
        }
    }

    /// High-water mark of the event-queue population over the run so far
    /// (the name predates the calendar queue; manifests report it).
    pub fn heap_peak(&self) -> usize {
        self.queue.peak
    }

    /// Installs a fault plan: every event goes onto the control-plane
    /// schedule and the gray-loss hash is reseeded from the plan, so the
    /// same plan (and seed) reproduces the identical run. Call before
    /// [`Simulator::run`].
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        plan.validate(&self.topo);
        self.plan_seed = plan.seed;
        for (at_ns, idx) in self.faults.install(plan) {
            ctrl_insert(&mut self.ctrl, self.ctrl_pos, at_ns, CtrlEv::Fault(idx));
        }
    }

    /// Switches the simulator to oracle congestion-aware routing: each
    /// flowlet takes whichever of the `k` shortest ToR paths currently has
    /// the least queued bytes (ties broken by the flowlet hash). This uses
    /// global instantaneous queue state no real scheme could see — use it
    /// as the adaptive-routing upper bound the paper's §7.1 asks about.
    ///
    /// The oracle scores paths on the topology it was given and is *not*
    /// rebuilt on reconvergence — don't combine it with a fault plan.
    pub fn enable_oracle_routing(&mut self, topo: &Topology, k: usize) {
        self.oracle = Some(KspSelector::new(topo, k));
    }

    /// Number of servers in the simulated network.
    pub fn num_servers(&self) -> usize {
        self.fabric.num_servers()
    }

    /// Directed channels in the fabric, and the distinct link classes
    /// (rate, propagation delay, queue cap, ECN threshold) they share.
    pub fn channel_counts(&self) -> (usize, usize) {
        let chans = &self.fabric.channels;
        (chans.len(), chans.num_classes())
    }

    /// Name of the active congestion-control transport (e.g. `"dctcp"`).
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// Sets the measurement window `[start, end)`; flows starting inside
    /// it gate [`Simulator::run`]'s completion condition.
    pub fn set_window(&mut self, start: Ns, end: Ns) {
        self.window = (start, end);
    }

    /// Injects workload flows (times in seconds are converted to ns).
    /// Call after `set_window`.
    pub fn inject(&mut self, events: &[FlowEvent]) {
        for e in events {
            let start_ns = (e.start_s * 1e9) as Ns;
            let src = self.fabric.server_id(e.src.rack, e.src.server);
            let dst = self.fabric.server_id(e.dst.rack, e.dst.server);
            assert_ne!(src, dst, "flow with identical endpoints");
            let total_pkts = e.bytes.div_ceil(self.cfg.mss as u64).max(1) as u32;
            let in_window = start_ns >= self.window.0 && start_ns < self.window.1;
            if in_window {
                self.window_remaining += 1;
            }
            let id = self.flows.len() as u32;
            let f = Flow::new(
                src,
                dst,
                e.src.rack,
                e.dst.rack,
                e.bytes,
                start_ns,
                total_pkts,
                self.transport.initial_cwnd(&self.cfg),
                in_window,
            );
            self.rx.push(FlowRx::new(&f));
            self.flows.push(f);
            self.queue.push(start_ns, Ev::FlowStart(id));
        }
    }

    /// Runs until every measurement-window flow completes (or the queues
    /// drain / `max_time` is hit). Returns per-flow records.
    pub fn run(&mut self, max_time: Ns) -> Vec<FlowRecord> {
        self.run_loop(max_time, Ns::MAX);
        self.finish()
    }

    /// Runs until the simulated clock would pass `t_stop`, leaving every
    /// event after `t_stop` queued. Returns `true` if the run completed —
    /// window drained or queues empty — and `false` if it merely paused
    /// at the stop time; a paused simulator can be checkpointed and later
    /// driven on with `run` or `run_until`.
    pub fn run_until(&mut self, t_stop: Ns) -> bool {
        self.run_loop(Ns::MAX, t_stop)
    }

    /// The event loop behind [`Simulator::run`] and
    /// [`Simulator::run_until`]. Returns `true` when the run completed
    /// (window drained or queues empty), `false` when it paused at
    /// `t_stop`.
    fn run_loop(&mut self, max_time: Ns, t_stop: Ns) -> bool {
        let budget = match self.cfg.max_events {
            0 => u64::MAX,
            n => n,
        };
        loop {
            // Data events before the next control event, telemetry
            // boundary, and stop time run back to back.
            let horizon = self
                .ctrl
                .get(self.ctrl_pos)
                .map_or(Ns::MAX, |c| c.t)
                .min(self.telemetry_next)
                .min(max_time.min(t_stop).saturating_add(1));
            while let Some(e) = self.queue.pop_before(horizon) {
                self.now = e.t;
                self.events_processed += 1;
                let n = &mut self.event_counts;
                match e.ev {
                    Ev::FlowStart(f) => {
                        n.flow_start += 1;
                        self.on_flow_start(f)
                    }
                    Ev::TxFree(ch) => {
                        n.tx_free += 1;
                        self.on_tx_free(ch)
                    }
                    Ev::Deliver(id) => {
                        n.deliver += 1;
                        self.on_deliver(id)
                    }
                    Ev::Rto(f) => self.on_rto(f),
                }
                if self.done() {
                    return true;
                }
                if self.events_processed > budget {
                    self.over_budget();
                }
            }
            let data_t = self.queue.peek_t();
            let ctrl_t = self.ctrl.get(self.ctrl_pos).map(|e| e.t);
            let tnext = match (data_t, ctrl_t) {
                (None, None) => return true,
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
            };
            if tnext > max_time {
                return true;
            }
            if tnext > t_stop {
                return false;
            }
            if self.telemetry_next <= tnext {
                self.telemetry_sample(tnext);
                continue; // re-arms telemetry_next past tnext
            }
            // Everything else before the horizon has run, so the next
            // entry is a control event at or before the next data event:
            // the control plane runs first at equal `t`.
            self.fire_ctrl();
            if self.done() {
                return true;
            }
            if self.events_processed > budget {
                self.over_budget();
            }
        }
    }

    /// The `max_events` watchdog.
    #[cold]
    fn over_budget(&self) -> ! {
        panic!(
            "event budget exceeded: {} events at t={} ns with {} window flows outstanding",
            self.events_processed, self.now, self.window_remaining
        );
    }

    fn done(&self) -> bool {
        self.window_remaining == 0 && !self.flows.is_empty()
    }

    /// Ends the run: fails unfinished flows, flushes the observability
    /// sinks, and returns per-flow records. [`Simulator::run`] calls this
    /// itself; callers pausing via [`Simulator::run_until`] call it once
    /// after the final segment.
    pub fn finish(&mut self) -> Vec<FlowRecord> {
        // Anything still unfinished when the run stops counts as failed,
        // so completed + failed covers every injected flow.
        for fid in 0..self.flows.len() as u32 {
            self.fail_flow(fid);
        }
        self.tracer.finish();
        if let Some(tel) = self.telemetry.as_mut() {
            tel.finish().expect("telemetry sink flush failed");
        }
        self.records()
    }

    /// Terminates an unfinished flow as failed.
    fn fail_flow(&mut self, fid: u32) {
        let rx = &mut self.rx[fid as usize];
        let f = &mut self.flows[fid as usize];
        if rx.finished_ns.is_some() || f.failed {
            return;
        }
        f.failed = true;
        rx.failed = true;
        rx.rcv_bitmap = Vec::new();
        if f.in_window {
            self.window_remaining -= 1;
        }
        if self.trace_on {
            self.tracer
                .event(self.now, &TraceEvent::FlowFail { flow: fid });
        }
    }

    /// Per-flow outcomes.
    pub fn records(&self) -> Vec<FlowRecord> {
        self.flows
            .iter()
            .zip(&self.rx)
            .map(|(f, rx)| FlowRecord {
                start_ns: f.start_ns,
                size_bytes: f.size_bytes,
                fct_ns: rx.finished_ns.map(|t| t - f.start_ns),
                failed: f.failed,
                recovery_ns: match (f.fault_hit_ns, f.recovery_ns) {
                    (Some(hit), Some(rec)) => Some(rec - hit),
                    _ => None,
                },
            })
            .collect()
    }

    #[cfg(test)]
    pub(crate) fn flow_ref(&self, fid: u32) -> &Flow {
        &self.flows[fid as usize]
    }

    /// Total congestion tail drops across all channels.
    pub fn total_congestion_drops(&self) -> u64 {
        self.fabric.total_congestion_drops()
    }

    /// Packets lost to injected faults: dead or gray channels, plus
    /// packets that never left the host because no route existed.
    pub fn total_fault_drops(&self) -> u64 {
        self.fabric.total_fault_drops() + self.faults.noroute_drops
    }

    /// All drops, congestion and fault; equals
    /// [`Simulator::total_congestion_drops`] in fault-free runs.
    pub fn total_drops(&self) -> u64 {
        self.total_congestion_drops() + self.total_fault_drops()
    }

    /// Drops split by cause, from the fabric's own counters (no tracer
    /// required). `total()` equals [`Simulator::total_drops`].
    pub fn drop_breakdown(&self) -> DropCounters {
        let eviction = self.fabric.total_evictions();
        DropCounters {
            congestion: self.fabric.total_congestion_drops() - eviction,
            eviction,
            fault: self.fabric.total_fault_drops(),
            noroute: self.faults.noroute_drops,
        }
    }

    /// Packets currently queued at channels or on the wire (scheduled for
    /// delivery) — the in-flight term of the conservation identity when a
    /// run stops at its horizon. Each counts once: a packet waiting at a
    /// FIFO port already has its Deliver pending, while a reordering
    /// port's queued packets have none yet.
    pub fn packets_in_flight(&self) -> u64 {
        let chans = &self.fabric.channels;
        let queued: u64 = match chans.fifo {
            true => 0,
            false => (0..chans.len() as u32)
                .map(|id| chans.queue_len(id) as u64)
                .sum(),
        };
        let delivers = self
            .queue
            .iter()
            .filter(|i| matches!(i.ev, Ev::Deliver(_)))
            .count() as u64;
        queued + delivers
    }

    /// Bytes newly acknowledged per 1-ms bin since t=0 — the goodput
    /// timeline robustness plots are drawn from.
    pub fn goodput_timeline_ms(&self) -> &[u64] {
        &self.goodput_bins
    }

    /// Total ECN marks across all channels.
    pub fn total_marks(&self) -> u64 {
        self.fabric.total_marks()
    }

    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The deterministic engine counter set (see [`crate::counters`]):
    /// identical for the same inputs and preserved exactly across
    /// checkpoint/restore.
    pub fn engine_counters(&self) -> EngineCounters {
        EngineCounters {
            calendar_peak: self.queue.peak as u64,
            ladder_spills: self.queue.ladder_spills,
            arena_live: self.pkts.live_count() as u64,
            arena_high_water: self.pkts.high_water() as u64,
            events: self.event_counts,
        }
    }

    /// Current simulated time in ns (the timestamp of the last event
    /// processed).
    pub fn now(&self) -> Ns {
        self.now
    }

    fn fire_ctrl(&mut self) {
        let e = self.ctrl[self.ctrl_pos];
        self.ctrl_pos += 1;
        if e.t > self.now {
            self.now = e.t;
        }
        self.events_processed += 1;
        match e.ev {
            CtrlEv::Fault(i) => self.on_fault(i),
            CtrlEv::Reconverge(epoch) => self.on_reconverge(epoch),
        }
    }

    fn on_fault(&mut self, idx: u32) {
        if self.trace_on {
            let k = self.faults.kind(idx);
            self.trace(TraceEvent::Fault {
                kind: k.label(),
                id: k.target(),
                loss_ppm: k.loss_ppm(),
            });
        }
        if self.faults.fire(idx, &mut self.fabric) {
            // Hard (control-plane-visible) fault: reconverge after the
            // configured delay.
            let epoch = self.faults.next_epoch();
            let t = self.now + self.cfg.reconverge_delay_ns;
            ctrl_insert(&mut self.ctrl, self.ctrl_pos, t, CtrlEv::Reconverge(epoch));
        }
    }

    fn on_reconverge(&mut self, epoch: u64) {
        if epoch != self.faults.epoch() {
            return; // a newer fault superseded this rebuild
        }
        if self.trace_on {
            self.trace(TraceEvent::Reconverge { epoch });
        }
        let (survivor, map) = self.faults.survivor_topology(&self.topo);
        self.routing_down = Some(self.faults.down_state());
        let rebuilt = self.selector.rebuild(&survivor);
        self.selector = Box::new(RemappedSelector::new(rebuilt, map));
        // With no fault event still pending, connectivity is final: fail
        // flows whose endpoints are gone or in different components
        // instead of letting them back off until max_time.
        if self.faults.pending() == 0 {
            let comp = component_labels(&survivor);
            for fid in 0..self.flows.len() as u32 {
                let f = &self.flows[fid as usize];
                if self.faults.switch_is_down(f.src_tor)
                    || self.faults.switch_is_down(f.dst_tor)
                    || comp[f.src_tor as usize] != comp[f.dst_tor as usize]
                {
                    self.fail_flow(fid);
                }
            }
        }
    }

    /// Snapshots fabric-wide state for the cadence boundary at or before
    /// `t`, writes one sample line, and re-arms the deadline (skipping any
    /// boundaries the event gap jumped over).
    fn telemetry_sample(&mut self, t: Ns) {
        let Some(every) = self.telemetry.as_ref().map(|tel| tel.every_ns()) else {
            return;
        };
        let boundary = (t / every) * every;
        // Transmissions that begin before the boundary belong to the
        // interval it closes, and the queues are sampled as they stand
        // just before it.
        self.catch_up_all(boundary - 1);
        let tel = self.telemetry.as_mut().expect("telemetry is installed");
        let chans = &self.fabric.channels;
        let mut queued_pkts = 0u64;
        let mut queued_bytes = 0u64;
        let mut channels = Vec::new();
        for id in 0..chans.len() as u32 {
            let qlen = chans.queue_len(id) as u32;
            let qbytes = chans.queue_bytes(id);
            let tx = tel.interval_tx(id);
            queued_pkts += qlen as u64;
            queued_bytes += qbytes;
            if qlen > 0 || tx > 0 {
                channels.push((id, qlen, qbytes, tx));
            }
        }
        let mut flows_active = 0u64;
        let mut inflight_bytes = 0u64;
        for (f, rx) in self.flows.iter().zip(&self.rx) {
            if f.is_active(rx, t) {
                flows_active += 1;
                inflight_bytes += f.inflight_bytes(self.cfg.mss);
            }
        }
        let sample = Sample {
            t: boundary,
            events: self.events_processed,
            // Field name predates the calendar queue; kept for byte-stable
            // telemetry streams.
            heap: self.queue.len() as u64,
            flows_active,
            inflight_bytes,
            queued_pkts,
            queued_bytes,
            tx_bytes: tel.interval_tx_total(),
            sent: self.pkts_sent,
            delivered: self.pkts_delivered,
            marks: self.fabric.total_marks(),
            drops_congestion: self.fabric.total_congestion_drops(),
            drops_fault: self.fabric.total_fault_drops(),
            channels,
        };
        tel.write_sample(&sample)
            .expect("telemetry sink write failed");
        self.telemetry_next = boundary + every;
    }

    #[inline]
    fn trace(&mut self, ev: TraceEvent) {
        self.tracer.event(self.now, &ev);
    }

    fn on_flow_start(&mut self, fid: u32) {
        let f = &mut self.flows[fid as usize];
        if f.failed {
            return; // terminated before it began (disconnected endpoints)
        }
        f.window_end = 1;
        if self.trace_on {
            let ev = TraceEvent::FlowStart {
                flow: fid,
                src: f.src_server,
                dst: f.dst_server,
                bytes: f.size_bytes,
                pkts: f.total_pkts,
            };
            self.trace(ev);
        }
        self.arm_rto(fid);
        self.pump(fid);
    }

    fn on_tx_free(&mut self, ch_id: u32) {
        if let Some(id) = self.fabric.channels.tx_done(ch_id) {
            self.start_tx(ch_id, id);
        }
    }

    /// Reordering ports: puts packet `id` on channel `ch_id`'s wire:
    /// records when the transmission ends (its TxFree is pushed now only
    /// if packets wait behind it) and schedules the far-end Deliver.
    fn start_tx(&mut self, ch_id: u32, id: PktId) {
        let (flow, seq, is_ack, bytes) = {
            let p = self.pkts.get(id);
            (p.flow, p.seq, p.is_ack, p.bytes)
        };
        if self.trace_on {
            self.trace(TraceEvent::Dequeue {
                ch: ch_id,
                flow,
                seq,
                is_ack,
                start: self.now,
            });
        }
        let chans = &self.fabric.channels;
        let ser = chans.ser_ns(ch_id, bytes);
        let prop = chans.prop_ns(ch_id);
        if let Some(tel) = self.telemetry.as_mut() {
            tel.on_tx(ch_id, bytes);
        }
        let free_at = self.now + ser;
        if self.fabric.channels.begin_tx(ch_id, free_at) {
            self.queue.push(free_at, Ev::TxFree(ch_id));
        }
        self.queue.push(free_at + prop, Ev::Deliver(id));
    }

    /// Catches FIFO channel `ch` up to `t` ([`Channels::catch_up`]),
    /// crediting each transmission that begins to the telemetry interval.
    #[inline]
    fn catch_up(&mut self, ch: u32, t: Ns) {
        let chans = &mut self.fabric.channels;
        match self.telemetry.as_deref_mut() {
            None => chans.catch_up(ch, t, &self.pkts, |_| {}),
            Some(tel) => chans.catch_up(ch, t, &self.pkts, |bytes| tel.on_tx(ch, bytes)),
        }
    }

    /// Catches every FIFO channel up to `t`, before a reader that needs
    /// the whole fabric's occupancy as of `t`.
    pub(crate) fn catch_up_all(&mut self, t: Ns) {
        if self.fabric.channels.fifo {
            for ch in 0..self.fabric.channels.len() as u32 {
                self.catch_up(ch, t);
            }
        }
    }

    /// Drops packet `id` if channel `ch_id` is down or its gray loss
    /// strikes, and says whether it did.
    fn lost_on_offer(&mut self, ch_id: u32, id: PktId) -> bool {
        let chans = &mut self.fabric.channels;
        let loss = chans.loss_prob(ch_id);
        // Short-circuit keeps the gray counter untouched on dead wires,
        // so gray-loss draws are independent of unrelated outages.
        let lost = !chans.up(ch_id)
            || (loss > 0.0 && {
                let draw = chans.gray_bump(ch_id);
                gray_drop(self.plan_seed, ch_id, draw, loss)
            });
        if lost {
            self.drop_fault(ch_id, id);
        }
        lost
    }

    /// Loses packet `id` to a fault on channel `ch`.
    fn drop_fault(&mut self, ch: u32, id: PktId) {
        let (flow, seq, is_ack) = {
            let p = self.pkts.get(id);
            (p.flow, p.seq, p.is_ack)
        };
        self.fabric.channels.add_fault_drop(ch);
        self.pkts.free(id);
        if self.trace_on {
            self.trace(TraceEvent::DropFault {
                ch,
                flow,
                seq,
                is_ack,
            });
        }
        self.note_fault_hit(flow);
    }

    fn send_on(&mut self, ch_id: u32, id: PktId) {
        if self.fabric.channels.faulty() && self.lost_on_offer(ch_id, id) {
            return;
        }
        if self.fabric.channels.fifo {
            return self.send_fifo(ch_id, id);
        }
        let pkt = self.trace_fields(id);
        let chans = &mut self.fabric.channels;
        let (offer, out) = chans.offer(ch_id, id, &mut self.pkts, self.now);
        if offer == Offer::Queued {
            if let Some(t) = chans.arm_tx_free(ch_id) {
                self.queue.push(t, Ev::TxFree(ch_id));
            }
        }
        if self.trace_on {
            self.trace_offer(ch_id, pkt, offer, &out);
        }
        if offer == Offer::StartTx {
            self.start_tx(ch_id, id)
        }
    }

    /// FIFO ports: offers packet `id` to channel `ch_id` on the departure
    /// clock. An accepted packet's transmission is scheduled at once, so
    /// its Deliver is pushed now.
    fn send_fifo(&mut self, ch_id: u32, id: PktId) {
        let now = self.now;
        self.catch_up(ch_id, now);
        let bytes = self.pkts.get(id).bytes;
        let pkt = self.trace_fields(id);
        let chans = &mut self.fabric.channels;
        let (offer, end, out) = chans.offer_fifo(ch_id, id, bytes, &mut self.pkts, now);
        if self.trace_on {
            self.trace_offer(ch_id, pkt, offer, &out);
        }
        if offer == Offer::Dropped {
            return;
        }
        let chans = &self.fabric.channels;
        let prop = chans.prop_ns(ch_id);
        if offer == Offer::StartTx {
            // A queued packet is credited when a catch-up retires it.
            if let Some(tel) = self.telemetry.as_mut() {
                tel.on_tx(ch_id, bytes);
            }
        }
        if self.trace_on {
            let start = end - chans.ser_ns(ch_id, bytes);
            let (flow, seq, is_ack) = pkt;
            self.trace(TraceEvent::Dequeue {
                ch: ch_id,
                flow,
                seq,
                is_ack,
                start,
            });
        }
        self.queue.push(end + prop, Ev::Deliver(id));
    }

    /// `(flow, seq, is_ack)` of packet `id` for the trace records of an
    /// offer, read before the offer can free it. Untraced runs skip the
    /// read (zeros).
    #[inline]
    fn trace_fields(&self, id: PktId) -> (u32, u32, bool) {
        if !self.trace_on {
            return (0, 0, false);
        }
        let p = self.pkts.get(id);
        (p.flow, p.seq, p.is_ack)
    }

    /// The trace records of one offer: the enqueue or the congestion
    /// drop, the mark, and any evictions.
    fn trace_offer(
        &mut self,
        ch_id: u32,
        (flow, seq, is_ack): (u32, u32, bool),
        offer: Offer,
        out: &EnqueueOutcome,
    ) {
        let chans = &self.fabric.channels;
        match offer {
            Offer::Queued => {
                let qlen = chans.queue_len(ch_id) as u32;
                let qbytes = chans.queue_bytes(ch_id);
                self.trace(TraceEvent::Enqueue {
                    ch: ch_id,
                    flow,
                    seq,
                    is_ack,
                    qlen,
                    qbytes,
                });
            }
            Offer::Dropped => self.trace(TraceEvent::DropCongestion {
                ch: ch_id,
                flow,
                seq,
                is_ack,
            }),
            Offer::StartTx => {}
        }
        if out.marked {
            self.trace(TraceEvent::EcnMark {
                ch: ch_id,
                flow,
                seq,
            });
        }
        for &(vf, vs) in &out.evicted {
            self.trace(TraceEvent::DropEviction {
                ch: ch_id,
                flow: vf,
                seq: vs,
            });
        }
    }

    fn on_deliver(&mut self, id: PktId) {
        let p = *self.pkts.get(id);
        let (ch, flow, seq, is_ack) = (self.paths.hop(p.path, p.hop), p.flow, p.seq, p.is_ack);
        if self.fabric.channels.fifo {
            // The packet's transmission has ended, so this retires it
            // from its queue before it is freed or forwarded: a
            // discipline never holds an id whose slot could be reused.
            self.catch_up(ch, self.now);
        }
        let chans = &self.fabric.channels;
        if chans.faulty() && !chans.up(ch) {
            // The wire died while this packet was in flight (or queued
            // behind the transmitter): it is lost.
            return self.drop_fault(ch, id);
        }
        if chans.to_node[ch as usize] < self.fabric.num_switches {
            // Switch: source-routed forward onto the next channel.
            self.pkts.get_mut(id).hop += 1;
            let next = self.paths.hop(p.path, p.hop + 1);
            self.send_on(next, id);
        } else {
            self.pkts_delivered += 1;
            if self.trace_on {
                self.trace(TraceEvent::Deliver { flow, seq, is_ack });
            }
            if is_ack {
                self.on_ack(id);
            } else {
                self.on_data(id);
            }
        }
    }

    fn on_data(&mut self, id: PktId) {
        let Packet {
            flow: fid,
            seq,
            ecn_ce,
            ts,
            path,
            ..
        } = *self.pkts.get(id);
        // The data packet's arena slot is released before the ACK is
        // allocated, so (LIFO free list) the ACK usually reuses it.
        self.pkts.free(id);
        let rx = &mut self.rx[fid as usize];
        if rx.failed {
            return;
        }
        debug_assert_eq!(self.fabric.num_switches + rx.dst_server, {
            let last = *self.paths.channels(path).last().unwrap();
            self.fabric.channels.to_node[last as usize]
        });
        if rx.finished_ns.is_none() {
            if rx.rcv_bitmap.is_empty() {
                // Lazily sized at the first arrival.
                rx.rcv_bitmap = vec![0u64; (rx.total_pkts as usize).div_ceil(64)];
            }
            rx.rcv_mark(seq);
            if rx.rcv_cum == rx.total_pkts {
                rx.finished_ns = Some(self.now);
                rx.rcv_bitmap = Vec::new();
                if rx.in_window {
                    self.window_remaining -= 1;
                }
                if self.trace_on {
                    let fct_ns = self.now - rx.start_ns;
                    self.tracer
                        .event(self.now, &TraceEvent::FlowFinish { flow: fid, fct_ns });
                }
            }
        }
        // Cumulative ACK retracing the data packet's route backwards.
        let rev = path.reversed();
        let first = self.paths.hop(rev, 0);
        let ack_seq = rx.rcv_cum;
        let ack_bytes = self.cfg.ack_bytes;
        let ack = self.pkts.alloc(Packet {
            flow: fid,
            seq: ack_seq,
            bytes: ack_bytes,
            ecn_ce: false,
            is_ack: true,
            ack_ecn: ecn_ce,
            ts,
            hop: 0,
            prio: 0,
            path: rev,
        });
        self.pkts_sent += 1;
        if self.trace_on {
            self.trace(TraceEvent::Send {
                flow: fid,
                seq: ack_seq,
                is_ack: true,
                bytes: ack_bytes,
            });
        }
        self.send_on(first, ack);
    }

    fn on_ack(&mut self, id: PktId) {
        let (fid, c, ack_ecn, ts) = {
            let a = self.pkts.get(id);
            (a.flow, a.seq, a.ack_ecn, a.ts)
        };
        self.pkts.free(id);
        let f = &mut self.flows[fid as usize];
        if f.failed || f.acked >= f.total_pkts {
            return; // sender already done (or flow terminated)
        }
        if c > f.acked {
            // Engine-side accounting of forward progress (independent of
            // the transport's window reaction).
            let newly = c - f.acked;
            let mss64 = self.cfg.mss as u64;
            // Goodput timeline: credit this ms bin with the new bytes.
            let before = (f.acked as u64 * mss64).min(f.size_bytes);
            let after = (c as u64 * mss64).min(f.size_bytes);
            let bin = (self.now / MS) as usize;
            if self.goodput_bins.len() <= bin {
                self.goodput_bins.resize(bin + 1, 0);
            }
            self.goodput_bins[bin] += after - before;
            if f.fault_hit_ns.is_some() && f.recovery_ns.is_none() {
                // First forward progress after a fault-induced loss.
                f.recovery_ns = Some(self.now);
            }
            if ack_ecn {
                // Feedback for adaptive routing is tracked regardless of
                // the transport's reaction.
                f.ecn_total += newly as u64;
            }
        }
        let rtt_ns = self.now - ts;
        let act = self.transport.on_ack(f, c, ack_ecn, rtt_ns, &self.cfg);
        if self.trace_on {
            // The window value is reported after the transport's reaction.
            let cwnd_bytes = f.cwnd as u64;
            self.trace(TraceEvent::Ack {
                flow: fid,
                cum: c,
                ecn: ack_ecn,
                rtt_ns,
                cwnd_bytes,
            });
        }
        if act.rearm_rto {
            self.arm_rto(fid);
        }
        if let Some(seq) = act.retransmit {
            self.send_data(fid, seq);
        }
        if act.pump {
            self.pump(fid);
        }
    }

    /// Arms the flow's retransmission timer: records the deadline, and
    /// pushes an `Rto` only if it is earlier than the live one (the live
    /// one moves on to later deadlines when it pops).
    fn arm_rto(&mut self, fid: u32) {
        let f = &mut self.flows[fid as usize];
        let rto = ((2.0 * f.srtt) as Ns).max(self.cfg.min_rto_ns) * f.rto_backoff as Ns;
        let deadline = self.now + rto;
        f.rto_deadline = deadline;
        if f.rto_live == 0 || deadline < f.rto_live {
            f.rto_live = deadline;
            self.queue.push(deadline, Ev::Rto(fid));
        }
    }

    fn on_rto(&mut self, fid: u32) {
        let now = self.now;
        let f = &mut self.flows[fid as usize];
        let n = &mut self.event_counts;
        if now != f.rto_live {
            // Superseded by an earlier deadline pushed after it.
            n.rto_stale += 1;
            return;
        }
        f.rto_live = 0;
        if f.acked >= f.total_pkts || f.failed {
            n.rto_stale += 1; // the flow is over; its timer goes with it
            return;
        }
        if now != f.rto_deadline {
            // Re-armed since this event was pushed: wait for the deadline.
            n.rto_stale += 1;
            f.rto_live = f.rto_deadline;
            self.queue.push(f.rto_live, Ev::Rto(fid));
            return;
        }
        n.rto_fired += 1;
        // The transport decides the window reaction...
        self.transport.on_timeout(f, &self.cfg);
        // ...the engine does the transport-independent go-back-N: rewind,
        // back the timer off, force a fresh flowlet (the old path may be
        // the congested one).
        f.next_seq = f.acked;
        f.in_recovery = false;
        f.rto_backoff = (f.rto_backoff * 2).min(64);
        f.cur_path = None;
        // Re-pin the flowlet hash: if the loss was a failed link the old
        // hash would keep landing on, the salt steers the retransmission
        // onto a different equal-cost choice without control-plane help.
        f.path_salt = f.path_salt.wrapping_add(1);
        if self.trace_on {
            let (backoff, salt) = (f.rto_backoff, f.path_salt);
            self.trace(TraceEvent::Rto { flow: fid, backoff });
            self.trace(TraceEvent::PathReselect { flow: fid, salt });
        }
        self.arm_rto(fid);
        self.pump(fid);
    }

    /// Records the first fault-induced loss a flow suffers, anchoring the
    /// recovery-latency measurement.
    fn note_fault_hit(&mut self, fid: u32) {
        let f = &mut self.flows[fid as usize];
        if self.rx[fid as usize].finished_ns.is_none() && !f.failed && f.fault_hit_ns.is_none() {
            f.fault_hit_ns = Some(self.now);
        }
    }

    fn pump(&mut self, fid: u32) {
        loop {
            let f = &mut self.flows[fid as usize];
            if f.next_seq >= f.total_pkts {
                break;
            }
            let inflight = (f.next_seq - f.acked) as f64 * self.cfg.mss as f64;
            if inflight + self.cfg.mss as f64 > f.cwnd + 0.5 {
                break;
            }
            let seq = f.next_seq;
            f.next_seq += 1;
            self.send_data(fid, seq);
        }
    }

    fn send_data(&mut self, fid: u32, seq: u32) {
        let gap = self.cfg.flowlet_gap_ns;
        let f = &mut self.flows[fid as usize];
        let needs_new = f.cur_path.is_none() || self.now - f.last_send_ns > gap;
        if needs_new && self.oracle.is_some() {
            // The oracle scores routes by the queues as they stand now.
            self.catch_up_all(self.now);
        }
        let f = &mut self.flows[fid as usize];
        if needs_new {
            // path_salt is 0 until the first RTO, keeping fault-free runs
            // byte-identical to the unsalted flowlet hash.
            let key = hash3(
                fid as u64 ^ f.path_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                f.flowlet_count,
                0xF10_1E7,
            );
            let bytes_sent = f.next_seq as u64 * self.cfg.mss as u64;
            let routed = build_path(
                &self.fabric,
                self.selector.as_ref(),
                self.oracle.as_ref(),
                f,
                key,
                bytes_sent,
                &mut self.path_buf,
            );
            f.flowlet_count += 1;
            let flowlet = f.flowlet_count;
            if !routed {
                // No route right now (selector rebuilt on a view where
                // the pair is disconnected): drop at the source. The RTO
                // rewinds and retries until a recovery restores the route
                // or the flow is failed.
                f.cur_path = None;
                self.faults.noroute_drops += 1;
                if self.trace_on {
                    self.trace(TraceEvent::DropNoRoute { flow: fid });
                }
                self.note_fault_hit(fid);
                return;
            }
            let hops = self.path_buf.len() as u32;
            f.cur_path = Some(self.paths.intern(&self.path_buf));
            if self.trace_on {
                self.trace(TraceEvent::FlowletSwitch {
                    flow: fid,
                    flowlet,
                    hops,
                });
            }
        }
        let f = &mut self.flows[fid as usize];
        self.transport.on_send(f, seq, &self.cfg);
        f.last_send_ns = self.now;
        let payload = if seq + 1 == f.total_pkts {
            (f.size_bytes - seq as u64 * self.cfg.mss as u64) as u32
        } else {
            self.cfg.mss
        };
        let prio = self.transport.priority(f, &self.cfg);
        let path = f.cur_path.expect("a flowlet route is set");
        let first = self.paths.hop(path, 0);
        let bytes = payload + HEADER_BYTES;
        let id = self.pkts.alloc(Packet {
            flow: fid,
            seq,
            bytes,
            ecn_ce: false,
            is_ack: false,
            ack_ecn: false,
            ts: self.now,
            hop: 0,
            prio,
            path,
        });
        self.pkts_sent += 1;
        if self.trace_on {
            self.trace(TraceEvent::Send {
                flow: fid,
                seq,
                is_ack: false,
                bytes,
            });
        }
        self.send_on(first, id);
    }
}

/// Oracle scoring: queued bytes along each KSP candidate, walking the
/// candidate's links into directed channels from `src`.
fn least_queued(
    fabric: &Fabric,
    ksp: &KspSelector,
    src: NodeId,
    dst: NodeId,
    key: u64,
) -> Vec<u32> {
    let candidates = ksp.candidate_paths(src, dst);
    let mut best: Option<(u64, u64, &Vec<u32>)> = None;
    for (i, links) in candidates.iter().enumerate() {
        let mut u = src;
        let mut queued = 0u64;
        for &l in links {
            let ch = fabric.link_channel(l, u);
            u = fabric.channels.to_node[ch as usize];
            queued += fabric.channels.queue_bytes(ch);
        }
        let tie = hash3(key, i as u64, 0x07AC1E);
        if best.is_none_or(|(q, t, _)| (queued, tie) < (q, t)) {
            best = Some((queued, tie, links));
        }
    }
    best.expect("ksp returns at least one path").2.clone()
}

/// Builds the channel path server→…→server for a flowlet into `path`;
/// `false` when the selector has no route for the pair (post-fault
/// view).
fn build_path(
    fabric: &Fabric,
    selector: &dyn PathSelector,
    oracle: Option<&KspSelector>,
    f: &Flow,
    key: u64,
    bytes_sent: u64,
    path: &mut Vec<u32>,
) -> bool {
    let up = fabric.host_ch_base + 2 * f.src_server;
    let down = fabric.host_ch_base + 2 * f.dst_server + 1;
    path.clear();
    path.push(up);
    if f.src_tor != f.dst_tor {
        let links = match oracle {
            Some(ksp) => least_queued(fabric, ksp, f.src_tor, f.dst_tor, key),
            None => {
                selector.select_with_feedback(f.src_tor, f.dst_tor, key, bytes_sent, f.ecn_total)
            }
        };
        if links.is_empty() {
            return false;
        }
        let mut u = f.src_tor;
        for l in links {
            let ch = fabric.link_channel(l, u);
            path.push(ch);
            u = fabric.channels.to_node[ch as usize];
        }
        debug_assert_eq!(u, f.dst_tor);
    }
    path.push(down);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::compute_metrics;
    use crate::types::{MS, SEC, US};
    use dcn_routing::RoutingSuite;
    use dcn_topology::fattree::FatTree;
    use dcn_topology::xpander::Xpander;
    use dcn_workloads::tm::Endpoint;

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

    fn fat_tree_sim() -> Simulator {
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default())
    }

    #[test]
    fn path_table_grows_with_distinct_routes_not_flowlets() {
        // A zero flowlet gap makes every send instant a new flowlet.
        let t = FatTree::full(4).build();
        let cfg = SimConfig {
            flowlet_gap_ns: 0,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&t, Box::new(RoutingSuite::new(&t).ecmp()), cfg);
        sim.inject(&[flow(0.0, (0, 0), (12, 1), 3_000_000)]);
        assert!(sim.run(SEC)[0].fct_ns.is_some());
        assert!(sim.flow_ref(0).flowlet_count >= 1_000);
        // The pods are joined by k²/4 = 4 equal-cost core routes; the ACKs
        // ride their reversals, which add no entries.
        assert_eq!(sim.paths.len(), 4);
    }

    /// A port builds its queue the first time a packet waits there: after
    /// one flow on an idle fabric, every port that holds a queue carried
    /// the flow's data or ACKs, and the other ports hold none.
    #[test]
    fn only_ports_a_lone_flow_crossed_hold_a_queue() {
        use std::collections::HashSet;
        use std::sync::{Arc, Mutex};
        /// Records the channel of every transmission.
        struct Hops(Arc<Mutex<HashSet<u32>>>);
        impl Tracer for Hops {
            fn event(&mut self, _t: Ns, ev: &TraceEvent) {
                if let TraceEvent::Dequeue { ch, .. } = ev {
                    self.0.lock().unwrap().insert(*ch);
                }
            }
        }
        let t = FatTree::full(4).build();
        for cfg in [SimConfig::default(), SimConfig::default().with_pfabric()] {
            let mut sim = Simulator::new(&t, Box::new(RoutingSuite::new(&t).ecmp()), cfg);
            let hops = Arc::new(Mutex::new(HashSet::new()));
            sim.set_tracer(Box::new(Hops(Arc::clone(&hops))));
            sim.inject(&[flow(0.0, (0, 0), (12, 1), 1_000_000)]);
            assert!(sim.run(SEC)[0].fct_ns.is_some());
            let (hops, chs) = (hops.lock().unwrap(), &sim.fabric.channels);
            let queues: Vec<u32> = (0..chs.len() as u32)
                .filter(|&ch| chs.has_queue(ch))
                .collect();
            assert!(!queues.is_empty(), "the sender's window waits at its NIC");
            assert!(
                queues.iter().all(|ch| hops.contains(ch)),
                "queues {queues:?} outside the flow's hops {hops:?}"
            );
            assert!(hops.len() < chs.len() / 4, "one flow crosses few ports");
        }
    }

    #[test]
    fn single_small_flow_completes_fast() {
        let mut sim = fat_tree_sim();
        // Rack 0 server 0 → rack 12 (other pod) server 1, 10 KB.
        sim.inject(&[flow(0.0, (0, 0), (12, 1), 10_000)]);
        let rec = sim.run(SEC);
        let fct = rec[0].fct_ns.expect("flow must finish");
        // 7 packets, cwnd 10 ⇒ one window: ~6 hops × (1.2 µs + 0.1 µs).
        assert!(fct > 5 * US && fct < 100 * US, "fct {fct} ns");
    }

    #[test]
    fn long_flow_achieves_near_line_rate() {
        let mut sim = fat_tree_sim();
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 10_000_000)]);
        let rec = sim.run(10 * SEC);
        let fct = rec[0].fct_ns.unwrap() as f64;
        let gbps = 10_000_000.0 * 8.0 / fct;
        assert!(gbps > 8.0, "throughput {gbps} Gbps");
    }

    #[test]
    fn same_rack_flow_works() {
        let mut sim = fat_tree_sim();
        sim.inject(&[flow(0.0, (0, 0), (0, 1), 100_000)]);
        let rec = sim.run(SEC);
        assert!(rec[0].fct_ns.is_some());
    }

    #[test]
    fn two_flows_share_bottleneck_fairly() {
        // Two senders on different racks to the same destination server:
        // the server downlink is the bottleneck; DCTCP should split it.
        let mut sim = fat_tree_sim();
        sim.inject(&[
            flow(0.0, (0, 0), (12, 0), 5_000_000),
            flow(0.0, (4, 0), (12, 0), 5_000_000),
        ]);
        let rec = sim.run(30 * SEC);
        let f0 = rec[0].fct_ns.unwrap() as f64;
        let f1 = rec[1].fct_ns.unwrap() as f64;
        // Each gets ≈5 Gbps ⇒ ≈8 ms; allow generous slack.
        for f in [f0, f1] {
            let gbps = 5_000_000.0 * 8.0 / f;
            assert!(gbps > 3.0 && gbps < 7.5, "per-flow {gbps} Gbps");
        }
        assert!((f0 / f1 - 1.0).abs() < 0.5, "unfair split {f0} vs {f1}");
    }

    #[test]
    fn ecn_prevents_drops_at_moderate_fanin() {
        let mut sim = fat_tree_sim();
        sim.inject(&[
            flow(0.0, (0, 0), (12, 0), 2_000_000),
            flow(0.0, (4, 0), (12, 0), 2_000_000),
        ]);
        sim.run(30 * SEC);
        assert!(sim.total_marks() > 0, "DCTCP should be marking");
        assert_eq!(sim.total_drops(), 0, "ECN should prevent drops");
    }

    #[test]
    fn survives_heavy_incast_with_drops() {
        // 8-to-1 incast into one server at tiny queues: drops happen but
        // all flows still complete via retransmission.
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let cfg = SimConfig {
            queue_pkts: 10,
            ecn_k_pkts: 4,
            ..Default::default()
        };
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
        let racks = [4u32, 5, 8, 9];
        let flows: Vec<FlowEvent> = (0..8)
            .map(|i| flow(0.0, (racks[i % 4], (i / 4) as u32), (0, 0), 500_000))
            .collect();
        sim.inject(&flows);
        let rec = sim.run(60 * SEC);
        assert!(sim.total_drops() > 0, "expected drops at queue=10");
        for r in &rec {
            assert!(r.fct_ns.is_some(), "flow lost to incast");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = fat_tree_sim();
            sim.inject(&[
                flow(0.0, (0, 0), (12, 0), 1_000_000),
                flow(0.0001, (4, 1), (8, 1), 300_000),
                flow(0.0002, (8, 0), (0, 1), 50_000),
            ]);
            sim.run(10 * SEC)
                .iter()
                .map(|r| r.fct_ns)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn vlb_and_hyb_complete_on_xpander() {
        let t = Xpander::new(5, 8, 2, 3).build();
        for mode in 0..3 {
            let suite = RoutingSuite::new(&t);
            let sel: Box<dyn PathSelector> = match mode {
                0 => Box::new(suite.ecmp()),
                1 => Box::new(suite.vlb()),
                _ => Box::new(suite.hyb(dcn_routing::PAPER_Q_BYTES)),
            };
            let mut sim = Simulator::new(&t, sel, SimConfig::default());
            sim.inject(&[
                flow(0.0, (0, 0), (1, 0), 2_000_000),
                flow(0.0, (2, 1), (7, 1), 50_000),
            ]);
            let rec = sim.run(10 * SEC);
            assert!(
                rec.iter().all(|r| r.fct_ns.is_some()),
                "mode {mode} incomplete"
            );
        }
    }

    #[test]
    fn newreno_fills_queues_where_dctcp_marks() {
        // Same fan-in: DCTCP keeps queues at K via marks; NewReno runs
        // them into tail drops instead.
        let t = FatTree::full(4).build();
        let mk = |cfg: SimConfig| {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
            sim.inject(&[
                flow(0.0, (0, 0), (12, 0), 4_000_000),
                flow(0.0, (4, 0), (12, 0), 4_000_000),
            ]);
            let rec = sim.run(60 * SEC);
            assert!(rec.iter().all(|r| r.fct_ns.is_some()));
            (sim.total_marks(), sim.total_drops())
        };
        let (dctcp_marks, dctcp_drops) = mk(SimConfig::default());
        let (_, reno_drops) = mk(SimConfig::default().with_newreno());
        assert!(dctcp_marks > 0);
        assert_eq!(dctcp_drops, 0, "DCTCP should avoid drops here");
        assert!(reno_drops > 0, "NewReno should be loss-driven");
    }

    #[test]
    fn pfabric_completes_and_never_marks() {
        // The new transport/queue pair runs end-to-end through the same
        // engine: fan-in traffic completes, schedules by remaining size,
        // and produces no ECN marks (pFabric has no marking).
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(
            &t,
            Box::new(suite.ecmp()),
            SimConfig::default().with_pfabric(),
        );
        assert_eq!(sim.transport_name(), "pfabric");
        sim.inject(&[
            flow(0.0, (0, 0), (12, 0), 4_000_000),
            flow(0.0, (4, 0), (12, 0), 4_000_000),
            flow(0.0, (8, 0), (12, 0), 50_000),
        ]);
        let rec = sim.run(60 * SEC);
        assert!(rec.iter().all(|r| r.fct_ns.is_some()), "pfabric incomplete");
        assert_eq!(sim.total_marks(), 0, "pfabric must not ECN-mark");
        // Strict priority: the short flow finishes far ahead of the long
        // ones it shares the destination downlink with.
        let short = rec[2].fct_ns.unwrap();
        let long = rec[0].fct_ns.unwrap().min(rec[1].fct_ns.unwrap());
        assert!(
            short * 10 < long,
            "short flow {short} ns should preempt long {long} ns"
        );
    }

    #[test]
    fn pfabric_deterministic_across_runs() {
        let run = || {
            let t = FatTree::full(4).build();
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(
                &t,
                Box::new(suite.ecmp()),
                SimConfig::default().with_pfabric(),
            );
            sim.inject(&[
                flow(0.0, (0, 0), (12, 0), 1_000_000),
                flow(0.0001, (4, 1), (8, 1), 300_000),
            ]);
            sim.run(10 * SEC)
                .iter()
                .map(|r| r.fct_ns)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn oracle_routing_beats_ecmp_between_neighbors() {
        // The Fig 7b pathology: all traffic between two adjacent racks.
        // ECMP is stuck on the direct link; the oracle spreads flowlets
        // over the least-queued of the k shortest paths.
        let t = Xpander::new(5, 8, 3, 3).build();
        let l = t.link(0);
        let flows: Vec<FlowEvent> = (0..6)
            .map(|i| flow(0.0, (l.a, i % 3), (l.b, (i + 1) % 3), 3_000_000))
            .collect();
        let run = |oracle: bool| {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
            if oracle {
                sim.enable_oracle_routing(&t, 8);
            }
            sim.inject(&flows);
            let rec = sim.run(60 * SEC);
            rec.iter().map(|r| r.fct_ns.unwrap()).max().unwrap()
        };
        let ecmp = run(false);
        let oracle = run(true);
        assert!(
            (oracle as f64) < ecmp as f64 * 0.75,
            "oracle {oracle} not clearly better than ecmp {ecmp}"
        );
    }

    #[test]
    fn oracle_routing_deterministic() {
        let t = Xpander::new(4, 6, 2, 1).build();
        let run = || {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
            sim.enable_oracle_routing(&t, 4);
            sim.inject(&[
                flow(0.0, (0, 0), (9, 1), 800_000),
                flow(0.0001, (3, 1), (12, 0), 500_000),
            ]);
            sim.run(30 * SEC)
                .iter()
                .map(|r| r.fct_ns)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn window_gating_stops_run() {
        let mut sim = fat_tree_sim();
        sim.set_window(0, MS);
        sim.inject(&[
            flow(0.0, (0, 0), (12, 0), 10_000),
            // Outside the window; the run may stop before it finishes.
            flow(1.0, (4, 0), (8, 0), 10_000),
        ]);
        let rec = sim.run(10 * SEC);
        assert!(rec[0].fct_ns.is_some());
        let m = compute_metrics(&rec, 0, MS);
        assert_eq!(m.flows, 1);
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn flow_survives_link_down_then_up() {
        // Kill the only inter-rack link mid-flow, restore it later: the
        // flow must lose packets to the fault, stall, and still finish
        // after recovery.
        let t = {
            let mut t = dcn_topology::Topology::new("two-racks");
            let a = t.add_node(dcn_topology::NodeKind::Tor, 2);
            let b = t.add_node(dcn_topology::NodeKind::Tor, 2);
            t.add_link(a, b);
            t
        };
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (1, 0), 5_000_000)]);
        sim.set_fault_plan(&FaultPlan::new().link_down(MS, 0).link_up(20 * MS, 0));
        let rec = sim.run(60 * SEC);
        assert!(sim.total_fault_drops() > 0, "no packets hit the dead link");
        let fct = rec[0].fct_ns.expect("flow must finish after recovery");
        assert!(!rec[0].failed);
        // 5 MB at 10 Gbps is ~4 ms; the 19 ms outage dominates the FCT.
        assert!(
            fct > 19 * MS,
            "fct {fct} ns too fast to have seen the outage"
        );
        let recovery = rec[0].recovery_ns.expect("flow should have recovered");
        assert!(recovery > 0 && recovery < 40 * MS, "recovery {recovery} ns");
    }

    #[test]
    fn fault_drops_separate_from_congestion_drops() {
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 2_000_000)]);
        // Take down one of ToR 0's uplinks, which the flow may hash onto;
        // ECMP re-salts around it via RTO, no congestion drops expected.
        let l = t.neighbors(0)[0].1;
        sim.set_fault_plan(&FaultPlan::new().link_down(0, l).link_up(30 * MS, l));
        sim.run(60 * SEC);
        assert_eq!(sim.total_congestion_drops(), 0);
        assert_eq!(sim.total_drops(), sim.total_fault_drops());
    }

    #[test]
    fn gray_link_drops_but_flow_completes() {
        let t = {
            let mut t = dcn_topology::Topology::new("two-racks");
            let a = t.add_node(dcn_topology::NodeKind::Tor, 1);
            let b = t.add_node(dcn_topology::NodeKind::Tor, 1);
            t.add_link(a, b);
            t
        };
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (1, 0), 1_000_000)]);
        sim.set_fault_plan(&FaultPlan::new().with_seed(7).link_gray(0, 0, 0.02));
        let rec = sim.run(60 * SEC);
        assert!(
            sim.total_fault_drops() > 0,
            "2% loss should hit ~685 packets"
        );
        assert_eq!(sim.total_congestion_drops(), 0);
        assert!(rec[0].fct_ns.is_some(), "flow must survive gray loss");
    }

    #[test]
    fn gray_loss_is_reproducible() {
        // Counter-based gray draws are keyed on (plan seed, channel,
        // per-channel draw index), so the same plan replays exactly.
        let t = FatTree::full(4).build();
        let run = || {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
            sim.inject(&[
                flow(0.0, (0, 0), (12, 0), 1_000_000),
                flow(0.0, (4, 0), (12, 1), 1_000_000),
            ]);
            let l = t.neighbors(0)[0].1;
            sim.set_fault_plan(
                &FaultPlan::new()
                    .with_seed(11)
                    .link_gray(0, l, 0.01)
                    .link_down(2 * MS, l)
                    .link_up(8 * MS, l),
            );
            let rec = sim.run(60 * SEC);
            (
                rec.iter()
                    .map(|r| (r.fct_ns, r.failed, r.recovery_ns))
                    .collect::<Vec<_>>(),
                sim.total_fault_drops(),
                sim.events_processed(),
            )
        };
        let base = run();
        assert!(base.1 > 0, "the gray link must drop packets");
        assert_eq!(run(), base);
    }

    #[test]
    fn permanent_disconnection_fails_flows() {
        // Two racks joined by one link; cutting it forever must fail the
        // inter-rack flow (after reconvergence) while the same-rack flow
        // completes — and the run must terminate, not hang.
        let t = {
            let mut t = dcn_topology::Topology::new("two-racks");
            let a = t.add_node(dcn_topology::NodeKind::Tor, 2);
            let b = t.add_node(dcn_topology::NodeKind::Tor, 2);
            t.add_link(a, b);
            t
        };
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[
            flow(0.0, (0, 0), (1, 0), 5_000_000),
            flow(0.0, (0, 0), (0, 1), 100_000),
        ]);
        sim.set_fault_plan(&FaultPlan::new().link_down(MS, 0));
        let rec = sim.run(60 * SEC);
        assert!(rec[0].failed, "disconnected flow must be failed");
        assert!(rec[0].fct_ns.is_none());
        assert!(rec[1].fct_ns.is_some(), "same-rack flow unaffected");
        let m = compute_metrics(&rec, 0, SEC);
        assert_eq!(m.flows, 2);
        assert_eq!(m.completed + m.failed, 2);
    }

    #[test]
    fn switch_down_and_up_behaves_like_links() {
        // Killing an aggregation switch in a k=4 fat-tree leaves 3 others;
        // flows reroute and complete. ToR 0's rack is NOT behind it.
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 2_000_000)]);
        // Node ids: ToRs come first (16), then aggs. Kill the first agg.
        let agg = (0..t.num_nodes() as u32)
            .find(|&n| t.kind(n) == dcn_topology::NodeKind::Aggregation)
            .unwrap();
        sim.set_fault_plan(
            &FaultPlan::new()
                .switch_down(MS, agg)
                .switch_up(10 * MS, agg),
        );
        let rec = sim.run(60 * SEC);
        assert!(rec[0].fct_ns.is_some(), "flow must survive an agg failure");
    }

    #[test]
    fn rto_backoff_doubles_then_resets_on_ack() {
        // Drive repeated RTOs by cutting the only link, then verify the
        // documented backoff law on the private flow state: doubling per
        // epoch, capped at 64, reset to 1 by the first new ACK.
        let t = {
            let mut t = dcn_topology::Topology::new("two-racks");
            let a = t.add_node(dcn_topology::NodeKind::Tor, 1);
            let b = t.add_node(dcn_topology::NodeKind::Tor, 1);
            t.add_link(a, b);
            t
        };
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (1, 0), 1_000_000)]);
        sim.set_fault_plan(&FaultPlan::new().link_down(0, 0).link_up(400 * MS, 0));
        // Long outage ⇒ many RTO epochs: 1,2,4,...,64,64,... Run up to
        // just before recovery and check the cap was reached.
        sim.run(399 * MS);
        assert_eq!(
            sim.flow_ref(0).rto_backoff,
            64,
            "backoff should saturate at 64"
        );
        assert!(
            sim.flow_ref(0).path_salt > 0,
            "RTOs must re-salt the path hash"
        );
        // Fresh sim, same plan, run to completion: new ACKs reset backoff.
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (1, 0), 1_000_000)]);
        sim.set_fault_plan(&FaultPlan::new().link_down(0, 0).link_up(400 * MS, 0));
        let rec = sim.run(60 * SEC);
        assert!(rec[0].fct_ns.is_some());
        assert_eq!(
            sim.flow_ref(0).rto_backoff,
            1,
            "ACKs must reset the backoff"
        );
    }

    /// Every processed TxFree starts the next transmission: on pFabric's
    /// reordering ports the TxFree count equals the packets that left a
    /// queue (queued, minus evicted, minus still waiting), through
    /// evictions; FIFO ports (tail drops, dead and gray links) run on the
    /// departure clock and process none. The per-kind counts add up to
    /// the events processed, and fired RTOs match the traced ones.
    #[test]
    fn no_processed_tx_free_finds_an_empty_queue() {
        use crate::trace::CountingTracer;
        let t = FatTree::full(4).build();
        let racks = [4u32, 5, 8, 9];
        let incast: Vec<FlowEvent> = (0..8)
            .map(|i| flow(0.0, (racks[i % 4], (i / 4) as u32), (0, 0), 300_000))
            .chain([flow(0.0001, (0, 1), (12, 1), 2_000_000)])
            .collect();
        let shallow = SimConfig {
            queue_pkts: 10,
            ecn_k_pkts: 4,
            ..Default::default()
        };
        let l = t.neighbors(0)[0].1;
        let faults = FaultPlan::new()
            .with_seed(3)
            .link_down(MS, l)
            .link_up(5 * MS, l)
            .link_gray(0, t.neighbors(12)[0].1, 0.02);
        let cases = [
            (shallow, None),
            (
                SimConfig {
                    queue_pkts: 10,
                    ..SimConfig::default().with_newreno()
                },
                None,
            ),
            (
                SimConfig {
                    queue_pkts: 6,
                    ..SimConfig::default().with_pfabric()
                },
                None,
            ),
            (shallow, Some(faults)),
        ];
        for (i, (cfg, plan)) in cases.into_iter().enumerate() {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
            sim.set_tracer(Box::new(CountingTracer::new()));
            sim.inject(&incast);
            if let Some(p) = &plan {
                sim.set_fault_plan(p);
            }
            let rec = sim.run(60 * SEC);
            assert!(rec.iter().all(|r| r.fct_ns.is_some()), "case {i}");
            let c = sim.trace_counters().unwrap();
            let queued: u64 = c.per_channel.iter().map(|ch| ch.enqueues).sum();
            let evicted: u64 = c.per_channel.iter().map(|ch| ch.drops_eviction).sum();
            let chans = &sim.fabric.channels;
            let waiting: u64 = (0..chans.len() as u32)
                .map(|ch| chans.queue_len(ch) as u64)
                .sum();
            let n = sim.engine_counters().events;
            assert!(n.rto_fired > 0, "case {i}: {n:?}");
            if chans.fifo {
                assert_eq!(n.tx_free, 0, "case {i}");
            } else {
                assert!(n.tx_free > 0, "case {i}: {n:?}");
                assert_eq!(n.tx_free, queued - evicted - waiting, "case {i}");
            }
            assert_eq!(n.rto_fired, c.rtos, "case {i}");
            assert_eq!(n.flow_start, incast.len() as u64, "case {i}");
            let by_kind = n.flow_start + n.tx_free + n.deliver + n.rto_fired + n.rto_stale;
            assert_eq!(
                by_kind + sim.ctrl_pos as u64,
                sim.events_processed(),
                "case {i}"
            );
        }
    }

    #[test]
    fn goodput_timeline_accounts_all_bytes() {
        let mut sim = fat_tree_sim();
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 3_000_000)]);
        sim.run(60 * SEC);
        let total: u64 = sim.goodput_timeline_ms().iter().sum();
        // The run stops when the receiver finishes, so up to one window of
        // final ACKs may never reach the sender's accounting.
        assert!(total <= 3_000_000, "timeline over-credits: {total}");
        assert!(total > 2_800_000, "timeline under-credits: {total}");
    }

    #[test]
    #[should_panic(expected = "event budget exceeded")]
    fn watchdog_trips_on_event_budget() {
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let cfg = SimConfig {
            max_events: 50,
            ..Default::default()
        };
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 10_000_000)]);
        sim.run(60 * SEC);
    }

    #[test]
    fn unconstrained_server_links_speed_up_fanin() {
        // With 1000 Gbps host links, two senders into one server are no
        // longer bottlenecked at the destination downlink.
        let t = FatTree::full(4).build();
        let mk = |cfg: SimConfig| {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
            sim.inject(&[
                flow(0.0, (0, 0), (12, 0), 3_000_000),
                flow(0.0, (4, 0), (12, 0), 3_000_000),
            ]);
            let rec = sim.run(30 * SEC);
            rec.iter().map(|r| r.fct_ns.unwrap()).max().unwrap()
        };
        let constrained = mk(SimConfig::default());
        let unconstrained = mk(SimConfig::default().unconstrained_servers());
        assert!(
            (unconstrained as f64) < constrained as f64 * 0.8,
            "unconstrained {unconstrained} vs constrained {constrained}"
        );
    }
}
