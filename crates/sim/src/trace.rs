//! The observability layer: structured event tracing and conservation
//! checking.
//!
//! The engine reports every packet-level state change — enqueue, dequeue,
//! delivery, each drop flavor, ECN marks, ACK progress, RTOs, flowlet and
//! path decisions, fault transitions — to a [`Tracer`] installed with
//! [`crate::Simulator::set_tracer`]. Three implementations ship:
//!
//! - [`NopTracer`] — the default. Reports `enabled() == false`, so the
//!   engine skips event construction entirely: untraced runs pay one
//!   predictable branch per site and stay byte-identical to the
//!   pre-tracing simulator.
//! - [`CountingTracer`] — folds events into [`TraceCounters`]
//!   (per-channel occupancy high-water marks, marks, drops by cause,
//!   global packet accounting) without storing the stream. This is what
//!   the invariant tests and the [`check_conservation`] checker consume.
//! - [`JsonlTracer`] — writes one compact JSON object per event to any
//!   `Write` sink via `dcn-json`. All numeric fields are integers, so the
//!   byte stream is exactly reproducible: same seed + same config ⇒
//!   byte-identical trace. The golden-trace regression tests diff these.
//!
//! Event schema (JSONL): every line is `{"t": <ns>, "ev": "<name>", ...}`.
//! Channel ids (`ch`) use the fabric numbering (link `l` → channels `2l`
//! and `2l+1`, then per-server up/down pairs); `flow` is the injection
//! index; `seq` is the packet index within the flow (for ACKs, the
//! cumulative count carried). A `dequeue` whose transmission begins
//! after its `t` names the begin time as `start`, so `t` never runs
//! backwards.

use crate::engine::Simulator;
use crate::stats::TraceCounters;
use crate::types::Ns;
use dcn_json::Json;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// One structured simulator event. All fields are plain integers/bools
/// (gray-loss probabilities become parts-per-million) so every rendering
/// is byte-stable; channel/flow ids use the engine's numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A flow began transmitting (`src`/`dst` are global server ids).
    FlowStart {
        flow: u32,
        src: u32,
        dst: u32,
        bytes: u64,
        pkts: u32,
    },
    /// The receiver saw the last in-order packet.
    FlowFinish { flow: u32, fct_ns: Ns },
    /// The simulator terminated the flow (disconnected or run over).
    FlowFail { flow: u32 },
    /// A packet was created at a host (data at the sender, ACKs at the
    /// receiver). The conservation identity counts these.
    Send {
        flow: u32,
        seq: u32,
        is_ack: bool,
        bytes: u32,
    },
    /// The packet joined a busy channel's queue; `qlen`/`qbytes` are the
    /// occupancy *after* the enqueue (the high-water-mark source).
    Enqueue {
        ch: u32,
        flow: u32,
        seq: u32,
        is_ack: bool,
        qlen: u32,
        qbytes: u64,
    },
    /// The packet's transmission was scheduled to begin at `start`.
    /// Packets offered to an idle channel dequeue immediately (`start` is
    /// the record's own `t`) without a matching enqueue. A FIFO port
    /// schedules a queued packet when it is enqueued, so its record
    /// follows the `enqueue` at the same `t` and carries the later
    /// `start`; a reordering port (pFabric) emits it when the
    /// transmission begins.
    Dequeue {
        ch: u32,
        flow: u32,
        seq: u32,
        is_ack: bool,
        start: Ns,
    },
    /// The packet reached its end host.
    Deliver { flow: u32, seq: u32, is_ack: bool },
    /// The queue discipline set CE on the packet.
    EcnMark { ch: u32, flow: u32, seq: u32 },
    /// The discipline rejected the offered packet (tail drop).
    DropCongestion {
        ch: u32,
        flow: u32,
        seq: u32,
        is_ack: bool,
    },
    /// A queued packet was evicted to admit a more urgent one (pFabric);
    /// `flow`/`seq` identify the victim.
    DropEviction { ch: u32, flow: u32, seq: u32 },
    /// Lost on a dead or gray channel.
    DropFault {
        ch: u32,
        flow: u32,
        seq: u32,
        is_ack: bool,
    },
    /// Refused at the source: the selector had no route. The packet was
    /// never created, so conservation accounts these separately.
    DropNoRoute { flow: u32 },
    /// An ACK reached the sender; `cwnd_bytes` is the window after the
    /// transport's reaction.
    Ack {
        flow: u32,
        cum: u32,
        ecn: bool,
        rtt_ns: Ns,
        cwnd_bytes: u64,
    },
    /// A retransmission timeout fired; `backoff` is the new multiplier.
    Rto { flow: u32, backoff: u32 },
    /// The RTO re-salted the flowlet hash to steer off the old path.
    PathReselect { flow: u32, salt: u64 },
    /// A new flowlet chose a path of `hops` channels.
    FlowletSwitch { flow: u32, flowlet: u64, hops: u32 },
    /// A scheduled fault fired; `id` is the link/switch, `loss_ppm` the
    /// gray-loss probability in parts per million (0 for hard faults).
    Fault {
        kind: &'static str,
        id: u32,
        loss_ppm: u32,
    },
    /// The control plane finished rebuilding routes.
    Reconverge { epoch: u64 },
}

impl TraceEvent {
    /// The `"ev"` tag used in the JSONL schema.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::FlowStart { .. } => "flow_start",
            TraceEvent::FlowFinish { .. } => "flow_finish",
            TraceEvent::FlowFail { .. } => "flow_fail",
            TraceEvent::Send { .. } => "send",
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::Dequeue { .. } => "dequeue",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::EcnMark { .. } => "ecn_mark",
            TraceEvent::DropCongestion { .. } => "drop_congestion",
            TraceEvent::DropEviction { .. } => "drop_eviction",
            TraceEvent::DropFault { .. } => "drop_fault",
            TraceEvent::DropNoRoute { .. } => "drop_noroute",
            TraceEvent::Ack { .. } => "ack",
            TraceEvent::Rto { .. } => "rto",
            TraceEvent::PathReselect { .. } => "path_reselect",
            TraceEvent::FlowletSwitch { .. } => "flowlet_switch",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Reconverge { .. } => "reconverge",
        }
    }
}

/// Receives structured simulator events. Implementations must be cheap:
/// the engine calls [`Tracer::event`] from the hot path of every traced
/// run. `enabled()` is sampled once at install time — return `false`
/// (as [`NopTracer`] does) and the engine will not even construct events.
pub trait Tracer: Send {
    /// One simulator event at time `t`.
    fn event(&mut self, t: Ns, ev: &TraceEvent);

    /// Whether the engine should construct and deliver events at all.
    fn enabled(&self) -> bool {
        true
    }

    /// The folded counters, for tracers that maintain them.
    fn counters(&self) -> Option<&TraceCounters> {
        None
    }

    /// Monotone-clock violations seen so far, for tracers that watch for
    /// them ([`CountingTracer`]); `None` means not tracked.
    fn time_regressions(&self) -> Option<u64> {
        None
    }

    /// Called once when the run ends (flush buffers, close streams).
    fn finish(&mut self) {}

    /// Checkpoint support: the tracer's resumable state, or `None` when
    /// this tracer cannot be checkpointed (e.g. it streams to an
    /// arbitrary in-memory sink) — [`crate::Simulator::checkpoint`] then
    /// fails cleanly.
    fn snapshot(&self) -> Option<TracerSnapshot> {
        None
    }

    /// Checkpoint support: pushes buffered output to the underlying sink
    /// *without* ending the run, so the bytes on disk always cover the
    /// cursor a concurrent [`Tracer::snapshot`] reports.
    fn flush_output(&mut self) {}
}

/// Resumable tracer state captured by [`Tracer::snapshot`] and persisted
/// in checkpoints; [`TracerSnapshot::resume`] rebuilds the matching
/// tracer from it on restore.
#[derive(Clone, Debug)]
pub enum TracerSnapshot {
    /// The disabled default tracer.
    Nop,
    /// A [`CountingTracer`]'s folded counters and clock-monotonicity
    /// state.
    Counting {
        counters: TraceCounters,
        last_t: Ns,
        time_regressions: u64,
    },
    /// A file-backed [`JsonlTracer`]: final output path plus the byte and
    /// line cursors into its in-progress temporary file.
    JsonlFile {
        path: String,
        bytes: u64,
        lines: u64,
    },
}

impl TracerSnapshot {
    /// The tracer this snapshot was taken of, continuing where it stood;
    /// a JSONL file tracer reopens and truncates its temporary file.
    pub(crate) fn resume(self) -> Result<Box<dyn Tracer>, String> {
        Ok(match self {
            TracerSnapshot::Nop => Box::new(NopTracer),
            TracerSnapshot::Counting {
                counters,
                last_t,
                time_regressions,
            } => Box::new(CountingTracer {
                counters,
                last_t,
                time_regressions,
            }),
            TracerSnapshot::JsonlFile { path, bytes, lines } => Box::new(
                JsonlTracer::resume(&path, bytes, lines)
                    .map_err(|e| format!("cannot resume trace file {path}: {e}"))?,
            ),
        })
    }
}

/// The default tracer: drops everything, reports itself disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NopTracer;

impl Tracer for NopTracer {
    fn event(&mut self, _t: Ns, _ev: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }

    fn snapshot(&self) -> Option<TracerSnapshot> {
        Some(TracerSnapshot::Nop)
    }
}

/// Folds events into [`TraceCounters`] without storing the stream. Also
/// tracks clock monotonicity: event timestamps must never run backwards,
/// and the chaos-fuzz harness asserts
/// [`CountingTracer::time_regressions`] stays zero.
#[derive(Debug, Default)]
pub struct CountingTracer {
    pub(crate) counters: TraceCounters,
    /// Timestamp of the latest event seen.
    pub(crate) last_t: Ns,
    /// Events whose timestamp was earlier than a previously seen one.
    pub(crate) time_regressions: u64,
}

impl CountingTracer {
    pub fn new() -> Self {
        CountingTracer::default()
    }

    /// Events observed with a timestamp earlier than an already-seen one
    /// (0 on every well-behaved run — the monotone-clock invariant).
    pub fn time_regressions(&self) -> u64 {
        self.time_regressions
    }
}

impl Tracer for CountingTracer {
    fn event(&mut self, t: Ns, ev: &TraceEvent) {
        if t < self.last_t {
            self.time_regressions += 1;
        } else {
            self.last_t = t;
        }
        self.counters.record(ev);
    }

    fn counters(&self) -> Option<&TraceCounters> {
        Some(&self.counters)
    }

    fn time_regressions(&self) -> Option<u64> {
        Some(self.time_regressions)
    }

    fn snapshot(&self) -> Option<TracerSnapshot> {
        Some(TracerSnapshot::Counting {
            counters: self.counters.clone(),
            last_t: self.last_t,
            time_regressions: self.time_regressions,
        })
    }
}

/// Streams events as JSON Lines: one compact object per event. All
/// numeric fields are integers so traces are byte-stable across runs.
///
/// File-backed tracers ([`JsonlTracer::create`] / [`JsonlTracer::resume`])
/// are crash-safe: they stream into `<path>.tmp` and atomically rename to
/// the final path in [`Tracer::finish`], so an interrupted run never
/// leaves a truncated trace at the advertised location — and a resumed run
/// can truncate the temporary back to the checkpointed byte cursor and
/// continue it.
pub struct JsonlTracer<W: Write + Send> {
    out: io::BufWriter<W>,
    lines: u64,
    /// Bytes written (rendered lines + newlines) — the resume cursor.
    bytes: u64,
    /// Final output path for file-backed tracers (`None` for plain
    /// sinks); when set, data lives at `<path>.tmp` until `finish`.
    path: Option<String>,
}

impl JsonlTracer<std::fs::File> {
    /// Streams events toward `path`, writing through `<path>.tmp` until
    /// the run finishes (then renames into place).
    pub fn create(path: &str) -> io::Result<Self> {
        let f = std::fs::File::create(format!("{path}.tmp"))?;
        let mut t = JsonlTracer::new(f);
        t.path = Some(path.to_string());
        Ok(t)
    }

    /// Reopens the in-progress temporary for `path`, truncates it back to
    /// `bytes` (discarding lines written after the checkpoint), and
    /// continues appending from there.
    pub fn resume(path: &str, bytes: u64, lines: u64) -> io::Result<Self> {
        use std::io::Seek;
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(format!("{path}.tmp"))?;
        f.set_len(bytes)?;
        f.seek(io::SeekFrom::End(0))?;
        let mut t = JsonlTracer::new(f);
        t.path = Some(path.to_string());
        t.bytes = bytes;
        t.lines = lines;
        Ok(t)
    }
}

impl<W: Write + Send> JsonlTracer<W> {
    pub fn new(sink: W) -> Self {
        JsonlTracer {
            out: io::BufWriter::new(sink),
            lines: 0,
            bytes: 0,
            path: None,
        }
    }

    /// Events written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Bytes written so far (the checkpoint resume cursor).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl<W: Write + Send> Tracer for JsonlTracer<W> {
    fn event(&mut self, t: Ns, ev: &TraceEvent) {
        self.lines += 1;
        let line = event_json(t, ev).to_string();
        self.bytes += line.len() as u64 + 1;
        writeln!(self.out, "{line}").expect("trace sink write failed");
    }

    fn finish(&mut self) {
        self.out.flush().expect("trace sink flush failed");
        if let Some(path) = &self.path {
            std::fs::rename(format!("{path}.tmp"), path).expect("trace file rename failed");
        }
    }

    fn snapshot(&self) -> Option<TracerSnapshot> {
        self.path.as_ref().map(|p| TracerSnapshot::JsonlFile {
            path: p.clone(),
            bytes: self.bytes,
            lines: self.lines,
        })
    }

    fn flush_output(&mut self) {
        self.out.flush().expect("trace sink flush failed");
    }
}

/// A clonable in-memory `Write` sink, for capturing a [`JsonlTracer`]
/// stream in tests: keep one clone, hand the other to the tracer, and
/// read [`SharedBuf::contents`] after the run.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn new() -> Self {
        SharedBuf::default()
    }

    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Renders one event as the JSONL object (without the trailing newline).
pub fn event_json(t: Ns, ev: &TraceEvent) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![("t", Json::from(t)), ("ev", Json::from(ev.name()))];
    match *ev {
        TraceEvent::FlowStart {
            flow,
            src,
            dst,
            bytes,
            pkts,
        } => {
            fields.push(("flow", Json::from(flow)));
            fields.push(("src", Json::from(src)));
            fields.push(("dst", Json::from(dst)));
            fields.push(("bytes", Json::from(bytes)));
            fields.push(("pkts", Json::from(pkts)));
        }
        TraceEvent::FlowFinish { flow, fct_ns } => {
            fields.push(("flow", Json::from(flow)));
            fields.push(("fct", Json::from(fct_ns)));
        }
        TraceEvent::FlowFail { flow } => fields.push(("flow", Json::from(flow))),
        TraceEvent::Send {
            flow,
            seq,
            is_ack,
            bytes,
        } => {
            fields.push(("flow", Json::from(flow)));
            fields.push(("seq", Json::from(seq)));
            fields.push(("ack", Json::from(is_ack)));
            fields.push(("bytes", Json::from(bytes)));
        }
        TraceEvent::Enqueue {
            ch,
            flow,
            seq,
            is_ack,
            qlen,
            qbytes,
        } => {
            fields.push(("ch", Json::from(ch)));
            fields.push(("flow", Json::from(flow)));
            fields.push(("seq", Json::from(seq)));
            fields.push(("ack", Json::from(is_ack)));
            fields.push(("qlen", Json::from(qlen)));
            fields.push(("qbytes", Json::from(qbytes)));
        }
        TraceEvent::Dequeue {
            ch,
            flow,
            seq,
            is_ack,
            start,
        } => {
            fields.push(("ch", Json::from(ch)));
            fields.push(("flow", Json::from(flow)));
            fields.push(("seq", Json::from(seq)));
            fields.push(("ack", Json::from(is_ack)));
            if start != t {
                fields.push(("start", Json::from(start)));
            }
        }
        TraceEvent::DropCongestion {
            ch,
            flow,
            seq,
            is_ack,
        }
        | TraceEvent::DropFault {
            ch,
            flow,
            seq,
            is_ack,
        } => {
            fields.push(("ch", Json::from(ch)));
            fields.push(("flow", Json::from(flow)));
            fields.push(("seq", Json::from(seq)));
            fields.push(("ack", Json::from(is_ack)));
        }
        TraceEvent::DropEviction { ch, flow, seq } | TraceEvent::EcnMark { ch, flow, seq } => {
            fields.push(("ch", Json::from(ch)));
            fields.push(("flow", Json::from(flow)));
            fields.push(("seq", Json::from(seq)));
        }
        TraceEvent::DropNoRoute { flow } => fields.push(("flow", Json::from(flow))),
        TraceEvent::Deliver { flow, seq, is_ack } => {
            fields.push(("flow", Json::from(flow)));
            fields.push(("seq", Json::from(seq)));
            fields.push(("ack", Json::from(is_ack)));
        }
        TraceEvent::Ack {
            flow,
            cum,
            ecn,
            rtt_ns,
            cwnd_bytes,
        } => {
            fields.push(("flow", Json::from(flow)));
            fields.push(("cum", Json::from(cum)));
            fields.push(("ecn", Json::from(ecn)));
            fields.push(("rtt", Json::from(rtt_ns)));
            fields.push(("cwnd", Json::from(cwnd_bytes)));
        }
        TraceEvent::Rto { flow, backoff } => {
            fields.push(("flow", Json::from(flow)));
            fields.push(("backoff", Json::from(backoff)));
        }
        TraceEvent::PathReselect { flow, salt } => {
            fields.push(("flow", Json::from(flow)));
            fields.push(("salt", Json::from(salt)));
        }
        TraceEvent::FlowletSwitch {
            flow,
            flowlet,
            hops,
        } => {
            fields.push(("flow", Json::from(flow)));
            fields.push(("flowlet", Json::from(flowlet)));
            fields.push(("hops", Json::from(hops)));
        }
        TraceEvent::Fault { kind, id, loss_ppm } => {
            fields.push(("kind", Json::from(kind)));
            fields.push(("id", Json::from(id)));
            if loss_ppm > 0 {
                fields.push(("loss_ppm", Json::from(loss_ppm)));
            }
        }
        TraceEvent::Reconverge { epoch } => fields.push(("epoch", Json::from(epoch))),
    }
    Json::obj(fields)
}

/// Summary of the packet-conservation check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conservation {
    /// Packets created (data + ACKs).
    pub sent: u64,
    /// Packets that reached their end host.
    pub delivered: u64,
    /// Packets lost after creation (congestion + eviction + fault).
    pub dropped: u64,
    /// Packets still queued or on the wire when the run stopped.
    pub in_flight: u64,
}

/// Asserts the conservation invariant over a finished (or stopped) run:
/// every packet created was delivered, dropped with a recorded cause, or
/// is still in flight — and the tracer's counters agree with the fabric's
/// own accounting. Requires a [`CountingTracer`] (or any tracer exposing
/// [`TraceCounters`]) installed before the run. No-route drops are
/// checked separately: those packets are refused at the source and never
/// created.
pub fn check_conservation(sim: &Simulator) -> Result<Conservation, String> {
    let c = sim
        .trace_counters()
        .ok_or("check_conservation: no counting tracer installed")?;
    let drops = &c.drops;
    if c.marks != sim.total_marks() {
        return Err(format!(
            "mark mismatch: tracer {} vs fabric {}",
            c.marks,
            sim.total_marks()
        ));
    }
    if drops.congestion + drops.eviction != sim.total_congestion_drops() {
        return Err(format!(
            "congestion-drop mismatch: tracer {}+{} vs fabric {}",
            drops.congestion,
            drops.eviction,
            sim.total_congestion_drops()
        ));
    }
    if drops.fault + drops.noroute != sim.total_fault_drops() {
        return Err(format!(
            "fault-drop mismatch: tracer {}+{} vs fabric {}",
            drops.fault,
            drops.noroute,
            sim.total_fault_drops()
        ));
    }
    let sum = Conservation {
        sent: c.sent_data + c.sent_acks,
        delivered: c.delivered_data + c.delivered_acks,
        dropped: drops.congestion + drops.eviction + drops.fault,
        in_flight: sim.packets_in_flight(),
    };
    if sum.sent != sum.delivered + sum.dropped + sum.in_flight {
        return Err(format!(
            "conservation violated: sent {} != delivered {} + dropped {} + in-flight {}",
            sum.sent, sum.delivered, sum.dropped, sum.in_flight
        ));
    }
    // The engine keeps its own sent/delivered counters (for manifests and
    // telemetry, which must work without a tracer); they must agree with
    // the tracer's event-derived view.
    let own = sim.conservation();
    if (own.sent, own.delivered) != (sum.sent, sum.delivered) {
        return Err(format!(
            "intrinsic-counter mismatch: engine sent/delivered {}/{} vs tracer {}/{}",
            own.sent, own.delivered, sum.sent, sum.delivered
        ));
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_tracer_is_disabled() {
        assert!(!NopTracer.enabled());
        assert!(NopTracer.counters().is_none());
    }

    #[test]
    fn counting_tracer_folds_events() {
        let mut t = CountingTracer::new();
        t.event(
            0,
            &TraceEvent::Send {
                flow: 1,
                seq: 0,
                is_ack: false,
                bytes: 1500,
            },
        );
        t.event(
            10,
            &TraceEvent::Enqueue {
                ch: 3,
                flow: 1,
                seq: 0,
                is_ack: false,
                qlen: 2,
                qbytes: 3000,
            },
        );
        t.event(
            20,
            &TraceEvent::EcnMark {
                ch: 3,
                flow: 1,
                seq: 0,
            },
        );
        t.event(
            30,
            &TraceEvent::DropCongestion {
                ch: 3,
                flow: 1,
                seq: 1,
                is_ack: false,
            },
        );
        t.event(
            40,
            &TraceEvent::Deliver {
                flow: 1,
                seq: 0,
                is_ack: false,
            },
        );
        let c = t.counters().unwrap();
        assert_eq!(c.sent_data, 1);
        assert_eq!(c.delivered_data, 1);
        assert_eq!(c.marks, 1);
        assert_eq!(c.drops.congestion, 1);
        assert_eq!(c.drops.total(), 1);
        let ch = &c.per_channel[3];
        assert_eq!(ch.enqueues, 1);
        assert_eq!(ch.hwm_pkts, 2);
        assert_eq!(ch.hwm_bytes, 3000);
        assert_eq!(ch.marks, 1);
        assert_eq!(ch.drops_congestion, 1);
    }

    #[test]
    fn jsonl_lines_are_single_objects_with_integer_fields() {
        let buf = SharedBuf::new();
        let mut t = JsonlTracer::new(buf.clone());
        t.event(
            1200,
            &TraceEvent::Enqueue {
                ch: 7,
                flow: 2,
                seq: 5,
                is_ack: false,
                qlen: 1,
                qbytes: 1500,
            },
        );
        t.event(1300, &TraceEvent::Reconverge { epoch: 2 });
        t.finish();
        assert_eq!(t.lines(), 2);
        let s = String::from_utf8(buf.contents()).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"t": 1200, "ev": "enqueue", "ch": 7, "flow": 2, "seq": 5, "ack": false, "qlen": 1, "qbytes": 1500}"#
        );
        assert_eq!(lines[1], r#"{"t": 1300, "ev": "reconverge", "epoch": 2}"#);
        // Round-trips through the parser.
        for l in lines {
            let v = Json::parse(l).unwrap();
            assert!(v.get("t").unwrap().as_u64().is_some());
            assert!(v.get("ev").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn every_event_kind_renders_with_t_and_ev_first() {
        let events = [
            TraceEvent::FlowStart {
                flow: 0,
                src: 1,
                dst: 2,
                bytes: 9,
                pkts: 1,
            },
            TraceEvent::FlowFinish { flow: 0, fct_ns: 5 },
            TraceEvent::FlowFail { flow: 0 },
            TraceEvent::Send {
                flow: 0,
                seq: 0,
                is_ack: true,
                bytes: 40,
            },
            TraceEvent::Enqueue {
                ch: 0,
                flow: 0,
                seq: 0,
                is_ack: false,
                qlen: 0,
                qbytes: 0,
            },
            TraceEvent::Dequeue {
                ch: 0,
                flow: 0,
                seq: 0,
                is_ack: false,
                start: 77,
            },
            TraceEvent::Deliver {
                flow: 0,
                seq: 0,
                is_ack: false,
            },
            TraceEvent::EcnMark {
                ch: 0,
                flow: 0,
                seq: 0,
            },
            TraceEvent::DropCongestion {
                ch: 0,
                flow: 0,
                seq: 0,
                is_ack: false,
            },
            TraceEvent::DropEviction {
                ch: 0,
                flow: 0,
                seq: 0,
            },
            TraceEvent::DropFault {
                ch: 0,
                flow: 0,
                seq: 0,
                is_ack: false,
            },
            TraceEvent::DropNoRoute { flow: 0 },
            TraceEvent::Ack {
                flow: 0,
                cum: 1,
                ecn: false,
                rtt_ns: 2,
                cwnd_bytes: 3,
            },
            TraceEvent::Rto {
                flow: 0,
                backoff: 2,
            },
            TraceEvent::PathReselect { flow: 0, salt: 1 },
            TraceEvent::FlowletSwitch {
                flow: 0,
                flowlet: 1,
                hops: 3,
            },
            TraceEvent::Fault {
                kind: "link_down",
                id: 4,
                loss_ppm: 0,
            },
            TraceEvent::Reconverge { epoch: 1 },
        ];
        for ev in &events {
            let line = event_json(77, ev).to_string();
            assert!(
                line.starts_with(&format!(r#"{{"t": 77, "ev": "{}""#, ev.name())),
                "bad prefix: {line}"
            );
            // Byte-stability: no float rendering anywhere.
            assert!(!line.contains(".0"), "float leaked into {line}");
            assert!(Json::parse(&line).is_ok(), "unparseable: {line}");
        }
    }

    #[test]
    fn gray_fault_loss_renders_as_ppm_integer() {
        let line = event_json(
            5,
            &TraceEvent::Fault {
                kind: "link_gray",
                id: 3,
                loss_ppm: 20_000,
            },
        )
        .to_string();
        assert_eq!(
            line,
            r#"{"t": 5, "ev": "fault", "kind": "link_gray", "id": 3, "loss_ppm": 20000}"#
        );
    }
}
