//! Engine self-observability counters.
//!
//! [`EngineCounters`] is a pure function of the event schedule: calendar
//! occupancy high-water, ladder spills, arena live/high-water, and the
//! processed data-plane events by kind ([`EventCounts`]). Same seed ⇒
//! identical values; they snapshot and restore through checkpoints
//! exactly, and the determinism suite asserts both properties.
//!
//! The calendar and arena counters sit inside branches that already
//! execute rarely (ladder migration, slab growth); the per-kind event
//! counts are one increment per event. `bench perf
//! --check` holds the engine to its blessed no-observability throughput
//! floor (`BENCH_sim.json`) with all of this in place.

/// The deterministic counter set for a whole run; see the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// High-water mark of the calendar's pending-event population.
    pub calendar_peak: u64,
    /// Ladder→ring migrations: events that sat beyond the ring horizon
    /// and were re-filed into buckets as the cursor advanced.
    pub ladder_spills: u64,
    /// Packets live in the arena right now.
    pub arena_live: u64,
    /// High-water mark of live packets in the arena.
    pub arena_high_water: u64,
    /// Processed data-plane events by kind.
    pub events: EventCounts,
}

/// Processed data-plane events by kind. Together with the control-plane
/// events (faults, reconvergence) they sum to
/// [`Simulator::events_processed`](crate::Simulator::events_processed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Flow arrivals.
    pub flow_start: u64,
    /// Transmitter frees on reordering ports (pFabric). The engine pushes
    /// one only behind a queued packet, so every one of them starts the
    /// next transmission. FIFO ports run on the departure clock and push
    /// none, so a tail-drop run counts 0.
    pub tx_free: u64,
    /// Packet arrivals at the far end of a channel.
    pub deliver: u64,
    /// Retransmission timeouts that expired and ran go-back-N.
    pub rto_fired: u64,
    /// Timer events that did no recovery: the flow's live timer reaching
    /// a deadline re-armed since (it moves on to the new one), a timer
    /// superseded by an earlier deadline, or one outliving its flow.
    pub rto_stale: u64,
}
