//! Engine self-observability counters.
//!
//! [`EngineCounters`] is a pure function of the event schedule: calendar
//! occupancy high-water, ladder spills, counting-scatter fallbacks, and
//! arena live/high-water. Same seed ⇒ identical values; they snapshot and
//! restore through checkpoints exactly, and the determinism suite asserts
//! both properties.
//!
//! The counters live off the per-event hot path: the calendar and arena
//! counters sit inside branches that already execute rarely (ladder
//! migration, scatter fallback, slab growth). The `trace_overhead` bench
//! gate holds the engine to its blessed no-observability throughput floor
//! with all of this in place.

/// The deterministic counter set for a whole run; see the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// High-water mark of the calendar's pending-event population.
    pub calendar_peak: u64,
    /// Ladder→ring migrations: events that sat beyond the ring horizon
    /// and were re-filed into buckets as the cursor advanced.
    pub ladder_spills: u64,
    /// Sub-bucket sorts that fell back from the counting scatter to a
    /// comparison sort (per-`t` seq monotonicity broken by a ladder
    /// migration).
    pub scatter_fallbacks: u64,
    /// Packets live in the arena right now.
    pub arena_live: u64,
    /// High-water mark of live packets in the arena.
    pub arena_high_water: u64,
}
