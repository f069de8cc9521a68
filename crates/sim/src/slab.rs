//! A slab arena for in-flight packets.
//!
//! The per-packet hot path used to allocate a `Box<Packet>` per send and
//! free it at delivery or drop; every queue hop moved the box between
//! heap-allocated containers. [`PacketArena`] replaces that with one
//! dense `Vec<Packet>` indexed by [`PktId`] (a `u32`): events and queue
//! disciplines carry ids, allocation is a free-list pop that overwrites
//! a slot in place, and freeing pushes the id back. Steady state does no
//! allocator work at all and keeps packet state contiguous.
//!
//! # Id lifetimes
//!
//! A [`PktId`] is live from [`PacketArena::alloc`] until exactly one
//! [`PacketArena::free`] — at end-host delivery, at a fault/congestion
//! drop, or at a priority eviction. Ids are aggressively reused (the
//! free list is LIFO, so a just-delivered data packet's slot usually
//! hosts the ACK it triggers), which means a stale id will often index a
//! *valid but different* packet. Debug builds therefore track liveness
//! per slot and assert on use-after-free and double-free; the CI chaos
//! soak runs with `debug-assertions` on to catch id-reuse bugs under
//! fault churn.

use crate::types::Packet;

/// Dense arena index of an in-flight packet.
pub type PktId = u32;

/// Slab allocator for [`Packet`]s; see the module docs.
pub struct PacketArena {
    slots: Vec<Packet>,
    free: Vec<PktId>,
    /// High-water carried over from a checkpoint restore. `slots` only
    /// grows when every slot is live, so `slots.len()` is itself the
    /// organic live high-water; a restored arena starts from the
    /// snapshot's live set and would forget the original's peak without
    /// this floor. See [`PacketArena::high_water`].
    restored_hwm: usize,
    /// Liveness per slot, kept only when debug assertions are on: catches
    /// use-after-free and double-free at the first bad access instead of
    /// letting a recycled id corrupt an unrelated packet.
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl PacketArena {
    pub fn new() -> Self {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            restored_hwm: 0,
            #[cfg(debug_assertions)]
            live: Vec::new(),
        }
    }

    /// Number of live packets.
    pub fn live_count(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// High-water mark of live packets over the run (across checkpoint
    /// restores). A new slot is pushed only when every existing slot is
    /// live, so the slot count tracks the organic peak for free — no
    /// hot-path bookkeeping.
    pub fn high_water(&self) -> usize {
        self.slots.len().max(self.restored_hwm)
    }

    /// Restore-path setter: carries a checkpointed high-water mark into a
    /// freshly repopulated arena.
    pub fn set_high_water(&mut self, hwm: usize) {
        self.restored_hwm = hwm;
    }

    #[inline]
    pub fn alloc(&mut self, p: Packet) -> PktId {
        match self.free.pop() {
            Some(id) => {
                #[cfg(debug_assertions)]
                {
                    debug_assert!(!self.live[id as usize], "alloc into a live slot");
                    self.live[id as usize] = true;
                }
                // Overwrite in place: a packet is a plain `Copy` value,
                // so the old one needs no drop.
                self.slots[id as usize] = p;
                id
            }
            None => {
                let id = self.slots.len() as PktId;
                self.slots.push(p);
                #[cfg(debug_assertions)]
                self.live.push(true);
                id
            }
        }
    }

    #[inline]
    pub fn free(&mut self, id: PktId) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.live[id as usize], "double free of packet id {id}");
            self.live[id as usize] = false;
        }
        self.free.push(id);
    }

    #[inline]
    pub fn get(&self, id: PktId) -> &Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[id as usize], "use after free of packet id {id}");
        &self.slots[id as usize]
    }

    #[inline]
    pub fn get_mut(&mut self, id: PktId) -> &mut Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[id as usize], "use after free of packet id {id}");
        &mut self.slots[id as usize]
    }
}

impl Default for PacketArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathId;

    fn pkt(flow: u32) -> Packet {
        Packet {
            flow,
            seq: 0,
            bytes: 1500,
            ecn_ce: false,
            is_ack: false,
            ack_ecn: false,
            ts: 0,
            hop: 0,
            prio: 0,
            path: PathId::default(),
        }
    }

    #[test]
    fn alloc_free_reuses_slots() {
        let mut a = PacketArena::new();
        let x = a.alloc(pkt(1));
        let y = a.alloc(pkt(2));
        assert_ne!(x, y);
        assert_eq!(a.live_count(), 2);
        assert_eq!(a.high_water(), 2);
        assert_eq!(a.get(x).flow, 1);
        a.free(x);
        assert_eq!(a.live_count(), 1);
        let z = a.alloc(pkt(3));
        assert_eq!(z, x, "LIFO free list should hand the slot back");
        assert_eq!(a.get(z).flow, 3);
        a.get_mut(y).ecn_ce = true;
        assert!(a.get(y).ecn_ce);
        assert_eq!(a.high_water(), 2, "slot reuse must not raise the peak");
    }

    #[test]
    fn restored_high_water_floors_the_organic_one() {
        let mut a = PacketArena::new();
        a.alloc(pkt(1));
        a.set_high_water(7);
        assert_eq!(a.high_water(), 7);
        for f in 2..=9 {
            a.alloc(pkt(f));
        }
        assert_eq!(a.high_water(), 9, "organic growth overtakes the floor");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "use after free")]
    fn debug_build_catches_use_after_free() {
        let mut a = PacketArena::new();
        let x = a.alloc(pkt(1));
        a.free(x);
        let _ = a.get(x);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn debug_build_catches_double_free() {
        let mut a = PacketArena::new();
        let x = a.alloc(pkt(1));
        a.free(x);
        a.free(x);
    }
}
