//! Interned channel paths.
//!
//! A flowlet's packets all follow one source route, and every ACK
//! retraces its data packet's route backwards. `PathTable` stores each
//! distinct route once per run, together with its reversal, and hands
//! out a [`PathId`] for it: packets and flows carry the 4-byte id, and a
//! switch hop reads its next channel out of one flat array.
//!
//! Layout: entry `e` (the `e`-th distinct route, in first-seen order) is
//! two ids, `2e` for the route as interned and `2e + 1` for its reversal
//! — the same links walked the other way, each channel swapped for its
//! partner (`c ^ 1`). [`PathId::reversed`] is therefore a bit flip. All
//! channel lists sit back to back in one `Vec<u32>`, indexed CSR-style by
//! id. The content index covers both directions, so a route that is the
//! reversal of one already seen (B→A traffic after A→B) gets the
//! existing id. The table only grows: its size is the number of distinct
//! routes, not the number of flowlets.

use dcn_routing::ecmp::hash3;

/// Routes longer than this many channels cannot be interned: a packet's
/// hop index is a `u8`.
pub(crate) const MAX_PATH_CHANNELS: usize = u8::MAX as usize;

/// A route interned in a run's path table (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathId(u32);

impl PathId {
    /// The same route walked backwards (an ACK's path).
    #[inline]
    pub fn reversed(self) -> PathId {
        PathId(self.0 ^ 1)
    }
}

/// One run's interned channel paths; see the module docs.
pub(crate) struct PathTable {
    /// Every id's channel list, back to back in id order.
    chans: Vec<u32>,
    /// `start[id]..start[id + 1]` is `id`'s span of `chans`.
    start: Vec<u32>,
    /// Open-addressing content index over every id: `id + 1` per slot,
    /// 0 for empty. Its length is a power of two, at most half full.
    slots: Vec<u32>,
}

impl Default for PathTable {
    fn default() -> Self {
        PathTable {
            chans: Vec::new(),
            start: vec![0],
            slots: vec![0; 16],
        }
    }
}

fn content_hash(chans: &[u32]) -> u64 {
    chans
        .iter()
        .fold(chans.len() as u64, |h, &c| hash3(h, c as u64, 0x9A7B))
}

impl PathTable {
    /// Number of distinct routes interned (each with its reversal).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ids() / 2
    }

    fn ids(&self) -> usize {
        self.start.len() - 1
    }

    /// The channels of `id`, first hop first.
    #[inline]
    pub(crate) fn channels(&self, id: PathId) -> &[u32] {
        let i = id.0 as usize;
        &self.chans[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// The channel a packet on `id` traverses at hop `hop`.
    #[inline]
    pub(crate) fn hop(&self, id: PathId, hop: u8) -> u32 {
        let i = id.0 as usize;
        let at = self.start[i] as usize + hop as usize;
        debug_assert!(
            at < self.start[i + 1] as usize,
            "hop past the end of the path"
        );
        self.chans[at]
    }

    /// The id of the route `chans`, interning it (and its reversal) on
    /// first sight.
    ///
    /// # Panics
    ///
    /// If `chans` has more than `MAX_PATH_CHANNELS` channels.
    pub(crate) fn intern(&mut self, chans: &[u32]) -> PathId {
        assert!(
            chans.len() <= MAX_PATH_CHANNELS,
            "a {}-channel path exceeds the {MAX_PATH_CHANNELS}-channel limit",
            chans.len()
        );
        let slot = match self.find(chans) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let fwd = PathId(u32::try_from(self.ids()).expect("path table exceeds 2^32 ids"));
        self.chans.extend_from_slice(chans);
        self.push_end();
        self.chans.extend(chans.iter().rev().map(|c| c ^ 1));
        self.push_end();
        self.slots[slot] = fwd.0 + 1;
        self.index(fwd.reversed());
        if 2 * self.ids() > self.slots.len() {
            self.rehash(2 * self.slots.len());
        }
        fwd
    }

    fn push_end(&mut self) {
        let end = u32::try_from(self.chans.len()).expect("path table exceeds 2^32 channels");
        self.start.push(end);
    }

    /// `Ok(id)` when `chans` is interned, else `Err` with the empty slot
    /// where its probe sequence ends.
    fn find(&self, chans: &[u32]) -> Result<PathId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = content_hash(chans) as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if self.channels(PathId(s - 1)) == chans => return Ok(PathId(s - 1)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Adds `id` to the index. A reversal equal to its forward route
    /// lands behind it in the probe sequence and is never found; lookups
    /// return the forward id.
    fn index(&mut self, id: PathId) {
        let mask = self.slots.len() - 1;
        let mut i = content_hash(self.channels(id)) as usize & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = id.0 + 1;
    }

    fn rehash(&mut self, size: usize) {
        self.slots = vec![0; size];
        for id in 0..self.ids() as u32 {
            self.index(PathId(id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_channels_share_one_id_and_reversal_is_an_involution() {
        let mut t = PathTable::default();
        let a = t.intern(&[8, 2, 5, 11]);
        let b = t.intern(&[8, 2, 5, 11]);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.channels(a.reversed()), [10, 4, 3, 9]);
        assert_eq!(a.reversed().reversed(), a);
        assert_eq!(t.channels(a.reversed().reversed()), [8, 2, 5, 11]);
        assert_eq!(t.hop(a, 2), 5);
        assert_eq!(t.hop(a.reversed(), 0), 10);
    }

    #[test]
    fn a_reversal_seen_later_gets_the_existing_id() {
        let mut t = PathTable::default();
        let a = t.intern(&[8, 2, 5, 11]);
        assert_eq!(t.intern(&[10, 4, 3, 9]), a.reversed());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_go_out_in_first_seen_order() {
        let mut t = PathTable::default();
        let ids: Vec<PathId> = (0..5u32)
            .map(|k| t.intern(&[2 * k, 40, 2 * k + 7]))
            .collect();
        assert_eq!(ids, (0..5).map(|e| PathId(2 * e)).collect::<Vec<_>>());
    }

    #[test]
    fn index_survives_growth() {
        let mut t = PathTable::default();
        let paths: Vec<Vec<u32>> = (0..2_000u32).map(|k| vec![k, k * 7 + 1, 90_000]).collect();
        let ids: Vec<PathId> = paths.iter().map(|p| t.intern(p)).collect();
        assert_eq!(t.len(), 2_000);
        for (p, &id) in paths.iter().zip(&ids) {
            assert_eq!(t.intern(p), id);
            assert_eq!(t.channels(id), &p[..]);
        }
    }

    #[test]
    fn self_reversing_route_keeps_its_forward_id() {
        let mut t = PathTable::default();
        let a = t.intern(&[4, 5]);
        assert_eq!(t.channels(a.reversed()), [4, 5]);
        assert_eq!(t.intern(&[4, 5]), a);
        t.rehash(64);
        assert_eq!(t.intern(&[4, 5]), a);
    }

    #[test]
    #[should_panic(expected = "channel limit")]
    fn overlong_route_is_refused() {
        PathTable::default().intern(&[0; MAX_PATH_CHANNELS + 1]);
    }
}
