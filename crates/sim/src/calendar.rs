//! The calendar/ladder event queue behind the engine's hot loop.
//!
//! [`CalendarQueue`] replaces the engine's former single global
//! `BinaryHeap` with a ring of fixed-width time buckets plus an overflow
//! ladder:
//!
//! - **ring** — `num_slots` buckets of `2^WIDTH_BITS` ns (1024 ns ≈ the
//!   serialization time of an MTU packet at 10 Gbps, the link-latency
//!   horizon most events land in). A bucket is an unsorted list of
//!   fixed-size blocks of [`BLOCK`] entries, drawn from one pool shared
//!   by every slot; pushing a near-future event is an O(1) append to the
//!   slot's tail block plus one bit in an occupancy bitset. Draining a
//!   slot returns its blocks to the pool's free list, so ring memory
//!   follows the events pending in the ring, not the largest burst each
//!   slot ever held.
//! - **current bucket** — when the cursor reaches an occupied bucket its
//!   events are scattered into `2^SUB_BITS` *sub-buckets* (32 ns each).
//!   Each sub-bucket is sorted once when the sub-cursor reaches it
//!   (descending, so popping is `Vec::pop` off the back) and drained in
//!   exact `(t, seq)` order. Sub-bucketing matters because nearly half of
//!   all events are scheduled *into* the bucket being drained (an ACK's
//!   serialization time is ~50 ns): with sub-buckets those pushes are O(1)
//!   appends to a later sub-bucket instead of binary-heap churn. Only
//!   pushes into the *active* (already-sorted) sub-bucket — i.e. less than
//!   32 ns ahead, which essentially never happens — take a side heap, and
//!   each pop takes the smaller of the two fronts.
//! - **overflow ladder** — events beyond the ring horizon (RTO timers at
//!   ≥1 ms, far-future flow starts, fault events) sit in a conventional
//!   binary heap and migrate into ring buckets as the cursor advances.
//!
//! # Why determinism survives
//!
//! Pop order is **exactly** the `(t, seq)`-lexicographic order a global
//! `BinaryHeap` produces. Buckets partition events by `t >> WIDTH_BITS`,
//! so strictly increasing bucket index implies strictly increasing `t`;
//! within the current bucket a min-heap on `(t, seq)` serves ties in
//! insertion (`seq`) order, which is the tiebreak the old heap used. The
//! ladder only ever holds events *beyond* the ring horizon, and every
//! cursor advance first migrates newly-in-horizon ladder events into
//! their buckets, so nothing can be popped late.
//!
//! `seq` is one increment per push, so entries reach every structure in
//! `seq` order and same-`t` ties pop in push order. The counting scatter
//! relies on it: within one `t`, a sub-bucket's entries arrive in
//! ascending `seq` (ring slots and sub-buckets are appended in push
//! order, ladder migrations leave the ladder in `(t, seq)` order, and
//! [`CalendarQueue::grow`] re-files the ladder sorted).
//!
//! # Ladder spill and migration invariants
//!
//! With `nb = num_slots` buckets and the cursor at absolute bucket
//! `cur_abs`:
//!
//! - the current bucket holds events with `abs == cur_abs`,
//! - ring slot `abs % nb` holds events with `abs ∈ (cur_abs, cur_abs + nb]`
//!   (each such `abs` maps to a distinct slot),
//! - the ladder holds events with `abs > cur_abs + nb`.
//!
//! An advance moves `cur_abs` to the next occupied slot (a cyclic bitset
//! scan) or, when the ring is empty, jumps straight to the ladder's
//! earliest bucket; it then drains every ladder event with
//! `abs <= cur_abs + nb` into the ring. Slots skipped by the advance are
//! empty by construction, so migrated events can never collide with
//! stale ones.
//!
//! The ring doubles (up to [`MAX_SLOTS`]) whenever the ladder outgrows
//! `4 × num_slots`, amortizing redistribution.
//!
//! Because the ring/ladder/sub-bucket partition is a pure function of the
//! ring size, the cursor (`cur_abs`, active sub-bucket), and the pending
//! event set, [`CalendarQueue::from_items`] rebuilds a checkpointed queue
//! into the partition it had (each part's entries in key order rather
//! than push order, which the sorts do not see): the restored queue pops
//! in the same order *and* spills and grows exactly as the original
//! would have, so the engine counters replay byte-for-byte.

use crate::engine::Ev;
use crate::types::Ns;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bucket width exponent: buckets are `2^WIDTH_BITS` ns wide.
const WIDTH_BITS: u32 = 10;
/// Initial (and minimum) ring size: 1024 buckets ≈ 1.05 ms of horizon,
/// just under the 1 ms minimum RTO so timer events take the ladder.
const MIN_SLOTS: usize = 1 << 10;
/// Growth cap: 4096 buckets ≈ 4.2 ms of horizon — wide enough that
/// steady-state RTO timers (≈2 ms out) land in the ring, small enough
/// that the slot headers stay cache-resident (wider rings measured
/// slower: far pushes miss on a big header array).
const MAX_SLOTS: usize = 1 << 12;
/// Sub-bucket split of the active bucket: `2^SUB_BITS` sub-buckets of
/// `2^(WIDTH_BITS - SUB_BITS)` ns (32 × 32 ns).
const SUB_BITS: u32 = 5;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// log2 of the sub-bucket width in ns.
const SUB_SHIFT: u32 = WIDTH_BITS - SUB_BITS;
/// Sentinel for "no sub-bucket active" (freshly advanced bucket).
const NO_SUB: u32 = u32::MAX;
/// Entries per ring block. Small enough that the ~one partly filled tail
/// block per occupied slot costs little, large enough that the link
/// chase and allocation are amortized over many appends.
const BLOCK: usize = 32;
/// End of a block list.
const NIL: u32 = u32::MAX;

/// One scheduled event: fires at `t`, with `seq` breaking same-`t` ties
/// in schedule order.
#[derive(Clone, Copy)]
pub(crate) struct CalEntry {
    pub(crate) t: Ns,
    pub(crate) seq: u64,
    pub(crate) ev: Ev,
}

impl PartialEq for CalEntry {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for CalEntry {}
impl PartialOrd for CalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CalEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        Reverse((self.t, self.seq)).cmp(&Reverse((other.t, other.seq)))
    }
}

impl CalEntry {
    /// The pop-order key: earliest `t` first, lowest `seq` breaking ties.
    #[inline]
    fn key(&self) -> (Ns, u64) {
        (self.t, self.seq)
    }
}

/// A pool block: up to [`BLOCK`] entries of one ring slot, in push order,
/// and the index of the slot's next block (or of the next free block).
#[derive(Clone, Copy)]
struct Block {
    items: [CalEntry; BLOCK],
    next: u32,
}

/// One ring slot: a list of pool blocks, all full but the tail, which
/// holds the last `(len - 1) % BLOCK + 1` entries.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
    len: 0,
};

impl Slot {
    /// The slot's entries, block by block, in push order.
    fn chunks(self, blocks: &[Block]) -> impl Iterator<Item = &[CalEntry]> {
        let (mut b, mut left) = (self.head, self.len as usize);
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let blk = &blocks[b as usize];
            let k = left.min(BLOCK);
            left -= k;
            b = blk.next;
            Some(&blk.items[..k])
        })
    }
}

/// The event queue: earliest timestamp first, insertion order (`seq`)
/// breaking ties, so identical schedules replay identically. See the
/// module docs for the bucket/ladder layout.
pub(crate) struct CalendarQueue {
    /// log2 of the bucket width in ns.
    shift: u32,
    /// `num_slots - 1` (num_slots is a power of two).
    mask: u64,
    /// Ring buckets, unsorted; slot `s` holds the single in-horizon
    /// absolute bucket with `abs % num_slots == s`, as a list of `blocks`.
    slots: Vec<Slot>,
    /// The block pool behind every ring slot.
    blocks: Vec<Block>,
    /// Head of the pool's free list (LIFO, linked through `Block::next`),
    /// or [`NIL`].
    free: u32,
    /// One bit per slot: slot is non-empty.
    occupied: Vec<u64>,
    /// The activated sub-bucket, sorted descending by `(t, seq)` so the
    /// next event to pop sits at the back.
    cur: Vec<CalEntry>,
    /// Events scheduled into the *active* sub-bucket after it was sorted
    /// (< 32 ns ahead — vanishingly rare); kept in a tiny min-heap rather
    /// than memmoved into `cur`'s sorted order.
    incoming: BinaryHeap<CalEntry>,
    /// The current bucket's not-yet-activated sub-buckets (persistent
    /// buffers, unsorted).
    subs: Vec<Vec<CalEntry>>,
    /// One bit per sub-bucket: sub-bucket is non-empty.
    sub_occ: u32,
    /// Index of the active sub-bucket, or [`NO_SUB`].
    sub_cur: u32,
    /// Events in `subs` (excludes `cur`, `incoming`, ring, and ladder).
    bucket_len: usize,
    /// Scratch buffer for the counting scatter in
    /// [`CalendarQueue::sort_cur_descending`].
    scratch: Vec<CalEntry>,
    /// Absolute index (`t >> shift`) of the current bucket.
    cur_abs: u64,
    /// Events in ring slots (excludes `cur` and the ladder).
    ring_len: usize,
    /// The overflow ladder: events beyond the ring horizon.
    overflow: BinaryHeap<CalEntry>,
    /// Total pending events.
    len: usize,
    /// Monotone push counter; the tiebreak half of every event's key.
    seq: u64,
    /// High-water mark of [`CalendarQueue::len`] — a memory-footprint
    /// proxy that run manifests report.
    pub(crate) peak: usize,
    /// Ladder→ring migrations performed by cursor advances — a pure
    /// function of the push/pop sequence (reported by the engine's
    /// deterministic counter set).
    pub(crate) ladder_spills: u64,
}

impl CalendarQueue {
    pub(crate) fn new() -> Self {
        Self::with_slots(MIN_SLOTS, 0)
    }

    fn with_slots(num_slots: usize, cur_abs: u64) -> Self {
        debug_assert!(num_slots.is_power_of_two() && num_slots >= 64);
        CalendarQueue {
            shift: WIDTH_BITS,
            mask: num_slots as u64 - 1,
            slots: vec![EMPTY_SLOT; num_slots],
            blocks: Vec::new(),
            free: NIL,
            occupied: vec![0u64; num_slots / 64],
            cur: Vec::new(),
            incoming: BinaryHeap::new(),
            subs: (0..SUB_COUNT).map(|_| Vec::new()).collect(),
            sub_occ: 0,
            sub_cur: NO_SUB,
            bucket_len: 0,
            scratch: Vec::new(),
            cur_abs,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
            peak: 0,
            ladder_spills: 0,
        }
    }

    /// The cursor: absolute index of the current bucket and the active
    /// sub-bucket (`u32::MAX` when none is active). Checkpoints record it
    /// alongside [`CalendarQueue::num_slots`] so
    /// [`CalendarQueue::from_items`] can rebuild the exact layout.
    pub(crate) fn cursor(&self) -> (u64, u32) {
        (self.cur_abs, self.sub_cur)
    }

    /// Rebuilds a queue from a checkpoint: `items` carry their original
    /// keys, in `(t, seq)` order, and the ring size and cursor are the
    /// original's, so every entry lands in the ring slot, sub-bucket or
    /// ladder it was in (in key order rather than push order there).
    pub(crate) fn from_items(
        seq: u64,
        peak: usize,
        items: Vec<CalEntry>,
        (cur_abs, sub_cur): (u64, u32),
        num_slots: usize,
    ) -> Result<Self, String> {
        if !num_slots.is_power_of_two() || !(MIN_SLOTS..=MAX_SLOTS).contains(&num_slots) {
            return Err(format!("calendar ring size {num_slots} out of range"));
        }
        if sub_cur != NO_SUB && sub_cur >= SUB_COUNT as u32 {
            return Err(format!("calendar sub-bucket cursor {sub_cur} out of range"));
        }
        // Keys strictly increase, none past the counter, and the first
        // sits in neither an earlier bucket nor an earlier sub-bucket of
        // the current one (`NO_SUB + 1` wraps to 0, below every `s + 1`).
        let pos = |t: Ns| {
            (
                t >> WIDTH_BITS,
                (t >> SUB_SHIFT) as u32 % SUB_COUNT as u32 + 1,
            )
        };
        let ok = seq < 1 << 59
            && items.windows(2).all(|w| w[0].key() < w[1].key())
            && items.iter().all(|e| e.seq <= seq)
            && (items.first()).is_none_or(|e| pos(e.t) >= (cur_abs, sub_cur.wrapping_add(1)));
        if !ok {
            return Err("calendar entries out of order or before the cursor".into());
        }
        let mut q = Self::with_slots(num_slots, cur_abs);
        q.sub_cur = sub_cur;
        q.seq = seq;
        q.peak = peak;
        for e in items {
            q.len += 1;
            q.insert(e);
        }
        Ok(q)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Ring size (checkpoints record it so restores keep the organic
    /// sizing; sizing tests read it too).
    pub(crate) fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Every pending event, in no particular order (checkpoints sort
    /// them into pop order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &CalEntry> {
        self.cur
            .iter()
            .chain(self.incoming.iter())
            .chain(self.subs.iter().flatten())
            .chain(
                self.slots
                    .iter()
                    .flat_map(|sl| sl.chunks(&self.blocks))
                    .flatten(),
            )
            .chain(self.overflow.iter())
    }

    /// Entries the ring's block pool has reserved, in use or free: the
    /// ring's memory footprint (tests bound it by the live ring
    /// population).
    #[cfg(test)]
    pub(crate) fn ring_reserved(&self) -> usize {
        self.blocks.len() * BLOCK
    }

    /// The last `seq` taken (checkpoints record it so a restored queue
    /// numbers its pushes on from there).
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Schedules `ev` at `t` under a fresh key: the next `seq`.
    pub(crate) fn push(&mut self, t: Ns, ev: Ev) {
        self.seq += 1;
        self.len += 1;
        self.peak = self.peak.max(self.len);
        self.insert(CalEntry {
            t,
            seq: self.seq,
            ev,
        });
    }

    fn insert(&mut self, e: CalEntry) {
        let abs = (e.t >> self.shift).max(self.cur_abs);
        if abs == self.cur_abs {
            self.file_current(e);
        } else {
            self.place(e, abs);
            if self.overflow.len() > self.slots.len() * 4 && self.slots.len() < MAX_SLOTS {
                self.grow();
            }
        }
    }

    /// Files an entry belonging to the current bucket: O(1) append to a
    /// later sub-bucket, or the side heap if it lands in the active one.
    fn file_current(&mut self, e: CalEntry) {
        let base = self.cur_abs << SUB_BITS;
        let mut abs_sub = (e.t >> SUB_SHIFT).max(base);
        if self.sub_cur != NO_SUB {
            abs_sub = abs_sub.max(base + self.sub_cur as u64);
        }
        let rel = (abs_sub - base) as usize;
        debug_assert!(rel < SUB_COUNT);
        if rel as u32 == self.sub_cur {
            self.incoming.push(e);
        } else {
            self.subs[rel].push(e);
            self.sub_occ |= 1 << rel;
            self.bucket_len += 1;
        }
    }

    /// Files an entry with `abs > cur_abs` into its ring slot or the
    /// ladder.
    fn place(&mut self, e: CalEntry, abs: u64) {
        if abs - self.cur_abs <= self.slots.len() as u64 {
            self.append(abs, e);
        } else {
            self.overflow.push(e);
        }
    }

    /// Appends an in-horizon entry to the tail of bucket `abs`'s slot,
    /// opening a fresh block when the tail is full.
    #[inline]
    fn append(&mut self, abs: u64, e: CalEntry) {
        let s = (abs & self.mask) as usize;
        let Slot { tail, len, .. } = self.slots[s];
        let i = len as usize % BLOCK;
        let tail = if i == 0 {
            let b = self.alloc_block();
            if len == 0 {
                self.slots[s].head = b;
            } else {
                self.blocks[tail as usize].next = b;
            }
            b
        } else {
            tail
        };
        self.blocks[tail as usize].items[i] = e;
        self.slots[s].tail = tail;
        self.slots[s].len = len + 1;
        self.occupied[s >> 6] |= 1 << (s & 63);
        self.ring_len += 1;
    }

    /// Takes a block off the free list, or carves a new one.
    fn alloc_block(&mut self) -> u32 {
        if self.free != NIL {
            let b = self.free;
            self.free = self.blocks[b as usize].next;
            self.blocks[b as usize].next = NIL;
            return b;
        }
        let e = CalEntry {
            t: 0,
            seq: 0,
            ev: Ev::FlowStart(0),
        };
        self.blocks.push(Block {
            items: [e; BLOCK],
            next: NIL,
        });
        (self.blocks.len() - 1) as u32
    }

    /// Empties slot `s`, returning its blocks to the free list whole (the
    /// head block, the likeliest to be cached, is the next one handed out).
    fn release(&mut self, s: usize) {
        let sl = std::mem::replace(&mut self.slots[s], EMPTY_SLOT);
        if sl.len > 0 {
            self.blocks[sl.tail as usize].next = self.free;
            self.free = sl.head;
        }
    }

    /// Doubles the ring and re-files every non-current event under the new
    /// horizon. `cur`, `cur_abs`, `seq`, and `len` are untouched, so pop
    /// order is unaffected. Ring entries keep their slot order; ladder
    /// entries are re-filed in `(t, seq)` order, since equal-`t` ones can
    /// share a new slot and the heap's own layout is unordered.
    fn grow(&mut self) {
        let new_slots = (self.slots.len() * 2).min(MAX_SLOTS);
        if new_slots == self.slots.len() {
            return;
        }
        let mut all: Vec<CalEntry> = Vec::with_capacity(self.ring_len + self.overflow.len());
        for sl in &self.slots {
            all.extend(sl.chunks(&self.blocks).flatten());
        }
        for s in 0..self.slots.len() {
            self.release(s);
        }
        let mut ladder = std::mem::take(&mut self.overflow).into_vec();
        ladder.sort_unstable_by_key(CalEntry::key);
        all.extend(ladder);
        self.slots = vec![EMPTY_SLOT; new_slots];
        self.occupied = vec![0u64; new_slots / 64];
        self.mask = new_slots as u64 - 1;
        self.ring_len = 0;
        for e in all {
            let abs = e.t >> self.shift;
            debug_assert!(abs > self.cur_abs);
            self.place(e, abs);
        }
    }

    /// Pops the next event (tests drive the queue directly; the engine
    /// uses [`CalendarQueue::pop_before`]).
    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<CalEntry> {
        let (from_cur, _) = self.front()?;
        self.take(from_cur)
    }

    /// Pops the next event if it fires strictly before `end` — the
    /// engine loop's fused peek-and-pop.
    #[inline]
    pub(crate) fn pop_before(&mut self, end: Ns) -> Option<CalEntry> {
        let (from_cur, t) = self.front()?;
        if t >= end {
            return None;
        }
        self.take(from_cur)
    }

    /// Timestamp of the next event to pop. `&mut` because reaching the
    /// next event may require activating its bucket.
    pub(crate) fn peek_t(&mut self) -> Option<Ns> {
        self.front().map(|(_, t)| t)
    }

    /// Locates the next event, activating its bucket if needed: whether
    /// it sits at the back of the sorted sub-bucket (`true`) or on top of
    /// the side heap (`false`), and its timestamp. Keys are unique (`seq`
    /// is a fresh counter per push), so the `<=` tie bias is immaterial.
    #[inline]
    fn front(&mut self) -> Option<(bool, Ns)> {
        if self.cur.is_empty() && self.incoming.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        match (self.cur.last(), self.incoming.peek()) {
            (Some(v), Some(h)) if v.key() <= h.key() => Some((true, v.t)),
            (_, Some(h)) => Some((false, h.t)),
            (Some(v), None) => Some((true, v.t)),
            (None, None) => None,
        }
    }

    #[inline]
    fn take(&mut self, from_cur: bool) -> Option<CalEntry> {
        self.len -= 1;
        let e = if from_cur {
            self.cur.pop()
        } else {
            self.incoming.pop()
        };
        debug_assert!(e.is_some());
        e
    }

    /// Makes the next event poppable: advances to the next ring bucket if
    /// the current one is exhausted, then activates its next occupied
    /// sub-bucket. Guaranteed to leave `cur` non-empty (caller checked
    /// `len > 0`).
    fn refill(&mut self) {
        if self.bucket_len == 0 {
            self.advance();
        }
        debug_assert!(self.bucket_len > 0);
        // Activate the next occupied sub-bucket: swap its buffer with the
        // drained `cur` (so steady state allocates nothing) and sort it
        // once, descending, so pops walk backward off the end.
        let from = self.sub_cur.wrapping_add(1); // NO_SUB wraps to 0
                                                 // Occupied bits only exist above `sub_cur` (pushes at or below it
                                                 // take the side heap), so `bucket_len > 0` implies `from` is a
                                                 // valid shift.
        debug_assert!(from < SUB_COUNT as u32);
        let m = self.sub_occ & (!0u32 << from);
        debug_assert!(m != 0, "bucket_len > 0 but no occupied sub-bucket");
        let s = m.trailing_zeros();
        self.sub_occ &= !(1 << s);
        self.sub_cur = s;
        std::mem::swap(&mut self.subs[s as usize], &mut self.cur);
        self.bucket_len -= self.cur.len();
        self.sort_cur_descending();
        debug_assert!(!self.cur.is_empty());
    }

    /// Sorts the freshly activated sub-bucket descending by `(t, seq)`.
    ///
    /// The fast path is a comparison-free counting scatter: a sub-bucket
    /// spans only `2^SUB_SHIFT` distinct `t` values, and appends arrive in
    /// ascending `seq` order per `t` (see the module docs). Group by `t`
    /// descending, reverse each group, done — one move per entry.
    fn sort_cur_descending(&mut self) {
        const NVALS: usize = 1 << SUB_SHIFT;
        let low = (1u64 << SUB_SHIFT) - 1;
        let k = self.cur.len();
        if k < 12 {
            // Too small for the counting passes to pay off; only the low
            // SUB_SHIFT bits of `t` differ here, so (t, seq) collapses
            // into one u64: t's low bits above 59 bits of seq (a push
            // counter can't plausibly reach 2^59).
            debug_assert!(self.seq < 1 << 59);
            self.cur
                .sort_unstable_by_key(|e| Reverse(((e.t & low) << 59) | e.seq));
            return;
        }
        let mut counts = [0u32; NVALS];
        let mut last = [0u64; NVALS];
        for e in &self.cur {
            let g = (e.t & low) as usize;
            counts[g] += 1;
            debug_assert!(e.seq > last[g], "entries must arrive in seq order per t");
            last[g] = e.seq;
        }
        // Descending layout: largest `t` group first. `next[g]` starts one
        // past group `g`'s end; placing each (seq-ascending) arrival at
        // `--next[g]` reverses the group into seq-descending order.
        let mut next = [0u32; NVALS];
        let mut acc = 0u32;
        for g in (0..NVALS).rev() {
            acc += counts[g];
            next[g] = acc;
        }
        let dummy = self.cur[0];
        self.scratch.clear();
        self.scratch.resize(k, dummy);
        for e in self.cur.drain(..) {
            let g = (e.t & low) as usize;
            next[g] -= 1;
            self.scratch[next[g] as usize] = e;
        }
        std::mem::swap(&mut self.cur, &mut self.scratch);
    }

    /// Moves the cursor to the next non-empty bucket and scatters its
    /// events into sub-buckets. Guaranteed to leave `bucket_len > 0`
    /// (caller checked `len > 0`).
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty() && self.incoming.is_empty() && self.len > 0);
        debug_assert!(self.bucket_len == 0 && self.sub_occ == 0);
        self.sub_cur = NO_SUB;
        if self.ring_len == 0 {
            // Everything pending sits in the ladder: jump the cursor
            // straight to its earliest bucket. The migration below then
            // moves at least that event into the current bucket.
            let top = self.overflow.peek().expect("len > 0 with empty ring");
            self.cur_abs = top.t >> self.shift;
        } else {
            self.cur_abs += self.next_occupied_offset();
            let s = (self.cur_abs & self.mask) as usize;
            self.occupied[s >> 6] &= !(1 << (s & 63));
            // Drain the slot's blocks, in push order, into sub-buckets,
            // then hand the blocks back to the pool: steady state
            // allocates nothing, and a burst's blocks serve whichever
            // slot fills next. Every entry here shares `abs == cur_abs`
            // (a slot is drained exactly when the cursor reaches it, and
            // `place` admits at most one ring-turn ahead), and no
            // sub-bucket is active yet, so the scatter is just the
            // sub-bucket bits of `t` — no clamping needed.
            let sl = self.slots[s];
            self.ring_len -= sl.len as usize;
            self.bucket_len += sl.len as usize;
            for e in sl.chunks(&self.blocks).flatten() {
                debug_assert_eq!(e.t >> self.shift, self.cur_abs);
                let rel = (e.t >> SUB_SHIFT) as usize & (SUB_COUNT - 1);
                self.subs[rel].push(*e);
                self.sub_occ |= 1 << rel;
            }
            self.release(s);
        }
        // Ladder spill: everything now within the ring horizon files into
        // its bucket (or a sub-bucket after a jump). Slots passed over by
        // the advance are empty, so no slot ever mixes two `abs` values.
        let horizon = self.cur_abs + self.slots.len() as u64;
        while let Some(top) = self.overflow.peek() {
            let abs = top.t >> self.shift;
            if abs > horizon {
                break;
            }
            let e = self.overflow.pop().expect("peeked ladder entry");
            self.ladder_spills += 1;
            if abs == self.cur_abs {
                self.file_current(e);
            } else {
                self.append(abs, e);
            }
        }
        debug_assert!(self.bucket_len > 0);
    }

    /// Cyclic distance from `cur_abs` to the next occupied slot, found by
    /// scanning the occupancy bitset a word at a time.
    fn next_occupied_offset(&self) -> u64 {
        let start = ((self.cur_abs + 1) & self.mask) as usize;
        // Tail of the word holding `start`.
        let first = self.occupied[start >> 6] & (!0u64 << (start & 63));
        if first != 0 {
            let s = (start & !63) + first.trailing_zeros() as usize;
            return self.slot_distance(s);
        }
        let words = self.occupied.len();
        for i in 1..=words {
            let w = ((start >> 6) + i) % words;
            if self.occupied[w] != 0 {
                let s = w * 64 + self.occupied[w].trailing_zeros() as usize;
                return self.slot_distance(s);
            }
        }
        unreachable!("ring_len > 0 but occupancy bitset is empty")
    }

    fn slot_distance(&self, slot: usize) -> u64 {
        let cur_slot = (self.cur_abs & self.mask) as usize;
        let nb = self.slots.len();
        let d = (slot + nb - cur_slot) % nb;
        // Distance 0 means the slot exactly one full ring ahead
        // (`abs == cur_abs + nb` maps to the cursor's own slot index).
        if d == 0 {
            nb as u64
        } else {
            d as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_rng::Rng;

    fn id_of(ev: &Ev) -> u32 {
        match ev {
            Ev::FlowStart(i) => *i,
            _ => panic!("test events are FlowStart-tagged"),
        }
    }

    /// Reference model: the exact `BinaryHeap` the engine used to run on.
    struct HeapModel {
        heap: BinaryHeap<CalEntry>,
        seq: u64,
    }

    impl HeapModel {
        fn new() -> Self {
            HeapModel {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }

        fn push(&mut self, t: Ns, ev: Ev) {
            self.seq += 1;
            let seq = self.seq;
            self.heap.push(CalEntry { t, seq, ev });
        }

        fn pop(&mut self) -> Option<(Ns, u64, u32)> {
            self.heap.pop().map(|e| (e.t, e.seq, id_of(&e.ev)))
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(500, Ev::FlowStart(0)); // current bucket
        q.push(500, Ev::FlowStart(1)); // same t: seq breaks the tie
        q.push(2_000_000, Ev::FlowStart(2)); // beyond the ring: ladder
        q.push(5_000, Ev::FlowStart(3)); // a later ring bucket
        q.push(100, Ev::FlowStart(4)); // current bucket, earlier t
        let got: Vec<(Ns, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.t, id_of(&e.ev)))
            .collect();
        assert_eq!(
            got,
            vec![(100, 4), (500, 0), (500, 1), (5_000, 3), (2_000_000, 2)]
        );
        assert_eq!(q.len(), 0);
        assert_eq!(q.peak, 5);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        q.push(3_000_000, Ev::FlowStart(0));
        q.push(10, Ev::FlowStart(1));
        assert_eq!(q.peek_t(), Some(10));
        assert_eq!(q.pop().unwrap().t, 10);
        assert_eq!(q.peek_t(), Some(3_000_000));
        assert_eq!(q.pop().unwrap().t, 3_000_000);
        assert_eq!(q.peek_t(), None);
        assert!(q.pop().is_none());
    }

    /// Satellite: across randomized insert/pop interleavings — with heavy
    /// same-timestamp ties, in-bucket inserts, ring-horizon events, and
    /// far-future ladder events — the calendar pops the exact `(t, seq)`
    /// sequence the old `BinaryHeap` produced.
    #[test]
    fn matches_binary_heap_order_under_random_interleaving() {
        let mut rng = Rng::seed_from_u64(0xCA1E_7DA2);
        for round in 0..30 {
            let mut cal = CalendarQueue::new();
            let mut model = HeapModel::new();
            let mut now: Ns = 0;
            let mut next_id = 0u32;
            for _ in 0..2_000 {
                if rng.gen_range(0.0..1.0) < 0.6 {
                    // Mix of horizons: in-bucket, ring, ladder; 25% exact
                    // ties on `now` to stress the seq tiebreak.
                    let dt = match rng.gen_range(0u64..4) {
                        0 => 0,
                        1 => rng.gen_range(0u64..2_000),
                        2 => rng.gen_range(0u64..1_000_000),
                        _ => rng.gen_range(1_000_000u64..50_000_000),
                    };
                    cal.push(now + dt, Ev::FlowStart(next_id));
                    model.push(now + dt, Ev::FlowStart(next_id));
                    next_id += 1;
                } else {
                    let want = model.pop();
                    let got = cal.pop().map(|e| (e.t, e.seq, id_of(&e.ev)));
                    assert_eq!(got, want, "round {round}: pop diverged");
                    if let Some((t, _, _)) = want {
                        now = t; // future pushes respect the clock
                    }
                }
            }
            // Drain: the tails must agree too.
            loop {
                let want = model.pop();
                let got = cal.pop().map(|e| (e.t, e.seq, id_of(&e.ev)));
                assert_eq!(got, want, "round {round}: drain diverged");
                if want.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn ladder_spills_are_counted() {
        let mut q = CalendarQueue::new();
        // One near event and one far beyond the ring horizon: draining
        // past the first advances the cursor and migrates the second.
        q.push(100, Ev::FlowStart(0));
        q.push(20_000_000, Ev::FlowStart(1));
        assert_eq!(q.ladder_spills, 0);
        assert_eq!(q.pop().unwrap().t, 100);
        assert_eq!(q.pop().unwrap().t, 20_000_000);
        assert_eq!(q.ladder_spills, 1, "the far event must migrate once");
    }

    #[test]
    fn from_items_rejects_bad_shapes() {
        assert!(CalendarQueue::from_items(0, 0, Vec::new(), (0, NO_SUB), MAX_SLOTS).is_ok());
        assert!(CalendarQueue::from_items(0, 0, Vec::new(), (0, NO_SUB), 3 * MIN_SLOTS).is_err());
        assert!(CalendarQueue::from_items(0, 0, Vec::new(), (0, NO_SUB), 2 * MAX_SLOTS).is_err());
        assert!(CalendarQueue::from_items(0, 0, Vec::new(), (0, 99), MIN_SLOTS).is_err());
        let e = |t, seq| CalEntry {
            t,
            seq,
            ev: Ev::FlowStart(0),
        };
        let ok = || vec![e(5_000, 2), e(5_000, 3), e(9_000, 1)];
        let cal = |seq, items, cursor| CalendarQueue::from_items(seq, 0, items, cursor, MIN_SLOTS);
        assert!(cal(3, ok(), (4, NO_SUB)).is_ok());
        assert!(
            cal(2, ok(), (4, NO_SUB)).is_err(),
            "an entry past the counter"
        );
        assert!(
            cal(3, ok(), (5, NO_SUB)).is_err(),
            "an entry before the cursor"
        );
        assert!(
            cal(3, ok(), (4, 29)).is_err(),
            "before the active sub-bucket"
        );
        let mut dup = ok();
        dup[1].seq = 2;
        assert!(cal(3, dup, (4, NO_SUB)).is_err(), "a repeated key");
    }

    #[test]
    fn from_items_replays_pops_and_counters_exactly() {
        // Snapshot a queue mid-drain (cursor advanced, a sub-bucket
        // active, events in ring and ladder), rebuild it, and drain both:
        // pops and spills must agree.
        let mut q = CalendarQueue::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..3_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(x % 6_000_000, Ev::FlowStart(i));
        }
        for _ in 0..700 {
            q.pop();
        }
        let mut items: Vec<CalEntry> = q.iter().copied().collect();
        items.sort_unstable_by_key(CalEntry::key);
        let mut r =
            CalendarQueue::from_items(q.seq, q.peak, items, q.cursor(), q.num_slots()).unwrap();
        // Checkpoints carry the counter itself.
        r.ladder_spills = q.ladder_spills;
        assert_eq!(r.len(), q.len());
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a.map(|e| (e.t, e.seq)), b.map(|e| (e.t, e.seq)));
            if a.is_none() {
                break;
            }
        }
        assert!(q.ladder_spills > 0, "the scenario must exercise the ladder");
        assert_eq!(r.ladder_spills, q.ladder_spills);
    }

    /// A ~1,000-event burst into each of 1,100 successive buckets, each
    /// drained before the next: every ring slot sees the burst once, yet
    /// the ring reserves only a few blocks beyond the largest population
    /// it ever held at once (a buffer per slot sized by its burst would
    /// hold ~1,024 × 1,000 entries).
    #[test]
    fn ring_storage_follows_the_live_population() {
        let mut q = CalendarQueue::new();
        let (mut id, mut peak_ring) = (0u32, 0usize);
        for b in 1..=1_100u64 {
            let burst = 990 + (b % 20) as usize;
            for i in 0..burst {
                // Bucket `b` is one ahead of the cursor: a ring slot.
                q.push((b << WIDTH_BITS) + (i as u64 % 1_024), Ev::FlowStart(id));
                id += 1;
            }
            peak_ring = peak_ring.max(q.ring_len);
            let mut last = (0, 0);
            for _ in 0..burst {
                let e = q.pop().expect("the burst is pending");
                assert_eq!(e.t >> WIDTH_BITS, b);
                assert!(e.key() > last);
                last = e.key();
            }
            assert_eq!(q.len(), 0);
        }
        assert_eq!(q.num_slots(), MIN_SLOTS);
        assert_eq!(peak_ring, 1_009);
        let reserved = q.ring_reserved();
        assert!(
            reserved >= peak_ring && reserved <= peak_ring + 2 * BLOCK,
            "ring reserved {reserved} entries for a peak of {peak_ring}"
        );
    }

    #[test]
    fn ladder_pressure_grows_the_ring() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.num_slots(), MIN_SLOTS);
        // Far-future events spread over ~50 ms swamp the default ladder.
        for i in 0..10_000u32 {
            q.push(2_000_000 + i as Ns * 5_000, Ev::FlowStart(i));
        }
        assert!(q.num_slots() > MIN_SLOTS, "ring should have grown");
        // Order is still exact after redistribution.
        let mut last = (0, 0);
        while let Some(e) = q.pop() {
            assert!((e.t, e.seq) > last);
            last = (e.t, e.seq);
        }
    }

    /// Thousands of ladder entries on 16 timestamps, pushed in scrambled
    /// time order so the heap's layout is far from push order: the push
    /// that outgrows the ladder doubles the ring and every entry lands in
    /// a ring slot, hundreds per slot. The counting scatter (and its
    /// debug assertion) needs each slot's equal-`t` entries in `seq`
    /// order, so `grow` must re-file the ladder sorted.
    #[test]
    fn grow_refiles_equal_time_ladder_entries_in_seq_order() {
        let mut q = CalendarQueue::new();
        let mut rng = Rng::seed_from_u64(0x6_2047);
        // Beyond the 1,024-slot horizon (~1.05 ms), within 2,048 slots'.
        let times: Vec<Ns> = (0..16u64).map(|i| 1_100_000 + i * 50_000 + i).collect();
        for i in 0..5_000u32 {
            q.push(times[rng.gen_range(0..times.len())], Ev::FlowStart(i));
        }
        assert_eq!(
            q.num_slots(),
            2 * MIN_SLOTS,
            "the ring must have grown once"
        );
        assert!(
            q.overflow.is_empty(),
            "every entry is within the new horizon"
        );
        let mut last = (0, 0);
        let mut n = 0;
        while let Some(e) = q.pop() {
            assert!(e.key() > last, "pop {n} out of (t, seq) order");
            last = e.key();
            n += 1;
        }
        assert_eq!(n, 5_000);
    }
}
