//! A fixed reference computation that calls no code of the repository,
//! so no change to it can move its time. `run.py` times it beside every
//! repetition and scales the end-to-end times by how much slower than
//! usual it ran: the host slows every process by up to half for minutes
//! at a time, and this computation slows with the workloads.
//!
//! It mixes the two kinds of work the simulators do, both cache resident:
//! a dependent chain of integer arithmetic and branches, and a small
//! discrete-event loop over a binary heap of timers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn arithmetic(steps: u64) -> u64 {
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    for i in 0..steps {
        acc = acc.wrapping_mul(31).wrapping_add(xorshift(&mut x) ^ i);
        if acc & 0xff == 3 {
            acc ^= x >> 3;
        }
    }
    acc
}

/// `events` pops of a heap of 4096 timers, each updating two of 16,384
/// state words (128 KB) and scheduling its timer again.
fn events(events: u32) -> u64 {
    const STATE: usize = 1 << 14;
    let mut state = vec![0u64; STATE];
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..4096)
        .map(|id| Reverse((xorshift(&mut x) % 1000, id)))
        .collect();
    let mut acc = 0u64;
    for _ in 0..events {
        let Reverse((t, id)) = heap.pop().expect("the heap never empties");
        let k = xorshift(&mut x) as usize % STATE;
        state[k] = state[k]
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(id ^ t);
        acc = acc.wrapping_add(state[state[k] as usize % STATE]);
        heap.push(Reverse((t + 1 + (x >> 54), id)));
    }
    acc
}

/// The reference computation: 0.13–0.17 s on one vCPU of a 2.0 GHz
/// Intel Xeon VM.
pub fn run() -> u64 {
    arithmetic(30_000_000) ^ events(1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(arithmetic(1000), arithmetic(1000));
        assert_eq!(events(5000), events(5000));
        assert_ne!(events(5000), events(5001));
    }
}
