//! The frozen reference kernel every host-time figure is divided by.
//!
//! Raw ns/request on a small shared host drifts by tens of percent over
//! minutes and stalls for fractions of a second; a ratio against work
//! measured in the same process a few milliseconds away drifts far less.
//! So the kernel runs in short slices *between* slices of the daemon
//! repetition (see `run::measure`), and each daemon slice is divided by
//! the reference speed measured on either side of it.
//!
//! The kernel is the trivially correct "speed of light" for the schedule
//! itself — a priority queue feeding SNIPPETS.md's sort-and-sweep `scan`
//! — and it calls no repository code, so no change under `crates/` can
//! move it. It is frozen with the PR that adds the benchmark: editing it
//! rebases every `cost_ratio` ever recorded.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Operations per slice (one op = push + pop + fold, plus its share of
/// the 64-wide sort-and-sweep): about 18 ms on the reference host, so a
/// repetition cut into 16 daemon slices carries ~2.5 M reference ops.
pub const SLICE_OPS: u64 = 150_000;
/// The reference host's speed, used only to express set-up time — a
/// host-normalised quantity like every other host-time figure — in
/// seconds rather than in reference operations.
pub const NOMINAL_NS_PER_OP: f64 = 118.0;
const HELD: usize = 65_536;
const SWEEP: usize = 64;
const CYLINDERS: u64 = 3832;

/// SplitMix64 — the harness's only random source besides the workload
/// generators (which take the seed themselves).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The kernel's state: SplitMix64 keys pushed into a binary heap held at
/// 65 536 entries, each popped key folded to a cylinder, every 64 of them
/// sorted and swept accumulating head travel.
pub struct Reference {
    state: u64,
    heap: BinaryHeap<(u64, u64)>,
    batch: [u32; SWEEP],
    head: u32,
    travel: u64,
    ops: u64,
}

impl Reference {
    /// Fill the heap (untimed).
    pub fn new() -> Self {
        let mut state = 0x2004_0330u64;
        let mut heap = BinaryHeap::with_capacity(HELD + 1);
        for i in 0..HELD as u64 {
            heap.push((splitmix64(&mut state), i));
        }
        Reference {
            state,
            heap,
            batch: [0; SWEEP],
            head: 0,
            travel: 0,
            ops: 0,
        }
    }

    /// Run one slice and return its cost in ns per operation.
    pub fn slice(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..SLICE_OPS {
            self.heap.push((splitmix64(&mut self.state), self.ops));
            let (key, _) = self.heap.pop().expect("the heap is held non-empty");
            let slot = self.ops as usize % SWEEP;
            self.batch[slot] = (key % CYLINDERS) as u32;
            if slot == SWEEP - 1 {
                self.batch.sort_unstable();
                for &cylinder in &self.batch {
                    self.travel += u64::from(self.head.abs_diff(cylinder));
                    self.head = cylinder;
                }
            }
            self.ops += 1;
        }
        let ns = start.elapsed().as_nanos() as f64;
        black_box(self.travel);
        ns / SLICE_OPS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_the_published_sequence() {
        // First outputs of SplitMix64 seeded with 0 (Vigna's reference).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn slices_do_work_and_keep_the_heap_held() {
        let mut r = Reference::new();
        assert!(r.slice() > 0.0);
        assert!(r.slice() > 0.0);
        assert_eq!(r.heap.len(), HELD);
        assert_eq!(r.ops, 2 * SLICE_OPS);
        assert!(r.travel > 0, "the sweep accumulated head travel");
    }
}
