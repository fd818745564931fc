//! The object-safe scheduler interface driven by the simulator.

use crate::{Micros, Request};

/// Direction the head is sweeping (for elevator-style policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepDirection {
    /// Toward higher cylinder numbers.
    Up,
    /// Toward lower cylinder numbers.
    Down,
}

impl SweepDirection {
    /// The opposite direction.
    pub fn flip(self) -> Self {
        match self {
            SweepDirection::Up => SweepDirection::Down,
            SweepDirection::Down => SweepDirection::Up,
        }
    }
}

/// Snapshot of the disk/servo state handed to the scheduler on every call.
#[derive(Debug, Clone, Copy)]
pub struct HeadState {
    /// Current head cylinder.
    pub cylinder: u32,
    /// Current simulation time (µs).
    pub now_us: Micros,
    /// Total number of cylinders on the disk.
    pub cylinders: u32,
}

impl HeadState {
    /// Construct a head state.
    pub fn new(cylinder: u32, now_us: Micros, cylinders: u32) -> Self {
        HeadState {
            cylinder,
            now_us,
            cylinders,
        }
    }

    /// Seek distance from the head to `cylinder`.
    pub fn distance_to(&self, cylinder: u32) -> u32 {
        self.cylinder.abs_diff(cylinder)
    }
}

/// A runtime-retunable scheduler knob, applied through
/// [`DiskScheduler::retune`] at a safe epoch boundary.
///
/// The variants mirror the three knobs the paper leaves static: SFC2's
/// balance factor `f`, SFC3's scan-partition count `R`, and the
/// conditional dispatcher's blocking window `w`. Policies that do not
/// expose a given knob simply refuse it (the default hook refuses
/// everything).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Retune {
    /// SFC2 balance factor `f` (deadline weight; `0.0` = priority-only).
    BalanceFactor(f64),
    /// SFC3 scan-partition count `R` (the paper's default is 3).
    ScanPartitions(u32),
    /// Conditional-preemption blocking window `w` as a fraction of the
    /// SFC value space, in `0.0..=1.0`.
    Window(f64),
}

impl Retune {
    /// The knob's stable code: 0 = balance factor `f`, 1 = scan
    /// partitions `R`, 2 = blocking window `w`. The only source of the
    /// code a retune trace event and a controller decision carry.
    pub fn knob_index(&self) -> u32 {
        match self {
            Retune::BalanceFactor(_) => 0,
            Retune::ScanPartitions(_) => 1,
            Retune::Window(_) => 2,
        }
    }
}

/// A disk scheduler: accepts arriving requests, and when the disk becomes
/// idle hands back the next request to serve.
///
/// Implementations own their queue(s). The trait is object-safe so the
/// simulator, examples and benchmarks can switch policies at runtime.
pub trait DiskScheduler {
    /// Policy name for reports (e.g. `"scan-edf"`).
    fn name(&self) -> &'static str;

    /// A request arrived.
    fn enqueue(&mut self, req: Request, head: &HeadState);

    /// A chunk of requests arrived together (already in arrival order).
    /// `head` carries the servo position; each request is enqueued at its
    /// own arrival time. The default loops over
    /// [`DiskScheduler::enqueue`]; wrappers around an inner policy
    /// forward the chunk to it.
    fn enqueue_batch(&mut self, batch: &[Request], head: &HeadState) {
        for r in batch {
            let h = HeadState::new(head.cylinder, r.arrival_us, head.cylinders);
            self.enqueue(r.clone(), &h);
        }
    }

    /// The disk is idle: pick the next request to serve, removing it from
    /// the queue. `None` when no request is pending.
    ///
    /// A dequeue on an empty queue may reset policy state (the cascade's
    /// conditional dispatcher drops its preemption anchor), but it must
    /// be **idempotent and silent**: repeating it, with nothing enqueued
    /// in between, changes nothing further and emits no trace event.
    /// Event loops rely on this to skip pumping idle shards (see
    /// `sim::EngineStepper::next_action_us`);
    /// `every_scheduler_tolerates_repeated_empty_dequeues` in
    /// `tests/cross_crate.rs` holds every policy in the workspace to it.
    fn dequeue(&mut self, head: &HeadState) -> Option<Request>;

    /// Number of pending requests.
    fn len(&self) -> usize;

    /// `true` when no requests are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every pending request (order unspecified), exactly
    /// [`DiskScheduler::len`] of them. Not on the per-dispatch path: the
    /// simulator counts priority inversions from its own census of the
    /// waiting set and calls this only to re-sync that census when
    /// `len()` shows requests left behind its back (a bounded-queue shed,
    /// a caller's drain); a retune uses it to collect the backlog it
    /// re-inserts.
    fn for_each_pending(&self, f: &mut dyn FnMut(&Request));

    /// Requests dropped by bounded-queue overload shedding so far.
    /// Policies without a bounded queue report 0.
    fn sheds(&self) -> u64 {
        0
    }

    /// Capacity of the bounded pending queue, if the policy has one.
    /// Routers use this to know when a shard is about to shed.
    fn queue_capacity(&self) -> Option<usize> {
        None
    }

    /// Apply a runtime knob change at a safe epoch boundary. Returns
    /// `true` when the knob was recognized and applied; `false` when the
    /// policy does not expose it (or the value is invalid), in which
    /// case the scheduler is unchanged. The default refuses every knob,
    /// so statically-configured baselines need no code.
    fn retune(&mut self, _knob: &Retune, _head: &HeadState) -> bool {
        false
    }

    /// Entries the policy holds in its own structures, for a census of
    /// what a long-running daemon keeps (`farm::FarmDaemon::state_census`):
    /// a count, not bytes. The default is the pending queue; a policy
    /// that keeps more than one entry per pending request (an arena with
    /// vacant slots, an index beside the queue) says so.
    fn state_len(&self) -> usize {
        self.len()
    }

    /// Remove and return every pending request, emptying the queue — the
    /// migration hook a draining farm shard uses to hand its resident
    /// backlog off. The default repeatedly dequeues at `head` and then
    /// sorts by `(arrival_us, id)`, so the handoff order is deterministic
    /// and independent of the policy's internal service order.
    fn drain_pending(&mut self, head: &HeadState) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(r) = self.dequeue(head) {
            out.push(r);
        }
        out.sort_by_key(|r| (r.arrival_us, r.id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_flips() {
        assert_eq!(SweepDirection::Up.flip(), SweepDirection::Down);
        assert_eq!(SweepDirection::Down.flip(), SweepDirection::Up);
    }

    #[test]
    fn head_distance() {
        let h = HeadState::new(100, 0, 3832);
        assert_eq!(h.distance_to(130), 30);
        assert_eq!(h.distance_to(70), 30);
    }

    #[test]
    fn trait_default_hooks() {
        // A minimal policy that implements only the required methods
        // must get the documented defaults: no sheds, unbounded queue,
        // emptiness derived from len().
        struct Bare(Vec<Request>);
        impl DiskScheduler for Bare {
            fn name(&self) -> &'static str {
                "bare"
            }
            fn enqueue(&mut self, req: Request, _head: &HeadState) {
                self.0.push(req);
            }
            fn dequeue(&mut self, _head: &HeadState) -> Option<Request> {
                self.0.pop()
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
                self.0.iter().for_each(f);
            }
        }

        let head = HeadState::new(0, 0, 3832);
        let mut s = Bare(Vec::new());
        assert_eq!(s.sheds(), 0);
        assert_eq!(s.queue_capacity(), None);
        // The default retune hook refuses every knob.
        assert!(!s.retune(&Retune::BalanceFactor(2.0), &head));
        assert!(!s.retune(&Retune::ScanPartitions(5), &head));
        assert!(!s.retune(&Retune::Window(0.25), &head));
        assert!(s.is_empty());
        s.enqueue(
            crate::Request::read(1, 0, 1_000, 10, 4_096, crate::QosVector::none()),
            &head,
        );
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
        // The hooks stay at their defaults even with work pending.
        assert_eq!(s.sheds(), 0);
        assert_eq!(s.queue_capacity(), None);
        assert!(s.dequeue(&head).is_some());
        assert!(s.is_empty());
        // The default batch hook is a plain loop over enqueue.
        let batch = [
            crate::Request::read(2, 5, 1_000, 10, 4_096, crate::QosVector::none()),
            crate::Request::read(3, 9, 1_000, 11, 4_096, crate::QosVector::none()),
        ];
        s.enqueue_batch(&batch, &head);
        assert_eq!(s.len(), 2);
        // The default drain empties the queue and returns the backlog in
        // (arrival, id) order, even though Bare dequeues LIFO.
        let drained = s.drain_pending(&head);
        assert!(s.is_empty());
        assert_eq!(drained.iter().map(|r| r.id).collect::<Vec<_>>(), vec![2, 3]);
    }
}
