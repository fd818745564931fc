//! The multi-queue priority scheduler (Carey, Jauhari & Livny, VLDB 1989).
//!
//! One queue per priority level of a single designated QoS dimension;
//! requests in higher-priority queues are always served first; within a
//! queue, requests are served in SCAN order. The paper's §4.2 counts it
//! among the classics a degenerate cascade emulates; here stage 1 alone
//! matches only its level order, since the cascade has no scan inside a
//! level (DESIGN.md §4). §6 plots it as `Sweep-Y`.

use crate::baselines::scan::Scan;
use crate::{DiskScheduler, HeadState, Request};

/// Multi-queue priority scheduler. See module docs.
pub struct MultiQueue {
    /// `queues[level]`, level 0 = highest priority. Grown on demand.
    queues: Vec<Scan>,
    /// Which QoS dimension drives the queue choice.
    dim: usize,
    len: usize,
}

impl MultiQueue {
    /// Schedule on QoS dimension `dim` (level 0 of that dimension is the
    /// highest-priority queue).
    pub fn new(dim: usize) -> Self {
        MultiQueue {
            queues: Vec::new(),
            dim,
            len: 0,
        }
    }
}

impl DiskScheduler for MultiQueue {
    fn name(&self) -> &'static str {
        "multi-queue"
    }

    fn enqueue(&mut self, req: Request, head: &HeadState) {
        let level = req.qos.level(self.dim) as usize;
        while self.queues.len() <= level {
            self.queues.push(Scan::new());
        }
        self.queues[level].enqueue(req, head);
        self.len += 1;
    }

    fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
        for q in &mut self.queues {
            if let Some(r) = q.dequeue(head) {
                self.len -= 1;
                return Some(r);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        for q in &self.queues {
            q.for_each_pending(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QosVector;

    fn req(id: u64, level: u8, cyl: u32) -> Request {
        Request::read(id, 0, u64::MAX, cyl, 512, QosVector::single(level))
    }

    #[test]
    fn higher_priority_queue_first() {
        let mut s = MultiQueue::new(0);
        let head = HeadState::new(0, 0, 3832);
        s.enqueue(req(1, 3, 10), &head);
        s.enqueue(req(2, 0, 3000), &head);
        s.enqueue(req(3, 1, 50), &head);
        assert_eq!(s.dequeue(&head).unwrap().id, 2);
        assert_eq!(s.dequeue(&head).unwrap().id, 3);
        assert_eq!(s.dequeue(&head).unwrap().id, 1);
        assert!(s.is_empty());
    }

    #[test]
    fn scan_order_within_a_level() {
        let mut s = MultiQueue::new(0);
        let mut head = HeadState::new(100, 0, 3832);
        s.enqueue(req(1, 2, 900), &head);
        s.enqueue(req(2, 2, 200), &head);
        s.enqueue(req(3, 2, 500), &head);
        let mut order = Vec::new();
        while let Some(r) = s.dequeue(&head) {
            head.cylinder = r.cylinder;
            order.push(r.id);
        }
        assert_eq!(order, vec![2, 3, 1]); // sweep up from 100
    }

    #[test]
    fn len_tracks_across_levels() {
        let mut s = MultiQueue::new(0);
        let head = HeadState::new(0, 0, 3832);
        s.enqueue(req(1, 0, 1), &head);
        s.enqueue(req(2, 5, 2), &head);
        assert_eq!(s.len(), 2);
        let mut n = 0;
        s.for_each_pending(&mut |_| n += 1);
        assert_eq!(n, 2);
    }
}
