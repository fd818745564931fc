//! The deadline-driven multi-priority scheduler of Kamel, Niranjan &
//! Ghandeharizadeh (ICDE 2000) — reference [12] of the Cascaded-SFC paper
//! and the scheduler deployed in the PanaViss prototype.
//!
//! The active queue is kept in SCAN order and *is* the service order. An
//! arriving request is inserted at its SCAN position when that would not
//! push any active request past its deadline. Otherwise the scheduler
//! repeatedly demotes the **lowest-priority** active request to a
//! best-effort tail until the insertion becomes feasible (or the newcomer
//! itself is the lowest priority, in which case it joins the tail) — so
//! when a deadline must slip, a low-priority request pays.
//!
//! Priority is a *single* absolute value per request. §4.3 of the
//! Cascaded-SFC paper extends this scheduler to multiple priority
//! dimensions by feeding the QoS vector through SFC1 first: pass a
//! curve's index of the QoS levels to [`DeadlineDriven::with_priority`].

use crate::{CostModel, DiskScheduler, HeadState, Micros, Request};
use std::collections::VecDeque;

/// Kamel et al.'s deadline-driven scheduler. See module docs.
pub struct DeadlineDriven {
    /// Deadline-feasible requests in SCAN order; front = next.
    active: VecDeque<Request>,
    /// Demoted (best-effort) requests, served FCFS after the active queue.
    tail: VecDeque<Request>,
    cost: CostModel,
    /// Maps a request to its absolute priority (lower = more important).
    priority: Box<dyn Fn(&Request) -> u64 + Send>,
}

impl DeadlineDriven {
    /// Scheduler using QoS dimension 0 as the absolute priority.
    pub fn new(cost: CostModel) -> Self {
        Self::with_priority(cost, Box::new(|r| r.qos.level(0) as u64))
    }

    /// Scheduler with a custom absolute-priority mapping (the §4.3
    /// extension point: e.g. an SFC1 characterization value).
    pub fn with_priority(cost: CostModel, priority: Box<dyn Fn(&Request) -> u64 + Send>) -> Self {
        DeadlineDriven {
            active: VecDeque::new(),
            tail: VecDeque::new(),
            cost,
            priority,
        }
    }

    fn scan_position(&self, head_cyl: u32, cylinder: u32) -> usize {
        let mut prev = head_cyl;
        for (i, r) in self.active.iter().enumerate() {
            let (lo, hi) = if prev <= r.cylinder {
                (prev, r.cylinder)
            } else {
                (r.cylinder, prev)
            };
            if cylinder >= lo && cylinder <= hi {
                return i;
            }
            prev = r.cylinder;
        }
        self.active.len()
    }

    /// Would inserting `candidate` at `pos` make it or any *active*
    /// request late? (Tail requests are best-effort and do not block.)
    fn violates(&self, head: &HeadState, candidate: &Request, pos: usize) -> bool {
        let mut now: Micros = head.now_us;
        let mut cyl = head.cylinder;
        let step = |r: &Request, now: &mut Micros, cyl: &mut u32| {
            *now += self.cost.estimate_us(*cyl, r.cylinder, r.bytes);
            *cyl = r.cylinder;
            r.has_deadline() && *now > r.deadline_us
        };
        for (i, r) in self.active.iter().enumerate() {
            if i == pos && step(candidate, &mut now, &mut cyl) {
                return true;
            }
            if step(r, &mut now, &mut cyl) {
                return true;
            }
        }
        if pos >= self.active.len() && step(candidate, &mut now, &mut cyl) {
            return true;
        }
        false
    }

    /// Index of the lowest-priority active request (largest priority
    /// value; latest position breaks ties), or `None` when empty.
    fn lowest_priority_active(&self) -> Option<(usize, u64)> {
        self.active
            .iter()
            .enumerate()
            .max_by_key(|(i, r)| ((self.priority)(r), *i))
            .map(|(i, r)| (i, (self.priority)(r)))
    }
}

impl DiskScheduler for DeadlineDriven {
    fn name(&self) -> &'static str {
        "deadline-driven"
    }

    fn enqueue(&mut self, req: Request, head: &HeadState) {
        loop {
            let pos = self.scan_position(head.cylinder, req.cylinder);
            if !self.violates(head, &req, pos) {
                self.active.insert(pos, req);
                return;
            }
            // Insertion infeasible: demote the lowest-priority request —
            // the newcomer itself if nothing in the queue is lower.
            match self.lowest_priority_active() {
                Some((idx, prio)) if prio >= (self.priority)(&req) => {
                    let victim = self.active.remove(idx).expect("valid index");
                    self.tail.push_back(victim);
                    // retry insertion with the shorter active queue
                }
                _ => {
                    self.tail.push_back(req);
                    return;
                }
            }
        }
    }

    fn dequeue(&mut self, _head: &HeadState) -> Option<Request> {
        self.active.pop_front().or_else(|| self.tail.pop_front())
    }

    fn len(&self) -> usize {
        self.active.len() + self.tail.len()
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        self.active.iter().for_each(&mut *f);
        self.tail.iter().for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QosVector;

    fn req(id: u64, prio: u8, deadline: u64, cyl: u32) -> Request {
        Request::read(id, 0, deadline, cyl, 64 * 1024, QosVector::single(prio))
    }

    fn head() -> HeadState {
        HeadState::new(100, 0, 3832)
    }

    #[test]
    fn scan_insert_when_feasible() {
        let mut s = DeadlineDriven::new(CostModel::table1());
        s.enqueue(req(1, 0, u64::MAX, 500), &head());
        s.enqueue(req(2, 0, u64::MAX, 900), &head());
        s.enqueue(req(3, 0, u64::MAX, 700), &head());
        let ids: Vec<u64> = (0..3).map(|_| s.dequeue(&head()).unwrap().id).collect();
        assert_eq!(ids, vec![1, 3, 2]);
    }

    #[test]
    fn low_priority_request_demoted_under_pressure() {
        let mut s = DeadlineDriven::new(CostModel::table1());
        // Low-priority request (level 7) early in the SCAN order.
        s.enqueue(req(1, 7, 200_000, 200), &head());
        // High-priority request whose deadline (40 ms; the seek+transfer
        // alone costs ~31 ms) only works if served first.
        s.enqueue(req(2, 0, 40_000, 3500), &head());
        let first = s.dequeue(&head()).unwrap();
        assert_eq!(first.id, 2, "high-priority tight deadline should lead");
        assert_eq!(s.dequeue(&head()).unwrap().id, 1);
    }

    #[test]
    fn newcomer_demotes_itself_when_lowest() {
        let mut s = DeadlineDriven::new(CostModel::table1());
        s.enqueue(req(1, 0, 25_000, 200), &head());
        // Lower priority (7) with an infeasible deadline must not displace
        // the high-priority request.
        s.enqueue(req(2, 7, 1, 3500), &head());
        assert_eq!(s.dequeue(&head()).unwrap().id, 1);
        assert_eq!(s.dequeue(&head()).unwrap().id, 2);
    }

    #[test]
    fn infeasible_newcomer_goes_to_tail() {
        let mut s = DeadlineDriven::new(CostModel::table1());
        s.enqueue(req(1, 0, 20_000, 150), &head());
        s.enqueue(req(2, 0, 1, 3800), &head()); // hopeless deadline, equal priority
                                                // Equal priority: the queued request is demotable, but demoting it
                                                // cannot make the hopeless deadline feasible; eventually the
                                                // newcomer or victim lands on the tail. All requests survive.
        let mut ids: Vec<u64> = Vec::new();
        while let Some(r) = s.dequeue(&head()) {
            ids.push(r.id);
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn custom_priority_mapping() {
        let mut s = DeadlineDriven::with_priority(
            CostModel::table1(),
            Box::new(|r| u64::from(255 - r.qos.level(0))), // inverted
        );
        s.enqueue(req(1, 7, u64::MAX, 200), &head());
        assert_eq!(s.len(), 1);
        let mut n = 0;
        s.for_each_pending(&mut |_| n += 1);
        assert_eq!(n, 1);
    }
}
