//! Baseline disk schedulers the paper compares against or generalizes.

pub mod batched;
pub mod bucket;
pub mod deadline_driven;
pub mod edf;
pub mod fcfs;
pub mod multi_queue;
pub mod scan;
pub mod scan_edf;
pub mod sstf;

use crate::Request;

/// Remove and return the queue element minimizing `key` (ties broken by
/// lowest request id, so every policy is deterministic).
pub(crate) fn take_min_by_key<K: Ord>(
    queue: &mut Vec<Request>,
    mut key: impl FnMut(&Request) -> K,
) -> Option<Request> {
    if queue.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_key = key(&queue[0]);
    for (i, r) in queue.iter().enumerate().skip(1) {
        let k = key(r);
        if k < best_key || (k == best_key && r.id < queue[best].id) {
            best = i;
            best_key = k;
        }
    }
    Some(queue.swap_remove(best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QosVector;

    fn req(id: u64, cyl: u32) -> Request {
        Request::read(id, 0, u64::MAX, cyl, 512, QosVector::none())
    }

    #[test]
    fn take_min_selects_and_removes() {
        let mut q = vec![req(1, 50), req(2, 10), req(3, 70)];
        let r = take_min_by_key(&mut q, |r| r.cylinder).unwrap();
        assert_eq!(r.id, 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn take_min_breaks_ties_by_id() {
        let mut q = vec![req(9, 10), req(2, 10), req(5, 10)];
        let r = take_min_by_key(&mut q, |r| r.cylinder).unwrap();
        assert_eq!(r.id, 2);
    }

    #[test]
    fn take_min_on_empty() {
        let mut q: Vec<Request> = Vec::new();
        assert!(take_min_by_key(&mut q, |r| r.cylinder).is_none());
    }

    /// The textbook head-movement exercise: the queue 98, 183, 37, 122,
    /// 14, 124, 65, 67 on a 200-cylinder disk, the head at 53. Each
    /// policy's service order and the total cylinders it moves the head
    /// are worked out by hand from the usual rules: FCFS in queue order;
    /// SSTF always to the nearest pending cylinder; SCAN sweeping up
    /// first. `Scan` turns at the last pending cylinder (LOOK), so it
    /// moves 130 + 169 = 299; the classroom SCAN that runs on to the last
    /// cylinder, 199, before turning would move 146 + 185 = 331.
    #[test]
    fn textbook_queue_service_orders_and_head_movement() {
        use crate::{DiskScheduler, Fcfs, HeadState, Scan, Sstf};
        const QUEUE: [u32; 8] = [98, 183, 37, 122, 14, 124, 65, 67];
        let serve = |s: &mut dyn DiskScheduler| -> (Vec<u32>, u32) {
            let mut head = HeadState::new(53, 0, 200);
            for (id, &cyl) in QUEUE.iter().enumerate() {
                s.enqueue(req(id as u64, cyl), &head);
            }
            let (mut order, mut moved) = (Vec::new(), 0);
            while let Some(r) = s.dequeue(&head) {
                moved += head.distance_to(r.cylinder);
                order.push(r.cylinder);
                head = HeadState::new(r.cylinder, 0, 200);
            }
            (order, moved)
        };
        assert_eq!(serve(&mut Fcfs::new()), (QUEUE.to_vec(), 640));
        assert_eq!(
            serve(&mut Sstf::new()),
            (vec![65, 67, 37, 14, 98, 122, 124, 183], 236)
        );
        assert_eq!(
            serve(&mut Scan::new()),
            (vec![65, 67, 98, 122, 124, 183, 37, 14], 299)
        );
    }
}
