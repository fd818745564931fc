//! The paper's evaluation metrics, accumulated per simulation run.

use sched::{Micros, Request};

/// Everything the paper measures, in one accumulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Requests actually serviced by the disk.
    pub served: u64,
    /// Requests dropped unserved because their deadline had already
    /// passed at dispatch time (the §6 "lost" notion).
    pub dropped: u64,
    /// Requests whose service *completed* after their deadline.
    pub late: u64,
    /// Requests abandoned after exhausting their retry budget (or hitting
    /// an unrecoverable fault) — the fault-layer loss class.
    pub failed: u64,
    /// Media errors observed (failed service attempts, transient or not).
    pub media_errors: u64,
    /// Retries issued after transient media errors.
    pub retries: u64,
    /// Reads reconstructed from parity around a failed member.
    pub degraded_reads: u64,
    /// Latent bad sectors remapped (with their relocation penalty paid).
    pub sector_remaps: u64,
    /// Background rebuild I/Os interleaved with foreground service.
    pub rebuild_ios: u64,
    /// Member time consumed by background rebuild I/Os (µs).
    pub rebuild_us: Micros,
    /// Priority inversions per QoS dimension: serving `T` counts, for
    /// each dimension `k`, the waiting requests with higher priority in
    /// `k` (§5.1's definition).
    pub inversions_per_dim: Vec<u64>,
    /// Deadline losses (dropped + late) per `[dimension][priority level]`.
    pub losses_by_dim_level: Vec<Vec<u64>>,
    /// Requests per `[dimension][priority level]` (denominators for miss
    /// ratios).
    pub requests_by_dim_level: Vec<Vec<u64>>,
    /// Total seek time (µs).
    pub seek_us: Micros,
    /// Total rotational latency (µs).
    pub rotation_us: Micros,
    /// Total transfer time (µs).
    pub transfer_us: Micros,
    /// Sum of response times (completion − arrival) over served requests.
    pub response_total_us: u128,
    /// Largest response time of any served request — the starvation
    /// indicator the ER policy (§3.3) is designed to bound.
    pub max_response_us: Micros,
    /// Simulated time at which the last request completed.
    pub makespan_us: Micros,
}

impl Metrics {
    /// Accumulator sized for `dims` QoS dimensions of `levels` levels.
    pub fn new(dims: usize, levels: usize) -> Self {
        Metrics {
            inversions_per_dim: vec![0; dims],
            losses_by_dim_level: vec![vec![0; levels]; dims],
            requests_by_dim_level: vec![vec![0; levels]; dims],
            ..Default::default()
        }
    }

    /// Record that `request` exists (fills the per-level denominators).
    pub fn record_request(&mut self, request: &Request) {
        for k in 0..self.requests_by_dim_level.len().min(request.qos.dims()) {
            let level = request.qos.level(k) as usize;
            if let Some(slot) = self.requests_by_dim_level[k].get_mut(level) {
                *slot += 1;
            }
        }
    }

    /// Record a deadline loss (drop or late completion) for `request`.
    pub fn record_loss(&mut self, request: &Request) {
        for k in 0..self.losses_by_dim_level.len().min(request.qos.dims()) {
            let level = request.qos.level(k) as usize;
            if let Some(slot) = self.losses_by_dim_level[k].get_mut(level) {
                *slot += 1;
            }
        }
    }

    /// Fold another accumulator into this one, as if both runs' events
    /// had been recorded here: counts and times add, extrema take the
    /// max, per-dimension tables widen to the larger shape. The striped
    /// RAID path uses this to aggregate per-member runs into one group
    /// view (`makespan_us` becomes the slowest member's makespan).
    pub fn merge(&mut self, other: &Metrics) {
        self.served += other.served;
        self.dropped += other.dropped;
        self.late += other.late;
        self.failed += other.failed;
        self.media_errors += other.media_errors;
        self.retries += other.retries;
        self.degraded_reads += other.degraded_reads;
        self.sector_remaps += other.sector_remaps;
        self.rebuild_ios += other.rebuild_ios;
        self.rebuild_us += other.rebuild_us;
        if self.inversions_per_dim.len() < other.inversions_per_dim.len() {
            self.inversions_per_dim
                .resize(other.inversions_per_dim.len(), 0);
        }
        for (k, v) in other.inversions_per_dim.iter().enumerate() {
            self.inversions_per_dim[k] += v;
        }
        let merge_table = |mine: &mut Vec<Vec<u64>>, theirs: &Vec<Vec<u64>>| {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), Vec::new());
            }
            for (row, other_row) in mine.iter_mut().zip(theirs.iter()) {
                if row.len() < other_row.len() {
                    row.resize(other_row.len(), 0);
                }
                for (slot, v) in row.iter_mut().zip(other_row.iter()) {
                    *slot += v;
                }
            }
        };
        merge_table(&mut self.losses_by_dim_level, &other.losses_by_dim_level);
        merge_table(
            &mut self.requests_by_dim_level,
            &other.requests_by_dim_level,
        );
        self.seek_us += other.seek_us;
        self.rotation_us += other.rotation_us;
        self.transfer_us += other.transfer_us;
        self.response_total_us += other.response_total_us;
        self.max_response_us = self.max_response_us.max(other.max_response_us);
        self.makespan_us = self.makespan_us.max(other.makespan_us);
    }

    /// The event-vs-metric identities: what an engine's traced events,
    /// counted by an [`obs::Snapshot`] (or several, merged), must equal in
    /// the [`Metrics`] the same engine(s) accumulated. A mismatch means an
    /// event was lost or emitted twice; the error names the first one.
    pub fn reconcile(&self, c: &obs::Counters) -> Result<(), String> {
        let checks = [
            (
                "service_starts vs served+failed",
                c.service_starts,
                self.served + self.failed,
            ),
            (
                "service_completes vs served",
                c.service_completes,
                self.served,
            ),
            ("drops vs dropped", c.drops, self.dropped),
            ("late_completions vs late", c.late_completions, self.late),
            (
                "media_error events vs metrics",
                c.media_errors,
                self.media_errors,
            ),
            ("retry events vs metrics", c.retries, self.retries),
            (
                "request_failed events vs metrics",
                c.request_failures,
                self.failed,
            ),
            (
                "sector_remap events vs metrics",
                c.sector_remaps,
                self.sector_remaps,
            ),
            (
                "degraded_read events vs metrics",
                c.degraded_reads,
                self.degraded_reads,
            ),
        ];
        for (what, got, want) in checks {
            if got != want {
                return Err(format!("{what}: {got} != {want}"));
            }
        }
        Ok(())
    }

    /// Total priority inversions over all dimensions.
    pub fn inversions_total(&self) -> u64 {
        self.inversions_per_dim.iter().sum()
    }

    /// Total deadline losses (dropped + late completions + failed).
    pub fn losses_total(&self) -> u64 {
        self.dropped + self.late + self.failed
    }

    /// Total requests seen.
    pub fn requests_total(&self) -> u64 {
        self.served + self.dropped + self.failed
    }

    /// Fraction of requests that lost their deadline.
    pub fn loss_ratio(&self) -> f64 {
        let n = self.requests_total();
        if n == 0 {
            0.0
        } else {
            self.losses_total() as f64 / n as f64
        }
    }

    /// Mean response time over served requests, µs.
    pub fn mean_response_us(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.response_total_us as f64 / self.served as f64
        }
    }

    /// Standard deviation of per-dimension inversion counts — the paper's
    /// fairness measure (Figure 7a): lower is fairer.
    pub fn inversion_stddev(&self) -> f64 {
        let d = self.inversions_per_dim.len();
        if d == 0 {
            return 0.0;
        }
        let mean = self.inversions_total() as f64 / d as f64;
        let var = self
            .inversions_per_dim
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / d as f64;
        var.sqrt()
    }

    /// The most-favored dimension: index and inversion count of the
    /// dimension with the fewest inversions (Figure 7b).
    pub fn favored_dimension(&self) -> Option<(usize, u64)> {
        self.inversions_per_dim
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, v)| v)
    }

    /// §6's aggregate cost: the weighted sum of per-level miss ratios on
    /// QoS dimension `dim`, with weights decreasing linearly so that the
    /// highest level costs `top_to_bottom` times the lowest (the paper
    /// uses 11).
    pub fn weighted_loss(&self, dim: usize, top_to_bottom: f64) -> f64 {
        let levels = self.requests_by_dim_level[dim].len();
        if levels == 0 {
            return 0.0;
        }
        let mut cost = 0.0;
        for level in 0..levels {
            let r = self.requests_by_dim_level[dim][level];
            if r == 0 {
                continue;
            }
            let m = self.losses_by_dim_level[dim][level];
            // Level 0 (highest priority) weight = top_to_bottom, lowest = 1.
            let w = if levels == 1 {
                top_to_bottom
            } else {
                top_to_bottom - (top_to_bottom - 1.0) * level as f64 / (levels as f64 - 1.0)
            };
            cost += w * m as f64 / r as f64;
        }
        cost
    }

    /// Fold a set of per-member (or per-shard) runs into one group view —
    /// [`Metrics::merge`] applied across the whole set.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Metrics>) -> Metrics {
        let mut total = Metrics::default();
        for m in parts {
            total.merge(m);
        }
        total
    }

    /// Requests served across a set of per-member runs.
    pub fn total_served<'a>(parts: impl IntoIterator<Item = &'a Metrics>) -> u64 {
        parts.into_iter().map(|m| m.served).sum()
    }

    /// Deadline losses (dropped + late + failed) across a set of runs.
    pub fn total_losses<'a>(parts: impl IntoIterator<Item = &'a Metrics>) -> u64 {
        parts.into_iter().map(|m| m.losses_total()).sum()
    }

    /// Requests seen across a set of runs.
    pub fn total_requests<'a>(parts: impl IntoIterator<Item = &'a Metrics>) -> u64 {
        parts.into_iter().map(|m| m.requests_total()).sum()
    }

    /// Loss ratio across a set of runs (0 when the set is empty).
    pub fn group_loss_ratio<'a>(parts: impl IntoIterator<Item = &'a Metrics> + Clone) -> f64 {
        let n = Self::total_requests(parts.clone());
        if n == 0 {
            0.0
        } else {
            Self::total_losses(parts) as f64 / n as f64
        }
    }

    /// Total disk busy time, µs.
    pub fn busy_us(&self) -> Micros {
        self.seek_us + self.rotation_us + self.transfer_us
    }

    /// Disk utilization over the makespan.
    pub fn utilization(&self) -> f64 {
        if self.makespan_us == 0 {
            0.0
        } else {
            self.busy_us() as f64 / self.makespan_us as f64
        }
    }
}

/// Convenience: run FCFS over a trace with the same service model factory
/// and return its total inversions — the normalization denominator the
/// paper uses everywhere ("as a percentage of the number of priority
/// inversions that occurs in the FIFO policy").
pub fn fifo_inversion_baseline(
    trace: &[Request],
    make_service: impl FnOnce() -> Box<dyn crate::ServiceProvider>,
    options: crate::SimOptions,
) -> u64 {
    let mut fifo = sched::Fcfs::new();
    let mut service = make_service();
    let m = crate::simulate(&mut fifo, trace, service.as_mut(), options);
    m.inversions_total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::QosVector;

    fn req(levels: &[u8]) -> Request {
        Request::read(0, 0, u64::MAX, 0, 512, QosVector::new(levels))
    }

    #[test]
    fn record_and_totals() {
        let mut m = Metrics::new(2, 8);
        m.record_request(&req(&[0, 7]));
        m.record_request(&req(&[3, 3]));
        m.record_loss(&req(&[0, 7]));
        assert_eq!(m.requests_by_dim_level[0][0], 1);
        assert_eq!(m.requests_by_dim_level[1][7], 1);
        assert_eq!(m.losses_by_dim_level[0][0], 1);
        assert_eq!(m.losses_by_dim_level[1][7], 1);
    }

    #[test]
    fn reconcile_names_the_first_mismatch() {
        let m = Metrics {
            served: 5,
            dropped: 2,
            late: 1,
            ..Metrics::new(1, 4)
        };
        let mut c = obs::Counters {
            service_starts: 5,
            service_completes: 5,
            drops: 2,
            late_completions: 1,
            ..Default::default()
        };
        m.reconcile(&c).expect("identities hold");
        c.service_completes = 4; // one ServiceComplete event lost
        let err = m.reconcile(&c).unwrap_err();
        assert_eq!(err, "service_completes vs served: 4 != 5");
    }

    #[test]
    fn stddev_zero_when_balanced() {
        let mut m = Metrics::new(3, 4);
        m.inversions_per_dim = vec![10, 10, 10];
        assert_eq!(m.inversion_stddev(), 0.0);
        m.inversions_per_dim = vec![0, 10, 20];
        assert!(m.inversion_stddev() > 0.0);
        assert_eq!(m.favored_dimension(), Some((0, 0)));
    }

    #[test]
    fn weighted_loss_prefers_low_priority_losses() {
        // Two schedulers, same total losses; one loses high-priority
        // requests, the other low-priority ones.
        let mut loses_high = Metrics::new(1, 8);
        let mut loses_low = Metrics::new(1, 8);
        for level in 0..8u8 {
            for _ in 0..10 {
                loses_high.record_request(&req(&[level]));
                loses_low.record_request(&req(&[level]));
            }
        }
        for _ in 0..5 {
            loses_high.record_loss(&req(&[0]));
            loses_low.record_loss(&req(&[7]));
        }
        assert!(loses_high.weighted_loss(0, 11.0) > loses_low.weighted_loss(0, 11.0));
        // Ratio should be about 11:1.
        let ratio = loses_high.weighted_loss(0, 11.0) / loses_low.weighted_loss(0, 11.0);
        assert!((10.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn merge_adds_counts_and_takes_extrema() {
        let mut a = Metrics::new(2, 4);
        a.served = 5;
        a.late = 1;
        a.inversions_per_dim = vec![3, 1];
        a.requests_by_dim_level[0][2] = 4;
        a.seek_us = 100;
        a.response_total_us = 1_000;
        a.max_response_us = 400;
        a.makespan_us = 900;
        let mut b = Metrics::new(2, 4);
        b.served = 2;
        b.dropped = 3;
        b.inversions_per_dim = vec![1, 7];
        b.requests_by_dim_level[0][2] = 1;
        b.losses_by_dim_level[1][0] = 2;
        b.seek_us = 50;
        b.response_total_us = 500;
        b.max_response_us = 800;
        b.makespan_us = 700;
        a.merge(&b);
        assert_eq!(a.served, 7);
        assert_eq!(a.dropped, 3);
        assert_eq!(a.late, 1);
        assert_eq!(a.inversions_per_dim, vec![4, 8]);
        assert_eq!(a.requests_by_dim_level[0][2], 5);
        assert_eq!(a.losses_by_dim_level[1][0], 2);
        assert_eq!(a.seek_us, 150);
        assert_eq!(a.response_total_us, 1_500);
        assert_eq!(a.max_response_us, 800); // max, not sum
        assert_eq!(a.makespan_us, 900); // slowest member
    }

    #[test]
    fn merge_widens_mismatched_shapes() {
        let mut narrow = Metrics::new(1, 2);
        narrow.inversions_per_dim = vec![5];
        let mut wide = Metrics::new(3, 4);
        wide.inversions_per_dim = vec![1, 2, 3];
        wide.requests_by_dim_level[2][3] = 9;
        narrow.merge(&wide);
        assert_eq!(narrow.inversions_per_dim, vec![6, 2, 3]);
        assert_eq!(narrow.requests_by_dim_level[2][3], 9);
    }

    #[test]
    fn aggregate_helpers_match_pairwise_merge() {
        let mut a = Metrics::new(1, 2);
        a.served = 8;
        a.dropped = 2;
        a.makespan_us = 500;
        let mut b = Metrics::new(1, 2);
        b.served = 4;
        b.late = 1;
        b.failed = 1;
        b.makespan_us = 900;
        let parts = [a.clone(), b.clone()];
        assert_eq!(Metrics::total_served(&parts), 12);
        assert_eq!(Metrics::total_losses(&parts), 4);
        // requests = served + dropped + failed (late completions are
        // already inside served).
        assert_eq!(Metrics::total_requests(&parts), 15);
        assert!((Metrics::group_loss_ratio(&parts) - 4.0 / 15.0).abs() < 1e-12);
        let mut pairwise = a;
        pairwise.merge(&b);
        assert_eq!(Metrics::merged(&parts), pairwise);
    }

    #[test]
    fn loss_ratio_and_utilization() {
        let mut m = Metrics::new(1, 2);
        m.served = 8;
        m.dropped = 2;
        m.late = 1;
        assert_eq!(m.requests_total(), 10);
        assert!((m.loss_ratio() - 0.3).abs() < 1e-12);
        m.seek_us = 100;
        m.transfer_us = 400;
        m.makespan_us = 1000;
        assert!((m.utilization() - 0.5).abs() < 1e-12);
    }
}
