//! The scalar objective a tuning window is judged by.
//!
//! Lower is better. The score folds the three §6 loss signals the
//! paper's evaluation tracks — deadline misses, seek work, and overload
//! shedding — into one weighted number so the search can order
//! configurations. Every term is a guarded ratio: a window with no
//! outcomes at all, a window that shed everything, or a window holding
//! a single request all score finite (the search must never see a NaN,
//! or its ordering — and with it the decision log — becomes
//! run-dependent).

use obs::Snapshot;

/// Weights for the windowed score (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// Weight on the deadline-miss ratio `(late + drops) / outcomes`.
    pub w_miss: f64,
    /// Weight on the normalized mean seek `mean_seek / seek_scale`.
    pub w_seek: f64,
    /// Weight on the shed ratio `sheds / arrivals`.
    pub w_shed: f64,
    /// Seek normalizer in cylinders (a full-stroke-ish distance); must
    /// be positive — [`Objective::score`] clamps it away from zero.
    pub seek_scale: f64,
}

impl Default for Objective {
    /// Paper-flavored defaults: misses dominate, shedding costs half a
    /// miss, seek work is a tiebreaker. `seek_scale` is the §7 disk's
    /// cylinder count.
    fn default() -> Self {
        Objective {
            w_miss: 1.0,
            w_seek: 0.25,
            w_shed: 0.5,
            seek_scale: 3832.0,
        }
    }
}

impl Objective {
    /// Score one window. Always finite (see the module docs).
    pub fn score(&self, window: &Snapshot) -> f64 {
        let c = &window.counters;
        let outcomes = (c.service_completes + c.drops).max(1) as f64;
        let miss = (c.late_completions + c.drops) as f64 / outcomes;
        let shed = c.sheds as f64 / c.arrivals.max(1) as f64;
        // Histogram::mean is 0 on empty, so an idle window's seek term
        // vanishes instead of poisoning the sum.
        let seek = window.seek_cylinders.mean() / self.seek_scale.max(f64::MIN_POSITIVE);
        self.w_miss * miss + self.w_seek * seek + self.w_shed * shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::TraceEvent;
    use obs::TraceSink;

    #[test]
    fn empty_window_scores_finite_zero() {
        let s = Snapshot::new();
        let score = Objective::default().score(&s);
        assert!(score.is_finite(), "empty window must score finite");
        assert_eq!(score, 0.0);
    }

    #[test]
    fn all_shed_window_scores_finite() {
        // Every arrival shed, nothing completed: the miss term has no
        // outcomes, the shed term saturates at 1.
        let mut s = Snapshot::new();
        for id in 0..10u64 {
            s.emit(&TraceEvent::Arrival {
                now_us: id,
                req: id,
                cylinder: 100,
                deadline_us: id + 1000,
            });
            s.emit(&TraceEvent::Shed {
                now_us: id,
                req: id,
                v: 0,
            });
        }
        let obj = Objective::default();
        let score = obj.score(&s);
        assert!(score.is_finite(), "all-shed window must score finite");
        assert_eq!(score, obj.w_shed, "shed ratio saturates at 1");
    }

    #[test]
    fn single_request_window_scores_finite() {
        let mut s = Snapshot::new();
        s.emit(&TraceEvent::Arrival {
            now_us: 0,
            req: 1,
            cylinder: 50,
            deadline_us: 15,
        });
        s.emit(&TraceEvent::ServiceStart {
            now_us: 10,
            req: 1,
            cylinder: 50,
            seek_cylinders: 50,
            queue_depth: 1,
            slack_us: 5,
        });
        s.emit(&TraceEvent::ServiceComplete {
            now_us: 20,
            req: 1,
            response_us: 20,
            late: true,
        });
        let score = Objective::default().score(&s);
        assert!(score.is_finite(), "single-request window must score finite");
        assert!(score > 0.0, "a late completion must cost something");
    }

    #[test]
    fn drops_count_as_misses() {
        let mut s = Snapshot::new();
        s.emit(&TraceEvent::Arrival {
            now_us: 0,
            req: 1,
            cylinder: 50,
            deadline_us: 2,
        });
        s.emit(&TraceEvent::Drop {
            now_us: 5,
            req: 1,
            missed_by_us: 3,
            queue_depth: 1,
        });
        let obj = Objective {
            w_miss: 1.0,
            w_seek: 0.0,
            w_shed: 0.0,
            seek_scale: 1.0,
        };
        assert_eq!(obj.score(&s), 1.0, "a pure drop is a full miss");
    }

    #[test]
    fn lower_miss_ratio_scores_lower() {
        let window = |late: u64, total: u64| {
            let mut s = Snapshot::new();
            for id in 0..total {
                s.emit(&TraceEvent::ServiceComplete {
                    now_us: id,
                    req: id,
                    response_us: 10,
                    late: id < late,
                });
            }
            s
        };
        let obj = Objective::default();
        assert!(obj.score(&window(1, 10)) < obj.score(&window(5, 10)));
    }
}
