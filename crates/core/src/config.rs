//! Configuration surface of the Cascaded-SFC scheduler.
//!
//! The paper's tunables, in one place: the curve of each stage, the
//! deadline balance factor `f`, the scan-partition count `R`, and the
//! dispatcher's preemption regime with the SP/ER policies.

use sched::Micros;
use sfc::CurveKind;

/// Stage 1: the D-dimensional priority curve (SFC1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage1 {
    /// Which catalogue curve folds the priority vector.
    pub curve: CurveKind,
    /// Number of priority-like QoS dimensions consumed.
    pub dims: u32,
    /// Bits per dimension: each dimension has `2^level_bits` priority
    /// levels (the paper uses 16 levels = 4 bits).
    pub level_bits: u32,
}

impl Stage1 {
    /// The paper's default: the Diagonal curve over `dims` dimensions of
    /// 16 levels.
    pub fn paper_default(dims: u32) -> Self {
        Stage1 {
            curve: CurveKind::Diagonal,
            dims,
            level_bits: 4,
        }
    }
}

/// How stage 2 combines the priority value with the deadline.
#[derive(Debug, Clone, Copy)]
pub enum Stage2Combiner {
    /// The paper's explicit formula `v = priority + f·deadline` — the
    /// weighted Diagonal family. `f = 0` degenerates to priority-first
    /// (Sweep), `f = 1` to the Diagonal, `f → ∞` to deadline-first
    /// (the transposed Sweep / C-Scan).
    Weighted {
        /// Balance factor: `< 1` favors priority fidelity, `> 1` deadline
        /// fidelity.
        f: f64,
    },
    /// A 2-D catalogue curve over the (priority, deadline) grid
    /// (dimension 0 = priority, dimension 1 = deadline slack).
    Curve(CurveKind),
}

/// Stage 2: the priority × deadline curve (SFC2).
#[derive(Debug, Clone, Copy)]
pub struct Stage2 {
    /// Combining rule.
    pub combiner: Stage2Combiner,
    /// Deadline slacks are clamped to this horizon before quantization;
    /// anything farther out is "relaxed".
    pub horizon_us: Micros,
    /// Both axes are quantized to `2^resolution_bits` cells.
    pub resolution_bits: u32,
}

impl Stage2 {
    /// The paper's trade-off point: weighted combiner with `f = 1`,
    /// a one-second horizon, 10-bit resolution.
    pub fn paper_default() -> Self {
        Stage2 {
            combiner: Stage2Combiner::Weighted { f: 1.0 },
            horizon_us: 1_000_000,
            resolution_bits: 10,
        }
    }
}

/// How stage 3 measures the head-to-request distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceMode {
    /// `|cylinder − head|`, as in the paper (§5.3): nearest requests
    /// first, direction-blind.
    Absolute,
    /// `(cylinder − head) mod cylinders`: a circular (C-SCAN-like) sweep
    /// order — an ablation extension; a queue sorted by this value is
    /// servable in exactly one upward scan.
    Circular,
}

/// Stage 3: the (priority-deadline) × cylinder curve (SFC3), the paper's
/// partitioned sweep tuned by `R`.
#[derive(Debug, Clone, Copy)]
pub struct Stage3 {
    /// Number of vertical partitions `R` of the priority-deadline axis.
    /// `R = 1` sorts on seek distance only; large `R` approaches pure
    /// priority order. The paper finds `R = 3` beats C-SCAN on all three
    /// metrics (§5.3).
    pub partitions: u32,
    /// The priority-deadline axis is quantized to `2^resolution_bits`
    /// cells (the paper's `Max_x`).
    pub resolution_bits: u32,
    /// Number of cylinders (the paper's `Max_y`).
    pub cylinders: u32,
    /// Distance measure along the cylinder axis.
    pub distance: DistanceMode,
}

impl Stage3 {
    /// The paper's best configuration: `R = 3`, 10-bit priority axis,
    /// absolute distance.
    pub fn paper_default(cylinders: u32) -> Self {
        Stage3 {
            partitions: 3,
            resolution_bits: 10,
            cylinders,
            distance: DistanceMode::Absolute,
        }
    }
}

/// Preemption regime of the dispatcher (§3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreemptionMode {
    /// One queue; every arrival competes immediately. Risks starvation of
    /// low priorities under sustained high-priority load.
    Fully,
    /// Double queue: arrivals wait in `q'` until the active queue drains.
    /// Starvation-free but inverts priorities across the swap boundary.
    NonPreemptive,
    /// The paper's compromise: an arrival preempts only when its
    /// characterization value beats the in-service request by more than a
    /// blocking window `w`, expressed here as a fraction of the scheduling
    /// space (`0.0` = fully-preemptive, `1.0` ≈ non-preemptive).
    Conditional {
        /// Window size as a fraction of `max v_c` (0.0 ..= 1.0).
        window: f64,
    },
}

/// Dispatcher configuration: preemption mode plus the SP and ER policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchConfig {
    /// Preemption regime.
    pub mode: PreemptionMode,
    /// SP (Serve-and-Promote, §3.2): before each dispatch, promote waiting
    /// requests that meanwhile attained significantly higher priority than
    /// the next candidate.
    pub serve_promote: bool,
    /// ER (Expand-and-Reset, §3.3): multiply the window by this factor on
    /// every preemption, reset when the active queue turns over. `None`
    /// disables ER.
    pub expand_factor: Option<f64>,
    /// Re-characterize the waiting queue when it is swapped in.
    ///
    /// The paper computes `v_c` at insertion; time-dependent coordinates
    /// (deadline slack, head distance) therefore age while a request
    /// waits. Refreshing at the swap boundary re-anchors the whole batch
    /// to one instant and one head position — which is exactly what makes
    /// the "each batch is one disk scan" property of SFC3 (§5.3) hold.
    /// Disable to study the stale-characterization ablation.
    pub refresh_on_swap: bool,
    /// Bounded-queue load shedding: when set, the dispatcher holds at
    /// most this many pending requests; an insert beyond the bound sheds
    /// the *lowest-priority* pending request (largest `v_c`, ties by
    /// newest id) — mirroring SFC2's victim-selection logic, so overload
    /// degrades the cheap requests first. `None` (the default) keeps the
    /// queue unbounded.
    pub max_queue: Option<usize>,
}

impl DispatchConfig {
    /// The paper's conditionally-preemptive dispatcher with SP and ER
    /// enabled (window 10 % of the space, expansion factor 2).
    pub fn paper_default() -> Self {
        DispatchConfig {
            mode: PreemptionMode::Conditional { window: 0.10 },
            serve_promote: true,
            expand_factor: Some(2.0),
            refresh_on_swap: true,
            max_queue: None,
        }
    }

    /// Plain fully-preemptive dispatch (a single priority queue).
    pub fn fully_preemptive() -> Self {
        DispatchConfig {
            mode: PreemptionMode::Fully,
            serve_promote: false,
            expand_factor: None,
            refresh_on_swap: false,
            max_queue: None,
        }
    }

    /// Plain non-preemptive dispatch (double-queue swap, batch
    /// re-characterization on swap).
    pub fn non_preemptive() -> Self {
        DispatchConfig {
            mode: PreemptionMode::NonPreemptive,
            serve_promote: false,
            expand_factor: None,
            refresh_on_swap: true,
            max_queue: None,
        }
    }

    /// Disable swap-time re-characterization (builder-style), for the
    /// stale-`v_c` ablation.
    pub fn without_refresh(mut self) -> Self {
        self.refresh_on_swap = false;
        self
    }

    /// Bound the pending queue at `cap` requests, shedding the
    /// lowest-priority victim on overflow (builder-style). A cap of 0 is
    /// treated as 1 — a queue that can hold nothing cannot schedule.
    pub fn with_max_queue(mut self, cap: usize) -> Self {
        self.max_queue = Some(cap.max(1));
        self
    }
}

/// Complete Cascaded-SFC configuration. Any stage may be `None` (§4.1):
/// without SFC1 the first priority level is used directly; without SFC2
/// deadlines are ignored; without SFC3 seek positions are ignored.
#[derive(Debug, Clone)]
pub struct CascadeConfig {
    /// Priority stage.
    pub stage1: Option<Stage1>,
    /// Deadline stage.
    pub stage2: Option<Stage2>,
    /// Seek stage.
    pub stage3: Option<Stage3>,
    /// Dispatcher policy.
    pub dispatch: DispatchConfig,
}

impl CascadeConfig {
    /// The paper's full three-stage scheduler over `dims` QoS dimensions
    /// on a disk with `cylinders` cylinders.
    pub fn paper_default(dims: u32, cylinders: u32) -> Self {
        CascadeConfig {
            stage1: Some(Stage1::paper_default(dims)),
            stage2: Some(Stage2::paper_default()),
            stage3: Some(Stage3::paper_default(cylinders)),
            dispatch: DispatchConfig::paper_default(),
        }
    }

    /// Priority-only configuration (Figure 5/6/7 setting: relaxed
    /// deadlines, transfer-dominated blocks — SFC2 and SFC3 skipped).
    pub fn priority_only(curve: CurveKind, dims: u32, level_bits: u32) -> Self {
        CascadeConfig {
            stage1: Some(Stage1 {
                curve,
                dims,
                level_bits,
            }),
            stage2: None,
            stage3: None,
            dispatch: DispatchConfig::fully_preemptive(),
        }
    }

    /// Priority + deadline configuration (Figure 8/9 setting: SFC3
    /// skipped because transfers dominate seeks).
    pub fn priority_deadline(
        stage1_curve: CurveKind,
        dims: u32,
        level_bits: u32,
        combiner: Stage2Combiner,
        horizon_us: Micros,
    ) -> Self {
        CascadeConfig {
            stage1: Some(Stage1 {
                curve: stage1_curve,
                dims,
                level_bits,
            }),
            stage2: Some(Stage2 {
                combiner,
                horizon_us,
                resolution_bits: 10,
            }),
            stage3: None,
            dispatch: DispatchConfig::non_preemptive(),
        }
    }

    /// Replace the dispatcher policy (builder-style).
    pub fn with_dispatch(mut self, dispatch: DispatchConfig) -> Self {
        self.dispatch = dispatch;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_enables_all_stages() {
        let c = CascadeConfig::paper_default(3, 3832);
        assert!(c.stage1.is_some());
        assert!(c.stage2.is_some());
        assert!(c.stage3.is_some());
        assert!(c.dispatch.serve_promote);
    }

    #[test]
    fn priority_only_skips_later_stages() {
        let c = CascadeConfig::priority_only(CurveKind::Hilbert, 4, 4);
        assert!(c.stage2.is_none());
        assert!(c.stage3.is_none());
    }

    #[test]
    fn builder_replaces_dispatch() {
        let c =
            CascadeConfig::paper_default(2, 100).with_dispatch(DispatchConfig::non_preemptive());
        assert_eq!(c.dispatch.mode, PreemptionMode::NonPreemptive);
    }
}
