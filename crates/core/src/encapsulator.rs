//! Part 1 of the Cascaded-SFC scheduler: the encapsulator.
//!
//! Folds a request's QoS vector, deadline slack, and cylinder distance
//! into one characterization value `v_c` through the configured cascade of
//! space-filling-curve stages. `v_c` is computed once, at insertion time,
//! exactly as in the paper (the deadline slack and head distance are
//! sampled when the request joins the queue).

use crate::config::{CascadeConfig, DistanceMode, Stage2Combiner};
use sched::{HeadState, Micros, Request};
use sfc::{CurveKernel, SfcError, WeightedDiagonal};

/// The encapsulator: request → characterization value `v_c`.
///
/// Everything that does not depend on the individual request — curve
/// dispatch, stage maxima, quantization ranges, the SFC2 fixed-point
/// factor, the SFC3 strip geometry — is resolved once here, so
/// [`Encapsulator::characterize`] is straight-line integer arithmetic.
pub struct Encapsulator {
    config: CascadeConfig,
    /// SFC1 instance (when stage 1 is configured), devirtualized.
    curve1: Option<CurveKernel>,
    /// SFC2 catalogue-curve instance (when stage 2 uses `Curve`).
    curve2: Option<CurveKernel>,
    /// SFC2 weighted-diagonal order (when stage 2 uses `Weighted`), built
    /// once instead of per request.
    weighted2: Option<WeightedDiagonal>,
    /// Maximum possible output of the full cascade (stage maxima feeding
    /// the rescales live inside the precomputed quantizers below).
    max_vc: u128,
    /// Stage-3 strip geometry: grid maximum, strip width `p_s`, strip
    /// count `r`, and sweep height (`cylinders.max(2)`).
    s3_max_x: u128,
    s3_strip: u64,
    s3_r: u64,
    s3_height: u64,
    /// `true` when the whole SFC3 formula fits 64-bit arithmetic for every
    /// in-range input (the paper-default shapes by a wide margin).
    s3_fits_u64: bool,
    /// Precomputed quantizers (divisor reciprocals resolved once): stage-2
    /// priority axis, stage-2 slack axis, stage-3 priority-deadline axis.
    q2x: Quantizer,
    q2y: Quantizer,
    q3x: Quantizer,
    /// Reciprocal of the stage-3 strip width for the partition index.
    s3_strip_div: FixedDiv,
}

/// Exact division by a fixed divisor via one widening multiply (the
/// round-up reciprocal method): with `m = ⌊2^64/d⌋ + 1` and
/// `e = m·d − 2^64 ∈ [1, d]`, `⌊n·m/2^64⌋ = ⌊n/d⌋` whenever `n·e < 2^64`.
/// Numerators beyond that certified range fall back to hardware division.
#[derive(Debug, Clone, Copy)]
struct FixedDiv {
    d: u64,
    m: u64,
    n_max: u64,
}

impl FixedDiv {
    fn new(d: u64) -> FixedDiv {
        let d = d.max(1);
        if d == 1 {
            return FixedDiv {
                d,
                m: 0,
                n_max: u64::MAX,
            };
        }
        let m = ((1u128 << 64) / d as u128 + 1) as u64;
        let e = (m as u128) * (d as u128) - (1u128 << 64);
        let n_max = ((1u128 << 64) / e).saturating_sub(1).min(u64::MAX as u128) as u64;
        FixedDiv { d, m, n_max }
    }

    #[inline]
    fn div(&self, n: u64) -> u64 {
        if self.d == 1 {
            n
        } else if n <= self.n_max {
            ((n as u128 * self.m as u128) >> 64) as u64
        } else {
            n / self.d
        }
    }
}

/// One stage's order-preserving rescale `[0, max_in] → [0, max_out]` with
/// the division strength-reduced at construction. `apply` is bit-identical
/// to [`quantize`] (pinned by the `quantizer_matches_quantize` test).
#[derive(Debug, Clone, Copy)]
struct Quantizer {
    max_in: u128,
    max_out: u128,
    /// Both bounds fit `u64`, so the hot multiply-divide path applies.
    fast: bool,
    div: FixedDiv,
}

impl Quantizer {
    fn new(max_in: u128, max_out: u128) -> Quantizer {
        let fast = max_in > 0 && max_in <= u64::MAX as u128 && max_out <= u64::MAX as u128;
        Quantizer {
            max_in,
            max_out,
            fast,
            div: FixedDiv::new(if fast { max_in as u64 } else { 1 }),
        }
    }

    #[inline]
    fn apply(&self, v: u128) -> u128 {
        if self.max_in == 0 {
            return 0;
        }
        let v = v.min(self.max_in);
        if self.fast {
            if let Some(prod) = (v as u64).checked_mul(self.max_out as u64) {
                return self.div.div(prod) as u128;
            }
        }
        quantize(v, self.max_in, self.max_out)
    }
}

impl Encapsulator {
    /// Build the encapsulator, instantiating the configured curves.
    pub fn new(config: CascadeConfig) -> Result<Self, SfcError> {
        let mut curve1 = config
            .stage1
            .map(|s1| CurveKernel::build(s1.curve, s1.dims, s1.level_bits))
            .transpose()?;
        Self::assemble(config, &mut curve1)
    }

    /// Switch to `config` in place. An unchanged stage 1 keeps its kernel
    /// — building one fills a rank table of up to 4096 cells, and none of
    /// the runtime knobs (`f`, `R`, `w`) can alter it. On `Err` the
    /// encapsulator is exactly as it was.
    pub(crate) fn reconfigure(&mut self, config: CascadeConfig) -> Result<(), SfcError> {
        *self = if config.stage1 == self.config.stage1 {
            Self::assemble(config, &mut self.curve1)?
        } else {
            Self::new(config)?
        };
        Ok(())
    }

    /// Resolve everything downstream of stage 1. `curve1` is the kernel of
    /// `config.stage1`; it is taken only once nothing can fail any more,
    /// so an `Err` leaves it with the caller.
    fn assemble(config: CascadeConfig, curve1: &mut Option<CurveKernel>) -> Result<Self, SfcError> {
        // Without SFC1 the first priority level is used directly.
        let max_v1 = curve1.as_ref().map_or(u8::MAX as u128, |c| c.cells() - 1);

        let mut curve2 = None;
        let mut weighted2 = None;
        let mut max_v2 = max_v1;
        let mut s2_grid_max = 0u128;
        let mut s2_horizon = 1u64;
        if let Some(s2) = &config.stage2 {
            s2_grid_max = (1u128 << s2.resolution_bits) - 1;
            s2_horizon = s2.horizon_us.max(1);
            max_v2 = match s2.combiner {
                Stage2Combiner::Weighted { f } => {
                    let w = WeightedDiagonal::new(f);
                    let max = w.value(s2_grid_max as u64, s2_grid_max as u64);
                    weighted2 = Some(w);
                    max
                }
                Stage2Combiner::Curve(kind) => {
                    let c = CurveKernel::build(kind, 2, s2.resolution_bits)?;
                    let cells = c.cells();
                    curve2 = Some(c);
                    cells - 1
                }
            };
        }

        let mut s3_max_x = 0u128;
        let mut s3_strip = 1u64;
        let mut s3_r = 1u64;
        let mut s3_height = 2u64;
        let mut s3_fits_u64 = false;
        let max_vc = if let Some(s3) = &config.stage3 {
            let max_x = (1u128 << s3.resolution_bits) - 1;
            let max_y = (s3.cylinders.max(2) - 1) as u128;
            let max = stage3_value(max_x, max_y, max_x + 1, max_y + 1, s3.partitions);
            s3_max_x = max_x;
            let r = s3.partitions.max(1) as u128;
            s3_strip = (((max_x + 1) / r).max(1)) as u64;
            s3_r = r as u64;
            s3_height = s3.cylinders.max(2) as u64;
            // Every term of the formula is bounded by the full-corner value,
            // so `max <= u64::MAX` makes 64-bit evaluation exact for all
            // in-range (x, y).
            s3_fits_u64 = max <= u64::MAX as u128;
            max
        } else {
            max_v2
        };

        Ok(Encapsulator {
            config,
            curve1: curve1.take(),
            curve2,
            weighted2,
            max_vc,
            s3_max_x,
            s3_strip,
            s3_r,
            s3_height,
            s3_fits_u64,
            q2x: Quantizer::new(max_v1, s2_grid_max),
            q2y: Quantizer::new(s2_horizon as u128, s2_grid_max),
            q3x: Quantizer::new(max_v2, s3_max_x),
            s3_strip_div: FixedDiv::new(s3_strip),
        })
    }

    /// The largest characterization value this configuration can emit.
    pub fn max_value(&self) -> u128 {
        self.max_vc
    }

    /// The configuration this encapsulator was built from.
    pub fn config(&self) -> &CascadeConfig {
        &self.config
    }

    /// Characterize a request at insertion time: lower `v_c` = served
    /// sooner.
    pub fn characterize(&self, req: &Request, head: &HeadState) -> u128 {
        let v1 = self.stage1_value(req);
        let v2 = self.stage2_value(v1, req, head.now_us);
        self.stage3_value_of(v2, req, head)
    }

    /// Characterize a batch of arrivals: appends to `out` one value per
    /// request, `characterize(&batch[i], head_i)` where `head_i` is `head`
    /// re-anchored to `batch[i].arrival_us` (the convention of
    /// [`sched::DiskScheduler::enqueue_batch`]). `out` may already hold
    /// earlier batches.
    ///
    /// A plain loop over [`Self::characterize`], kept with this signature
    /// because the frozen `benchmark/` harness calls it
    /// (`benchmark/src/trace.rs`); nothing in the workspace does.
    pub fn map_batch_into(&self, batch: &[Request], head: &HeadState, out: &mut Vec<u128>) {
        out.extend(batch.iter().map(|req| {
            let at_arrival = HeadState::new(head.cylinder, req.arrival_us, head.cylinders);
            self.characterize(req, &at_arrival)
        }));
    }

    /// Stage 1: priority vector → scalar.
    fn stage1_value(&self, req: &Request) -> u128 {
        match (&self.config.stage1, &self.curve1) {
            (Some(s1), Some(curve)) => {
                let side = curve.side();
                let mut point = [0u64; sched::MAX_QOS_DIMS];
                let dims = s1.dims as usize;
                for (j, slot) in point.iter_mut().enumerate().take(dims) {
                    // Missing dimensions default to the lowest priority;
                    // levels beyond the grid are clamped.
                    let level = if j < req.qos.dims() {
                        req.qos.level(j) as u64
                    } else {
                        side - 1
                    };
                    *slot = level.min(side - 1);
                }
                curve.index(&point[..dims])
            }
            _ => {
                if req.qos.dims() > 0 {
                    req.qos.level(0) as u128
                } else {
                    0
                }
            }
        }
    }

    /// Stage 2: fold the deadline slack in.
    fn stage2_value(&self, v1: u128, req: &Request, now: Micros) -> u128 {
        let Some(s2) = &self.config.stage2 else {
            return v1;
        };
        let x = self.q2x.apply(v1) as u64;
        let slack = req.slack_us(now).min(s2.horizon_us);
        let y = self.q2y.apply(slack as u128) as u64;
        match &self.weighted2 {
            Some(w) => w.value(x, y),
            None => self
                .curve2
                .as_ref()
                .expect("curve2 built for Curve combiner")
                .index(&[x, y]),
        }
    }

    /// Stage 3: fold the cylinder distance in (the paper's partitioned
    /// sweep, tuned by `R`).
    fn stage3_value_of(&self, v2: u128, req: &Request, head: &HeadState) -> u128 {
        let Some(s3) = &self.config.stage3 else {
            return v2;
        };
        let x = self.q3x.apply(v2);
        let y = match s3.distance {
            DistanceMode::Absolute => head.distance_to(req.cylinder) as u128,
            DistanceMode::Circular => {
                let n = s3.cylinders as i64;
                (((req.cylinder as i64 - head.cylinder as i64) % n + n) % n) as u128
            }
        };
        // 64-bit evaluation of the same formula when the corner value fits
        // (in-range y only: a cylinder beyond the configured disk keeps the
        // wide path).
        if self.s3_fits_u64 && y < self.s3_height as u128 {
            let x = x as u64;
            let strip = self.s3_strip;
            let p_n = self.s3_strip_div.div(x).min(self.s3_r - 1);
            // `strip * p_n` first: every partial product stays below the
            // corner value the fits-u64 flag certified.
            return (strip * p_n * self.s3_height + y as u64 * strip + (x - strip * p_n)) as u128;
        }
        stage3_value(
            x,
            y,
            self.s3_max_x + 1,
            self.s3_height as u128,
            s3.partitions,
        )
    }
}

/// The paper's SFC3 formula (§5.3): partition the X (priority-deadline)
/// axis into `r` vertical strips of width `p_s = max_x / r`; strips are
/// visited left to right, and within a strip cells are swept by Y
/// (cylinder distance) first:
///
/// ```text
/// v_c = max_y·p_s·p_n + y·p_s + (x − p_s·p_n)
/// ```
///
/// `r = 1` reduces to the plain sweep `v_c = y·max_x + x`.
fn stage3_value(x: u128, y: u128, width_x: u128, height_y: u128, r: u32) -> u128 {
    let r = r.max(1) as u128;
    let p_s = (width_x / r).max(1);
    let p_n = (x / p_s).min(r - 1);
    height_y * p_s * p_n + y * p_s + (x - p_s * p_n)
}

/// Scale `v ∈ [0, max_in]` to `[0, max_out]`, preserving order.
#[inline]
fn quantize(v: u128, max_in: u128, max_out: u128) -> u128 {
    if max_in == 0 {
        return 0;
    }
    let v = v.min(max_in);
    // All-64-bit operands (the common scheduling shapes): one hardware
    // multiply and divide instead of the soft u128 division.
    if let (Ok(v64), Ok(in64), Ok(out64)) = (
        u64::try_from(v),
        u64::try_from(max_in),
        u64::try_from(max_out),
    ) {
        if let Some(prod) = v64.checked_mul(out64) {
            return (prod / in64) as u128;
        }
    }
    // (v * max_out) may exceed u128 for extreme configs; split the scale.
    if let Some(prod) = v.checked_mul(max_out) {
        prod / max_in
    } else {
        // Fall back to f64: only reachable with >64-bit stage outputs,
        // where the 52-bit mantissa still preserves the quantized order.
        ((v as f64 / max_in as f64) * max_out as f64) as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Stage3;
    use sched::QosVector;
    use sfc::CurveKind;

    fn head() -> HeadState {
        HeadState::new(1000, 0, 3832)
    }

    fn req(qos: &[u8], deadline: Micros, cyl: u32) -> Request {
        Request::read(1, 0, deadline, cyl, 65536, QosVector::new(qos))
    }

    #[test]
    fn stage1_only_orders_by_curve() {
        let e = Encapsulator::new(CascadeConfig::priority_only(CurveKind::Diagonal, 3, 4)).unwrap();
        let high = e.characterize(&req(&[0, 0, 0], u64::MAX, 0), &head());
        let low = e.characterize(&req(&[15, 15, 15], u64::MAX, 0), &head());
        assert!(high < low);
        assert_eq!(high, 0);
        assert_eq!(low, e.max_value());
    }

    #[test]
    fn no_stage1_uses_first_level() {
        let cfg = CascadeConfig {
            stage1: None,
            stage2: None,
            stage3: None,
            dispatch: crate::DispatchConfig::fully_preemptive(),
        };
        let e = Encapsulator::new(cfg).unwrap();
        assert_eq!(e.characterize(&req(&[7], u64::MAX, 0), &head()), 7);
        assert_eq!(e.characterize(&req(&[], u64::MAX, 0), &head()), 0);
    }

    #[test]
    fn stage2_weighted_orders_by_priority_plus_deadline() {
        let cfg = CascadeConfig::priority_deadline(
            CurveKind::Diagonal,
            1,
            4,
            Stage2Combiner::Weighted { f: 1.0 },
            1_000_000,
        );
        let e = Encapsulator::new(cfg).unwrap();
        // Same priority: tighter deadline wins.
        let urgent = e.characterize(&req(&[3], 100_000, 0), &head());
        let lax = e.characterize(&req(&[3], 900_000, 0), &head());
        assert!(urgent < lax);
        // Same deadline: higher priority wins.
        let hi = e.characterize(&req(&[0], 500_000, 0), &head());
        let lo = e.characterize(&req(&[9], 500_000, 0), &head());
        assert!(hi < lo);
    }

    #[test]
    fn stage2_f_zero_ignores_deadline() {
        let cfg = CascadeConfig::priority_deadline(
            CurveKind::Diagonal,
            1,
            4,
            Stage2Combiner::Weighted { f: 0.0 },
            1_000_000,
        );
        let e = Encapsulator::new(cfg).unwrap();
        let hi_late = e.characterize(&req(&[0], 999_000, 0), &head());
        let lo_urgent = e.characterize(&req(&[1], 1_000, 0), &head());
        assert!(hi_late < lo_urgent, "f = 0 must order on priority alone");
    }

    #[test]
    fn stage2_huge_f_orders_by_deadline() {
        let cfg = CascadeConfig::priority_deadline(
            CurveKind::Diagonal,
            1,
            4,
            Stage2Combiner::Weighted { f: 1e6 },
            1_000_000,
        );
        let e = Encapsulator::new(cfg).unwrap();
        let lo_urgent = e.characterize(&req(&[15], 1_000, 0), &head());
        let hi_late = e.characterize(&req(&[0], 999_000, 0), &head());
        assert!(lo_urgent < hi_late, "huge f must order on deadline alone");
    }

    #[test]
    fn stage2_curve_combiner_works() {
        let cfg = CascadeConfig::priority_deadline(
            CurveKind::Diagonal,
            2,
            4,
            Stage2Combiner::Curve(CurveKind::Hilbert),
            1_000_000,
        );
        let e = Encapsulator::new(cfg).unwrap();
        let a = e.characterize(&req(&[0, 0], 1_000, 0), &head());
        let b = e.characterize(&req(&[15, 15], 999_000, 0), &head());
        assert!(a < b);
        assert!(b <= e.max_value());
    }

    #[test]
    fn stage3_r1_orders_by_distance_first() {
        let mut cfg = CascadeConfig::paper_default(1, 3832);
        cfg.stage3 = Some(Stage3 {
            partitions: 1,
            resolution_bits: 10,
            cylinders: 3832,
            distance: DistanceMode::Absolute,
        });
        let e = Encapsulator::new(cfg).unwrap();
        // Near low-priority beats far high-priority when R = 1.
        let near_lo = e.characterize(&req(&[15], 900_000, 1010), &head());
        let far_hi = e.characterize(&req(&[0], 100_000, 3000), &head());
        assert!(near_lo < far_hi, "R = 1 sorts on seek distance only");
    }

    #[test]
    fn stage3_large_r_orders_by_priority_first() {
        let mut cfg = CascadeConfig::paper_default(1, 3832);
        cfg.stage3 = Some(Stage3 {
            partitions: 1024,
            resolution_bits: 10,
            cylinders: 3832,
            distance: DistanceMode::Absolute,
        });
        let e = Encapsulator::new(cfg).unwrap();
        let near_lo = e.characterize(&req(&[15], 900_000, 1010), &head());
        let far_hi = e.characterize(&req(&[0], 100_000, 3000), &head());
        assert!(far_hi < near_lo, "large R sorts on priority first");
    }

    #[test]
    fn stage3_formula_reduces_at_r1() {
        // r = 1: v = y*max_x + x (the plain sweep).
        assert_eq!(stage3_value(5, 7, 16, 100, 1), 7 * 16 + 5);
        // r = 4 partitions of width 4: x = 5 is in partition 1.
        // v = 100*4*1 + 7*4 + (5-4) = 429.
        assert_eq!(stage3_value(5, 7, 16, 100, 4), 429);
    }

    #[test]
    fn circular_distance_mode() {
        let mut cfg = CascadeConfig::paper_default(1, 3832);
        cfg.stage3 = Some(Stage3 {
            partitions: 1,
            resolution_bits: 10,
            cylinders: 3832,
            distance: DistanceMode::Circular,
        });
        let e = Encapsulator::new(cfg).unwrap();
        // Head at 1000: cylinder 900 is "behind" (wraps: distance 3732),
        // cylinder 1100 is ahead (distance 100).
        let behind = e.characterize(&req(&[0], 500_000, 900), &head());
        let ahead = e.characterize(&req(&[0], 500_000, 1100), &head());
        assert!(ahead < behind);
    }

    #[test]
    fn characterization_bounded_by_max_value() {
        let e = Encapsulator::new(CascadeConfig::paper_default(3, 3832)).unwrap();
        for qos in [[0u8, 0, 0], [15, 15, 15], [7, 3, 12]] {
            for deadline in [1_000u64, 500_000, u64::MAX] {
                for cyl in [0u32, 1000, 3831] {
                    let v = e.characterize(&req(&qos, deadline, cyl), &head());
                    assert!(v <= e.max_value());
                }
            }
        }
    }

    /// `map_batch_into` is a loop over `characterize`, each request
    /// anchored at its own arrival time, appending to what `out` holds.
    #[test]
    fn map_batch_into_matches_characterize() {
        let e = Encapsulator::new(CascadeConfig::paper_default(3, 3832)).unwrap();
        let h = HeadState::new(1700, 0, 3832);
        let mut out = Vec::new();
        for n in [0usize, 1, 9] {
            let batch: Vec<Request> = (0..n as u64)
                .map(|i| {
                    let s = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    Request::read(
                        i,
                        i * 333,
                        1_000 + s % 2_000_000,
                        (s % 3832) as u32,
                        65536,
                        QosVector::new(&[(s % 16) as u8, (s % 33) as u8, (s % 7) as u8]),
                    )
                })
                .collect();
            let before = out.len();
            e.map_batch_into(&batch, &h, &mut out);
            assert_eq!(out.len(), before + n);
            for (req, &v) in batch.iter().zip(&out[before..]) {
                let at = HeadState::new(h.cylinder, req.arrival_us, h.cylinders);
                assert_eq!(v, e.characterize(req, &at), "req {}", req.id);
            }
        }
    }

    /// A configuration whose stage-2 curve cannot be built is refused with
    /// the stage-1 kernel — moved out for the attempt — back in place: a
    /// lost kernel would characterize on the first QoS level alone. An
    /// accepted one carries the kernel across and matches a fresh build.
    #[test]
    fn refused_reconfigure_leaves_the_encapsulator_intact() {
        let mut e = Encapsulator::new(CascadeConfig::paper_default(3, 3832)).unwrap();
        let sample: Vec<Request> = (0..64u64)
            .map(|i| {
                let s = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                Request::read(
                    i,
                    0,
                    1_000 + s % 2_000_000,
                    (s % 3832) as u32,
                    65536,
                    QosVector::new(&[(s % 16) as u8, (s % 13) as u8, (s % 7) as u8]),
                )
            })
            .collect();
        let values = |e: &Encapsulator| -> Vec<u128> {
            sample.iter().map(|r| e.characterize(r, &head())).collect()
        };
        let before = values(&e);

        let mut unbuildable = e.config().clone();
        let s2 = unbuildable.stage2.as_mut().unwrap();
        s2.combiner = Stage2Combiner::Curve(CurveKind::Hilbert);
        s2.resolution_bits = 64; // a 2^64 side does not fit the curve's u64
        assert!(matches!(
            e.reconfigure(unbuildable),
            Err(SfcError::TooLarge { .. })
        ));
        assert_eq!(values(&e), before);
        assert_eq!(e.config().stage2.unwrap().resolution_bits, 10);

        let mut retuned = e.config().clone();
        retuned.stage2.as_mut().unwrap().combiner = Stage2Combiner::Weighted { f: 2.5 };
        retuned.stage3.as_mut().unwrap().partitions = 5;
        e.reconfigure(retuned.clone()).unwrap();
        let fresh = Encapsulator::new(retuned).unwrap();
        assert_eq!(values(&e), values(&fresh));
        assert_eq!(e.max_value(), fresh.max_value());
        assert_ne!(values(&e), before);
    }

    #[test]
    fn fixed_div_is_exact_division() {
        let mut s = 0x9e37u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        for _ in 0..20_000 {
            let d = (next() % (1 << 21)).max(1);
            let fd = FixedDiv::new(d);
            // Numerators across the whole range, including around n_max.
            for n in [
                next() % (1 << 22),
                next(),
                fd.n_max,
                fd.n_max.wrapping_add(1),
                fd.n_max.saturating_sub(1),
                u64::MAX,
            ] {
                assert_eq!(fd.div(n), n / d, "d={d} n={n}");
            }
        }
    }

    #[test]
    fn quantizer_matches_quantize() {
        let mut s = 0xdeadu64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        for _ in 0..5_000 {
            let max_in = next() as u128 % (1u128 << 70);
            let max_out = next() as u128 % 4096;
            let q = Quantizer::new(max_in, max_out);
            for v in [
                0u128,
                next() as u128 % (max_in + 1),
                max_in,
                max_in + next() as u128, // clamped region
            ] {
                assert_eq!(
                    q.apply(v),
                    quantize(v, max_in, max_out),
                    "max_in={max_in} max_out={max_out} v={v}"
                );
            }
        }
    }

    #[test]
    fn quantize_preserves_order_and_bounds() {
        assert_eq!(quantize(0, 100, 15), 0);
        assert_eq!(quantize(100, 100, 15), 15);
        assert_eq!(quantize(200, 100, 15), 15); // clamped
        let a = quantize(30, 100, 1000);
        let b = quantize(60, 100, 1000);
        assert!(a < b);
    }
}
