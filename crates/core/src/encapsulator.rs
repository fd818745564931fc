//! Part 1 of the Cascaded-SFC scheduler: the encapsulator.
//!
//! Folds a request's QoS vector, deadline slack, and cylinder distance
//! into one characterization value `v_c` through the configured cascade of
//! space-filling-curve stages. `v_c` is computed once, at insertion time,
//! exactly as in the paper (the deadline slack and head distance are
//! sampled when the request joins the queue).

use crate::config::{CascadeConfig, DistanceMode, Stage1, Stage2, Stage2Combiner, Stage3};
use sched::{HeadState, Micros, Request};
use sfc::{CurveKernel, SfcError, WeightedDiagonal};
use std::cell::RefCell;
use std::sync::{Arc, Weak};

/// The encapsulator: request → characterization value `v_c`.
///
/// Everything that does not depend on the individual request — curve
/// dispatch, stage maxima, quantization ranges, the SFC2 fixed-point
/// factor, the SFC3 strip geometry — is resolved once here, so
/// [`Encapsulator::characterize`] is straight-line integer arithmetic.
pub struct Encapsulator {
    config: CascadeConfig,
    /// SFC1 instance (when stage 1 is configured and not folded into
    /// `x2`), devirtualized.
    curve1: Option<CurveKernel>,
    /// A `SmallLut` SFC1 feeding SFC2, folded with the stage-2 rescale into
    /// one table; it replaces `curve1`.
    x2: Option<AbscissaTable>,
    /// SFC2 catalogue-curve instance (when stage 2 uses `Curve`).
    curve2: Option<CurveKernel>,
    /// SFC2 weighted-diagonal order (when stage 2 uses `Weighted`), built
    /// once instead of per request.
    weighted2: Option<WeightedDiagonal>,
    /// The whole cascade up to the stage-3 abscissa in 64-bit arithmetic,
    /// when construction certified it exact (the paper-default shape).
    narrow: Option<Narrow>,
    /// Maximum possible output of the full cascade (stage maxima feeding
    /// the rescales live inside the precomputed quantizers below).
    max_vc: u128,
    /// Largest value `characterize` can return for any request: `max_vc`,
    /// or with an absolute-distance stage 3 the sweep value at the
    /// farthest cylinder a `u32` names (a cylinder beyond the configured
    /// disk lies past `max_vc`).
    max_emitted: u128,
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

/// Stage 1 as the stage-2 abscissa it feeds: `x2[off] = q2x(rank[off])`,
/// a `SmallLut` kernel's ranks with the stage-2 rescale applied at build
/// time, by the QoS point's mixed-radix offset — one load, no rescale.
///
/// The cells depend only on the table's [`TableShape`], so every
/// encapsulator of one shape on a thread holds the same cells: a build
/// folds a table only when no live encapsulator of its shape holds one.
#[derive(Debug)]
struct AbscissaTable {
    x2: Arc<[u16]>,
    /// Stage-1 grid side and dimensions.
    side: u64,
    dims: usize,
}

/// What an [`AbscissaTable`]'s cells are a function of: the stage-1 curve
/// and the stage-2 grid (`resolution_bits`) its ranks are rescaled onto.
type TableShape = (Stage1, u32);

/// A registered table: its shape, its grid side and its cells. Weak, so
/// the registry keeps no table alive: the last encapsulator holding one
/// frees it.
type SharedTable = (TableShape, u64, Weak<[u16]>);

thread_local! {
    /// The tables folded on this thread.
    static TABLES: RefCell<Vec<SharedTable>> = const { RefCell::new(Vec::new()) };
}

impl AbscissaTable {
    /// The shape of `config`'s table: stage 1 feeding a stage 2.
    fn shape(config: &CascadeConfig) -> Option<TableShape> {
        Some((config.stage1?, config.stage2?.resolution_bits))
    }

    /// The table of `shape` a live encapsulator on this thread holds.
    fn shared(shape: TableShape) -> Option<AbscissaTable> {
        TABLES.with_borrow(|tables| {
            tables
                .iter()
                .filter(|(s, ..)| *s == shape)
                .find_map(|(_, side, x2)| {
                    Some(AbscissaTable {
                        x2: x2.upgrade()?,
                        side: *side,
                        dims: shape.0.dims as usize,
                    })
                })
        })
    }

    /// Offer this table to later builds of `shape` on this thread,
    /// pruning the entries whose tables are gone.
    fn share(&self, shape: TableShape) {
        TABLES.with_borrow_mut(|tables| {
            tables.retain(|(.., x2)| x2.strong_count() > 0);
            tables.push((shape, self.side, Arc::downgrade(&self.x2)));
        });
    }

    /// Fold `kernel` and `q2x` into a table when `kernel` is a `SmallLut`
    /// and the stage-2 grid fits `u16`; otherwise hand the kernel back.
    fn fold(kernel: CurveKernel, q2x: &Quantizer) -> Result<AbscissaTable, CurveKernel> {
        match kernel {
            CurveKernel::SmallLut {
                lut, side, dims, ..
            } if q2x.max_out <= u16::MAX.into() => Ok(AbscissaTable {
                x2: lut
                    .iter()
                    .map(|&rank| q2x.apply(rank.into()) as u16)
                    .collect(),
                side,
                dims: dims as usize,
            }),
            kernel => Err(kernel),
        }
    }

    /// Stage-1 cells, `side^dims`.
    fn cells(&self) -> u128 {
        self.x2.len() as u128
    }

    /// The stage-2 abscissa of a request.
    #[inline]
    fn abscissa(&self, req: &Request) -> u64 {
        // Missing dimensions default to the lowest priority; levels beyond
        // the grid are clamped.
        let levels = req.qos.levels();
        let top = self.side - 1;
        let mut off = 0;
        for j in (0..self.dims).rev() {
            off = off * self.side + levels.get(j).map_or(top, |&l| u64::from(l).min(top));
        }
        self.x2[off as usize].into()
    }
}

/// Stage 2 and the stage-3 rescale of an [`AbscissaTable`] stage 1, a
/// weighted stage 2 and a stage 3, in `u64` — bit-identical to the general
/// path wherever [`Narrow::certify`] admits it.
///
/// The general path builds SFC2's 75-bit composite `v2 = A·2³² + x`, with
/// `A = x·2³² + fx·y`, and divides `v2·M` by its maximum `D` in `u128`.
/// Here `g = 2^min(tz(fx), 32)` divides both terms of `A`, so `A = g·A'`
/// with `A' = a_x·x + a_y·y` (for `f = 1` at 10 bits, `A' = x + y`,
/// `A'_max = 2046`), and with `G·M < 2³² ≤ g·2³²` both minor terms stay
/// below the base `g·2³²`: `k·D ≤ v2·M` holds exactly when
/// `(k·A'_max, k·G) ≤lex (A'·M, x·M)`. The abscissa `⌊v2·M/D⌋` is the
/// largest such `k`: `q = ⌊A'·M/A'_max⌋`, less one exactly when the majors
/// tie and `q·G > x·M`. (`A'_max·M < 2⁶⁴` also keeps `v2·M` below `2¹²⁸`,
/// so the general path divides exactly there too, never through `f64`.)
#[derive(Debug)]
struct Narrow {
    /// Stage-2 grid maximum `G`, slack horizon, and `⌊·/max(horizon, 1)⌋`.
    g: u64,
    horizon: Micros,
    per_horizon: FixedDiv,
    /// `A' = a_x·x + a_y·y`.
    a_x: u64,
    a_y: u64,
    /// Stage-3 grid maximum `M`, `A'_max = G·(a_x + a_y)`, and
    /// `⌊·/A'_max⌋`.
    m: u64,
    a_max: u64,
    per_a_max: FixedDiv,
}

impl Narrow {
    /// The 64-bit evaluation when it is exact: `0 < G ≤ u16::MAX` (the
    /// table's grid), `G·M < 2³²` (the lexicographic split) and `horizon·G`,
    /// `A'_max·M` in `u64`.
    fn certify(s2: &Stage2, g: u128, fx: u128, m: u128) -> Option<Narrow> {
        let g = u64::from(u16::try_from(g).ok().filter(|&g| g > 0)?);
        let m = u64::try_from(m).ok()?;
        if g.checked_mul(m)? >= 1 << 32 {
            return None;
        }
        let shift = fx.trailing_zeros().min(32);
        let a_x = 1u64 << (32 - shift);
        let a_y = u64::try_from(fx >> shift).ok()?;
        let a_max = a_x.checked_add(a_y)?.checked_mul(g)?;
        a_max.checked_mul(m)?;
        s2.horizon_us.checked_mul(g)?;
        Some(Narrow {
            g,
            horizon: s2.horizon_us,
            per_horizon: FixedDiv::new(s2.horizon_us.max(1)),
            a_x,
            a_y,
            m,
            a_max,
            per_a_max: FixedDiv::new(a_max),
        })
    }

    /// The stage-3 abscissa of a request whose stage-2 abscissa is `x`:
    /// `q3x(w.value(x, y))`.
    #[inline]
    fn abscissa(&self, x: u64, req: &Request, now: Micros) -> u64 {
        let y = self
            .per_horizon
            .div(req.slack_us(now).min(self.horizon) * self.g);
        self.rescale(x, y)
    }

    /// `⌊w.value(x, y)·M / w.value(G, G)⌋` for `x, y ≤ G`.
    #[inline]
    fn rescale(&self, x: u64, y: u64) -> u64 {
        let major = (self.a_x * x + self.a_y * y) * self.m;
        let q = self.per_a_max.div(major);
        q - u64::from((q * self.a_max == major) & (q * self.g > x * self.m))
    }
}

impl Encapsulator {
    /// Build the encapsulator, instantiating the configured curves.
    ///
    /// A stage whose arithmetic would overflow — a grid of 128 bits or
    /// more, a weighted composite beyond `u128` (e.g. a balance factor of
    /// `1e300`), a sweep beyond `u128` at the farthest cylinder a request
    /// can name — is refused with [`SfcError::TooLarge`].
    ///
    /// Stage 1 is built only when no live encapsulator on this thread
    /// holds the stage-1 table this configuration folds.
    pub fn new(config: CascadeConfig) -> Result<Self, SfcError> {
        let mut x2 = AbscissaTable::shape(&config).and_then(AbscissaTable::shared);
        let mut curve1 = match config.stage1 {
            Some(s1) if x2.is_none() => Some(CurveKernel::build(s1.curve, s1.dims, s1.level_bits)?),
            _ => None,
        };
        Self::assemble(config, &mut curve1, &mut x2)
    }

    /// Switch to `config` in place. Unchanged stage 1 and stage-2 grid keep
    /// stage 1's kernel or table — building one fills up to 4096 cells, and
    /// none of the runtime knobs (`f`, `R`, `w`) can alter either. On `Err`
    /// the encapsulator is exactly as it was.
    pub(crate) fn reconfigure(&mut self, config: CascadeConfig) -> Result<(), SfcError> {
        let grid = |c: &CascadeConfig| c.stage2.map(|s2| s2.resolution_bits);
        *self = if config.stage1 == self.config.stage1 && grid(&config) == grid(&self.config) {
            Self::assemble(config, &mut self.curve1, &mut self.x2)?
        } else {
            Self::new(config)?
        };
        Ok(())
    }

    /// Resolve everything downstream of stage 1. `curve1` and `x2` hold
    /// stage 1 for `config` — its kernel, or its table when one was already
    /// folded for the same stage-2 grid; both are taken only once nothing
    /// can fail any more, so an `Err` leaves them with the caller.
    fn assemble(
        config: CascadeConfig,
        curve1: &mut Option<CurveKernel>,
        x2: &mut Option<AbscissaTable>,
    ) -> Result<Self, SfcError> {
        let too_large = |order| SfcError::TooLarge { dims: 2, order };
        // Without SFC1 the first priority level is used directly.
        let max_v1 = match (curve1.as_ref(), x2.as_ref()) {
            (Some(c), _) => c.cells() - 1,
            (None, Some(t)) => t.cells() - 1,
            (None, None) => u8::MAX as u128,
        };

        let mut curve2 = None;
        let mut weighted2 = None;
        let mut max_v2 = max_v1;
        let mut s2_grid_max = 0u128;
        let mut s2_horizon = 1u64;
        if let Some(s2) = &config.stage2 {
            let bits = s2.resolution_bits;
            s2_grid_max = grid_max(bits).ok_or(too_large(bits))?;
            s2_horizon = s2.horizon_us.max(1);
            max_v2 = match s2.combiner {
                Stage2Combiner::Weighted { f } => {
                    let w = WeightedDiagonal::new(f);
                    let max = weighted_max(&w, s2_grid_max).ok_or(too_large(bits))?;
                    weighted2 = Some(w);
                    max
                }
                Stage2Combiner::Curve(kind) => {
                    let c = CurveKernel::build(kind, 2, bits)?;
                    let cells = c.cells();
                    curve2 = Some(c);
                    cells - 1
                }
            };
        }

        let mut max_emitted = max_v2;
        let mut s3_max_x = 0u128;
        let mut s3_strip = 1u64;
        let mut s3_r = 1u64;
        let mut s3_height = 2u64;
        let mut s3_fits_u64 = false;
        let max_vc = if let Some(s3) = &config.stage3 {
            let bits = s3.resolution_bits;
            let max_x = grid_max(bits).ok_or(too_large(bits))?;
            let height = s3.cylinders.max(2) as u128;
            let sweep = |y| stage3_value(max_x, y, max_x + 1, height, s3.partitions);
            let max = sweep(height - 1).ok_or(too_large(bits))?;
            max_emitted = match s3.distance {
                DistanceMode::Absolute => sweep(u32::MAX.into()).ok_or(too_large(bits))?,
                DistanceMode::Circular => max,
            };
            s3_max_x = max_x;
            let r = s3.partitions.max(1) as u128;
            s3_strip = (((max_x + 1) / r).max(1)) as u64;
            s3_r = r as u64;
            s3_height = height as u64;
            // Every term of the formula is bounded by the full-corner value,
            // so `max <= u64::MAX` makes 64-bit evaluation exact for all
            // in-range (x, y).
            s3_fits_u64 = max <= u64::MAX as u128;
            max
        } else {
            max_v2
        };

        let q2x = Quantizer::new(max_v1, s2_grid_max);
        let (mut curve1, mut x2) = (curve1.take(), x2.take());
        if let Some(shape) = AbscissaTable::shape(&config) {
            if let Some(kernel) = curve1.take() {
                match AbscissaTable::fold(kernel, &q2x) {
                    Ok(table) => {
                        table.share(shape);
                        x2 = Some(table);
                    }
                    Err(kernel) => curve1 = Some(kernel),
                }
            }
        }
        let narrow = match (&x2, &config.stage2, &weighted2) {
            (Some(_), Some(s2), Some(w)) if s3_fits_u64 => {
                Narrow::certify(s2, s2_grid_max, w.fixed_factor(), s3_max_x)
            }
            _ => None,
        };
        Ok(Encapsulator {
            config,
            curve1,
            x2,
            curve2,
            weighted2,
            narrow,
            max_vc,
            max_emitted,
            s3_max_x,
            s3_strip,
            s3_r,
            s3_height,
            s3_fits_u64,
            q2x,
            q2y: Quantizer::new(s2_horizon as u128, s2_grid_max),
            q3x: Quantizer::new(max_v2, s3_max_x),
            s3_strip_div: FixedDiv::new(s3_strip),
        })
    }

    /// The largest characterization value this configuration can emit.
    pub fn max_value(&self) -> u128 {
        self.max_vc
    }

    /// `true` when every value [`Self::characterize`] can return fits
    /// `u64`, requests with cylinders beyond the configured disk included.
    pub(crate) fn fits_u64(&self) -> bool {
        self.max_emitted <= u64::MAX as u128
    }

    /// The configuration this encapsulator was built from.
    pub fn config(&self) -> &CascadeConfig {
        &self.config
    }

    /// Stage 1's folded table, when it has one.
    #[cfg(test)]
    fn stage1_table(&self) -> Option<&Arc<[u16]>> {
        self.x2.as_ref().map(|t| &t.x2)
    }

    /// Characterize a request at insertion time: lower `v_c` = served
    /// sooner.
    pub fn characterize(&self, req: &Request, head: &HeadState) -> u128 {
        let Some(s3) = &self.config.stage3 else {
            return self.stage2_value(req, head.now_us);
        };
        let x = match (&self.narrow, &self.x2) {
            (Some(narrow), Some(table)) => narrow
                .abscissa(table.abscissa(req), req, head.now_us)
                .into(),
            _ => self.q3x.apply(self.stage2_value(req, head.now_us)),
        };
        self.sweep(s3, x, req, head)
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

    /// Stages 1 and 2: the priority value with the deadline slack folded
    /// in.
    fn stage2_value(&self, req: &Request, now: Micros) -> u128 {
        let Some(s2) = &self.config.stage2 else {
            return self.stage1_value(req);
        };
        let x = match &self.x2 {
            Some(table) => table.abscissa(req),
            None => self.q2x.apply(self.stage1_value(req)) as u64,
        };
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

    /// Stage 3: fold the cylinder distance into the abscissa `x` (the
    /// paper's partitioned sweep, tuned by `R`).
    fn sweep(&self, s3: &Stage3, x: u128, req: &Request, head: &HeadState) -> u128 {
        let y = match s3.distance {
            DistanceMode::Absolute => head.distance_to(req.cylinder) as u64,
            DistanceMode::Circular => {
                let n = s3.cylinders as i64;
                (((req.cylinder as i64 - head.cylinder as i64) % n + n) % n) as u64
            }
        };
        // 64-bit evaluation of the same formula when the corner value fits
        // (in-range y only: a cylinder beyond the configured disk keeps the
        // wide path).
        if self.s3_fits_u64 && y < self.s3_height {
            let x = x as u64;
            let strip = self.s3_strip;
            let p_n = self.s3_strip_div.div(x).min(self.s3_r - 1);
            // `strip * p_n` first: every partial product stays below the
            // corner value the fits-u64 flag certified.
            return (strip * p_n * self.s3_height + y * strip + (x - strip * p_n)) as u128;
        }
        stage3_value(
            x,
            y.into(),
            self.s3_max_x + 1,
            self.s3_height as u128,
            s3.partitions,
        )
        .expect("construction bounded the sweep at the farthest cylinder")
    }
}

/// `2^bits − 1`, the largest coordinate of a `bits`-bit grid axis, when it
/// fits `u128`.
fn grid_max(bits: u32) -> Option<u128> {
    1u128.checked_shl(bits).map(|side| side - 1)
}

/// `w.value(g, g)`, the weighted stage's largest composite, when it fits
/// `u128` (and `g` fits the `u64` that `value` takes); every value of the
/// grid lies below it.
fn weighted_max(w: &WeightedDiagonal, g: u128) -> Option<u128> {
    u64::try_from(g).ok()?;
    let main = (g << 32).checked_add(w.fixed_factor().checked_mul(g)?)?;
    main.checked_mul(1 << 32).map(|v| v | (g & 0xFFFF_FFFF))
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
/// `r = 1` reduces to the plain sweep `v_c = y·max_x + x`. `None` when the
/// value does not fit `u128`.
fn stage3_value(x: u128, y: u128, width_x: u128, height_y: u128, r: u32) -> Option<u128> {
    let r = r.max(1) as u128;
    let p_s = (width_x / r).max(1);
    let p_n = (x / p_s).min(r - 1);
    let strips = height_y.checked_mul(p_s)?.checked_mul(p_n)?;
    strips
        .checked_add(y.checked_mul(p_s)?)?
        .checked_add(x - p_s * p_n)
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
        assert_eq!(stage3_value(5, 7, 16, 100, 1), Some(7 * 16 + 5));
        // r = 4 partitions of width 4: x = 5 is in partition 1.
        // v = 100*4*1 + 7*4 + (5-4) = 429.
        assert_eq!(stage3_value(5, 7, 16, 100, 4), Some(429));
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
    /// stage 1's table in place: a lost stage 1 would characterize on the
    /// first QoS level alone. An accepted one carries the table across and
    /// matches a fresh build.
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
        let table = |e: &Encapsulator| e.stage1_table().map(|t| t.as_ptr());
        let carried = table(&e);
        assert!(carried.is_some());

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
        assert_eq!(table(&e), carried);

        let mut retuned = e.config().clone();
        retuned.stage2.as_mut().unwrap().combiner = Stage2Combiner::Weighted { f: 2.5 };
        retuned.stage3.as_mut().unwrap().partitions = 5;
        e.reconfigure(retuned.clone()).unwrap();
        let fresh = Encapsulator::new(retuned).unwrap();
        assert_eq!(values(&e), values(&fresh));
        assert_eq!(e.max_value(), fresh.max_value());
        assert_ne!(values(&e), before);
        // The stage-1 table came across, not rebuilt.
        assert_eq!(table(&e), carried);
    }

    /// Schedulers of one shape on a thread hold one stage-1 table, and
    /// the registry holds none of it: the strong count is the holders.
    #[test]
    fn schedulers_of_one_shape_share_one_stage1_table() {
        let farm: Vec<crate::CascadedSfc> = (0..64)
            .map(|_| crate::CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).unwrap())
            .collect();
        let table = farm[0].encapsulator().stage1_table().unwrap().clone();
        for shard in &farm {
            assert!(Arc::ptr_eq(
                shard.encapsulator().stage1_table().unwrap(),
                &table
            ));
        }
        assert_eq!(Arc::strong_count(&table), 65);
        drop(farm);
        assert_eq!(Arc::strong_count(&table), 1);
    }

    /// Every coordinate of the table's shape separates tables.
    #[test]
    fn each_stage1_shape_gets_its_own_table() {
        let base = CascadeConfig::paper_default(3, 3832);
        let held = Encapsulator::new(base.clone()).unwrap();
        let table = held.stage1_table().unwrap();
        let variants: [fn(&mut CascadeConfig); 4] = [
            |c| c.stage1.as_mut().unwrap().curve = CurveKind::Hilbert,
            |c| c.stage1.as_mut().unwrap().dims = 2,
            |c| c.stage1.as_mut().unwrap().level_bits = 3,
            |c| c.stage2.as_mut().unwrap().resolution_bits = 9,
        ];
        let others: Vec<Encapsulator> = variants
            .iter()
            .map(|vary| {
                let mut cfg = base.clone();
                vary(&mut cfg);
                Encapsulator::new(cfg).unwrap()
            })
            .collect();
        for (i, e) in others.iter().enumerate() {
            let own = e.stage1_table().unwrap();
            assert!(!Arc::ptr_eq(own, table), "variant {i}");
            for later in &others[i + 1..] {
                assert!(!Arc::ptr_eq(own, later.stage1_table().unwrap()));
            }
        }
        // Runtime knobs are not part of the shape.
        let mut knobs = base;
        knobs.stage2.as_mut().unwrap().combiner = Stage2Combiner::Weighted { f: 3.0 };
        knobs.stage3.as_mut().unwrap().partitions = 7;
        let e = Encapsulator::new(knobs).unwrap();
        assert!(Arc::ptr_eq(e.stage1_table().unwrap(), table));
    }

    /// A retune that keeps stage 1 keeps the table its siblings share.
    #[test]
    fn a_retune_keeps_the_shared_table() {
        use sched::{DiskScheduler, Retune};
        let cfg = CascadeConfig::paper_default(3, 3832);
        let sibling = crate::CascadedSfc::new(cfg.clone()).unwrap();
        let mut tuned = crate::CascadedSfc::new(cfg).unwrap();
        for knob in [Retune::BalanceFactor(2.0), Retune::ScanPartitions(5)] {
            assert!(tuned.retune(&knob, &head()));
            assert!(Arc::ptr_eq(
                tuned.encapsulator().stage1_table().unwrap(),
                sibling.encapsulator().stage1_table().unwrap()
            ));
        }
    }

    /// With every holder gone nothing is upgraded, and the next build
    /// folds afresh the same cells a private fold gives.
    #[test]
    fn a_table_outlives_no_holder() {
        let cfg = CascadeConfig::paper_default(3, 3832);
        let shape = AbscissaTable::shape(&cfg).unwrap();
        let first = Encapsulator::new(cfg.clone()).unwrap();
        let weak = Arc::downgrade(first.stage1_table().unwrap());
        drop(first);
        assert!(weak.upgrade().is_none());
        assert!(AbscissaTable::shared(shape).is_none());

        let next = Encapsulator::new(cfg.clone()).unwrap();
        let s1 = cfg.stage1.unwrap();
        let kernel = CurveKernel::build(s1.curve, s1.dims, s1.level_bits).unwrap();
        let private = AbscissaTable::fold(kernel, &next.q2x).unwrap();
        assert_eq!(next.stage1_table().unwrap()[..], private.x2[..]);
        // The dead entry was pruned when the new table was offered.
        TABLES.with_borrow(|tables| assert_eq!(tables.len(), 1));
    }

    #[test]
    fn an_encapsulator_crosses_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Encapsulator>();
    }

    /// The lexicographic rescale of the 64-bit path against the `u128`
    /// quantizer of the general one, over every `(x, y)` of the paper
    /// default's 10-bit stage-2 grid, at each balance factor of
    /// `ctrl::Grid::default()` and the EDF preset's `1e12` — all of which
    /// the paper-default shape certifies.
    #[test]
    fn lexicographic_rescale_is_exact_on_the_controller_grid() {
        for f in [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 1e12] {
            let mut cfg = CascadeConfig::paper_default(3, 3832);
            cfg.stage2.as_mut().unwrap().combiner = Stage2Combiner::Weighted { f };
            let e = Encapsulator::new(cfg).unwrap();
            let narrow = e
                .narrow
                .as_ref()
                .expect("the paper default runs in 64 bits");
            let w = e.weighted2.unwrap();
            for x in 0..1024 {
                for y in 0..1024 {
                    assert_eq!(
                        u128::from(narrow.rescale(x, y)),
                        e.q3x.apply(w.value(x, y)),
                        "f={f} x={x} y={y}"
                    );
                }
            }
        }
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
