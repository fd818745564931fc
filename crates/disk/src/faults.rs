//! Deterministic, seeded fault injection for the disk model.
//!
//! A real disk sees transient media errors, grown bad sectors, and
//! spells of "limping" (serving slowly before it dies). A [`FaultPlan`]
//! describes these for one disk, declaratively; a [`FaultInjector`] turns
//! the plan into a deterministic outcome stream, so two runs of the same
//! trace under the same plan are bit-identical (the same reproducibility
//! guarantee the healthy [`crate::Disk`] gives via its tracked platter
//! angle).
//!
//! The zero plan ([`FaultPlan::none`]) injects nothing: a simulation run
//! through the fault layer with the zero plan produces the exact service
//! times of the unfaulted path — the layer is pay-for-what-you-use.

use crate::Micros;

/// A "limping" disk: still serving, but slower by a fixed factor
/// (a common pre-failure symptom — remapped tracks, internal retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimpSpec {
    /// Service-time multiplier in permille (1500 = 1.5×). Values below
    /// 1000 are clamped to 1000 — a limp never speeds a disk up.
    pub factor_permille: u32,
}

/// Declarative fault schedule for one disk.
///
/// Rates are per-request probabilities in parts-per-million, resolved by
/// a seeded hash of `(seed, request counter)` — deterministic and
/// insensitive to whether tracing is on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Transient media errors (unreadable on this revolution, recoverable
    /// on a retry once the sector comes around again), ppm per request.
    pub transient_per_million: u32,
    /// Latent bad sectors (readable only after relocation to a spare
    /// track), ppm per request.
    pub bad_sector_per_million: u32,
    /// Fixed relocation penalty charged when a bad sector is remapped
    /// (arm movement to the spare-track area and back), µs.
    pub remap_penalty_us: Micros,
    /// The disk serves slowly.
    pub limp: Option<LimpSpec>,
}

impl FaultPlan {
    /// The zero plan: injects nothing, ever.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A seeded plan with only probabilistic media faults:
    /// `transient_ppm` transient errors and `bad_sector_ppm` remaps per
    /// million requests, with a 5 ms relocation penalty.
    pub fn media(seed: u64, transient_ppm: u32, bad_sector_ppm: u32) -> Self {
        FaultPlan {
            seed,
            transient_per_million: transient_ppm,
            bad_sector_per_million: bad_sector_ppm,
            remap_penalty_us: 5_000,
            ..FaultPlan::default()
        }
    }

    /// `true` when the plan can never inject anything.
    pub fn is_zero(&self) -> bool {
        self.transient_per_million == 0 && self.bad_sector_per_million == 0 && self.limp.is_none()
    }

    /// Service-time multiplier, permille (≥ 1000).
    pub fn limp_permille(&self) -> u32 {
        self.limp.map_or(1000, |l| l.factor_permille.max(1000))
    }

    /// Make the disk limp at `factor_permille` (builder-style).
    pub fn with_limp(mut self, factor_permille: u32) -> Self {
        self.limp = Some(LimpSpec { factor_permille });
        self
    }
}

/// What the injector decided for one service attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDraw {
    /// The attempt fails with a transient media error (retry may succeed).
    pub transient: bool,
    /// The sector is bad and gets remapped (success, plus the relocation
    /// penalty). Suppressed when `transient` also fired — the transient
    /// error is discovered first.
    pub bad_sector: bool,
}

/// A disk's deterministic fault stream: the [`FaultPlan`] rates turned
/// into concrete per-attempt outcomes.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    attempts: u64,
}

impl FaultInjector {
    /// The fault stream of `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, attempts: 0 }
    }

    /// The plan driving this stream.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draw the fault outcome of the next service attempt. Consumes one
    /// position of the stream whether or not anything fires, so outcomes
    /// depend only on the attempt sequence — never on observers.
    pub fn draw(&mut self) -> FaultDraw {
        let n = self.attempts;
        self.attempts += 1;
        if self.plan.transient_per_million == 0 && self.plan.bad_sector_per_million == 0 {
            return FaultDraw::default();
        }
        let base = self
            .plan
            .seed
            .wrapping_add(n.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        let transient = ppm_hit(
            splitmix64(base ^ 0x5452_4e53),
            self.plan.transient_per_million,
        );
        let bad_sector = !transient
            && ppm_hit(
                splitmix64(base ^ 0x4241_4453),
                self.plan.bad_sector_per_million,
            );
        FaultDraw {
            transient,
            bad_sector,
        }
    }

    /// Scale a duration by the disk's limp factor.
    pub fn limp_us(&self, us: Micros) -> Micros {
        let f = self.plan.limp_permille() as u64;
        if f == 1000 {
            us
        } else {
            us.saturating_mul(f) / 1000
        }
    }
}

/// SplitMix64 — the standard 64-bit avalanche mix; good enough to turn a
/// (seed, counter) pair into an i.i.d.-looking stream without
/// pulling in an RNG dependency.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Does a hash fall inside a parts-per-million window?
fn ppm_hit(hash: u64, ppm: u32) -> bool {
    ppm > 0 && hash % 1_000_000 < ppm as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for _ in 0..10_000 {
            assert_eq!(inj.draw(), FaultDraw::default());
        }
        assert_eq!(inj.limp_us(1234), 1234);
        assert!(FaultPlan::none().is_zero());
    }

    #[test]
    fn rates_land_near_target() {
        // 5% transient: expect ~500 hits in 10k draws, generously bounded.
        let mut inj = FaultInjector::new(FaultPlan::media(42, 50_000, 20_000));
        let mut transients = 0;
        let mut remaps = 0;
        for _ in 0..10_000 {
            let d = inj.draw();
            transients += d.transient as u32;
            remaps += d.bad_sector as u32;
        }
        assert!((300..800).contains(&transients), "transients {transients}");
        assert!((80..400).contains(&remaps), "remaps {remaps}");
    }

    #[test]
    fn streams_are_deterministic_and_seed_distinct() {
        let run = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::media(seed, 100_000, 0));
            (0..256).map(|_| inj.draw().transient).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "seeds must give different streams");
    }

    #[test]
    fn limp_scales_and_clamps() {
        let plan = FaultPlan::none().with_limp(2500);
        assert_eq!(plan.limp_permille(), 2500);
        assert!(!plan.is_zero());
        assert_eq!(FaultInjector::new(plan).limp_us(1000), 2500);
        let plan = FaultPlan::none().with_limp(500);
        assert_eq!(plan.limp_permille(), 1000, "limp never speeds up");
        assert_eq!(FaultPlan::none().limp_permille(), 1000);
    }

    #[test]
    fn transient_suppresses_bad_sector() {
        // Both rates at 100%: only the transient can fire per attempt.
        let mut inj = FaultInjector::new(FaultPlan::media(1, 1_000_000, 1_000_000));
        let d = inj.draw();
        assert!(d.transient && !d.bad_sector);
    }
}
