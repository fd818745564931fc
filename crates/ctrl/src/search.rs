//! Seeded online search over a [`Grid`]: greedy hill-climbing with
//! pheromone-guided escape restarts.
//!
//! The searcher never evaluates anything itself — it runs a
//! propose/observe loop against a harness (the live [`Controller`]
//! scoring telemetry windows, or the offline sweep re-simulating a
//! trace):
//!
//! 1. [`TunerSearch::propose`] names the next grid index to try: the
//!    start point first, then unevaluated neighbors of the best point
//!    found so far (pheromone-richest first), and — once the best
//!    point's whole neighborhood is known — an *escape restart* at an
//!    unevaluated point drawn roulette-style from the pheromone table.
//! 2. The harness evaluates that configuration and calls
//!    [`TunerSearch::observe`] with its objective score (lower =
//!    better). Observation evaporates the whole pheromone table, then
//!    deposits quality `1 / (1 + score)` on the observed point and half
//!    that on its neighbors, so escapes drift toward good basins
//!    (ACO-style, one ant per evaluation).
//!
//! Everything is a pure function of the seed and the observation
//! sequence: ties break by lowest index, the RNG only fires inside
//! escape roulette, and the evaluated set lives in a `BTreeMap`. Two
//! runs over the same telemetry produce bit-identical proposal streams.
//!
//! [`Controller`]: crate::Controller

use crate::grid::Grid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Search hyper-parameters. All deterministic given `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// RNG seed for escape-restart roulette.
    pub seed: u64,
    /// Evaluation budget: [`TunerSearch::propose`] returns `None` once
    /// this many observations have been made.
    pub max_evals: usize,
    /// Pheromone evaporation per observation, in `[0, 1)`.
    pub evaporation: f64,
}

impl Default for SearchConfig {
    /// Budget 5% of the default grid (~16 evals), gentle evaporation.
    fn default() -> Self {
        SearchConfig {
            seed: 0x2004_0330,
            max_evals: Grid::default().len().div_ceil(20),
            evaporation: 0.10,
        }
    }
}

/// Hill-climbing + pheromone searcher over one [`Grid`] (module docs).
#[derive(Debug, Clone)]
pub struct TunerSearch {
    grid: Grid,
    cfg: SearchConfig,
    rng: StdRng,
    pheromone: Vec<f64>,
    evaluated: BTreeMap<usize, f64>,
    start: usize,
    best: Option<(usize, f64)>,
    pending_escape: Option<usize>,
}

impl TunerSearch {
    /// A searcher starting from grid index `start` (the currently
    /// applied configuration, snapped via [`Grid::snap`]).
    pub fn new(grid: Grid, start: usize, cfg: SearchConfig) -> Self {
        assert!(start < grid.len(), "start index out of grid range");
        assert!(
            (0.0..1.0).contains(&cfg.evaporation),
            "evaporation must be in [0, 1)"
        );
        let pheromone = vec![1.0; grid.len()];
        TunerSearch {
            grid,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            pheromone,
            evaluated: BTreeMap::new(),
            start,
            best: None,
            pending_escape: None,
        }
    }

    /// The search space.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Observations made so far.
    pub fn evals(&self) -> usize {
        self.evaluated.len()
    }

    /// Entries held: a pheromone per grid point and a score per point
    /// evaluated, so at most twice the grid.
    pub fn state_len(&self) -> usize {
        self.pheromone.len() + self.evaluated.len()
    }

    /// Best `(grid index, score)` observed so far.
    pub fn best(&self) -> Option<(usize, f64)> {
        self.best
    }

    /// The next grid index worth evaluating, or `None` when the budget
    /// is spent or the whole grid is evaluated. Proposing is read-only:
    /// calling it twice without an intervening observe returns the same
    /// index (escape roulette is deferred to a cached draw).
    pub fn propose(&mut self) -> Option<usize> {
        if self.evaluated.len() >= self.cfg.max_evals.max(1)
            || self.evaluated.len() >= self.grid.len()
        {
            return None;
        }
        if self.evaluated.is_empty() {
            return Some(self.start);
        }
        let (anchor, _) = self.best.expect("observed implies best");
        // Unevaluated neighbors of the best point, pheromone-richest
        // first; ties break toward the lower index via max_by stability.
        let frontier = self
            .grid
            .neighbors(anchor)
            .into_iter()
            .filter(|n| !self.evaluated.contains_key(n))
            .max_by(|&a, &b| {
                self.pheromone[a]
                    .partial_cmp(&self.pheromone[b])
                    .expect("pheromones are finite")
                    .then(b.cmp(&a))
            });
        if let Some(n) = frontier {
            return Some(n);
        }
        // Local optimum: every neighbor known. Escape-restart at an
        // unevaluated point, roulette-weighted by pheromone. The draw is
        // cached so back-to-back proposes stay repeatable.
        if let Some(p) = self.pending_escape {
            return Some(p);
        }
        let p = self.roulette();
        self.pending_escape = Some(p);
        Some(p)
    }

    /// Record the objective score of a proposed index (lower = better).
    pub fn observe(&mut self, idx: usize, score: f64) {
        assert!(idx < self.grid.len(), "observed index out of grid range");
        assert!(score.is_finite(), "objective scores must be finite");
        self.pending_escape = None;
        self.evaluated.insert(idx, score);
        match self.best {
            Some((_, b)) if b <= score => {}
            _ => self.best = Some((idx, score)),
        }
        let quality = 1.0 / (1.0 + score.max(0.0));
        for p in &mut self.pheromone {
            *p *= 1.0 - self.cfg.evaporation;
        }
        self.pheromone[idx] += quality;
        for n in self.grid.neighbors(idx) {
            self.pheromone[n] += 0.5 * quality;
        }
    }

    fn roulette(&mut self) -> usize {
        let candidates: Vec<usize> = (0..self.grid.len())
            .filter(|i| !self.evaluated.contains_key(i))
            .collect();
        let total: f64 = candidates.iter().map(|&i| self.pheromone[i]).sum();
        let mut ticket = self.rng.gen::<f64>() * total;
        for &i in &candidates {
            ticket -= self.pheromone[i];
            if ticket <= 0.0 {
                return i;
            }
        }
        *candidates.last().expect("propose checked for unevaluated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridPoint;

    /// A smooth synthetic objective with one global minimum.
    fn bowl(grid: &Grid, idx: usize) -> f64 {
        let p = grid.point(idx);
        (p.f - 1.5).abs() + 0.3 * (p.r as f64 - 4.0).abs() + 2.0 * (p.w - 0.15).abs()
    }

    fn drive(mut s: TunerSearch) -> (TunerSearch, Vec<usize>) {
        let mut trail = Vec::new();
        while let Some(idx) = s.propose() {
            trail.push(idx);
            let score = bowl(&s.grid().clone(), idx);
            s.observe(idx, score);
        }
        (s, trail)
    }

    #[test]
    fn search_is_deterministic_across_runs() {
        let make = || {
            TunerSearch::new(
                Grid::default(),
                Grid::default().snap(1.0, 3, 0.10),
                SearchConfig::default(),
            )
        };
        let (a, trail_a) = drive(make());
        let (b, trail_b) = drive(make());
        assert_eq!(trail_a, trail_b, "two seeded runs must propose identically");
        assert_eq!(a.best(), b.best());
    }

    #[test]
    fn search_respects_its_budget() {
        let (s, trail) = drive(TunerSearch::new(
            Grid::default(),
            0,
            SearchConfig::default(),
        ));
        assert_eq!(trail.len(), SearchConfig::default().max_evals);
        assert_eq!(s.evals(), trail.len());
        assert!(
            trail.len() * 20 <= Grid::default().len() + 19,
            "budget must stay within 5% of the grid"
        );
    }

    #[test]
    fn search_lands_near_the_grid_optimum() {
        let grid = Grid::default();
        let exhaustive = (0..grid.len())
            .map(|i| bowl(&grid, i))
            .fold(f64::INFINITY, f64::min);
        let (s, _) = drive(TunerSearch::new(
            grid.clone(),
            grid.snap(1.0, 3, 0.10),
            SearchConfig::default(),
        ));
        let (_, found) = s.best().expect("budget > 0");
        assert!(
            found <= exhaustive.max(0.05) * 1.10,
            "hill-climb ({found}) must come within 10% of exhaustive ({exhaustive})"
        );
    }

    #[test]
    fn pinned_grid_proposes_only_the_pin() {
        let grid = Grid::pinned(GridPoint {
            f: 1.0,
            r: 3,
            w: 0.10,
        });
        let mut s = TunerSearch::new(grid, 0, SearchConfig::default());
        assert_eq!(s.propose(), Some(0));
        s.observe(0, 0.42);
        assert_eq!(s.propose(), None, "one-point grid exhausts immediately");
    }

    #[test]
    fn repeated_propose_without_observe_is_stable() {
        let mut s = TunerSearch::new(Grid::default(), 7, SearchConfig::default());
        s.observe(7, 1.0);
        let a = s.propose();
        let b = s.propose();
        assert_eq!(a, b, "propose must be repeatable between observations");
    }
}
