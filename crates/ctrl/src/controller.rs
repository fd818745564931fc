//! The live control loop: windowed telemetry in, retune proposals out.
//!
//! A [`Controller`] owns one [`TunerSearch`] per shard. The host
//! (usually the farm daemon's driver) pumps it in two beats:
//!
//! 1. **Observe** — feed every [`obs::ShardDelta`] drained from the
//!    daemon ([`FarmDaemon::take_shard_deltas`]) into
//!    [`Controller::observe`]; deltas accumulate per shard until the
//!    next decision point.
//! 2. **Decide** — call [`Controller::decide`] at a safe epoch
//!    boundary. Each shard whose accumulated window carries enough
//!    events is scored by the [`Objective`]; the score is the search's
//!    observation for whatever configuration that shard was running,
//!    and the search's next proposal becomes a batch of
//!    [`TuningAction`]s for the host to apply
//!    ([`TuningAction::into_event`] → [`DaemonEvent::Retune`]).
//!
//! Every action is folded, as it is taken, into a running
//! [`Controller::fingerprint`] that is a pure function of the telemetry
//! stream: two runs over the same trace act identically and end on equal
//! fingerprints, which the oracle and the CI smoke gate both assert. The
//! actions themselves are kept only as a bounded tail
//! ([`Controller::decision_log`]) — a controller left running holds what
//! its farm's size dictates, not what its history does. A controller
//! built over [`Grid::pinned`] can never
//! propose a move — pinning it to the seed configuration must leave the
//! daemon bit-identical to an uncontrolled run.
//!
//! [`FarmDaemon::take_shard_deltas`]: farm::FarmDaemon::take_shard_deltas

use crate::grid::{Grid, GridPoint};
use crate::objective::Objective;
use crate::search::{SearchConfig, TunerSearch};
use farm::DaemonEvent;
use obs::{ShardDelta, Snapshot};
use sched::Retune;

/// Shape of a [`Controller`].
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Window scoring weights.
    pub objective: Objective,
    /// The `(f, R, w)` search space.
    pub grid: Grid,
    /// Search seed, budget, and pheromone hyper-parameters.
    pub search: SearchConfig,
    /// The statically configured knobs every shard starts from.
    pub seed_point: GridPoint,
    /// Windows with fewer total events than this are held until more
    /// telemetry accumulates (tiny windows score noisily).
    pub min_window_events: u64,
}

impl Default for ControllerConfig {
    /// Paper-default seed knobs over the default grid.
    fn default() -> Self {
        ControllerConfig {
            objective: Objective::default(),
            grid: Grid::default(),
            search: SearchConfig::default(),
            seed_point: GridPoint {
                f: 1.0,
                r: 3,
                w: 0.10,
            },
            min_window_events: 16,
        }
    }
}

/// One proposed live knob change, ready to become a daemon event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningAction {
    /// Target shard.
    pub shard: usize,
    /// The knob and its new value.
    pub knob: Retune,
}

impl TuningAction {
    /// Wrap into the daemon's event vocabulary, stamped at `at_us`.
    pub fn into_event(self, at_us: u64) -> DaemonEvent {
        DaemonEvent::Retune {
            at_us,
            shard: self.shard,
            knob: self.knob,
        }
    }
}

/// One decision-log entry (see [`Controller::decision_log`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Decision time (µs).
    pub at_us: u64,
    /// Target shard.
    pub shard: u32,
    /// Knob code, [`Retune::knob_index`]: the code the daemon's retune
    /// trace event carries.
    pub knob: u32,
    /// New value: `f64::to_bits` for `f`/`w`, the raw count for `R`.
    pub value_bits: u64,
    /// The window score that drove the decision.
    pub score: f64,
}

/// Decisions [`Controller::decision_log`] keeps.
const DECISION_TAIL: usize = 32;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-shard search state (module docs).
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: ControllerConfig,
    tuners: Vec<TunerSearch>,
    pending: Vec<Snapshot>,
    applied: Vec<usize>,
    /// The newest [`DECISION_TAIL`] actions, oldest first.
    tail: Vec<Decision>,
    /// FNV-1a over every action ever taken, in order.
    fingerprint: u64,
    decisions: u64,
}

impl Controller {
    /// A controller for a `shards`-member farm. Each shard's search
    /// starts from `cfg.seed_point` snapped onto the grid; shard `i`
    /// derives its RNG stream from `cfg.search.seed ^ i` so escapes
    /// de-correlate across shards while staying reproducible.
    pub fn new(shards: usize, cfg: ControllerConfig) -> Self {
        let start = cfg
            .grid
            .snap(cfg.seed_point.f, cfg.seed_point.r, cfg.seed_point.w);
        let tuners = (0..shards)
            .map(|i| {
                let mut search = cfg.search;
                search.seed ^= i as u64;
                TunerSearch::new(cfg.grid.clone(), start, search)
            })
            .collect();
        Controller {
            pending: vec![Snapshot::new(); shards],
            applied: vec![start; shards],
            tail: Vec::new(),
            fingerprint: 0xcbf2_9ce4_8422_2325,
            decisions: 0,
            tuners,
            cfg,
        }
    }

    /// Fold one drained telemetry window into its shard's pending
    /// aggregate. Deltas for shards beyond the configured farm size are
    /// ignored (a grown farm needs a new controller).
    pub fn observe(&mut self, delta: &ShardDelta) {
        if let Some(pending) = self.pending.get_mut(delta.shard) {
            pending.merge(&delta.delta.snapshot);
        }
    }

    /// Score every shard window that has accumulated enough telemetry,
    /// advance the searches, and return the retunes to apply at this
    /// epoch boundary. Windows below `min_window_events` keep
    /// accumulating; scored windows reset.
    pub fn decide(&mut self, now_us: u64) -> Vec<TuningAction> {
        let mut actions = Vec::new();
        for shard in 0..self.tuners.len() {
            if self.pending[shard].counters.total_events() < self.cfg.min_window_events {
                continue;
            }
            let score = self.cfg.objective.score(&self.pending[shard]);
            self.pending[shard].clear();
            self.decisions += 1;
            self.tuners[shard].observe(self.applied[shard], score);
            // Mid-budget: walk to the next proposal. Budget spent:
            // converge onto the best configuration seen.
            let target = self.tuners[shard]
                .propose()
                .or_else(|| self.tuners[shard].best().map(|(idx, _)| idx));
            let Some(next) = target else { continue };
            if next != self.applied[shard] {
                self.retune_shard(shard, next, score, now_us, &mut actions);
            }
        }
        actions
    }

    fn retune_shard(
        &mut self,
        shard: usize,
        next: usize,
        score: f64,
        now_us: u64,
        actions: &mut Vec<TuningAction>,
    ) {
        let from = self.cfg.grid.point(self.applied[shard]);
        let to = self.cfg.grid.point(next);
        let mut push = |knob: Retune, value_bits: u64| {
            actions.push(TuningAction { shard, knob });
            self.log(Decision {
                at_us: now_us,
                shard: shard as u32,
                knob: knob.knob_index(),
                value_bits,
                score,
            });
        };
        if to.f != from.f {
            push(Retune::BalanceFactor(to.f), to.f.to_bits());
        }
        if to.r != from.r {
            push(Retune::ScanPartitions(to.r), u64::from(to.r));
        }
        if to.w != from.w {
            push(Retune::Window(to.w), to.w.to_bits());
        }
        self.applied[shard] = next;
    }

    /// Fold `d` into the fingerprint and keep it as the tail's newest.
    fn log(&mut self, d: Decision) {
        let mut h = self.fingerprint;
        h = fnv1a(h, &d.at_us.to_le_bytes());
        h = fnv1a(h, &d.shard.to_le_bytes());
        h = fnv1a(h, &d.knob.to_le_bytes());
        h = fnv1a(h, &d.value_bits.to_le_bytes());
        self.fingerprint = fnv1a(h, &d.score.to_bits().to_le_bytes());
        if self.tail.len() >= DECISION_TAIL {
            self.tail.remove(0);
        }
        self.tail.push(d);
    }

    /// The currently applied grid point for `shard`.
    pub fn applied(&self, shard: usize) -> GridPoint {
        self.cfg.grid.point(self.applied[shard])
    }

    /// Scoring decisions made so far (windows consumed, not actions).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// The newest decisions (at most 32 of them), oldest first; empty
    /// only if none was ever taken.
    pub fn decision_log(&self) -> &[Decision] {
        &self.tail
    }

    /// FNV-1a over every decision ever taken, in order — the same
    /// decisions, equal fingerprints. The determinism gates compare this
    /// across runs.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Entries held: the decision tail and the per-shard tables (pending
    /// windows, applied points, each search's pheromone and evaluation
    /// tables) — sized by the farm and the grid, not by how many rounds
    /// have run.
    pub fn state_len(&self) -> usize {
        self.tail.len()
            + self.pending.len()
            + self.applied.len()
            + self
                .tuners
                .iter()
                .map(TunerSearch::state_len)
                .sum::<usize>()
    }
}

/// Drive a [`farm::FarmDaemon`] under controller supervision: handle
/// each event in order; every `cadence` events, drain the daemon's
/// telemetry deltas into the controller, decide, and apply the
/// resulting retunes at the current event time (the post-advance point
/// inside [`farm::FarmDaemon::handle`] is the safe epoch boundary).
/// One deterministic loop shared by the oracle's bit-identity gates and
/// the bench harness, so they exercise the same plumbing.
pub fn drive(
    daemon: &mut farm::FarmDaemon,
    controller: &mut Controller,
    events: impl IntoIterator<Item = DaemonEvent>,
    cadence: usize,
) {
    let cadence = cadence.max(1);
    for (i, event) in events.into_iter().enumerate() {
        let t = event.at_us();
        daemon.handle(event);
        if (i + 1) % cadence == 0 {
            for delta in daemon.take_shard_deltas() {
                controller.observe(&delta);
            }
            for action in controller.decide(t) {
                daemon.handle(action.into_event(t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{TraceEvent, TraceSink, WindowDelta};

    fn delta(shard: usize, late: u64, total: u64) -> ShardDelta {
        let mut snapshot = Snapshot::new();
        for id in 0..total {
            snapshot.emit(&TraceEvent::ServiceComplete {
                now_us: id,
                req: id,
                response_us: 100,
                late: id < late,
            });
        }
        ShardDelta {
            shard,
            delta: WindowDelta {
                epoch: 0,
                start_us: 0,
                window_us: 1 << 20,
                partial: false,
                snapshot,
            },
        }
    }

    #[test]
    fn pinned_controller_never_acts() {
        let cfg = ControllerConfig {
            grid: Grid::pinned(GridPoint {
                f: 1.0,
                r: 3,
                w: 0.10,
            }),
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(2, cfg);
        for round in 0..5 {
            c.observe(&delta(0, 10, 20));
            c.observe(&delta(1, 5, 20));
            assert!(
                c.decide(1_000_000 * (round + 1)).is_empty(),
                "a pinned grid admits no moves"
            );
        }
        assert!(c.decision_log().is_empty());
    }

    #[test]
    fn bad_windows_drive_retunes_and_logs() {
        let mut c = Controller::new(1, ControllerConfig::default());
        let mut total_actions = 0;
        for round in 1..=8u64 {
            c.observe(&delta(0, 18, 20)); // 90% late: objective screams
            total_actions += c.decide(round * 1_000_000).len();
        }
        assert!(total_actions > 0, "a miserable shard must get retuned");
        assert_eq!(c.decisions(), 8);
        assert!(!c.decision_log().is_empty());
        let p = c.applied(0);
        assert!(p.r >= 1 && p.f >= 0.0 && (0.0..=1.0).contains(&p.w));
    }

    #[test]
    fn small_windows_accumulate_until_the_threshold() {
        let mut c = Controller::new(1, ControllerConfig::default());
        c.observe(&delta(0, 1, 4)); // 4 events < min_window_events
        assert!(c.decide(1_000_000).is_empty());
        assert_eq!(c.decisions(), 0, "a thin window must wait");
        c.observe(&delta(0, 1, 30));
        c.decide(2_000_000);
        assert_eq!(c.decisions(), 1, "accumulated telemetry finally scores");
    }

    #[test]
    fn identical_streams_produce_identical_fingerprints() {
        let run = || {
            let mut c = Controller::new(2, ControllerConfig::default());
            for round in 1..=10u64 {
                c.observe(&delta(0, 15, 20));
                c.observe(&delta(1, 2, 20));
                c.decide(round * 1_000_000);
            }
            (c.fingerprint(), c.decision_log().to_vec())
        };
        let (fa, la) = run();
        let (fb, lb) = run();
        assert_eq!(la, lb, "decision logs must be bit-identical");
        assert_eq!(fa, fb);
    }

    #[test]
    fn the_fingerprint_covers_the_whole_log_and_the_tail_stays_bounded() {
        // Many shards in lasting pain: far more actions than the tail
        // holds. The unbounded log is rebuilt from what each round
        // appends, and hashed the way `fingerprint` used to hash it.
        let shards = 8;
        let mut c = Controller::new(shards, ControllerConfig::default());
        let mut log: Vec<Decision> = Vec::new();
        let mut state_after_budget = None;
        for round in 1..=40u64 {
            for shard in 0..shards {
                c.observe(&delta(shard, 10 + (round + shard as u64) % 9, 20));
            }
            let acted = c.decide(round * 1_000_000).len();
            assert!(acted <= DECISION_TAIL, "one round fits the tail");
            let tail = c.decision_log();
            log.extend_from_slice(&tail[tail.len() - acted..]);
            assert_eq!(tail, &log[log.len().saturating_sub(DECISION_TAIL)..]);
            // The default budget is 16 evaluations a shard: from there on
            // nothing the controller holds may grow.
            if round >= 20 {
                assert_eq!(
                    *state_after_budget.get_or_insert(c.state_len()),
                    c.state_len()
                );
            }
        }
        assert!(log.len() > 3 * DECISION_TAIL, "{} actions", log.len());
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for d in &log {
            for bytes in [
                &d.at_us.to_le_bytes()[..],
                &d.shard.to_le_bytes(),
                &d.knob.to_le_bytes(),
                &d.value_bits.to_le_bytes(),
                &d.score.to_bits().to_le_bytes(),
            ] {
                h = fnv1a(h, bytes);
            }
        }
        assert_eq!(c.fingerprint(), h);
    }
}
