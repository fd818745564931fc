//! # oracle — how do we know any of this is right?
//!
//! A verification harness that independently re-derives what the
//! optimized schedulers, simulator and farm *should* have done, in three
//! layers:
//!
//! * [`mod@reference`] — **differential testing**: naive, obviously-correct
//!   restatements of the Cascaded-SFC dispatcher ([`ReferenceDispatcher`],
//!   two `Vec`s kept sorted), EDF, SSTF and SCAN, run through the same
//!   simulator on the same seeded traces and required to match the
//!   optimized implementations bit-for-bit (engine event streams,
//!   metrics, and the dispatcher events counted against the reference's
//!   counters). [`routing`] extends this to the farm: [`ReferenceRouter`]
//!   restates the router over per-booking lists, membership included,
//!   and [`farm::OnlineRouter`] must make every decision it makes.
//!   [`daemon`] extends it again to continuous operation: the farm
//!   daemon fed only arrivals must match a judge composed of that
//!   router's replay and one plain simulation per shard bit-for-bit, and under a
//!   membership-churn script it must stay deterministic with a closed
//!   request ledger and reconciled events. [`ctrl`] extends it to the
//!   control plane: a self-tuning controller pinned to the seed
//!   configuration must leave the daemon bit-identical to an
//!   uncontrolled run, and a seed-derived retune storm under churn must
//!   stay deterministic down to the decision log.
//! * [`metamorphic`] — **metamorphic properties**: relations between
//!   runs that need no reference — arrival-permutation invariance,
//!   deadline monotonicity under SFC2's `f` scaling, CSV replay
//!   idempotence. [`telemetry`]
//!   adds the live-plane relations: windowed cumulative equivalence with
//!   a plain snapshot, window-width invariance, and delta-polling
//!   cadence invariance.
//! * [`analytic`] — **theory-backed verification**: differential and
//!   metamorphic checks only prove implementations agree with each
//!   other; the analytic oracle pins the seek-optimizing schedulers to
//!   Bachmat-style closed-form expected seek distances (the
//!   max-of-uniforms sweep law, the linear FCFS law) with no
//!   implementation on the other side of the comparison at all.
//! * [`mod@fuzz`] — a **seeded fuzz driver**: adversarial workload
//!   archetypes (deadline clusters, cylinder sweeps, shed-pressure
//!   bursts, fault plans, membership churn, controller storms)
//!   generated from a seed,
//!   checked against the oracles, with greedy trace minimization and a
//!   replayable `.case` corpus format under `tests/corpus/`.
//!
//! [`smoke::run`] bundles a fixed battery of all three into the CI gate
//! wired through `ci.sh` (`oracle --mode smoke`); [`smoke::perf_parity`]
//! (`oracle --mode perf-parity`) replays the committed corpus under all
//! four dispatcher regimes. The perf-regression half of the gate is the
//! daemon-path benchmark (`benchmark/run.sh`, compared in `ci.sh` with
//! the committed `perf-history.jsonl`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod ctrl;
pub mod daemon;
pub mod fuzz;
pub mod metamorphic;
pub mod reference;
pub mod routing;
pub mod smoke;
pub mod telemetry;

pub use analytic::check_seek_law;
pub use ctrl::{check_controller_storm, diff_ctrl};
pub use daemon::{check_churn, diff_daemon, diff_daemon_streamed};
pub use fuzz::{fuzz, minimize, replay_dir, replay_file, Archetype, Scenario};
pub use reference::{
    diff_baselines, diff_cascade, diff_pair, reference_characterize, ReferenceCascade,
    ReferenceDispatcher, ReferenceEdf, ReferenceScan, ReferenceSstf,
};
pub use routing::{diff_routing, replay_route, ReferenceRouter};
pub use telemetry::diff_telemetry;
