//! Self-tuning control plane for the cascaded-SFC farm.
//!
//! The paper fixes its three cascade knobs — SFC2 balance factor `f`,
//! SFC3 scan partitions `R`, and the conditional blocking window `w` —
//! offline, per workload (§5, §7). This crate closes the loop at run
//! time: a [`Controller`] watches each shard's windowed telemetry
//! (drained from the farm daemon as [`obs::ShardDelta`]s), scores every
//! window with a weighted [`Objective`] over deadline misses, seek work
//! and shedding, and drives a seeded [`TunerSearch`] — hill-climbing
//! over a discrete `(f, R, w)` [`Grid`] with ACO-style pheromone-guided
//! escape restarts. Its proposals come back as [`TuningAction`]s the
//! daemon applies live at safe epoch boundaries via
//! [`farm::DaemonEvent::Retune`]. The routing policy is not a knob: it
//! is fixed when the farm is built ([`farm::FarmConfig::policy`]).
//!
//! The whole plane is deterministic: same trace, same seed → the same
//! decisions, bit for bit ([`Controller::fingerprint`]). The oracle
//! pins a controller to the seed configuration (via [`Grid::pinned`])
//! and checks the daemon is bit-identical to an uncontrolled run; the
//! bench harness checks the search lands within 10% of exhaustive grid
//! search on ≤5% of its evaluation budget.

pub mod controller;
pub mod grid;
pub mod objective;
pub mod search;

pub use controller::{drive, Controller, ControllerConfig, Decision, TuningAction};
pub use grid::{Grid, GridPoint};
pub use objective::Objective;
pub use search::{SearchConfig, TunerSearch};
