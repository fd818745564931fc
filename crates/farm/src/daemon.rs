//! Continuous-operation farm daemon: online routing, live membership
//! churn, and failure-aware supervision.
//!
//! A single-group simulation assumes a closed world: the whole trace and
//! the one disk are known up front. A production farm is never that
//! lucky — streams arrive for as long as the service is up, shards are
//! added and retired while requests are in flight, and a limping disk has
//! to be routed around before it melts the tail. [`FarmDaemon`] is the
//! farm, and runs under those conditions:
//!
//! * **Online routing** — one [`crate::OnlineRouter`] places each
//!   admitted arrival; with no membership events the placements equal an
//!   independent naive replay of the routing policies, and every shard's
//!   metrics equal a plain simulation of its sub-trace, which the
//!   oracle's daemon gate enforces.
//! * **Admission at ingest** — a [`StreamGate`] caps concurrently
//!   active streams; rejected requests never reach a scheduler queue
//!   and are accounted in the ledger as admission rejections.
//! * **Live membership** — [`DaemonEvent::AddShard`] grows the farm
//!   without stopping it; [`DaemonEvent::DrainShard`] takes a shard out
//!   of rotation, lets it serve residents for a bounded handoff window,
//!   then migrates the leftover backlog (emitting one
//!   [`TraceEvent::Migrate`] per request) and closes the drain.
//! * **Supervision** — each member runs behind its own
//!   [`FlightRecorder`], all of them writing their raw events into the
//!   farm's one [`FlightRing`]; when a fresh dump carries an actionable
//!   anomaly (a shed burst or a p99 spike) the supervisor quarantines
//!   the member with a strike-scaled, seeded, jittered exponential
//!   cooldown ([`sim::jittered_backoff_us`]) and reinstates it when the
//!   cooldown expires. Quarantined members keep draining their
//!   residents; only *new* arrivals route around them.
//!
//! The daemon is a deterministic event-loop: feed it a time-ordered
//! stream of [`DaemonEvent`]s (a `Vec`, an iterator, or an
//! [`std::sync::mpsc::Receiver`] — any `IntoIterator` works, so a
//! channel is the natural streaming front-end) and it produces a
//! [`DaemonReport`] whose request ledger closes exactly:
//!
//! ```text
//! served + dropped + failed + shed + migrated + rejected == arrivals
//! ```
//!
//! # The event loop
//!
//! Each member pairs a [`sim::EngineStepper`] with its scheduler and
//! service model. The contract is the one a plain [`sim::simulate`] run
//! keeps: before
//! an event at time `t` is applied, no member may still owe a dispatch
//! decided strictly before `t` ([`EngineStepper::run_until`] excludes the
//! horizon itself), so no engine ever dispatches at an instant whose
//! arrivals it has not seen.
//!
//! Meeting it costs work proportional to the members the event *affects*,
//! not to the farm's size, because of the **next-action invariant**: a
//! member's [`EngineStepper::next_action_us`] is `None` while it has
//! nothing submitted or queued, else its engine clock, and a pump to `t`
//! changes a member only if that time lies strictly before `t`. A pump
//! the loop skips was one of two things:
//!
//! * a no-op — the member's clock is already at or past `t` (it is busy
//!   serving, or it jumped to an arrival at exactly `t`), and `run_until`
//!   returns before touching anything; or
//! * a repeated empty dequeue — the member is idle with nothing to
//!   deliver; its clock, head position and queue are what they were at
//!   its last pump, so the dequeue sees the same [`HeadState`] and an
//!   empty queue again. [`DiskScheduler::dequeue`] requires that to be
//!   idempotent and silent. The *first* empty dequeue of an idle gap is a
//!   real interaction (the cascade's conditional dispatcher resets its
//!   preemption anchor on it) and is never skipped: it happens when the
//!   member is next pumped, before anything new is delivered — exactly
//!   once per gap, which is what a plain run does.
//!
//! So the daemon keeps a min-heap with one `(next_action_us, member)`
//! entry per member that has work, and an event at `t` pumps the entries
//! before `t` and nothing else. A member's evolution depends only on its
//! own submitted arrivals, so the order members are pumped in is
//! immaterial. Drain hand-offs and quarantine cooldowns sit in two timer
//! heaps of their own.
//!
//! The supervisor needs no list of its own to find fresh dumps. The
//! farm's [`FlightRing`] counts the dumps its recorders take
//! ([`FlightRing::dumps_total`]); while that count has not moved since
//! the supervisor's last look, an event costs it one read. When it has,
//! the supervisor reads, in index order, each member's dumps from the
//! first it has not seen — only the members whose
//! [`FlightRecorder::dumps_total`] moved have any — so quarantine
//! refusals ("last shard in rotation") fall on the same member as a full
//! scan's would. A dump is taken only inside an emit, so a member with a
//! new dump is one the last event pumped or emitted into. A recorder
//! keeps only its newest [`obs::DUMP_RETENTION`] dumps, so the supervisor
//! remembers, per member, the sequence number of the next dump it has not
//! seen, reads from there, and counts what was evicted before it looked
//! ([`DaemonReport::dumps_missed`] — 0 on every run the gates make,
//! because it looks at the very next event).
//! [`FarmDaemon::backlog`] is a counter: `+1` per submission, the
//! before/after difference of every pump, minus the leftovers a closing
//! drain migrates.
//!
//! # What the daemon holds
//!
//! Everything above is sized by the farm — members, streams holding a
//! gate slot, queue bounds, ring and window depths — and not by how many
//! requests have passed through. [`FarmDaemon::state_census`] counts it,
//! structure by structure, so that claim is a test
//! (`crates/bench/tests/state_census.rs`) rather than a reading of the
//! code: the same scenario run ten times longer must end on the same
//! census.
//!
//! Some of it is sized by the farm's *shapes*, not its members: a
//! cascade's stage-1 table (4096 `u16` cells in the paper default) is
//! held once per scheduler shape on the daemon's thread and shared by
//! every member built with that shape, so a 64-shard farm of one shape
//! holds one table and a [`DaemonEvent::AddShard`] of a shape already
//! present folds none.

use obs::{
    Anomaly, FlightRecorder, FlightRing, SharedSink, TelemetryConfig, TraceEvent, TraceSink,
    TriggerConfig,
};
use sched::{DiskScheduler, HeadState, Request, Retune};
use sim::admission::StreamGate;
use sim::{jittered_backoff_us, DiskService, EngineStepper, Metrics, ServiceProvider, SimOptions};

use crate::{FarmConfig, OnlineRouter};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Builds a shard's scheduler. The [`SharedSink`] handle is a clone of
/// the member's flight-recorder sink: pass it to sink-carrying
/// constructors (cascade's `CascadedSfc::with_sink`) so bounded-queue
/// shed events land in the same recorder the engine writes — the
/// supervisor's shed-burst trigger (and the event-vs-counter
/// reconciliation) depends on that wiring. Factories for sink-less
/// policies may ignore the handle.
pub type SchedulerFactory =
    Box<dyn FnMut(usize, SharedSink<FlightRecorder>) -> Box<dyn DiskScheduler>>;

/// Builds a shard's service model (e.g. a fault-injected
/// [`DiskService`] for a limping member).
pub type ServiceFactory = Box<dyn FnMut(usize) -> DiskService>;

/// One input to the daemon's event loop. Events must be fed in
/// non-decreasing time order (arrivals carry their own
/// [`Request::arrival_us`]).
#[derive(Debug, Clone)]
pub enum DaemonEvent {
    /// A request arrived at the farm's front door.
    Arrival(Request),
    /// Grow the farm by one fresh, idle, eligible shard (refused once
    /// the flight ring has no member tag left to give it).
    AddShard {
        /// Event time (µs).
        at_us: u64,
    },
    /// Take `shard` out of rotation: it stops receiving new arrivals
    /// immediately, serves residents until `at_us + handoff_window_us`,
    /// then migrates whatever is still queued and closes.
    DrainShard {
        /// Event time (µs).
        at_us: u64,
        /// The shard to retire.
        shard: usize,
        /// How long the shard may keep serving residents (µs).
        handoff_window_us: u64,
    },
    /// Operator-forced quarantine of `shard` (the supervisor path uses
    /// the same mechanism driven by flight-recorder anomalies).
    Quarantine {
        /// Event time (µs).
        at_us: u64,
        /// The shard to quarantine.
        shard: usize,
    },
    /// A control-plane retune: change a live scheduler knob on `shard`.
    /// Applied at the safe epoch boundary every event enjoys — no member
    /// owes a dispatch decided before `at_us` when the knob changes, so
    /// none straddles the change. Refused when the shard is unknown or
    /// retired, or its policy does not take the knob or the value (see
    /// [`DiskScheduler::retune`]).
    Retune {
        /// Event time (µs).
        at_us: u64,
        /// Target shard.
        shard: usize,
        /// The knob and its new value.
        knob: Retune,
    },
}

impl DaemonEvent {
    /// The event's time (µs) — arrivals use their `arrival_us`.
    pub fn at_us(&self) -> u64 {
        match self {
            DaemonEvent::Arrival(r) => r.arrival_us,
            DaemonEvent::AddShard { at_us }
            | DaemonEvent::DrainShard { at_us, .. }
            | DaemonEvent::Quarantine { at_us, .. }
            | DaemonEvent::Retune { at_us, .. } => *at_us,
        }
    }
}

/// A member's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// In rotation: receives new arrivals.
    Active,
    /// Out of rotation, serving residents until the handoff window
    /// closes.
    Draining {
        /// When the handoff window closes and leftovers migrate (µs).
        close_at_us: u64,
    },
    /// Retired: backlog migrated, ledger closed, engine stopped.
    Drained,
    /// Out of rotation after an anomaly; reinstated at `until_us`.
    Quarantined {
        /// Earliest re-probe time (µs).
        until_us: u64,
    },
}

/// Supervisor cooldown policy: how long a quarantined member sits out.
///
/// The cooldown is `jittered_backoff_us(cooldown_us, strikes, ...)` —
/// exponential in the member's lifetime strike count, with seeded
/// deterministic jitter (salted by the shard index) so repeated
/// re-probes across members decorrelate instead of thundering back in
/// lock-step.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Base quarantine cooldown (µs); doubles per strike.
    pub cooldown_us: u64,
    /// Jitter span in permille of the backoff (0 = deterministic).
    pub jitter_permille: u32,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            cooldown_us: 2_000_000,
            jitter_permille: 250,
            seed: 0x5ca1_ab1e,
        }
    }
}

/// What each member adds to the farm's flight ring, and the most one of
/// its dumps copies out (events). How many such dumps a member's recorder
/// keeps is the recorder's own constant, [`obs::DUMP_RETENTION`]; the two
/// together bound what a member's post-mortems can weigh.
///
/// Sized by what a dump carries: every dump measured on the benchmark
/// workloads keeps as many events of its trigger window at 1024 events a
/// member as at 65,536 (at most 883 of them, on `surge`); only history
/// from before the window is shorter (DESIGN.md §6g). The ring packs an
/// entry into a 24-byte slot, so this is 24 KB a member.
const RECORDER_CAPACITY: usize = 1 << 10;

/// Full daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Shard count, routing policy and load model.
    pub farm: FarmConfig,
    /// Engine options for every member.
    pub options: SimOptions,
    /// Admission cap: concurrently active streams (`u32::MAX` = open).
    pub max_streams: u32,
    /// A stream's slot is reclaimed after this much idle time (µs).
    pub stream_idle_timeout_us: u64,
    /// Windowed-telemetry shape per member recorder.
    pub telemetry: TelemetryConfig,
    /// Anomaly trigger thresholds per member recorder.
    pub triggers: TriggerConfig,
    /// Quarantine cooldown policy.
    pub supervisor: SupervisorConfig,
}

impl DaemonConfig {
    /// Defaults: open admission gate, 1024 flight-ring events per member,
    /// exact telemetry,
    /// paper-default triggers, 2 s base cooldown.
    pub fn new(farm: FarmConfig, options: SimOptions) -> Self {
        DaemonConfig {
            farm,
            options,
            max_streams: u32::MAX,
            stream_idle_timeout_us: u64::MAX,
            telemetry: TelemetryConfig::exact(),
            triggers: TriggerConfig::default(),
            supervisor: SupervisorConfig::default(),
        }
    }

    /// Cap admission at `max_streams` concurrently active streams, a
    /// stream going idle for `idle_timeout_us` frees its slot.
    pub fn with_admission(mut self, max_streams: u32, idle_timeout_us: u64) -> Self {
        self.max_streams = max_streams;
        self.stream_idle_timeout_us = idle_timeout_us;
        self
    }

    /// Set the per-member telemetry shape and anomaly triggers.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig, triggers: TriggerConfig) -> Self {
        self.telemetry = telemetry;
        self.triggers = triggers;
        self
    }

    /// Set the supervisor cooldown policy.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }
}

/// One shard of the running farm: its engine, scheduler, service model
/// and telemetry, plus the lifecycle/supervision state.
struct Member {
    scheduler: Box<dyn DiskScheduler>,
    service: DiskService,
    stepper: EngineStepper,
    recorder: SharedSink<FlightRecorder>,
    status: MemberStatus,
    /// Sequence number of the first flight-recorder dump the supervisor
    /// has not inspected yet.
    dumps_seen: u64,
    /// Lifetime anomaly strikes (scales the quarantine backoff).
    strikes: u32,
}

impl Member {
    /// Submitted-but-undelivered arrivals plus the scheduler's queue.
    fn backlog(&self) -> usize {
        self.stepper.pending_len() + self.scheduler.len()
    }

    /// See [`EngineStepper::next_action_us`].
    fn next_action_us(&self) -> Option<u64> {
        self.stepper.next_action_us(self.scheduler.len())
    }
}

/// A min-heap of `(time µs, member)`.
type TimerHeap = BinaryHeap<Reverse<(u64, usize)>>;

/// Pop the earliest entry of `heap` if `due(time)` holds for it.
fn pop_if(heap: &mut TimerHeap, due: impl Fn(u64) -> bool) -> Option<(u64, usize)> {
    let &Reverse(entry) = heap.peek()?;
    if !due(entry.0) {
        return None;
    }
    heap.pop();
    Some(entry)
}

/// The continuous-operation farm daemon. See the module docs for the
/// architecture; drive it with [`FarmDaemon::handle`] /
/// [`FarmDaemon::run`] and collect the [`DaemonReport`] via
/// [`FarmDaemon::shutdown`].
pub struct FarmDaemon {
    cfg: DaemonConfig,
    router: OnlineRouter,
    gate: StreamGate,
    members: Vec<Member>,
    /// The one ring every member's recorder writes its raw events into.
    ring: FlightRing,
    routed_per_shard: Vec<u64>,
    make_scheduler: SchedulerFactory,
    make_service: ServiceFactory,
    arrivals: u64,
    migrated_undelivered: u64,
    refused_events: u64,
    dumps_missed: u64,
    /// The ring's [`FlightRing::dumps_total`] when the supervisor last
    /// looked: while it has not moved, no member has a dump to read.
    ring_dumps_seen: u64,
    now_us: u64,
    /// One `(next_action_us, member)` entry per member with work (see the
    /// module docs, "The event loop").
    wake: TimerHeap,
    /// `(close_at_us, member)` per draining member.
    drain_timers: TimerHeap,
    /// `(until_us, member)` per quarantined member.
    quarantine_timers: TimerHeap,
    /// Reused storage for the members one event pumps.
    scratch: Vec<usize>,
    /// Σ [`Member::backlog`], maintained incrementally.
    backlog: usize,
}

impl FarmDaemon {
    /// Build the daemon: one member per `cfg.farm.shards`, every member
    /// active and eligible.
    ///
    /// `make_scheduler(shard, sink)` builds each shard's scheduler — wire
    /// the provided sink into bounded schedulers so their shed events
    /// reach the member's flight recorder (see [`SchedulerFactory`]).
    /// `make_service(shard)` builds its service model. Both factories are
    /// retained for [`DaemonEvent::AddShard`].
    pub fn new(
        cfg: DaemonConfig,
        make_scheduler: impl FnMut(usize, SharedSink<FlightRecorder>) -> Box<dyn DiskScheduler>
            + 'static,
        make_service: impl FnMut(usize) -> DiskService + 'static,
    ) -> Self {
        let mut make_scheduler: SchedulerFactory = Box::new(make_scheduler);
        let mut make_service: ServiceFactory = Box::new(make_service);
        let ring = FlightRing::with_capacity(cfg.farm.shards.saturating_mul(RECORDER_CAPACITY));
        let members: Vec<Member> = (0..cfg.farm.shards)
            .map(|i| {
                // A new ring has a tag for every initial member, so only
                // a disk short of the farm's cylinders is refused here.
                Self::build_member(&mut make_scheduler, &mut make_service, i, &cfg, &ring)
                    .unwrap_or_else(|| {
                        panic!(
                            "shard {i}'s disk has fewer cylinders than the farm config's {}",
                            cfg.farm.cylinders
                        )
                    })
            })
            .collect();
        let capacities: Vec<Option<usize>> = members
            .iter()
            .map(|m| m.scheduler.queue_capacity())
            .collect();
        let router = OnlineRouter::new(&cfg.farm, &capacities);
        let gate = StreamGate::new(cfg.max_streams, cfg.stream_idle_timeout_us);
        let routed_per_shard = vec![0; cfg.farm.shards];
        FarmDaemon {
            cfg,
            router,
            gate,
            members,
            ring,
            routed_per_shard,
            make_scheduler,
            make_service,
            arrivals: 0,
            migrated_undelivered: 0,
            refused_events: 0,
            dumps_missed: 0,
            ring_dumps_seen: 0,
            now_us: 0,
            wake: BinaryHeap::new(),
            drain_timers: BinaryHeap::new(),
            quarantine_timers: BinaryHeap::new(),
            scratch: Vec::new(),
            backlog: 0,
        }
    }

    /// Build member `idx` with its recorder attached to `ring`. `None`,
    /// before a recorder attaches or the scheduler factory runs, when the
    /// service factory's disk has fewer cylinders than the farm or the
    /// ring has no tag left.
    fn build_member(
        make_scheduler: &mut SchedulerFactory,
        make_service: &mut ServiceFactory,
        idx: usize,
        cfg: &DaemonConfig,
        ring: &FlightRing,
    ) -> Option<Member> {
        let service = make_service(idx);
        if service.cylinders() < cfg.farm.cylinders {
            return None;
        }
        let recorder = SharedSink::new(FlightRecorder::attach(
            ring,
            RECORDER_CAPACITY,
            cfg.telemetry,
            cfg.triggers,
        )?);
        let scheduler = make_scheduler(idx, recorder.clone());
        let stepper = EngineStepper::new(cfg.options, service.cylinders());
        Some(Member {
            scheduler,
            service,
            stepper,
            recorder,
            status: MemberStatus::Active,
            dumps_seen: 0,
            strikes: 0,
        })
    }

    /// Current farm size, including drained members.
    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// The member's lifecycle state.
    pub fn status(&self, shard: usize) -> MemberStatus {
        self.members[shard].status
    }

    /// Time of the last handled event (µs).
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// The routing core (e.g. to inspect eligibility or counters).
    pub fn router(&self) -> &OnlineRouter {
        &self.router
    }

    /// Arrivals seen so far (admitted or not).
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Stream admissions refused by the gate so far.
    pub fn admission_rejections(&self) -> u64 {
        self.gate.rejections()
    }

    /// The farm's live backlog: submitted-but-undelivered arrivals plus
    /// every member scheduler's pending queue, summed over the farm.
    /// This is the backpressure signal a closed-loop source watches —
    /// and the quantity that must stay bounded for a multi-hour run to
    /// fit in memory. O(1): a counter adjusted at every submit, pump and
    /// drain close.
    pub fn backlog(&self) -> usize {
        debug_assert_eq!(
            self.backlog,
            self.members.iter().map(Member::backlog).sum::<usize>(),
            "the backlog counter drifted from the members' queues"
        );
        self.backlog
    }

    /// What the daemon holds, counted in entries (not bytes) and folded
    /// by structure over the members: the admission gate's recency list
    /// and stream index, the router's per-shard tables and rotation list,
    /// the steppers' undelivered arrivals and inversion censuses, the
    /// schedulers' queues and arenas, the shared flight ring, the
    /// recorders' retained dumps and live and undrained windows, the
    /// member table, the wake heap, the two timer heaps, and the event
    /// loop's scratch list.
    ///
    /// All of it is *state*: sized by the farm's shape, the gate and
    /// queue bounds and the telemetry depths. None of it may be
    /// *traffic*: a structure that gains an entry per request, per
    /// anomaly or per control action and never gives it back. Run the
    /// same scenario ten times longer, bring both runs to rest, and the
    /// two censuses must be equal — see the module docs.
    pub fn state_census(&self) -> Vec<(&'static str, usize)> {
        let over_members =
            |held: fn(&Member) -> usize| self.members.iter().map(held).sum::<usize>();
        vec![
            ("gate", self.gate.state_len()),
            ("router", self.router.state_len()),
            ("steppers", over_members(|m| m.stepper.state_len())),
            ("schedulers", over_members(|m| m.scheduler.state_len())),
            ("flight_ring", self.ring.len()),
            (
                "dumps",
                over_members(|m| m.recorder.with(|r| r.dumps().len())),
            ),
            (
                "windows",
                over_members(|m| m.recorder.with(|r| r.windows().state_len())),
            ),
            ("members", self.members.len() + self.routed_per_shard.len()),
            ("wake", self.wake.len()),
            (
                "timers",
                self.drain_timers.len() + self.quarantine_timers.len(),
            ),
            ("scratch", self.scratch.len()),
        ]
    }

    /// Drain a pull-based [`workload::stream::TraceSource`] through the
    /// daemon: each request becomes a [`DaemonEvent::Arrival`], and
    /// after every arrival the source's `observe` hook is fed the
    /// farm-wide [`FarmDaemon::backlog`], closing the loop — a swamped
    /// farm slows its clients down instead of accumulating an unbounded
    /// trace. Membership events can be interleaved between `ingest`
    /// calls (the source yields time-ordered arrivals, so the usual
    /// [`FarmDaemon::handle`] ordering contract applies). Returns the
    /// number of requests ingested.
    pub fn ingest<T: workload::TraceSource>(&mut self, source: &mut T) -> u64 {
        let mut pulled = 0;
        while let Some(r) = source.next() {
            self.handle(DaemonEvent::Arrival(r));
            pulled += 1;
            source.observe(self.backlog());
        }
        pulled
    }

    /// Drain every member's undrained telemetry delta — the windows that
    /// left its live range since the last drain, merged — tagged with the
    /// shard index: the control plane's subscription point. Draining at
    /// any cadence yields the same totals (the delta-sum invariant of
    /// [`obs::WindowedSnapshot`]); windows still live stay put.
    pub fn take_shard_deltas(&mut self) -> Vec<obs::ShardDelta> {
        let members = self.members.iter_mut().enumerate();
        members
            .filter_map(|(shard, m)| {
                let delta = m.recorder.with(|r| r.windows_mut().take_delta())?;
                Some(obs::ShardDelta { shard, delta })
            })
            .collect()
    }

    /// Close every drain whose handoff window ends at or before `t`, then
    /// pump the members whose next action lies before `t` — for every
    /// other member a pump to `t` would be a no-op or a repeated empty
    /// dequeue (see the module docs).
    fn advance_to(&mut self, t: u64) {
        while let Some((close_at_us, idx)) = pop_if(&mut self.drain_timers, |at| at <= t) {
            self.close_drain(idx, close_at_us);
        }
        // Collect first: a pumped member re-enters the heap under its new
        // clock, which must not be looked at again for this event.
        let mut due = std::mem::take(&mut self.scratch);
        while let Some((_, idx)) = pop_if(&mut self.wake, |at| at < t) {
            due.push(idx);
        }
        for idx in due.drain(..) {
            // A member drained since it was scheduled has nothing left.
            if self.members[idx].status != MemberStatus::Drained {
                self.pump(idx, t);
            }
            if let Some(at) = self.members[idx].next_action_us() {
                self.wake.push(Reverse((at, idx)));
            }
        }
        self.scratch = due;
    }

    fn pump(&mut self, idx: usize, horizon_us: u64) {
        let m = &mut self.members[idx];
        let before = m.backlog();
        m.stepper.run_until(
            horizon_us,
            m.scheduler.as_mut(),
            &mut m.service,
            &mut m.recorder,
        );
        self.backlog = self.backlog - before + m.backlog();
    }

    /// The handoff window closed: serve residents up to the close, then
    /// migrate whatever the member still holds (queued in its scheduler
    /// or submitted but undelivered) to the least-loaded eligible shard
    /// and retire the member. Migrated requests are terminal in this
    /// farm's ledger — the Migrate event records the designated target
    /// for the next tier to replay.
    fn close_drain(&mut self, idx: usize, close_at_us: u64) {
        self.pump(idx, close_at_us);
        let to_shard = self.router.least_loaded_eligible() as u32;
        let cylinders = self.cfg.farm.cylinders;
        let m = &mut self.members[idx];
        let head = HeadState::new(0, close_at_us, cylinders);
        let mut leftovers = m.scheduler.drain_pending(&head);
        let undelivered = m.stepper.take_pending();
        self.migrated_undelivered += undelivered.len() as u64;
        leftovers.extend(undelivered);
        leftovers.sort_by_key(|r| (r.arrival_us, r.id));
        for r in &leftovers {
            m.recorder.emit(&TraceEvent::Migrate {
                now_us: close_at_us,
                req: r.id,
                from_shard: idx as u32,
                to_shard,
            });
        }
        self.backlog -= leftovers.len();
        m.status = MemberStatus::Drained;
    }

    /// Reinstate expired quarantines; then, if any recorder has dumped
    /// since the last look, scan the fresh dumps of every member that
    /// took one for actionable anomalies and quarantine the offenders —
    /// in index order, because a quarantine can be refused for being the
    /// last shard in rotation.
    fn supervise(&mut self, t: u64) {
        while let Some((_, idx)) = pop_if(&mut self.quarantine_timers, |until| until <= t) {
            self.members[idx].status = MemberStatus::Active;
            self.router.set_eligible(idx, true);
        }
        let ring_dumps = self.ring.dumps_total();
        if ring_dumps == self.ring_dumps_seen {
            return;
        }
        self.ring_dumps_seen = ring_dumps;
        for idx in 0..self.members.len() {
            let seen = self.members[idx].dumps_seen;
            let (total, missed, actionable) = self.members[idx].recorder.with(|r| {
                let actionable = r
                    .dumps_from(seen)
                    .iter()
                    .any(|d| matches!(d.anomaly, Anomaly::ShedBurst | Anomaly::P99Spike));
                let missed = r.dumps_evicted().saturating_sub(seen);
                (r.dumps_total(), missed, actionable)
            });
            self.members[idx].dumps_seen = total;
            self.dumps_missed += missed;
            if actionable && self.members[idx].status == MemberStatus::Active {
                self.quarantine_member(idx, t);
            }
        }
    }

    /// Quarantine `idx` at time `t` with the strike-scaled jittered
    /// cooldown. Refused (returning `false` and counting a refused
    /// event) when the member is not active or is the last shard in
    /// rotation — the farm never quarantines itself to a standstill.
    fn quarantine_member(&mut self, idx: usize, t: u64) -> bool {
        if self.members[idx].status != MemberStatus::Active
            || !self.router.is_eligible(idx)
            || self.router.eligible_count() <= 1
        {
            self.refused_events += 1;
            return false;
        }
        let sup = self.cfg.supervisor;
        let m = &mut self.members[idx];
        m.strikes += 1;
        let until_us = t.saturating_add(jittered_backoff_us(
            sup.cooldown_us,
            m.strikes,
            sup.jitter_permille,
            sup.seed,
            idx as u64,
        ));
        m.status = MemberStatus::Quarantined { until_us };
        m.recorder.emit(&TraceEvent::Quarantine {
            now_us: t,
            shard: idx as u32,
            until_us,
        });
        self.quarantine_timers.push(Reverse((until_us, idx)));
        self.router.set_eligible(idx, false);
        true
    }

    /// Apply a control-plane retune at the current (post-pump) epoch
    /// boundary, anchored at the member's *actual* head position.
    /// Refused, counting a refused event, when the target shard is
    /// unknown or retired, or the scheduler rejects the knob.
    fn apply_retune(&mut self, shard: usize, knob: Retune, t: u64) {
        let retired =
            |s: MemberStatus| matches!(s, MemberStatus::Drained | MemberStatus::Draining { .. });
        if shard >= self.members.len() || retired(self.members[shard].status) {
            self.refused_events += 1;
            return;
        }
        let cylinders = self.cfg.farm.cylinders;
        let m = &mut self.members[shard];
        let head = HeadState::new(m.service.head(), t, cylinders);
        if !m.scheduler.retune(&knob, &head) {
            self.refused_events += 1;
            return;
        }
        m.recorder.emit(&TraceEvent::Retune {
            now_us: t,
            shard: shard as u32,
            knob: knob.knob_index(),
        });
    }

    /// Apply one event: pump the members with work due before the
    /// event's time, run the supervisor, then act.
    ///
    /// An event timed before the last handled one (an out-of-order line
    /// from a source), or an arrival for a cylinder past the end of the
    /// farm's disks, is refused: counted, dropped before it touches the
    /// clock, the gate, a member or the ledger. Every accepted arrival is
    /// therefore at or after each member's last submission, and on a
    /// cylinder its disk has.
    pub fn handle(&mut self, event: DaemonEvent) {
        let t = event.at_us();
        let off_disk =
            matches!(&event, DaemonEvent::Arrival(r) if r.cylinder >= self.cfg.farm.cylinders);
        if t < self.now_us || off_disk {
            self.refused_events += 1;
            return;
        }
        self.now_us = t;
        self.advance_to(t);
        self.supervise(t);
        match event {
            DaemonEvent::Arrival(r) => {
                self.arrivals += 1;
                if !self.gate.admit(r.stream, r.arrival_us) {
                    return;
                }
                let decision = self.router.route(&r);
                if let Some(ev) = decision.redirect_event(&r) {
                    // The overload evidence belongs to the shard the
                    // arrival was steered from.
                    self.members[decision.redirect_from].recorder.emit(&ev);
                }
                self.routed_per_shard[decision.shard] += 1;
                let m = &mut self.members[decision.shard];
                // A member with work already has its wake-up entry, and a
                // submission does not move its clock.
                if m.next_action_us().is_none() {
                    self.wake.push(Reverse((m.stepper.now(), decision.shard)));
                }
                m.stepper.submit(r);
                self.backlog += 1;
            }
            DaemonEvent::AddShard { .. } => {
                let idx = self.members.len();
                let Some(member) = Self::build_member(
                    &mut self.make_scheduler,
                    &mut self.make_service,
                    idx,
                    &self.cfg,
                    &self.ring,
                ) else {
                    self.refused_events += 1;
                    return;
                };
                self.router.add_shard(member.scheduler.queue_capacity());
                self.members.push(member);
                self.routed_per_shard.push(0);
            }
            DaemonEvent::DrainShard {
                at_us,
                shard,
                handoff_window_us,
            } => {
                if shard >= self.members.len()
                    || self.members[shard].status != MemberStatus::Active
                    || self.router.eligible_count() <= 1
                {
                    self.refused_events += 1;
                    return;
                }
                self.router.set_eligible(shard, false);
                let close_at_us = at_us.saturating_add(handoff_window_us);
                self.members[shard].status = MemberStatus::Draining { close_at_us };
                self.drain_timers.push(Reverse((close_at_us, shard)));
            }
            DaemonEvent::Quarantine { at_us, shard } => {
                if shard >= self.members.len() {
                    self.refused_events += 1;
                    return;
                }
                self.quarantine_member(shard, at_us);
            }
            DaemonEvent::Retune { at_us, shard, knob } => {
                self.apply_retune(shard, knob, at_us);
            }
        }
    }

    /// Feed every event through [`FarmDaemon::handle`], then shut down.
    /// Accepts any `IntoIterator` — including an
    /// [`std::sync::mpsc::Receiver`], which blocks until senders hang
    /// up, making this the channel front-end for a live arrival source.
    pub fn run(mut self, events: impl IntoIterator<Item = DaemonEvent>) -> DaemonReport {
        for event in events {
            self.handle(event);
        }
        self.shutdown()
    }

    /// Stop accepting events: close any still-open drains at their
    /// window, let every other live member run its backlog out, and
    /// collect the report.
    pub fn shutdown(mut self) -> DaemonReport {
        for idx in 0..self.members.len() {
            match self.members[idx].status {
                MemberStatus::Drained => {}
                MemberStatus::Draining { close_at_us } => self.close_drain(idx, close_at_us),
                _ => {
                    let m = &mut self.members[idx];
                    m.stepper
                        .finish(m.scheduler.as_mut(), &mut m.service, &mut m.recorder);
                }
            }
        }
        let mut per_shard = Vec::with_capacity(self.members.len());
        let mut sheds_per_shard = Vec::with_capacity(self.members.len());
        let mut recorders = Vec::with_capacity(self.members.len());
        let mut statuses = Vec::with_capacity(self.members.len());
        for member in self.members {
            sheds_per_shard.push(member.scheduler.sheds());
            statuses.push(member.status);
            // The scheduler may hold a clone of the recorder handle
            // (bounded cascades do); dropping it frees the sink for
            // recovery.
            drop(member.scheduler);
            per_shard.push(member.stepper.into_metrics());
            let mut recorder = member
                .recorder
                .try_unwrap()
                .expect("factories must not retain recorder handles");
            // The report keeps windows, counters and dumps; the ring goes
            // with the daemon.
            recorder.release_ring();
            recorders.push(recorder);
        }
        let makespan_us = per_shard.iter().map(|m| m.makespan_us).max().unwrap_or(0);
        // Migrations, quarantines and retunes are counted once, by their
        // events in the members' recorders.
        let decisions = traced_counters(&recorders);
        DaemonReport {
            per_shard,
            routed_per_shard: self.routed_per_shard,
            sheds_per_shard,
            statuses,
            recorders,
            arrivals: self.arrivals,
            admission_rejections: self.gate.rejections(),
            migrated: decisions.migrations,
            migrated_undelivered: self.migrated_undelivered,
            redirects: self.router.redirects(),
            reroutes: self.router.reroutes(),
            quarantines: decisions.quarantines,
            retunes: decisions.retunes,
            refused_events: self.refused_events,
            dumps_missed: self.dumps_missed,
            makespan_us,
        }
    }
}

/// Every event the recorders saw over the whole run, counted by kind.
fn traced_counters(recorders: &[FlightRecorder]) -> obs::Counters {
    let mut counters = obs::Counters::default();
    for r in recorders {
        counters.merge(&r.windows().cumulative_counters());
    }
    counters
}

/// Everything a daemon run produced, with the closed-ledger and
/// event-reconciliation checks the CI gates assert.
#[derive(Debug)]
pub struct DaemonReport {
    /// Engine metrics per member (index = shard id).
    pub per_shard: Vec<Metrics>,
    /// Admitted arrivals placed on each shard.
    pub routed_per_shard: Vec<u64>,
    /// Bounded-queue sheds per shard.
    pub sheds_per_shard: Vec<u64>,
    /// Final lifecycle state per member.
    pub statuses: Vec<MemberStatus>,
    /// Each member's flight recorder (dumps + windowed telemetry),
    /// released from the farm's ring ([`FlightRecorder::release_ring`]):
    /// a post-mortem of the raw events is taken before shutdown.
    pub recorders: Vec<FlightRecorder>,
    /// Requests offered to the farm (admitted or not).
    pub arrivals: u64,
    /// Requests rejected at the admission gate.
    pub admission_rejections: u64,
    /// Requests migrated off draining shards (terminal here): the
    /// members' `Migrate` events, summed.
    pub migrated: u64,
    /// The subset of `migrated` never delivered to a scheduler (still
    /// in the stepper's submission backlog at drain close).
    pub migrated_undelivered: u64,
    /// Overload redirects taken by the router.
    pub redirects: u64,
    /// Arrivals rerouted off ineligible shards.
    pub reroutes: u64,
    /// Quarantines imposed (supervisor or operator): the members'
    /// `Quarantine` events, summed.
    pub quarantines: u64,
    /// Control-plane knob retunes applied: the members' `Retune` events,
    /// summed.
    pub retunes: u64,
    /// Events refused: membership/quarantine/retune requests the farm
    /// cannot honour (unknown shard, wrong state, unsupported knob,
    /// last shard in rotation, or a shard past the flight ring's member
    /// tags), arrivals for a cylinder past the end of the farm's disks,
    /// and events of any kind — arrivals included — timed before the last
    /// handled one.
    pub refused_events: u64,
    /// Flight-recorder dumps evicted from a member's bounded dump ring
    /// before the supervisor had looked at them — anomalies it never got
    /// to act on. 0 unless one pump fired more dumps than a recorder
    /// keeps.
    pub dumps_missed: u64,
    /// Slowest member's makespan (µs).
    pub makespan_us: u64,
}

impl DaemonReport {
    /// Total requests served.
    pub fn served(&self) -> u64 {
        self.per_shard.iter().map(|m| m.served).sum()
    }

    /// Total bounded-queue sheds.
    pub fn sheds(&self) -> u64 {
        self.sheds_per_shard.iter().sum()
    }

    /// All members folded into one farm-level [`Metrics`].
    pub fn aggregate(&self) -> Metrics {
        Metrics::merged(&self.per_shard)
    }

    /// The request ledger: every arrival must be terminal in exactly one
    /// bucket — served/dropped/failed in some engine, shed by a bounded
    /// queue, migrated off a drained shard, or rejected at admission.
    pub fn ledger(&self) -> Result<(), String> {
        let total = self.aggregate();
        let accounted =
            total.requests_total() + self.sheds() + self.migrated + self.admission_rejections;
        if accounted != self.arrivals {
            return Err(format!(
                "daemon ledger: {accounted} accounted of {} \
                 (served {} dropped {} failed {} shed {} migrated {} rejected {})",
                self.arrivals,
                total.served,
                total.dropped,
                total.failed,
                self.sheds(),
                self.migrated,
                self.admission_rejections
            ));
        }
        Ok(())
    }

    /// Event-vs-counter reconciliation across every member's telemetry:
    /// the engines' traced events must match [`DaemonReport::aggregate`]
    /// ([`Metrics::reconcile`]), and traced Arrival/Shed/Redirect events
    /// the counts kept apart from them, exactly: the arrivals the daemon
    /// delivered, the dispatchers' sheds and the router's redirects.
    /// (Requires scheduler factories to wire the provided sink, so shed
    /// events are traced.) Migrations, quarantines and retunes have no
    /// second count to hold them to: [`DaemonReport::migrated`],
    /// [`DaemonReport::quarantines`] and [`DaemonReport::retunes`] are
    /// their events, summed, and [`DaemonReport::ledger`] still fails on
    /// a missing `Migrate`.
    pub fn reconcile_events(&self) -> Result<(), String> {
        let counters = traced_counters(&self.recorders);
        self.aggregate().reconcile(&counters)?;
        let delivered = self
            .arrivals
            .checked_sub(self.admission_rejections)
            .and_then(|admitted| admitted.checked_sub(self.migrated_undelivered))
            .ok_or_else(|| {
                format!(
                    "{} admission rejections + {} undelivered migrations exceed {} arrivals",
                    self.admission_rejections, self.migrated_undelivered, self.arrivals
                )
            })?;
        let checks = [
            ("arrival", counters.arrivals, delivered),
            ("shed", counters.sheds, self.sheds()),
            ("redirect", counters.redirects, self.redirects),
        ];
        for (name, events, counter) in checks {
            if events != counter {
                return Err(format!(
                    "{name} events vs daemon counter: {events} != {counter}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutePolicy;
    use sched::{Fcfs, QosVector};

    fn vod(streams: u64, n: u64) -> Vec<Request> {
        paced(streams, n, 900, 1)
    }

    /// `n` arrivals in groups of `tie` sharing one timestamp, the groups
    /// `gap_us` apart.
    fn paced(streams: u64, n: u64, gap_us: u64, tie: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let at = i / tie * gap_us;
                Request::read(
                    i,
                    at,
                    at + 120_000,
                    (i * 37 % 3832) as u32,
                    64 * 1024,
                    QosVector::single((i % 5) as u8),
                )
                .with_stream(i % streams)
            })
            .collect()
    }

    fn fcfs_factory() -> impl FnMut(usize, SharedSink<FlightRecorder>) -> Box<dyn DiskScheduler> {
        |_, _| Box::new(Fcfs::new())
    }

    fn table1_services() -> impl FnMut(usize) -> DiskService {
        |_| DiskService::table1()
    }

    /// Counts `dequeue` calls on an FCFS queue.
    struct CountingFcfs {
        inner: Fcfs,
        dequeues: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl DiskScheduler for CountingFcfs {
        fn name(&self) -> &'static str {
            "counting-fcfs"
        }
        fn enqueue(&mut self, req: Request, head: &HeadState) {
            self.inner.enqueue(req, head);
        }
        fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
            self.dequeues.set(self.dequeues.get() + 1);
            self.inner.dequeue(head)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
            self.inner.for_each_pending(f);
        }
    }

    /// `dequeue` calls per arrival with every shard seeing one arrival
    /// per ~40 ms (about half the Table-1 disk's capacity).
    fn dequeues_per_arrival(shards: u64) -> f64 {
        let arrivals = 250 * shards;
        let trace = paced(arrivals, arrivals, 40_000 / shards, 1);
        let dequeues = std::rc::Rc::new(std::cell::Cell::new(0));
        let counter = dequeues.clone();
        let mut daemon = FarmDaemon::new(
            DaemonConfig::new(
                FarmConfig::new(shards as usize),
                SimOptions::with_shape(1, 5),
            ),
            move |_, _| {
                Box::new(CountingFcfs {
                    inner: Fcfs::new(),
                    dequeues: counter.clone(),
                })
            },
            table1_services(),
        );
        daemon.ingest(&mut workload::VecSource::new(trace));
        let report = daemon.shutdown();
        assert_eq!(report.served(), arrivals);
        dequeues.get() as f64 / arrivals as f64
    }

    #[test]
    fn per_arrival_work_does_not_grow_with_the_farm() {
        // The same per-shard load on 16x the shards: an event loop that
        // pumps every member per event makes about one empty dequeue per
        // idle shard per arrival, so the count grows with the farm; one
        // that pumps only members with work due stays near one dequeue
        // per served request plus one per idle gap. Counted, not timed.
        let (narrow, wide) = (dequeues_per_arrival(4), dequeues_per_arrival(64));
        assert!(
            narrow >= 1.0 && wide < 1.5 * narrow,
            "dequeue calls per arrival: {narrow:.2} on 4 shards, {wide:.2} on 64"
        );
    }

    #[test]
    fn drain_migrates_the_backlog_and_closes_the_ledger() {
        // A dense burst swamps the farm; draining a shard mid-burst with
        // a short handoff window must leave a backlog to migrate.
        let trace = vod(8, 300);
        let options = SimOptions::with_shape(1, 5);
        let farm_cfg = FarmConfig::new(3).with_policy(RoutePolicy::LeastLoaded);
        let mut daemon = FarmDaemon::new(
            DaemonConfig::new(farm_cfg, options),
            fcfs_factory(),
            table1_services(),
        );
        for r in &trace[..200] {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        let t = trace[199].arrival_us;
        daemon.handle(DaemonEvent::DrainShard {
            at_us: t,
            shard: 1,
            handoff_window_us: 10_000,
        });
        for r in &trace[200..] {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        let before = daemon.router().reroutes();
        assert!(before > 0, "the drained shard's arrivals must reroute");
        let report = daemon.run(std::iter::empty());
        assert_eq!(report.statuses[1], MemberStatus::Drained);
        assert!(
            report.migrated > 0,
            "a 10 ms window cannot drain the backlog"
        );
        assert_eq!(report.refused_events, 0);
        report.ledger().expect("ledger must close across the drain");
        report.reconcile_events().expect("migrate events reconcile");
        // Migrate events live in the drained member's recorder.
        let migrations = report.recorders[1]
            .windows()
            .cumulative()
            .counters
            .migrations;
        assert_eq!(migrations, report.migrated);
    }

    #[test]
    fn added_shard_attracts_new_arrivals() {
        let trace = vod(12, 240);
        let options = SimOptions::with_shape(1, 5);
        let farm_cfg = FarmConfig::new(2).with_policy(RoutePolicy::LeastLoaded);
        let mut daemon = FarmDaemon::new(
            DaemonConfig::new(farm_cfg, options),
            fcfs_factory(),
            table1_services(),
        );
        for r in &trace[..120] {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        daemon.handle(DaemonEvent::AddShard {
            at_us: trace[119].arrival_us,
        });
        assert_eq!(daemon.shards(), 3);
        for r in &trace[120..] {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        let report = daemon.shutdown();
        assert_eq!(report.per_shard.len(), 3);
        assert!(
            report.routed_per_shard[2] > 0,
            "the idle newcomer must attract load: {:?}",
            report.routed_per_shard
        );
        report.ledger().expect("ledger must close across the add");
        report.reconcile_events().expect("events reconcile");
        // The engines' own events are part of the reconciliation.
        let mut tampered = report;
        tampered.per_shard[0].served += 1;
        let err = tampered.reconcile_events().unwrap_err();
        assert!(err.contains("vs served"), "{err}");
        // More rejections than arrivals is an error, not an underflow.
        tampered.per_shard[0].served -= 1;
        tampered.admission_rejections = tampered.arrivals + 1;
        let err = tampered.reconcile_events().unwrap_err();
        assert!(err.contains("admission rejections"), "{err}");
    }

    #[test]
    fn ingest_matches_run_and_reports_backlog() {
        // Streaming ingest of a materialized trace must be
        // indistinguishable from feeding the same arrivals through run(),
        // and the backlog accessor must return to zero after shutdown.
        let trace = vod(16, 400);
        let options = SimOptions::with_shape(1, 5).dropping();
        let farm_cfg = FarmConfig::new(3).with_policy(RoutePolicy::LeastLoaded);
        let daemon = FarmDaemon::new(
            DaemonConfig::new(farm_cfg.clone(), options),
            fcfs_factory(),
            table1_services(),
        );
        let by_run = daemon.run(trace.iter().cloned().map(DaemonEvent::Arrival));

        let mut daemon = FarmDaemon::new(
            DaemonConfig::new(farm_cfg, options),
            fcfs_factory(),
            table1_services(),
        );
        let mut source = workload::VecSource::new(trace.clone());
        let pulled = daemon.ingest(&mut source);
        assert_eq!(pulled as usize, trace.len());
        assert_eq!(daemon.arrivals(), trace.len() as u64);
        assert_eq!(daemon.admission_rejections(), 0, "the gate defaults open");
        let by_ingest = daemon.shutdown();
        assert_eq!(by_ingest.per_shard, by_run.per_shard);
        assert_eq!(by_ingest.routed_per_shard, by_run.routed_per_shard);
        by_ingest.ledger().expect("ledger closes");
    }

    #[test]
    fn admission_gate_rejections_stay_in_the_ledger() {
        let trace = vod(10, 200);
        let options = SimOptions::with_shape(1, 5);
        let cfg = DaemonConfig::new(FarmConfig::new(2), options).with_admission(4, 50_000);
        let daemon = FarmDaemon::new(cfg, fcfs_factory(), table1_services());
        let report = daemon.run(trace.iter().cloned().map(DaemonEvent::Arrival));
        assert!(
            report.admission_rejections > 0,
            "10 streams through a 4-slot gate must reject"
        );
        report.ledger().expect("rejections are a ledger bucket");
        report.reconcile_events().expect("events reconcile");
    }

    #[test]
    fn operator_quarantine_is_refused_for_the_last_shard_in_rotation() {
        let options = SimOptions::with_shape(1, 5);
        let mut daemon = FarmDaemon::new(
            DaemonConfig::new(FarmConfig::new(1), options),
            fcfs_factory(),
            table1_services(),
        );
        daemon.handle(DaemonEvent::Quarantine { at_us: 0, shard: 0 });
        assert_eq!(daemon.status(0), MemberStatus::Active);
        let trace = vod(4, 50);
        let report = daemon.run(trace.iter().cloned().map(DaemonEvent::Arrival));
        assert_eq!(report.refused_events, 1);
        assert_eq!(report.quarantines, 0);
        assert_eq!(report.served(), 50);
        report.ledger().expect("ledger closes");
    }

    #[test]
    fn operator_quarantine_reroutes_and_reinstates_after_cooldown() {
        let trace = vod(6, 300);
        let options = SimOptions::with_shape(1, 5);
        let sup = SupervisorConfig {
            cooldown_us: 40_000,
            jitter_permille: 0,
            seed: 7,
        };
        let cfg = DaemonConfig::new(
            FarmConfig::new(2).with_policy(RoutePolicy::LeastLoaded),
            options,
        )
        .with_supervisor(sup);
        let mut daemon = FarmDaemon::new(cfg, fcfs_factory(), table1_services());
        for r in &trace[..50] {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        let t = trace[49].arrival_us;
        daemon.handle(DaemonEvent::Quarantine { at_us: t, shard: 0 });
        let until = match daemon.status(0) {
            MemberStatus::Quarantined { until_us } => until_us,
            other => panic!("expected quarantine, got {other:?}"),
        };
        assert_eq!(until, t + 40_000, "first strike = base cooldown, no jitter");
        // While quarantined, everything routes to shard 1.
        let routed_before = daemon.router().reroutes();
        for r in trace[50..].iter().take_while(|r| r.arrival_us < until) {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        assert!(daemon.router().reroutes() > routed_before);
        // Past the cooldown the member is reinstated on the next event.
        for r in trace.iter().filter(|r| r.arrival_us >= until) {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        assert_eq!(daemon.status(0), MemberStatus::Active);
        let report = daemon.shutdown();
        assert_eq!(report.quarantines, 1);
        report.ledger().expect("ledger closes");
        report
            .reconcile_events()
            .expect("quarantine event reconciles");
    }

    #[test]
    fn supervisor_quarantines_a_shedding_member() {
        use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
        use diskmodel::{Disk, FaultPlan};
        // One sticky stream hammers its hash shard through a tiny bounded
        // queue: shed events stream into the member's flight recorder,
        // the shed-burst dump fires, and the supervisor takes the shard
        // out of rotation — all without any operator event.
        let trace = vod(1, 400);
        let options = SimOptions::with_shape(1, 5);
        let triggers = TriggerConfig {
            shed_burst: 4,
            redirect_storm: 0,
            p99_spike_factor: 0.0,
            p99_min_completes: 0,
            cooldown_windows: 1,
        };
        let cfg = DaemonConfig::new(
            FarmConfig::new(2).with_policy(RoutePolicy::HashStream),
            options,
        )
        .with_telemetry(TelemetryConfig::exact().window_log2(20).depth(4), triggers)
        .with_supervisor(SupervisorConfig {
            cooldown_us: 60_000_000,
            jitter_permille: 0,
            seed: 11,
        });
        // `limping` serves at 2.5x the Table-1 disk's service times.
        let run = |trace: &[Request], limping: Option<usize>| {
            let daemon = FarmDaemon::new(
                cfg.clone(),
                |_, sink| {
                    let cascade = CascadeConfig::paper_default(1, 3832)
                        .with_dispatch(DispatchConfig::paper_default().with_max_queue(8));
                    Box::new(CascadedSfc::with_sink(cascade, sink).expect("valid cascade config"))
                },
                move |shard| {
                    if limping == Some(shard) {
                        let plan = FaultPlan::none().with_limp(2_500);
                        DiskService::with_faults(Disk::table1(), plan)
                    } else {
                        DiskService::table1()
                    }
                },
            );
            let report = daemon.run(trace.iter().cloned().map(DaemonEvent::Arrival));
            report.ledger().expect("ledger closes under supervision");
            report.reconcile_events().expect("shed events reconcile");
            // Every dump the overload fired balances its events against
            // its counters: the ring never lost one a dump needed.
            for recorder in &report.recorders {
                assert_eq!(recorder.dumps_unclean(), 0);
            }
            report
        };
        let report = run(&trace, None);
        assert_eq!(report.quarantines, 1, "the shed burst must strike once");
        // Placement follows the moment of the strike: these are the
        // figures of the supervisor that indexed an unbounded dump list.
        assert_eq!((report.reroutes, report.refused_events), (373, 1));
        assert_eq!(report.routed_per_shard, [373, 27]);
        assert_eq!(report.dumps_missed, 0);
        // The victim is whichever member ended up quarantined; the other
        // shard may shed too once the sticky stream reroutes onto it.
        let victim = (0..2)
            .find(|&s| matches!(report.statuses[s], MemberStatus::Quarantined { .. }))
            .expect("one member must be quarantined");
        assert!(
            report.sheds_per_shard[victim] > 0,
            "the quarantined member must be the shedder"
        );
        assert!(
            report.reroutes > 0,
            "post-quarantine arrivals must route around the victim"
        );
        assert!(report.recorders[victim]
            .dumps()
            .iter()
            .any(|d| d.anomaly == Anomaly::ShedBurst));

        // A slow disk, not a hot stream: sixteen streams split evenly over
        // the two members at a rate a healthy pair serves without a shed.
        // Lamed to 2.5x its service times, member 1 floods its queue, and
        // the supervisor takes it, and only it, out of rotation.
        let spread = paced(16, 400, 10_000, 1);
        let healthy = run(&spread, None);
        assert_eq!((healthy.sheds(), healthy.quarantines), (0, 0));
        let limped = run(&spread, Some(1));
        assert_eq!(limped.quarantines, 1);
        assert!(matches!(
            limped.statuses[1],
            MemberStatus::Quarantined { .. }
        ));
        assert_eq!(limped.statuses[0], MemberStatus::Active);
        assert!(limped.reroutes > 0);
    }

    #[test]
    fn a_dump_taken_while_pumping_for_a_neighbours_arrival_is_acted_on_at_that_event() {
        use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
        // Three members behind four-deep queues, hash-routed streams in
        // turn: a member's arrivals are delivered — and shed — when the
        // next event pumps it, and that event is mostly an arrival for
        // another member. The supervisor must act on the shed burst's
        // dump at the very event whose pump took it.
        let trace = vod(7, 3_000);
        let triggers = TriggerConfig {
            shed_burst: 4,
            redirect_storm: 0,
            p99_spike_factor: 0.0,
            p99_min_completes: 0,
            cooldown_windows: 1,
        };
        let cfg = DaemonConfig::new(
            FarmConfig::new(3).with_policy(RoutePolicy::HashStream),
            SimOptions::with_shape(1, 5),
        )
        .with_telemetry(TelemetryConfig::exact().window_log2(16).depth(4), triggers)
        .with_supervisor(SupervisorConfig {
            cooldown_us: 50_000,
            jitter_permille: 0,
            seed: 5,
        });
        let mut daemon = FarmDaemon::new(
            cfg,
            |_, sink| {
                let cascade = CascadeConfig::paper_default(1, 3832)
                    .with_dispatch(DispatchConfig::paper_default().with_max_queue(4));
                Box::new(CascadedSfc::with_sink(cascade, sink).expect("valid cascade config"))
            },
            table1_services(),
        );
        let dumps_of = |d: &FarmDaemon| -> Vec<u64> {
            d.members
                .iter()
                .map(|m| m.recorder.with(|r| r.dumps_total()))
                .collect()
        };
        // (event, quarantined member, member the event's arrival went to)
        let mut struck = Vec::new();
        for (i, r) in trace.iter().enumerate() {
            let (dumps_before, routed_before) =
                (dumps_of(&daemon), daemon.routed_per_shard.clone());
            let was_active: Vec<bool> = (0..3)
                .map(|s| daemon.status(s) == MemberStatus::Active)
                .collect();
            daemon.handle(DaemonEvent::Arrival(r.clone()));
            let to = (0..3).find(|&s| daemon.routed_per_shard[s] > routed_before[s]);
            let dumps_after = dumps_of(&daemon);
            for s in 0..3 {
                if was_active[s] && matches!(daemon.status(s), MemberStatus::Quarantined { .. }) {
                    assert!(
                        dumps_after[s] > dumps_before[s],
                        "member {s} was struck at event {i} on a dump of an earlier one"
                    );
                    struck.push((i, s, to));
                }
            }
        }
        // Every strike fell on an arrival for another member. These are
        // the strikes, in order, of the supervisor that walked a list of
        // the members each event touched.
        assert_eq!(
            struck,
            [
                (25, 1, Some(0)),
                (31, 2, Some(0)),
                (87, 0, Some(2)),
                (124, 1, Some(2)),
                (151, 2, Some(0)),
                (269, 1, Some(0)),
                (283, 2, Some(0)),
                (526, 1, Some(2)),
                (540, 2, Some(0)),
                (998, 1, Some(2)),
                (1017, 2, Some(0)),
                (1910, 1, Some(2)),
                (1933, 0, Some(2)),
                (2140, 2, Some(0))
            ]
        );
        let report = daemon.shutdown();
        assert_eq!((report.quarantines, report.refused_events), (14, 42));
        assert_eq!(report.dumps_missed, 0);
        report.ledger().expect("ledger closes");
        report.reconcile_events().expect("events reconcile");
    }

    /// Forwards to a scheduler, noting every request enqueued on it.
    struct Placed {
        inner: Box<dyn DiskScheduler>,
        seen: std::rc::Rc<std::cell::RefCell<std::collections::HashSet<u64>>>,
    }

    impl DiskScheduler for Placed {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn enqueue(&mut self, req: Request, head: &HeadState) {
            self.seen.borrow_mut().insert(req.id);
            self.inner.enqueue(req, head);
        }
        fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
            self.inner.dequeue(head)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
            self.inner.for_each_pending(f);
        }
        fn sheds(&self) -> u64 {
            self.inner.sheds()
        }
        fn queue_capacity(&self) -> Option<usize> {
            self.inner.queue_capacity()
        }
        fn retune(&mut self, knob: &Retune, head: &HeadState) -> bool {
            self.inner.retune(knob, head)
        }
        fn drain_pending(&mut self, head: &HeadState) -> Vec<Request> {
            self.inner.drain_pending(head)
        }
    }

    #[test]
    fn a_members_dumps_hold_only_its_own_events() {
        use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
        use std::collections::HashSet;
        // Four members writing one ring, overloaded through tiny bounded
        // queues until the ring has wrapped, with an add, a drain, a
        // retune and the supervisor's quarantines on the way: whatever a
        // member's dump copies out of the ring must be that member's.
        let trace = vod(9, 20_000);
        let triggers = TriggerConfig {
            shed_burst: 4,
            redirect_storm: 0,
            p99_spike_factor: 0.0,
            p99_min_completes: 0,
            cooldown_windows: 8,
        };
        let cfg = DaemonConfig::new(
            FarmConfig::new(3).with_policy(RoutePolicy::LeastLoaded),
            SimOptions::with_shape(1, 5),
        )
        .with_telemetry(TelemetryConfig::exact().window_log2(16).depth(4), triggers)
        .with_supervisor(SupervisorConfig {
            cooldown_us: 50_000,
            jitter_permille: 0,
            seed: 3,
        });
        let placed: std::rc::Rc<std::cell::RefCell<Vec<_>>> = Default::default();
        let log = placed.clone();
        // Each member's recorder handle, for the post-mortem dumps taken
        // before `shutdown` releases the ring.
        let sinks: std::rc::Rc<std::cell::RefCell<Vec<SharedSink<FlightRecorder>>>> =
            Default::default();
        let kept = sinks.clone();
        let mut daemon = FarmDaemon::new(
            cfg,
            move |idx, sink| {
                let cascade = CascadeConfig::paper_default(1, 3832)
                    .with_dispatch(DispatchConfig::paper_default().with_max_queue(4));
                let seen = std::rc::Rc::new(std::cell::RefCell::new(HashSet::new()));
                assert_eq!(log.borrow().len(), idx);
                log.borrow_mut().push(seen.clone());
                kept.borrow_mut().push(sink.clone());
                Box::new(Placed {
                    inner: Box::new(CascadedSfc::with_sink(cascade, sink).expect("valid config")),
                    seen,
                })
            },
            table1_services(),
        );
        let added = 3;
        let mut drained = None;
        for (i, r) in trace.iter().enumerate() {
            let at_us = r.arrival_us;
            match i {
                500 => daemon.handle(DaemonEvent::AddShard { at_us }),
                1_000 => daemon.handle(DaemonEvent::Retune {
                    at_us,
                    shard: added,
                    knob: Retune::Window(0.3),
                }),
                _ => {}
            }
            // Drain the first original member the supervisor has left in
            // rotation (a quarantined one would refuse).
            if i >= 1_500 && drained.is_none() && daemon.router().eligible_count() > 1 {
                drained = (0..added).find(|&s| daemon.status(s) == MemberStatus::Active);
                if let Some(shard) = drained {
                    daemon.handle(DaemonEvent::DrainShard {
                        at_us,
                        shard,
                        handoff_window_us: 10_000,
                    });
                }
            }
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        let drained = drained.expect("some original member was in rotation to drain");
        let placed: Vec<HashSet<u64>> =
            placed.borrow().iter().map(|s| s.borrow().clone()).collect();
        let end = daemon.now_us();
        let mut named = Vec::new();
        let mut in_window = Vec::new();
        for (k, sink) in sinks.borrow().iter().enumerate() {
            sink.with(|recorder| {
                in_window.push(
                    recorder
                        .dumps()
                        .iter()
                        .map(|d| {
                            assert!(d.events.len() <= RECORDER_CAPACITY);
                            d.events
                                .iter()
                                .filter(|e| e.now_us() >> 16 == d.epoch)
                                .count()
                        })
                        .collect::<Vec<_>>(),
                );
                recorder.force_dump(end);
                assert!(
                    recorder
                        .dumps()
                        .iter()
                        .any(|d| d.anomaly == Anomaly::ShedBurst),
                    "member {k} must have shed its way to a dump"
                );
                for e in recorder.dumps().iter().flat_map(|d| d.events.iter()) {
                    let own = match e {
                        TraceEvent::Migrate { from_shard, .. }
                        | TraceEvent::Redirect { from_shard, .. } => from_shard as usize == k,
                        TraceEvent::Quarantine { shard, .. } | TraceEvent::Retune { shard, .. } => {
                            shard as usize == k
                        }
                        _ => e.req().is_none_or(|req| placed[k].contains(&req)),
                    };
                    assert!(own, "member {k}'s dump holds a neighbour's {e:?}");
                }
                if k == added {
                    named.extend(
                        recorder
                            .dumps()
                            .iter()
                            .flat_map(|d| d.events.iter().filter_map(|e| e.req())),
                    );
                }
            });
        }
        // Every held dump keeps its whole trigger window: these in-epoch
        // event counts are the same at 4096 and 65,536 events a member,
        // and a member's ring of 16 falls short of them.
        assert_eq!(
            in_window,
            [
                &[28, 19, 12][..],
                &[20, 31, 30, 15],
                &[24, 30, 29, 25],
                &[19, 16, 24, 18]
            ]
        );
        // The member added to a ring already in use sees none of what
        // was there before it.
        assert!(!named.is_empty());
        for (k, theirs) in placed.iter().enumerate().filter(|&(k, _)| k != added) {
            assert!(
                named.iter().all(|req| !theirs.contains(req)),
                "the newcomer's dumps name a request placed on member {k}"
            );
        }
        sinks.borrow_mut().clear();
        let report = daemon.shutdown();
        assert_eq!(report.statuses[drained], MemberStatus::Drained);
        assert_eq!(report.retunes, 1);
        assert!(report.quarantines > 0 && report.migrated > 0);
        // Most of the members' dumps are gone from their recorders by now
        // (3, 9, 9 and 34 taken on anomalies, plus the forced one each,
        // `obs::DUMP_RETENTION` kept), yet the supervisor saw each one
        // once: the strikes, the refusals and the placements that follow
        // from their timing are those of the supervisor that indexed an
        // unbounded dump list.
        let taken: Vec<u64> = report.recorders.iter().map(|r| r.dumps_total()).collect();
        assert_eq!(taken, [4, 10, 10, 35]);
        assert_eq!((report.quarantines, report.refused_events), (22, 33));
        assert_eq!(report.reroutes, 18_902);
        assert_eq!(report.routed_per_shard, [396, 648, 666, 18_290]);
        assert_eq!(report.dumps_missed, 0);
        report.ledger().expect("ledger closes");
        report.reconcile_events().expect("events reconcile");
        let emitted: u64 = report
            .recorders
            .iter()
            .map(|r| r.windows().cumulative().counters.total_events())
            .sum();
        assert!(
            emitted > 2 * 4 * RECORDER_CAPACITY as u64,
            "the shared ring must have wrapped: {emitted} events"
        );
    }

    #[test]
    fn retune_events_apply_live_and_reconcile() {
        use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
        let trace = vod(8, 300);
        let options = SimOptions::with_shape(1, 5);
        let cfg = DaemonConfig::new(
            FarmConfig::new(2).with_policy(RoutePolicy::HashStream),
            options,
        )
        .with_telemetry(TelemetryConfig::exact(), TriggerConfig::quiet());
        let mut daemon = FarmDaemon::new(
            cfg,
            |_, sink| {
                let cascade = CascadeConfig::paper_default(1, 3832)
                    .with_dispatch(DispatchConfig::paper_default().with_max_queue(64));
                Box::new(CascadedSfc::with_sink(cascade, sink).expect("valid cascade config"))
            },
            table1_services(),
        );
        for r in &trace[..150] {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        let t = trace[149].arrival_us;
        // Three knob retunes on shard 0, plus two refusals: an unknown
        // shard and a knob the value space rejects.
        for (i, knob) in [
            Retune::BalanceFactor(2.0),
            Retune::ScanPartitions(5),
            Retune::Window(0.3),
        ]
        .into_iter()
        .enumerate()
        {
            daemon.handle(DaemonEvent::Retune {
                at_us: t + i as u64,
                shard: 0,
                knob,
            });
        }
        daemon.handle(DaemonEvent::Retune {
            at_us: t + 10,
            shard: 9, // unknown shard
            knob: Retune::Window(0.5),
        });
        daemon.handle(DaemonEvent::Retune {
            at_us: t + 11,
            shard: 1,
            knob: Retune::ScanPartitions(0), // invalid R
        });
        for r in &trace[150..] {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        let report = daemon.shutdown();
        assert_eq!(report.retunes, 3);
        assert_eq!(report.refused_events, 2);
        report.ledger().expect("ledger closes across retunes");
        report.reconcile_events().expect("retune events reconcile");
        // The retune events live in the targeted members' recorders.
        let traced: u64 = report
            .recorders
            .iter()
            .map(|r| r.windows().cumulative().counters.retunes)
            .sum();
        assert_eq!(traced, 3);
    }

    #[test]
    fn time_regressing_events_are_refused_and_the_run_finishes() {
        let trace = vod(12, 300);
        let options = SimOptions::with_shape(1, 5).dropping();
        let cfg = DaemonConfig::new(FarmConfig::new(3), options);
        let mut daemon = FarmDaemon::new(cfg.clone(), fcfs_factory(), table1_services());
        let (head, tail) = trace.split_at(150);
        for r in head {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        let (now, arrivals) = (daemon.now_us(), daemon.arrivals());
        // One stale line of each kind: neither may move the clock, count
        // as an arrival, or take shard 1 out of rotation.
        daemon.handle(DaemonEvent::Arrival(head[10].clone()));
        daemon.handle(DaemonEvent::DrainShard {
            at_us: now - 1,
            shard: 1,
            handoff_window_us: 10_000,
        });
        assert_eq!(daemon.now_us(), now);
        assert_eq!(daemon.arrivals(), arrivals);
        assert_eq!(daemon.status(1), MemberStatus::Active);
        let report = daemon.run(tail.iter().cloned().map(DaemonEvent::Arrival));
        assert_eq!(report.refused_events, 2);
        assert_eq!(report.arrivals, 300);
        assert_eq!(report.migrated, 0);
        report.ledger().expect("ledger closes");
        report.reconcile_events().expect("events reconcile");
        // The refused lines left no trace: same outcome as never sent.
        let clean = FarmDaemon::new(cfg, fcfs_factory(), table1_services())
            .run(trace.iter().cloned().map(DaemonEvent::Arrival));
        assert_eq!(report.per_shard, clean.per_shard);
    }

    #[test]
    fn off_disk_arrivals_are_refused_and_the_run_finishes() {
        let trace = vod(12, 200);
        let cfg = DaemonConfig::new(FarmConfig::new(2), SimOptions::with_shape(1, 5).dropping());
        let mut daemon = FarmDaemon::new(cfg.clone(), fcfs_factory(), table1_services());
        let (head, tail) = trace.split_at(100);
        for r in head {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        let (now, arrivals) = (daemon.now_us(), daemon.arrivals());
        // Dispatched, this arrival would panic the disk model.
        let mut off_disk = tail[0].clone();
        off_disk.cylinder = 1_000_000;
        off_disk.arrival_us = now + 1;
        daemon.handle(DaemonEvent::Arrival(off_disk));
        assert_eq!(daemon.now_us(), now);
        assert_eq!(daemon.arrivals(), arrivals);
        let report = daemon.run(tail.iter().cloned().map(DaemonEvent::Arrival));
        assert_eq!(report.refused_events, 1);
        assert_eq!(report.arrivals, 200);
        report.ledger().expect("ledger closes");
        report.reconcile_events().expect("events reconcile");
        let clean = FarmDaemon::new(cfg, fcfs_factory(), table1_services())
            .run(trace.iter().cloned().map(DaemonEvent::Arrival));
        assert_eq!(report.per_shard, clean.per_shard);
    }

    /// Table-1 disks for shards 0 and 1, a 100-cylinder disk from shard 2
    /// on: short of the farm's 3832 cylinders.
    fn short_from_shard_2() -> impl FnMut(usize) -> DiskService {
        |shard| {
            if shard < 2 {
                return DiskService::table1();
            }
            let geometry = diskmodel::DiskGeometry::new(10, 512, 7200, vec![100], vec![130])
                .expect("valid geometry");
            DiskService::new(diskmodel::Disk::new(
                geometry,
                diskmodel::SeekModel::table1(),
            ))
        }
    }

    #[test]
    fn an_added_shard_on_a_short_disk_is_refused_and_the_run_finishes() {
        let trace = vod(12, 240);
        let cfg = DaemonConfig::new(FarmConfig::new(2), SimOptions::with_shape(1, 5));
        let mut daemon = FarmDaemon::new(cfg.clone(), fcfs_factory(), short_from_shard_2());
        let (head, tail) = trace.split_at(120);
        for r in head {
            daemon.handle(DaemonEvent::Arrival(r.clone()));
        }
        let capacity = daemon.ring.capacity();
        for at_us in [head[119].arrival_us, head[119].arrival_us + 1] {
            // Dispatched there, a request past cylinder 99 would panic the
            // disk model.
            daemon.handle(DaemonEvent::AddShard { at_us });
        }
        assert_eq!(daemon.shards(), 2);
        assert_eq!(daemon.router().shards(), 2);
        assert_eq!(daemon.ring.capacity(), capacity);
        let report = daemon.run(tail.iter().cloned().map(DaemonEvent::Arrival));
        assert_eq!(report.refused_events, 2);
        assert_eq!(report.arrivals, 240);
        report.ledger().expect("ledger closes");
        report.reconcile_events().expect("events reconcile");
        let clean = FarmDaemon::new(cfg, fcfs_factory(), table1_services())
            .run(trace.iter().cloned().map(DaemonEvent::Arrival));
        assert_eq!(report.per_shard, clean.per_shard);
    }

    #[test]
    #[should_panic(expected = "shard 2's disk has fewer cylinders")]
    fn a_short_initial_disk_is_a_configuration_error() {
        let cfg = DaemonConfig::new(FarmConfig::new(3), SimOptions::with_shape(1, 5));
        FarmDaemon::new(cfg, fcfs_factory(), short_from_shard_2());
    }

    #[test]
    fn a_finished_reports_recorders_count_each_members_routed_arrivals() {
        let cfg = DaemonConfig::new(FarmConfig::new(3), SimOptions::with_shape(1, 5));
        let report = FarmDaemon::new(cfg, fcfs_factory(), table1_services())
            .run(vod(12, 90).into_iter().map(DaemonEvent::Arrival));
        assert_eq!(report.recorders.len(), 3);
        assert_eq!(report.routed_per_shard.len(), 3);
        for (shard, (recorder, &routed)) in report
            .recorders
            .iter()
            .zip(&report.routed_per_shard)
            .enumerate()
        {
            let arrivals = recorder.windows().cumulative().counters.arrivals;
            assert_eq!(arrivals, routed, "shard {shard}");
        }
    }

    #[test]
    fn arrivals_at_the_end_of_time_are_served_there() {
        // Ten ordinary arrivals, then hostile ones 10 µs before the end of
        // time: each member's clock must saturate, not wrap into the past.
        let hostile = u64::MAX - 10;
        let mut trace = vod(4, 10);
        for i in 10..14 {
            let r = Request::read(i, hostile, u64::MAX, 7, 64 * 1024, QosVector::single(0));
            trace.push(r.with_stream(i));
        }
        let cfg = DaemonConfig::new(FarmConfig::new(2), SimOptions::with_shape(1, 5));
        let report = FarmDaemon::new(cfg, fcfs_factory(), table1_services())
            .run(trace.into_iter().map(DaemonEvent::Arrival));
        assert_eq!((report.arrivals, report.served()), (14, 14));
        assert!(report.makespan_us >= hostile, "{}", report.makespan_us);
        report.ledger().expect("ledger closes");
        report.reconcile_events().expect("events reconcile");
    }
}
