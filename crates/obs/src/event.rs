//! The event taxonomy: everything the scheduler stack can report about
//! one simulated run, as a flat enum of plain-data variants.
//!
//! Events carry only primitives so the crate stays dependency-free.
//! One table below declares every variant with its stable `snake_case`
//! name and its fields, and generates the enum, [`TraceEvent::name`] and
//! [`TraceEvent::now_us`]. A new event kind is one row there, one row in
//! the [`crate::Counters`] table, and an arm in [`TraceEvent::req`] and
//! [`crate::Snapshot::emit_sampled`], the hand-written exhaustive matches
//! the compiler holds to the table. Characterization values and blocking
//! windows are `u128`, the encapsulator's value space.

/// Generates [`TraceEvent`] and its per-variant methods from one row per
/// variant: `Variant "snake_name" { field: ty, … }`. Every variant must
/// have a `now_us: u64` field.
macro_rules! event_table {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $name:literal {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: $ty, )* },
            )*
        }

        impl TraceEvent {
            /// Stable `snake_case` name of the variant.
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $name, )*
                }
            }

            /// The simulation time the event carries (µs).
            #[inline(always)]
            pub fn now_us(&self) -> u64 {
                match *self {
                    $( TraceEvent::$variant { now_us, .. } )|* => now_us,
                }
            }

        }
    };
}

event_table! {
    /// One observable event in the life of the scheduler stack.
    ///
    /// Emission points, by layer:
    ///
    /// * the **simulation engine** emits [`Arrival`](TraceEvent::Arrival),
    ///   then, at the dispatch instant, exactly one of
    ///   [`ServiceStart`](TraceEvent::ServiceStart) and
    ///   [`Drop`](TraceEvent::Drop) per dequeued request (each carries the
    ///   queue depth it was picked from), and
    ///   [`ServiceComplete`](TraceEvent::ServiceComplete) when a started
    ///   service succeeds;
    /// * the **cascade dispatcher** emits [`Preempt`](TraceEvent::Preempt),
    ///   [`SpPromote`](TraceEvent::SpPromote),
    ///   [`ErExpand`](TraceEvent::ErExpand),
    ///   [`ErReset`](TraceEvent::ErReset),
    ///   [`QueueSwap`](TraceEvent::QueueSwap) and, under bounded-queue
    ///   overload shedding, [`Shed`](TraceEvent::Shed);
    /// * the **elevator baselines** emit
    ///   [`SweepReverse`](TraceEvent::SweepReverse);
    /// * the **fault-injection path** emits
    ///   [`MediaError`](TraceEvent::MediaError),
    ///   [`Retry`](TraceEvent::Retry),
    ///   [`RequestFailed`](TraceEvent::RequestFailed) and
    ///   [`SectorRemap`](TraceEvent::SectorRemap);
    /// * the **farm router** emits [`Redirect`](TraceEvent::Redirect);
    /// * the **farm daemon** emits [`Migrate`](TraceEvent::Migrate) when a
    ///   drained shard hands off a resident request,
    ///   [`Quarantine`](TraceEvent::Quarantine) when the health supervisor
    ///   (or an operator) pulls a shard out of the routing pool, and
    ///   [`Retune`](TraceEvent::Retune) when the control plane changes a
    ///   scheduler knob live at a safe epoch boundary.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TraceEvent {
        /// A request reached the scheduler queue.
        Arrival "arrival" {
            /// Simulation time (µs).
            now_us: u64,
            /// Request id.
            req: u64,
            /// Target cylinder.
            cylinder: u32,
            /// Absolute deadline (µs); `u64::MAX` when none.
            deadline_us: u64,
        },
        /// The scheduler dispatched a request and the disk began serving it.
        ServiceStart "service_start" {
            /// Simulation time (µs): the dispatch instant.
            now_us: u64,
            /// Request id.
            req: u64,
            /// Target cylinder.
            cylinder: u32,
            /// Seek distance from the head position (cylinders).
            seek_cylinders: u32,
            /// Pending requests at the dispatch instant (the dispatched one
            /// included).
            queue_depth: u64,
            /// Deadline minus now at dispatch (µs); negative when already
            /// past due. Saturated at the `i64` range.
            slack_us: i64,
        },
        /// The disk finished serving a request.
        ServiceComplete "service_complete" {
            /// Simulation time (µs).
            now_us: u64,
            /// Request id.
            req: u64,
            /// Completion minus arrival (µs).
            response_us: u64,
            /// Whether the deadline had passed at completion.
            late: bool,
        },
        /// The scheduler dispatched a past-due request and the engine dropped
        /// it unserved (§6 losses). Its slack at dispatch is `−missed_by_us`.
        Drop "drop" {
            /// Simulation time (µs): the dispatch instant.
            now_us: u64,
            /// Request id.
            req: u64,
            /// How far past the deadline the drop happened (µs).
            missed_by_us: u64,
            /// Pending requests at the dispatch instant (the dropped one
            /// included).
            queue_depth: u64,
        },
        /// A conditional-mode arrival beat the in-service value by more than
        /// the blocking window and entered the active queue (§3.1).
        Preempt "preempt" {
            /// Simulation time (µs).
            now_us: u64,
            /// Characterization value of the in-service request.
            preempted_v: u128,
            /// Characterization value of the preempting arrival.
            by_v: u128,
        },
        /// SP promoted a waiting request into the active queue (§3.2).
        SpPromote "sp_promote" {
            /// Simulation time (µs).
            now_us: u64,
            /// Characterization value of the promoted request.
            v: u128,
        },
        /// ER expanded the blocking window after a preemption or promotion
        /// (§3.3).
        ErExpand "er_expand" {
            /// Simulation time (µs).
            now_us: u64,
            /// The window after expansion.
            window: u128,
        },
        /// ER reset an expanded window at a queue swap (§3.3).
        ErReset "er_reset" {
            /// Simulation time (µs).
            now_us: u64,
            /// The base window restored.
            window: u128,
        },
        /// The active queue drained and swapped with the waiting queue.
        QueueSwap "queue_swap" {
            /// Simulation time (µs).
            now_us: u64,
            /// Size of the batch entering service.
            batch: u64,
        },
        /// An elevator policy reversed (SCAN/SCAN-EDF) or flew back (C-SCAN).
        SweepReverse "sweep_reverse" {
            /// Simulation time (µs).
            now_us: u64,
            /// Head cylinder at the reversal.
            cylinder: u32,
        },
        /// A service attempt failed with a transient media error (the
        /// sector was unreadable on this revolution); the engine's retry
        /// policy decides what happens next.
        MediaError "media_error" {
            /// Simulation time (µs).
            now_us: u64,
            /// Request id.
            req: u64,
            /// Which attempt failed (1 = first service).
            attempt: u32,
        },
        /// The engine retries a failed attempt within its deadline budget.
        Retry "retry" {
            /// Simulation time (µs).
            now_us: u64,
            /// Request id.
            req: u64,
            /// The attempt about to start (2 = first retry).
            attempt: u32,
            /// Deadline minus now at the retry decision (µs); never negative —
            /// the policy forbids retrying past the deadline. Saturated at the
            /// `i64` range.
            slack_us: i64,
        },
        /// The retry budget was exhausted (or the deadline passed): the
        /// request is lost without completing.
        RequestFailed "request_failed" {
            /// Simulation time (µs).
            now_us: u64,
            /// Request id.
            req: u64,
            /// Total attempts made.
            attempts: u32,
        },
        /// A latent bad sector was remapped to a spare track; the service
        /// succeeded after paying the relocation penalty.
        SectorRemap "sector_remap" {
            /// Simulation time (µs).
            now_us: u64,
            /// Request id.
            req: u64,
            /// Relocation penalty charged (µs).
            penalty_us: u64,
        },
        /// Bounded-queue overload shedding dropped the lowest-priority
        /// pending victim.
        Shed "shed" {
            /// Simulation time (µs).
            now_us: u64,
            /// Request id of the victim.
            req: u64,
            /// The victim's characterization value (the queue's worst).
            v: u128,
        },
        /// The farm router steered an arrival away from its policy-chosen
        /// shard because that shard's bounded queue was projected full.
        Redirect "redirect" {
            /// Arrival time (µs).
            now_us: u64,
            /// Request id.
            req: u64,
            /// Shard the routing policy picked first.
            from_shard: u32,
            /// Shard the request was redirected to.
            to_shard: u32,
            /// Modeled queue depth of the overloaded shard at the decision.
            queue_depth: u64,
        },
        /// A drained shard's bounded in-flight handoff window closed with
        /// this request still resident; the daemon hands it off to a peer and
        /// retires it from the farm's ledger as migrated-in-flight.
        Migrate "migrate" {
            /// Handoff-window close time (µs).
            now_us: u64,
            /// Request id.
            req: u64,
            /// The shard being drained.
            from_shard: u32,
            /// The designated handoff target (least-loaded eligible shard).
            to_shard: u32,
        },
        /// The health supervisor (or an operator event) quarantined a shard:
        /// new arrivals are routed around it until the cooldown expires.
        Quarantine "quarantine" {
            /// Quarantine decision time (µs).
            now_us: u64,
            /// The quarantined shard.
            shard: u32,
            /// Earliest re-probe time (µs): decision time plus the
            /// strike-scaled, jittered cooldown.
            until_us: u64,
        },
        /// The control plane changed a scheduler knob live at a safe
        /// epoch boundary.
        Retune "retune" {
            /// Retune application time (µs).
            now_us: u64,
            /// The retuned shard.
            shard: u32,
            /// Which knob changed (`sched::Retune::knob_index`): 0 =
            /// balance factor `f`, 1 = scan partitions `R`, 2 = blocking
            /// window `w`.
            knob: u32,
        },
    }
}

impl TraceEvent {
    /// The request id the event concerns, when it concerns one.
    pub fn req(&self) -> Option<u64> {
        match *self {
            TraceEvent::Arrival { req, .. }
            | TraceEvent::ServiceStart { req, .. }
            | TraceEvent::ServiceComplete { req, .. }
            | TraceEvent::Drop { req, .. }
            | TraceEvent::MediaError { req, .. }
            | TraceEvent::Retry { req, .. }
            | TraceEvent::RequestFailed { req, .. }
            | TraceEvent::SectorRemap { req, .. }
            | TraceEvent::Shed { req, .. }
            | TraceEvent::Redirect { req, .. }
            | TraceEvent::Migrate { req, .. } => Some(req),
            TraceEvent::Preempt { .. }
            | TraceEvent::SpPromote { .. }
            | TraceEvent::ErExpand { .. }
            | TraceEvent::ErReset { .. }
            | TraceEvent::QueueSwap { .. }
            | TraceEvent::SweepReverse { .. }
            | TraceEvent::Quarantine { .. }
            | TraceEvent::Retune { .. } => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One event of every kind, with its request id: the `req` contract,
    /// and the `Snapshot` tests' "every kind" feed.
    pub(crate) const GOLDEN: [(TraceEvent, Option<u64>); 19] = [
        (
            TraceEvent::Arrival {
                now_us: 0,
                req: 1,
                cylinder: 5,
                deadline_us: u64::MAX,
            },
            Some(1),
        ),
        (
            TraceEvent::ServiceStart {
                now_us: 10,
                req: 1,
                cylinder: 5,
                seek_cylinders: 40,
                queue_depth: 3,
                slack_us: -7,
            },
            Some(1),
        ),
        (
            TraceEvent::ServiceComplete {
                now_us: 30,
                req: 1,
                response_us: 30,
                late: true,
            },
            Some(1),
        ),
        (
            TraceEvent::Drop {
                now_us: 50,
                req: 2,
                missed_by_us: 6,
                queue_depth: 3,
            },
            Some(2),
        ),
        (
            TraceEvent::Preempt {
                now_us: 31,
                preempted_v: u128::MAX,
                by_v: 2,
            },
            None,
        ),
        (TraceEvent::SpPromote { now_us: 41, v: 3 }, None),
        (
            TraceEvent::ErExpand {
                now_us: 31,
                window: 8,
            },
            None,
        ),
        (
            TraceEvent::ErReset {
                now_us: 40,
                window: 4,
            },
            None,
        ),
        (
            TraceEvent::QueueSwap {
                now_us: 40,
                batch: 2,
            },
            None,
        ),
        (
            TraceEvent::SweepReverse {
                now_us: 60,
                cylinder: 5,
            },
            None,
        ),
        (
            TraceEvent::MediaError {
                now_us: 70,
                req: 3,
                attempt: 1,
            },
            Some(3),
        ),
        (
            TraceEvent::Retry {
                now_us: 71,
                req: 3,
                attempt: 2,
                slack_us: 12,
            },
            Some(3),
        ),
        (
            TraceEvent::RequestFailed {
                now_us: 80,
                req: 3,
                attempts: 2,
            },
            Some(3),
        ),
        (
            TraceEvent::SectorRemap {
                now_us: 81,
                req: 4,
                penalty_us: 5_000,
            },
            Some(4),
        ),
        (
            TraceEvent::Shed {
                now_us: 84,
                req: 6,
                v: 77,
            },
            Some(6),
        ),
        (
            TraceEvent::Redirect {
                now_us: 85,
                req: 7,
                from_shard: 0,
                to_shard: 3,
                queue_depth: 16,
            },
            Some(7),
        ),
        (
            TraceEvent::Migrate {
                now_us: 86,
                req: 8,
                from_shard: 1,
                to_shard: 2,
            },
            Some(8),
        ),
        (
            TraceEvent::Quarantine {
                now_us: 87,
                shard: 2,
                until_us: 187,
            },
            None,
        ),
        (
            TraceEvent::Retune {
                now_us: 88,
                shard: 1,
                knob: 2,
            },
            None,
        ),
    ];

    #[test]
    fn every_kind_reports_its_request() {
        let mut names = Vec::new();
        for (e, req) in GOLDEN {
            assert_eq!(e.req(), req, "{}", e.name());
            names.push(e.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GOLDEN.len(), "one event of each kind");
    }

    #[test]
    fn names_are_stable_snake_case() {
        let e = TraceEvent::SpPromote { now_us: 1, v: 2 };
        assert_eq!(e.name(), "sp_promote");
        assert_eq!(e.now_us(), 1);
        assert_eq!(e.req(), None);
    }
}
