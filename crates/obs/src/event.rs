//! The event taxonomy: everything the scheduler stack can report about
//! one simulated run, as a flat enum of plain-data variants.
//!
//! Events carry only primitives so the crate stays dependency-free and
//! sinks can render them without reflection. Characterization values and
//! blocking windows are `u128` (the encapsulator's value space); they are
//! rendered as strings in JSON because they routinely exceed the 2⁵³
//! integer range JSON consumers can be trusted with.

use std::fmt::Write as _;

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
///   [`RequestFailed`](TraceEvent::RequestFailed),
///   [`SectorRemap`](TraceEvent::SectorRemap),
///   [`DegradedRead`](TraceEvent::DegradedRead) and
///   [`RebuildIo`](TraceEvent::RebuildIo);
/// * the **farm router** emits [`Redirect`](TraceEvent::Redirect) and,
///   once per shard timeline, [`ShardReport`](TraceEvent::ShardReport);
/// * the **farm daemon** emits [`Migrate`](TraceEvent::Migrate) when a
///   drained shard hands off a resident request,
///   [`Quarantine`](TraceEvent::Quarantine) when the health supervisor
///   (or an operator) pulls a shard out of the routing pool, and
///   [`Retune`](TraceEvent::Retune) when the control plane applies a
///   live knob or policy change at a safe epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A request reached the scheduler queue.
    Arrival {
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
    ServiceStart {
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
    ServiceComplete {
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
    Drop {
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
    Preempt {
        /// Simulation time (µs).
        now_us: u64,
        /// Characterization value of the in-service request.
        preempted_v: u128,
        /// Characterization value of the preempting arrival.
        by_v: u128,
    },
    /// SP promoted a waiting request into the active queue (§3.2).
    SpPromote {
        /// Simulation time (µs).
        now_us: u64,
        /// Characterization value of the promoted request.
        v: u128,
    },
    /// ER expanded the blocking window after a preemption or promotion
    /// (§3.3).
    ErExpand {
        /// Simulation time (µs).
        now_us: u64,
        /// The window after expansion.
        window: u128,
    },
    /// ER reset an expanded window at a queue swap (§3.3).
    ErReset {
        /// Simulation time (µs).
        now_us: u64,
        /// The base window restored.
        window: u128,
    },
    /// The active queue drained and swapped with the waiting queue.
    QueueSwap {
        /// Simulation time (µs).
        now_us: u64,
        /// Size of the batch entering service.
        batch: u64,
    },
    /// An elevator policy reversed (SCAN/SCAN-EDF) or flew back (C-SCAN).
    SweepReverse {
        /// Simulation time (µs).
        now_us: u64,
        /// Head cylinder at the reversal.
        cylinder: u32,
    },
    /// A service attempt failed with a media error (transient CRC error,
    /// or an access to a dead member); the engine's retry policy decides
    /// what happens next.
    MediaError {
        /// Simulation time (µs).
        now_us: u64,
        /// Request id.
        req: u64,
        /// Which attempt failed (1 = first service).
        attempt: u32,
        /// `true` for a transient (retryable) error, `false` for an
        /// access to a dead member.
        transient: bool,
    },
    /// The engine retries a failed attempt within its deadline budget.
    Retry {
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
    RequestFailed {
        /// Simulation time (µs).
        now_us: u64,
        /// Request id.
        req: u64,
        /// Total attempts made.
        attempts: u32,
    },
    /// A latent bad sector was remapped to a spare track; the service
    /// succeeded after paying the relocation penalty.
    SectorRemap {
        /// Simulation time (µs).
        now_us: u64,
        /// Request id.
        req: u64,
        /// Relocation penalty charged (µs).
        penalty_us: u64,
    },
    /// A read was served in degraded mode: the data member is dead and
    /// the block was reconstructed from the surviving members' parity.
    DegradedRead {
        /// Simulation time (µs).
        now_us: u64,
        /// Request id.
        req: u64,
        /// The dead member reconstructed around.
        failed_member: u32,
    },
    /// One background rebuild I/O competed with foreground service.
    RebuildIo {
        /// Simulation time (µs).
        now_us: u64,
        /// Stripe reconstructed onto the spare.
        stripe: u64,
        /// Member bandwidth the step consumed (µs).
        service_us: u64,
    },
    /// Bounded-queue overload shedding dropped the lowest-priority
    /// pending victim.
    Shed {
        /// Simulation time (µs).
        now_us: u64,
        /// Request id of the victim.
        req: u64,
        /// The victim's characterization value (the queue's worst).
        v: u128,
    },
    /// The farm router steered an arrival away from its policy-chosen
    /// shard because that shard's bounded queue was projected full.
    Redirect {
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
    /// Per-shard roll-up emitted when a farm shard finishes its timeline.
    ShardReport {
        /// The shard's makespan (µs).
        now_us: u64,
        /// Shard index within the farm.
        shard: u32,
        /// Requests the shard served to completion.
        served: u64,
        /// Requests the shard's bounded queue shed.
        sheds: u64,
    },
    /// A drained shard's bounded in-flight handoff window closed with
    /// this request still resident; the daemon hands it off to a peer and
    /// retires it from the farm's ledger as migrated-in-flight.
    Migrate {
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
    Quarantine {
        /// Quarantine decision time (µs).
        now_us: u64,
        /// The quarantined shard.
        shard: u32,
        /// Earliest re-probe time (µs): decision time plus the
        /// strike-scaled, jittered cooldown.
        until_us: u64,
    },
    /// The control plane retuned a shard at a safe epoch boundary: a
    /// scheduler knob changed live, or the farm swapped routing policy.
    Retune {
        /// Retune application time (µs).
        now_us: u64,
        /// The retuned shard (for policy swaps: the shard whose recorder
        /// logs the farm-wide change).
        shard: u32,
        /// Which knob changed: 0 = balance factor `f`, 1 = scan
        /// partitions `R`, 2 = blocking window `w`, 3 = routing policy.
        knob: u32,
    },
}

impl TraceEvent {
    /// Stable `snake_case` name of the variant, used as the `event` field
    /// in JSONL/CSV renderings.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::ServiceStart { .. } => "service_start",
            TraceEvent::ServiceComplete { .. } => "service_complete",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Preempt { .. } => "preempt",
            TraceEvent::SpPromote { .. } => "sp_promote",
            TraceEvent::ErExpand { .. } => "er_expand",
            TraceEvent::ErReset { .. } => "er_reset",
            TraceEvent::QueueSwap { .. } => "queue_swap",
            TraceEvent::SweepReverse { .. } => "sweep_reverse",
            TraceEvent::MediaError { .. } => "media_error",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::RequestFailed { .. } => "request_failed",
            TraceEvent::SectorRemap { .. } => "sector_remap",
            TraceEvent::DegradedRead { .. } => "degraded_read",
            TraceEvent::RebuildIo { .. } => "rebuild_io",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::Redirect { .. } => "redirect",
            TraceEvent::ShardReport { .. } => "shard_report",
            TraceEvent::Migrate { .. } => "migrate",
            TraceEvent::Quarantine { .. } => "quarantine",
            TraceEvent::Retune { .. } => "retune",
        }
    }

    /// The simulation time the event carries (µs).
    #[inline(always)]
    pub fn now_us(&self) -> u64 {
        match *self {
            TraceEvent::Arrival { now_us, .. }
            | TraceEvent::ServiceStart { now_us, .. }
            | TraceEvent::ServiceComplete { now_us, .. }
            | TraceEvent::Drop { now_us, .. }
            | TraceEvent::Preempt { now_us, .. }
            | TraceEvent::SpPromote { now_us, .. }
            | TraceEvent::ErExpand { now_us, .. }
            | TraceEvent::ErReset { now_us, .. }
            | TraceEvent::QueueSwap { now_us, .. }
            | TraceEvent::SweepReverse { now_us, .. }
            | TraceEvent::MediaError { now_us, .. }
            | TraceEvent::Retry { now_us, .. }
            | TraceEvent::RequestFailed { now_us, .. }
            | TraceEvent::SectorRemap { now_us, .. }
            | TraceEvent::DegradedRead { now_us, .. }
            | TraceEvent::RebuildIo { now_us, .. }
            | TraceEvent::Shed { now_us, .. }
            | TraceEvent::Redirect { now_us, .. }
            | TraceEvent::ShardReport { now_us, .. }
            | TraceEvent::Migrate { now_us, .. }
            | TraceEvent::Quarantine { now_us, .. }
            | TraceEvent::Retune { now_us, .. } => now_us,
        }
    }

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
            | TraceEvent::DegradedRead { req, .. }
            | TraceEvent::Shed { req, .. }
            | TraceEvent::Redirect { req, .. }
            | TraceEvent::Migrate { req, .. } => Some(req),
            _ => None,
        }
    }

    /// Append the event as one JSON object (no trailing newline).
    ///
    /// `u128` fields are emitted as strings; everything else as JSON
    /// numbers/booleans.
    pub fn write_json(&self, out: &mut String) {
        let name = self.name();
        match *self {
            TraceEvent::Arrival {
                now_us,
                req,
                cylinder,
                deadline_us,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\
                     \"cylinder\":{cylinder},\"deadline_us\":{deadline_us}}}"
                );
            }
            TraceEvent::ServiceStart {
                now_us,
                req,
                cylinder,
                seek_cylinders,
                queue_depth,
                slack_us,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\
                     \"cylinder\":{cylinder},\"seek_cylinders\":{seek_cylinders},\
                     \"queue_depth\":{queue_depth},\"slack_us\":{slack_us}}}"
                );
            }
            TraceEvent::ServiceComplete {
                now_us,
                req,
                response_us,
                late,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\
                     \"response_us\":{response_us},\"late\":{late}}}"
                );
            }
            TraceEvent::Drop {
                now_us,
                req,
                missed_by_us,
                queue_depth,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\
                     \"missed_by_us\":{missed_by_us},\"queue_depth\":{queue_depth}}}"
                );
            }
            TraceEvent::Preempt {
                now_us,
                preempted_v,
                by_v,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\
                     \"preempted_v\":\"{preempted_v}\",\"by_v\":\"{by_v}\"}}"
                );
            }
            TraceEvent::SpPromote { now_us, v } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"v\":\"{v}\"}}"
                );
            }
            TraceEvent::ErExpand { now_us, window } | TraceEvent::ErReset { now_us, window } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"window\":\"{window}\"}}"
                );
            }
            TraceEvent::QueueSwap { now_us, batch } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"batch\":{batch}}}"
                );
            }
            TraceEvent::SweepReverse { now_us, cylinder } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"cylinder\":{cylinder}}}"
                );
            }
            TraceEvent::MediaError {
                now_us,
                req,
                attempt,
                transient,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\
                     \"attempt\":{attempt},\"transient\":{transient}}}"
                );
            }
            TraceEvent::Retry {
                now_us,
                req,
                attempt,
                slack_us,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\
                     \"attempt\":{attempt},\"slack_us\":{slack_us}}}"
                );
            }
            TraceEvent::RequestFailed {
                now_us,
                req,
                attempts,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\
                     \"attempts\":{attempts}}}"
                );
            }
            TraceEvent::SectorRemap {
                now_us,
                req,
                penalty_us,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\
                     \"penalty_us\":{penalty_us}}}"
                );
            }
            TraceEvent::DegradedRead {
                now_us,
                req,
                failed_member,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\
                     \"failed_member\":{failed_member}}}"
                );
            }
            TraceEvent::RebuildIo {
                now_us,
                stripe,
                service_us,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"stripe\":{stripe},\
                     \"service_us\":{service_us}}}"
                );
            }
            TraceEvent::Shed { now_us, req, v } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\"v\":\"{v}\"}}"
                );
            }
            TraceEvent::Redirect {
                now_us,
                req,
                from_shard,
                to_shard,
                queue_depth,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\
                     \"from_shard\":{from_shard},\"to_shard\":{to_shard},\
                     \"queue_depth\":{queue_depth}}}"
                );
            }
            TraceEvent::ShardReport {
                now_us,
                shard,
                served,
                sheds,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"shard\":{shard},\
                     \"served\":{served},\"sheds\":{sheds}}}"
                );
            }
            TraceEvent::Migrate {
                now_us,
                req,
                from_shard,
                to_shard,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"req\":{req},\
                     \"from_shard\":{from_shard},\"to_shard\":{to_shard}}}"
                );
            }
            TraceEvent::Quarantine {
                now_us,
                shard,
                until_us,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"shard\":{shard},\
                     \"until_us\":{until_us}}}"
                );
            }
            TraceEvent::Retune {
                now_us,
                shard,
                knob,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"{name}\",\"now_us\":{now_us},\"shard\":{shard},\
                     \"knob\":{knob}}}"
                );
            }
        }
    }

    /// The CSV header matching [`TraceEvent::write_csv`].
    pub fn csv_header() -> &'static str {
        "event,now_us,req,cylinder,a,b"
    }

    /// Append the event as one CSV row (no trailing newline).
    ///
    /// The `a`/`b` columns are event-specific: `deadline_us` (arrival),
    /// `seek_cylinders`/`queue_depth` (service start; its `slack_us` is the
    /// request's arrival-row `deadline_us` minus `now_us`),
    /// `response_us`/`late` (service complete), `missed_by_us`/`queue_depth`
    /// (drop), `preempted_v`/`by_v` (preempt), `v` (sp_promote), `window`
    /// (er_expand/er_reset), `batch` (queue_swap), `attempt`/`transient`
    /// (media_error), `attempt`/`slack_us` (retry), `attempts`
    /// (request_failed), `penalty_us` (sector_remap), `failed_member`
    /// (degraded_read), `stripe`/`service_us` (rebuild_io), `v` (shed),
    /// `to_shard`/`queue_depth` (redirect, with `from_shard` in the
    /// `cylinder` column), `served`/`sheds` (shard_report, with the shard
    /// index in the `cylinder` column), `to_shard` (migrate, with
    /// `from_shard` in the `cylinder` column), `until_us` (quarantine,
    /// with the shard index in the `cylinder` column), the knob index
    /// (retune, with the shard index in the `cylinder` column). Unused
    /// cells are empty.
    pub fn write_csv(&self, out: &mut String) {
        let name = self.name();
        let now = self.now_us();
        match *self {
            TraceEvent::Arrival {
                req,
                cylinder,
                deadline_us,
                ..
            } => {
                let _ = write!(out, "{name},{now},{req},{cylinder},{deadline_us},");
            }
            TraceEvent::ServiceStart {
                req,
                cylinder,
                seek_cylinders,
                queue_depth,
                ..
            } => {
                let _ = write!(
                    out,
                    "{name},{now},{req},{cylinder},{seek_cylinders},{queue_depth}"
                );
            }
            TraceEvent::ServiceComplete {
                req,
                response_us,
                late,
                ..
            } => {
                let _ = write!(out, "{name},{now},{req},,{response_us},{}", u8::from(late));
            }
            TraceEvent::Drop {
                req,
                missed_by_us,
                queue_depth,
                ..
            } => {
                let _ = write!(out, "{name},{now},{req},,{missed_by_us},{queue_depth}");
            }
            TraceEvent::Preempt {
                preempted_v, by_v, ..
            } => {
                let _ = write!(out, "{name},{now},,,{preempted_v},{by_v}");
            }
            TraceEvent::SpPromote { v, .. } => {
                let _ = write!(out, "{name},{now},,,{v},");
            }
            TraceEvent::ErExpand { window, .. } | TraceEvent::ErReset { window, .. } => {
                let _ = write!(out, "{name},{now},,,{window},");
            }
            TraceEvent::QueueSwap { batch, .. } => {
                let _ = write!(out, "{name},{now},,,{batch},");
            }
            TraceEvent::SweepReverse { cylinder, .. } => {
                let _ = write!(out, "{name},{now},,{cylinder},,");
            }
            TraceEvent::MediaError {
                req,
                attempt,
                transient,
                ..
            } => {
                let _ = write!(out, "{name},{now},{req},,{attempt},{}", u8::from(transient));
            }
            TraceEvent::Retry {
                req,
                attempt,
                slack_us,
                ..
            } => {
                let _ = write!(out, "{name},{now},{req},,{attempt},{slack_us}");
            }
            TraceEvent::RequestFailed { req, attempts, .. } => {
                let _ = write!(out, "{name},{now},{req},,{attempts},");
            }
            TraceEvent::SectorRemap {
                req, penalty_us, ..
            } => {
                let _ = write!(out, "{name},{now},{req},,{penalty_us},");
            }
            TraceEvent::DegradedRead {
                req, failed_member, ..
            } => {
                let _ = write!(out, "{name},{now},{req},,{failed_member},");
            }
            TraceEvent::RebuildIo {
                stripe, service_us, ..
            } => {
                let _ = write!(out, "{name},{now},,,{stripe},{service_us}");
            }
            TraceEvent::Shed { req, v, .. } => {
                let _ = write!(out, "{name},{now},{req},,{v},");
            }
            TraceEvent::Redirect {
                req,
                from_shard,
                to_shard,
                queue_depth,
                ..
            } => {
                let _ = write!(
                    out,
                    "{name},{now},{req},{from_shard},{to_shard},{queue_depth}"
                );
            }
            TraceEvent::ShardReport {
                shard,
                served,
                sheds,
                ..
            } => {
                let _ = write!(out, "{name},{now},,{shard},{served},{sheds}");
            }
            TraceEvent::Migrate {
                req,
                from_shard,
                to_shard,
                ..
            } => {
                let _ = write!(out, "{name},{now},{req},{from_shard},{to_shard},");
            }
            TraceEvent::Quarantine {
                shard, until_us, ..
            } => {
                let _ = write!(out, "{name},{now},,{shard},{until_us},");
            }
            TraceEvent::Retune { shard, knob, .. } => {
                let _ = write!(out, "{name},{now},,{shard},{knob},");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_snake_case() {
        let e = TraceEvent::SpPromote { now_us: 1, v: 2 };
        assert_eq!(e.name(), "sp_promote");
        assert_eq!(e.now_us(), 1);
        assert_eq!(e.req(), None);
    }

    #[test]
    fn json_rendering_is_one_object() {
        let mut s = String::new();
        TraceEvent::ServiceStart {
            now_us: 10,
            req: 3,
            cylinder: 77,
            seek_cylinders: 12,
            queue_depth: 4,
            slack_us: -5,
        }
        .write_json(&mut s);
        assert_eq!(
            s,
            "{\"event\":\"service_start\",\"now_us\":10,\"req\":3,\
             \"cylinder\":77,\"seek_cylinders\":12,\"queue_depth\":4,\"slack_us\":-5}"
        );
    }

    #[test]
    fn big_values_render_as_strings_in_json() {
        let mut s = String::new();
        TraceEvent::Preempt {
            now_us: 0,
            preempted_v: u128::MAX,
            by_v: 7,
        }
        .write_json(&mut s);
        assert!(s.contains(&format!("\"{}\"", u128::MAX)));
        assert!(s.contains("\"by_v\":\"7\""));
    }

    #[test]
    fn csv_rows_match_the_header_width() {
        let header_cols = TraceEvent::csv_header().split(',').count();
        let events = [
            TraceEvent::Arrival {
                now_us: 0,
                req: 1,
                cylinder: 2,
                deadline_us: 3,
            },
            TraceEvent::ServiceStart {
                now_us: 1,
                req: 1,
                cylinder: 2,
                seek_cylinders: 2,
                queue_depth: 1,
                slack_us: 2,
            },
            TraceEvent::Drop {
                now_us: 4,
                req: 2,
                missed_by_us: 1,
                queue_depth: 3,
            },
            TraceEvent::ServiceComplete {
                now_us: 9,
                req: 1,
                response_us: 9,
                late: true,
            },
            TraceEvent::QueueSwap {
                now_us: 5,
                batch: 2,
            },
            TraceEvent::SweepReverse {
                now_us: 6,
                cylinder: 30,
            },
            TraceEvent::Redirect {
                now_us: 7,
                req: 4,
                from_shard: 0,
                to_shard: 2,
                queue_depth: 16,
            },
            TraceEvent::ShardReport {
                now_us: 8,
                shard: 2,
                served: 100,
                sheds: 3,
            },
            TraceEvent::Migrate {
                now_us: 9,
                req: 5,
                from_shard: 1,
                to_shard: 0,
            },
            TraceEvent::Quarantine {
                now_us: 10,
                shard: 2,
                until_us: 90,
            },
            TraceEvent::Retune {
                now_us: 11,
                shard: 1,
                knob: 0,
            },
        ];
        for e in events {
            let mut s = String::new();
            e.write_csv(&mut s);
            assert_eq!(s.split(',').count(), header_cols, "row {s}");
        }
    }
}
