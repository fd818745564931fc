//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound — the single place
//! `BENCHMARK.json`, the printed output and `--compare` agree on.

use std::fmt::Write as _;

use crate::json::{self, Json};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End to end: the share of the baseline median by which the metric
    /// may worsen before a change counts as a regression. Per layer: 0.
    pub bound: f64,
    /// Simulated-time metrics repeat exactly for a given seed; `--compare`
    /// demands equality for them, not the bound.
    pub simulated: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        simulated: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        simulated: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    host(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// The 11 end-to-end metrics; every workload reports all of them.
///
/// The bounds gate a *change* against its parent on the same seeds. They
/// are also what the acceptance procedure holds the benchmark's own
/// steadiness to, across ten different seeds — so each simulated metric's
/// bound is wide enough for its seed-to-seed spread on the least steady
/// workload, although for one seed the value repeats exactly.
pub const END_TO_END: [Def; 11] = [
    host("cost_ratio", "x", Lower, 0.25),
    host("peak_rss_mb", "MB", Lower, 0.25),
    host("setup_s", "s", Lower, 0.25),
    sim("loss_ratio", "share", Lower, 0.25),
    sim("sim_goodput_rps", "req/s", Higher, 0.05),
    sim("sim_resp_mean_ms", "ms", Lower, 0.10),
    sim("sim_resp_p50_ms", "ms", Lower, 0.15),
    sim("sim_resp_p999_ms", "ms", Lower, 0.12),
    sim("sim_resp_max_ms", "ms", Lower, 0.08),
    sim("seek_ms_per_served", "ms", Lower, 0.12),
    sim("inversions_per_served", "count", Lower, 0.20),
];

/// The per-layer metrics of the traced pass. A layer that does not run on
/// a workload (the controller outside `surge`, the scaling curve outside
/// `wide`) reports 0.
pub const PER_LAYER: [Def; 75] = [
    // host: explains cost_ratio.
    layer("host.ns_per_req", "ns", Lower),
    layer("host.reqs_per_s", "req/s", Higher),
    layer("host.ref_ns_per_op", "ns", Lower),
    layer("host.rep_spread", "share", Lower),
    layer("host.trace_overhead", "x", Lower),
    layer("host.nproc", "count", Higher),
    layer("alloc.count_per_req", "count", Lower),
    layer("alloc.bytes_per_req", "B", Lower),
    // The traced pass itself.
    layer("trace.total_ns_per_req", "ns", Lower),
    layer("trace.harness_ns_per_req", "ns", Lower),
    // workload
    layer("workload.next_ns_per_req", "ns", Lower),
    layer("workload.peak_live_sessions", "count", Lower),
    // sim.admission
    layer("admission.admit_ns_per_req", "ns", Lower),
    layer("admission.reject_ratio", "share", Lower),
    layer("admission.active_streams_peak", "count", Lower),
    // farm.online
    layer("router.route_ns_per_req", "ns", Lower),
    layer("router.redirect_ratio", "share", Lower),
    layer("router.reroute_ratio", "share", Lower),
    layer("router.imbalance", "x", Lower),
    // cascade
    layer("cascade.enqueue_ns_per_req", "ns", Lower),
    layer("cascade.characterize_ns_per_req", "ns", Lower),
    layer("cascade.insert_ns_per_req", "ns", Lower),
    layer("cascade.dequeue_ns_per_req", "ns", Lower),
    layer("cascade.dequeue_calls_per_req", "count", Lower),
    layer("cascade.dequeue_empty_share", "share", Lower),
    layer("cascade.chunk_mean", "count", Higher),
    layer("cascade.chunk_p99", "count", Higher),
    layer("cascade.chunk_ge8_share", "share", Higher),
    layer("cascade.depth_mean", "count", Lower),
    layer("cascade.depth_max", "count", Lower),
    layer("cascade.preemptions_per_req", "count", Lower),
    layer("cascade.sp_promotions_per_req", "count", Lower),
    layer("cascade.er_expands_per_req", "count", Lower),
    layer("cascade.queue_swaps_per_req", "count", Lower),
    layer("cascade.shed_ratio", "share", Lower),
    // sfc
    layer("sfc.index_ns_per_point", "ns", Lower),
    // sim.engine
    layer("engine.inversion_scan_ns_per_req", "ns", Lower),
    layer("engine.inversion_scan_calls_per_req", "count", Lower),
    layer("engine.drop_ratio", "share", Lower),
    layer("engine.late_ratio", "share", Lower),
    // sim.service
    layer("service.ns_per_served", "ns", Lower),
    layer("service.seek_ms_per_served", "ms", Lower),
    layer("service.rotation_ms_per_served", "ms", Lower),
    layer("service.transfer_ms_per_served", "ms", Lower),
    layer("service.utilisation", "share", Higher),
    // obs
    layer("obs.events_per_req", "count", Lower),
    layer("obs.emit_ns_per_event", "ns", Lower),
    layer("obs.ns_per_req", "ns", Lower),
    layer("obs.dumps", "count", Lower),
    // farm.daemon (+ sim.step residual)
    layer("daemon.iter_ns_p50", "ns", Lower),
    layer("daemon.iter_ns_p99", "ns", Lower),
    layer("daemon.iter_ns_p999", "ns", Lower),
    layer("daemon.self_ns_per_req", "ns", Lower),
    layer("daemon.shutdown_ms", "ms", Lower),
    layer("daemon.build_ms", "ms", Lower),
    layer("daemon.scale_ns_per_req.s1", "ns", Lower),
    layer("daemon.scale_ns_per_req.s4", "ns", Lower),
    layer("daemon.scale_ns_per_req.s16", "ns", Lower),
    layer("daemon.scale_ns_per_req.s64", "ns", Lower),
    layer("daemon.retune_us_per_event", "us", Lower),
    layer("daemon.add_shard_us_per_event", "us", Lower),
    layer("daemon.drain_us_per_event", "us", Lower),
    layer("daemon.quarantines", "count", Lower),
    layer("daemon.retunes", "count", Lower),
    layer("daemon.refused_events", "count", Lower),
    layer("daemon.migrated_ratio", "share", Lower),
    // ctrl
    layer("ctrl.decide_us_per_round", "us", Lower),
    layer("ctrl.observe_ns_per_delta", "ns", Lower),
    layer("ctrl.decisions", "count", Higher),
    layer("ctrl.actions", "count", Lower),
    // ref: what the paper's scheduler costs over the daemon floor.
    layer("ref.fcfs_cost_ratio", "x", Lower),
    layer("ref.cascade_over_fcfs", "x", Lower),
    // Share of the daemon path (traced total less harness) they take.
    layer("share.scheduler_and_scan", "share", Lower),
    layer("share.front_end", "share", Lower),
    layer("share.daemon_self", "share", Lower),
];

/// Look a definition up by name in either table.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Measured values, by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `name = value`. The name must be in the catalogue and not
    /// yet set.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("{name} is not in the metric catalogue"));
        assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((d.name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The value of every metric in `table`, in table order.
    ///
    /// # Panics
    /// If one was never set — the contract is that a run reports all of
    /// them.
    pub fn in_order<'a>(&'a self, table: &'a [Def]) -> impl Iterator<Item = (&'a Def, f64)> + 'a {
        table.iter().map(|d| {
            let v = self
                .get(d.name)
                .unwrap_or_else(|| panic!("{} was never measured", d.name));
            (d, v)
        })
    }
}

/// The result line the benchmark contract asks for: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(table: &[Def], values: &Values, attempted: u64, failed: u64) -> String {
    let mut out = String::with_capacity(table.len() * 64);
    let _ = write!(
        out,
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (d, v)) in values.in_order(table).enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, d.name);
        out.push_str(":{\"value\":");
        json::write_num(&mut out, v);
        out.push_str(",\"unit\":");
        json::write_str(&mut out, d.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// One flat history record: `{commit, date, nproc, workload, seed, trace,
/// metric: value…}` with every value this process measured.
pub fn history_line(header: &[(&str, Json)], values: &Values) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in header.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, key);
        out.push(':');
        match value {
            Json::Str(s) => json::write_str(&mut out, s),
            Json::Num(n) => json::write_num(&mut out, *n),
            other => panic!("history headers are strings and numbers, not {other:?}"),
        }
    }
    for (name, value) in &values.0 {
        out.push(',');
        json::write_str(&mut out, name);
        out.push(':');
        json::write_num(&mut out, *value);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(table: &[Def]) -> Values {
        let mut v = Values::default();
        for (i, d) in table.iter().enumerate() {
            v.set(d.name, 1.0 / (i as f64 + 3.0));
        }
        v
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in &END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn the_result_line_parses_back_to_the_same_names_and_values() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let values = filled(table);
            let line = result_line(table, &values, 12_000_000, 0);
            let doc = json::parse(&line).unwrap();
            let keys: Vec<&str> = doc.obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(doc.get("attempted").and_then(Json::num), Some(12_000_000.0));
            assert_eq!(doc.get("failed").and_then(Json::num), Some(0.0));
            let metrics = doc.get("metrics").and_then(Json::obj).unwrap();
            assert_eq!(metrics.len(), table.len());
            for ((name, m), (d, v)) in metrics.iter().zip(values.in_order(table)) {
                assert_eq!(name, d.name);
                assert_eq!(m.get("unit").and_then(Json::str), Some(d.unit));
                let parsed = m.get("value").and_then(Json::num).unwrap();
                assert_eq!(parsed.to_bits(), v.to_bits(), "{name}");
            }
        }
    }

    #[test]
    fn the_history_line_is_flat_and_parses_back() {
        let values = filled(&END_TO_END);
        let line = history_line(
            &[
                ("commit", Json::Str("abc123".into())),
                ("nproc", Json::Num(2.0)),
                ("workload", Json::Str("steady".into())),
            ],
            &values,
        );
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("commit").and_then(Json::str), Some("abc123"));
        assert_eq!(doc.get("nproc").and_then(Json::num), Some(2.0));
        for (d, v) in values.in_order(&END_TO_END) {
            assert_eq!(doc.get(d.name).and_then(Json::num), Some(v));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        // The file sits one level above the package; in a checkout that
        // holds only the benchmark's own paths it is still there.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::str).unwrap().to_string();
                    (
                        field("name"),
                        field("unit"),
                        field("better"),
                        m.get("bound").and_then(Json::num),
                    )
                })
                .collect()
        };
        let expect = |table: &[Def], bounded: bool| -> Vec<_> {
            table
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.word().to_string(),
                        bounded.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(&END_TO_END, true));
        assert_eq!(listed("per_layer"), expect(&PER_LAYER, false));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(Json::str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, ours);
        for (_, why) in &ours {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
