//! Prometheus-style text exposition of snapshots.
//!
//! The encoders render the standard text format — `# TYPE` lines,
//! `<name>_total` counters, and cumulative-bucket histograms with
//! `_bucket{le=…}` / `_sum` / `_count` series — from any [`Snapshot`]
//! or slice of per-shard snapshots. Output is metric-major (one `TYPE`
//! line, then one sample per label set) so it scrapes cleanly, and the
//! `le` edges are the log₂ bucket upper bounds, matching
//! [`Histogram::bucket_high`](crate::Histogram::bucket_high).

use crate::hist::{Histogram, HISTOGRAM_BUCKETS};
use crate::snapshot::Snapshot;
use std::fmt::Write as _;

/// Default metric-name prefix.
pub const DEFAULT_PREFIX: &str = "sched";

fn write_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

fn write_histogram(out: &mut String, name: &str, labels: &[(&str, &str)], h: &Histogram) {
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets().iter().enumerate() {
        // The last bucket's edge is u64::MAX; it is covered by the
        // mandatory +Inf sample below instead of a numeric edge.
        if c == 0 || i == HISTOGRAM_BUCKETS - 1 {
            continue;
        }
        cumulative += c;
        let _ = write!(out, "{name}_bucket");
        let le = Histogram::bucket_high(i).to_string();
        let with_le: Vec<(&str, &str)> = labels
            .iter()
            .copied()
            .chain(std::iter::once(("le", le.as_str())))
            .collect();
        write_labels(out, &with_le);
        let _ = writeln!(out, " {cumulative}");
    }
    let _ = write!(out, "{name}_bucket");
    let with_inf: Vec<(&str, &str)> = labels
        .iter()
        .copied()
        .chain(std::iter::once(("le", "+Inf")))
        .collect();
    write_labels(out, &with_inf);
    let _ = writeln!(out, " {}", h.count());
    let _ = write!(out, "{name}_sum");
    write_labels(out, labels);
    let _ = writeln!(out, " {}", h.sum());
    let _ = write!(out, "{name}_count");
    write_labels(out, labels);
    let _ = writeln!(out, " {}", h.count());
}

/// Encode one snapshot under `prefix` with a fixed label set.
pub fn encode_snapshot(out: &mut String, prefix: &str, labels: &[(&str, &str)], snap: &Snapshot) {
    for (name, value) in snap.counters.items() {
        let _ = writeln!(out, "# TYPE {prefix}_{name}_total counter");
        let _ = write!(out, "{prefix}_{name}_total");
        write_labels(out, labels);
        let _ = writeln!(out, " {value}");
    }
    for (name, h) in snap.histograms() {
        if h.count() == 0 {
            continue;
        }
        let _ = writeln!(out, "# TYPE {prefix}_{name} histogram");
        write_histogram(out, &format!("{prefix}_{name}"), labels, h);
    }
}

/// Encode per-shard cumulative snapshots (index = shard) metric-major:
/// every counter across all shards (labelled `shard="<i>"`), then every
/// non-empty histogram.
pub fn encode_registry(out: &mut String, prefix: &str, cumulatives: &[Snapshot]) {
    if cumulatives.is_empty() {
        return;
    }
    let counter_names: Vec<&'static str> = cumulatives[0]
        .counters
        .items()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    for (ci, name) in counter_names.iter().enumerate() {
        let _ = writeln!(out, "# TYPE {prefix}_{name}_total counter");
        for (shard, snap) in cumulatives.iter().enumerate() {
            let value = snap.counters.items()[ci].1;
            let shard_label = shard.to_string();
            let _ = write!(out, "{prefix}_{name}_total");
            write_labels(out, &[("shard", shard_label.as_str())]);
            let _ = writeln!(out, " {value}");
        }
    }
    let hist_count = cumulatives[0].histograms().len();
    for hi in 0..hist_count {
        let name = cumulatives[0].histograms()[hi].0;
        if cumulatives
            .iter()
            .all(|s| s.histograms()[hi].1.count() == 0)
        {
            continue;
        }
        let _ = writeln!(out, "# TYPE {prefix}_{name} histogram");
        for (shard, snap) in cumulatives.iter().enumerate() {
            let h = snap.histograms()[hi].1;
            if h.count() == 0 {
                continue;
            }
            let shard_label = shard.to_string();
            write_histogram(
                out,
                &format!("{prefix}_{name}"),
                &[("shard", shard_label.as_str())],
                h,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::sink::TraceSink;

    fn sample_snapshot() -> Snapshot {
        let mut s = Snapshot::new();
        for (t, resp) in [(0u64, 10u64), (5, 12), (9, 900)] {
            s.emit(&TraceEvent::ServiceComplete {
                now_us: t,
                req: t,
                response_us: resp,
                late: resp > 100,
            });
        }
        s
    }

    #[test]
    fn snapshot_exposition_has_types_counters_and_buckets() {
        let mut out = String::new();
        encode_snapshot(&mut out, "sched", &[("shard", "0")], &sample_snapshot());
        assert!(out.contains("# TYPE sched_service_completes_total counter\n"));
        assert!(out.contains("sched_service_completes_total{shard=\"0\"} 3\n"));
        assert!(out.contains("sched_late_completions_total{shard=\"0\"} 1\n"));
        assert!(out.contains("# TYPE sched_response_us histogram\n"));
        // 10 and 12 land in bucket 4 (le=15), 900 in bucket 10 (le=1023).
        assert!(out.contains("sched_response_us_bucket{shard=\"0\",le=\"15\"} 2\n"));
        assert!(out.contains("sched_response_us_bucket{shard=\"0\",le=\"1023\"} 3\n"));
        assert!(out.contains("sched_response_us_bucket{shard=\"0\",le=\"+Inf\"} 3\n"));
        assert!(out.contains("sched_response_us_sum{shard=\"0\"} 922\n"));
        assert!(out.contains("sched_response_us_count{shard=\"0\"} 3\n"));
        // Empty histograms are omitted entirely.
        assert!(!out.contains("sched_seek_cylinders_bucket"));
    }

    #[test]
    fn registry_exposition_is_metric_major_across_shards() {
        let mut shards = [Snapshot::new(), Snapshot::new()];
        for t in 0..10u64 {
            shards[(t % 2) as usize].emit(&TraceEvent::ServiceComplete {
                now_us: t * 3,
                req: t,
                response_us: 20,
                late: false,
            });
        }
        let mut out = String::new();
        encode_registry(&mut out, "sched", &shards);
        // One TYPE line per metric, then one sample per shard.
        assert_eq!(
            out.matches("# TYPE sched_service_completes_total counter")
                .count(),
            1
        );
        assert!(out.contains("sched_service_completes_total{shard=\"0\"} 5\n"));
        assert!(out.contains("sched_service_completes_total{shard=\"1\"} 5\n"));
        assert_eq!(out.matches("# TYPE sched_response_us histogram").count(), 1);
        assert!(out.contains("sched_response_us_count{shard=\"1\"} 5\n"));
        let mut empty_out = String::new();
        encode_registry(&mut empty_out, "sched", &[]);
        assert!(empty_out.is_empty());
    }
}
