//! `--trace 0`: the end-to-end metrics, from untraced repetitions only.

use farm::DaemonReport;

use crate::metrics::Values;
use crate::refkernel::Reference;
use crate::reps::{setup, untraced_reps};
use crate::stats::{hist_quantile, median, quartiles};
use crate::workloads::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// `VmHWM` of this process in MB (10^6 bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// The simulated-time metrics of a finished run. They repeat exactly for
/// a given `(workload, seed)`.
fn simulated(report: &DaemonReport, values: &mut Values) {
    let m = report.aggregate();
    let arrivals = report.arrivals as f64;
    let served = m.served as f64;
    // Everything that did not complete by its deadline is lost: dropped,
    // late, failed, shed, migrated away or rejected at the gate.
    let on_time = (m.served - m.late) as f64;
    let mut merged = obs::Snapshot::new();
    for r in &report.recorders {
        merged.merge(&r.windows().cumulative());
    }
    let quantile_ms = |q| hist_quantile(&merged.response_us, q).unwrap_or(0.0) / 1e3;
    values.set("loss_ratio", 1.0 - on_time / arrivals);
    values.set(
        "sim_goodput_rps",
        on_time / (report.makespan_us as f64 / 1e6),
    );
    values.set(
        "sim_resp_mean_ms",
        m.response_total_us as f64 / served / 1e3,
    );
    values.set("sim_resp_p50_ms", quantile_ms(0.5));
    values.set("sim_resp_p999_ms", quantile_ms(0.999));
    // The farm-wide maximum is an extreme-value statistic that swings by
    // 10% from seed to seed; the mean of the members' maxima is the same
    // starvation indicator with the luck of one member averaged out.
    let maxima: Vec<f64> = report
        .per_shard
        .iter()
        .filter(|s| s.served > 0)
        .map(|s| s.max_response_us as f64 / 1e3)
        .collect();
    values.set(
        "sim_resp_max_ms",
        maxima.iter().sum::<f64>() / maxima.len().max(1) as f64,
    );
    values.set("seek_ms_per_served", m.seek_us as f64 / served / 1e3);
    values.set(
        "inversions_per_served",
        m.inversions_total() as f64 / served,
    );
}

/// Measure one workload end to end. Returns the values and the number of
/// arrivals handled.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<(Values, u64), String> {
    let mut reference = Reference::new();
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        setups.push(setup(&mut reference, w, seed)?);
    }
    let u = untraced_reps(&mut reference, w, seed, seconds)?;
    let mut values = Values::default();
    values.set("cost_ratio", median(&u.cost_ratios));
    values.set("setup_s", median(&setups));
    simulated(&u.report, &mut values);
    u.host_values(&mut values);
    let (q1, q2, q3) = quartiles(&u.cost_ratios);
    println!("{}: {}", w.name(), w.why());
    println!(
        "  seed {seed}, {} arrivals x {} repetitions, {} shards",
        w.arrivals(),
        u.reps(),
        w.shards()
    );
    println!(
        "  cost_ratio quartiles {q1:.3} / {q2:.3} / {q3:.3} over repetitions {:.3?}",
        u.cost_ratios
    );
    println!(
        "  host ns/req {:.0?} against reference ns/op {:.1?}",
        u.ns_per_req, u.ref_ns_per_op
    );
    println!(
        "  set-ups {setups:.3?} s at the nominal reference speed; sim_resp_p50/p999 are read \
         off log2 buckets (interpolated inside the bucket: coarse by construction)"
    );
    values.set("peak_rss_mb", peak_rss_mb()?);
    Ok((values, u.arrivals_handled()))
}
