//! Fault-scenario harness — graceful degradation under injected faults.
//!
//! Not a paper figure: the PanaViss deployment the paper targets runs
//! every stream over RAID-5 precisely because member disks fail, but
//! §5–6 only evaluate the healthy path. This harness measures what the
//! fault layer adds, in two modes (the `faults` subcommand):
//!
//! * **sweep** — a VoD load sized well inside the admission bound is
//!   re-run over a striped group at increasing transient media-error
//!   rates; the CSV reports the loss / seek / p99-response degradation
//!   curves.
//! * **degraded** — the grouped RAID-5 timeline: one member dies
//!   mid-run, reads reconstruct from the survivors, and a background
//!   rebuild competes with foreground service.
//!
//! Both modes are deterministic given `--seed`.

use crate::vod;
use diskmodel::{DiskGeometry, FaultPlan, SeekModel};
use obs::Snapshot;
use sim::admission;
use sim::{simulate, simulate_striped, Metrics, Raid5Service, SimOptions};

/// Fault-scenario parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed (workload and fault streams).
    pub seed: u64,
    /// RAID-5 group size (members, including parity).
    pub members: usize,
    /// Concurrent MPEG-1 streams; 0 = auto-size to two thirds of the
    /// group's admission bound (loss-free with headroom when healthy).
    pub streams: u32,
    /// Simulated duration (µs).
    pub duration_us: u64,
    /// Retry budget per request (attempts, 1 = never retry).
    pub retries: u32,
    /// Transient media-error rates to sweep (ppm per request); the
    /// bad-sector rate rides along at one quarter of each.
    pub rates_ppm: Vec<u32>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            members: 5,
            streams: 0,
            duration_us: 20_000_000,
            retries: 4,
            rates_ppm: vec![0, 1_000, 10_000, 50_000, 100_000, 250_000],
        }
    }
}

/// MPEG-1 streams of 64-KB blocks one Table-1 disk admits.
fn per_disk_streams() -> u32 {
    admission::admissible_streams(
        &DiskGeometry::table1(),
        &SeekModel::table1(),
        64 * 1024,
        1_500_000,
    )
}

impl Config {
    /// The stream count actually used: explicit, or two thirds of the
    /// per-disk admission bound times the data-disk count.
    pub fn effective_streams(&self) -> u32 {
        if self.streams > 0 {
            return self.streams;
        }
        (per_disk_streams() * (self.members as u32 - 1) * 2 / 3).max(1)
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// Transient media-error rate (ppm per request).
    pub transient_ppm: u32,
    /// Requests serviced.
    pub served: u64,
    /// Requests lost to exhausted retry budgets.
    pub failed: u64,
    /// Total deadline losses (dropped + late + failed).
    pub losses: u64,
    /// Loss ratio over all requests.
    pub loss_ratio: f64,
    /// Media errors observed (including recovered ones).
    pub media_errors: u64,
    /// Retries issued.
    pub retries: u64,
    /// Bad sectors remapped.
    pub sector_remaps: u64,
    /// Mean seek time per served request (µs).
    pub mean_seek_us: f64,
    /// 99th-percentile response time (µs).
    pub p99_response_us: u64,
    /// Group makespan (µs).
    pub makespan_us: u64,
}

fn vod_trace(cfg: &Config) -> Vec<sched::Request> {
    vod::trace(cfg.effective_streams(), cfg.duration_us, cfg.seed)
}

fn options(cfg: &Config) -> SimOptions {
    vod::options().with_retries(cfg.retries)
}

/// Run one sweep point: the VoD load over the striped group under a
/// media-fault plan of `transient_ppm` (bad sectors at a quarter of it).
pub fn run_point(cfg: &Config, transient_ppm: u32) -> (sim::StripedOutcome, Snapshot) {
    let plan = FaultPlan::media(cfg.seed, transient_ppm, transient_ppm / 4);
    let mut group = Snapshot::new();
    let outcome = simulate_striped(
        &vod_trace(cfg),
        cfg.members,
        vod::unbounded_scheduler,
        options(cfg),
        &plan,
        &mut group,
    );
    (outcome, group)
}

fn row(transient_ppm: u32, total: &Metrics, snap: &Snapshot) -> Row {
    let c = &snap.counters;
    Row {
        transient_ppm,
        served: total.served,
        failed: total.failed,
        losses: total.losses_total(),
        loss_ratio: total.loss_ratio(),
        media_errors: c.media_errors,
        retries: c.retries,
        sector_remaps: c.sector_remaps,
        mean_seek_us: if total.served == 0 {
            0.0
        } else {
            total.seek_us as f64 / total.served as f64
        },
        p99_response_us: snap.response_us.p99().unwrap_or(0),
        makespan_us: total.makespan_us,
    }
}

/// Produce the degradation curves: one [`Row`] per configured rate.
pub fn sweep(cfg: &Config) -> Vec<Row> {
    cfg.rates_ppm
        .iter()
        .map(|&ppm| {
            let (out, snap) = run_point(cfg, ppm);
            row(ppm, &out.aggregate(), &snap)
        })
        .collect()
}

/// Print the sweep as CSV.
pub fn print_csv(rows: &[Row]) {
    println!(
        "transient_ppm,served,failed,losses,loss_ratio,media_errors,retries,\
         sector_remaps,mean_seek_us,p99_response_us,makespan_us"
    );
    for r in rows {
        println!(
            "{},{},{},{},{:.4},{},{},{},{:.1},{},{}",
            r.transient_ppm,
            r.served,
            r.failed,
            r.losses,
            r.loss_ratio,
            r.media_errors,
            r.retries,
            r.sector_remaps,
            r.mean_seek_us,
            r.p99_response_us,
            r.makespan_us
        );
    }
}

/// Cross-check an event-derived [`Snapshot`] against the engine's
/// [`Metrics`]: every arrival of the trace was traced, and the engine's
/// dispatch and loss events match its loss classes
/// ([`Metrics::reconcile`]). `arrivals` is the trace length.
pub fn reconcile(m: &Metrics, snap: &Snapshot, arrivals: u64) -> Result<(), String> {
    let c = &snap.counters;
    if c.arrivals != arrivals {
        return Err(format!(
            "arrivals vs trace length: {} != {arrivals}",
            c.arrivals
        ));
    }
    m.reconcile(c)
}

/// Everything the degraded-mode run produced.
#[derive(Debug)]
pub struct DegradedReport {
    /// Engine metrics of the grouped run.
    pub metrics: Metrics,
    /// Event-derived counters and histograms: the degraded reads and
    /// rebuild I/Os are counted here.
    pub snapshot: Snapshot,
    /// Stripes the background rebuild reconstructed.
    pub rebuilt_stripes: u64,
    /// When the member died (µs).
    pub fail_at_us: u64,
    /// Which member died.
    pub failed_member: usize,
}

/// Run the grouped RAID-5 timeline with one member dying a third of the
/// way in and a background rebuild competing with foreground service.
/// Reads of the dead member's blocks reconstruct from the survivors.
pub fn degraded(cfg: &Config) -> Result<DegradedReport, String> {
    let failed_member = 2;
    let fail_at_us = cfg.duration_us / 3;
    let plan = FaultPlan::none()
        .with_member_failure(failed_member, fail_at_us)
        .with_rebuild(400, 4);

    // The grouped service serializes the whole group on one timeline, so
    // size the load for a single disk, not for the striped multiplier.
    let streams = if cfg.streams > 0 {
        cfg.streams
    } else {
        per_disk_streams() * 2 / 3
    };
    let trace = vod::trace(streams, cfg.duration_us, cfg.seed);

    let mut scheduler = vod::unbounded_scheduler();
    let mut service = Raid5Service::with_faults(plan);
    let mut snapshot = Snapshot::new();
    let metrics = simulate(
        scheduler.as_mut(),
        &trace,
        &mut service,
        options(cfg),
        &mut snapshot,
    );
    reconcile(&metrics, &snapshot, trace.len() as u64)?;
    Ok(DegradedReport {
        metrics,
        snapshot,
        rebuilt_stripes: service.rebuilt_stripes(),
        fail_at_us,
        failed_member,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            duration_us: 6_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn losses_and_tail_latency_degrade_with_the_fault_rate() {
        let cfg = Config {
            rates_ppm: vec![0, 250_000],
            ..small()
        };
        let rows = sweep(&cfg);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].losses == 0, "healthy point lost {}", rows[0].losses);
        let r = &rows[0];
        assert_eq!((r.media_errors, r.sector_remaps, r.retries), (0, 0, 0));
        assert!(rows[1].losses > rows[0].losses);
        assert!(rows[1].media_errors > 0);
        assert!(rows[1].retries > 0);
        assert!(
            rows[1].p99_response_us >= rows[0].p99_response_us,
            "retries should not shrink the tail: {} vs {}",
            rows[1].p99_response_us,
            rows[0].p99_response_us
        );
        // At both ends every request is accounted for and the group's
        // event stream reconciles with its metrics.
        let arrivals = vod_trace(&cfg).len() as u64;
        for &ppm in &cfg.rates_ppm {
            let (out, snap) = run_point(&cfg, ppm);
            let total = out.aggregate();
            assert_eq!(total.requests_total(), arrivals, "{ppm} ppm");
            reconcile(&total, &snap, arrivals).expect("events match metrics");
        }
    }

    #[test]
    fn degraded_run_reconstructs_and_rebuilds() {
        let report = degraded(&small()).expect("degraded run reconciles");
        let c = &report.snapshot.counters;
        assert!(c.degraded_reads > 0, "no reads hit the dead member");
        assert!(c.rebuild_ios > 0, "rebuild never ran");
        // One RebuildIo event per stripe the service reconstructed.
        assert_eq!(c.rebuild_ios, report.rebuilt_stripes);
        assert_eq!(c.media_errors, 0, "plan had no media faults");
    }
}
