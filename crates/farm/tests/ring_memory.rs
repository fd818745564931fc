//! What the farm's flight ring and telemetry windows cost in live bytes,
//! read off a counting global allocator rather than the process's RSS.
//!
//! A 64-shard daemon with the default telemetry gives each member 1024
//! ring entries, 65,536 in all. The ring keeps them packed in one slab
//! of at most [`SLAB_BYTES_PER_ENTRY`] bytes an entry. The slab is
//! allocated once, when the daemon is built, never grown member by
//! member; no event of a light run is too wide to pack, so the ring
//! allocates nothing more during it; and the slab is freed with the
//! daemon, so that a report kept after `shutdown` holds none of it.
//!
//! A member's telemetry holds at most `depth` windows however long the
//! run and whether or not anyone drains it: the completed windows of its
//! live range and one undrained delta. A run through several live ranges
//! that nobody drains must end with the census's `windows` entry at most
//! `shards × depth`, and with a report of a bounded size per member.
//!
//! The allocator counts every process-wide allocation, so this file
//! holds a single `#[test]`: no other test shares its counters.

use farm::{DaemonConfig, DaemonEvent, DaemonReport, FarmConfig, FarmDaemon, RoutePolicy};
use obs::{TelemetryConfig, TriggerConfig};
use sched::{Fcfs, Request};
use sim::{DiskService, SimOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use workload::VodConfig;

const SHARDS: usize = 64;
/// Ring entries a member brings with the default telemetry.
const PER_MEMBER: usize = 1024;
/// Ring entries of the whole farm.
const ENTRIES: usize = SHARDS * PER_MEMBER;
/// The most slab bytes the ring may hold per entry: one packed slot.
const SLAB_BYTES_PER_ENTRY: usize = 24;

struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Set while `FarmDaemon::new` runs.
static BUILDING: AtomicBool = AtomicBool::new(false);
/// While building: allocations and reallocations to at least a byte per
/// ring entry, the size of the ring's slab.
static RING_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// The slab's block and its size, from the first of those allocations
/// until it is freed. Any allocation at least its size made while it is
/// held is taken for the ring growing: a successor the slab moves into
/// before it is freed, or the array of events too wide to pack.
static SLAB: AtomicUsize = AtomicUsize::new(0);
static SLAB_BYTES: AtomicUsize = AtomicUsize::new(0);
static SUCCESSOR: AtomicUsize = AtomicUsize::new(0);
static SUCCESSOR_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Successors allocated and reallocations that grew the slab, and the
/// largest size it reached.
static SLAB_GROWTHS: AtomicUsize = AtomicUsize::new(0);
static SLAB_PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn allocated(ptr: *mut u8, size: usize) {
    grow(size);
    if BUILDING.load(Relaxed) && size >= ENTRIES {
        RING_ALLOCS.fetch_add(1, Relaxed);
        if SLAB.load(Relaxed) == 0 {
            SLAB.store(ptr as usize, Relaxed);
            SLAB_BYTES.store(size, Relaxed);
            SLAB_PEAK.fetch_max(size, Relaxed);
        }
    } else if SLAB.load(Relaxed) != 0 && size >= SLAB_BYTES.load(Relaxed) {
        SLAB_GROWTHS.fetch_add(1, Relaxed);
        SUCCESSOR.store(ptr as usize, Relaxed);
        SUCCESSOR_BYTES.store(size, Relaxed);
        SLAB_PEAK.fetch_max(size, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        allocated(ptr, layout.size());
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        allocated(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        if SLAB.load(Relaxed) == ptr as usize {
            SLAB.store(SUCCESSOR.swap(0, Relaxed), Relaxed);
            SLAB_BYTES.store(SUCCESSOR_BYTES.swap(0, Relaxed), Relaxed);
        }
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let old = layout.size();
        if BUILDING.load(Relaxed) && new_size >= ENTRIES {
            RING_ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: `ptr` came from `System` via the methods above and the
        // caller's obligations are passed through unchanged.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_sub(old, Relaxed);
            grow(new_size);
            if SLAB.load(Relaxed) == ptr as usize {
                SLAB.store(moved as usize, Relaxed);
                SLAB_BYTES.store(new_size, Relaxed);
                SLAB_PEAK.fetch_max(new_size, Relaxed);
                SLAB_GROWTHS.fetch_add(usize::from(new_size > old), Relaxed);
            }
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A light VoD load over the farm, routed by stream hash: nothing
/// overloads.
fn trace() -> Vec<Request> {
    let mut cfg = VodConfig::mpeg1(4 * SHARDS as u32);
    cfg.duration_us = 64_000_000;
    cfg.generate(7).collect()
}

fn build() -> FarmDaemon {
    build_with(DaemonConfig::new(
        FarmConfig::new(SHARDS),
        SimOptions::with_shape(1, 4),
    ))
}

fn build_with(cfg: DaemonConfig) -> FarmDaemon {
    FarmDaemon::new(cfg, |_, _| Box::new(Fcfs::new()), |_| DiskService::table1())
}

fn scenario(trace: &[Request]) -> DaemonReport {
    let report = build().run(trace.iter().cloned().map(DaemonEvent::Arrival));
    assert_eq!(report.served(), trace.len() as u64);
    report
}

#[test]
fn the_ring_and_the_windows_are_sized_by_the_farm() {
    the_flight_ring_is_allocated_once_and_freed_with_the_daemon();
    a_member_holds_at_most_depth_windows_however_long_the_run();
}

fn the_flight_ring_is_allocated_once_and_freed_with_the_daemon() {
    let trace = trace();
    let base = LIVE.load(Relaxed);

    // (a) One allocation, made while the daemon is built.
    BUILDING.store(true, Relaxed);
    let daemon = build();
    BUILDING.store(false, Relaxed);
    let ring_allocs = RING_ALLOCS.load(Relaxed);
    let ring = SLAB_BYTES.load(Relaxed);
    let built = LIVE.load(Relaxed).saturating_sub(base);
    let mut daemon = daemon;
    for r in &trace {
        daemon.handle(DaemonEvent::Arrival(r.clone()));
    }
    let held = (daemon.state_census().into_iter())
        .find(|(name, _)| *name == "flight_ring")
        .map(|c| c.1);
    let report = daemon.shutdown();
    assert_eq!(report.served(), trace.len() as u64);
    let (growths, ring_peak) = (SLAB_GROWTHS.load(Relaxed), SLAB_PEAK.load(Relaxed));
    // (b) What the report holds once the daemon is gone.
    let kept = LIVE.load(Relaxed).saturating_sub(base);
    let freed = SLAB.load(Relaxed) == 0;
    drop(report);

    // (c) The same scenario again, with the first report still alive.
    let first = scenario(&trace);
    let peak_one = PEAK.load(Relaxed);
    let second = scenario(&trace);
    let rise = PEAK.load(Relaxed) - peak_one;
    drop((first, second));

    println!(
        "{} requests, {held:?} entries held; ring {ring} B for {ENTRIES} entries when built, {ring_peak} B at most; \
         built {built} B, ring-sized allocations {ring_allocs}, growths during \
         the run {growths}; a report keeps {kept} B; a second run with the \
         first report alive raises the peak by {rise} B",
        trace.len()
    );
    assert_eq!(
        ring_allocs, 1,
        "the ring allocated once, at full size, and not grown member by member"
    );
    assert_eq!(growths, 0, "the slab grew during the run, to {ring_peak} B");
    assert!(
        ring_peak <= SLAB_BYTES_PER_ENTRY * ENTRIES,
        "the ring held {ring_peak} B, over {SLAB_BYTES_PER_ENTRY} B for each of {ENTRIES} entries"
    );
    assert!(freed, "the daemon's slab outlived it");
    assert!(built >= ring, "the daemon holds its ring: {built} B");
    assert!(kept < ring, "a report holds {kept} B, the ring is {ring} B");
    assert!(
        rise < ring,
        "a kept report raised the next run's peak by {rise} B, the ring is {ring} B"
    );
}

/// 2^19 µs windows, so that [`LIVE_RANGES`] live ranges pass in 21 s of
/// simulated time.
const WINDOW_LOG2: u32 = 19;
/// The live ranges each member's windows pass through.
const LIVE_RANGES: u64 = 5;
/// What a report keeps per member after a run that nobody drains, of
/// [`LIVE_RANGES`] live ranges and more. A member that held an undrained
/// queue of up to 32 windows beside its live range kept 28,597 B here;
/// one that holds a single undrained delta keeps 8,154 B.
const KEPT_PER_MEMBER: usize = 16 * 1024;

fn a_member_holds_at_most_depth_windows_however_long_the_run() {
    let telemetry = TelemetryConfig::exact().window_log2(WINDOW_LOG2);
    let windows = LIVE_RANGES * telemetry.depth as u64 + 2;
    let mut cfg = VodConfig::mpeg1(4 * SHARDS as u32);
    cfg.duration_us = windows << WINDOW_LOG2;
    let trace: Vec<Request> = cfg.generate(7).collect();
    let base = LIVE.load(Relaxed);

    // Least-loaded routing, so that no member is left without streams.
    let farm = FarmConfig::new(SHARDS).with_policy(RoutePolicy::LeastLoaded);
    let mut daemon = build_with(
        DaemonConfig::new(farm, SimOptions::with_shape(1, 4))
            .with_telemetry(telemetry, TriggerConfig::default()),
    );
    for r in &trace {
        daemon.handle(DaemonEvent::Arrival(r.clone()));
    }
    let held = (daemon.state_census().into_iter())
        .find(|(name, _)| *name == "windows")
        .map(|c| c.1);
    let report = daemon.shutdown();
    assert_eq!(report.served(), trace.len() as u64);
    let kept = LIVE.load(Relaxed).saturating_sub(base) / SHARDS;
    let epochs: Vec<u64> = report
        .recorders
        .iter()
        .map(|r| r.windows().current_epoch().expect("every member recorded"))
        .collect();
    drop(report);

    println!(
        "{} requests, last epochs {:?}; census windows {held:?}; a report \
         keeps {kept} B a member",
        trace.len(),
        (epochs.iter().min(), epochs.iter().max()),
    );
    assert!(
        epochs
            .iter()
            .all(|&e| e >= LIVE_RANGES * telemetry.depth as u64),
        "every member passes through {LIVE_RANGES} live ranges: {epochs:?}"
    );
    assert!(
        held.is_some_and(|n| n <= SHARDS * telemetry.depth),
        "census windows {held:?}, bound {}",
        SHARDS * telemetry.depth
    );
    assert!(
        kept < KEPT_PER_MEMBER,
        "a report keeps {kept} B a member, bound {KEPT_PER_MEMBER} B"
    );
}
