//! What a flight recorder's held dumps cost in live bytes, read off a
//! counting global allocator rather than the process's RSS.
//!
//! A dump copies its recorder's events out of the ring as the ring keeps
//! them, one packed slot an event, and unpacks them only when they are
//! read; an unpacked `TraceEvent` is 48 bytes. It copies its trigger
//! window, from the oldest event stamped in the dump's epoch on, and the
//! events its delta counts when the ring still holds them all: not the
//! rest of the recorder's history. So the dumps a recorder holds weigh
//! [`SLOT`] bytes for each of those events, plus one [`DumpRecord`]
//! each for the list that holds them.
//!
//! The allocator counts the allocations of the test's own thread only,
//! so that another thread's (about 900 B in one run in ten, counting
//! every thread) cannot land inside a measured dump; and this file holds
//! a single `#[test]`: no other test shares its counter.

use obs::{
    DumpRecord, FlightRecorder, TelemetryConfig, TraceEvent, TraceSink, TriggerConfig,
    DUMP_RETENTION,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The bytes of a ring slot, and so the most a dumped event may cost.
const SLOT: usize = 24;
/// The events a recorder keeps, and the most one of its dumps holds.
const CAPACITY: usize = 1024;
/// 4096 µs windows: about 410 events of [`event`]'s stream.
const WINDOW_LOG2: u32 = 12;

struct Counting;

// Statistics only: it publishes no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's thread: the one whose allocations count.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Add `add` bytes to [`LIVE`] and take `sub` from it, if the calling
/// thread is counted.
fn count(add: usize, sub: usize) {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        LIVE.fetch_add(add, Relaxed);
        LIVE.fetch_sub(sub, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` via the methods above and the
        // caller's obligations are passed through unchanged.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            count(new_size, layout.size());
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Event `i` of a stream that cycles through the kinds a loaded farm
/// member writes most, every field within its packed width.
fn event(i: u64) -> TraceEvent {
    let now_us = 10 * i;
    match i % 6 {
        0 => TraceEvent::Arrival {
            now_us,
            req: i,
            cylinder: (i % 3000) as u32,
            deadline_us: now_us + 40_000,
        },
        1 => TraceEvent::ServiceStart {
            now_us,
            req: i,
            cylinder: (i % 3000) as u32,
            seek_cylinders: (i % 700) as u32,
            queue_depth: i % 64,
            slack_us: 20_000 - (i % 50_000) as i64,
        },
        2 => TraceEvent::ServiceComplete {
            now_us,
            req: i,
            response_us: 100 + i % 9_000,
            late: i.is_multiple_of(4),
        },
        3 => TraceEvent::Shed {
            now_us,
            req: i,
            v: 1,
        },
        4 => TraceEvent::Redirect {
            now_us,
            req: i,
            from_shard: 0,
            to_shard: 1,
            queue_depth: i % 64,
        },
        _ => TraceEvent::QueueSwap {
            now_us,
            batch: i % 32,
        },
    }
}

#[test]
fn a_held_dump_costs_at_most_a_slot_an_event() {
    COUNTED.set(true);
    let telemetry = TelemetryConfig::exact().window_log2(WINDOW_LOG2);
    let mut recorder = FlightRecorder::new(CAPACITY, telemetry, TriggerConfig::quiet());
    // Gaps between dumps: past a ring of history, so that the ring wraps
    // past the previous dump; shorter than the ring and longer than a
    // window; shorter than a window; just past the ring again.
    let gaps = [3 * CAPACITY, CAPACITY / 2, 100, CAPACITY + 1];
    assert_eq!(gaps.len(), DUMP_RETENTION);
    let (mut i, mut held, mut events) = (0u64, 0usize, 0usize);
    let mut kept = Vec::new();
    for gap in gaps {
        for _ in 0..gap {
            recorder.emit(&event(i));
            i += 1;
        }
        // What the ring holds of the recorder, and of that its trigger
        // window: the events stamped in the dump's epoch.
        let now_us = 10 * i;
        let ring = i - i.min(CAPACITY as u64);
        let window = (ring..i)
            .filter(|&j| event(j).now_us() >> WINDOW_LOG2 >= now_us >> WINDOW_LOG2)
            .count();
        let whole = gap <= CAPACITY;
        let keep = if whole { window.max(gap) } else { window };
        // What the dump leaves allocated: its events, and the list's
        // room for it (the list grows to `DUMP_RETENTION` records at its
        // first push).
        let before = LIVE.load(Relaxed);
        let d = recorder.force_dump(now_us);
        assert_eq!(d.events.len(), keep, "gap {gap}, window {window}");
        assert!(d.events.iter().eq((i - keep as u64..i).map(event)));
        assert_eq!(d.delta.total_events(), gap as u64);
        assert_eq!(d.evicted_since_dump, (gap - gap.min(CAPACITY)) as u64);
        assert_eq!(d.clean, whole);
        events += keep;
        held += LIVE.load(Relaxed) - before;
        kept.push((gap, window, keep));
    }
    let dumps = recorder.dumps();
    assert_eq!(dumps.len(), DUMP_RETENTION, "no dump evicted");
    assert_eq!(events, dumps.iter().map(|d| d.events.len()).sum::<usize>());
    // Each rule decides one dump at least: a window alone past a wrap,
    // a delta longer than its window, a window longer than its delta.
    assert!(kept
        .iter()
        .any(|&(gap, w, k)| gap > CAPACITY && k == w && k < CAPACITY));
    assert!(kept.iter().any(|&(gap, w, k)| k == gap && w < gap));
    assert!(kept.iter().any(|&(gap, w, k)| k == w && gap < w));
    let per_dump = size_of::<DumpRecord>();
    let bound = SLOT * events + per_dump * DUMP_RETENTION;
    println!(
        "{DUMP_RETENTION} dumps (gap, window, kept) {kept:?} hold {held} B: {:.2} B an event, \
         bound {bound} B ({SLOT} B an event and {per_dump} B a dump)",
        held as f64 / events as f64
    );
    assert!(held <= bound, "{held} B held, over the bound of {bound} B");
}
