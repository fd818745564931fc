//! What a flight recorder's held dumps cost in live bytes, read off a
//! counting global allocator rather than the process's RSS.
//!
//! A dump copies its recorder's events out of the ring as the ring keeps
//! them, one packed slot an event, and unpacks them only when they are
//! read. So the dumps a recorder holds weigh at most [`SLOT`] bytes an
//! event, plus one [`DumpRecord`] each for the list that holds them; an
//! unpacked `TraceEvent` is 48 bytes.
//!
//! The allocator counts every process-wide allocation, so this file
//! holds a single `#[test]`: no other test shares its counter.

use obs::{
    DumpRecord, FlightRecorder, TelemetryConfig, TraceEvent, TraceSink, TriggerConfig,
    DUMP_RETENTION,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The bytes of a ring slot, and so the most a dumped event may cost.
const SLOT: usize = 24;
/// The events a recorder keeps, and the most one of its dumps holds.
const CAPACITY: usize = 1024;

struct Counting;

// Statistics only: it publishes no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` via the methods above and the
        // caller's obligations are passed through unchanged.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            LIVE.fetch_add(new_size, Relaxed);
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
    let mut recorder =
        FlightRecorder::new(CAPACITY, TelemetryConfig::exact(), TriggerConfig::quiet());
    let (mut i, mut held, mut events) = (0u64, 0usize, 0usize);
    for dump in 0..DUMP_RETENTION {
        // A first stream longer than the ring, then shorter gaps.
        let emits = if dump == 0 {
            3 * CAPACITY
        } else {
            CAPACITY / 2
        };
        for _ in 0..emits {
            recorder.emit(&event(i));
            i += 1;
        }
        // What the dump leaves allocated: its events, and the list's
        // room for it (the list grows to `DUMP_RETENTION` records at its
        // first push).
        let before = LIVE.load(Relaxed);
        let d = recorder.force_dump(10 * i);
        events += d.events.len();
        assert!(d
            .events
            .iter()
            .eq((i - d.events.len() as u64..i).map(event)));
        held += LIVE.load(Relaxed) - before;
    }
    let dumps = recorder.dumps();
    assert_eq!(dumps.len(), DUMP_RETENTION, "no dump evicted");
    assert_eq!(events, dumps.iter().map(|d| d.events.len()).sum::<usize>());
    assert!(events > DUMP_RETENTION * CAPACITY / 2, "{events} events");
    let per_dump = size_of::<DumpRecord>();
    let bound = SLOT * events + per_dump * DUMP_RETENTION;
    println!(
        "{DUMP_RETENTION} dumps of {events} events hold {held} B: {:.2} B an event, bound {bound} B \
         ({SLOT} B an event and {per_dump} B a dump)",
        held as f64 / events as f64
    );
    assert!(held <= bound, "{held} B held, over the bound of {bound} B");
}
