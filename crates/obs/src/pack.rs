//! The packed form a [`crate::FlightRing`] keeps its events in: one
//! [`SLOT`]-byte slot an entry.
//!
//! A record is a kind byte, the writer's tag, the event's `now_us` and
//! its other fields in table order, each at a width fixed by its type: a
//! tag takes 2 bytes, `now_us` 5 (2^40 µs is 12.7 days), any other
//! `u64` or an `i64` 4, a `u32` 2, a `u128` 8 and a `bool` 1, and an
//! absolute time other than `now_us` (`deadline_us`, `until_us`) is its
//! distance past `now_us` plus one, 0 being "none" (`u64::MAX`). The
//! longest record fills a slot (the event table asserts it). An event
//! with a value that does not fit its width is not packed: its slot
//! holds only its kind byte, with [`WIDE`] set, and a 4-byte tag, and
//! the ring keeps the event whole beside it.
//!
//! With the widths fixed, so is where each field goes: where the event
//! is built, packing it is a few compares and one store a field.

use crate::event::TraceEvent;

/// The bytes of a slot: the longest record, `ServiceStart`'s or
/// `Preempt`'s.
pub(crate) const SLOT: usize = 24;

/// The kind byte's bit for a slot whose event is kept whole.
const WIDE: u8 = 0x80;

/// The bytes of a narrow `now_us`.
const NOW_BYTES: usize = 5;

/// The length of a record whose other fields take `fields` bytes.
pub(crate) const fn record_len(fields: &[usize]) -> usize {
    let mut len = 1 + 2 + NOW_BYTES;
    let mut i = 0;
    while i < fields.len() {
        len += fields[i];
        i += 1;
    }
    len
}

/// Pack `event` by `tag` into `slot`; or, when a value does not fit
/// its width, mark `slot` as holding an event kept whole and return
/// `false`.
#[inline(always)]
pub(crate) fn pack(tag: u32, event: &TraceEvent, slot: &mut [u8; SLOT]) -> bool {
    if !event.narrow(tag) {
        return pack_wide(tag, event, slot);
    }
    event.pack(&mut Packer {
        bytes: slot,
        len: 0,
        tag,
    });
    true
}

/// The wide case of [`pack`]: out of line, as no workload writes one.
#[cold]
#[inline(never)]
fn pack_wide(tag: u32, event: &TraceEvent, slot: &mut [u8; SLOT]) -> bool {
    let mut out = Packer {
        bytes: slot,
        len: 0,
        tag,
    };
    out.put([event.kind() | WIDE]);
    out.put(tag.to_le_bytes());
    false
}

/// The tag of the entry in `slot`.
pub(crate) fn slot_tag(slot: &[u8; SLOT]) -> u32 {
    let mut input = Unpacker(&slot[1..]);
    if kept_whole(slot) {
        u32::from_le_bytes(input.take())
    } else {
        Field::unpack(&mut input)
    }
}

/// The `now_us` packed in `slot`, read in place; `None` when its event
/// is kept whole.
pub(crate) fn slot_now(slot: &[u8; SLOT]) -> Option<u64> {
    if kept_whole(slot) {
        return None;
    }
    Some(Unpacker(&slot[1 + <u32 as Field>::BYTES..]).now())
}

/// Whether the event of `slot` is kept whole.
pub(crate) fn kept_whole(slot: &[u8; SLOT]) -> bool {
    slot[0] & WIDE != 0
}

/// The event packed in `slot`; `None` when it is kept whole.
pub(crate) fn unpack(slot: &[u8; SLOT]) -> Option<TraceEvent> {
    if kept_whole(slot) {
        return None;
    }
    let mut input = Unpacker(&slot[1..]);
    let _tag: u32 = Field::unpack(&mut input);
    Some(TraceEvent::unpack(slot[0], &mut input))
}

/// A record being packed in place.
pub(crate) struct Packer<'a> {
    bytes: &'a mut [u8; SLOT],
    len: usize,
    tag: u32,
}

impl Packer<'_> {
    /// Whether `now_us` fits its width.
    #[inline(always)]
    pub(crate) fn narrow_now(now_us: u64) -> bool {
        now_us >> (8 * NOW_BYTES) == 0
    }

    /// The kind byte, the tag and `now_us`.
    #[inline(always)]
    pub(crate) fn start(&mut self, kind: u8, now_us: u64) {
        self.put([kind]);
        self.tag.pack(self);
        let now = now_us.to_le_bytes();
        self.put::<NOW_BYTES>(now[..NOW_BYTES].try_into().expect("a prefix"));
    }

    #[inline(always)]
    fn put<const N: usize>(&mut self, bytes: [u8; N]) {
        self.bytes[self.len..self.len + N].copy_from_slice(&bytes);
        self.len += N;
    }

    /// Whether `at_us`, an absolute time of the event at `now_us`, fits
    /// its width.
    #[inline(always)]
    pub(crate) fn narrow_since(now_us: u64, at_us: u64) -> bool {
        at_us == u64::MAX || at_us.wrapping_sub(now_us) < u32::MAX.into()
    }

    /// `at_us`, an absolute time of the event at `now_us`, in 4 bytes.
    #[inline(always)]
    pub(crate) fn since(&mut self, now_us: u64, at_us: u64) {
        if at_us == u64::MAX {
            self.put([0; 4]);
        } else {
            self.put(((at_us - now_us) as u32 + 1).to_le_bytes());
        }
    }
}

/// A reader over one record, front to back.
pub(crate) struct Unpacker<'a>(&'a [u8]);

impl Unpacker<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (bytes, rest) = self.0.split_at(N);
        self.0 = rest;
        bytes.try_into().expect("N bytes")
    }

    /// What [`Packer::start`] wrote of `now_us`.
    pub(crate) fn now(&mut self) -> u64 {
        let mut now = [0; 8];
        now[..NOW_BYTES].copy_from_slice(&self.take::<NOW_BYTES>());
        u64::from_le_bytes(now)
    }

    /// What [`Packer::since`] wrote for an event at `now_us`.
    pub(crate) fn since(&mut self, now_us: u64) -> u64 {
        match u32::from_le_bytes(self.take()) {
            0 => u64::MAX,
            d => now_us + u64::from(d - 1),
        }
    }
}

/// A field type's packed form.
pub(crate) trait Field: Sized {
    /// Its width in bytes.
    const BYTES: usize;
    /// Whether `self` fits its width.
    fn narrow(self) -> bool;
    fn pack(self, out: &mut Packer);
    fn unpack(input: &mut Unpacker) -> Self;
}

/// [`Field`] for an integer type kept as `$narrow`.
macro_rules! integer_field {
    ($($ty:ty => $narrow:ty),*) => {$(
        impl Field for $ty {
            const BYTES: usize = size_of::<$narrow>();

            #[inline(always)]
            fn narrow(self) -> bool {
                <$narrow>::try_from(self).is_ok()
            }

            #[inline(always)]
            fn pack(self, out: &mut Packer) {
                out.put((self as $narrow).to_le_bytes());
            }

            fn unpack(input: &mut Unpacker) -> Self {
                <$narrow>::from_le_bytes(input.take()).into()
            }
        }
    )*};
}

integer_field!(u64 => u32, i64 => i32, u32 => u16, u128 => u64);

impl Field for bool {
    const BYTES: usize = 1;

    #[inline(always)]
    fn narrow(self) -> bool {
        true
    }

    #[inline(always)]
    fn pack(self, out: &mut Packer) {
        out.put([self.into()]);
    }

    fn unpack(input: &mut Unpacker) -> Self {
        input.take::<1>()[0] != 0
    }
}
