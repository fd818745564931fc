//! The tick clock behind the periodic generators ([`crate::NewsByteStream`],
//! [`crate::VodStream`]): their requests are drawn tick by tick — every
//! user once per period, in user order — but must come out in arrival
//! order. A materialized trace sorts the whole horizon once; a stream
//! sorts one tick at a time and releases only what no later tick can
//! precede.

use sched::{Micros, Request};

/// The tick clock and the requests generated but not yet emitted.
///
/// A generator drives it as: [`Ticks::pop`] until empty, then
/// [`Ticks::begin`] (the next tick's base, or `None` at the end), one
/// [`Ticks::push`] per request of that tick, and [`Ticks::end`].
///
/// While buffered, a request's `id` holds its generation index — its
/// position in tick-major, user-minor order, the tie-break of the
/// materialized trace's stable sort. [`Ticks::pop`] overwrites it with
/// the dense emission id.
#[derive(Debug, Clone)]
pub(crate) struct Ticks {
    period: Micros,
    duration: Micros,
    /// Next tick to generate.
    tick: u64,
    /// Every tick below `duration` has been generated.
    done: bool,
    buf: Vec<Request>,
    /// First request of `buf` not yet emitted.
    next: usize,
    /// `buf[next..ready]` is released: sorted, and earlier than anything
    /// a tick still to be generated can hold.
    ready: usize,
    generated: u64,
    emitted: u64,
    /// Requests in the whole trace: wider than `usize`, because an
    /// unbounded horizon holds more.
    total: u128,
}

impl Ticks {
    /// A clock of `period` (≥ 1) running until `duration`, over users
    /// that arrive at these offsets into every tick.
    pub(crate) fn new(
        period: Micros,
        duration: Micros,
        offsets: impl Iterator<Item = Micros>,
    ) -> Self {
        Ticks {
            period,
            duration,
            tick: 0,
            done: duration == 0,
            buf: Vec::new(),
            next: 0,
            ready: 0,
            generated: 0,
            emitted: 0,
            total: offsets.map(|o| arrivals_before(duration, period, o)).sum(),
        }
    }

    /// Start the next tick: its index and base time, or `None` once the
    /// horizon is reached.
    pub(crate) fn begin(&self) -> Option<(u64, Micros)> {
        (!self.done).then(|| (self.tick, self.tick * self.period))
    }

    /// A user's arrival `offset` into the tick at `base`, if it falls
    /// before the horizon.
    pub(crate) fn arrival(&self, base: Micros, offset: Micros) -> Option<Micros> {
        base.checked_add(offset).filter(|&a| a < self.duration)
    }

    /// Buffer the next request in generation order.
    pub(crate) fn push(&mut self, mut r: Request) {
        r.id = self.generated;
        self.generated += 1;
        self.buf.push(r);
    }

    /// Close the tick: every request arriving before the next tick's base
    /// — no later tick holds an earlier arrival — is released in order;
    /// the rest (burst jitter that spills past that base) is carried
    /// over and sorted again with the next tick. Past the horizon
    /// everything is released.
    pub(crate) fn end(&mut self) {
        self.tick += 1;
        let horizon = match self.tick.checked_mul(self.period) {
            Some(base) if base < self.duration => base,
            _ => {
                self.done = true;
                Micros::MAX
            }
        };
        self.buf.drain(..self.next);
        self.next = 0;
        // Keys are unique (the generation index breaks ties), so an
        // unstable sort gives the stable sort's order.
        self.buf.sort_unstable_by_key(|r| (r.arrival_us, r.id));
        self.ready = self.buf.partition_point(|r| r.arrival_us < horizon);
    }

    /// The next released request, with its dense id.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Request> {
        if self.next == self.ready {
            return None;
        }
        let mut r = self.buf[self.next].clone();
        self.next += 1;
        r.id = self.emitted;
        self.emitted += 1;
        Some(r)
    }

    /// Requests still to come, exact up to `usize::MAX`; past it (an
    /// unbounded horizon) `usize::MAX` with no upper bound.
    pub(crate) fn size_hint(&self) -> (usize, Option<usize>) {
        match usize::try_from(self.total - u128::from(self.emitted)) {
            Ok(n) => (n, Some(n)),
            Err(_) => (usize::MAX, None),
        }
    }
}

/// Arrivals of one periodic user, `k·period + offset` for `k = 0, 1, …`,
/// that fall before `duration`.
fn arrivals_before(duration: Micros, period: Micros, offset: Micros) -> u128 {
    if offset >= duration {
        0
    } else {
        u128::from((duration - offset - 1) / period) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::QosVector;

    /// A request tagged with its generation order in `cylinder`.
    fn at(arrival_us: Micros, tag: u32) -> Request {
        Request::read(0, arrival_us, Micros::MAX, tag, 1, QosVector::single(0))
    }

    fn drain(t: &mut Ticks) -> Vec<(u64, Micros, u32)> {
        std::iter::from_fn(|| t.pop())
            .map(|r| (r.id, r.arrival_us, r.cylinder))
            .collect()
    }

    #[test]
    fn a_tick_releases_before_the_next_base_and_carries_the_rest() {
        let mut t = Ticks::new(100, 200, [0, 10, 150].into_iter());
        assert_eq!(t.size_hint(), (5, Some(5)));
        assert_eq!(t.begin(), Some((0, 0)));
        for (tag, a) in [30, 10, 120, 10].into_iter().enumerate() {
            t.push(at(a, tag as u32));
        }
        t.end();
        // Equal arrivals keep generation order: generation 1 before 3.
        assert_eq!(drain(&mut t), [(0, 10, 1), (1, 10, 3), (2, 30, 0)]);
        assert_eq!(t.begin(), Some((1, 100)));
        t.push(at(100, 4));
        t.end();
        // 120 was carried past the first tick and lands after the second
        // tick's 100; the horizon releases everything.
        assert_eq!(drain(&mut t), [(3, 100, 4), (4, 120, 2)]);
        assert_eq!(t.begin(), None);
        assert_eq!(t.size_hint(), (0, Some(0)));
    }

    #[test]
    fn arrival_counts_cover_the_edges() {
        assert_eq!(arrivals_before(100, 10, 0), 10);
        assert_eq!(arrivals_before(100, 10, 9), 10);
        assert_eq!(arrivals_before(100, 10, 10), 9);
        assert_eq!(arrivals_before(100, 10, 100), 0);
        assert_eq!(arrivals_before(u64::MAX, 1, 0), u128::from(u64::MAX));
        let unbounded = Ticks::new(1, u64::MAX, [0, 0, 0].into_iter());
        assert_eq!(unbounded.size_hint(), (usize::MAX, None));
        assert!(Ticks::new(10, 0, [0].into_iter()).begin().is_none());
    }
}
