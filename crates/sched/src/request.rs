//! The multimedia disk-request model.
//!
//! A request carries, besides the usual disk coordinates, the paper's three
//! categories of QoS requirements (§1):
//!
//! 1. **priority-like** parameters (user priority, request value, size
//!    class, arrival class, …) — a [`QosVector`] of up to
//!    [`MAX_QOS_DIMS`] levels where *level 0 is the highest priority*;
//! 2. a **deadline** — an absolute completion target in microseconds;
//! 3. **disk-utilization** coordinates — the cylinder and transfer size.

use crate::Micros;
use std::fmt;

/// Maximum number of priority-like QoS dimensions a request can carry.
/// The paper's scalability experiment (Figure 6) sweeps up to 12.
pub const MAX_QOS_DIMS: usize = 16;

/// A fixed-capacity vector of priority levels, one per QoS dimension.
///
/// Level `0` is the **highest** priority in every dimension (matching the
/// curve convention that a lower characterization value is served first).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct QosVector {
    levels: [u8; MAX_QOS_DIMS],
    dims: u8,
}

impl QosVector {
    /// Build from a slice of levels.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_QOS_DIMS`] dimensions are given.
    #[inline]
    pub fn new(levels: &[u8]) -> Self {
        assert!(
            levels.len() <= MAX_QOS_DIMS,
            "at most {MAX_QOS_DIMS} QoS dimensions supported, got {}",
            levels.len()
        );
        let mut arr = [0u8; MAX_QOS_DIMS];
        arr[..levels.len()].copy_from_slice(levels);
        QosVector {
            levels: arr,
            dims: levels.len() as u8,
        }
    }

    /// A request with a single priority dimension.
    #[inline]
    pub fn single(level: u8) -> Self {
        Self::new(&[level])
    }

    /// A request with no priority-like parameters at all.
    #[inline]
    pub fn none() -> Self {
        Self::new(&[])
    }

    /// Number of QoS dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    /// The levels as a slice.
    #[inline]
    pub fn levels(&self) -> &[u8] {
        &self.levels[..self.dims as usize]
    }

    /// Priority level in dimension `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= dims()`.
    #[inline]
    pub fn level(&self, k: usize) -> u8 {
        assert!(k < self.dims as usize, "QoS dimension {k} out of range");
        self.levels[k]
    }

    /// `true` when `self` has a strictly higher priority (lower level) than
    /// `other` in dimension `k`. Serving `other` before `self` would be a
    /// priority inversion in that dimension.
    #[inline]
    pub fn beats_in_dim(&self, other: &QosVector, k: usize) -> bool {
        self.level(k) < other.level(k)
    }
}

impl fmt::Debug for QosVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QosVector({:?})", self.levels())
    }
}

/// Whether the request reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read a block (stream playback, editing preview, FTP get).
    Read,
    /// Write a block (real-time ingest, editing save).
    Write,
}

/// One multimedia disk request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique, monotonically assigned identifier.
    pub id: u64,
    /// Arrival time (absolute, µs).
    pub arrival_us: Micros,
    /// Completion deadline (absolute, µs). `Micros::MAX` means "relaxed"
    /// (no real-time constraint).
    pub deadline_us: Micros,
    /// Target cylinder.
    pub cylinder: u32,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Priority-like QoS parameters (level 0 = highest).
    pub qos: QosVector,
    /// Read or write.
    pub kind: OpKind,
    /// Stream (or user/session) the request belongs to. Requests of one
    /// stream exhibit spatial locality and should land on the same disk
    /// under affinity routing; generators that model streams set this to
    /// the stream index, everything else defaults it to the request id.
    pub stream: u64,
}

impl Request {
    /// Convenience constructor for the common read request.
    pub fn read(
        id: u64,
        arrival_us: Micros,
        deadline_us: Micros,
        cylinder: u32,
        bytes: u64,
        qos: QosVector,
    ) -> Self {
        Request {
            id,
            arrival_us,
            deadline_us,
            cylinder,
            bytes,
            qos,
            kind: OpKind::Read,
            stream: id,
        }
    }

    /// Tag the request with the stream it belongs to.
    pub fn with_stream(mut self, stream: u64) -> Self {
        self.stream = stream;
        self
    }

    /// Remaining slack until the deadline at time `now` (0 when already
    /// past due, `Micros::MAX` for relaxed deadlines).
    pub fn slack_us(&self, now: Micros) -> Micros {
        if self.deadline_us == Micros::MAX {
            Micros::MAX
        } else {
            self.deadline_us.saturating_sub(now)
        }
    }

    /// Whether the deadline has passed at `now`.
    pub fn is_late(&self, now: Micros) -> bool {
        self.deadline_us != Micros::MAX && now > self.deadline_us
    }

    /// Whether this request has a real-time deadline at all.
    pub fn has_deadline(&self) -> bool {
        self.deadline_us != Micros::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_vector_basics() {
        let q = QosVector::new(&[2, 0, 7]);
        assert_eq!(q.dims(), 3);
        assert_eq!(q.levels(), &[2, 0, 7]);
        assert_eq!(q.level(1), 0);
    }

    #[test]
    fn beats_in_dim_is_strict() {
        let hi = QosVector::new(&[0, 3]);
        let lo = QosVector::new(&[1, 3]);
        assert!(hi.beats_in_dim(&lo, 0));
        assert!(!lo.beats_in_dim(&hi, 0));
        assert!(!hi.beats_in_dim(&lo, 1)); // equal level: no inversion
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn level_checks_bounds() {
        QosVector::single(1).level(1);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_dims_rejected() {
        QosVector::new(&[0; 17]);
    }

    #[test]
    fn slack_and_lateness() {
        let r = Request::read(1, 0, 5_000, 10, 512, QosVector::none());
        assert_eq!(r.slack_us(1_000), 4_000);
        assert_eq!(r.slack_us(9_000), 0);
        assert!(!r.is_late(5_000));
        assert!(r.is_late(5_001));
        assert!(r.has_deadline());

        let relaxed = Request::read(2, 0, Micros::MAX, 10, 512, QosVector::none());
        assert_eq!(relaxed.slack_us(123), Micros::MAX);
        assert!(!relaxed.is_late(u64::MAX));
        assert!(!relaxed.has_deadline());
    }
}
