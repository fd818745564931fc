//! Service-time models the simulator can drive schedulers against.

use diskmodel::{Disk, FaultInjector, FaultPlan, ServiceBreakdown};
use sched::{Micros, Request};

/// What one service attempt did: the time it took plus what the fault
/// layer decided along the way. The healthy path is
/// [`ServiceOutcome::ok`]; providers without a fault plan never produce
/// anything else, so the engine's fault branches stay cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// Time paid by this attempt (any remap penalty already included).
    pub breakdown: ServiceBreakdown,
    /// The attempt hit a transient media error: the sector was
    /// unreadable on this revolution, and a retry may succeed once it
    /// comes around again. `false` means the data came back.
    pub failed: bool,
    /// A latent bad sector was remapped on the way: the relocation
    /// penalty (already inside `breakdown`), for event reporting.
    pub remap_penalty_us: Micros,
}

impl ServiceOutcome {
    /// A faultless attempt.
    pub fn ok(breakdown: ServiceBreakdown) -> Self {
        ServiceOutcome {
            breakdown,
            failed: false,
            remap_penalty_us: 0,
        }
    }
}

/// Something that can serve a request and report where its head is.
pub trait ServiceProvider {
    /// Current head cylinder.
    fn head(&self) -> u32;
    /// Number of cylinders (for [`sched::HeadState`]).
    fn cylinders(&self) -> u32;
    /// Serve `req`, advancing internal state. Without a fault plan there
    /// are no draws: the outcome is always [`ServiceOutcome::ok`].
    fn service(&mut self, req: &Request) -> ServiceOutcome;
}

/// Scale a breakdown by a limping disk's service-time multiplier.
fn limp(inj: &FaultInjector, b: ServiceBreakdown) -> ServiceBreakdown {
    ServiceBreakdown {
        seek_us: inj.limp_us(b.seek_us),
        rotation_us: inj.limp_us(b.rotation_us),
        transfer_us: inj.limp_us(b.transfer_us),
    }
}

/// The full Table-1 disk model (seek + tracked rotation + zoned transfer).
pub struct DiskService {
    disk: Disk,
    faults: Option<FaultInjector>,
}

impl DiskService {
    /// Wrap a disk.
    pub fn new(disk: Disk) -> Self {
        DiskService { disk, faults: None }
    }

    /// The paper's Table-1 disk.
    pub fn table1() -> Self {
        DiskService::new(Disk::table1())
    }

    /// Wrap a disk behind a fault plan. With [`FaultPlan::none`] this is
    /// bit-identical to [`DiskService::new`].
    pub fn with_faults(disk: Disk, plan: FaultPlan) -> Self {
        DiskService {
            disk,
            faults: Some(FaultInjector::new(plan)),
        }
    }

    /// Access the underlying disk (e.g. for statistics).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }
}

impl ServiceProvider for DiskService {
    fn head(&self) -> u32 {
        self.disk.head()
    }

    fn cylinders(&self) -> u32 {
        self.disk.geometry().cylinders()
    }

    fn service(&mut self, req: &Request) -> ServiceOutcome {
        let Some(inj) = self.faults.as_mut() else {
            return ServiceOutcome::ok(self.disk.service(req.cylinder, req.bytes));
        };
        let draw = inj.draw();
        let mut b = limp(inj, self.disk.service(req.cylinder, req.bytes));
        if draw.transient {
            // The attempt pays its full service time — the head moved and
            // the platter turned — but returns no data. A retry re-pays
            // rotation from the disk's tracked angle: one extra
            // revolution, exactly the paper's recoverable-error cost.
            return ServiceOutcome {
                failed: true,
                ..ServiceOutcome::ok(b)
            };
        }
        let mut remap = 0;
        if draw.bad_sector {
            remap = inj.plan().remap_penalty_us;
            b.seek_us += remap;
        }
        ServiceOutcome {
            remap_penalty_us: remap,
            ..ServiceOutcome::ok(b)
        }
    }
}

/// The transfer-dominated model of Figures 5–9: seek and rotation are
/// negligible, service time is `fixed_us + bytes · ns_per_byte`. The head
/// still tracks the served cylinder so SFC3/SCAN decisions remain
/// meaningful when mixed configurations are tested.
pub struct TransferDominated {
    head: u32,
    cylinders: u32,
    fixed_us: Micros,
    ns_per_byte: u64,
}

impl TransferDominated {
    /// Every request takes exactly `per_request_us`.
    pub fn uniform(per_request_us: Micros, cylinders: u32) -> Self {
        TransferDominated {
            head: 0,
            cylinders,
            fixed_us: per_request_us,
            ns_per_byte: 0,
        }
    }

    /// Service proportional to the transfer size (the §5.2 setting where
    /// high-priority requests are smaller and therefore faster):
    /// `fixed_us + bytes·ns_per_byte/1000` µs.
    pub fn scaled(fixed_us: Micros, ns_per_byte: u64, cylinders: u32) -> Self {
        TransferDominated {
            head: 0,
            cylinders,
            fixed_us,
            ns_per_byte,
        }
    }
}

impl ServiceProvider for TransferDominated {
    fn head(&self) -> u32 {
        self.head
    }

    fn cylinders(&self) -> u32 {
        self.cylinders
    }

    fn service(&mut self, req: &Request) -> ServiceOutcome {
        self.head = req.cylinder;
        ServiceOutcome::ok(ServiceBreakdown {
            seek_us: 0,
            rotation_us: 0,
            transfer_us: self.fixed_us + req.bytes * self.ns_per_byte / 1000,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::QosVector;

    fn req(cyl: u32, bytes: u64) -> Request {
        Request::read(0, 0, u64::MAX, cyl, bytes, QosVector::none())
    }

    #[test]
    fn transfer_dominated_uniform() {
        let mut s = TransferDominated::uniform(20_000, 3832);
        let b = s.service(&req(100, 64 * 1024)).breakdown;
        assert_eq!(b.total_us(), 20_000);
        assert_eq!(s.head(), 100);
    }

    #[test]
    fn transfer_dominated_scales_with_bytes() {
        // 150 ns/byte ≈ 6.7 MB/s.
        let mut s = TransferDominated::scaled(1_000, 150, 3832);
        let small = s.service(&req(0, 16 * 1024)).breakdown.total_us();
        let large = s.service(&req(0, 128 * 1024)).breakdown.total_us();
        assert!(large > 7 * small / 2, "large {large} vs small {small}");
    }

    #[test]
    fn disk_service_moves_head() {
        let mut s = DiskService::table1();
        s.service(&req(1234, 512));
        assert_eq!(s.head(), 1234);
        assert_eq!(s.cylinders(), 3832);
        assert_eq!(s.disk().stats().requests, 1);
    }
}
