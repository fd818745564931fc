//! Service-time models the simulator can drive schedulers against.

use diskmodel::{Disk, FaultInjector, FaultPlan, ServiceBreakdown};
use sched::{Micros, Request};

/// Why a service attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFault {
    /// Transient media error: the sector was unreadable on this
    /// revolution; a retry may succeed once it comes around again.
    Transient,
    /// The disk (or the block's member, with no parity path left) is
    /// gone — retrying cannot help.
    Down,
}

/// What one service attempt did: the time it took plus everything the
/// fault layer decided along the way. The healthy path is
/// [`ServiceOutcome::ok`]; providers without a fault plan never produce
/// anything else, so the engine's fault branches stay cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// Time paid by this attempt (any remap penalty already included).
    pub breakdown: ServiceBreakdown,
    /// The attempt failed; `None` means the data came back.
    pub fault: Option<ServiceFault>,
    /// A latent bad sector was remapped on the way: the relocation
    /// penalty (already inside `breakdown`), for event reporting.
    pub remap_penalty_us: Micros,
    /// The read was reconstructed from parity around this failed member.
    pub degraded: Option<u32>,
    /// A background rebuild I/O `(stripe, service_us)` rode behind this
    /// request, stealing member bandwidth after it completed.
    pub rebuild: Option<(u64, Micros)>,
}

impl ServiceOutcome {
    /// A faultless attempt.
    pub fn ok(breakdown: ServiceBreakdown) -> Self {
        ServiceOutcome {
            breakdown,
            fault: None,
            remap_penalty_us: 0,
            degraded: None,
            rebuild: None,
        }
    }

    /// A failed attempt that paid `breakdown`.
    fn failed(breakdown: ServiceBreakdown, fault: ServiceFault) -> Self {
        ServiceOutcome {
            fault: Some(fault),
            ..ServiceOutcome::ok(breakdown)
        }
    }
}

/// Something that can serve a request and report where its head is.
pub trait ServiceProvider {
    /// Current head cylinder.
    fn head(&self) -> u32;
    /// Number of cylinders (for [`sched::HeadState`]).
    fn cylinders(&self) -> u32;
    /// Serve `req` at simulation time `now_us`, advancing internal
    /// state. Without a fault plan there are no draws, no failed member
    /// and no rebuild: the outcome is always [`ServiceOutcome::ok`].
    fn service(&mut self, req: &Request, now_us: Micros) -> ServiceOutcome;
}

/// Add `b` to `total`, component by component.
fn add(total: &mut ServiceBreakdown, b: ServiceBreakdown) {
    total.seek_us += b.seek_us;
    total.rotation_us += b.rotation_us;
    total.transfer_us += b.transfer_us;
}

/// Scale a breakdown by a limping member's service-time multiplier.
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

    /// Wrap a disk behind a fault plan (member index 0). With
    /// [`FaultPlan::none`] this is bit-identical to [`DiskService::new`].
    pub fn with_faults(disk: Disk, plan: FaultPlan) -> Self {
        DiskService::with_faults_as_member(disk, plan, 0)
    }

    /// Like [`DiskService::with_faults`], but drawing from the fault
    /// stream of RAID member `member` — the striped path gives each
    /// member disk its own independent stream of the shared plan.
    pub fn with_faults_as_member(disk: Disk, plan: FaultPlan, member: usize) -> Self {
        DiskService {
            disk,
            faults: Some(FaultInjector::new(plan, member)),
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

    fn service(&mut self, req: &Request, now_us: Micros) -> ServiceOutcome {
        let Some(inj) = self.faults.as_mut() else {
            return ServiceOutcome::ok(self.disk.service(req.cylinder, req.bytes));
        };
        if inj.down(now_us) {
            // A single disk has no parity path: the request cannot be
            // served at any cost. Zero-time failure keeps the retry
            // budget (not the clock) in charge of termination.
            return ServiceOutcome::failed(ServiceBreakdown::default(), ServiceFault::Down);
        }
        let draw = inj.draw();
        let mut b = limp(inj, self.disk.service(req.cylinder, req.bytes));
        if draw.transient {
            // The attempt pays its full service time — the head moved and
            // the platter turned — but returns no data. A retry re-pays
            // rotation from the disk's tracked angle: one extra
            // revolution, exactly the paper's recoverable-error cost.
            return ServiceOutcome::failed(b, ServiceFault::Transient);
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

    fn service(&mut self, req: &Request, _now_us: Micros) -> ServiceOutcome {
        self.head = req.cylinder;
        ServiceOutcome::ok(ServiceBreakdown {
            seek_us: 0,
            rotation_us: 0,
            transfer_us: self.fixed_us + req.bytes * self.ns_per_byte / 1000,
        })
    }
}

/// A RAID-5 group behind the scheduler, as in the PanaViss server.
///
/// The request's cylinder is reinterpreted as a logical stripe position:
/// reads touch the data disk owning that block, writes take the
/// read-modify-write path on the data and parity members. Head state
/// reported to the scheduler is the *data-path member average* — a
/// deliberate simplification (per-member scheduling is outside the
/// paper's scope; its experiments schedule a single disk and size the
/// workload to one member's share, see `workload::NewsByteConfig`).
pub struct Raid5Service {
    raid: diskmodel::Raid5,
    block_bytes: u64,
    last_cylinder: u32,
    faults: Option<RaidFaultState>,
}

/// Mutable fault-layer state of a [`Raid5Service`]: one deterministic
/// stream per member plus the rebuild progress cursor.
struct RaidFaultState {
    injectors: Vec<FaultInjector>,
    rebuilt_stripes: u64,
    since_rebuild: u32,
}

impl Raid5Service {
    /// The paper's 4+1 group of Table-1 disks with 64-KB blocks.
    pub fn table1() -> Self {
        Raid5Service {
            raid: diskmodel::Raid5::table1(),
            block_bytes: 64 * 1024,
            last_cylinder: 0,
            faults: None,
        }
    }

    /// The paper's group behind a fault plan: per-member media-error
    /// streams, degraded reads around a failed member (reconstructed from
    /// the survivors at the cost of the slowest), and an optional
    /// background rebuild interleaved with foreground service. With
    /// [`FaultPlan::none`] this is bit-identical to
    /// [`Raid5Service::table1`].
    pub fn with_faults(plan: FaultPlan) -> Self {
        let raid = diskmodel::Raid5::table1();
        let injectors = (0..raid.members())
            .map(|m| FaultInjector::new(plan.clone(), m))
            .collect();
        Raid5Service {
            raid,
            block_bytes: 64 * 1024,
            last_cylinder: 0,
            faults: Some(RaidFaultState {
                injectors,
                rebuilt_stripes: 0,
                since_rebuild: 0,
            }),
        }
    }

    /// Access the underlying array.
    pub fn raid(&self) -> &diskmodel::Raid5 {
        &self.raid
    }

    /// Stripes reconstructed so far by the background rebuild.
    pub fn rebuilt_stripes(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.rebuilt_stripes)
    }

    /// One access to `member` that cost `b` on a healthy disk, through
    /// the member's fault stream: `Ok` with the cost (limped, plus the
    /// remap penalty of a latent bad sector) and that penalty, or `Err`
    /// with the time paid by a transient error. Without a fault plan,
    /// `Ok((b, 0))`.
    fn access(
        &mut self,
        member: usize,
        b: ServiceBreakdown,
    ) -> Result<(ServiceBreakdown, Micros), ServiceBreakdown> {
        let Some(state) = self.faults.as_mut() else {
            return Ok((b, 0));
        };
        let inj = &mut state.injectors[member];
        let draw = inj.draw();
        let mut b = limp(inj, b);
        if draw.transient {
            return Err(b);
        }
        let mut penalty = 0;
        if draw.bad_sector {
            penalty = inj.plan().remap_penalty_us;
            b.seek_us += penalty;
        }
        Ok((b, penalty))
    }
}

impl ServiceProvider for Raid5Service {
    fn head(&self) -> u32 {
        self.last_cylinder
    }

    fn cylinders(&self) -> u32 {
        self.raid.disk(0).geometry().cylinders()
    }

    fn service(&mut self, req: &Request, now_us: Micros) -> ServiceOutcome {
        self.last_cylinder = req.cylinder;
        let lba = req.cylinder as u64;
        let failed_member = self
            .faults
            .as_ref()
            .and_then(|f| f.injectors[0].plan().member_failure)
            .filter(|f| now_us >= f.at_us)
            .map(|f| f.member);

        let mut total = ServiceBreakdown::default();
        let mut degraded: Option<u32> = None;
        let mut remap_total: Micros = 0;
        match req.kind {
            sched::OpKind::Read => {
                let blocks = req.bytes.div_ceil(self.block_bytes).max(1);
                let bytes = self.block_bytes.min(req.bytes);
                for i in 0..blocks {
                    let block_lba = lba + i;
                    let member = self.raid.locate(block_lba).data_disk;
                    if failed_member == Some(member) {
                        // Reconstruct from the N−1 survivors; pays the max
                        // of their services. Survivors draw no media faults
                        // here — a reconstruction-time error would need two
                        // concurrent failures, outside this model's scope.
                        let b = self.raid.degraded_read(block_lba, bytes, member);
                        degraded = Some(member as u32);
                        add(&mut total, b);
                        continue;
                    }
                    let b = self.raid.read(block_lba, bytes);
                    match self.access(member, b) {
                        Ok((b, penalty)) => {
                            add(&mut total, b);
                            remap_total += penalty;
                        }
                        Err(paid) => {
                            add(&mut total, paid);
                            return ServiceOutcome {
                                degraded,
                                ..ServiceOutcome::failed(total, ServiceFault::Transient)
                            };
                        }
                    }
                }
            }
            sched::OpKind::Write => {
                // The write completes when the slower of the data/parity
                // RMW pairs does; attribute seek vs. rotation to that
                // gating member, whose fault stream covers the pair.
                // Degraded writes (data or parity member down) are served
                // at healthy cost — the array's write-back buffering is
                // outside this model (see DESIGN.md §6d).
                let member = self.raid.locate(lba).data_disk;
                let b = self
                    .raid
                    .write(lba, self.block_bytes.min(req.bytes.max(1)))
                    .critical();
                match self.access(member, b) {
                    Ok((b, penalty)) => {
                        total = b;
                        remap_total = penalty;
                    }
                    Err(paid) => return ServiceOutcome::failed(paid, ServiceFault::Transient),
                }
            }
        }

        // Background rebuild: once the member is down, every `every`-th
        // foreground completion tows one stripe reconstruction behind it.
        let mut rebuild = None;
        if let (Some(failed), Some(state)) = (failed_member, self.faults.as_mut()) {
            if let Some(spec) = state.injectors[0].plan().rebuild {
                if state.rebuilt_stripes < spec.stripes {
                    state.since_rebuild += 1;
                    if state.since_rebuild >= spec.every {
                        state.since_rebuild = 0;
                        let stripe = state.rebuilt_stripes;
                        state.rebuilt_stripes += 1;
                        let b = self.raid.rebuild_stripe(stripe, self.block_bytes, failed);
                        rebuild = Some((stripe, b.total_us()));
                    }
                }
            }
        }

        ServiceOutcome {
            breakdown: total,
            fault: None,
            remap_penalty_us: remap_total,
            degraded,
            rebuild,
        }
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
        let b = s.service(&req(100, 64 * 1024), 0).breakdown;
        assert_eq!(b.total_us(), 20_000);
        assert_eq!(s.head(), 100);
    }

    #[test]
    fn transfer_dominated_scales_with_bytes() {
        // 150 ns/byte ≈ 6.7 MB/s.
        let mut s = TransferDominated::scaled(1_000, 150, 3832);
        let small = s.service(&req(0, 16 * 1024), 0).breakdown.total_us();
        let large = s.service(&req(0, 128 * 1024), 0).breakdown.total_us();
        assert!(large > 7 * small / 2, "large {large} vs small {small}");
    }

    #[test]
    fn raid_service_reads_and_writes() {
        let mut s = Raid5Service::table1();
        let read = s.service(&req(100, 64 * 1024), 0).breakdown;
        assert!(read.total_us() > 0);
        assert_eq!(s.head(), 100);
        let mut w = Request::read(1, 0, u64::MAX, 200, 64 * 1024, QosVector::none());
        w.kind = sched::OpKind::Write;
        let write = s.service(&w, 0).breakdown;
        assert!(
            write.total_us() > read.total_us(),
            "RMW write {} should cost more than a read {}",
            write.total_us(),
            read.total_us()
        );
    }

    #[test]
    fn raid_large_read_spans_blocks() {
        let mut s = Raid5Service::table1();
        let one = s.service(&req(0, 64 * 1024), 0).breakdown.total_us();
        let four = s.service(&req(0, 256 * 1024), 0).breakdown.total_us();
        assert!(four > 2 * one, "4-block read {four} vs 1-block {one}");
    }

    #[test]
    fn disk_service_moves_head() {
        let mut s = DiskService::table1();
        s.service(&req(1234, 512), 0);
        assert_eq!(s.head(), 1234);
        assert_eq!(s.cylinders(), 3832);
        assert_eq!(s.disk().stats().requests, 1);
    }
}
