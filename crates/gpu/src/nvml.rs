//! NVML-style management facade.
//!
//! Real deployments discover and control GPUs through NVML (`nvidia-smi`
//! is a CLI over it): enumerate devices, query memory and utilization,
//! flip MIG mode, list instances. The examples and tests read devices
//! through this API rather than poking [`crate::device::GpuDevice`]
//! internals, mirroring how the paper's Parsl changes shell out to
//! `nvidia-smi` / `nvidia-cuda-mps-control`.
//!
//! The snapshots that read SM occupancy or attained service take the
//! current instant and sync the device to it first
//! ([`crate::device::GpuDevice::sync`]), so a time-shared device reports
//! its rotation as of `now`.

use crate::device::GpuId;
use crate::host::GpuFleet;
use crate::mig::profile_catalog;
use parfait_simcore::SimTime;
use serde::Serialize;

/// Snapshot of one device, in the spirit of `nvidia-smi -q`.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceInfo {
    /// Fleet index.
    pub index: u32,
    /// Product name.
    pub name: &'static str,
    /// Total HBM bytes.
    pub memory_total: u64,
    /// Allocated HBM bytes (all domains).
    pub memory_used: u64,
    /// SM count.
    pub sms: u32,
    /// Instantaneous SM occupancy in `[0,1]`.
    pub utilization: f64,
    /// Sharing mode name.
    pub mode: &'static str,
    /// Is MIG mode enabled?
    pub mig_enabled: bool,
    /// Live process contexts.
    pub contexts: usize,
}

/// Snapshot of one MIG instance, in the spirit of `nvidia-smi mig -lgi`.
#[derive(Debug, Clone, Serialize)]
pub struct MigInstanceInfo {
    /// Owning device index.
    pub gpu_index: u32,
    /// Instance id.
    pub instance_id: u32,
    /// Driver UUID (what `CUDA_VISIBLE_DEVICES` takes).
    pub uuid: String,
    /// Profile name.
    pub profile: &'static str,
    /// SMs inside the instance.
    pub sms: u32,
    /// Instance memory bytes.
    pub memory_bytes: u64,
}

/// One row of the `nvidia-smi`-style process list.
#[derive(Debug, Clone, Serialize)]
pub struct ProcessInfo {
    /// Device index.
    pub gpu_index: u32,
    /// Context id on the device.
    pub ctx: u32,
    /// Process label (worker name).
    pub label: String,
    /// Bytes of device memory held.
    pub memory_bytes: u64,
    /// Instantaneous busy SMs of the process's kernels.
    pub busy_sms: f64,
    /// Lifetime attained service in SM-seconds (DCGM-style).
    pub attained_sm_s: f64,
}

/// List resident processes on a device at `now` — the `nvidia-smi`
/// process table, extended with the DCGM-style attained-service column
/// that makes Table 1's contention/starvation story observable.
pub fn list_processes(fleet: &mut GpuFleet, gpu: GpuId, now: SimTime) -> Vec<ProcessInfo> {
    let d = fleet.device_mut(gpu);
    d.sync(now);
    d.contexts()
        .map(|c| ProcessInfo {
            gpu_index: gpu.0,
            ctx: c.id.0,
            label: c.label.clone(),
            memory_bytes: d.ctx_memory_used(c.id),
            busy_sms: d.ctx_busy_sms(c.id),
            attained_sm_s: d.attained_service(c.id),
        })
        .collect()
}

/// Number of devices.
pub fn device_count(fleet: &GpuFleet) -> usize {
    fleet.len()
}

/// Query one device at `now`.
pub fn device_info(fleet: &mut GpuFleet, gpu: GpuId, now: SimTime) -> DeviceInfo {
    let d = fleet.device_mut(gpu);
    d.sync(now);
    DeviceInfo {
        index: gpu.0,
        name: d.spec.name,
        memory_total: d.spec.memory_bytes,
        memory_used: d.memory_used(),
        sms: d.spec.sms,
        utilization: d.busy_sms() / d.spec.sms as f64,
        mode: d.mode().name(),
        mig_enabled: d.mig.enabled(),
        contexts: d.context_count(),
    }
}

/// Query every device at `now`.
pub fn list_devices(fleet: &mut GpuFleet, now: SimTime) -> Vec<DeviceInfo> {
    (0..fleet.len() as u32)
        .map(|i| device_info(fleet, GpuId(i), now))
        .collect()
}

/// Time-averaged SM utilization of a device from boot to `now`.
pub fn average_utilization(fleet: &mut GpuFleet, gpu: GpuId, now: SimTime) -> f64 {
    let d = fleet.device_mut(gpu);
    d.sync(now);
    d.average_utilization(now)
}

/// List MIG instances on a device (empty when MIG is off).
pub fn list_mig_instances(fleet: &GpuFleet, gpu: GpuId) -> Vec<MigInstanceInfo> {
    let d = fleet.device(gpu);
    d.mig
        .instances()
        .map(|i| MigInstanceInfo {
            gpu_index: gpu.0,
            instance_id: i.id,
            uuid: i.uuid.clone(),
            profile: i.profile.name,
            sms: i.sms,
            memory_bytes: i.memory_bytes,
        })
        .collect()
}

/// MIG profile names available on a device (what `nvidia-smi mig -lgip`
/// prints).
pub fn list_mig_profiles(fleet: &GpuFleet, gpu: GpuId) -> Vec<&'static str> {
    profile_catalog(&fleet.device(gpu).spec)
        .iter()
        .map(|p| p.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharing::DeviceMode;
    use crate::spec::GpuSpec;

    fn fleet() -> GpuFleet {
        let mut f = GpuFleet::new();
        f.add(GpuSpec::a100_40gb());
        f.add(GpuSpec::a100_40gb());
        f
    }

    #[test]
    fn enumerates_paper_testbed() {
        // §5.1: "a virtual machine with 2 A100-SXM4 GPUs with 40 GB".
        let mut f = fleet();
        assert_eq!(device_count(&f), 2);
        let infos = list_devices(&mut f, SimTime::ZERO);
        assert!(infos.iter().all(|i| i.name == "A100-SXM4-40GB"));
        assert!(infos
            .iter()
            .all(|i| i.memory_total == 40 * crate::spec::GIB));
        assert_eq!(infos[0].index, 0);
        assert_eq!(infos[1].index, 1);
    }

    #[test]
    fn info_reflects_mode_and_mig() {
        let mut f = fleet();
        let g = GpuId(0);
        f.device_mut(g).set_mode(DeviceMode::Mig).unwrap();
        let i0 = f.device_mut(g).mig_create("2g.10gb").unwrap();
        let info = device_info(&mut f, g, SimTime::ZERO);
        assert_eq!(info.mode, "mig");
        assert!(info.mig_enabled);
        let insts = list_mig_instances(&f, g);
        assert_eq!(insts.len(), 1);
        assert_eq!(insts[0].instance_id, i0);
        assert_eq!(insts[0].profile, "2g.10gb");
        assert_eq!(insts[0].sms, 28);
    }

    #[test]
    fn profile_listing_matches_catalog() {
        let f = fleet();
        let names = list_mig_profiles(&f, GpuId(0));
        assert_eq!(
            names,
            vec!["1g.5gb", "2g.10gb", "3g.20gb", "4g.20gb", "7g.40gb"]
        );
    }

    #[test]
    fn process_list_reports_memory_and_service() {
        use crate::{CtxBinding, KernelDesc};
        use parfait_simcore::{SimDuration, SimTime};
        let mut f = fleet();
        let g = GpuId(0);
        let ctx = f
            .device_mut(g)
            .create_context(SimTime::ZERO, "worker-7", CtxBinding::Bare)
            .unwrap();
        f.device_mut(g)
            .alloc_memory(SimTime::ZERO, ctx, 1 << 30)
            .unwrap();
        f.device_mut(g)
            .launch(
                SimTime::ZERO,
                ctx,
                KernelDesc::new("k", 540.0, 75_600, 75_600, 0.0),
                0,
            )
            .unwrap();
        let two = SimTime::ZERO + SimDuration::from_secs(2);
        f.device_mut(g).advance(two);
        let ps = list_processes(&mut f, g, two);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].label, "worker-7");
        assert_eq!(ps[0].memory_bytes, 1 << 30);
        assert!((ps[0].busy_sms - 108.0).abs() < 1e-9);
        assert!((ps[0].attained_sm_s - 216.0).abs() < 1e-6);
    }

    #[test]
    fn utilization_starts_at_zero() {
        let mut f = fleet();
        let info = device_info(&mut f, GpuId(0), SimTime::ZERO);
        assert_eq!(info.utilization, 0.0);
        assert_eq!(info.contexts, 0);
        assert_eq!(
            average_utilization(&mut f, GpuId(0), SimTime::from_secs(10)),
            0.0
        );
    }
}
