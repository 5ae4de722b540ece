//! Multi-Instance GPU (MIG) management.
//!
//! MIG slices an Ampere-class GPU into hardware-isolated instances. An A100
//! exposes **7 compute slices** (14 SMs each; 98 of 108 SMs are usable in
//! MIG mode) and **8 memory slices** (1/8 of HBM each). Profiles combine
//! them — `1g.10gb`, `2g.20gb`, `3g.40gb`, `4g.40gb`, `7g.80gb` on the
//! 80 GB part (§4.2 of the paper; 5/10/20/20/40 GB on the 40 GB part) —
//! and may only start at fixed slice offsets, which is why MIG can serve
//! at most `⌊7/g⌋` equal instances and why the paper finds MPS's
//! arbitrary percentages finer-grained (§5.2).
//!
//! Reconfiguration requires destroying instances, which in turn requires
//! that no process is resident — the "requires GPU reset and application
//! restart" drawback row of Table 1. The reset cost itself is modelled by
//! `parfait-core::reconfig`.

use crate::device::GpuId;
use crate::error::{GpuError, Result};
use crate::spec::GpuSpec;
use serde::Serialize;
use std::collections::BTreeMap;

/// A MIG profile shape: `<g>g.<mem>gb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MigProfile {
    /// Catalog name for this device, e.g. `"2g.20gb"`.
    pub name: &'static str,
    /// Compute slices (the `g` count).
    pub compute_slices: u8,
    /// Memory slices out of 8.
    pub memory_slices: u8,
}

impl MigProfile {
    /// Start offsets (compute-slice index) where this profile may be
    /// placed on an A100/H100-style 7-slice part.
    pub fn valid_starts(&self) -> &'static [u8] {
        match self.compute_slices {
            1 => &[0, 1, 2, 3, 4, 5, 6],
            2 => &[0, 2, 4],
            3 => &[0, 4],
            4 => &[0],
            7 => &[0],
            _ => &[],
        }
    }
}

/// Profile catalog for a spec (names depend on memory size).
pub fn profile_catalog(spec: &GpuSpec) -> Vec<MigProfile> {
    if !spec.mig_capable {
        return Vec::new();
    }
    // Memory per slice in whole GB for naming, e.g. 80 GiB /8 → "10gb".
    let per_slice_gb = spec.memory_bytes / 8 / (1 << 30);
    let name = |g: u8, m: u8| -> &'static str {
        // Catalog names for the parts we model; fall back to a generic
        // label for exotic sizes.
        match (g, m, per_slice_gb) {
            (1, 1, 5) => "1g.5gb",
            (2, 2, 5) => "2g.10gb",
            (3, 4, 5) => "3g.20gb",
            (4, 4, 5) => "4g.20gb",
            (7, 8, 5) => "7g.40gb",
            (1, 1, 10) => "1g.10gb",
            (2, 2, 10) => "2g.20gb",
            (3, 4, 10) => "3g.40gb",
            (4, 4, 10) => "4g.40gb",
            (7, 8, 10) => "7g.80gb",
            _ => "custom",
        }
    };
    [(1u8, 1u8), (2, 2), (3, 4), (4, 4), (7, 8)]
        .into_iter()
        .map(|(g, m)| MigProfile {
            name: name(g, m),
            compute_slices: g,
            memory_slices: m,
        })
        .collect()
}

/// A live MIG instance.
#[derive(Debug, Clone, Serialize)]
pub struct MigInstance {
    /// Manager-local id.
    pub id: u32,
    /// Driver-style UUID handed to `CUDA_VISIBLE_DEVICES`.
    pub uuid: String,
    /// Shape.
    pub profile: MigProfile,
    /// First compute slice.
    pub start_slice: u8,
    /// SMs available inside the instance.
    pub sms: u32,
    /// Bytes of HBM owned by the instance.
    pub memory_bytes: u64,
    /// Fraction of device HBM bandwidth owned by the instance
    /// (proportional to compute slices).
    pub bandwidth_fraction: f64,
}

/// Per-device MIG state machine.
#[derive(Debug, Clone)]
pub struct MigManager {
    /// The device whose instances this manager creates (named in their
    /// UUIDs).
    gpu: GpuId,
    enabled: bool,
    instances: BTreeMap<u32, MigInstance>,
    next_id: u32,
    /// Compute-slice occupancy (7 slots).
    slices: [bool; 7],
    mem_slices_used: u8,
}

impl MigManager {
    /// Fresh manager of device `gpu`, MIG disabled.
    pub fn new(gpu: GpuId) -> Self {
        MigManager {
            gpu,
            enabled: false,
            instances: BTreeMap::new(),
            next_id: 0,
            slices: [false; 7],
            mem_slices_used: 0,
        }
    }

    /// Is MIG mode on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enable MIG mode. The *caller* (device) must verify the GPU is idle —
    /// flipping MIG mode requires a GPU reset.
    pub fn set_enabled(&mut self, on: bool) -> Result<()> {
        if !on && !self.instances.is_empty() {
            return Err(GpuError::DeviceBusy {
                contexts: self.instances.len(),
            });
        }
        self.enabled = on;
        Ok(())
    }

    /// Live instances, ordered by id.
    pub fn instances(&self) -> impl Iterator<Item = &MigInstance> {
        self.instances.values()
    }

    /// Number of live instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Look up by manager-local id.
    pub fn get(&self, id: u32) -> Option<&MigInstance> {
        self.instances.get(&id)
    }

    /// Resolve a driver UUID to an instance.
    pub fn by_uuid(&self, uuid: &str) -> Option<&MigInstance> {
        self.instances.values().find(|i| i.uuid == uuid)
    }

    /// Free compute slices remaining.
    pub fn free_slices(&self) -> u8 {
        self.slices.iter().filter(|s| !**s).count() as u8
    }

    /// Create an instance of `profile_name` on `spec`. First-fit over the
    /// profile's valid starts.
    pub fn create(&mut self, spec: &GpuSpec, profile_name: &str) -> Result<u32> {
        if !self.enabled {
            return Err(GpuError::WrongMode {
                expected: "MIG",
                actual: "non-MIG",
            });
        }
        let profile = profile_catalog(spec)
            .into_iter()
            .find(|p| p.name == profile_name)
            .ok_or_else(|| GpuError::MigProfileUnknown(profile_name.to_string()))?;
        let g = profile.compute_slices as usize;
        let start = profile
            .valid_starts()
            .iter()
            .copied()
            .find(|&s| {
                let s = s as usize;
                s + g <= 7 && self.slices[s..s + g].iter().all(|b| !b)
            })
            .ok_or(GpuError::MigPlacement {
                profile: profile.name,
            })?;
        if self.mem_slices_used + profile.memory_slices > 8 {
            return Err(GpuError::MigPlacement {
                profile: profile.name,
            });
        }
        for b in &mut self.slices[start as usize..start as usize + g] {
            *b = true;
        }
        self.mem_slices_used += profile.memory_slices;
        let id = self.next_id;
        self.next_id += 1;
        let inst = MigInstance {
            id,
            uuid: instance_uuid(self.gpu, id, profile.name),
            profile,
            start_slice: start,
            sms: spec.mig_slice_sms * profile.compute_slices as u32,
            memory_bytes: spec.memory_bytes / 8 * profile.memory_slices as u64,
            bandwidth_fraction: profile.compute_slices as f64 / 7.0,
        };
        self.instances.insert(id, inst);
        Ok(id)
    }

    /// Destroy an instance (must have no resident contexts — enforced by
    /// the device, which owns the context table).
    pub fn destroy(&mut self, id: u32) -> Result<MigInstance> {
        let inst = self
            .instances
            .remove(&id)
            .ok_or(GpuError::UnknownInstance(id))?;
        let s = inst.start_slice as usize;
        let g = inst.profile.compute_slices as usize;
        for b in &mut self.slices[s..s + g] {
            *b = false;
        }
        self.mem_slices_used -= inst.profile.memory_slices;
        Ok(inst)
    }

    /// Destroy all instances (GPU reset path).
    pub fn destroy_all(&mut self) {
        self.instances.clear();
        self.slices = [false; 7];
        self.mem_slices_used = 0;
    }
}

/// The NVML-style UUID of instance `id` of `profile` on device `gpu`:
/// `MIG-GPU{gpu}-{id}-{profile}`.
fn instance_uuid(gpu: GpuId, id: u32, profile: &str) -> String {
    format!("MIG-GPU{}-{id}-{profile}", gpu.0)
}

/// The device a UUID in [`instance_uuid`]'s form names, or `None` for a
/// UUID in another form. Only that device's manager creates such a UUID,
/// so no other device holds it; whether the named one still does is the
/// caller's lookup.
pub fn uuid_gpu(uuid: &str) -> Option<GpuId> {
    let (gpu, _) = uuid.strip_prefix("MIG-GPU")?.split_once('-')?;
    gpu.parse().ok().map(GpuId)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> (MigManager, GpuSpec) {
        mgr_of(GpuId(0))
    }

    fn mgr_of(gpu: GpuId) -> (MigManager, GpuSpec) {
        let mut m = MigManager::new(gpu);
        m.set_enabled(true).unwrap();
        (m, GpuSpec::a100_80gb())
    }

    #[test]
    fn catalog_matches_paper_names_80gb() {
        let names: Vec<_> = profile_catalog(&GpuSpec::a100_80gb())
            .iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(
            names,
            vec!["1g.10gb", "2g.20gb", "3g.40gb", "4g.40gb", "7g.80gb"]
        );
    }

    #[test]
    fn catalog_matches_40gb_names() {
        let names: Vec<_> = profile_catalog(&GpuSpec::a100_40gb())
            .iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(
            names,
            vec!["1g.5gb", "2g.10gb", "3g.20gb", "4g.20gb", "7g.40gb"]
        );
    }

    #[test]
    fn non_mig_part_has_empty_catalog() {
        assert!(profile_catalog(&GpuSpec::mi210()).is_empty());
    }

    #[test]
    fn create_requires_mig_mode() {
        let mut m = MigManager::new(GpuId(0));
        let err = m.create(&GpuSpec::a100_80gb(), "1g.10gb").unwrap_err();
        assert!(matches!(err, GpuError::WrongMode { .. }));
    }

    #[test]
    fn seven_1g_instances_fit_and_eighth_fails() {
        let (mut m, spec) = mgr();
        for _ in 0..7 {
            m.create(&spec, "1g.10gb").unwrap();
        }
        assert_eq!(m.instance_count(), 7);
        assert!(matches!(
            m.create(&spec, "1g.10gb"),
            Err(GpuError::MigPlacement { .. })
        ));
    }

    #[test]
    fn instance_resources_scale_with_profile() {
        let (mut m, spec) = mgr_of(GpuId(3));
        let id = m.create(&spec, "3g.40gb").unwrap();
        let inst = m.get(id).unwrap();
        assert_eq!(inst.sms, 42); // 3 slices × 14 SMs
        assert_eq!(inst.memory_bytes, spec.memory_bytes / 8 * 4);
        assert!((inst.bandwidth_fraction - 3.0 / 7.0).abs() < 1e-12);
        assert!(inst.uuid.contains("MIG-GPU3"));
    }

    #[test]
    fn paper_partitions_two_three_four_way() {
        // §5.2: 2 procs → 3g each; 3 → 2g each; 4 → 1g each.
        let (mut m, spec) = mgr();
        let a = m.create(&spec, "3g.40gb").unwrap();
        let b = m.create(&spec, "3g.40gb").unwrap();
        assert_eq!(m.instance_count(), 2);
        m.destroy(a).unwrap();
        m.destroy(b).unwrap();

        for _ in 0..3 {
            m.create(&spec, "2g.20gb").unwrap();
        }
        assert_eq!(m.instance_count(), 3);
        m.destroy_all();

        for _ in 0..4 {
            m.create(&spec, "1g.10gb").unwrap();
        }
        assert_eq!(m.instance_count(), 4);
    }

    #[test]
    fn placement_rules_block_misaligned_starts() {
        let (mut m, spec) = mgr();
        // Occupy slice 0 with 1g; 3g must then go to start 4; a second 3g
        // has nowhere to go even though 3 slices (1,2,3) are free.
        m.create(&spec, "1g.10gb").unwrap();
        let b = m.create(&spec, "3g.40gb").unwrap();
        assert_eq!(m.get(b).unwrap().start_slice, 4);
        assert!(matches!(
            m.create(&spec, "3g.40gb"),
            Err(GpuError::MigPlacement { .. })
        ));
        assert_eq!(m.free_slices(), 3);
    }

    #[test]
    fn memory_slices_limit_enforced() {
        let (mut m, spec) = mgr();
        // 3g.40gb uses 4 memory slices; two of them exhaust all 8 memory
        // slices even though a compute slice remains.
        m.create(&spec, "3g.40gb").unwrap();
        m.create(&spec, "3g.40gb").unwrap();
        assert_eq!(m.free_slices(), 1);
        assert!(m.create(&spec, "1g.10gb").is_err());
    }

    #[test]
    fn destroy_frees_slices_and_unknown_fails() {
        let (mut m, spec) = mgr();
        let id = m.create(&spec, "7g.80gb").unwrap();
        assert_eq!(m.free_slices(), 0);
        m.destroy(id).unwrap();
        assert_eq!(m.free_slices(), 7);
        assert!(matches!(m.destroy(id), Err(GpuError::UnknownInstance(_))));
    }

    #[test]
    fn disable_requires_no_instances() {
        let (mut m, spec) = mgr();
        m.create(&spec, "1g.10gb").unwrap();
        assert!(m.set_enabled(false).is_err());
        m.destroy_all();
        m.set_enabled(false).unwrap();
        assert!(!m.enabled());
    }

    #[test]
    fn uuid_lookup() {
        let (mut m, spec) = mgr();
        let id = m.create(&spec, "2g.20gb").unwrap();
        let uuid = m.get(id).unwrap().uuid.clone();
        assert_eq!(m.by_uuid(&uuid).unwrap().id, id);
        assert!(m.by_uuid("MIG-nonexistent").is_none());
    }

    #[test]
    fn uuid_names_its_device() {
        let (mut m, spec) = mgr_of(GpuId(412));
        let id = m.create(&spec, "3g.40gb").unwrap();
        assert_eq!(uuid_gpu(&m.get(id).unwrap().uuid), Some(GpuId(412)));
        assert_eq!(uuid_gpu("MIG-GPU0-0-7g.80gb"), Some(GpuId(0)));
        for other in [
            "MIG-nonexistent",
            "MIG-GPU",
            "MIG-GPU3",
            "MIG-GPUx-0-1g.10gb",
            "GPU-3-0",
        ] {
            assert_eq!(uuid_gpu(other), None, "{other}");
        }
    }
}
