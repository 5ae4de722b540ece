// F2 fixture: every rate-state mutation marks the affected domain.

impl GpuDevice {
    pub fn launch(&mut self, dom: u32, k: ActiveKernel) {
        self.kernels.push(k);
        self.mark_domain_dirty(dom);
    }

    pub fn set_mode(&mut self, mode: DeviceMode) {
        self.mode = mode;
        self.mark_all_dirty();
    }

    pub fn set_mps_interference(&mut self, x: f64) {
        self.mps_interference = x;
        self.mark_all_dirty();
    }

    pub fn collect(&mut self, dom: u32) {
        self.kernels.remove_where(|k| k.done);
        self.mark_domain_dirty(dom);
    }

    pub fn rates_equal(&self, other: f64) -> bool {
        self.slowdown == other
    }
}
