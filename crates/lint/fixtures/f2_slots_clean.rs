// F2 fixture: a write through the slab's raw `slots` that marks the
// kernel's domain passes.

impl GpuDevice {
    pub fn retune(&mut self, slot: usize, rate: f64) {
        let k = self.kernels.slots[slot].as_mut().expect("live slot");
        k.rate = rate;
        let dom = k.dom;
        self.mark_domain_dirty(dom);
    }
}
