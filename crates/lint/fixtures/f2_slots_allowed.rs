// F2 fixture: a scoped allow covers a write through the slab's raw
// `slots`.

impl GpuDevice {
    // lint:allow(dirty-domain, restores the work and rates a replay computed from unchanged rate inputs)
    pub fn write_back(&mut self, slot: usize, left: f64, rate: f64) {
        let k = self.kernels.slots[slot].as_mut().expect("live slot");
        k.remaining = left;
        k.rate = rate;
    }
}
