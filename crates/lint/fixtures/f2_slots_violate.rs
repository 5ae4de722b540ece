// F2 fixture: writing a kernel through the slab's raw `slots` skips the
// slab's listed mutators, and this fn marks no dirty domain.

impl GpuDevice {
    /// Writes work and rates back without marking.
    pub fn write_back(&mut self, slot: usize, left: f64, rate: f64) {
        let k = self.kernels.slots[slot].as_mut().expect("live slot");
        k.remaining = left;
        k.rate = rate;
    }
}
