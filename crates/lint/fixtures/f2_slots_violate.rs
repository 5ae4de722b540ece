// F2 fixture: writing a kernel through the kernel table's raw `list`
// skips the table's listed mutators, and this fn marks no dirty domain.

impl GpuDevice {
    /// Writes work and rates back without marking.
    pub fn write_back(&mut self, p: usize, left: f64, rate: f64) {
        let k = &mut self.kernels.list[p];
        k.remaining = left;
        k.rate = rate;
    }
}
