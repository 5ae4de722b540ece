// F2 fixture: a scoped allow covers a write through the kernel table's
// raw `list`.

impl GpuDevice {
    // lint:allow(dirty-domain, restores the work and rates a replay computed from unchanged rate inputs)
    pub fn write_back(&mut self, p: usize, left: f64, rate: f64) {
        let k = &mut self.kernels.list[p];
        k.remaining = left;
        k.rate = rate;
    }
}
