// F2 fixture: a write through the kernel table's raw `list` that marks
// the kernel's domain passes.

impl GpuDevice {
    pub fn retune(&mut self, p: usize, rate: f64) {
        let k = &mut self.kernels.list[p];
        k.rate = rate;
        let dom = k.dom;
        self.mark_domain_dirty(dom);
    }
}
