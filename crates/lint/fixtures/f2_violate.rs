// F2 fixture: a GpuDevice method mutates rate-feeding state without
// marking a dirty domain. The same shape on another type is out of
// scope, and read-only methods never need marks.

impl GpuDevice {
    /// Appending a kernel changes the domain's rate inputs — and this
    /// fn forgets to mark it.
    pub fn sneak_launch(&mut self, k: ActiveKernel) {
        self.kernels.push(k);
    }

    /// Reads don't need marks.
    pub fn peek(&self) -> usize {
        self.kernels.len()
    }
}

impl SomethingElse {
    /// Identical body, different self type: F2 does not apply.
    pub fn unrelated(&mut self, k: ActiveKernel) {
        self.kernels.push(k);
    }
}
