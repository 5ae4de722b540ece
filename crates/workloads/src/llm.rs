//! LLaMa2 inference cost model (§3.2, Figs. 2/4/5 of the paper).
//!
//! ## Calibration
//!
//! The paper runs Meta's reference fp32 PyTorch implementation, which is
//! far from roofline: its own measurements are ~180 s per 20-word
//! completion on CPU and ~40× faster on an A100 (§3.4), i.e. ≈4.5 s on
//! the GPU, and latency stops improving beyond ~20 SMs (Fig. 2). We encode
//! that operating point directly:
//!
//! * a decode step's GPU work is `2·params` FLOPs at a calibrated
//!   [`LlmSpec::kernel_efficiency`] (≈3 % of peak — eager fp32, batch 1),
//!   with a grid that saturates ~20 SMs;
//! * each decode step also spends [`LlmSpec::host_per_token`] on the CPU
//!   (Python sampling loop, kernel-launch serialization) — time another
//!   co-resident model can spend on the GPU, which is the mechanistic
//!   reason multiplexing wins in Figs. 4/5;
//! * prefill processes the whole prompt in one much wider launch;
//! * memory footprint = weights + KV cache at `max_seq` + workspace,
//!   which caps an 80 GB A100 at exactly four 7B instances (§5.2).

use parfait_faas::{ModelProfile, TaskBody, TaskCtx, TaskStep};
use parfait_gpu::{GpuSpec, KernelDesc, GIB};
use parfait_simcore::SimDuration;
use serde::Serialize;

/// Architecture + deployment parameters of one LLM.
#[derive(Debug, Clone, Serialize)]
pub struct LlmSpec {
    /// Name, e.g. `"llama2-7b"`.
    pub name: &'static str,
    /// Parameter count.
    pub params: f64,
    /// Transformer layers.
    pub layers: u32,
    /// Hidden dimension.
    pub d_model: u32,
    /// Bytes per weight/KV element (4 = fp32, 2 = fp16).
    pub dtype_bytes: u64,
    /// Longest supported sequence (KV cache is reserved for it).
    pub max_seq: u32,
    /// Tensor-parallel degree (13B runs on 2 GPUs in the paper's Fig. 2).
    pub tensor_parallel: u32,
    /// Achieved fraction of peak FLOPs for decode kernels.
    pub kernel_efficiency: f64,
    /// Host time per generated token (sampling loop, launch overhead).
    pub host_per_token: SimDuration,
    /// Host time per completion (tokenize, detokenize, RPC).
    pub host_per_completion: SimDuration,
    /// Thread blocks of a decode step's fused launch (sets wave
    /// granularity on small partitions).
    pub decode_blocks: u32,
    /// Concurrency ceiling of a decode step in SMs — the Fig. 2 knee.
    pub decode_max_sms: u32,
    /// HBM-bandwidth fraction a decode step consumes at full rate.
    pub decode_mem_intensity: f64,
}

impl LlmSpec {
    /// LLaMa2-7B.
    pub fn llama2_7b(dtype_bytes: u64) -> Self {
        LlmSpec {
            name: "llama2-7b",
            params: 6.74e9,
            layers: 32,
            d_model: 4096,
            dtype_bytes,
            max_seq: 2048,
            tensor_parallel: 1,
            kernel_efficiency: 0.030,
            host_per_token: SimDuration::from_millis(60),
            host_per_completion: SimDuration::from_millis(500),
            decode_blocks: 100,
            decode_max_sms: 20,
            decode_mem_intensity: 0.38,
        }
    }

    /// LLaMa2-13B (2-way tensor parallel on 40 GB parts, as in Fig. 2).
    pub fn llama2_13b(dtype_bytes: u64) -> Self {
        LlmSpec {
            name: "llama2-13b",
            params: 13.0e9,
            layers: 40,
            d_model: 5120,
            dtype_bytes,
            max_seq: 2048,
            tensor_parallel: 2,
            kernel_efficiency: 0.030,
            host_per_token: SimDuration::from_millis(75),
            host_per_completion: SimDuration::from_millis(600),
            decode_blocks: 100,
            decode_max_sms: 20,
            decode_mem_intensity: 0.38,
        }
    }

    /// LLaMa2-70B (8-way tensor parallel; catalog completeness).
    pub fn llama2_70b(dtype_bytes: u64) -> Self {
        LlmSpec {
            name: "llama2-70b",
            params: 70.0e9,
            layers: 80,
            d_model: 8192,
            dtype_bytes,
            max_seq: 4096,
            tensor_parallel: 8,
            kernel_efficiency: 0.030,
            host_per_token: SimDuration::from_millis(90),
            host_per_completion: SimDuration::from_millis(800),
            decode_blocks: 120,
            decode_max_sms: 24,
            decode_mem_intensity: 0.45,
        }
    }

    /// Weight bytes per GPU (tensor parallelism shards them).
    pub fn weight_bytes(&self) -> u64 {
        (self.params as u64 * self.dtype_bytes) / self.tensor_parallel as u64
    }

    /// KV-cache bytes per token per GPU (K and V for every layer).
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.layers as u64 * self.d_model as u64 * self.dtype_bytes
            / self.tensor_parallel as u64
    }

    /// Resident footprint per GPU: weights + KV at `max_seq` + workspace
    /// (activations, cuBLAS workspaces, CUDA context, allocator slack —
    /// sized so that exactly four fp16 7B instances fill an 80 GB A100,
    /// matching §5.2).
    pub fn footprint_bytes(&self) -> u64 {
        let workspace = 3 * GIB;
        self.weight_bytes() + self.kv_bytes_per_token() * self.max_seq as u64 + workspace
    }

    /// The [`ModelProfile`] handed to the FaaS worker.
    pub fn model_profile(&self) -> ModelProfile {
        // Stable id from the name + dtype.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.name.bytes().chain(self.dtype_bytes.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        ModelProfile {
            id: h,
            bytes: self.footprint_bytes(),
            shared_bytes: self.weight_bytes(),
        }
    }

    /// FLOPs of one decode step (per GPU under tensor parallelism).
    pub fn decode_flops(&self) -> f64 {
        2.0 * self.params / self.tensor_parallel as f64
    }

    /// GPU work of one decode step in SM-seconds on `spec`.
    pub fn decode_work(&self, spec: &GpuSpec) -> f64 {
        spec.flops_to_sm_seconds(self.decode_flops()) / self.kernel_efficiency
    }

    /// The decode kernel.
    pub fn decode_kernel(&self, spec: &GpuSpec) -> KernelDesc {
        KernelDesc::new(
            "llm.decode",
            self.decode_work(spec),
            self.decode_blocks,
            self.decode_max_sms,
            self.decode_mem_intensity,
        )
    }

    /// The prefill kernel for a `prompt_tokens`-long prompt: all tokens in
    /// one wide launch (prefill parallelizes across tokens, so it *can*
    /// fill the GPU — unlike decode).
    pub fn prefill_kernel(&self, spec: &GpuSpec, prompt_tokens: u32) -> KernelDesc {
        // Prefill reuses activations; ~0.5× decode cost per token.
        let work = self.decode_work(spec) * prompt_tokens as f64 * 0.5;
        let blocks = self.decode_blocks * prompt_tokens.max(1);
        KernelDesc::new("llm.prefill", work, blocks, blocks, 0.30)
    }

    /// End-to-end GPU+host time of one completion on a dedicated
    /// allocation of `sms` SMs — the Fig. 2 curve, analytically.
    pub fn solo_completion_seconds(
        &self,
        spec: &GpuSpec,
        sms: f64,
        prompt_tokens: u32,
        new_tokens: u32,
    ) -> f64 {
        let pre = self.prefill_kernel(spec, prompt_tokens).solo_runtime(sms);
        let dec = self.decode_kernel(spec).solo_runtime(sms);
        self.host_per_completion.as_secs_f64()
            + pre
            + new_tokens as f64
                * (self.host_per_token.as_secs_f64() + dec + self.allreduce_seconds())
    }

    /// Per-token tensor-parallel allreduce cost (zero when TP = 1).
    pub fn allreduce_seconds(&self) -> f64 {
        if self.tensor_parallel <= 1 {
            0.0
        } else {
            // NVLink latency + Python sync per decode step.
            0.004 * (self.tensor_parallel as f64).log2()
        }
    }

    /// CPU-only inference time for one completion — the paper quotes 180 s
    /// (7B) / 360 s (13B), "approximately 40 times slower" than the GPU.
    pub fn cpu_completion_seconds(&self, spec: &GpuSpec, prompt: u32, new_tokens: u32) -> f64 {
        40.0 * self.solo_completion_seconds(spec, spec.sms as f64, prompt, new_tokens)
    }
}

/// Request-length distribution for a deployment use case.
///
/// §3.2: LLaMa2 *text* handles single request–response exchanges while
/// LLaMa2-*Chat* targets dialogues — "the difference is crucial to the
/// expected runtime behavior due to the expected varying length of
/// interaction time and input". Prompt and response lengths are lognormal
/// (dialogue traffic is heavy-tailed).
#[derive(Debug, Clone, Serialize)]
pub struct RequestProfile {
    /// Use-case label.
    pub name: &'static str,
    /// Mean prompt tokens.
    pub prompt_mean: f64,
    /// Lognormal sigma of the prompt length.
    pub prompt_sigma: f64,
    /// Mean generated tokens.
    pub gen_mean: f64,
    /// Lognormal sigma of the generated length.
    pub gen_sigma: f64,
    /// Hard cap on either length (the model's context-window share).
    pub max_tokens: u32,
}

impl RequestProfile {
    /// Single request–response text completion (the paper's evaluation
    /// workload: ~20-word outputs).
    pub fn text() -> Self {
        RequestProfile {
            name: "text",
            prompt_mean: 16.0,
            prompt_sigma: 0.3,
            gen_mean: 27.0,
            gen_sigma: 0.2,
            max_tokens: 512,
        }
    }

    /// Dialogue traffic for LLaMa2-Chat: growing multi-turn context and
    /// longer, more variable responses.
    pub fn chat() -> Self {
        RequestProfile {
            name: "chat",
            prompt_mean: 96.0,
            prompt_sigma: 0.6,
            gen_mean: 80.0,
            gen_sigma: 0.5,
            max_tokens: 1024,
        }
    }

    /// Sample a `(prompt_tokens, new_tokens)` pair.
    pub fn sample(&self, rng: &mut parfait_simcore::SimRng) -> (u32, u32) {
        let draw = |rng: &mut parfait_simcore::SimRng, mean: f64, sigma: f64| -> u32 {
            let mu = mean.ln() - sigma * sigma / 2.0;
            (rng.lognormal(mu, sigma).round() as u32).clamp(1, self.max_tokens)
        };
        (
            draw(rng, self.prompt_mean, self.prompt_sigma),
            draw(rng, self.gen_mean, self.gen_sigma),
        )
    }
}

/// A text-completion task body: prefill, then `new_tokens` × (host +
/// decode kernel), with per-completion host overhead.
pub struct CompletionBody {
    spec: LlmSpec,
    gpu: GpuSpec,
    prompt_tokens: u32,
    new_tokens: u32,
    tokens_left: u32,
    stage: Stage,
}

enum Stage {
    Start,
    Prefill,
    TokenHost,
    TokenKernel,
    Finish,
}

impl CompletionBody {
    /// One completion of `new_tokens` after a `prompt_tokens` prompt.
    pub fn new(spec: LlmSpec, gpu: GpuSpec, prompt_tokens: u32, new_tokens: u32) -> Self {
        CompletionBody {
            spec,
            gpu,
            prompt_tokens,
            new_tokens,
            tokens_left: new_tokens,
            stage: Stage::Start,
        }
    }

    /// The paper's canonical "20-word sentence" request: ~16-token prompt,
    /// ~27 generated tokens.
    pub fn paper_request(spec: LlmSpec, gpu: GpuSpec) -> Self {
        CompletionBody::new(spec, gpu, 16, 27)
    }

    /// A request with lengths drawn from a use-case profile (text vs
    /// chat deployments, §3.2).
    pub fn sampled(
        spec: LlmSpec,
        gpu: GpuSpec,
        profile: &RequestProfile,
        rng: &mut parfait_simcore::SimRng,
    ) -> Self {
        let (prompt, gen) = profile.sample(rng);
        CompletionBody::new(spec, gpu, prompt, gen)
    }
}

impl TaskBody for CompletionBody {
    fn model(&self) -> Option<ModelProfile> {
        Some(self.spec.model_profile())
    }

    fn checkpointable(&self) -> bool {
        // Prompt and token budget are fixed at construction; the KV
        // cache a snapshot would carry is the model's private state.
        true
    }

    fn checkpoint_bytes(&self) -> u64 {
        // The durable session state is the KV cache grown so far:
        // prompt tokens plus every decoded token. Activation scratch
        // (the rest of the model's private footprint) is recomputed on
        // resume and never serialized.
        let decoded = self.new_tokens - self.tokens_left;
        self.spec.kv_bytes_per_token() * (self.prompt_tokens + decoded) as u64
    }

    fn next(&mut self, _ctx: &mut TaskCtx<'_>) -> TaskStep {
        loop {
            match self.stage {
                Stage::Start => {
                    self.stage = Stage::Prefill;
                    return TaskStep::Cpu(self.spec.host_per_completion);
                }
                Stage::Prefill => {
                    self.stage = Stage::TokenHost;
                    return TaskStep::Gpu(self.spec.prefill_kernel(&self.gpu, self.prompt_tokens));
                }
                Stage::TokenHost => {
                    if self.tokens_left == 0 {
                        self.stage = Stage::Finish;
                        continue;
                    }
                    self.stage = Stage::TokenKernel;
                    let host = self.spec.host_per_token
                        + SimDuration::from_secs_f64(self.spec.allreduce_seconds());
                    return TaskStep::Cpu(host);
                }
                Stage::TokenKernel => {
                    self.tokens_left -= 1;
                    self.stage = Stage::TokenHost;
                    return TaskStep::Gpu(self.spec.decode_kernel(&self.gpu));
                }
                Stage::Finish => return TaskStep::Done,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfait_simcore::SimRng;

    #[test]
    fn footprints_match_paper_constraints() {
        // fp16 7B ≈ 16.6 GiB ⇒ exactly 4 fit in 80 GiB (§5.2).
        let m = LlmSpec::llama2_7b(2);
        let fp = m.footprint_bytes() as f64 / GIB as f64;
        assert!((15.5..18.5).contains(&fp), "7B fp16 footprint {fp} GiB");
        assert_eq!((80.0 / fp) as u32, 4, "exactly four instances fit");

        // fp32 7B fits one 40 GB A100; fp32 13B does not (needs 2 GPUs).
        let m7_32 = LlmSpec::llama2_7b(4);
        assert!(m7_32.footprint_bytes() < 40 * GIB);
        let mut m13_32 = LlmSpec::llama2_13b(4);
        m13_32.tensor_parallel = 1;
        assert!(m13_32.footprint_bytes() > 40 * GIB, "13B fp32 needs 2 GPUs");
        // Sharded 2-way it fits per GPU.
        let m13 = LlmSpec::llama2_13b(4);
        assert!(m13.footprint_bytes() < 40 * GIB);
    }

    #[test]
    fn gpu_completion_near_paper_speed() {
        // §3.4: CPU ≈ 180 s for 7B and GPU ≈ 40× faster ⇒ ~4.5 s.
        let m = LlmSpec::llama2_7b(4);
        let spec = GpuSpec::a100_40gb();
        let t = m.solo_completion_seconds(&spec, 108.0, 16, 27);
        assert!((3.5..6.5).contains(&t), "GPU completion {t}s");
        let cpu = m.cpu_completion_seconds(&spec, 16, 27);
        assert!((140.0..260.0).contains(&cpu), "CPU completion {cpu}s");
    }

    #[test]
    fn fig2_knee_near_20_sms() {
        // Latency falls steeply up to ~20 SMs and is nearly flat beyond.
        let m = LlmSpec::llama2_7b(4);
        let spec = GpuSpec::a100_40gb();
        let t5 = m.solo_completion_seconds(&spec, 5.0, 16, 27);
        let t20 = m.solo_completion_seconds(&spec, 20.0, 16, 27);
        let t108 = m.solo_completion_seconds(&spec, 108.0, 16, 27);
        assert!(t5 / t20 > 2.0, "steep region: t5={t5} t20={t20}");
        assert!(t20 / t108 < 1.25, "flat region: t20={t20} t108={t108}");
    }

    #[test]
    fn monotone_latency_in_sms() {
        let m = LlmSpec::llama2_7b(4);
        let spec = GpuSpec::a100_40gb();
        let mut prev = f64::INFINITY;
        for sms in (5..=108).step_by(1) {
            let t = m.solo_completion_seconds(&spec, sms as f64, 16, 27);
            assert!(t <= prev + 1e-9, "latency rose at {sms} SMs");
            prev = t;
        }
    }

    #[test]
    fn thirteen_b_slower_than_seven_b() {
        let spec = GpuSpec::a100_40gb();
        let t7 = LlmSpec::llama2_7b(4).solo_completion_seconds(&spec, 108.0, 16, 27);
        let t13 = LlmSpec::llama2_13b(4).solo_completion_seconds(&spec, 108.0, 16, 27);
        assert!(t13 > t7, "t13={t13} t7={t7}");
        // 2-way TP shards the per-GPU work, so < 2× despite 1.9× params.
        assert!(t13 / t7 < 1.9);
    }

    #[test]
    fn completion_body_step_sequence() {
        let spec = GpuSpec::a100_80gb();
        let mut b = CompletionBody::new(LlmSpec::llama2_7b(2), spec, 16, 3);
        let mut rng = SimRng::new(0);
        let mut seq = Vec::new();
        for _ in 0..64 {
            let mut ctx = TaskCtx {
                rng: &mut rng,
                now: parfait_simcore::SimTime::ZERO,
            };
            match b.next(&mut ctx) {
                TaskStep::Cpu(_) => seq.push('c'),
                TaskStep::Gpu(k) => seq.push(if k.name.contains("prefill") { 'P' } else { 'g' }),
                TaskStep::Done => {
                    seq.push('.');
                    break;
                }
                _ => seq.push('?'),
            }
        }
        let s: String = seq.into_iter().collect();
        assert_eq!(s, "cPcgcgcg.");
        assert!(b.model().is_some());
    }

    #[test]
    fn kv_cache_math() {
        let m = LlmSpec::llama2_7b(2);
        // 2 × 32 layers × 4096 dim × 2 B = 512 KiB per token.
        assert_eq!(m.kv_bytes_per_token(), 1 << 19);
        let m13 = LlmSpec::llama2_13b(2);
        // Sharded across 2 GPUs.
        assert_eq!(m13.kv_bytes_per_token(), 2 * 40 * 5120 * 2 / 2);
    }

    #[test]
    fn request_profiles_have_paper_shapes() {
        let mut rng = SimRng::new(1);
        let text = RequestProfile::text();
        let chat = RequestProfile::chat();
        let n = 20_000;
        let mean = |p: &RequestProfile, rng: &mut SimRng| -> (f64, f64) {
            let mut sp = 0.0;
            let mut sg = 0.0;
            for _ in 0..n {
                let (a, b) = p.sample(rng);
                sp += a as f64;
                sg += b as f64;
            }
            (sp / n as f64, sg / n as f64)
        };
        let (tp, tg) = mean(&text, &mut rng);
        let (cp, cg) = mean(&chat, &mut rng);
        assert!((tp - 16.0).abs() < 1.0, "text prompt mean {tp}");
        assert!((tg - 27.0).abs() < 1.0, "text gen mean {tg}");
        assert!(cp > 2.0 * tp, "chat prompts much longer: {cp} vs {tp}");
        assert!(cg > 2.0 * tg, "chat responses much longer: {cg} vs {tg}");
    }

    #[test]
    fn sampled_body_uses_profile_lengths() {
        let mut rng = SimRng::new(2);
        let gpu = GpuSpec::a100_80gb();
        let mut b = CompletionBody::sampled(
            LlmSpec::llama2_7b(2),
            gpu,
            &RequestProfile::text(),
            &mut rng,
        );
        let mut gpu_steps = 0;
        for _ in 0..4096 {
            let mut ctx = TaskCtx {
                rng: &mut rng,
                now: parfait_simcore::SimTime::ZERO,
            };
            match b.next(&mut ctx) {
                TaskStep::Gpu(_) => gpu_steps += 1,
                TaskStep::Done => break,
                _ => {}
            }
        }
        // prefill + one decode per sampled token; text ~= 27 ± tail.
        assert!((10..=520).contains(&gpu_steps), "gpu steps {gpu_steps}");
    }

    #[test]
    fn model_profile_ids_distinct() {
        let a = LlmSpec::llama2_7b(2).model_profile();
        let b = LlmSpec::llama2_7b(4).model_profile();
        let c = LlmSpec::llama2_13b(2).model_profile();
        assert_ne!(a.id, b.id);
        assert_ne!(a.id, c.id);
    }
}
