//! Property-based tests for the workload models.

use parfait_gpu::GpuSpec;
use parfait_simcore::SimRng;
use parfait_workloads::dnn::layers::{NetBuilder, Shape};
use parfait_workloads::dnn::{exec, models};
use parfait_workloads::molecular::{random_molecule, Chemistry};
use parfait_workloads::{trace, LlmSpec, Mlp};
use proptest::prelude::*;

proptest! {
    /// Conv layer algebra: FLOPs and params scale linearly with output
    /// channels, and output spatial dims shrink with stride.
    #[test]
    fn conv_scaling_laws(
        c_in in 1u32..64,
        c_out in 1u32..64,
        k in prop::sample::select(vec![1u32, 3, 5, 7]),
        stride in 1u32..3,
        hw in 8u32..64,
    ) {
        let pad = k / 2;
        let mut b1 = NetBuilder::new(Shape { c: c_in, h: hw, w: hw });
        b1.conv("c", c_out, k, stride, pad, false);
        let l1 = &b1.build()[0];
        let mut b2 = NetBuilder::new(Shape { c: c_in, h: hw, w: hw });
        b2.conv("c", c_out * 2, k, stride, pad, false);
        let l2 = &b2.build()[0];
        prop_assert!((l2.flops / l1.flops - 2.0).abs() < 1e-9);
        prop_assert_eq!(l2.params, l1.params * 2);
        prop_assert!(l1.flops > 0.0);
        if stride == 2 {
            prop_assert!(l1.out.h <= hw / 2 + 1);
        }
    }

    /// Every catalog model has positive per-layer FLOPs and a 1000-way
    /// classifier head.
    #[test]
    fn model_catalog_well_formed(
        name in prop::sample::select(vec![
            "alexnet", "vgg11", "vgg16", "resnet18", "resnet34",
            "resnet50", "resnet101", "resnet152",
        ]),
    ) {
        let m = models::by_name(name).unwrap();
        prop_assert!(m.layers.iter().all(|l| l.flops > 0.0));
        prop_assert!(m.params() > 1_000_000);
        let last = m.layers.last().unwrap();
        prop_assert_eq!(last.out.c, 1000);
    }

    /// CNN solo latency is monotone non-increasing in the SM allocation
    /// for any batch size.
    #[test]
    fn cnn_latency_monotone(batch in 1u32..32, name in prop::sample::select(vec!["resnet50", "alexnet"])) {
        let m = models::by_name(name).unwrap();
        let spec = GpuSpec::a100_80gb();
        let mut prev = f64::INFINITY;
        for sms in [4.0, 8.0, 16.0, 32.0, 64.0, 108.0] {
            let t = exec::solo_latency(&m, &spec, batch, sms);
            prop_assert!(t <= prev + 1e-9, "latency rose at {sms} SMs (batch {batch})");
            prev = t;
        }
    }

    /// The LLM footprint decomposes exactly and shards with tensor
    /// parallelism.
    #[test]
    fn llm_footprint_decomposition(dtype in prop::sample::select(vec![2u64, 4])) {
        for mk in [LlmSpec::llama2_7b, LlmSpec::llama2_13b, LlmSpec::llama2_70b] {
            let m = mk(dtype);
            let fp = m.footprint_bytes();
            prop_assert!(fp > m.weight_bytes());
            prop_assert_eq!(
                fp,
                m.weight_bytes() + m.kv_bytes_per_token() * m.max_seq as u64 + 3 * parfait_gpu::GIB
            );
            let profile = m.model_profile();
            prop_assert_eq!(profile.bytes, fp);
            prop_assert_eq!(profile.shared_bytes, m.weight_bytes());
        }
    }

    /// LLM completion latency is monotone in SMs and in generated tokens.
    #[test]
    fn llm_latency_monotone(sms_a in 2u32..108, tokens in 1u32..64) {
        let m = LlmSpec::llama2_7b(4);
        let spec = GpuSpec::a100_40gb();
        let t_a = m.solo_completion_seconds(&spec, sms_a as f64, 16, tokens);
        let t_b = m.solo_completion_seconds(&spec, sms_a as f64 + 10.0, 16, tokens);
        prop_assert!(t_b <= t_a + 1e-9);
        let t_more = m.solo_completion_seconds(&spec, sms_a as f64, 16, tokens + 1);
        prop_assert!(t_more > t_a);
    }

    /// Arrival traces are sorted and have the requested length.
    #[test]
    fn traces_sorted(seed in any::<u64>(), rate in 0.1f64..100.0, n in 1usize..500) {
        let mut rng = SimRng::new(seed);
        let t = trace::poisson(&mut rng, rate, n);
        prop_assert_eq!(t.len(), n);
        prop_assert!(t.arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    /// MLP predictions stay finite for any input in the training domain,
    /// and the chemistry oracle is deterministic.
    #[test]
    fn mlp_and_oracle_sane(seed in any::<u64>(), x in proptest::collection::vec(-1.0f64..1.0, 8)) {
        let mut rng = SimRng::new(seed);
        let net = Mlp::new(&mut rng, &[8, 16, 1]);
        let y = net.predict(&x);
        prop_assert!(y.is_finite());
        let chem = Chemistry::default();
        let m = random_molecule(0, &mut rng);
        prop_assert_eq!(chem.true_ip(&m), chem.true_ip(&m));
    }
}
