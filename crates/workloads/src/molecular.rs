//! The molecular-design active-learning campaign (§3.1 / Fig. 3).
//!
//! The paper's application (Colmena + Parsl, MOSES molecules, quantum
//! chemistry) runs the loop: simulate molecules → train an ML emulator →
//! rank a large candidate pool with the emulator → simulate the most
//! promising candidates → repeat. We reproduce the *loop itself* with a
//! synthetic but honest instantiation:
//!
//! * molecules are feature vectors; a deterministic nonlinear **oracle**
//!   plays the quantum-chemistry code, with configurable noise and a
//!   CPU-seconds cost model (simulation runs on the CPU executor — the
//!   source of the GPU idle gaps in Fig. 3);
//! * the emulator is a real [`crate::mlp::Mlp`] trained in-process, so
//!   active learning genuinely outperforms random selection (tested);
//! * training and batch inference are GPU tasks whose kernel streams
//!   occupy the simulated GPU, producing the Fig. 3 phase timeline.

use crate::mlp::Regressor;
use parfait_faas::app::bodies::{CpuBurn, KernelSeq};
use parfait_faas::{submit, AppCall, Driver, FaasWorld, TaskId};
use parfait_gpu::KernelDesc;
use parfait_simcore::{streams, Engine, SimDuration, SimRng};
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Feature dimension of a molecule descriptor.
pub const FEATURES: usize = 8;

/// A candidate molecule.
#[derive(Debug, Clone, Serialize)]
pub struct Molecule {
    /// Identity within the campaign.
    pub id: u64,
    /// Descriptor (normalized physico-chemical features).
    pub features: Vec<f64>,
}

/// The "quantum chemistry" oracle: a deterministic nonlinear ionization-
/// potential surface plus simulation noise.
#[derive(Debug, Clone)]
pub struct Chemistry {
    /// Gaussian noise sigma applied per simulation.
    pub noise: f64,
}

impl Default for Chemistry {
    fn default() -> Self {
        Chemistry { noise: 0.05 }
    }
}

impl Chemistry {
    /// Noise-free ground truth (eV-ish scale, higher is better here).
    pub fn true_ip(&self, m: &Molecule) -> f64 {
        let f = &m.features;
        9.0 + 1.5 * (2.5 * f[0]).sin() + 1.2 * f[1] * f[2] - 0.9 * f[3] * f[3] + 0.6 * f[4]
            - 0.4 * (f[5] + f[6]).cos()
            + 0.3 * f[7]
    }

    /// One simulated measurement.
    pub fn simulate(&self, m: &Molecule, rng: &mut SimRng) -> f64 {
        self.true_ip(m) + rng.normal(0.0, self.noise)
    }
}

/// Generate a MOSES-stand-in molecule.
pub fn random_molecule(id: u64, rng: &mut SimRng) -> Molecule {
    Molecule {
        id,
        features: (0..FEATURES).map(|_| rng.range_f64(-1.0, 1.0)).collect(),
    }
}

/// How the campaign picks the next round's simulation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Selection {
    /// Rank candidates with the trained emulator (the paper's strategy).
    ActiveLearning,
    /// Uniform random pick (ablation baseline).
    Random,
}

/// Active-learning rounds after the seed round.
const ROUNDS: usize = 4;
/// Simulations per round.
const SIMS_PER_ROUND: usize = 16;
/// Candidate pool ranked each round.
const CANDIDATE_POOL: usize = 256;
/// Emulator training epochs per round.
const TRAIN_EPOCHS: usize = 120;
/// Mean quantum-chemistry runtime (lognormal).
const SIM_TIME_MEAN: SimDuration = SimDuration::from_secs(30);
/// Lognormal sigma of the simulation runtime.
const SIM_TIME_SIGMA: f64 = 0.35;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Executor label for simulations.
    pub cpu_executor: String,
    /// Executor label for training/inference.
    pub gpu_executor: String,
    /// Selection policy.
    pub selection: Selection,
    /// §3.4's pipelining suggestion: select and launch the next round's
    /// simulations as soon as the current results are in, using the
    /// one-round-stale emulator, so CPU simulations overlap GPU
    /// training/inference instead of waiting for them.
    pub pipelined: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            cpu_executor: "cpu".into(),
            gpu_executor: "gpu".into(),
            selection: Selection::ActiveLearning,
            pipelined: false,
        }
    }
}

/// Outcome of one campaign round.
#[derive(Debug, Clone, Serialize)]
pub struct RoundStats {
    /// Round number (0 = seed round).
    pub round: usize,
    /// Best ground-truth IP simulated so far.
    pub best_ip: f64,
    /// Mean ground-truth IP of this round's simulated batch.
    pub round_mean_ip: f64,
    /// Emulator training MSE after this round (None in the seed round).
    pub train_mse: Option<f64>,
}

/// The campaign driver (plugs into the FaaS platform).
pub struct Campaign {
    cfg: CampaignConfig,
    rng: SimRng,
    chem: Chemistry,
    emulator: Option<Regressor>,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    sim_tasks: BTreeMap<TaskId, Molecule>,
    sims_outstanding: usize,
    train_task: Option<TaskId>,
    infer_task: Option<TaskId>,
    round: usize,
    next_mol_id: u64,
    best_ip: f64,
    round_ips: Vec<f64>,
    closed_round_mean: f64,
    /// Per-round results (shared handle; readable after the driver is
    /// installed into the platform).
    pub history: Rc<RefCell<Vec<RoundStats>>>,
}

impl Campaign {
    /// New campaign with its own RNG stream.
    pub fn new(cfg: CampaignConfig, seed: u64) -> Self {
        let rng = SimRng::new(seed).split(streams::MOLECULAR_CAMPAIGN);
        Campaign {
            cfg,
            rng,
            chem: Chemistry::default(),
            emulator: None,
            xs: Vec::new(),
            ys: Vec::new(),
            sim_tasks: BTreeMap::new(),
            sims_outstanding: 0,
            train_task: None,
            infer_task: None,
            round: 0,
            next_mol_id: 0,
            best_ip: f64::NEG_INFINITY,
            round_ips: Vec::new(),
            closed_round_mean: 0.0,
            history: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Shared handle to the per-round history, for reading results after
    /// the campaign has been moved into the platform as its driver.
    pub fn history_handle(&self) -> Rc<RefCell<Vec<RoundStats>>> {
        Rc::clone(&self.history)
    }

    fn fresh_molecules(&mut self, n: usize) -> Vec<Molecule> {
        (0..n)
            .map(|_| {
                let m = random_molecule(self.next_mol_id, &mut self.rng);
                self.next_mol_id += 1;
                m
            })
            .collect()
    }

    fn submit_simulations(
        &mut self,
        w: &mut FaasWorld,
        eng: &mut Engine<FaasWorld>,
        mols: Vec<Molecule>,
    ) {
        // Snapshot the finished round's per-batch stats before reuse
        // (pipelining submits the next batch before training completes).
        self.closed_round_mean = if self.round_ips.is_empty() {
            0.0
        } else {
            self.round_ips.iter().sum::<f64>() / self.round_ips.len() as f64
        };
        self.round_ips.clear();
        self.sims_outstanding = mols.len();
        for m in mols {
            let exec = self.cfg.cpu_executor.clone();
            let id = submit(
                w,
                eng,
                AppCall::new("simulation", exec, |rng: &mut SimRng| {
                    let mu =
                        SIM_TIME_MEAN.as_secs_f64().ln() - SIM_TIME_SIGMA * SIM_TIME_SIGMA / 2.0;
                    let secs = rng.lognormal(mu, SIM_TIME_SIGMA);
                    Box::new(CpuBurn::new(SimDuration::from_secs_f64(secs)))
                }),
            );
            self.sim_tasks.insert(id, m);
        }
    }

    fn training_kernels(&self) -> Vec<KernelDesc> {
        // TensorFlow-style training: fused step kernels over the growing
        // dataset. Small batches keep grids modest (~48 blocks), so — as
        // the paper observes in §3.4 — training cannot saturate a big
        // GPU either. Work grows with the dataset, giving Fig. 3 its
        // widening training blocks.
        let per_step_work = 4.0 + 0.06 * self.xs.len() as f64;
        (0..36)
            .map(|_| KernelDesc::new("mol.train", per_step_work, 48, 48, 0.4))
            .collect()
    }

    fn inference_kernels(&self) -> Vec<KernelDesc> {
        // Batch-score the candidate pool.
        let work = 1.2 + 0.01 * CANDIDATE_POOL as f64;
        (0..16)
            .map(|_| KernelDesc::new("mol.infer", work, 32, 32, 0.5))
            .collect()
    }

    fn submit_training(&mut self, w: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
        let kernels = self.training_kernels();
        let exec = self.cfg.gpu_executor.clone();
        let id = submit(
            w,
            eng,
            AppCall::new("training", exec, move |_| {
                Box::new(KernelSeq::new(
                    kernels.clone(),
                    SimDuration::from_millis(40),
                ))
            }),
        );
        self.train_task = Some(id);
    }

    fn submit_inference(&mut self, w: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
        let kernels = self.inference_kernels();
        let exec = self.cfg.gpu_executor.clone();
        let id = submit(
            w,
            eng,
            AppCall::new("inference", exec, move |_| {
                Box::new(KernelSeq::new(
                    kernels.clone(),
                    SimDuration::from_millis(25),
                ))
            }),
        );
        self.infer_task = Some(id);
    }

    fn close_round(&mut self, train_mse: Option<f64>) {
        // Prefer the live accumulator; fall back to the snapshot taken
        // when a pipelined next batch recycled it.
        let mean = if self.round_ips.is_empty() {
            self.closed_round_mean
        } else {
            self.round_ips.iter().sum::<f64>() / self.round_ips.len() as f64
        };
        self.history.borrow_mut().push(RoundStats {
            round: self.round,
            best_ip: self.best_ip,
            round_mean_ip: mean,
            train_mse,
        });
    }

    fn select_next_batch(&mut self) -> Vec<Molecule> {
        let n = SIMS_PER_ROUND;
        let pool = self.fresh_molecules(CANDIDATE_POOL);
        match (self.cfg.selection, &self.emulator) {
            (Selection::ActiveLearning, Some(net)) => {
                let mut scored: Vec<(f64, Molecule)> = pool
                    .into_iter()
                    .map(|m| (net.predict(&m.features), m))
                    .collect();
                scored.sort_by(|a, b| b.0.total_cmp(&a.0));
                scored.into_iter().take(n).map(|(_, m)| m).collect()
            }
            _ => pool.into_iter().take(n).collect(),
        }
    }
}

impl Driver for Campaign {
    fn on_start(&mut self, w: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
        let seed_batch = self.fresh_molecules(SIMS_PER_ROUND);
        self.submit_simulations(w, eng, seed_batch);
    }

    fn on_task_done(&mut self, w: &mut FaasWorld, eng: &mut Engine<FaasWorld>, task: TaskId) {
        if let Some(mol) = self.sim_tasks.remove(&task) {
            // Simulation finished: harvest the measurement.
            let y = self.chem.simulate(&mol, &mut self.rng);
            let truth = self.chem.true_ip(&mol);
            self.best_ip = self.best_ip.max(truth);
            self.round_ips.push(truth);
            self.xs.push(mol.features);
            self.ys.push(y);
            self.sims_outstanding -= 1;
            if self.sims_outstanding == 0 {
                if self.round >= ROUNDS {
                    self.close_round(None);
                    return; // campaign complete
                }
                self.submit_training(w, eng);
                if self.cfg.pipelined {
                    // §3.4 pipelining: pick the next batch with the
                    // one-round-stale emulator and start its CPU
                    // simulations now, overlapping the GPU phases.
                    self.round += 1;
                    let batch = self.select_next_batch();
                    self.submit_simulations(w, eng, batch);
                }
            }
        } else if self.train_task == Some(task) {
            self.train_task = None;
            // Actually train the emulator now that the "GPU time" elapsed.
            let mut net = self.emulator.take().unwrap_or_else(|| {
                Regressor::new(&mut self.rng, &[FEATURES, 32, 32, 1]).with_lr(0.01)
            });
            let mse = net.fit(&mut self.rng, &self.xs, &self.ys, TRAIN_EPOCHS);
            self.emulator = Some(net);
            self.close_round(Some(mse));
            self.submit_inference(w, eng);
        } else if self.infer_task == Some(task) {
            self.infer_task = None;
            if !self.cfg.pipelined {
                self.round += 1;
                let batch = self.select_next_batch();
                self.submit_simulations(w, eng, batch);
            }
            // Pipelined: the next batch is already in flight; inference
            // here models the GPU-side candidate scoring whose ranking
            // the *following* selection reuses.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_deterministic_and_bounded() {
        let chem = Chemistry::default();
        let mut rng = SimRng::new(1);
        for i in 0..1000 {
            let m = random_molecule(i, &mut rng);
            let ip = chem.true_ip(&m);
            assert!((4.0..14.0).contains(&ip), "IP {ip} out of band");
            assert_eq!(ip, chem.true_ip(&m));
        }
    }

    #[test]
    fn noise_has_configured_scale() {
        let chem = Chemistry { noise: 0.1 };
        let mut rng = SimRng::new(2);
        let m = random_molecule(0, &mut rng);
        let n = 20_000;
        let truth = chem.true_ip(&m);
        let mean_err: f64 = (0..n)
            .map(|_| chem.simulate(&m, &mut rng) - truth)
            .sum::<f64>()
            / n as f64;
        assert!(mean_err.abs() < 0.01, "noise not centered: {mean_err}");
    }

    #[test]
    fn emulator_learns_the_surface() {
        // Direct check that the MLP can learn the oracle (independent of
        // the FaaS machinery).
        let chem = Chemistry { noise: 0.02 };
        let mut rng = SimRng::new(3);
        let mols: Vec<Molecule> = (0..400).map(|i| random_molecule(i, &mut rng)).collect();
        let xs: Vec<Vec<f64>> = mols.iter().map(|m| m.features.clone()).collect();
        let ys: Vec<f64> = mols.iter().map(|m| chem.simulate(m, &mut rng)).collect();
        let mut net = Regressor::new(&mut rng, &[FEATURES, 32, 32, 1]).with_lr(0.005);
        let mse = net.fit(&mut rng, &xs, &ys, 300);
        assert!(mse < 0.15, "train MSE {mse}");
    }

    #[test]
    fn selection_policies_differ() {
        let mut c = Campaign::new(
            CampaignConfig {
                selection: Selection::ActiveLearning,
                ..CampaignConfig::default()
            },
            5,
        );
        // With a trained emulator, AL picks should have higher mean true
        // IP than a random draw of the same size.
        let chem = Chemistry { noise: 0.02 };
        let mut rng = SimRng::new(6);
        let mols: Vec<Molecule> = (0..500).map(|i| random_molecule(i, &mut rng)).collect();
        let xs: Vec<Vec<f64>> = mols.iter().map(|m| m.features.clone()).collect();
        let ys: Vec<f64> = mols.iter().map(|m| chem.simulate(m, &mut rng)).collect();
        let mut net = Regressor::new(&mut rng, &[FEATURES, 32, 32, 1]).with_lr(0.005);
        net.fit(&mut rng, &xs, &ys, 300);
        c.emulator = Some(net);

        let al_batch = c.select_next_batch();
        let al_mean: f64 =
            al_batch.iter().map(|m| chem.true_ip(m)).sum::<f64>() / al_batch.len() as f64;

        let mut r = Campaign::new(
            CampaignConfig {
                selection: Selection::Random,
                ..CampaignConfig::default()
            },
            5,
        );
        let rand_batch = r.select_next_batch();
        let rand_mean: f64 =
            rand_batch.iter().map(|m| chem.true_ip(m)).sum::<f64>() / rand_batch.len() as f64;
        assert!(
            al_mean > rand_mean + 0.5,
            "AL mean {al_mean} should clearly beat random {rand_mean}"
        );
    }
}
