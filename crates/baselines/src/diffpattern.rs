//! The DiffPattern baseline: topology diffusion + solver legalization.

use crate::cup::{legalize_and_check, BaselineOutcome};
use crate::topo::{layout_to_topo_image, TOPO_SIDE};
use pp_diffusion::{BetaSchedule, DiffusionConfig, DiffusionModel, Parameterization};
use pp_drc::RuleDeck;
use pp_geometry::{GrayImage, Layout};
use pp_solver::{LegalizeSolver, SolverConfig, SolverSetting};

/// DiffPattern: a diffusion model over topology rasters whose samples
/// are legalized by the nonlinear solver.
///
/// Faithfulness note: the original uses *discrete* (categorical)
/// diffusion over the binary matrix; this port reuses the repository's
/// x0-predicting pixel diffusion at topology resolution with a final
/// threshold, which preserves the pipeline structure (sample topology →
/// solve Δ geometry → check) that the comparison targets.
///
/// # Example
///
/// ```no_run
/// use pp_baselines::DiffPatternBaseline;
/// use pp_pdk::{RuleBasedGenerator, SynthNode};
///
/// let node = SynthNode::default();
/// let training = RuleBasedGenerator::new(node.clone(), 1).generate_batch(100);
/// let mut dp = DiffPatternBaseline::new(node.rules().clone(), 0);
/// dp.train(&training, 300, 8, 2e-3, 0);
/// let outcomes = dp.generate(20, 0);
/// ```
pub struct DiffPatternBaseline {
    model: DiffusionModel,
    deck: RuleDeck,
    clip: u32,
}

impl DiffPatternBaseline {
    /// The clip side length generated layouts target.
    pub fn clip(&self) -> u32 {
        self.clip
    }

    /// Creates an untrained baseline judged by `deck`.
    pub fn new(deck: RuleDeck, seed: u64) -> Self {
        let cfg = DiffusionConfig {
            image: TOPO_SIDE,
            base_ch: 8,
            time_dim: 16,
            t_max: 50,
            schedule: BetaSchedule::Cosine,
            ddim_steps: 10,
            parameterization: Parameterization::X0,
        };
        DiffPatternBaseline {
            model: DiffusionModel::new(cfg, seed),
            deck,
            clip: 32,
        }
    }

    /// Trains the topology diffusion model on DR-clean layouts.
    pub fn train(&mut self, training: &[Layout], steps: usize, batch: usize, lr: f32, seed: u64) {
        let images: Vec<GrayImage> = training.iter().filter_map(layout_to_topo_image).collect();
        assert!(!images.is_empty(), "no usable training topologies");
        let _ = self
            .model
            .train(&images, steps, batch, lr, seed)
            .expect("topology images match the model size by construction");
    }

    /// Samples `n` topologies unconditionally, legalizes each with the
    /// solver (fixed 32×32 clip target) and checks the sign-off deck.
    pub fn generate(&mut self, n: usize, seed: u64) -> Vec<BaselineOutcome> {
        let solver = LegalizeSolver::with_config(
            SolverSetting::ComplexDiscrete,
            SolverConfig {
                size_target_abs: Some((f64::from(self.clip), f64::from(self.clip))),
                ..SolverConfig::default()
            },
        );
        let blank = GrayImage::filled(TOPO_SIDE, TOPO_SIDE, -1.0);
        let full = GrayImage::filled(TOPO_SIDE, TOPO_SIDE, 1.0);
        (0..n)
            .map(|i| {
                let start = std::time::Instant::now();
                let sample = self
                    .model
                    .sample_inpaint(&blank, &full, seed.wrapping_add(i as u64))
                    .expect("topology canvases match the model size by construction");
                let outcome = legalize_and_check(&sample, &solver, &self.deck, seed ^ i as u64);
                BaselineOutcome {
                    seconds: start.elapsed().as_secs_f64(),
                    ..outcome
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_pdk::{RuleBasedGenerator, SynthNode};

    #[test]
    fn pipeline_runs_end_to_end() {
        let node = SynthNode::default();
        let training = RuleBasedGenerator::new(node.clone(), 7).generate_batch(16);
        let mut dp = DiffPatternBaseline::new(node.rules().clone(), 2);
        dp.train(&training, 10, 4, 2e-3, 0);
        let out = dp.generate(4, 1);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|o| o.seconds > 0.0));
    }

    #[test]
    fn untrained_model_rarely_legal() {
        // An untrained topology diffusion produces noise; after solver
        // legalization, sign-off legality stays (near) zero — the paper's
        // Table I behaviour for squish-based baselines under an
        // industrial deck.
        let node = SynthNode::default();
        let mut dp = DiffPatternBaseline::new(node.rules().clone(), 3);
        let out = dp.generate(6, 2);
        let legal = out.iter().filter(|o| o.legal).count();
        assert!(legal <= 1, "untrained model produced {legal}/6 legal");
    }
}
