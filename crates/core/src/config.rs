//! Pipeline configuration.

use crate::error::PpError;
use pp_diffusion::DiffusionConfig;
use serde::{Deserialize, Serialize};

/// Pretraining hyperparameters (the foundation-model stand-in).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PretrainConfig {
    /// Foundation corpus size.
    pub corpus: usize,
    /// Optimiser steps.
    pub steps: usize,
    /// Batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
}

/// Few-shot finetuning hyperparameters (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FinetuneConfig {
    /// Optimiser steps (the paper finetunes for ~10 minutes on an A100).
    pub steps: usize,
    /// Batch size.
    pub batch: usize,
    /// Learning rate (paper: 5e-6 for SD-scale models; scaled up for the
    /// small substrate).
    pub lr: f32,
    /// Prior-preservation weight λ of Eq. 7.
    pub lambda: f32,
    /// Number of prior-class samples generated before finetuning.
    pub prior_count: usize,
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Diffusion model architecture/sampling config.
    pub model: DiffusionConfig,
    /// Pretraining settings.
    pub pretrain: PretrainConfig,
    /// Finetuning settings.
    pub finetune: FinetuneConfig,
    /// Variations generated per (starter, mask) pair in the initial
    /// round (the paper's `v`; it uses 100 at industrial scale).
    pub variations: usize,
    /// Template-denoiser threshold `T`.
    pub denoise_threshold: u32,
    /// Representative layouts selected per iteration (paper: 100).
    pub select_k: usize,
    /// Samples generated per iteration (paper: 5000).
    pub samples_per_iteration: usize,
    /// Density ceiling for selection (paper: 0.4).
    pub max_density: f64,
    /// PCA explained-variance target (paper: 0.9).
    pub pca_explained: f64,
    /// Worker threads for sampling.
    pub threads: usize,
    /// Micro-batch cap per sampling worker: each network pass runs at
    /// most this many jobs together (`0` = a worker's whole chunk).
    /// Larger batches amortise im2col/GEMM overhead at the cost of peak
    /// activation memory.
    pub batch_size: usize,
    /// Worker threads for the round tail (denoise → DRC → dedupe);
    /// `0` keeps the tail on the consuming thread. Any value yields
    /// bit-identical libraries — verdicts are admitted in job order —
    /// so this is purely a throughput knob for multi-core hosts where
    /// validation would otherwise stall the sampler stream.
    pub tail_threads: usize,
}

impl PipelineConfig {
    /// The configuration used for the headline experiments (32×32 clips,
    /// counts scaled ~20× down from the paper).
    pub fn standard() -> Self {
        PipelineConfig {
            model: DiffusionConfig::standard(32),
            pretrain: PretrainConfig {
                corpus: 512,
                steps: 600,
                batch: 4,
                lr: 2e-3,
            },
            finetune: FinetuneConfig {
                steps: 120,
                batch: 4,
                lr: 1e-3,
                lambda: 1.0,
                prior_count: 16,
            },
            variations: 2,
            denoise_threshold: 2,
            select_k: 40,
            samples_per_iteration: 200,
            max_density: 0.4,
            pca_explained: 0.9,
            threads: 2,
            batch_size: 16,
            tail_threads: 0,
        }
    }

    /// A fast configuration for examples and CI-style runs.
    pub fn quick() -> Self {
        PipelineConfig {
            model: DiffusionConfig::standard(32),
            pretrain: PretrainConfig {
                corpus: 128,
                steps: 120,
                batch: 4,
                lr: 2e-3,
            },
            finetune: FinetuneConfig {
                steps: 40,
                batch: 4,
                lr: 1e-3,
                lambda: 0.5,
                prior_count: 8,
            },
            variations: 1,
            denoise_threshold: 2,
            select_k: 10,
            samples_per_iteration: 30,
            max_density: 0.4,
            pca_explained: 0.9,
            threads: 2,
            batch_size: 8,
            tail_threads: 0,
        }
    }

    /// A minimal configuration for unit tests (16×16 clips, tiny model).
    pub fn tiny() -> Self {
        PipelineConfig {
            model: DiffusionConfig::tiny(16),
            pretrain: PretrainConfig {
                corpus: 16,
                steps: 10,
                batch: 2,
                lr: 2e-3,
            },
            finetune: FinetuneConfig {
                steps: 5,
                batch: 2,
                lr: 1e-3,
                lambda: 0.5,
                prior_count: 2,
            },
            variations: 1,
            denoise_threshold: 2,
            select_k: 4,
            samples_per_iteration: 5,
            max_density: 0.5,
            pca_explained: 0.9,
            threads: 2,
            batch_size: 4,
            tail_threads: 0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), PpError> {
        if self.variations == 0 {
            return Err(PpError::Config("variations must be positive".into()));
        }
        if self.select_k == 0 {
            return Err(PpError::Config("select_k must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.max_density) {
            return Err(PpError::Config("max_density must be in [0, 1]".into()));
        }
        if !(0.0 < self.pca_explained && self.pca_explained <= 1.0) {
            return Err(PpError::Config("pca_explained must be in (0, 1]".into()));
        }
        if self.samples_per_iteration == 0 {
            return Err(PpError::Config(
                "samples_per_iteration must be positive (an iteration that samples \
                 nothing can never grow the library)"
                    .into(),
            ));
        }
        if self.threads == 0 {
            return Err(PpError::Config(
                "threads must be positive (sampling needs at least one worker)".into(),
            ));
        }
        // Degenerate parallelism knobs: thread counts and micro-batch
        // caps far beyond any host are almost always a unit mix-up
        // (e.g. a byte count landing in a thread field), and they would
        // otherwise "work" by spawning thousands of threads or
        // allocating batch-sized activation buffers.
        const MAX_WORKERS: usize = 4096;
        if self.threads > MAX_WORKERS {
            return Err(PpError::Config(format!(
                "threads = {} exceeds the {MAX_WORKERS} sampling-worker cap (likely a unit mix-up)",
                self.threads
            )));
        }
        if self.tail_threads > MAX_WORKERS {
            return Err(PpError::Config(format!(
                "tail_threads = {} exceeds the {MAX_WORKERS} tail-worker cap (likely a unit mix-up)",
                self.tail_threads
            )));
        }
        const MAX_BATCH: usize = 65_536;
        if self.batch_size > MAX_BATCH {
            return Err(PpError::Config(format!(
                "batch_size = {} exceeds the {MAX_BATCH} micro-batch cap; activation \
                 memory scales linearly with it (0 means a worker's whole chunk)",
                self.batch_size
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(PipelineConfig::standard().validate().is_ok());
        assert!(PipelineConfig::quick().validate().is_ok());
        assert!(PipelineConfig::tiny().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut c = PipelineConfig::tiny();
        c.variations = 0;
        assert!(c.validate().is_err());
        let mut c = PipelineConfig::tiny();
        c.max_density = 1.5;
        assert!(c.validate().is_err());
    }

    /// Every degenerate knob is rejected at construction with a message
    /// naming the offending field.
    #[test]
    fn degenerate_knobs_are_rejected_by_name() {
        type Poison = fn(&mut PipelineConfig);
        let cases: [(&str, Poison); 5] = [
            ("samples_per_iteration", |c| c.samples_per_iteration = 0),
            ("threads", |c| c.threads = 0),
            ("threads", |c| c.threads = 5000),
            ("tail_threads", |c| c.tail_threads = 1 << 20),
            ("batch_size", |c| c.batch_size = 1 << 20),
        ];
        for (field, poison) in cases {
            let mut c = PipelineConfig::tiny();
            poison(&mut c);
            let err = c.validate().expect_err("degenerate value must be rejected");
            assert!(
                matches!(&err, PpError::Config(msg) if msg.contains(field)),
                "error for {field} did not name it: {err}"
            );
        }
        // The documented sentinels stay valid: batch_size 0 is "whole
        // chunk", tail_threads 0 is the serial tail.
        let mut c = PipelineConfig::tiny();
        c.batch_size = 0;
        c.tail_threads = 0;
        assert!(c.validate().is_ok());
    }
}
