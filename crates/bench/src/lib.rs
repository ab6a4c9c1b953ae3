//! Shared harness for regenerating every table and figure of the
//! PatternPaint evaluation.
//!
//! Each binary in `src/bin/` reproduces one artifact:
//!
//! | target | artifact |
//! |---|---|
//! | `table1` | Table I — generation comparison (baselines + 4 PatternPaint variants, init + iter) |
//! | `table2` | Table II — per-sample runtime (inpaint / denoise / DiffPattern) |
//! | `table3` | Table III — denoising-scheme success rates |
//! | `fig7`  | Figure 7 — iterative-generation metric curves |
//! | `fig8`  | Figure 8 — starter + generated-variation gallery (PGM + ASCII) |
//! | `fig9`  | Figure 9 — solver runtime/success vs topology size |
//!
//! Counts are scaled ~20× down from the paper (CPU substrate); set
//! `PP_SCALE=N` to multiply sample counts. Pretrained/finetuned model
//! weights are cached under `target/pp-model-cache/` so repeated runs
//! skip training.

#![forbid(unsafe_code)]

use patternpaint_core::{PatternPaint, PipelineConfig};
use pp_pdk::SynthNode;
use std::fs;
use std::path::PathBuf;

/// The four PatternPaint model variants of Table I / Figure 7.
///
/// `sd1`/`sd2` correspond to the paper's two Stable Diffusion inpainting
/// checkpoints; here they are two pretraining seeds of the substrate
/// (independent "foundation" models).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Variant label, e.g. `"sd1-base"`.
    pub name: &'static str,
    /// Pretraining seed.
    pub seed: u64,
    /// Whether few-shot finetuning is applied.
    pub finetuned: bool,
}

/// All four variants in the paper's row order.
pub const VARIANTS: [Variant; 4] = [
    Variant {
        name: "sd1-base",
        seed: 101,
        finetuned: false,
    },
    Variant {
        name: "sd2-base",
        seed: 202,
        finetuned: false,
    },
    Variant {
        name: "sd1-ft",
        seed: 101,
        finetuned: true,
    },
    Variant {
        name: "sd2-ft",
        seed: 202,
        finetuned: true,
    },
];

/// Sample-count multiplier from the `PP_SCALE` environment variable.
pub fn scale() -> usize {
    std::env::var("PP_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

fn cache_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/pp-model-cache");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Returns a pipeline for `variant`, pretraining (and finetuning when
/// requested) only on cache miss; weights are cached on disk.
///
/// # Panics
///
/// Panics if the (preset) configuration fails pipeline validation —
/// a bench-harness bug, not a runtime condition.
pub fn cached_pipeline(variant: Variant, cfg: &PipelineConfig) -> PatternPaint {
    let node = SynthNode::default();
    let stage = if variant.finetuned { "ft" } else { "base" };
    let path = cache_dir().join(format!("{}-{}.weights", variant.name, stage));

    let mut pp =
        PatternPaint::untrained(node.clone(), *cfg, variant.seed).expect("bench presets are valid");
    if let Ok(bytes) = fs::read(&path) {
        if pp.load_weights(&bytes).is_ok() {
            eprintln!("[cache] loaded {}", path.display());
            return pp;
        }
    }
    eprintln!(
        "[cache] training {} (miss at {})",
        variant.name,
        path.display()
    );
    // Base weights may themselves be cached.
    let mut pp = if variant.finetuned {
        let base = Variant {
            finetuned: false,
            ..variant
        };
        let mut pp = cached_pipeline(base, cfg);
        pp.finetune().expect("starters are well-formed");
        pp
    } else {
        PatternPaint::pretrained(node, *cfg, variant.seed).expect("bench presets are valid")
    };
    if let Ok(f) = fs::File::create(&path) {
        let _ = pp.save_weights(f);
    }
    pp
}

/// Writes a JSON report to `bench_results/<name>.json` at the repository
/// root.
pub fn dump_json(name: &str, value: &serde_json::Value) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
    if let Ok(s) = serde_json::to_string_pretty(value) {
        let _ = fs::write(&path, s);
        eprintln!("[json] wrote {}", path.display());
    }
}

/// Formats one Table I-style row.
pub fn fmt_row(
    name: &str,
    generated: usize,
    legal: usize,
    unique: usize,
    h1: f64,
    h2: f64,
) -> String {
    format!("{name:<24} {generated:>9} {legal:>7} {unique:>7} {h1:>6.2} {h2:>6.2}",)
}

/// The Table I-style header matching [`fmt_row`].
pub fn fmt_header() -> String {
    format!(
        "{:<24} {:>9} {:>7} {:>7} {:>6} {:>6}",
        "method", "generated", "legal", "unique", "H1", "H2"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_cover_paper_rows() {
        assert_eq!(VARIANTS.len(), 4);
        assert_eq!(VARIANTS.iter().filter(|v| v.finetuned).count(), 2);
        // base/ft pairs share pretraining seeds.
        assert_eq!(VARIANTS[0].seed, VARIANTS[2].seed);
        assert_eq!(VARIANTS[1].seed, VARIANTS[3].seed);
    }

    #[test]
    fn scale_defaults_to_one() {
        std::env::remove_var("PP_SCALE");
        assert_eq!(scale(), 1);
    }

    #[test]
    fn row_formatting_aligns() {
        let h = fmt_header();
        let r = fmt_row("starter patterns", 0, 20, 20, 3.68, 4.32);
        assert_eq!(h.len(), r.len());
    }
}
