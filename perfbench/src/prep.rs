//! Model preparation outside the timed runs.
//!
//! Once per build the benchmark pretrains the foundation model (the
//! stand-in for the public checkpoint the paper downloads), finetunes
//! and saves the serving engine, and saves the session library that
//! `retrain_serve` trains on. The artifacts live in `DirStore`s under a
//! directory named after a hash of the running executable, so no build
//! reuses weights another build trained. A cache that fails to load is
//! prepared again.

use patternpaint_core::{DirStore, Engine, PatternPaint, PipelineConfig, Session};
use pp_pdk::SynthNode;
use std::error::Error;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the foundation model and of the engines built from it.
pub const MODEL_SEED: u64 = 101;
/// Session name of the saved library `retrain_serve` trains on.
pub const LIBRARY: &str = "library";
/// Seed of the session that generated the saved library.
const LIBRARY_SEED: u64 = 0x11b;

/// The engine configuration every workload uses: the standard preset
/// (32×32 clips, standard U-Net, batch 16, `select_k` 40, 200 samples
/// per iterative round, 2 sampling threads) with one variation per
/// starter × mask, so the initial round has 200 samples too, and a
/// 40-step few-shot finetune, so one `campaign` set-up stays near three
/// seconds.
pub fn bench_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::standard();
    cfg.variations = 1;
    cfg.finetune.steps = 40;
    cfg
}

/// The per-build artifact directories.
pub struct Models {
    /// Pretrained, not finetuned.
    pub foundation: PathBuf,
    /// Finetuned serving engine plus the saved session library.
    pub serving: PathBuf,
    /// Where runs keep their output records and traces.
    pub state: PathBuf,
}

/// FNV-1a over `reader`'s bytes.
fn fnv1a(mut reader: impl Read) -> std::io::Result<u64> {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = reader.read(&mut buf)?;
        if n == 0 {
            return Ok(hash);
        }
        for &b in &buf[..n] {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Whether both stores open and hold everything a run needs.
fn loads(models: &Models) -> bool {
    let open = |dir: &Path| DirStore::open(dir).ok();
    let (Some(foundation), Some(serving)) = (open(&models.foundation), open(&models.serving))
    else {
        return false;
    };
    Engine::open(&foundation).is_ok()
        && Engine::open(&serving)
            .and_then(|engine| Session::resume(&engine, &serving, LIBRARY))
            .is_ok()
}

/// Pretrains, finetunes and generates into fresh stores under `dir`.
/// Runs in a child process (`pp-bench --prepare <dir>`), so the
/// measuring process never holds training's memory.
pub fn prepare(dir: &Path) -> Result<(), Box<dyn Error>> {
    let node = SynthNode::default();
    let t = Instant::now();
    let mut pp = PatternPaint::builder(node, bench_config())
        .seed(MODEL_SEED)
        .pretrained()?;
    pp.engine().save(&DirStore::open(dir.join("foundation"))?)?;
    eprintln!(
        "[prep] pretrained foundation in {:.1}s",
        t.elapsed().as_secs_f64()
    );
    pp.finetune()?;
    let engine = pp.into_engine();
    let serving = DirStore::open(dir.join("serving"))?;
    engine.save(&serving)?;
    let mut session = engine.session_seeded(LIBRARY_SEED);
    session.initial_generation()?;
    session.save(&serving, LIBRARY)?;
    eprintln!(
        "[prep] finetuned and saved a {}-pattern library after {:.1}s",
        session.library().len(),
        t.elapsed().as_secs_f64()
    );
    Ok(())
}

/// The artifact directories of the running build, prepared on a miss.
pub fn load_or_prepare() -> Result<Models, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let hash = fnv1a(std::fs::File::open(&exe)?)?;
    let root = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("pp-bench-state");
    let dir = root.join(format!("models-{hash:016x}"));
    let models = Models {
        foundation: dir.join("foundation"),
        serving: dir.join("serving"),
        state: dir.clone(),
    };
    if dir.is_dir() && loads(&models) {
        return Ok(models);
    }
    eprintln!(
        "[prep] no usable model cache at {}; preparing",
        dir.display()
    );
    let tmp = root.join(format!("models-{hash:016x}.tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp)?;
    let status = std::process::Command::new(&exe)
        .arg("--prepare")
        .arg(&tmp)
        .status()?;
    if !status.success() {
        return Err(format!("model preparation failed: {status}").into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::rename(&tmp, &dir)?;
    if !loads(&models) {
        return Err("freshly prepared model cache does not load".into());
    }
    Ok(models)
}
