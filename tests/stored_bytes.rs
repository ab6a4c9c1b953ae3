//! Every decoder of stored bytes is total and canonical.
//!
//! Seven binary formats outlive the process that wrote them: PPJS (job
//! specs), PPEG and PPSS (engine and session manifests), PPTS (trainer
//! state), PPCK (checkpoints), PPDM (raw weights) and PPSQ (squish
//! libraries). Each is built here through the public API on the tiny
//! preset and decoded through the entry point that reads it in
//! production (PPEG through `Engine::open`, PPSS through
//! `Session::resume`, PPTS through `TrainRun::prepare`; PPSQ both bare
//! and, as a session library, through `Session::resume`). For each:
//!
//! * decoding the encoded blob and encoding the result gives the blob;
//! * every truncation decodes to a typed error;
//! * every single-bit flip of a blob under 4 KiB — otherwise of its
//!   first 256 bytes plus a seeded sample of 4,096 other bit positions —
//!   decodes to a typed error or to a value that re-encodes to exactly
//!   the flipped bytes; PPCK and PPTS, which carry a checksum, always
//!   give an error;
//! * no decode panics;
//! * no decode allocates more than [`ALLOC_FACTOR`] times its input
//!   plus [`ALLOC_SLACK`] bytes, counted on the decoding thread. The
//!   input is the blob plus the unchanged artifacts the entry point
//!   also reads (the checkpoint behind `engine.meta`, say).
//!
//! `stored_bytes_do_not_change` pins each format's bytes to the FNV-1a
//! digests of what the same encode calls wrote before the formats
//! moved onto the shared codec.
//!
//! A test binary of its own because it installs a counting global
//! allocator.

use patternpaint::core::{
    ArtifactStore, Engine, ExportWeights, JobSpec, MemStore, PatternPaint, PipelineConfig, PpError,
    QosClass, RetryPolicy, Session, TrainRun, TrainSpec, ENGINE_META_KEY, ENGINE_MODEL_KEY,
};
use patternpaint::pdk::SynthNode;
use pp_diffusion::{
    load_checkpoint_with, save_checkpoint_with, CheckpointLineage, DiffusionConfig, DiffusionModel,
};
use pp_geometry::codec::fnv1a;
use pp_geometry::{read_squish_library, write_squish_library};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A decode may allocate this many times its input …
const ALLOC_FACTOR: u64 = 16;
/// … plus this many bytes.
const ALLOC_SLACK: u64 = 1 << 20;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, summing the bytes requested (a `realloc`
/// counts its new size) on threads that switched counting on.
struct Counting;

fn note(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System`'s method, forwarded below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System`'s method, forwarded below.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System`'s method, forwarded below.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System`'s method, forwarded below.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result (`None` if it panicked) and the bytes
/// it allocated on this thread.
fn measured<T>(f: impl FnOnce() -> T) -> (Option<T>, u64) {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.with(Cell::get))
}

/// Every bit of a blob under 4 KiB; otherwise every bit of the first
/// 256 bytes plus 4,096 distinct other bit positions from a fixed-seed
/// generator.
fn flip_positions(len: usize) -> Vec<usize> {
    let bits = len * 8;
    if len < 4096 {
        return (0..bits).collect();
    }
    let head = 256 * 8;
    let mut sample = BTreeSet::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ len as u64;
    while sample.len() < 4096 {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        sample.insert(head + (z % (bits - head) as u64) as usize);
    }
    (0..head).chain(sample).collect()
}

/// Decodes one blob through a format's production entry point.
type Decode<'a, V, E> = Box<dyn Fn(&[u8]) -> Result<V, E> + 'a>;

/// One stored format under test.
struct Format<'a, V, E> {
    name: &'static str,
    /// The encoded fixture.
    blob: Vec<u8>,
    /// Bytes of the unchanged artifacts the entry point reads besides
    /// the blob.
    companion: usize,
    /// Checksummed: every flip must be rejected.
    sealed: bool,
    decode: Decode<'a, V, E>,
    encode: Box<dyn Fn(V) -> Vec<u8> + 'a>,
}

impl<V, E> Format<'_, V, E> {
    /// Decodes `bytes` under the panic and allocation checks. Returns
    /// the re-encoded bytes when the decode succeeded, pushes what went
    /// wrong onto `faults`, and keeps the largest allocation in `peak`
    /// as `(bytes allocated, bytes of input)`.
    fn probe(
        &self,
        what: &str,
        bytes: &[u8],
        faults: &mut Vec<String>,
        peak: &mut (u64, u64),
    ) -> Option<Vec<u8>> {
        let (out, allocated) = measured(|| (self.decode)(bytes));
        let input = (bytes.len() + self.companion) as u64;
        if allocated > ALLOC_FACTOR * input + ALLOC_SLACK {
            faults.push(format!(
                "{what}: allocated {allocated} bytes for {input} bytes of input"
            ));
        }
        if allocated > peak.0 {
            *peak = (allocated, input);
        }
        match out {
            None => {
                faults.push(format!("{what}: decode panicked"));
                None
            }
            Some(Err(_)) => None,
            Some(Ok(value)) => Some((self.encode)(value)),
        }
    }

    /// The whole property over this format.
    fn check(&self) {
        let mut faults = Vec::new();
        let mut peak = (0, 0);
        match self.probe("intact", &self.blob, &mut faults, &mut peak) {
            Some(again) => assert!(again == self.blob, "{}: re-encode differs", self.name),
            None => panic!("{}: the intact blob does not decode: {faults:?}", self.name),
        }
        for cut in 0..self.blob.len() {
            let what = format!("cut at {cut}");
            if self
                .probe(&what, &self.blob[..cut], &mut faults, &mut peak)
                .is_some()
            {
                faults.push(format!("{what}: decoded"));
            }
        }
        let positions = flip_positions(self.blob.len());
        let mut accepted = 0;
        for &bit in &positions {
            let mut bad = self.blob.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let what = format!("bit {bit} (byte {})", bit / 8);
            if let Some(again) = self.probe(&what, &bad, &mut faults, &mut peak) {
                accepted += 1;
                if self.sealed {
                    faults.push(format!("{what}: decoded past the checksum"));
                } else if again != bad {
                    faults.push(format!(
                        "{what}: decoded to a value that re-encodes differently"
                    ));
                }
            }
        }
        eprintln!(
            "{}: {} bytes, {} cuts, {} flips ({accepted} decoded canonically), \
             peak allocation {} bytes for {} bytes of input, {} faults",
            self.name,
            self.blob.len(),
            self.blob.len(),
            positions.len(),
            peak.0,
            peak.1,
            faults.len()
        );
        assert!(
            faults.is_empty(),
            "{}: {} faults, first {:?}",
            self.name,
            faults.len(),
            &faults[..faults.len().min(8)]
        );
    }
}

fn tiny_engine() -> Engine {
    Engine::builder(SynthNode::small(), PipelineConfig::tiny())
        .seed(5)
        .untrained_engine()
        .expect("tiny config is valid")
}

fn train_spec() -> TrainSpec {
    TrainSpec::new("golden")
        .with_epochs(2)
        .with_steps_per_epoch(2)
        .with_batch(2)
        .with_prior(0, 0.5)
        .with_ema(Some(0.9))
}

fn job_spec() -> JobSpec {
    JobSpec::train(
        TrainSpec::new("golden-job")
            .with_epochs(3)
            .with_lr(5e-4)
            .with_prior(2, 0.25)
            .with_ema(Some(0.995))
            .with_export(ExportWeights::Ema)
            .with_dataset("golden")
            .with_synth_corpus(4),
    )
    .with_class(QosClass::Batch)
    .with_hard_deadline(Duration::from_millis(2500))
    .with_retry(RetryPolicy::new(3, Duration::from_millis(10)))
    .with_budget(500)
    .with_seed(7)
    .with_affinity("tenant-a.golden")
    .with_placement(2)
    .with_config(PipelineConfig::tiny())
}

/// A saved engine, a saved session of its starters, and one trained
/// epoch's checkpoint and state, all in one store.
fn fixture() -> (Engine, MemStore) {
    let engine = tiny_engine();
    let store = MemStore::new();
    engine.save(&store).expect("engine saves");
    let mut session = engine.session_seeded(9);
    session.seed_starters();
    session.save(&store, "golden").expect("session saves");
    let mut run = TrainRun::prepare(&engine, &store, &train_spec(), 11).expect("prepare runs");
    run.run_epoch().expect("epoch runs");
    run.checkpoint(&store).expect("checkpoint saves");
    (engine, store)
}

fn raw_weights() -> Vec<u8> {
    let mut pp = PatternPaint::untrained(SynthNode::small(), PipelineConfig::tiny(), 5)
        .expect("tiny config is valid");
    let mut bytes = Vec::new();
    pp.save_weights(&mut bytes).expect("vec writer cannot fail");
    bytes
}

fn get(store: &MemStore, key: &str) -> Vec<u8> {
    store.get(key).expect("fixture key present")
}

/// Each format's bytes, encoded through the same public calls as before
/// the shared codec, hash to what they hashed to then.
#[test]
fn stored_bytes_do_not_change() {
    let (_, store) = fixture();
    let (ckpt_key, state_key) = train_spec().keys();
    let blobs = [
        (
            "PPJS",
            job_spec().encode().expect("spec encodes"),
            312,
            0x67ce_9f4c_86d2_540e,
        ),
        (
            "PPEG",
            get(&store, ENGINE_META_KEY),
            175,
            0x6ef1_1d4a_7bad_3db0,
        ),
        (
            "PPSS",
            get(&store, "session-golden.meta"),
            190,
            0x1e40_aa9f_d2e0_1350,
        ),
        (
            "PPTS",
            get(&store, &state_key),
            43_693,
            0xe619_04bb_55ed_cb72,
        ),
        (
            "PPCK",
            get(&store, &ckpt_key),
            14_607,
            0xe0a0_0f21_cdd2_b293,
        ),
        (
            "PPCK",
            get(&store, ENGINE_MODEL_KEY),
            14_599,
            0x960a_db32_4121_3ff1,
        ),
        ("PPDM", raw_weights(), 14_556, 0xdf19_4609_c8b6_cfcd),
        (
            "PPSQ",
            get(&store, "session-golden.ppsq"),
            658,
            0x50c1_53d1_6c5c_7f83,
        ),
    ];
    for (name, bytes, len, digest) in blobs {
        assert_eq!(bytes.len(), len, "{name} length");
        assert_eq!(fnv1a(&bytes), digest, "{name} digest");
    }
}

#[test]
fn ppjs_job_spec() {
    Format {
        name: "PPJS",
        blob: job_spec().encode().expect("spec encodes"),
        companion: 0,
        sealed: false,
        decode: Box::new(JobSpec::decode),
        encode: Box::new(|spec: JobSpec| spec.encode().expect("a decoded spec encodes")),
    }
    .check();
}

#[test]
fn ppeg_engine_manifest() {
    let (_, store) = fixture();
    let checkpoint = get(&store, ENGINE_MODEL_KEY);
    let probe = MemStore::new();
    probe.put(ENGINE_MODEL_KEY, &checkpoint).unwrap();
    Format {
        name: "PPEG",
        blob: get(&store, ENGINE_META_KEY),
        companion: checkpoint.len(),
        sealed: false,
        decode: Box::new(|meta: &[u8]| {
            probe.put(ENGINE_META_KEY, meta).unwrap();
            Engine::open(&probe)
        }),
        encode: Box::new(|engine: Engine| {
            let out = MemStore::new();
            engine.save(&out).expect("engine saves");
            get(&out, ENGINE_META_KEY)
        }),
    }
    .check();
}

#[test]
fn ppss_session_manifest() {
    let (engine, store) = fixture();
    let library = get(&store, "session-golden.ppsq");
    let probe = MemStore::new();
    probe.put("session-golden.ppsq", &library).unwrap();
    Format {
        name: "PPSS",
        blob: get(&store, "session-golden.meta"),
        companion: library.len(),
        sealed: false,
        decode: Box::new(|meta: &[u8]| {
            probe.put("session-golden.meta", meta).unwrap();
            Session::resume(&engine, &probe, "golden")
        }),
        encode: Box::new(|session: Session| {
            let out = MemStore::new();
            session.save(&out, "golden").expect("session saves");
            get(&out, "session-golden.meta")
        }),
    }
    .check();
}

/// The session library through `Session::resume`, with the manifest
/// fixed: a stored pattern is rasterised only once its Δ entries sum to
/// the engine's clip and it is in canonical squish form.
#[test]
fn ppsq_session_library() {
    let (engine, store) = fixture();
    let meta = get(&store, "session-golden.meta");
    let probe = MemStore::new();
    probe.put("session-golden.meta", &meta).unwrap();
    Format {
        name: "PPSQ session",
        blob: get(&store, "session-golden.ppsq"),
        companion: meta.len(),
        sealed: false,
        decode: Box::new(|library: &[u8]| {
            probe.put("session-golden.ppsq", library).unwrap();
            Session::resume(&engine, &probe, "golden")
        }),
        encode: Box::new(|session: Session| {
            let out = MemStore::new();
            session.save(&out, "golden").expect("session saves");
            get(&out, "session-golden.ppsq")
        }),
    }
    .check();
}

/// Bit 24 of the session library's first Δx widens its first pattern
/// by 2²⁴ pixels. A train job's dataset ingest rejects it with a typed
/// error before rasterising it.
#[test]
fn ppsq_wide_dataset_pattern_is_rejected_before_rasterising() {
    let (engine, store) = fixture();
    let mut library = get(&store, "session-golden.ppsq");
    let word = |bytes: &[u8], at: usize| {
        u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"))
    };
    let cells = word(&library, 12) as usize * word(&library, 16) as usize;
    let dx0 = 20 + cells.div_ceil(8);
    assert!(
        (1..=engine.node().clip()).contains(&word(&library, dx0)),
        "the first Δx where the layout says"
    );
    library[dx0 + 3] ^= 1;
    let probe = MemStore::new();
    probe.put("session-golden.ppsq", &library).unwrap();
    let spec = TrainSpec::new("wide").with_dataset("golden");
    let (out, allocated) = measured(|| {
        matches!(
            TrainRun::prepare(&engine, &probe, &spec, 3),
            Err(PpError::Artifact(_))
        )
    });
    assert_eq!(
        out,
        Some(true),
        "decoded, panicked or gave an untyped error"
    );
    let bound = ALLOC_FACTOR * library.len() as u64 + ALLOC_SLACK;
    assert!(
        allocated <= bound,
        "allocated {allocated} bytes (bound {bound})"
    );
}

#[test]
fn ppts_train_state() {
    let (engine, store) = fixture();
    let spec = train_spec();
    let (ckpt_key, state_key) = spec.keys();
    let checkpoint = get(&store, &ckpt_key);
    let probe = MemStore::new();
    probe.put(&ckpt_key, &checkpoint).unwrap();
    Format {
        name: "PPTS",
        blob: get(&store, &state_key),
        companion: checkpoint.len(),
        sealed: true,
        decode: Box::new(|state: &[u8]| {
            probe.put(&state_key, state).unwrap();
            TrainRun::prepare(&engine, &probe, &spec, 11)
        }),
        encode: Box::new(|mut run: TrainRun| {
            let out = MemStore::new();
            run.checkpoint(&out).expect("checkpoint saves");
            get(&out, &state_key)
        }),
    }
    .check();
}

#[test]
fn ppck_checkpoint() {
    let (_, store) = fixture();
    let (ckpt_key, _) = train_spec().keys();
    Format {
        name: "PPCK",
        blob: get(&store, &ckpt_key),
        companion: 0,
        sealed: true,
        decode: Box::new(load_checkpoint_with),
        encode: Box::new(
            |(mut model, lineage): (DiffusionModel, CheckpointLineage)| {
                let mut out = Vec::new();
                save_checkpoint_with(&mut model, &mut out, lineage).expect("vec writer");
                out
            },
        ),
    }
    .check();
}

/// The flips that made the old decoder build a model from a corrupt
/// `base_ch` before any checksum ran: every bit of its low byte (offset
/// 12). Safe to run against any decoder: the widest asks for about
/// 53 MB.
#[test]
fn ppck_base_ch_flips_allocate_in_proportion() {
    let (_, store) = fixture();
    let (ckpt_key, _) = train_spec().keys();
    let blob = get(&store, &ckpt_key);
    assert_eq!(
        blob[12..16],
        2u32.to_le_bytes(),
        "base_ch where the layout says"
    );
    let mut faults = Vec::new();
    for bit in 0..8 {
        let mut bad = blob.clone();
        bad[12] ^= 1 << bit;
        let (out, allocated) = measured(|| load_checkpoint_with(bad.as_slice()).is_err());
        if out != Some(true) {
            faults.push(format!("bit {bit}: decoded or panicked"));
        }
        let bound = ALLOC_FACTOR * bad.len() as u64 + ALLOC_SLACK;
        if allocated > bound {
            faults.push(format!(
                "bit {bit}: allocated {allocated} bytes (bound {bound})"
            ));
        }
    }
    assert!(faults.is_empty(), "{faults:?}");
}

#[test]
fn ppdm_raw_weights() {
    let cfg = DiffusionConfig::tiny(16);
    Format {
        name: "PPDM",
        blob: raw_weights(),
        companion: 0,
        sealed: false,
        decode: Box::new(|bytes: &[u8]| {
            let mut model = DiffusionModel::new(cfg, 0);
            model.load_weights(bytes).map(|()| model)
        }),
        encode: Box::new(|mut model: DiffusionModel| {
            let mut out = Vec::new();
            model.save_weights(&mut out).expect("vec writer");
            out
        }),
    }
    .check();
}

#[test]
fn ppsq_squish_library() {
    let (_, store) = fixture();
    Format {
        name: "PPSQ",
        blob: get(&store, "session-golden.ppsq"),
        companion: 0,
        sealed: false,
        decode: Box::new(read_squish_library),
        encode: Box::new(|patterns: Vec<_>| {
            let mut out = Vec::new();
            write_squish_library(&patterns, &mut out).expect("vec writer");
            out
        }),
    }
    .check();
}
