//! The parallel round tail must be invisible: for every tail thread
//! count the library contents, insertion order and `(generated, legal)`
//! counts must match the serial path bit for bit — including under
//! cancellation and mid-stream sampler errors.

use patternpaint::core::stages::{SampleStream, Sampler};
use patternpaint::core::{
    CancelToken, JobSet, PatternLibrary, PatternPaint, PipelineConfig, PpError, RawSample,
    StreamOptions,
};
use patternpaint::geometry::GrayImage;
use patternpaint::pdk::SynthNode;
use std::sync::Arc;

fn tiny_pipeline() -> PatternPaint {
    PatternPaint::pretrained(SynthNode::small(), PipelineConfig::tiny(), 7)
        .expect("tiny config is valid")
}

#[test]
fn tail_parallel_matches_serial() {
    let pp = tiny_pipeline();
    let request = pp.initial_request();
    let serial = pp
        .run_request(&request, &StreamOptions::default().with_tail_threads(0))
        .expect("serial round runs");
    assert_eq!(serial.generated, 200);
    assert!(!serial.library.is_empty(), "tiny round found nothing");
    for threads in [1, 2, 4] {
        let parallel = pp
            .run_request(
                &request,
                &StreamOptions::default().with_tail_threads(threads),
            )
            .expect("parallel round runs");
        assert_eq!(parallel.generated, serial.generated, "threads={threads}");
        assert_eq!(parallel.legal, serial.legal, "threads={threads}");
        assert_eq!(
            parallel.library.patterns(),
            serial.library.patterns(),
            "library diverged at tail_threads={threads}"
        );
        let (a, b) = (parallel.library.stats(), serial.library.stats());
        assert_eq!(a.unique, b.unique);
        assert_eq!(a.h1, b.h1, "incremental stats are order-canonical");
        assert_eq!(a.h2, b.h2);
    }
}

#[test]
fn validate_into_parallel_matches_serial() {
    let serial_pp = tiny_pipeline();
    let mut cfg = PipelineConfig::tiny();
    cfg.tail_threads = 3;
    let parallel_pp =
        PatternPaint::pretrained(SynthNode::small(), cfg, 7).expect("tiny config is valid");
    let request = serial_pp.initial_request();
    let raw = serial_pp
        .generate_jobs(request.jobs(), request.seed())
        .expect("jobs run");
    let mut serial_lib = PatternLibrary::new();
    let serial_counts = serial_pp.validate_into(&raw, &mut serial_lib);
    let mut parallel_lib = PatternLibrary::new();
    let parallel_counts = parallel_pp.validate_into(&raw, &mut parallel_lib);
    assert_eq!(parallel_counts, serial_counts);
    assert_eq!(parallel_lib.patterns(), serial_lib.patterns());
}

/// Wraps a sampler, recording every sample its stream delivers.
struct RecordingSampler {
    inner: Arc<dyn Sampler>,
    seen: Arc<std::sync::Mutex<Vec<RawSample>>>,
}

impl Sampler for RecordingSampler {
    fn name(&self) -> &str {
        "recording"
    }

    fn sample(&self, jobs: &JobSet, seed: u64) -> Result<Vec<RawSample>, PpError> {
        self.inner.sample(jobs, seed)
    }

    fn sample_stream(
        &self,
        jobs: &JobSet,
        seed: u64,
        opts: &StreamOptions,
    ) -> Result<SampleStream, PpError> {
        let inner = self.inner.sample_stream(jobs, seed, opts)?;
        let seen = Arc::clone(&self.seen);
        Ok(Box::new(inner.inspect(move |item| {
            if let Ok(sample) = item {
                seen.lock().expect("recorder lock").push(sample.clone());
            }
        })))
    }
}

#[test]
fn cancellation_mid_round_matches_serial_replay_of_delivered_samples() {
    // Cancellation timing makes *which* samples get delivered
    // nondeterministic (each sampling worker cuts its own chunk short),
    // so the invariant to pin is: whatever the stream delivered, the
    // tail — serial or parallel — admitted exactly that sequence, in
    // order. We tee the delivered samples out and replay them serially.
    let pp = tiny_pipeline();
    let total = pp.initial_request().jobs().len();
    for threads in [0usize, 1, 2, 4] {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let recording = PatternPaint::builder(SynthNode::small(), PipelineConfig::tiny())
            .seed(7)
            .sampler(RecordingSampler {
                inner: pp.sampler(),
                seen: Arc::clone(&seen),
            })
            .untrained()
            .expect("tiny config is valid");
        let request = recording.initial_request();
        let cancel = CancelToken::new();
        let hook_cancel = cancel.clone();
        let opts = StreamOptions::default()
            .with_cancel(cancel)
            .with_tail_threads(threads)
            .with_progress(move |_| hook_cancel.cancel());
        let round = recording.run_request(&request, &opts).expect("round runs");
        let seen = seen.lock().expect("recorder lock");
        assert!(
            round.generated >= 1 && round.generated < total,
            "cancellation failed to stop the round early at tail_threads={threads} \
             ({}/{total})",
            round.generated,
        );
        assert_eq!(round.generated, seen.len(), "threads={threads}");
        let mut replay = PatternLibrary::new();
        let (_, legal) = pp.validate_into(&seen, &mut replay);
        assert_eq!(round.legal, legal, "threads={threads}");
        assert_eq!(
            round.library.patterns(),
            replay.patterns(),
            "cancelled round diverged from a serial replay at tail_threads={threads}"
        );
    }
}

/// A sampler whose stream fails after a fixed number of samples.
struct FailingSampler {
    good: usize,
}

impl Sampler for FailingSampler {
    fn name(&self) -> &str {
        "failing"
    }

    fn sample(&self, jobs: &JobSet, _seed: u64) -> Result<Vec<RawSample>, PpError> {
        Ok(jobs
            .iter()
            .take(self.good)
            .map(|(template, _)| RawSample {
                template: Arc::clone(template),
                raw: GrayImage::from_layout(template),
            })
            .collect())
    }

    fn sample_stream(
        &self,
        jobs: &JobSet,
        seed: u64,
        _opts: &StreamOptions,
    ) -> Result<SampleStream, PpError> {
        let good = self.sample(jobs, seed)?;
        let iter = good
            .into_iter()
            .map(Ok)
            .chain(std::iter::once(Err(PpError::Model(
                "injected failure".into(),
            ))));
        Ok(Box::new(iter))
    }
}

#[test]
fn mid_stream_error_surfaces_with_prefix_admissions() {
    let node = SynthNode::small();
    let make = |tail_threads: usize| {
        let mut cfg = PipelineConfig::tiny();
        cfg.tail_threads = tail_threads;
        PatternPaint::builder(node.clone(), cfg)
            .seed(3)
            .sampler(FailingSampler { good: 7 })
            .untrained()
            .expect("valid config")
    };
    let serial_pp = make(0);
    let request = serial_pp.initial_request();
    let mut serial_lib = PatternLibrary::new();
    let serial_err = serial_pp
        .run_request_into(&request, &StreamOptions::default(), &mut serial_lib)
        .expect_err("stream error must surface");
    assert!(matches!(serial_err, PpError::Model(_)));
    // Echoed starters are DR-clean, so the 7 good samples all admit.
    assert!(!serial_lib.is_empty());
    for threads in [1usize, 2, 4] {
        let pp = make(threads);
        let mut lib = PatternLibrary::new();
        let err = pp
            .run_request_into(&request, &StreamOptions::default(), &mut lib)
            .expect_err("stream error must surface");
        assert!(matches!(err, PpError::Model(_)), "threads={threads}");
        assert_eq!(
            lib.patterns(),
            serial_lib.patterns(),
            "error-path admissions diverged at tail_threads={threads}"
        );
    }
}
