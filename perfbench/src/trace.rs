//! In-memory spans around calls into the program's public seams, and
//! the stage and store wrappers that record them.
//!
//! A span has a name, a start, an end, a parent and a job id; children
//! are found through a per-thread stack, so a span opened inside
//! another on the same thread is its child and inherits its job id.
//! Spans stay in memory until [`Tracer::write`] dumps them at exit.

use crate::report::Metrics;
use patternpaint_core::stages::{PatternDenoiser, SampleStream, Sampler, Selector, Validator};
use patternpaint_core::{
    ArtifactError, ArtifactStore, JobSet, PatternLibrary, PpError, RawSample, StreamOptions,
};
use pp_geometry::{Layout, SquishPattern};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's
/// epoch; `parent` and `job` are 0 when absent.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    job: u64,
    thread: u64,
    name: &'static str,
    start: u64,
    end: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The span sink of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans on this thread: `(span id, job id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    job: u64,
    name: &'static str,
    start: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(id, _)| id == self.id) {
                s.remove(pos);
            }
        });
        let end = self.tracer.now();
        self.tracer.push(Span {
            id: self.id,
            parent: self.parent,
            job: self.job,
            thread: THREAD.with(|t| *t),
            name: self.name,
            start: self.start,
            end,
        });
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's epoch to `t` (0 if `t` is earlier).
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let (parent, job) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
        self.open(name, parent, job)
    }

    /// Opens a top-level span for job `job` on this thread.
    pub fn job_span(&self, name: &'static str, job: u64) -> SpanGuard<'_> {
        self.open(name, 0, job)
    }

    fn open(&self, name: &'static str, parent: u64, job: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push((id, job)));
        SpanGuard {
            tracer: self,
            id,
            parent,
            job,
            name,
            start: self.now(),
        }
    }

    /// Records a finished interval observed from outside the call that
    /// spent it (a client-side view of a job or epoch).
    pub fn record(&self, name: &'static str, job: u64, start: Instant, end: Instant) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: 0,
            job,
            thread: THREAD.with(|t| *t),
            name,
            start: self.at(start),
            end: self.at(end),
        });
    }

    /// All spans recorded so far.
    fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// `(count, total nanoseconds)` of the spans named `name` that
    /// started at or after `since` (tracer nanoseconds).
    pub fn total(&self, name: &str, since: u64) -> (u64, u64) {
        let spans = self.spans.lock().expect("span sink poisoned");
        spans
            .iter()
            .filter(|s| s.name == name && s.start >= since)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.nanos()))
    }

    /// Writes every span as one JSON line, then one summary line per
    /// span name with its count, total time and self time (its duration
    /// minus the union of its children's intervals).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"span\": \"{}\", \"id\": {}, \"parent\": {}, \"job\": {}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.parent, s.job, s.thread, s.start, s.end
            )?;
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_nanos(c, s.start, s.end));
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.nanos();
            e.2 += s.nanos().saturating_sub(covered);
        }
        for (name, (count, total, self_ns)) in summary {
            writeln!(
                out,
                "{{\"summary\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {self_ns}}}"
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_nanos(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    v.sort_unstable();
    let (mut total, mut cur_end) = (0, lo);
    for (s, e) in v {
        let s = s.max(cur_end);
        if e > s {
            total += e - s;
            cur_end = e;
        }
    }
    total
}

/// Counts behind the tail ratios: samples checked and found legal.
#[derive(Debug, Default)]
pub struct TailCounts {
    pub checked: AtomicU64,
    pub legal: AtomicU64,
}

/// The round-tail layer metrics of a traced window that started at
/// `since` (tracer nanoseconds) and lasted `window` seconds, in which
/// `legal` legal samples left `unique` patterns in the union of the
/// libraries; plus the mean artifact read time over the whole run.
pub fn tail_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    counts: &TailCounts,
    since: u64,
    window: f64,
    unique: usize,
    legal: usize,
) {
    let mean = |(n, ns): (u64, u64), scale: f64| ns as f64 / scale / n.max(1) as f64;
    let denoise = tracer.total("inpaint.denoise", since);
    let check = tracer.total("drc.check", since);
    m.set("inpaint.denoise_us", mean(denoise, 1e3));
    m.set("drc.check_us", mean(check, 1e3));
    m.set("tail.share", (denoise.1 + check.1) as f64 / 1e9 / window);
    let checked = counts.checked.load(Ordering::Relaxed).max(1) as f64;
    m.set(
        "drc.legal_share",
        counts.legal.load(Ordering::Relaxed) as f64 / checked,
    );
    m.set("library.dedup_share", unique as f64 / legal.max(1) as f64);
    m.set(
        "artifact.get_ms",
        mean(tracer.total("artifact.get", 0), 1e6),
    );
}

/// A [`PatternDenoiser`] that records `inpaint.denoise` spans and
/// forwards all three denoising entry points, so the fused squish tail
/// still runs.
pub struct TracedDenoiser<D> {
    pub inner: D,
    pub tracer: Arc<Tracer>,
}

impl<D: PatternDenoiser> PatternDenoiser for TracedDenoiser<D> {
    fn denoise_sample(&self, sample: &RawSample) -> Layout {
        let _span = self.tracer.span("inpaint.denoise");
        self.inner.denoise_sample(sample)
    }

    fn denoise_squish_sample(&self, sample: &RawSample) -> SquishPattern {
        let _span = self.tracer.span("inpaint.denoise");
        self.inner.denoise_squish_sample(sample)
    }

    fn denoise_squish_sample_with_lines(
        &self,
        sample: &RawSample,
        lt_x: &[u32],
        lt_y: &[u32],
    ) -> SquishPattern {
        let _span = self.tracer.span("inpaint.denoise");
        self.inner
            .denoise_squish_sample_with_lines(sample, lt_x, lt_y)
    }

    fn denoiser_name(&self) -> &str {
        self.inner.denoiser_name()
    }
}

/// A [`Validator`] that records `drc.check` spans and counts verdicts.
pub struct TracedValidator<V> {
    pub inner: V,
    pub tracer: Arc<Tracer>,
    pub counts: Arc<TailCounts>,
}

impl<V: Validator> TracedValidator<V> {
    fn count(&self, legal: bool) -> bool {
        self.counts.checked.fetch_add(1, Ordering::Relaxed);
        if legal {
            self.counts.legal.fetch_add(1, Ordering::Relaxed);
        }
        legal
    }
}

impl<V: Validator> Validator for TracedValidator<V> {
    fn is_legal(&self, layout: &Layout) -> bool {
        let _span = self.tracer.span("drc.check");
        self.count(self.inner.is_legal(layout))
    }

    fn is_legal_squish(&self, squish: &SquishPattern) -> Option<bool> {
        let _span = self.tracer.span("drc.check");
        self.inner.is_legal_squish(squish).map(|l| self.count(l))
    }

    fn admit(&self, layout: Layout, library: &mut PatternLibrary) -> bool {
        let legal = self.is_legal(&layout);
        if legal {
            library.insert(layout);
        }
        legal
    }
}

/// A [`Selector`] that records `selection.select` spans.
pub struct TracedSelector<S> {
    pub inner: S,
    pub tracer: Arc<Tracer>,
}

impl<S: Selector> Selector for TracedSelector<S> {
    fn select(&self, library: &[Layout], k: usize) -> Vec<usize> {
        let _span = self.tracer.span("selection.select");
        self.inner.select(library, k)
    }
}

/// A [`Sampler`] that records how long its consumer blocks on the
/// sample stream (`diffusion.wait` spans, one per pulled sample).
pub struct TracedSampler<S> {
    pub inner: S,
    pub tracer: Arc<Tracer>,
}

impl<S: Sampler> Sampler for TracedSampler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sample(&self, jobs: &JobSet, seed: u64) -> Result<Vec<RawSample>, PpError> {
        let _span = self.tracer.span("diffusion.wait");
        self.inner.sample(jobs, seed)
    }

    fn sample_stream(
        &self,
        jobs: &JobSet,
        seed: u64,
        opts: &StreamOptions,
    ) -> Result<SampleStream, PpError> {
        let mut inner = self.inner.sample_stream(jobs, seed, opts)?;
        let tracer = Arc::clone(&self.tracer);
        let (parent, job) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
        Ok(Box::new(std::iter::from_fn(move || {
            let _span = tracer.open("diffusion.wait", parent, job);
            inner.next()
        })))
    }
}

/// An [`ArtifactStore`] that records `artifact.put` / `artifact.get`
/// spans and the bytes put.
pub struct TracedStore<S> {
    pub inner: S,
    pub tracer: Arc<Tracer>,
    pub put_bytes: AtomicU64,
}

impl<S> TracedStore<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        TracedStore {
            inner,
            tracer,
            put_bytes: AtomicU64::new(0),
        }
    }
}

impl<S: ArtifactStore> ArtifactStore for TracedStore<S> {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), ArtifactError> {
        let _span = self.tracer.span("artifact.put");
        self.put_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.put(key, bytes)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, ArtifactError> {
        let _span = self.tracer.span("artifact.get");
        self.inner.get(key)
    }

    fn contains(&self, key: &str) -> Result<bool, ArtifactError> {
        self.inner.contains(key)
    }

    fn list(&self) -> Result<Vec<String>, ArtifactError> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_job() {
        let tracer = Tracer::new();
        {
            let _job = tracer.job_span("job", 7);
            let _child = tracer.span("child");
        }
        let spans = tracer.spans();
        let job = spans.iter().find(|s| s.name == "job").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, job.id);
        assert_eq!(child.job, 7);
        assert!(child.start >= job.start && child.end <= job.end);
    }

    #[test]
    fn covered_time_is_the_union_of_children() {
        assert_eq!(covered_nanos(&[(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(covered_nanos(&[], 0, 25), 0);
    }
}
