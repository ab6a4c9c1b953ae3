//! The round tail: denoise → validate → admit, serial or parallel.
//!
//! A PatternPaint round is sample → denoise → DRC → dedupe, and since
//! the sampling rework the sampler streams faster than one consumer
//! thread can median-filter, squish, signature and rule-check. This
//! module owns everything downstream of the [`SampleStream`]:
//!
//! * [`prepare`] — the per-sample *pure* tail work (denoise to canonical
//!   squish form, legality, signature), safe to run on any thread;
//! * [`admit`] — the library mutation, run on exactly one thread;
//! * [`consume`] — drives a stream through both, either serially
//!   (`tail_threads == 0`) or through a worker pool that fans samples
//!   out to `tail_threads` preparers and reassembles verdicts **in job
//!   order**, so library contents and insertion order are bit-identical
//!   to the serial path for every thread count.

use crate::error::PpError;
use crate::library::PatternLibrary;
use crate::pipeline::RawSample;
use crate::stages::{PatternDenoiser, SampleStream, Validator};
use pp_geometry::{scan_lines_x, scan_lines_y, Layout, Signature, SquishPattern};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};

/// Per-worker cache of template scan lines, keyed by template identity.
///
/// Rounds fan each starter out into hundreds of variations sharing one
/// `Arc<Layout>`; extracting the template's scan lines per sample was
/// two full-raster passes of pure waste. The cache holds a strong
/// `Arc` clone per entry, so a cached address can never be freed and
/// reused by a different template while the cache lives.
type CachedLines = (Arc<Layout>, Vec<u32>, Vec<u32>);

#[derive(Default)]
pub(crate) struct TemplateLineCache {
    lines: HashMap<usize, CachedLines>,
}

impl TemplateLineCache {
    fn lines(&mut self, template: &Arc<Layout>) -> (&[u32], &[u32]) {
        let key = Arc::as_ptr(template) as usize;
        let entry = self.lines.entry(key).or_insert_with(|| {
            (
                Arc::clone(template),
                scan_lines_x(template),
                scan_lines_y(template),
            )
        });
        (&entry.1, &entry.2)
    }
}

/// The outcome of the pure per-sample tail work.
pub(crate) struct TailVerdict {
    squish: SquishPattern,
    /// Computed only for legal samples (illegal ones are never
    /// inserted, so hashing them would be waste).
    signature: Option<Signature>,
    /// Materialised only when a generic validator demanded the raster;
    /// admission rasterises lazily otherwise.
    layout: Option<Layout>,
    legal: bool,
}

/// Denoises and judges one sample without touching the library, with
/// the template scan lines drawn from the caller's `cache`.
pub(crate) fn prepare(
    denoiser: &dyn PatternDenoiser,
    validator: &dyn Validator,
    sample: &RawSample,
    cache: &mut TemplateLineCache,
) -> TailVerdict {
    let (lt_x, lt_y) = cache.lines(&sample.template);
    let squish = denoiser.denoise_squish_sample_with_lines(sample, lt_x, lt_y);
    let (legal, layout) = match validator.is_legal_squish(&squish) {
        Some(legal) => (legal, None),
        None => {
            let raster = squish.to_layout();
            (validator.is_legal(&raster), Some(raster))
        }
    };
    let signature = if legal {
        Some(Signature::of_squish(&squish))
    } else {
        None
    };
    TailVerdict {
        squish,
        signature,
        layout,
        legal,
    }
}

/// Admits a prepared verdict into the library; returns legality
/// (duplicates count as legal, matching [`Validator::admit`]).
pub(crate) fn admit(verdict: TailVerdict, library: &mut PatternLibrary) -> bool {
    if let Some(signature) = verdict.signature {
        let TailVerdict { squish, layout, .. } = verdict;
        library.insert_squished(signature, &squish, || {
            layout.unwrap_or_else(|| squish.to_layout())
        });
        true
    } else {
        verdict.legal
    }
}

/// Consumes a sample stream into `library`, returning
/// `(generated, legal)` counts and the first stream error, if any —
/// the tail half of every round.
///
/// The counts are meaningful even when an error is returned: every
/// sample before the failure point (in job order) is already admitted
/// and counted, which is what lets a timed-out or aborted round report
/// its partial results instead of pretending nothing happened.
///
/// `tail_threads == 0` runs on the calling thread; otherwise a pool of
/// `tail_threads` workers prepares samples concurrently while the
/// calling thread admits verdicts strictly in job order.
pub(crate) fn consume(
    stream: SampleStream,
    denoiser: &dyn PatternDenoiser,
    validator: &dyn Validator,
    tail_threads: usize,
    library: &mut PatternLibrary,
) -> ((usize, usize), Option<PpError>) {
    if tail_threads == 0 {
        return consume_serial(stream, denoiser, validator, library);
    }
    consume_parallel(stream, denoiser, validator, tail_threads, library)
}

/// [`consume`] over an in-memory batch (the `validate_into` entry
/// point). Honors `tail_threads` identically.
pub(crate) fn consume_batch(
    samples: &[RawSample],
    denoiser: &dyn PatternDenoiser,
    validator: &dyn Validator,
    tail_threads: usize,
    library: &mut PatternLibrary,
) -> (usize, usize) {
    let items = samples.iter().map(Ok);
    let (counts, error) = if tail_threads == 0 {
        consume_serial(items, denoiser, validator, library)
    } else {
        consume_parallel(items, denoiser, validator, tail_threads, library)
    };
    assert!(
        error.is_none(),
        "in-memory batches cannot produce stream errors"
    );
    counts
}

fn consume_serial<S, I>(
    items: I,
    denoiser: &dyn PatternDenoiser,
    validator: &dyn Validator,
    library: &mut PatternLibrary,
) -> ((usize, usize), Option<PpError>)
where
    S: Borrow<RawSample>,
    I: Iterator<Item = Result<S, PpError>>,
{
    let mut cache = TemplateLineCache::default();
    let mut generated = 0;
    let mut legal = 0;
    for item in items {
        let sample = match item {
            Ok(s) => s,
            Err(e) => return ((generated, legal), Some(e)),
        };
        generated += 1;
        let verdict = prepare(denoiser, validator, sample.borrow(), &mut cache);
        if admit(verdict, library) {
            legal += 1;
        }
    }
    ((generated, legal), None)
}

/// Samples dispatched to a tail worker per channel message. Channel
/// sends on a bounded `mpsc` wake the receiver — on busy hosts that is
/// a context switch — so per-sample messaging would drown the ~tens of
/// microseconds a 32×32 clip's tail actually costs. Chunking amortises
/// the messaging while staying small enough to load-balance and to
/// keep cancellation latency low.
const DISPATCH_CHUNK: usize = 16;

/// The worker pool: a dispatcher thread drains the stream into a
/// bounded job channel in [`DISPATCH_CHUNK`]-sized chunks, `threads`
/// workers run [`prepare`], and the calling thread reorders verdict
/// chunks back into job order before admitting them.
///
/// Error semantics match the serial loop exactly: the first erroring
/// job (in job order) aborts the round with every earlier sample
/// already admitted and nothing later; the dispatcher stops pulling the
/// stream so sampler workers wind down just as they do when the serial
/// consumer drops the stream.
fn consume_parallel<S, I>(
    items: I,
    denoiser: &dyn PatternDenoiser,
    validator: &dyn Validator,
    threads: usize,
    library: &mut PatternLibrary,
) -> ((usize, usize), Option<PpError>)
where
    S: Borrow<RawSample> + Send,
    I: Iterator<Item = Result<S, PpError>> + Send,
{
    type JobChunk<S> = (usize, Vec<Result<S, PpError>>);
    type VerdictChunk = (usize, Vec<Result<TailVerdict, PpError>>);
    let abort = AtomicBool::new(false);
    let mut generated = 0;
    let mut legal = 0;
    let mut first_error = None;
    std::thread::scope(|scope| {
        let (job_tx, job_rx) = mpsc::sync_channel::<JobChunk<S>>(threads * 2);
        let (verdict_tx, verdict_rx) = mpsc::sync_channel::<VerdictChunk>(threads * 2);
        let job_rx = Arc::new(Mutex::new(job_rx));

        let abort = &abort;
        scope.spawn(move || {
            let mut start = 0usize;
            let mut chunk = Vec::with_capacity(DISPATCH_CHUNK);
            for item in items {
                if abort.load(Ordering::Relaxed) {
                    return;
                }
                chunk.push(item);
                if chunk.len() == DISPATCH_CHUNK {
                    let sent = std::mem::replace(&mut chunk, Vec::with_capacity(DISPATCH_CHUNK));
                    let len = sent.len();
                    if job_tx.send((start, sent)).is_err() {
                        return;
                    }
                    start += len;
                }
            }
            if !chunk.is_empty() {
                let _ = job_tx.send((start, chunk));
            }
        });

        for _ in 0..threads {
            let job_rx = Arc::clone(&job_rx);
            let verdict_tx = verdict_tx.clone();
            scope.spawn(move || {
                let mut cache = TemplateLineCache::default();
                loop {
                    // Poison recovery: a panicking sibling worker must
                    // not wedge the receiver for the rest of the pool.
                    let job = job_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok((start, chunk)) = job else { break };
                    let verdicts: Vec<Result<TailVerdict, PpError>> = chunk
                        .into_iter()
                        .map(|item| {
                            item.map(|sample| {
                                prepare(denoiser, validator, sample.borrow(), &mut cache)
                            })
                        })
                        .collect();
                    if verdict_tx.send((start, verdicts)).is_err() {
                        break;
                    }
                }
            });
        }
        // The workers hold the only remaining senders: the channel
        // closes when the last worker exits, ending the admission loop.
        drop(verdict_tx);

        let mut next = 0usize;
        let mut pending: BTreeMap<usize, Vec<Result<TailVerdict, PpError>>> = BTreeMap::new();
        'admission: for (start, verdicts) in verdict_rx.iter() {
            if first_error.is_some() {
                // Keep draining so workers never block on a full
                // channel, but admit nothing past the failure point.
                continue;
            }
            pending.insert(start, verdicts);
            while let Some(chunk) = pending.remove(&next) {
                next += chunk.len();
                for verdict in chunk {
                    match verdict {
                        Ok(verdict) => {
                            generated += 1;
                            if admit(verdict, library) {
                                legal += 1;
                            }
                        }
                        Err(e) => {
                            first_error = Some(e);
                            abort.store(true, Ordering::Relaxed);
                            pending.clear();
                            continue 'admission;
                        }
                    }
                }
            }
        }
    });
    ((generated, legal), first_error)
}
