//! Clients: the open-loop Interactive load generator, closed-loop
//! background clients and the train-job watcher.

use crate::trace::Tracer;
use patternpaint_core::{JobOutcome, JobReport, JobSpec, JobStatus, PpError, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Due offsets of `n` arrivals of a Poisson process conditioned on
/// exactly `n` arrivals in `[0, span)`: `n + 1` exponential gaps scaled
/// so that they sum to `span`. Arrivals keep their exponential spacing,
/// and every seed offers the same load over the same span.
pub fn schedule(n: usize, span: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let gaps: Vec<f64> = (0..=n)
        .map(|_| -(1.0 - rng.gen_range(0.0f64..1.0)).ln())
        .collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            at += g;
            span.mul_f64(at / total)
        })
        .collect()
}

/// One job as a client saw it.
pub struct JobRecord {
    /// When the job was due to be submitted.
    pub due: Instant,
    /// How long `Service::submit` took, in microseconds.
    pub submit_us: f64,
    /// When the client saw the terminal outcome.
    pub done: Instant,
    /// The terminal outcome, or the error `submit` refused it with.
    pub outcome: Result<JobOutcome, PpError>,
}

impl JobRecord {
    /// The report of a completed job.
    pub fn completed(&self) -> Option<&JobReport> {
        match &self.outcome {
            Ok(JobOutcome::Completed(report)) => Some(report),
            _ => None,
        }
    }

    /// Milliseconds from due time to terminal outcome; a job that did
    /// not complete counts as missing every limit.
    pub fn latency_ms(&self) -> f64 {
        if self.completed().is_some() {
            self.done.duration_since(self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }

    fn refused(due: Instant, submit_us: f64, error: PpError) -> JobRecord {
        JobRecord {
            due,
            submit_us,
            done: Instant::now(),
            outcome: Err(error),
        }
    }
}

/// How often outstanding handles are polled.
const POLL: Duration = Duration::from_micros(500);

/// Submits `jobs` open loop, each at `start + due`, from this thread,
/// and polls the outstanding handles between submissions so each
/// terminal outcome is timed within [`POLL`]. Returns the records in
/// submission order and the latest any submission ran past its due
/// time, in milliseconds.
pub fn open_loop(
    service: &Service,
    jobs: Vec<(Duration, JobSpec)>,
    start: Instant,
    tracer: Option<&Tracer>,
) -> (Vec<JobRecord>, f64) {
    let mut records: Vec<Option<JobRecord>> = Vec::with_capacity(jobs.len());
    let mut pending = Vec::new();
    let mut late_max = 0.0f64;
    let mut jobs = jobs.into_iter().peekable();
    loop {
        while let Some(&(offset, _)) = jobs.peek() {
            let due = start + offset;
            let now = Instant::now();
            if now < due {
                break;
            }
            late_max = late_max.max(now.duration_since(due).as_secs_f64() * 1e3);
            let (_, spec) = jobs.next().expect("peeked");
            let t = Instant::now();
            let submitted = service.submit(spec);
            let submit_us = t.elapsed().as_secs_f64() * 1e6;
            match submitted {
                Ok(handle) => {
                    pending.push((records.len(), due, submit_us, handle));
                    records.push(None);
                }
                Err(e) => records.push(Some(JobRecord::refused(due, submit_us, e))),
            }
        }
        let mut i = 0;
        while i < pending.len() {
            if pending[i].3.poll() != JobStatus::Done {
                i += 1;
                continue;
            }
            let done = Instant::now();
            let (slot, due, submit_us, handle) = pending.swap_remove(i);
            let id = handle.id();
            if let Some(tracer) = tracer {
                tracer.record("service.job", id, due, done);
            }
            records[slot] = Some(JobRecord {
                due,
                submit_us,
                done,
                // Settled: `wait` returns at once.
                outcome: Ok(handle.wait()),
            });
        }
        if jobs.peek().is_none() && pending.is_empty() {
            break;
        }
        let next_due = jobs.peek().map_or(POLL, |&(o, _)| {
            (start + o).saturating_duration_since(Instant::now())
        });
        std::thread::sleep(next_due.min(POLL));
    }
    let records = records
        .into_iter()
        .map(|r| r.expect("every job was settled"))
        .collect();
    (records, late_max)
}

/// Submits `jobs` one after another, each as soon as the previous one
/// reached its terminal outcome.
pub fn closed_loop(
    service: &Service,
    jobs: Vec<JobSpec>,
    tracer: Option<&Tracer>,
) -> Vec<JobRecord> {
    jobs.into_iter()
        .map(|spec| {
            let due = Instant::now();
            let submitted = service.submit(spec);
            let submit_us = due.elapsed().as_secs_f64() * 1e6;
            match submitted {
                Ok(handle) => {
                    let id = handle.id();
                    let outcome = handle.wait();
                    let done = Instant::now();
                    if let Some(tracer) = tracer {
                        tracer.record("service.job", id, due, done);
                    }
                    JobRecord {
                        due,
                        submit_us,
                        done,
                        outcome: Ok(outcome),
                    }
                }
                Err(e) => JobRecord::refused(due, submit_us, e),
            }
        })
        .collect()
}

/// A train job as its client saw it through `JobHandle::progress`.
pub struct TrainWatch {
    pub record: JobRecord,
    /// When the job first reported its epoch total: preparation done.
    pub prepared: Option<Instant>,
    /// When each epoch was reported complete, in order.
    pub epochs: Vec<Instant>,
}

/// How often the train job's progress is polled.
const TRAIN_POLL: Duration = Duration::from_millis(2);

/// Submits a train job and polls its progress until it settles.
pub fn watch_train(service: &Service, spec: JobSpec, tracer: Option<&Tracer>) -> TrainWatch {
    let due = Instant::now();
    let submitted = service.submit(spec);
    let submit_us = due.elapsed().as_secs_f64() * 1e6;
    let handle = match submitted {
        Ok(handle) => handle,
        Err(e) => {
            return TrainWatch {
                record: JobRecord::refused(due, submit_us, e),
                prepared: None,
                epochs: Vec::new(),
            }
        }
    };
    let id = handle.id();
    let (mut prepared, mut epochs) = (None, Vec::new());
    let mut observe = |now: Instant| {
        let p = handle.progress();
        if prepared.is_none() && p.total > 0 {
            prepared = Some(now);
        }
        while epochs.len() < p.completed {
            epochs.push(now);
        }
    };
    while handle.poll() != JobStatus::Done {
        observe(Instant::now());
        std::thread::sleep(TRAIN_POLL);
    }
    let done = Instant::now();
    observe(done);
    if let Some(tracer) = tracer {
        tracer.record("train.job", id, due, done);
        if let Some(p) = prepared {
            tracer.record("train.prepare", id, due, p);
            let mut from = p;
            for &end in &epochs {
                tracer.record("train.epoch", id, from, end);
                from = end;
            }
        }
    }
    TrainWatch {
        record: JobRecord {
            due,
            submit_us,
            done,
            outcome: Ok(handle.wait()),
        },
        prepared,
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spans_the_window_with_exact_count() {
        let span = Duration::from_secs(25);
        let a = schedule(200, span, 1);
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < span);
        assert_eq!(a, schedule(200, span, 1));
        assert_ne!(a, schedule(200, span, 2));
    }
}
