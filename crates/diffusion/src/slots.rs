//! The slot-table DDIM core — the one sampling loop in the crate —
//! with continuous batching at DDIM-step granularity.
//!
//! A worker keeps a *slot table* of in-flight jobs, each with its own
//! template, mask, RNG stream and **step cursor**, and between any two
//! DDIM steps it asks a [`SlotFeed`] for new jobs to admit into free
//! slots. Every forward pass packs the active slots into one tensor with
//! a *per-slot* timestep vector, so slots at different cursor depths
//! share the pass the way LLM serving engines continuously batch
//! requests at token granularity.
//!
//! Every sampling path runs this loop. `pp-core`'s engine scheduler
//! drives it from its worker threads through
//! [`InpaintWorker::run_slots`]; the blocking entry points
//! ([`DiffusionModel::sample_inpaint`],
//! [`DiffusionModel::sample_inpaint_batch_sized`]) drive it with a
//! chunk feed that admits one fixed micro-batch whenever the table is
//! empty.
//!
//! **Why this is bit-identical to solo sampling.** Every per-pixel
//! operation in the DDIM loop is sample-local; the U-Net computes its
//! time embedding per batch row (`forward_infer` takes `&[usize]`, one
//! timestep per row, and `infer_batch_rows_match_solo` in `unet.rs` pins
//! per-row bit-identity under heterogeneous timesteps); and a slot's
//! noise comes from an RNG stream seeded only by [`SlotJob::seed`]. A
//! job's output therefore depends on `(template, mask, seed)` alone —
//! never on which slots shared its passes or at what cursor depth they
//! ran. `slot_table_matches_solo_under_staggered_admission` (below)
//! asserts exactly that against an independent one-job reference loop.
//!
//! The loop never blocks between steps on its own: [`SlotFeed::refill`]
//! may block waiting for work only while the table is empty. The feed is
//! also the delivery side ([`SlotFeed::complete`]) and the cancellation
//! side ([`SlotFeed::evict`]), so the whole scheduling policy lives with
//! the caller (see the tests for a scripted feed).

use crate::error::ModelError;
use crate::model::{randn, DiffusionModel, InpaintWorker, Parameterization};
use crate::unet::UNet;
use pp_geometry::GrayImage;
use pp_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::Arc;

/// One job handed to a worker's slot table by a [`SlotFeed`].
///
/// The job set is shared (`Arc`) so admitting a slot copies no pixels;
/// `index` names the `(image, mask)` pair inside it. `seed` is the
/// *final* per-job seed (callers that derive per-job streams as
/// `request_seed ^ index` must do so before constructing the job —
/// the slot table never mixes anything else in, which is what keeps a
/// slot's output independent of batch grouping).
#[derive(Debug, Clone)]
pub struct SlotJob {
    /// Caller-chosen identifier, echoed back through
    /// [`SlotFeed::complete`] / [`SlotFeed::evict`]. Must be unique
    /// among the jobs in flight on one worker.
    pub tag: u64,
    /// The shared job set this slot's images live in.
    pub jobs: Arc<Vec<(GrayImage, GrayImage)>>,
    /// Index of this slot's `(image, mask)` pair within `jobs`.
    pub index: usize,
    /// The per-job RNG stream seed (already index-mixed by the caller).
    pub seed: u64,
}

/// The scheduling half of a slot-table worker: supplies jobs, receives
/// finished samples, and can evict in-flight slots.
///
/// Called from the worker's own thread, between DDIM steps — no method
/// may assume any other thread's progress, and only
/// [`SlotFeed::refill`] with an empty table may block.
pub trait SlotFeed {
    /// Asks for jobs to admit. `active` is the number of slots
    /// currently in flight; the feed bounds its own capacity by
    /// returning at most `capacity - active` jobs. Called before the
    /// first step and again after every step, so a returned job starts
    /// its DDIM loop at the very next pass, regardless of where other
    /// slots' cursors stand.
    ///
    /// Blocking (e.g. on a condition variable) is allowed **only when
    /// `active == 0`** — with slots in flight the loop must keep
    /// stepping them. Returning an empty `Vec` while `active == 0`
    /// ends the run loop.
    fn refill(&mut self, active: usize) -> Vec<SlotJob>;

    /// Delivers the finished sample for the slot tagged `tag`
    /// (composited, clamped to `[-1, 1]` — exactly what
    /// [`DiffusionModel::sample_inpaint`] returns for the same job and
    /// seed).
    fn complete(&mut self, tag: u64, sample: GrayImage);

    /// Polled once per step for every in-flight slot: returning `true`
    /// drops the slot without completing it (its remaining steps are
    /// reclaimed for other work). Default: never evict.
    fn evict(&mut self, _tag: u64) -> bool {
        false
    }

    /// Observability hook: called once per packed forward pass with the
    /// number of active slots in it. Default: no-op.
    fn on_step(&mut self, _active: usize) {}
}

/// One in-flight slot: a job, its evolving `x_t`, and its step cursor.
struct Slot {
    tag: u64,
    jobs: Arc<Vec<(GrayImage, GrayImage)>>,
    index: usize,
    x: Vec<f32>,
    cursor: usize,
}

impl InpaintWorker {
    /// Runs the continuous-batching slot loop until the feed runs dry.
    ///
    /// Each iteration: evict, refill from `feed`, then run **one** DDIM
    /// step for every active slot in a single packed network pass
    /// (per-slot timesteps), completing slots whose cursor reached the
    /// end. Per-slot results are bit-identical to
    /// [`DiffusionModel::sample_inpaint`] with the same `(image, mask,
    /// seed)` — admission order, co-resident slots and cursor skew
    /// never affect a sample (see the module docs for why).
    ///
    /// Returns when [`SlotFeed::refill`] yields nothing while the table
    /// is empty.
    ///
    /// # Errors
    ///
    /// [`ModelError::Shape`] when an admitted job's image or mask does
    /// not match the configured model size, or its index is out of
    /// bounds for its job set. In-flight slots are dropped without
    /// completion; callers treat this like a worker fault.
    pub fn run_slots(&mut self, feed: &mut dyn SlotFeed) -> Result<(), ModelError> {
        let model = Arc::clone(&self.model);
        model.slot_loop(&mut self.unet, feed)
    }
}

/// The blocking entry points' feed: walks a contiguous job range,
/// admitting the next `width` jobs only when the table is empty — one
/// fixed micro-batch at a time, run to completion — and collects the
/// samples in job order.
struct ChunkFeed {
    jobs: Arc<Vec<(GrayImage, GrayImage)>>,
    seed: u64,
    /// Jobs not admitted yet.
    pending: Range<usize>,
    width: usize,
    samples: Vec<GrayImage>,
}

impl SlotFeed for ChunkFeed {
    fn refill(&mut self, active: usize) -> Vec<SlotJob> {
        if active > 0 {
            return Vec::new();
        }
        let start = self.pending.start;
        self.pending.start = (start + self.width).min(self.pending.end);
        (start..self.pending.start)
            .map(|index| SlotJob {
                tag: index as u64,
                jobs: Arc::clone(&self.jobs),
                index,
                seed: self.seed ^ index as u64,
            })
            .collect()
    }

    fn complete(&mut self, _tag: u64, sample: GrayImage) {
        // A batch admitted together finishes on one pass, in slot
        // order, which is job order.
        self.samples.push(sample);
    }
}

impl DiffusionModel {
    /// Samples `jobs[range]` on the calling thread, `width` jobs per
    /// micro-batch, job `i` from the RNG stream `seed ^ i`. Shapes are
    /// validated by the public entry points.
    pub(crate) fn sample_range(
        &self,
        unet: &mut UNet,
        jobs: &Arc<Vec<(GrayImage, GrayImage)>>,
        range: Range<usize>,
        width: usize,
        seed: u64,
    ) -> Result<Vec<GrayImage>, ModelError> {
        let mut feed = ChunkFeed {
            jobs: Arc::clone(jobs),
            seed,
            samples: Vec::with_capacity(range.len()),
            pending: range,
            width: width.max(1),
        };
        self.slot_loop(unet, &mut feed)?;
        Ok(feed.samples)
    }

    /// The slot-table DDIM core: every sampling path runs this loop.
    pub(crate) fn slot_loop(
        &self,
        unet: &mut UNet,
        feed: &mut dyn SlotFeed,
    ) -> Result<(), ModelError> {
        let cfg = self.config();
        let side = cfg.image as usize;
        let hw = side * side;
        let ts = self.schedule().ddim_timesteps(cfg.ddim_steps);
        let mut slots: Vec<Slot> = Vec::new();
        // One packed input for the whole run. Its conditioning planes
        // (mask, masked image) are rewritten only when table membership
        // changes; plane 0 (x_t) every step.
        let mut input = Tensor::zeros([1, 3, side, side]);
        let mut members_dirty = true;
        let mut tvec: Vec<usize> = Vec::new();
        let mut x0_hat = vec![0.0f32; hw];
        loop {
            // Evict: the feed may retire in-flight slots (cancelled or
            // poisoned submissions) so their remaining steps are not
            // spent on output nobody will receive.
            let before = slots.len();
            slots.retain(|s| !feed.evict(s.tag));
            members_dirty |= slots.len() != before;

            // Refill free slots. A fresh slot joins the *next* pass at
            // cursor 0 while its neighbours keep their own cursors.
            let incoming = feed.refill(slots.len());
            if incoming.is_empty() && slots.is_empty() {
                return Ok(());
            }
            for job in incoming {
                let Some((image, mask)) = job.jobs.get(job.index) else {
                    return Err(ModelError::Shape {
                        what: "slot job index vs job set",
                        expected: job.jobs.len() as u32,
                        actual: job.index as u32,
                    });
                };
                self.check_image("slot image", image)?;
                self.check_image("slot mask", mask)?;
                let mut rng = StdRng::seed_from_u64(job.seed);
                slots.push(Slot {
                    tag: job.tag,
                    jobs: Arc::clone(&job.jobs),
                    index: job.index,
                    x: (0..hw).map(|_| randn(&mut rng)).collect(),
                    cursor: 0,
                });
                members_dirty = true;
            }

            // Zero-step schedules complete at admission; otherwise run
            // one packed pass with per-slot timesteps.
            if !ts.is_empty() {
                let b = slots.len();
                feed.on_step(b);
                if members_dirty {
                    // Resized in place, not reallocated: every row's
                    // planes 1-2 are rewritten here and plane 0 below,
                    // so stale contents never reach the network.
                    input.resize_batch(b);
                    for (bi, slot) in slots.iter().enumerate() {
                        let (image, mask) = &slot.jobs[slot.index];
                        let m = mask.as_pixels();
                        input.plane_mut(bi, 1).copy_from_slice(m);
                        let masked = input.plane_mut(bi, 2);
                        for (dst, (&v, &mm)) in
                            masked.iter_mut().zip(image.as_pixels().iter().zip(m))
                        {
                            *dst = if mm > 0.5 { 0.0 } else { v };
                        }
                    }
                    members_dirty = false;
                }
                tvec.clear();
                for (bi, slot) in slots.iter().enumerate() {
                    input.plane_mut(bi, 0).copy_from_slice(&slot.x);
                    tvec.push(ts[slot.cursor]);
                }
                let pred = unet.forward_infer(&input, &tvec);
                for (bi, slot) in slots.iter_mut().enumerate() {
                    // Per-slot step constants: each slot recovers x̂0 and
                    // advances with *its own* `t → s` pair.
                    let t = ts[slot.cursor];
                    let ab = self.schedule().alpha_bar(t);
                    let (sa, sn) = (ab.sqrt().max(1e-4), (1.0 - ab).sqrt());
                    let s = if slot.cursor + 1 < ts.len() {
                        ts[slot.cursor + 1]
                    } else {
                        usize::MAX
                    };
                    let (image, mask) = &slot.jobs[slot.index];
                    let x0_known = image.as_pixels();
                    let m = mask.as_pixels();
                    let pp = pred.plane(bi, 0);
                    for (j, xh) in x0_hat.iter_mut().enumerate() {
                        let x0_model = match cfg.parameterization {
                            Parameterization::X0 => pp[j],
                            Parameterization::Epsilon => (slot.x[j] - sn * pp[j]) / sa,
                        };
                        *xh = if m[j] > 0.5 {
                            x0_model.clamp(-1.0, 1.0)
                        } else {
                            x0_known[j]
                        };
                    }
                    self.schedule()
                        .ddim_step_in_place(&mut slot.x, &x0_hat, t, s);
                    slot.cursor += 1;
                }
                unet.recycle(pred);
            }

            // Complete finished slots (they free capacity for the next
            // refill, which runs before the next pass).
            let mut i = 0;
            while i < slots.len() {
                if slots[i].cursor >= ts.len() {
                    let slot = slots.remove(i);
                    let mut out = GrayImage::from_pixels(cfg.image, cfg.image, slot.x);
                    out.clamp(-1.0, 1.0);
                    feed.complete(slot.tag, out);
                    members_dirty = true;
                } else {
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DiffusionConfig;
    use std::collections::{BTreeMap, VecDeque};

    fn mixed_jobs(n: usize) -> Arc<Vec<(GrayImage, GrayImage)>> {
        Arc::new(
            (0..n)
                .map(|i| {
                    let mut image = GrayImage::filled(16, 16, -1.0);
                    for y in 0..16 {
                        image.set((i as u32) % 16, y, 1.0);
                    }
                    let mut mask = GrayImage::filled(16, 16, 0.0);
                    for y in 0..16 {
                        for x in (i as u32 % 8)..16 {
                            mask.set(x, y, 1.0);
                        }
                    }
                    (image, mask)
                })
                .collect(),
        )
    }

    /// A feed driven by a per-refill-call script: each call pops the
    /// next admission group (possibly empty, to skew cursors).
    struct ScriptFeed {
        jobs: Arc<Vec<(GrayImage, GrayImage)>>,
        seed: u64,
        script: VecDeque<Vec<usize>>,
        done: BTreeMap<u64, GrayImage>,
        evict_tags: Vec<u64>,
        widths: Vec<usize>,
    }

    impl ScriptFeed {
        fn new(jobs: Arc<Vec<(GrayImage, GrayImage)>>, seed: u64) -> ScriptFeed {
            ScriptFeed {
                jobs,
                seed,
                script: VecDeque::new(),
                done: BTreeMap::new(),
                evict_tags: Vec::new(),
                widths: Vec::new(),
            }
        }
    }

    impl SlotFeed for ScriptFeed {
        fn refill(&mut self, _active: usize) -> Vec<SlotJob> {
            self.script
                .pop_front()
                .unwrap_or_default()
                .into_iter()
                .map(|index| SlotJob {
                    tag: index as u64,
                    jobs: Arc::clone(&self.jobs),
                    index,
                    seed: self.seed ^ index as u64,
                })
                .collect()
        }

        fn complete(&mut self, tag: u64, sample: GrayImage) {
            assert!(
                self.done.insert(tag, sample).is_none(),
                "slot {tag} completed twice"
            );
        }

        fn evict(&mut self, tag: u64) -> bool {
            self.evict_tags.contains(&tag)
        }

        fn on_step(&mut self, active: usize) {
            self.widths.push(active);
        }
    }

    /// The independent oracle: one job's reverse process written out
    /// directly — a one-row `forward_infer` per step, the Eq. 8
    /// composite, `ddim_step_in_place` — with the `t → s` pair taken
    /// from the loop index rather than a slot cursor. It shares no
    /// code with `slot_loop` beyond the network and the schedule.
    fn reference_sample(
        model: &DiffusionModel,
        image: &GrayImage,
        mask: &GrayImage,
        seed: u64,
    ) -> GrayImage {
        let cfg = model.config();
        let side = cfg.image as usize;
        let (known, m) = (image.as_pixels(), mask.as_pixels());
        let mut unet = model.unet.clone();
        let mut input = Tensor::zeros([1, 3, side, side]);
        input.plane_mut(0, 1).copy_from_slice(m);
        for (dst, (&v, &mm)) in input.plane_mut(0, 2).iter_mut().zip(known.iter().zip(m)) {
            *dst = if mm > 0.5 { 0.0 } else { v };
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x: Vec<f32> = (0..side * side).map(|_| randn(&mut rng)).collect();
        let mut x0_hat = vec![0.0f32; side * side];
        let ts = model.schedule().ddim_timesteps(cfg.ddim_steps);
        for (i, &t) in ts.iter().enumerate() {
            input.plane_mut(0, 0).copy_from_slice(&x);
            let pred = unet.forward_infer(&input, &[t]);
            let ab = model.schedule().alpha_bar(t);
            let (sa, sn) = (ab.sqrt().max(1e-4), (1.0 - ab).sqrt());
            for (j, xh) in x0_hat.iter_mut().enumerate() {
                let p = pred.plane(0, 0)[j];
                let x0_model = match cfg.parameterization {
                    Parameterization::X0 => p,
                    Parameterization::Epsilon => (x[j] - sn * p) / sa,
                };
                *xh = if m[j] > 0.5 {
                    x0_model.clamp(-1.0, 1.0)
                } else {
                    known[j]
                };
            }
            let s = ts.get(i + 1).copied().unwrap_or(usize::MAX);
            model.schedule().ddim_step_in_place(&mut x, &x0_hat, t, s);
        }
        let mut out = GrayImage::from_pixels(cfg.image, cfg.image, x);
        out.clamp(-1.0, 1.0);
        out
    }

    /// The load-bearing property: jobs admitted at different steps (so
    /// the packed passes mix cursor depths) come out bit-identical to
    /// the one-job reference loop — and to `sample_inpaint` — with the
    /// same seed, under both parameterizations.
    #[test]
    fn slot_table_matches_solo_under_staggered_admission() {
        for parameterization in [Parameterization::X0, Parameterization::Epsilon] {
            let mut cfg = DiffusionConfig::tiny(16);
            cfg.parameterization = parameterization;
            let model = Arc::new(DiffusionModel::new(cfg, 21));
            let jobs = mixed_jobs(6);
            let seed = 0x5eed;
            let mut feed = ScriptFeed::new(Arc::clone(&jobs), seed);
            // Steps between admissions skew the cursors: jobs 0-1 start
            // at pass 1, job 2 two steps later, jobs 3-5 two steps after
            // that (tiny config has 3 DDIM steps, so groups overlap
            // mid-flight).
            feed.script = VecDeque::from(vec![vec![0, 1], vec![], vec![2], vec![], vec![3, 4, 5]]);
            model.worker().run_slots(&mut feed).unwrap();
            assert_eq!(feed.done.len(), 6);
            for (i, (image, mask)) in jobs.iter().enumerate() {
                let job_seed = seed ^ i as u64;
                let reference = reference_sample(&model, image, mask, job_seed);
                assert_eq!(
                    feed.done[&(i as u64)],
                    reference,
                    "{parameterization:?}: slot {i} diverged from the reference loop"
                );
                assert_eq!(
                    model.sample_inpaint(image, mask, job_seed).unwrap(),
                    reference,
                    "{parameterization:?}: job {i} solo path diverged"
                );
            }
            // The table genuinely merged: some pass held slots from
            // more than one admission group.
            assert!(
                feed.widths.iter().any(|&w| w >= 3),
                "no pass merged staggered admissions: {:?}",
                feed.widths
            );
        }
    }

    /// One slot at a time (capacity-1 feed) is the degenerate case:
    /// strictly sequential, still solo-identical.
    #[test]
    fn single_slot_capacity_is_sequential_and_identical() {
        let model = Arc::new(DiffusionModel::new(DiffusionConfig::tiny(16), 8));
        let jobs = mixed_jobs(3);
        let mut feed = ScriptFeed::new(Arc::clone(&jobs), 7);
        // Tiny config = 3 DDIM steps: a slot admitted alone finishes
        // after 3 refill calls, so space each admission 3 calls apart.
        feed.script = VecDeque::from(vec![
            vec![0],
            vec![],
            vec![],
            vec![1],
            vec![],
            vec![],
            vec![2],
        ]);
        model.worker().run_slots(&mut feed).unwrap();
        assert_eq!(feed.widths.iter().max(), Some(&1), "slots overlapped");
        for (i, (image, mask)) in jobs.iter().enumerate() {
            let solo = model.sample_inpaint(image, mask, 7 ^ i as u64).unwrap();
            assert_eq!(feed.done[&(i as u64)], solo);
        }
    }

    /// Evicted slots vanish without completing, and their neighbours
    /// are unaffected (still bit-identical).
    #[test]
    fn eviction_drops_a_slot_without_touching_neighbours() {
        let model = Arc::new(DiffusionModel::new(DiffusionConfig::tiny(16), 8));
        let jobs = mixed_jobs(3);
        let mut feed = ScriptFeed::new(Arc::clone(&jobs), 3);
        feed.script = VecDeque::from(vec![vec![0, 1, 2]]);
        feed.evict_tags = vec![1];
        model.worker().run_slots(&mut feed).unwrap();
        assert!(!feed.done.contains_key(&1), "evicted slot completed");
        for i in [0usize, 2] {
            let (image, mask) = &jobs[i];
            let solo = model.sample_inpaint(image, mask, 3 ^ i as u64).unwrap();
            assert_eq!(feed.done[&(i as u64)], solo);
        }
    }

    /// Shape violations surface as typed errors, not panics, and stop
    /// the loop.
    #[test]
    fn bad_shapes_and_indices_error_out() {
        let model = Arc::new(DiffusionModel::new(DiffusionConfig::tiny(16), 8));
        let bad = Arc::new(vec![(
            GrayImage::filled(8, 8, -1.0),
            GrayImage::filled(16, 16, 1.0),
        )]);
        let mut feed = ScriptFeed::new(Arc::clone(&bad), 0);
        feed.script = VecDeque::from(vec![vec![0]]);
        assert!(matches!(
            model.worker().run_slots(&mut feed).unwrap_err(),
            ModelError::Shape { .. }
        ));
        // Out-of-bounds index: same typed failure.
        let jobs = mixed_jobs(1);
        let mut feed = ScriptFeed::new(jobs, 0);
        feed.script = VecDeque::from(vec![vec![5]]);
        assert!(matches!(
            model.worker().run_slots(&mut feed).unwrap_err(),
            ModelError::Shape { .. }
        ));
    }

    /// An empty feed ends the loop immediately.
    #[test]
    fn empty_feed_is_a_clean_noop() {
        let model = Arc::new(DiffusionModel::new(DiffusionConfig::tiny(16), 8));
        let mut feed = ScriptFeed::new(mixed_jobs(1), 0);
        model.worker().run_slots(&mut feed).unwrap();
        assert!(feed.done.is_empty());
        assert!(feed.widths.is_empty());
    }
}
