//! Steady-state allocation check for the slot loop: on a warmed
//! worker, a DDIM step that admits nothing must not touch the heap —
//! not even when slots complete and the table's membership changes.
//!
//! A test binary of its own because it installs a counting global
//! allocator. Only allocations made on the test's own thread count.

use pp_diffusion::{DiffusionConfig, DiffusionModel, SlotFeed, SlotJob};
use pp_geometry::GrayImage;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting allocation calls (a `realloc` counts
/// as one) made on threads that switched counting on.
struct Counting;

fn note() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// plain atomic and the flag a const-initialised thread-local `Cell`,
// neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System`'s method, forwarded below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System`'s method, forwarded below.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
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
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A scripted feed that measures every step admitting nothing: the
/// allocations between a refill that returned no jobs and the next
/// refill call are exactly one packed pass plus its completions.
struct Probe {
    jobs: Arc<Vec<(GrayImage, GrayImage)>>,
    script: Vec<Vec<usize>>,
    call: usize,
    idle_since: Option<u64>,
    idle_steps: Vec<u64>,
    completed: usize,
}

impl Probe {
    fn new(jobs: &Arc<Vec<(GrayImage, GrayImage)>>, script: &[&[usize]]) -> Probe {
        Probe {
            jobs: Arc::clone(jobs),
            script: script.iter().map(|group| group.to_vec()).collect(),
            call: 0,
            idle_since: None,
            idle_steps: Vec::with_capacity(script.len()),
            completed: 0,
        }
    }
}

impl SlotFeed for Probe {
    fn refill(&mut self, _active: usize) -> Vec<SlotJob> {
        if let Some(since) = self.idle_since.take() {
            let now = ALLOCS.load(Ordering::Relaxed);
            self.idle_steps.push(now - since);
        }
        let group = self.script.get(self.call).map_or(&[][..], Vec::as_slice);
        self.call += 1;
        if group.is_empty() {
            self.idle_since = Some(ALLOCS.load(Ordering::Relaxed));
            return Vec::new();
        }
        group
            .iter()
            .map(|&index| SlotJob {
                tag: index as u64,
                jobs: Arc::clone(&self.jobs),
                index,
                seed: 0xa110c ^ index as u64,
            })
            .collect()
    }

    fn complete(&mut self, _tag: u64, _sample: GrayImage) {
        self.completed += 1;
    }
}

#[test]
fn steps_that_admit_nothing_allocate_nothing() {
    let model = Arc::new(DiffusionModel::new(DiffusionConfig::tiny(16), 5));
    let jobs: Arc<Vec<(GrayImage, GrayImage)>> = Arc::new(
        (0..6)
            .map(|i| {
                let mut mask = GrayImage::filled(16, 16, 0.0);
                for y in 0..16 {
                    for x in i..16 {
                        mask.set(x, y, 1.0);
                    }
                }
                (GrayImage::filled(16, 16, -1.0), mask)
            })
            .collect(),
    );
    // Tiny config = 3 DDIM steps. Jobs 0-2 finish on the pass that
    // admits job 3, so the next (idle) pass repacks a shrunken table;
    // job 3 then finishes alone on an idle pass, before 4-5 arrive.
    let script: &[&[usize]] = &[&[0, 1, 2], &[], &[3], &[], &[], &[4, 5], &[], &[]];
    let mut worker = model.worker();
    // Warm the worker's U-Net workspace at every width the script uses.
    let mut warm = Probe::new(&jobs, script);
    worker.run_slots(&mut warm).unwrap();

    let mut probe = Probe::new(&jobs, script);
    COUNTED.with(|c| c.set(true));
    let outcome = worker.run_slots(&mut probe);
    COUNTED.with(|c| c.set(false));
    outcome.unwrap();
    assert_eq!(probe.completed, 6, "every job completed");
    assert_eq!(
        probe.idle_steps.len(),
        5,
        "the script has five idle steps: {:?}",
        probe.idle_steps
    );
    assert!(
        probe.idle_steps.iter().all(|&n| n == 0),
        "steps that admitted nothing allocated (allocations per idle step: {:?})",
        probe.idle_steps
    );
}
