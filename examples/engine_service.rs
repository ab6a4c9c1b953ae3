//! A miniature serving deployment on a replicated fleet: one trained
//! checkpoint, N engine replicas each with its own supervised
//! scheduler, and the `Fleet` router in front — a replica placed per
//! attempt, fleet-wide admission bounds, session affinity with live
//! migration, and replica drain. Tenants still describe work as
//! declarative `JobSpec`s; results are bit-identical whatever the
//! replica count, because an attempt never splits across replicas.
//! (The single-`Service` front door this example used to demonstrate
//! still works unchanged — see README migration v5 for the mapping.)
//!
//! Run with: `cargo run --release --example engine_service`

use patternpaint::core::{
    Fleet, FleetOptions, JobSpec, MemStore, PatternPaint, PipelineConfig, PpError, QosClass,
    QueueLimits,
};
use patternpaint::pdk::SynthNode;
use std::time::Duration;

fn main() -> Result<(), PpError> {
    let node = SynthNode::default();
    println!("training one shared model (pretrain + finetune)...");
    let mut pp = PatternPaint::builder(node.clone(), PipelineConfig::quick())
        .seed(42)
        .pretrained()?;
    pp.finetune()?;

    // Freeze the trained stack, persist it once, and open a fleet of
    // two replicas over the checkpoint. Each replica deserializes its
    // own engine and runs its own scheduler + artifact store; the
    // router in front owns admission, placement, and failover.
    let store = MemStore::new();
    pp.into_engine().save(&store)?;
    let fleet = Fleet::open(
        &store,
        FleetOptions::new()
            .with_replicas(2)
            .with_job_limits(QueueLimits::default())
            // Shed incoming BestEffort work while the merged p90 of
            // recent submit→dispatch waits exceeds a second.
            .with_backpressure_shed(Duration::from_secs(1)),
    )?;
    println!("fleet up: {} replicas, one checkpoint", fleet.replicas());

    // Tenant A: a designer session pinned by affinity. The first job
    // creates the session on some replica and persists it there; the
    // follow-up resumes it in place — same library, same cursor, as
    // if one uninterrupted session had run both.
    let job = fleet.submit(
        JobSpec::iterative(1)
            .with_class(QosClass::Interactive)
            .with_seed(1001)
            .with_affinity("tenant-a"),
    )?;
    let first = job.wait().into_report().expect("tenant A round 1 runs");
    println!(
        "tenant-a round 1: generated {} | unique {}",
        first.generated,
        first.library.len()
    );
    let job = fleet.submit(
        JobSpec::iterative(1)
            .with_class(QosClass::Interactive)
            .with_seed(1001)
            .with_affinity("tenant-a"),
    )?;
    let second = job.wait().into_report().expect("tenant A round 2 resumes");
    println!(
        "tenant-a round 2 (resumed): generated {} | unique {}",
        second.generated,
        second.library.len()
    );

    // Background tenants: batch-class jobs the router spreads over
    // both replicas (fewest running jobs first); inside a replica the
    // scheduler's policy ranks them against every other job there.
    let batch: Vec<_> = (0..4u64)
        .map(|i| {
            fleet.submit(
                JobSpec::initial()
                    .with_class(QosClass::Batch)
                    .with_seed(2000 + i)
                    .with_budget(60),
            )
        })
        .collect::<Result<_, _>>()?;
    for (i, handle) in batch.into_iter().enumerate() {
        let outcome = handle.wait();
        match outcome.report() {
            Some(report) => println!(
                "batch-{i} done: generated {} | legal {}",
                report.generated, report.legal
            ),
            None => println!("batch-{i}: {outcome}"),
        }
    }

    // Retire replica 0: no new attempt lands there. Tenant A's next
    // job finds its home replica gone, migrates the saved session
    // (PPSQ copy) to a survivor, and *continues* it.
    let stats = fleet.stats();
    println!(
        "draining replica 0 ({} jobs running there)",
        stats.replicas[0].running
    );
    fleet.drain(0);
    let job = fleet.submit(
        JobSpec::iterative(1)
            .with_class(QosClass::Interactive)
            .with_seed(1001)
            .with_affinity("tenant-a"),
    )?;
    let third = job
        .wait()
        .into_report()
        .expect("tenant A survives the drain");
    println!(
        "tenant-a round 3 (migrated): generated {} | unique {}",
        third.generated,
        third.library.len()
    );

    // Router observability: who ran what, and what the failover
    // machinery actually did.
    let stats = fleet.stats();
    for r in &stats.replicas {
        println!(
            "replica {} [{}]: {} micro-batches, {} samples",
            r.index,
            if r.healthy { "healthy" } else { "retired" },
            r.scheduler.micro_batches,
            r.scheduler.samples,
        );
    }
    println!(
        "router: affinity hits/misses {}/{} | migrations {} | failovers {} | \
         rejected depth/backpressure {}/{}",
        stats.affinity_hits,
        stats.affinity_misses,
        stats.migrations,
        stats.failovers,
        stats.rejected_depth,
        stats.rejected_backpressure,
    );
    println!(
        "fleet: {} submitted, {} finished, merged wait p90 {:.1}ms",
        stats.submitted.total(),
        stats.finished.total(),
        stats.aggregated.wait_p90_micros as f64 / 1e3,
    );
    Ok(())
}
