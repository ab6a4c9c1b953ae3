//! `pp-bench`: the repository benchmark.
//!
//! ```text
//! pp-bench --workload <campaign|serve_mixed|retrain_serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from `--seed`, does a fixed amount of
//! work sized so that it takes about `--seconds` on a 2-vCPU x86-64 host,
//! checks its outputs, and prints one JSON line last: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). A failed output check still prints its line, with
//! `"correct": false`, and exits 1. See `perfbench/README.md`.

mod alloc_count;
mod campaign;
mod loadgen;
mod prep;
mod probes;
mod report;
mod serve;
mod trace;

use report::{END_TO_END, PER_LAYER};
use std::error::Error;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

const USAGE: &str = "usage: pp-bench --workload <campaign|serve_mixed|retrain_serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// What every workload runs against.
pub struct Ctx {
    pub models: prep::Models,
    pub seed: u64,
    pub seconds: u64,
}

/// The outputs that must read identically in every run of one build
/// with the same seed, traced or not.
pub struct Outputs {
    pub legal_rate: f64,
    pub unique_patterns: usize,
    pub h2: f64,
    pub train_loss: Option<f32>,
}

impl Outputs {
    /// An exact, bit-level rendering for comparison across runs.
    fn record(&self) -> String {
        format!(
            "legal_rate={:016x} unique_patterns={} h2={:016x} train_loss={}\n",
            self.legal_rate.to_bits(),
            self.unique_patterns,
            self.h2.to_bits(),
            self.train_loss
                .map_or("none".to_string(), |l| format!("{:08x}", l.to_bits())),
        )
    }
}

/// One measured run of a workload.
pub struct Run {
    pub metrics: report::Metrics,
    pub outputs: Outputs,
    /// The workload's own unit of work per second (the `throughput`
    /// metric), kept apart for `trace.overhead`.
    pub throughput: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Output-gate failures; empty on a correct run.
    pub errors: Vec<String>,
}

type Workload = fn(&Ctx, Option<&Arc<Tracer>>, usize) -> Result<Run, Box<dyn Error>>;

/// The workload named `name` and its set-up repeats per untraced run.
fn workload(name: &str) -> Option<(Workload, usize)> {
    match name {
        "campaign" => Some((campaign::run, 3)),
        "serve_mixed" => Some((serve::serve_mixed, 15)),
        "retrain_serve" => Some((serve::retrain_serve, 15)),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Compares `outputs` with the record an earlier run of this build and
/// seed left, or leaves the first record.
fn check_record(path: &Path, outputs: &Outputs) -> Result<Option<String>, Box<dyn Error>> {
    let now = outputs.record();
    match std::fs::read_to_string(path) {
        Ok(before) if before == now => Ok(None),
        Ok(before) => Ok(Some(format!(
            "outputs differ from an earlier run of this build and seed: {} vs {}",
            now.trim(),
            before.trim()
        ))),
        Err(_) => {
            let dir = path.parent().ok_or("record path has no parent")?;
            std::fs::create_dir_all(dir)?;
            let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
            std::fs::write(&tmp, &now)?;
            std::fs::rename(&tmp, path)?;
            Ok(None)
        }
    }
}

fn run(args: &Args) -> Result<Run, Box<dyn Error>> {
    let (workload, setups) =
        workload(&args.workload).ok_or(format!("unknown workload {}", args.workload))?;
    let ref_before = probes::host_ref_gflops(Duration::from_millis(200));
    let ctx = Ctx {
        models: prep::load_or_prepare()?,
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut run = if args.trace {
        // An untraced reference on the same inputs first: its
        // throughput is the base of `trace.overhead`, and its outputs
        // must match the traced run's.
        let reference = workload(&ctx, None, 1)?;
        let tracer = Arc::new(Tracer::new());
        let mut traced = workload(&ctx, Some(&tracer), 1)?;
        if traced.outputs.record() != reference.outputs.record() {
            traced.errors.push(format!(
                "traced outputs {} differ from untraced {}",
                traced.outputs.record().trim(),
                reference.outputs.record().trim()
            ));
        }
        traced
            .metrics
            .set("trace.overhead", traced.throughput / reference.throughput);
        probes::nn_probes(&mut traced.metrics);
        let dir = ctx.models.state.join("traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        tracer.write(&path)?;
        eprintln!("[trace] wrote {}", path.display());
        traced
    } else {
        workload(&ctx, None, setups)?
    };
    let o = &run.outputs;
    let completed = run.attempted - run.failed;
    run.metrics.set("throughput", run.throughput);
    run.metrics.set("legal_rate", o.legal_rate);
    run.metrics.set("unique_patterns", o.unique_patterns as f64);
    run.metrics.set("h2", o.h2);
    run.metrics.set(
        "completed_share",
        completed as f64 / run.attempted.max(1) as f64,
    );
    if let Some(loss) = o.train_loss {
        run.metrics.set("train.final_loss", f64::from(loss));
    }
    let record = ctx.models.state.join("outputs").join(format!(
        "{}-seed{}-s{}.txt",
        args.workload, args.seed, args.seconds
    ));
    if let Some(e) = check_record(&record, &run.outputs)? {
        run.errors.push(e);
    }
    let ref_after = probes::host_ref_gflops(Duration::from_millis(200));
    run.metrics
        .set("host.ref_gflops", (ref_before + ref_after) / 2.0);
    eprintln!(
        "[host] reference loop {ref_before:.2} GFLOP/s before, {ref_after:.2} after; {} CPUs",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for e in &run.errors {
        eprintln!("[gate] {e}");
    }
    Ok(run)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    if let (Some("--prepare"), Some(dir)) = (argv.next().as_deref(), argv.next()) {
        return match prep::prepare(Path::new(&dir)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pp-bench: model preparation: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pp-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(run) => {
            let names = if args.trace { PER_LAYER } else { END_TO_END };
            for &(name, unit) in names {
                if let Some(v) = run.metrics.get(name) {
                    eprintln!("  {name:<36} {v:>14.4} {unit}");
                }
            }
            let correct = run.errors.is_empty();
            println!(
                "{}",
                run.metrics
                    .json_line(correct, run.attempted, run.failed, names, args.trace)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pp-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
