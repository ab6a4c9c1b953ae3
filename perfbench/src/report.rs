//! Metric names, summary statistics, the process monitor and the
//! result line the benchmark prints.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The end-to-end metrics every untraced run prints, with their units;
/// `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("legal_rate", "fraction"),
    ("unique_patterns", "count"),
    ("h2", "bits"),
    ("completed_share", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints. A layer a workload
/// never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nn.fwd_ms_per_row.w16", "ms"),
    ("nn.fwd_ms_per_row.w12", "ms"),
    ("nn.fwd_ms_per_row.w2", "ms"),
    ("nn.gemm_gflops.16x144x1024", "GFLOP/s"),
    ("nn.gemm_gflops.32x288x256", "GFLOP/s"),
    ("nn.gemm_gflops.64x576x64", "GFLOP/s"),
    ("nn.train_step_ms", "ms"),
    ("diffusion.wait_ms_per_sample", "ms"),
    ("alloc.per_sample", "count"),
    ("alloc.bytes_per_sample", "B"),
    ("scheduler.slot_fill", "fraction"),
    ("scheduler.merged_steps", "count"),
    ("scheduler.wait_mean_ms", "ms"),
    ("scheduler.wait_p99_ms.interactive", "ms"),
    ("scheduler.stats_call_us", "us"),
    ("service.submit_us.p95", "us"),
    ("service.threads_peak", "count"),
    ("service.rejected", "count"),
    ("service.retries", "count"),
    ("train.epoch_ms.p50", "ms"),
    ("train.prepare_ms", "ms"),
    ("train.preemptions", "count"),
    ("train.final_loss", "loss"),
    ("artifact.put_ms", "ms"),
    ("artifact.put_mb", "MB"),
    ("artifact.get_ms", "ms"),
    ("setup.open_ms", "ms"),
    ("setup.finetune_s", "s"),
    ("setup.warmup_ms", "ms"),
    ("inpaint.denoise_us", "us"),
    ("drc.check_us", "us"),
    ("tail.share", "fraction"),
    ("drc.legal_share", "fraction"),
    ("library.dedup_share", "fraction"),
    ("selection.select_ms", "ms"),
    ("selection.share", "fraction"),
    ("loadgen.jobs", "count"),
    ("loadgen.late_ms_max", "ms"),
    ("host.ref_gflops", "GFLOP/s"),
    ("trace.overhead", "ratio"),
];

/// Named metric values collected by a run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The one-line JSON object the benchmark prints last. `names` is
    /// [`END_TO_END`] or [`PER_LAYER`]; a listed end-to-end metric the
    /// workload did not set is a bug, a per-layer one reads 0.
    pub fn json_line(
        &self,
        correct: bool,
        attempted: usize,
        failed: usize,
        names: &[(&str, &str)],
        per_layer: bool,
    ) -> String {
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = match self.get(name) {
                Some(v) => v,
                None if per_layer => 0.0,
                None => panic!("workload did not report end-to-end metric {name}"),
            };
            // JSON has no infinities; a non-finite value only arises on
            // a run the gate already failed.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        )
    }
}

/// Median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 1] of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples `/proc/self/status` every few milliseconds on a background
/// thread: peak resident memory and peak thread count over its
/// lifetime.
pub struct ProcMonitor {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(u64, u64)>,
}

/// `(VmRSS in kB, Threads)` of this process, or zeros when
/// `/proc/self/status` is unavailable.
fn proc_status() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("Threads:"))
}

impl ProcMonitor {
    pub fn start() -> ProcMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (mut rss, mut threads) = proc_status();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                let (r, t) = proc_status();
                rss = rss.max(r);
                threads = threads.max(t);
            }
            (rss, threads)
        });
        ProcMonitor { stop, handle }
    }

    /// Stops sampling; returns `(peak RSS in MB, peak threads)`.
    pub fn finish(self) -> (f64, u64) {
        self.stop.store(true, Ordering::Relaxed);
        let (rss_kb, threads) = self.handle.join().expect("process monitor panicked");
        (rss_kb as f64 / 1024.0, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(median(&v), 100.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// BENCHMARK.json and the metric tables here must name the same
    /// metrics with the same units: every run prints what BENCHMARK.json
    /// promises.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"name\": ").count();
        let workloads = spec.matches("\"why\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
