//! `perfbench` — the repository benchmark.
//!
//! Runs one workload through the public API of the `pta` crates, in this
//! process, for a fixed time; checks every output; and prints each metric
//! by name with its unit, then one JSON object as the last line:
//!
//! ```text
//! perfbench --workload grouped_exact --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones (set-up, query,
//! request latency and throughput, peak memory); with `--trace 1` the
//! same operations are re-issued layer call by layer call with spans, and
//! the metrics are the per-layer ones. See `perfbench/README.md`.

mod gen;
mod query;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;

/// The settings of one run.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// The program's thread budget: nproc, set explicitly on every API
    /// that takes one, so `PTA_THREADS` cannot change a run.
    pub threads: usize,
    pub started: Instant,
}

impl Config {
    /// Whether the run's measuring time is used up.
    pub fn expired(&self, since: Instant) -> bool {
        since.elapsed() >= self.seconds
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(format!(".perfbench/trace-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

const WORKLOADS: [&str; 3] = ["grouped_exact", "stream_greedy", "serve_zipf"];

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed".to_string())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        started: Instant::now(),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new();
    report.note(format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds.as_secs_f64(),
        u8::from(cfg.trace)
    ));
    report.note(format!(
        "context nproc={} cpu=\"{}\" profile={} commit={} threads={}",
        cfg.threads,
        cpu_model(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_commit(),
        cfg.threads
    ));
    let outcome = match cfg.workload.as_str() {
        "grouped_exact" => query::grouped_exact(&cfg, &mut report),
        "stream_greedy" => query::stream_greedy(&cfg, &mut report),
        _ => serve::serve_zipf(&cfg, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", cfg.workload);
        return ExitCode::FAILURE;
    }
    report.note(format!("wall {} s", cfg.started.elapsed().as_secs_f64()));
    report.print();
    ExitCode::SUCCESS
}
