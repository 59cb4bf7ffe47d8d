//! Result collection and the output contract: readable lines first, then
//! one JSON object on the last line of standard output.

use std::fmt::Write as _;

use crate::stats::Timing;

pub struct Report {
    lines: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    samples: Vec<(String, usize)>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            lines: Vec::new(),
            metrics: Vec::new(),
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// A readable line printed before the metrics.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A timing of repeated identical operations: the metric is their
    /// median; the trimmed mean, the fastest and the first (cold) sample
    /// are printed beside it as diagnostics.
    pub fn timing(&mut self, name: &str, t: &Timing, unit: &'static str, scale: f64) {
        self.timing_note(name, t, unit, scale, "median");
        self.metric(name, t.median * scale, unit);
        self.samples(name, t.samples);
    }

    /// Like [`Report::timing`], but the metric is the trimmed mean, for
    /// samples that fall into two clusters whose mix drifts between runs:
    /// the trimmed mean follows the mix, where the median jumps from one
    /// cluster to the other.
    pub fn timing_trimmed(&mut self, name: &str, t: &Timing, unit: &'static str, scale: f64) {
        self.timing_note(name, t, unit, scale, "trimmed mean");
        self.metric(name, t.trimmed * scale, unit);
        self.samples(name, t.samples);
    }

    fn timing_note(&mut self, name: &str, t: &Timing, unit: &str, scale: f64, metric: &str) {
        self.note(format!(
            "timing {name} (metric: {metric}): median {} trimmed mean {} min {} first {} {unit} \
             over {} samples",
            t.median * scale,
            t.trimmed * scale,
            t.min * scale,
            t.first * scale,
            t.samples
        ));
    }

    /// Records how many samples a metric rests on.
    pub fn samples(&mut self, name: &str, n: usize) {
        self.samples.push((name.to_string(), n));
    }

    /// Counts one checked operation; `outcome` is its failure, if any.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    /// Prints the readable lines, then the JSON result as the last line.
    pub fn print(mut self) {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.failed += 1;
                self.errors.push(format!("metric {name} is not finite"));
            }
        }
        let correct = self.failed == 0 && self.attempted > 0;
        for line in &self.lines {
            println!("{line}");
        }
        for e in &self.errors {
            println!("FAILED: {e}");
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("failed_frac = {frac} ({} of {} operations)", self.failed, self.attempted);
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        let mut samples = String::from("samples {");
        for (i, (name, n)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(samples, "{sep}\"{name}\": {n}");
        }
        println!("{samples}}}");
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        println!("{json}}}}}");
    }
}

/// Every per-layer metric, printed on every workload of a traced run; a
/// layer the workload does not reach reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("csv.busy_s", "s"),
    ("csv.self_s", "s"),
    ("csv.mb_per_s", "MB/s"),
    ("csv.rows", "count"),
    ("csv.rows_skipped", "count"),
    ("ita.busy_s", "s"),
    ("ita.stream_busy_s", "s"),
    ("ita.self_s", "s"),
    ("ita.tuples_in", "count"),
    ("ita.tuples_out", "count"),
    ("ita.groups", "count"),
    ("ita.cmin", "count"),
    ("dp.busy_s", "s"),
    ("dp.self_s", "s"),
    ("dp.cells", "count"),
    ("dp.scan_cells", "count"),
    ("dp.monge_cells", "count"),
    ("dp.rows", "count"),
    ("dp.peak_rows", "count"),
    ("dp.cells_per_s", "1/s"),
    ("dp.fill_ms_p50", "ms"),
    ("dp.direct_ms_p50", "ms"),
    ("greedy.busy_s", "s"),
    ("greedy.self_s", "s"),
    ("greedy.estimates_busy_s", "s"),
    ("greedy.merges", "count"),
    ("greedy.max_heap_size", "count"),
    ("greedy.tuples_in", "count"),
    ("render.busy_s", "s"),
    ("render.self_s", "s"),
    ("render.rows", "count"),
    ("query.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
    ("store.build_s", "s"),
    ("store.groups", "count"),
    ("store.total_n", "count"),
    ("cache.self_s", "s"),
    ("cache.lookup_us_p50", "us"),
    ("cache.fills", "count"),
    ("cache.hit_frac", "ratio"),
    ("cache.direct_frac", "ratio"),
    ("net.self_s", "s"),
    ("net.ping_p50_us", "us"),
    ("req.hot_p50_ms", "ms"),
    ("req.miss_p50_ms", "ms"),
    ("server.accepted", "count"),
    ("server.handled", "count"),
    ("server.ok", "count"),
    ("server.overloaded", "count"),
    ("server.shed_queue_wait", "count"),
    ("server.bad_requests", "count"),
    ("server.handler_panics", "count"),
    ("server.read_faults", "count"),
    ("server.write_faults", "count"),
    ("pool.threads", "count"),
];

/// Per-layer values of a traced run, keyed by metric name.
#[derive(Default)]
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Moves every per-layer metric into the report, 0 where unset.
    pub fn emit(self, report: &mut Report) {
        let off: Vec<&str> =
            LAYER_METRICS.iter().map(|(n, _)| *n).filter(|n| !self.0.contains_key(n)).collect();
        report.note(format!("not on this workload's path, so 0: {}", off.join(" ")));
        for (name, unit) in LAYER_METRICS {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
        for name in self.0.keys().filter(|k| !LAYER_METRICS.iter().any(|(n, _)| n == *k)) {
            report.check(Err(format!("unlisted layer metric {name}")));
        }
    }
}
