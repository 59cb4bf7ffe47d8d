//! The query workloads: `grouped_exact` (exact size-bounded PTA) and
//! `stream_greedy` (gPTAε). A run repeats set-up (`pta::read_csv`) and
//! query (`PtaQuery::execute`) rounds for the measuring time and checks
//! every query's output. The traced run also re-issues each query the way
//! `PtaQuery::execute` composes it, one span per layer call.

use std::ops::Range;
use std::time::{Duration, Instant};

use pta::{
    Agg, Algorithm, Bound, Delta, ExecutionStats, PtaQuery, Reduction, RowPolicy, TemporalRelation,
};
use pta_core::{
    pta_size_bounded_with_opts, DpMode, DpOptions, DpStats, DpStrategy, Estimates, GPtaE,
    GapPolicy, GreedyStats, Weights,
};
use pta_ita::{ItaQuerySpec, StreamingIta};
use pta_temporal::csv::parse_schema;
use pta_temporal::Schema;

use crate::gen::{self, Csv};
use crate::report::{Layers, Report};
use crate::stats::{self, Timing};
use crate::trace::{SpanId, Tracer};
use crate::Config;

/// 100 `(Dept, Proj)` groups, 30 with a second period: 17,689 rows,
/// ITA n ≈ 10.9k, cmin = 130.
const GROUPED: gen::IncumbentsShape = gen::IncumbentsShape { groups: 100, staff: 16, months: 600 };

/// ~40k careers of 1–10 contracts: ~220k rows, ~9 MB of CSV.
const ETDS: gen::EtdsShape = gen::EtdsShape { employees: 40_000, contracts: 10, months: 2_000 };

/// The error bound of `stream_greedy`.
const EPS: f64 = 0.05;

struct Workload {
    csv: Csv,
    schema: &'static str,
    grouping: &'static [&'static str],
    bound: Bound,
    algorithm: Algorithm,
    /// Set-ups per round: a set-up much cheaper than the query repeats
    /// more often, so its median rests on more samples than one a round.
    setup_reps: usize,
}

impl Workload {
    fn spec(&self) -> ItaQuerySpec {
        ItaQuerySpec::new(self.grouping, vec![Agg::avg("Salary")])
    }

    fn query(&self, threads: usize) -> PtaQuery {
        PtaQuery::new()
            .group_by(self.grouping)
            .aggregate(Agg::avg("Salary"))
            .bound(self.bound)
            .algorithm(self.algorithm)
            .threads(threads)
    }
}

/// `avg(Salary) by Dept, Proj` at `c = 2·cmin`, exact, over an
/// Incumbents-shaped relation.
pub fn grouped_exact(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let csv = gen::incumbents(cfg.seed, &GROUPED);
    let bound = Bound::Size(2 * csv.runs);
    let grouping: &[&str] = &["Dept", "Proj"];
    let w = Workload {
        csv,
        schema: gen::INCUMBENTS_SCHEMA,
        grouping,
        bound,
        algorithm: Algorithm::Exact,
        setup_reps: 5,
    };
    run(cfg, report, &w)
}

/// gPTAε (`δ = 1`, exact estimates) on `avg(Salary) by EmpNo, Dept` over
/// an ETDS-shaped relation.
pub fn stream_greedy(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let grouping: &[&str] = &["EmpNo", "Dept"];
    let w = Workload {
        csv: gen::etds(cfg.seed, &ETDS),
        schema: gen::ETDS_SCHEMA,
        grouping,
        bound: Bound::Error(EPS),
        algorithm: Algorithm::Greedy { delta: Delta::Finite(1) },
        setup_reps: 1,
    };
    run(cfg, report, &w)
}

/// What every repetition's output must repeat exactly.
#[derive(PartialEq)]
struct Signature {
    sse_bits: u64,
    ranges: Vec<Range<usize>>,
    /// Output tuples of the reduction, and rows of the rendered table.
    tuples: usize,
    rows: usize,
}

impl Signature {
    fn of(reduction: &Reduction, rows: usize) -> Signature {
        Signature {
            sse_bits: reduction.sse().to_bits(),
            ranges: reduction.source_ranges().to_vec(),
            tuples: reduction.len(),
            rows,
        }
    }
}

/// Checks query outputs: the first in full, every later one against it.
/// It keeps no ITA output between checks. The first check recomputes one
/// and drops it before it returns, and the caller drops the query's
/// output before that check, so that the benchmark's own copies stay
/// below the peak memory of the queries it measures.
struct Checker {
    spec: ItaQuerySpec,
    bound: Bound,
    /// gPTAc's SSE at the same size (size bound) or `ε·E_max` (error
    /// bound): the SSE no correct output may exceed.
    limit: f64,
    /// `ita.tuples_out`, `ita.groups` and `ita.cmin` of the ITA output.
    tuples_out: usize,
    groups: usize,
    cmin: usize,
    first: Option<Signature>,
}

impl Checker {
    fn new(w: &Workload, rel: &TemporalRelation, cfg: &Config) -> Result<Checker, String> {
        // gPTAc runs before the checker's ITA output exists, so that the
        // two never hold memory at the same time.
        let greedy_sse = match w.bound {
            Bound::Size(c) => {
                let greedy =
                    w.query(cfg.threads).algorithm(Algorithm::Greedy { delta: Delta::Finite(1) });
                let out = greedy.execute(rel).map_err(|e| format!("gPTAc at c={c}: {e}"))?;
                Some(out.reduction.sse())
            }
            Bound::Error(_) => None,
        };
        let spec = w.spec();
        let seq = pta_ita::ita(rel, &spec).map_err(|e| format!("ita: {e}"))?;
        let limit = match (w.bound, greedy_sse) {
            (Bound::Error(eps), _) => eps * stats::max_error(&seq),
            (Bound::Size(_), Some(sse)) if seq.cmin() == w.csv.runs => sse,
            (Bound::Size(_), _) => {
                return Err(format!(
                    "ITA cmin {} but the generator made {} runs",
                    seq.cmin(),
                    w.csv.runs
                ))
            }
        };
        Ok(Checker {
            spec,
            bound: w.bound,
            limit,
            tuples_out: seq.len(),
            groups: seq.group_keys().len(),
            cmin: seq.cmin(),
            first: None,
        })
    }

    /// Checks one output of a query over `rel`.
    fn check(&mut self, sig: Signature, rel: &TemporalRelation) -> Result<(), String> {
        if let Some(first) = &self.first {
            return if *first == sig {
                Ok(())
            } else {
                Err("a repetition's output differs from the first".to_string())
            };
        }
        let seq = pta_ita::ita(rel, &self.spec).map_err(|e| format!("ita: {e}"))?;
        let sse = stats::check_reduction(&seq, &sig.ranges, f64::from_bits(sig.sse_bits))?;
        if sig.ranges.len() != sig.tuples || sig.rows != sig.tuples {
            return Err(format!(
                "{} tuples with {} source ranges render to {} rows",
                sig.tuples,
                sig.ranges.len(),
                sig.rows
            ));
        }
        if let Bound::Size(c) = self.bound {
            if sig.tuples > c {
                return Err(format!("{} tuples exceed the size bound {c}", sig.tuples));
            }
        }
        if sse > self.limit * (1.0 + 1e-9) {
            return Err(format!("SSE {sse} exceeds its limit {}", self.limit));
        }
        self.first = Some(sig);
        Ok(())
    }
}

/// The exact work counts of one query, which repeat at a fixed seed.
fn counts(out: &pta::PtaOutput) -> String {
    let work = match &out.stats {
        ExecutionStats::Exact(dp) => format!(
            "dp.cells={} dp.scan_cells={} dp.monge_cells={} dp.rows={} dp.peak_rows={}",
            dp.cells, dp.scan_cells, dp.monge_cells, dp.rows, dp.peak_rows
        ),
        ExecutionStats::Greedy(g) => format!(
            "greedy.merges={} greedy.max_heap_size={} greedy.tuples_in={}",
            g.merges, g.max_heap_size, g.tuples_in
        ),
    };
    format!(
        "counts ita.tuples_out={} {work} output.rows={} sse={}",
        out.ita_size,
        out.table.len(),
        out.reduction.sse()
    )
}

fn read(schema: &Schema, w: &Workload, threads: usize) -> Result<TemporalRelation, String> {
    pta::read_csv(schema.clone(), &w.csv.text, threads, RowPolicy::Strict)
        .map(|(rel, _)| rel)
        .map_err(|e| format!("read_csv: {e}"))
}

fn run(cfg: &Config, report: &mut Report, w: &Workload) -> Result<(), String> {
    report.note(format!(
        "input csv rows={} bytes={} digest={:016x} bound={:?}",
        w.csv.rows,
        w.csv.text.len(),
        gen::digest(w.csv.text.as_bytes()),
        w.bound
    ));
    let schema = parse_schema(w.schema).map_err(|e| e.to_string())?;
    let (mut rel, ingest) =
        pta::read_csv(schema.clone(), &w.csv.text, cfg.threads, RowPolicy::Strict)
            .map_err(|e| format!("read_csv: {e}"))?;
    let mut checker = Checker::new(w, &rel, cfg)?;
    let mut setups = Vec::new();
    let mut queries = Vec::new();
    let mut tracer = Tracer::new();
    let mut composed = Vec::new();
    let start = Instant::now();
    let mut round = 0u64;
    while round < 2 || !cfg.expired(start) {
        for _ in 0..w.setup_reps {
            drop(rel);
            let t0 = Instant::now();
            let fresh = read(&schema, w, cfg.threads);
            let t1 = Instant::now();
            setups.push((t1 - t0).as_secs_f64());
            if cfg.trace {
                tracer.record("csv.read_csv", None, round, t0, t1);
            }
            rel = fresh?;
        }
        let t0 = Instant::now();
        let out = w.query(cfg.threads).execute(&rel);
        let elapsed = t0.elapsed().as_secs_f64();
        if let (Ok(out), None) = (&out, &checker.first) {
            report.note(counts(out));
        }
        report.check(match out {
            Ok(out) => {
                queries.push(elapsed);
                let sig = Signature::of(&out.reduction, out.table.len());
                drop(out);
                checker.check(sig, &rel)
            }
            Err(e) => Err(format!("execute: {e}")),
        });
        if cfg.trace {
            let c = compose(w, &rel, cfg.threads, &mut tracer, round);
            report.check(c.and_then(|(reduction, c)| {
                checker.check(Signature::of(&reduction, c.rows), &rel)?;
                composed.push(c);
                Ok(())
            }));
        }
        round += 1;
    }
    let setup = Timing::of(&setups);
    let query = Timing::of(&queries);
    if !cfg.trace {
        report.timing("setup_s", &setup, "s", 1.0);
        report.timing("query_s", &query, "s", 1.0);
        // One query is one request on these workloads: the request rate
        // and latencies follow the median query. A run holds too few
        // queries to resolve a 99th percentile, so it too reads the median.
        report.metric("rps", 1.0 / query.median, "1/s");
        report.metric("req_p50_ms", query.median * 1e3, "ms");
        report.metric("req_p99_ms", query.median * 1e3, "ms");
        report.samples("rps", query.samples);
        report.samples("req_p50_ms", query.samples);
        report.samples("req_p99_ms", query.samples);
        report.metric("peak_rss_mb", crate::peak_rss_mib(), "MiB");
        report.samples("peak_rss_mb", 1);
        return Ok(());
    }
    let mut layers = Layers::default();
    layers.set("csv.busy_s", setup.min);
    layers.set("csv.self_s", setup.min);
    layers.set("csv.mb_per_s", w.csv.text.len() as f64 / setup.min / 1e6);
    layers.set("csv.rows", ingest.rows_kept as f64);
    layers.set("csv.rows_skipped", ingest.rows_skipped as f64);
    layers.set("ita.tuples_in", rel.len() as f64);
    layers.set("ita.tuples_out", checker.tuples_out as f64);
    layers.set("ita.groups", checker.groups as f64);
    layers.set("ita.cmin", checker.cmin as f64);
    layers.set("pool.threads", cfg.threads as f64);
    let fastest = composed
        .iter()
        .min_by(|a, b| tracer.busy_s(a.root).total_cmp(&tracer.busy_s(b.root)))
        .ok_or("no traced repetition completed")?;
    attribute(&tracer, fastest, query.min, &mut layers);
    report.note(format!("trace spans={} path={}", tracer.len(), cfg.trace_path().display()));
    tracer.write_jsonl(&cfg.trace_path()).map_err(|e| format!("writing the trace: {e}"))?;
    layers.emit(report);
    Ok(())
}

/// What is kept of a composed, traced repetition after its check.
struct Composed {
    root: SpanId,
    rows: usize,
    dp: Option<DpStats>,
    greedy: Option<GreedyStats>,
}

/// Re-issues the query the way `PtaQuery::execute` composes it, with one
/// span per layer call under a `query` root span.
fn compose(
    w: &Workload,
    rel: &TemporalRelation,
    threads: usize,
    tracer: &mut Tracer,
    req: u64,
) -> Result<(Reduction, Composed), String> {
    let spec = w.spec();
    let weights = Weights::uniform(1);
    let t0 = Instant::now();
    let root = tracer.record("query", None, req, t0, t0);
    let (seq, _) = tracer.time("ita.ita", Some(root), req, || pta_ita::ita(rel, &spec));
    let seq = seq.map_err(|e| format!("ita: {e}"))?;
    let (reduction, dp, greedy) = match w.bound {
        Bound::Size(c) => {
            let opts = DpOptions::default()
                .with_policy(GapPolicy::Strict)
                .with_mode(DpMode::Auto)
                .with_strategy(DpStrategy::Auto)
                .with_threads(threads);
            let (out, _) = tracer.time("dp.size_bounded", Some(root), req, || {
                pta_size_bounded_with_opts(&seq, &weights, c, opts)
            });
            let out = out.map_err(|e| format!("dp: {e}"))?;
            (out.reduction, Some(out.stats), None)
        }
        Bound::Error(eps) => {
            let (est, _) = tracer
                .time("greedy.estimates", Some(root), req, || Estimates::exact(&seq, &weights));
            drop(seq);
            let est = est.map_err(|e| format!("estimates: {e}"))?;
            let out = stream(rel, &spec, &weights, eps, est, tracer, root, req)?;
            (out.reduction, None, Some(out.stats))
        }
    };
    let values = [spec.aggregates[0].output.as_str()];
    let (table, _) = tracer.time("render.to_temporal_relation", Some(root), req, || {
        pta::to_temporal_relation(reduction.relation(), w.grouping, &values)
    });
    let rows = table.map_err(|e| format!("render: {e}"))?.len();
    tracer.close(root, Instant::now());
    Ok((reduction, Composed { root, rows, dp, greedy }))
}

/// The streaming half of gPTAε: `StreamingIta` feeding `GPtaE::push`.
/// The per-call times of each interface add up into one span apiece.
#[allow(clippy::too_many_arguments)]
fn stream(
    rel: &TemporalRelation,
    spec: &ItaQuerySpec,
    weights: &Weights,
    eps: f64,
    est: Estimates,
    tracer: &mut Tracer,
    root: SpanId,
    req: u64,
) -> Result<pta_core::GreedyOutcome, String> {
    let (mut ita_busy, mut push_busy, mut calls) = (Duration::ZERO, Duration::ZERO, 0u64);
    let t0 = Instant::now();
    let mut rows = StreamingIta::new(rel, spec).map_err(|e| format!("streaming ita: {e}"))?;
    let mut alg =
        GPtaE::with_policy(weights.clone(), eps, Delta::Finite(1), est, GapPolicy::Strict)
            .map_err(|e| format!("gPTAε: {e}"))?;
    let mut mark = Instant::now();
    ita_busy += mark - t0;
    loop {
        let row = rows.next();
        let got = Instant::now();
        ita_busy += got - mark;
        let Some(row) = row else { break };
        alg.push(&row.key, row.interval, &row.values).map_err(|e| format!("push: {e}"))?;
        mark = Instant::now();
        push_busy += mark - got;
        calls += 1;
    }
    let end = Instant::now();
    tracer.record_busy("ita.stream", Some(root), req, t0, end, ita_busy, calls + 1);
    tracer.record_busy("greedy.push", Some(root), req, t0, end, push_busy, calls);
    let (out, _) = tracer.time("greedy.finish", Some(root), req, || alg.finish());
    out.map_err(|e| format!("finish: {e}"))
}

/// Sets the per-layer metrics from the fastest composed repetition;
/// `untraced_s` is the fastest untraced `PtaQuery::execute`.
fn attribute(tracer: &Tracer, fastest: &Composed, untraced_s: f64, layers: &mut Layers) {
    let root = fastest.root;
    let busy = |name: &str| tracer.child_busy_s(root, name);
    let composed: f64 = tracer.children(root).map(|s| s.busy.as_secs_f64()).sum();
    layers.set("ita.busy_s", busy("ita.ita"));
    layers.set("ita.stream_busy_s", busy("ita.stream"));
    layers.set("ita.self_s", busy("ita.ita") + busy("ita.stream"));
    layers.set("render.busy_s", busy("render.to_temporal_relation"));
    layers.set("render.self_s", busy("render.to_temporal_relation"));
    layers.set("render.rows", fastest.rows as f64);
    layers.set("query.self_s", untraced_s - composed);
    layers.set("trace.coverage", composed / untraced_s);
    layers.set("trace.overhead_s", tracer.busy_s(root) - untraced_s);
    if let Some(dp) = &fastest.dp {
        let dp_s = busy("dp.size_bounded");
        layers.set("dp.busy_s", dp_s);
        layers.set("dp.self_s", dp_s);
        layers.set("dp.cells", dp.cells as f64);
        layers.set("dp.scan_cells", dp.scan_cells as f64);
        layers.set("dp.monge_cells", dp.monge_cells as f64);
        layers.set("dp.rows", dp.rows as f64);
        layers.set("dp.peak_rows", dp.peak_rows as f64);
        layers.set("dp.cells_per_s", dp.cells as f64 / dp_s);
        layers.set("pool.threads", dp.threads as f64);
    }
    if let Some(g) = &fastest.greedy {
        let run_s = busy("greedy.push") + busy("greedy.finish");
        layers.set("greedy.busy_s", run_s);
        layers.set("greedy.estimates_busy_s", busy("greedy.estimates"));
        layers.set("greedy.self_s", run_s + busy("greedy.estimates"));
        layers.set("greedy.merges", g.merges as f64);
        layers.set("greedy.max_heap_size", g.max_heap_size as f64);
        layers.set("greedy.tuples_in", g.tuples_in as f64);
    }
}
