//! The server workload: `serve_zipf`. Each pass starts `pta-serve` in
//! this process with every curve cold, then drives a seeded request
//! script over a closed loop of nproc connections, each waiting for its
//! reply. Every response line must equal, byte for byte, what an
//! in-process `GroupStore` answers for the same request.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pta::{Agg, RowPolicy, TemporalRelation};
use pta_core::{
    optimal_error_curve_with_cancel, pta_error_bounded_with_opts, pta_size_bounded_with_opts,
    CancelToken, DpOptions, DpStrategy, Weights,
};
use pta_ita::ItaQuerySpec;
use pta_pool::Pool;
use pta_serve::cache::group_name;
use pta_serve::{Client, GroupStore, QueryBound, Server, ServerConfig, StatsSnapshot};
use pta_temporal::csv::parse_schema;
use pta_temporal::{Schema, SequentialRelation};

use crate::gen::{self, Csv};
use crate::report::{Layers, Report};
use crate::stats::{quantile, Timing};
use crate::trace::Tracer;
use crate::Config;

/// 300 groups of the `grouped_exact` shape.
const SHAPE: gen::IncumbentsShape = gen::IncumbentsShape { groups: 300, staff: 16, months: 600 };

/// Requests per pass, and how many in a hundred ask for sizes past the
/// curve depth (answered by a direct DP run on every request).
const REQUESTS: usize = 4_000;
const PAST_DEPTH: usize = 4;
const ZIPF_S: f64 = 1.0;

/// Pings per connection before a traced pass.
const PINGS: usize = 100;

/// How the cache answered a request in the in-process replay.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// From a curve that was already cached.
    Hit,
    /// The request filled its group's curve.
    Fill,
    /// A direct DP run past the curve depth.
    Direct,
}

/// The script's expected response lines and per-request sources.
struct Reference {
    lines: Vec<String>,
    sources: Vec<Source>,
    /// Requests that filled their group's curve (an `eps=` request can
    /// fill the curve and still end in a direct run).
    fills: usize,
}

fn spec() -> ItaQuerySpec {
    ItaQuerySpec::new(&["Dept", "Proj"], vec![Agg::avg("Salary")])
}

fn server_config(cfg: &Config) -> ServerConfig {
    // Generous budgets: a slow phase of the machine must not turn into
    // failed requests; only the thread budget and the address differ
    // from the defaults otherwise.
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: cfg.threads,
        request_timeout: Duration::from_secs(60),
        read_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    }
}

pub fn serve_zipf(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let csv = gen::incumbents(cfg.seed, &SHAPE);
    let depth = server_config(cfg).curve_depth;
    let shape = gen::ScriptShape {
        requests: REQUESTS,
        zipf_s: ZIPF_S,
        past_depth: PAST_DEPTH,
        curve_depth: depth,
    };
    let script = gen::script(cfg.seed, &csv, &shape);
    let script_text = script.join("\n");
    report.note(format!(
        "input csv rows={} bytes={} digest={:016x}; script requests={} digest={:016x} \
         past_depth_per_100={PAST_DEPTH} zipf_s={ZIPF_S} curve_depth={depth} connections={}",
        csv.rows,
        csv.text.len(),
        gen::digest(csv.text.as_bytes()),
        script.len(),
        gen::digest(script_text.as_bytes()),
        cfg.threads
    ));
    let schema = parse_schema(gen::INCUMBENTS_SCHEMA).map_err(|e| e.to_string())?;
    let (rel, ingest) = pta::read_csv(schema.clone(), &csv.text, cfg.threads, RowPolicy::Strict)
        .map_err(|e| format!("read_csv: {e}"))?;
    let seq = pta_ita::ita(&rel, &spec()).map_err(|e| format!("ita: {e}"))?;
    if !cfg.trace {
        // Only the traced run re-issues ITA on the relation. Without it,
        // the reference replay holds less than `Server::start` does, so
        // the passes' set-up decides the run's peak memory.
        drop(rel);
        let reference = reference(&seq, &script, depth, report)?;
        drop(seq);
        return measure(cfg, report, &schema, &csv, &script, &reference);
    }
    let reference = reference(&seq, &script, depth, report)?;
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let (mut untraced, mut traced, mut replays) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0u64;
    while round < 2 || !cfg.expired(start) {
        untraced.push(pass(cfg, &schema, &csv, &script, &reference, report, false)?);
        traced.push(pass(cfg, &schema, &csv, &script, &reference, report, true)?);
        let r = replay_traced(&rel, &seq, &script, depth, &mut tracer, round)?;
        for (i, line) in r.reference.lines.iter().enumerate() {
            report.check(expect(&reference.lines[i], line));
        }
        replays.push(r);
        round += 1;
    }
    let fastest_untraced = fastest(&untraced, |p| p.wall_s).ok_or("no pass")?;
    let fastest_traced = fastest(&traced, |p| p.wall_s).ok_or("no pass")?;
    let best = fastest(&replays, |r| r.answer_s.iter().sum()).ok_or("no replay")?;
    for (i, p) in traced.iter().enumerate() {
        record_pass(&mut tracer, p, i as u64);
    }
    let answers: f64 = best.answer_s.iter().sum();
    let dp_s: f64 = best.fill_s.iter().chain(&best.direct_s).sum();
    let requests: f64 = fastest_traced.latency_s.iter().sum();
    let untraced_requests: f64 = fastest_untraced.latency_s.iter().sum();
    let min_over =
        |v: &[Pass], f: &dyn Fn(&Pass) -> f64| v.iter().map(f).fold(f64::INFINITY, f64::min);
    layers.set("csv.busy_s", min_over(&traced, &|p| p.csv_s));
    layers.set("csv.self_s", min_over(&traced, &|p| p.csv_s));
    layers.set("csv.mb_per_s", csv.text.len() as f64 / min_over(&traced, &|p| p.csv_s) / 1e6);
    layers.set("csv.rows", ingest.rows_kept as f64);
    layers.set("csv.rows_skipped", ingest.rows_skipped as f64);
    layers.set("ita.busy_s", best.ita_s);
    layers.set("ita.self_s", best.ita_s);
    layers.set("ita.tuples_in", rel.len() as f64);
    layers.set("ita.tuples_out", seq.len() as f64);
    layers.set("ita.groups", seq.group_keys().len() as f64);
    layers.set("ita.cmin", seq.cmin() as f64);
    layers.set("store.build_s", best.build_s);
    layers.set("store.groups", best.groups as f64);
    layers.set("store.total_n", best.total_n as f64);
    let n = script.len() as f64;
    let count = |s: Source| reference.sources.iter().filter(|x| **x == s).count() as f64;
    let ms = |v: &[f64]| quantile(v, 0.5) * 1e3;
    layers.set("cache.self_s", answers - dp_s);
    layers.set("cache.lookup_us_p50", quantile(&best.hit_s, 0.5) * 1e6);
    layers.set("cache.fills", reference.fills as f64);
    layers.set("cache.hit_frac", count(Source::Hit) / n);
    layers.set("cache.direct_frac", count(Source::Direct) / n);
    layers.set("dp.busy_s", dp_s);
    layers.set("dp.self_s", dp_s);
    layers.set("dp.fill_ms_p50", ms(&best.fill_s));
    layers.set("dp.direct_ms_p50", ms(&best.direct_s));
    layers.set("dp.cells", best.cells as f64);
    layers.set("dp.scan_cells", best.scan_cells as f64);
    layers.set("dp.monge_cells", best.monge_cells as f64);
    layers.set("dp.rows", best.rows as f64);
    layers.set("dp.peak_rows", best.peak_rows as f64);
    layers.set("dp.cells_per_s", best.cells as f64 / best.direct_s.iter().sum::<f64>());
    layers.set("net.self_s", requests - answers);
    layers.set("net.ping_p50_us", min_over(&traced, &|p| quantile(&p.ping_s, 0.5)) * 1e6);
    let class = |p: &Pass, hot: bool| -> f64 {
        let v: Vec<f64> = (0..p.latency_s.len())
            .filter(|&i| (reference.sources[i] == Source::Hit) == hot)
            .map(|i| p.latency_s[i])
            .collect();
        quantile(&v, 0.5) * 1e3
    };
    layers.set("req.hot_p50_ms", min_over(&traced, &|p| class(p, true)));
    layers.set("req.miss_p50_ms", min_over(&traced, &|p| class(p, false)));
    layers.set("trace.coverage", answers / untraced_requests);
    layers.set("trace.overhead_s", fastest_traced.wall_s - fastest_untraced.wall_s);
    let s = &fastest_traced.stats;
    for (name, v) in [
        ("server.accepted", s.accepted),
        ("server.handled", s.handled),
        ("server.ok", s.ok),
        ("server.overloaded", s.overloaded),
        ("server.shed_queue_wait", s.shed_queue_wait),
        ("server.bad_requests", s.bad_requests),
        ("server.handler_panics", s.handler_panics),
        ("server.read_faults", s.read_faults),
        ("server.write_faults", s.write_faults),
    ] {
        layers.set(name, v as f64);
    }
    layers.set("pool.threads", cfg.threads as f64);
    report.note(format!("trace spans={} path={}", tracer.len(), cfg.trace_path().display()));
    tracer.write_jsonl(&cfg.trace_path()).map_err(|e| format!("writing the trace: {e}"))?;
    layers.emit(report);
    Ok(())
}

/// The expected answers to `script`, from an in-process replay.
fn reference(
    seq: &SequentialRelation,
    script: &[String],
    depth: usize,
    report: &mut Report,
) -> Result<Reference, String> {
    let reference = replay(seq, script, depth, None)?.reference;
    let count = |s: Source| reference.sources.iter().filter(|x| **x == s).count();
    report.note(format!(
        "script sources: {} hits, {} fills, {} direct",
        count(Source::Hit),
        reference.fills,
        count(Source::Direct)
    ));
    Ok(reference)
}

/// The untraced run: cold-start passes over the script until the
/// measuring time is used up.
fn measure(
    cfg: &Config,
    report: &mut Report,
    schema: &Schema,
    csv: &Csv,
    script: &[String],
    reference: &Reference,
) -> Result<(), String> {
    // Each pass is reduced to its figures at once: a run holds about a
    // hundred passes, and keeping their per-request logs would add the
    // benchmark's own memory, growing with the pass count, to peak_rss_mb.
    let (mut setups, mut walls, mut rates, mut p50s, mut p99s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while setups.len() < 2 || !cfg.expired(start) {
        let p = pass(cfg, schema, csv, script, reference, report, false)?;
        setups.push(p.setup_s);
        walls.push(p.wall_s);
        rates.push(p.ok as f64 / p.wall_s);
        p50s.push(quantile(&p.latency_s, 0.5));
        p99s.push(quantile(&p.latency_s, 0.99));
    }
    // Cached lookups run at one of two speeds, set by how the scheduler
    // places a connection's client and server threads: on a 2-vCPU
    // virtual machine, 12-13 us or about 20 us a round trip, and a
    // connection keeps its speed for much of a pass. So a pass's median
    // latency falls into clusters whose mix drifts between runs, and the
    // median over passes would jump from one cluster to another. The
    // trimmed mean over passes follows the mix instead.
    report.timing_trimmed("setup_s", &Timing::of(&setups), "s", 1.0);
    report.timing_trimmed("query_s", &Timing::of(&walls), "s", 1.0);
    report.timing_trimmed("rps", &Timing::of(&rates), "1/s", 1.0);
    report.timing_trimmed("req_p50_ms", &Timing::of(&p50s), "ms", 1e3);
    report.timing_trimmed("req_p99_ms", &Timing::of(&p99s), "ms", 1e3);
    report.note(format!(
        "req_p50_ms, req_p99_ms: trimmed means over passes of each pass's quantile of {} \
         requests",
        script.len()
    ));
    report.metric("peak_rss_mb", crate::peak_rss_mib(), "MiB");
    report.samples("peak_rss_mb", 1);
    Ok(())
}

fn fastest<T>(items: &[T], key: impl Fn(&T) -> f64) -> Option<&T> {
    items.iter().min_by(|a, b| key(a).total_cmp(&key(b)))
}

fn expect(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("expected `{expected}`, got `{got}`"))
    }
}

/// One cold-start pass: set-up, then the script over the connections.
struct Pass {
    csv_s: f64,
    setup_s: f64,
    wall_s: f64,
    /// Client latency per script request.
    latency_s: Vec<f64>,
    /// `(request, written, read)` per script request.
    times: Vec<(usize, Instant, Instant)>,
    ping_s: Vec<f64>,
    begin: Instant,
    end: Instant,
    ok: usize,
    stats: StatsSnapshot,
}

/// What one connection saw.
struct ConnLog {
    replies: Vec<(usize, Instant, Instant, std::io::Result<String>)>,
    pings: Vec<(Instant, Instant, std::io::Result<String>)>,
    connect: Option<std::io::Error>,
}

fn connection(
    k: usize,
    conns: usize,
    addr: SocketAddr,
    script: &[String],
    pings: usize,
    barrier: &Barrier,
) -> ConnLog {
    let mut log = ConnLog { replies: Vec::new(), pings: Vec::new(), connect: None };
    let mut client = match Client::connect(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            log.connect = Some(e);
            None
        }
    };
    if let Some(c) = client.as_mut() {
        for _ in 0..pings {
            let t0 = Instant::now();
            let r = c.request("ping");
            log.pings.push((t0, Instant::now(), r));
        }
    }
    barrier.wait();
    if let Some(c) = client.as_mut() {
        for i in (k..script.len()).step_by(conns) {
            let t0 = Instant::now();
            let r = c.request(&script[i]);
            log.replies.push((i, t0, Instant::now(), r));
        }
    }
    log
}

#[allow(clippy::too_many_arguments)]
fn pass(
    cfg: &Config,
    schema: &Schema,
    csv: &Csv,
    script: &[String],
    reference: &Reference,
    report: &mut Report,
    traced: bool,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let (rel, ingest) = pta::read_csv(schema.clone(), &csv.text, cfg.threads, RowPolicy::Strict)
        .map_err(|e| format!("read_csv: {e}"))?;
    let t1 = Instant::now();
    let server = Server::start(server_config(cfg), &rel, &spec())
        .map_err(|e| format!("Server::start: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    drop(rel);
    server.record_ingest(&ingest);
    let handle = server.handle();
    let addr = handle.addr();
    let conns = cfg.threads.max(1);
    let barrier = Barrier::new(conns + 1);
    let pings = if traced { PINGS } else { 0 };
    let (logs, begin, end, stats) = Pool::new(conns + 1).scope(|s| {
        let srv = s.spawn(move || server.run());
        let clients: Vec<_> = (0..conns)
            .map(|k| {
                let barrier = &barrier;
                s.spawn(move || connection(k, conns, addr, script, pings, barrier))
            })
            .collect();
        barrier.wait();
        let begin = Instant::now();
        let logs: Vec<_> = clients.into_iter().map(|h| h.join()).collect();
        let end = Instant::now();
        handle.shutdown();
        (logs, begin, end, srv.join())
    });
    let stats = stats.map_err(|_| "the server thread panicked".to_string())?;
    let mut p = Pass {
        csv_s: (t1 - t0).as_secs_f64(),
        setup_s,
        wall_s: (end - begin).as_secs_f64(),
        latency_s: vec![0.0; script.len()],
        times: Vec::with_capacity(script.len()),
        ping_s: Vec::new(),
        begin,
        end,
        ok: 0,
        stats,
    };
    for log in logs {
        let log = match log {
            Ok(log) => log,
            Err(_) => {
                report.check(Err("a client thread panicked".to_string()));
                continue;
            }
        };
        if let Some(e) = log.connect {
            report.check(Err(format!("connect: {e}")));
        }
        for (t0, t1, r) in log.pings {
            p.ping_s.push((t1 - t0).as_secs_f64());
            report.check(match r {
                Ok(line) => expect("ok pong", &line),
                Err(e) => Err(format!("ping: {e}")),
            });
        }
        for (i, t0, t1, r) in log.replies {
            p.latency_s[i] = (t1 - t0).as_secs_f64();
            p.times.push((i, t0, t1));
            let outcome = match r {
                Ok(line) => expect(&reference.lines[i], &line),
                Err(e) => Err(format!("request {i}: {e}")),
            };
            p.ok += usize::from(outcome.is_ok());
            report.check(outcome);
        }
    }
    if p.times.len() != script.len() {
        report.check(Err(format!("{} of {} requests answered", p.times.len(), script.len())));
    }
    Ok(p)
}

/// Spans of a traced pass: a `pass` root and one `net.request` per
/// script request (its id is the request's index).
fn record_pass(tracer: &mut Tracer, p: &Pass, pass: u64) {
    let root = tracer.record("pass", None, pass, p.begin, p.end);
    for &(i, t0, t1) in &p.times {
        tracer.record("net.request", Some(root), i as u64, t0, t1);
    }
}

/// An in-process replay of the script against a fresh `GroupStore`.
struct Replay {
    reference: Reference,
    ita_s: f64,
    build_s: f64,
    groups: usize,
    total_n: usize,
    answer_s: Vec<f64>,
    hit_s: Vec<f64>,
    fill_s: Vec<f64>,
    direct_s: Vec<f64>,
    cells: u64,
    scan_cells: u64,
    monge_cells: u64,
    rows: usize,
    peak_rows: usize,
}

/// Replays `script` in order against a `GroupStore` built from `seq`,
/// recording each answer and how the cache produced it. With a tracer,
/// each DP call the answer made is re-issued on the group's series.
fn replay(
    seq: &SequentialRelation,
    script: &[String],
    depth: usize,
    mut trace: Option<(&mut Tracer, u64, &HashMap<String, SequentialRelation>)>,
) -> Result<Replay, String> {
    let weights = Weights::uniform(1);
    let t0 = Instant::now();
    let store = GroupStore::build(seq, weights.clone(), depth).map_err(|e| e.to_string())?;
    let built = Instant::now();
    if let Some((tracer, round, _)) = trace.as_mut() {
        tracer.record("store.build", None, *round, t0, built);
    }
    let mut r = Replay {
        reference: Reference { lines: Vec::new(), sources: Vec::new(), fills: 0 },
        ita_s: 0.0,
        build_s: (built - t0).as_secs_f64(),
        groups: store.groups(),
        total_n: store.total_n(),
        answer_s: Vec::new(),
        hit_s: Vec::new(),
        fill_s: Vec::new(),
        direct_s: Vec::new(),
        cells: 0,
        scan_cells: 0,
        monge_cells: 0,
        rows: 0,
        peak_rows: 0,
    };
    let inert = CancelToken::inert();
    for (i, line) in script.iter().enumerate() {
        let Ok(pta_serve::Request::Reduce { group, bound, .. }) = pta_serve::Request::parse(line)
        else {
            return Err(format!("script line {i} is not a reduce request: {line}"));
        };
        let entry = store.get(&group).ok_or_else(|| format!("no group {group}"))?;
        let cached = entry.curve_cached();
        let t0 = Instant::now();
        let ans = entry.answer(bound, &inert).map_err(|e| format!("{line}: {e}"))?;
        let t1 = Instant::now();
        let filled = !cached && entry.curve_cached();
        let source = match (ans.cached, filled) {
            (false, _) => Source::Direct,
            (true, true) => Source::Fill,
            (true, false) => Source::Hit,
        };
        r.reference.fills += usize::from(filled);
        r.answer_s.push((t1 - t0).as_secs_f64());
        if source == Source::Hit {
            r.hit_s.push((t1 - t0).as_secs_f64());
        }
        r.reference.lines.push(format!(
            "ok group={} n={} size={} sse={} source={}",
            entry.name(),
            entry.len(),
            ans.size,
            ans.sse,
            if ans.cached { "curve" } else { "direct" }
        ));
        r.reference.sources.push(source);
        let Some((tracer, _, series)) = trace.as_mut() else { continue };
        let answer = tracer.record("cache.answer", None, i as u64, t0, t1);
        let s = series.get(&group).ok_or_else(|| format!("no series for {group}"))?;
        let n = s.len();
        if filled {
            let kmax = depth.min(n);
            let (curve, id) = tracer.time("dp.curve", Some(answer), i as u64, || {
                optimal_error_curve_with_cancel(
                    s,
                    &weights,
                    kmax,
                    DpStrategy::Auto,
                    1,
                    inert.clone(),
                )
            });
            let curve = curve.map_err(|e| format!("curve {group}: {e}"))?;
            r.fill_s.push(tracer.busy_s(id));
            let same = curve.get(ans.size - 1).is_some_and(|e| e.to_bits() == ans.sse.to_bits());
            if ans.cached && !same {
                return Err(format!("{line}: the re-issued curve disagrees with the answer"));
            }
        }
        if source == Source::Direct {
            let opts = DpOptions::default().with_threads(1);
            let (out, id) = tracer.time("dp.direct", Some(answer), i as u64, || match bound {
                QueryBound::Error(eps) => pta_error_bounded_with_opts(s, &weights, eps, opts),
                QueryBound::Size(c) => pta_size_bounded_with_opts(s, &weights, c.min(n), opts),
                QueryBound::Ratio(q) => {
                    let c = ((q * n as f64).ceil() as usize).clamp(entry.cmin().max(1), n);
                    pta_size_bounded_with_opts(s, &weights, c, opts)
                }
            });
            let out = out.map_err(|e| format!("{line}: {e}"))?;
            r.direct_s.push(tracer.busy_s(id));
            if out.reduction.len() != ans.size || out.reduction.sse().to_bits() != ans.sse.to_bits()
            {
                return Err(format!("{line}: the re-issued DP disagrees with the answer"));
            }
            r.cells += out.stats.cells;
            r.scan_cells += out.stats.scan_cells;
            r.monge_cells += out.stats.monge_cells;
            r.rows += out.stats.rows;
            r.peak_rows = r.peak_rows.max(out.stats.peak_rows);
        }
    }
    Ok(r)
}

/// A traced replay: ITA and `GroupStore::build` as `Server::start`
/// composes them, then the script, with the DP calls re-issued.
fn replay_traced(
    rel: &TemporalRelation,
    seq: &SequentialRelation,
    script: &[String],
    depth: usize,
    tracer: &mut Tracer,
    round: u64,
) -> Result<Replay, String> {
    let (fresh, ita_id) = tracer.time("ita.ita", None, round, || pta_ita::ita(rel, &spec()));
    let fresh = fresh.map_err(|e| format!("ita: {e}"))?;
    if fresh != *seq {
        return Err("ITA output differs between repetitions".to_string());
    }
    let mut series = HashMap::new();
    let mut i = 0;
    while i < seq.len() {
        let gid = seq.group(i);
        let j = (i..seq.len()).find(|&j| seq.group(j) != gid).unwrap_or(seq.len());
        let key = seq.group_key(gid).map_err(|e| e.to_string())?;
        series.insert(group_name(key), seq.slice(i..j));
        i = j;
    }
    let ita_s = tracer.busy_s(ita_id);
    let mut r = replay(&fresh, script, depth, Some((tracer, round, &series)))?;
    r.ita_s = ita_s;
    Ok(r)
}
