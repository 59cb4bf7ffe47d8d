//! `pta-cli`: parsimonious temporal aggregation from the command line.
//!
//! Reads a temporal relation from CSV, runs ITA/STA/PTA, writes CSV.
//!
//! ```text
//! # Fig. 1(d) from a file:
//! pta-cli reduce --input proj.csv --schema "Empl:str,Proj:str,Sal:int" \
//!     --group-by Proj --agg avg:Sal --size 4
//!
//! # Error-bounded, greedy, tolerating 1-chronon holes:
//! pta-cli reduce --input proj.csv --schema "..." --group-by Proj \
//!     --agg avg:Sal --error 0.2 --algorithm greedy --max-gap 1
//!
//! # Plain ITA or fixed-span STA:
//! pta-cli ita --input proj.csv --schema "..." --group-by Proj --agg avg:Sal
//! pta-cli sta --input proj.csv --schema "..." --group-by Proj --agg avg:Sal \
//!     --span-origin 1 --span-width 4
//! ```
//!
//! Output goes to `--output FILE` or stdout.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::process::ExitCode;
use std::time::Duration;

use pta::{
    Agg, AggregateFunction, Algorithm, Bound, Delta, DpStrategy, GapPolicy, IngestReport, PtaQuery,
    RowPolicy, SpanSpec,
};
use pta_temporal::csv::{parse_schema, write_relation, write_sequential};
use pta_temporal::TemporalRelation;

struct Args {
    command: String,
    options: std::collections::HashMap<String, String>,
}

fn usage() -> &'static str {
    "usage: pta-cli <reduce|ita|sta|compare|serve|query> --input FILE --schema \"name:type,...\" \
     [--group-by A,B] --agg fn:attr[,fn:attr...] \
     [--size N | --error EPS] [--algorithm exact|greedy] [--delta N|inf] \
     [--dp-strategy scan|monge|auto|approx[:eps]] [--threads N] [--timeout-ms MS] \
     [--on-bad-rows fail|skip] \
     [--max-gap G] [--span-origin T --span-width W] [--output FILE]\n\
     --threads: worker budget for CSV ingest, exact-DP row fills and the \
     compare fan-out (0 = auto: PTA_THREADS or all cores; results are \
     identical at any budget)\n\
     --timeout-ms: wall-time budget — reduce aborts the reduction with a \
     deadline error; compare bounds each method, degrading overruns to \
     error cells while the comparison completes\n\
     --on-bad-rows skip: skip malformed CSV rows (reported on stderr) \
     instead of aborting the read\n\
     compare: [--methods a,b,c|all] (--sizes N,N,... | --errors E,E,... | \
     --ratios R,R,...) — one-call §7 comparison; every method of the \
     summarizer registry over one bound grid, as CSV\n\
     serve: long-running TCP service answering reduce-style (group, bound) \
     queries from cached error curves; knobs: [--addr HOST:PORT] \
     [--queue-depth N] [--request-timeout-ms MS] [--read-timeout-ms MS] \
     [--drain-timeout-ms MS] [--curve-depth N] [--threads N] \
     [--on-bad-rows fail|skip] — see the README's Service section for the \
     line protocol\n\
     query: one-shot client: pta-cli query --addr HOST:PORT --request \
     \"reduce A c=4\" (prints the response line; exit 3 on an err response)"
}

/// Flags shared by every subcommand. `threads` is common because every
/// subcommand ingests CSV through the parallel reader; `reduce` and
/// `compare` additionally thread it into their execution.
const COMMON_FLAGS: &[&str] =
    &["input", "schema", "output", "group-by", "agg", "threads", "on-bad-rows"];

/// The flags each subcommand reads beyond [`COMMON_FLAGS`]. Flags outside
/// the invoked subcommand's set are rejected up front: several flags gate
/// optional behavior (e.g. `compare --methods` has a default), so a typo
/// or misplaced flag that landed silently in the options map would
/// produce plausible-looking output for a run the user never asked for.
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    match command {
        "reduce" => {
            Some(&["size", "error", "algorithm", "delta", "dp-strategy", "max-gap", "timeout-ms"])
        }
        "ita" => Some(&[]),
        "sta" => Some(&["span-origin", "span-width"]),
        "compare" => Some(&["methods", "sizes", "errors", "ratios", "max-gap", "timeout-ms"]),
        "serve" => Some(&[
            "addr",
            "queue-depth",
            "request-timeout-ms",
            "read-timeout-ms",
            "drain-timeout-ms",
            "curve-depth",
        ]),
        "query" => Some(&["addr", "request"]),
        _ => None,
    }
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(|| usage().to_string())?;
    if matches!(command.as_str(), "-h" | "--help" | "help") {
        println!("{}", usage());
        std::process::exit(0);
    }
    // Unknown commands fall through to the dispatcher's error; their
    // flags are irrelevant.
    let allowed = command_flags(&command);
    let mut options = std::collections::HashMap::new();
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag:?}"))?
            .to_string();
        if let Some(allowed) = allowed {
            if !COMMON_FLAGS.contains(&key.as_str()) && !allowed.contains(&key.as_str()) {
                return Err(format!("unknown flag --{key} for {command}\n{}", usage()));
            }
        }
        let value = argv.next().ok_or_else(|| format!("--{key} needs a value"))?;
        options.insert(key, value);
    }
    Ok(Args { command, options })
}

fn parse_aggs(spec: &str) -> Result<Vec<Agg>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (f, attr) = part.split_once(':').unwrap_or((part, "*"));
        let function = match f.to_ascii_lowercase().as_str() {
            "avg" => AggregateFunction::Avg,
            "sum" => AggregateFunction::Sum,
            "min" => AggregateFunction::Min,
            "max" => AggregateFunction::Max,
            "count" => AggregateFunction::Count,
            other => return Err(format!("unknown aggregate {other:?}")),
        };
        let output = if attr == "*" { f.to_string() } else { format!("{f}_{attr}") };
        out.push(Agg::new(function, attr, output));
    }
    if out.is_empty() {
        return Err("--agg lists no aggregate functions".into());
    }
    Ok(out)
}

/// The `--threads` budget: `0` (the default) resolves to `PTA_THREADS`
/// or the machine's parallelism downstream.
fn thread_budget(args: &Args) -> Result<usize, String> {
    match args.options.get("threads") {
        Some(t) => t.parse().map_err(|e| format!("bad --threads: {e}")),
        None => Ok(0),
    }
}

fn load_relation(args: &Args, threads: usize) -> Result<(TemporalRelation, IngestReport), String> {
    let schema_spec = args.options.get("schema").ok_or("missing --schema \"name:type,...\"")?;
    let schema = parse_schema(schema_spec).map_err(|e| e.to_string())?;
    let mut reader: Box<dyn Read> = match args.options.get("input") {
        Some(path) if path != "-" => {
            Box::new(File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?)
        }
        _ => Box::new(io::stdin()),
    };
    let mut text = String::new();
    reader.read_to_string(&mut text).map_err(|e| format!("cannot read input: {e}"))?;
    let policy = match args.options.get("on-bad-rows").map(String::as_str) {
        None | Some("fail") => RowPolicy::Strict,
        Some("skip") => RowPolicy::SkipAndReport,
        Some(other) => return Err(format!("bad --on-bad-rows {other:?}: use fail|skip")),
    };
    let (relation, report) =
        pta::read_csv(schema, &text, threads, policy).map_err(|e| e.to_string())?;
    if report.has_skips() {
        eprintln!(
            "warning: skipped {} malformed row(s), kept {}",
            report.rows_skipped, report.rows_kept
        );
        for msg in &report.first_errors {
            eprintln!("  {msg}");
        }
        let unsampled = report.rows_skipped - report.first_errors.len();
        if unsampled > 0 {
            eprintln!("  ... and {unsampled} more");
        }
    }
    Ok((relation, report))
}

/// The optional `--timeout-ms` wall-time budget.
fn timeout_budget(args: &Args) -> Result<Option<Duration>, String> {
    match args.options.get("timeout-ms") {
        Some(ms) => {
            let ms: u64 = ms.parse().map_err(|e| format!("bad --timeout-ms: {e}"))?;
            Ok(Some(Duration::from_millis(ms)))
        }
        None => Ok(None),
    }
}

fn output_writer(args: &Args) -> Result<Box<dyn Write>, String> {
    Ok(match args.options.get("output") {
        Some(path) if path != "-" => Box::new(BufWriter::new(
            File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        )),
        _ => Box::new(BufWriter::new(io::stdout())),
    })
}

fn group_names(args: &Args) -> Vec<String> {
    args.options
        .get("group-by")
        .map(|g| g.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect())
        .unwrap_or_default()
}

/// An optional typed flag with a default (the `serve` knobs).
fn parse_flag<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match args.options.get(key) {
        Some(v) => v.parse().map_err(|e| format!("bad --{key}: {e}")),
        None => Ok(default),
    }
}

/// One-shot client: sends `--request` to a running `pta-cli serve` and
/// prints the response line. Needs no input relation or schema.
fn run_query(args: &Args) -> Result<(), String> {
    let addr = args.options.get("addr").ok_or("query needs --addr HOST:PORT")?;
    let request = args.options.get("request").ok_or("query needs --request \"...\"")?;
    let mut client =
        pta_serve::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let response = client.request(request).map_err(|e| format!("request failed: {e}"))?;
    println!("{response}");
    if response.starts_with("err ") {
        // The response line already tells the story; exit 3 distinguishes
        // "the server said no" from local errors (exit 2).
        std::process::exit(3);
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // `query` is a pure network client: dispatch before any CSV work.
    if args.command == "query" {
        return run_query(&args);
    }
    let threads = thread_budget(&args)?;
    let (relation, ingest_report) = load_relation(&args, threads)?;
    let groups = group_names(&args);
    let group_refs: Vec<&str> = groups.iter().map(String::as_str).collect();
    let aggs = parse_aggs(args.options.get("agg").ok_or("missing --agg fn:attr")?)?;
    let value_names: Vec<String> = aggs.iter().map(|a| a.output.clone()).collect();
    let value_refs: Vec<&str> = value_names.iter().map(String::as_str).collect();
    let mut out = output_writer(&args)?;

    match args.command.as_str() {
        "ita" => {
            let spec = pta::ItaQuerySpec::new(&group_refs, aggs);
            let seq = pta_ita::ita(&relation, &spec).map_err(|e| e.to_string())?;
            write_sequential(&seq, &group_refs, &value_refs, &mut out)
                .map_err(|e| e.to_string())?;
        }
        "sta" => {
            let origin: i64 = args
                .options
                .get("span-origin")
                .ok_or("sta needs --span-origin")?
                .parse()
                .map_err(|e| format!("bad --span-origin: {e}"))?;
            let width: i64 = args
                .options
                .get("span-width")
                .ok_or("sta needs --span-width")?
                .parse()
                .map_err(|e| format!("bad --span-width: {e}"))?;
            let seq =
                pta_ita::sta(&relation, &group_refs, &aggs, &SpanSpec::Fixed { origin, width })
                    .map_err(|e| e.to_string())?;
            write_sequential(&seq, &group_refs, &value_refs, &mut out)
                .map_err(|e| e.to_string())?;
        }
        "reduce" => {
            let bound = match (args.options.get("size"), args.options.get("error")) {
                (Some(c), None) => Bound::Size(c.parse().map_err(|e| format!("bad --size: {e}"))?),
                (None, Some(e)) => {
                    Bound::Error(e.parse().map_err(|e| format!("bad --error: {e}"))?)
                }
                _ => return Err("reduce needs exactly one of --size N or --error EPS".into()),
            };
            let mut query = PtaQuery::new().group_by(&group_refs).bound(bound).threads(threads);
            for a in aggs {
                query = query.aggregate(a);
            }
            if let Some(alg) = args.options.get("algorithm") {
                query = match alg.as_str() {
                    "exact" => query.algorithm(Algorithm::Exact),
                    "greedy" => {
                        let delta = match args.options.get("delta").map(String::as_str) {
                            None | Some("1") => Delta::Finite(1),
                            Some("inf") => Delta::Unbounded,
                            Some(d) => {
                                Delta::Finite(d.parse().map_err(|e| format!("bad --delta: {e}"))?)
                            }
                        };
                        query.algorithm(Algorithm::Greedy { delta })
                    }
                    other => return Err(format!("unknown algorithm {other:?}")),
                };
            }
            if let Some(s) = args.options.get("dp-strategy") {
                let strategy = DpStrategy::parse(s).ok_or_else(|| {
                    format!(
                        "bad --dp-strategy {s:?}: use scan|monge|auto|approx[:eps] \
                         with eps a finite value in [0, 1]"
                    )
                })?;
                query = query.dp_strategy(strategy);
            }
            if let Some(g) = args.options.get("max-gap") {
                let max_gap = g.parse().map_err(|e| format!("bad --max-gap: {e}"))?;
                query = query.gap_policy(GapPolicy::Tolerate { max_gap });
            }
            if let Some(t) = timeout_budget(&args)? {
                query = query.deadline(t);
            }
            let result = query.execute(&relation).map_err(|e| e.to_string())?;
            write_relation(&result.table, &mut out).map_err(|e| e.to_string())?;
            eprintln!(
                "ITA {} tuples -> PTA {} tuples, SSE {:.4}",
                result.ita_size,
                result.reduction.len(),
                result.reduction.sse()
            );
        }
        "compare" => {
            let mut cmp = pta::Comparator::new().group_by(&group_refs).threads(threads);
            for a in aggs {
                cmp = cmp.aggregate(a);
            }
            if let Some(g) = args.options.get("max-gap") {
                let max_gap = g.parse().map_err(|e| format!("bad --max-gap: {e}"))?;
                cmp = cmp.gap_policy(GapPolicy::Tolerate { max_gap });
            }
            if let Some(t) = timeout_budget(&args)? {
                cmp = cmp.method_timeout(t);
            }
            match args.options.get("methods").map(String::as_str).unwrap_or("exact,greedy,atc") {
                "all" => cmp = cmp.all_methods(),
                list => {
                    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        cmp = cmp.method(name).map_err(|e| e.to_string())?;
                    }
                }
            }
            cmp = match (
                args.options.get("sizes"),
                args.options.get("errors"),
                args.options.get("ratios"),
            ) {
                (Some(s), None, None) => cmp.sizes(parse_list::<usize>(s, "--sizes")?),
                (None, Some(e), None) => cmp.errors(parse_list::<f64>(e, "--errors")?),
                (None, None, Some(r)) => cmp.reduction_ratios(parse_list::<f64>(r, "--ratios")?),
                _ => {
                    return Err("compare needs exactly one of --sizes, --errors or --ratios".into())
                }
            };
            let result = cmp.run(&relation).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "method,bound,requested,ratio_pct,size,sse,error_pct,wall_ms,timing,status"
            )
            .map_err(|e| e.to_string())?;
            for curve in &result.methods {
                for (i, bound) in result.bounds.iter().enumerate() {
                    let (kind, requested) = match bound {
                        Bound::Size(c) => ("size", c.to_string()),
                        Bound::Error(eps) => ("error", eps.to_string()),
                    };
                    // The requested reduction ratio the bound was derived
                    // from (--ratios grids only): several ratios can
                    // resolve to the same size, so the column is what
                    // maps rows back onto the fig14-style axis.
                    let ratio = result.ratios.as_ref().map_or(String::new(), |r| r[i].to_string());
                    match curve.summary_at(i) {
                        // `timing` labels wall_ms: `shared` rows repeat
                        // one grid-wide computation's time (don't sum
                        // them); `per-bound` rows timed their own run.
                        Some(s) => writeln!(
                            out,
                            "{},{kind},{requested},{ratio},{},{},{},{:.3},{},ok",
                            curve.name,
                            s.size,
                            s.sse,
                            result.error_pct(s.sse),
                            s.wall.as_secs_f64() * 1e3,
                            if s.shared_wall { "shared" } else { "per-bound" }
                        ),
                        None => {
                            writeln!(out, "{},{kind},{requested},{ratio},,,,,,n/a", curve.name)
                        }
                    }
                    .map_err(|e| e.to_string())?;
                }
            }
            eprintln!(
                "compared {} methods over {} bounds (n = {}, cmin = {}, Emax = {:.4})",
                result.methods.len(),
                result.bounds.len(),
                result.n,
                result.cmin,
                result.emax
            );
        }
        "serve" => {
            let defaults = pta_serve::ServerConfig::default();
            let ms = |v: u64| Duration::from_millis(v);
            let config = pta_serve::ServerConfig {
                addr: args
                    .options
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
                queue_depth: parse_flag(&args, "queue-depth", defaults.queue_depth)?,
                request_timeout: ms(parse_flag(
                    &args,
                    "request-timeout-ms",
                    defaults.request_timeout.as_millis() as u64,
                )?),
                read_timeout: ms(parse_flag(
                    &args,
                    "read-timeout-ms",
                    defaults.read_timeout.as_millis() as u64,
                )?),
                drain_timeout: ms(parse_flag(
                    &args,
                    "drain-timeout-ms",
                    defaults.drain_timeout.as_millis() as u64,
                )?),
                threads,
                curve_depth: parse_flag(&args, "curve-depth", defaults.curve_depth)?,
            };
            let spec = pta::ItaQuerySpec::new(&group_refs, aggs);
            let server =
                pta_serve::Server::start(config, &relation, &spec).map_err(|e| e.to_string())?;
            server.record_ingest(&ingest_report);
            // The resolved address on stdout is the readiness signal
            // scripts wait for (an `:0` bind reports its real port).
            println!("listening on {}", server.handle().addr());
            io::stdout().flush().map_err(|e| e.to_string())?;
            let stats = server.run();
            eprintln!(
                "serve: accepted={} ok={} overloaded={} shed_queue_wait={} bad_requests={} \
                 handler_panics={} late_rejects={}",
                stats.accepted,
                stats.ok,
                stats.overloaded,
                stats.shed_queue_wait,
                stats.bad_requests,
                stats.handler_panics,
                stats.late_rejects
            );
        }
        other => return Err(format!("unknown command {other:?}\n{}", usage())),
    }
    out.flush().map_err(|e| e.to_string())?;
    Ok(())
}

fn parse_list<T: std::str::FromStr>(spec: &str, flag: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let items: Result<Vec<T>, String> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|e| format!("bad {flag} entry {s:?}: {e}")))
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(format!("{flag} lists no values"));
    }
    Ok(items)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
