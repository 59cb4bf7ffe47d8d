//! Fault-injection suite: drive every compiled-in failpoint and pin how
//! each tier degrades.
//!
//! The library-tier fault sites (see `pta_failpoints`):
//!
//! * `pool.worker` — a worker job panics mid-flight: `try_map` isolates
//!   it as a typed [`JobPanic`], `map` re-raises it to the caller;
//! * `csv.chunk` — a chunk parse fails: the strict reader surfaces one
//!   typed [`TemporalError`], the lenient reader's chunks all pass
//!   through the site;
//! * `dp.fill_row` — a row fill fails inside the exact DP: the facade
//!   query returns the typed [`CoreError::Panic`] and a retry is
//!   bit-identical to a clean run;
//! * `comparator.method.<name>` — one summarizer crashes inside the
//!   fan-out: the comparison still completes, only that method's cells
//!   degrade (the issue's acceptance scenario).
//!
//! The serve-tier fault sites cover the whole request path of the
//! `pta-serve` TCP server — `serve.accept` (admission), `serve.read` /
//! `serve.write` (socket I/O), `serve.handler` (query dispatch),
//! `serve.cache` (curve fill). Under every injected panic, error, or
//! delay the server process survives, affected requests degrade to typed
//! error responses, and unaffected requests answer **bit-identically** to
//! a fault-free run (response lines carry no wall-clock fields).
//!
//! The failpoint registry is process-global, so every test serializes on
//! one lock and clears the registry on entry and exit (drop-guarded, so
//! a failing assert cannot leak a fault into the next scenario). Build
//! with `--features failpoints`; without the feature this file compiles
//! to nothing, keeping tier-1 runs injection-free.

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

use pta::{Agg, Bound, Comparator, Error, PtaQuery};
use pta_core::CoreError;
use pta_datasets::proj_relation;
use pta_failpoints as fail;
use pta_pool::Pool;
use pta_temporal::csv::{
    parse_schema, read_relation_str, read_relation_str_with_policy, RowPolicy,
};
use pta_temporal::TemporalError;

/// Serializes scenarios on the process-global registry.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the registry on construction and drop, so a scenario can never
/// leak its faults into the next test even when an assert unwinds.
struct CleanRegistry;

impl CleanRegistry {
    fn new() -> Self {
        fail::clear();
        CleanRegistry
    }
}

impl Drop for CleanRegistry {
    fn drop(&mut self) {
        fail::clear();
    }
}

/// The issue's acceptance scenario: a panic injected into one summarizer
/// during a multi-method comparison yields a *completed* `Comparison` in
/// which only that method's cells are typed errors — under both a
/// sequential and a concurrent fan-out.
#[test]
fn injected_method_panic_degrades_only_that_methods_cells() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let build = || {
        Comparator::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .methods(&["exact", "greedy", "atc"])
            .unwrap()
            .sizes([4usize, 5, 6])
    };
    let baseline = build().run(&proj_relation()).unwrap();
    fail::cfg("comparator.method.greedy", "panic(injected greedy crash)").unwrap();
    for threads in [1usize, 4] {
        let cmp = build().threads(threads).run(&proj_relation()).unwrap();
        let greedy = cmp.method("greedy").unwrap();
        assert_eq!(greedy.points.len(), 3, "threads {threads}: the grid survives the crash");
        for point in &greedy.points {
            match point {
                Err(CoreError::Panic { message }) => {
                    assert!(message.contains("injected greedy crash"), "payload lost: {message}")
                }
                other => panic!("threads {threads}: expected a Panic cell, got {other:?}"),
            }
        }
        for name in ["exact", "atc"] {
            let (cur, base) = (cmp.method(name).unwrap(), baseline.method(name).unwrap());
            for i in 0..3 {
                assert_eq!(
                    cur.sse_at(i).to_bits(),
                    base.sse_at(i).to_bits(),
                    "threads {threads}: {name} @ {i} must be untouched by the sibling crash"
                );
                assert_eq!(cur.size_at(i), base.size_at(i), "threads {threads}: {name} @ {i}");
            }
        }
    }
}

#[test]
fn pool_worker_panic_isolated_by_try_map_reraised_by_map() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    // Single worker: jobs run in submission order, so `1*` deterministically
    // hits the first job.
    fail::cfg("pool.worker", "1*panic(worker down)").unwrap();
    let out = Pool::new(1).try_map(vec![1, 2, 3], |x| x * 2);
    assert_eq!(out.len(), 3);
    assert_eq!(out[0].as_ref().unwrap_err().message, "worker down");
    assert_eq!(out[1], Ok(4));
    assert_eq!(out[2], Ok(6));
    // `map` has no per-job error channel: the same fault propagates to
    // the caller as a panic instead of a poisoned hang.
    fail::cfg("pool.worker", "1*panic(worker down)").unwrap();
    let caught = catch_unwind(AssertUnwindSafe(|| Pool::new(1).map(vec![1, 2, 3], |x| x * 2)));
    assert!(caught.is_err(), "map must re-raise the worker panic");
    // Both points exhausted: the pool is reusable afterwards.
    assert_eq!(Pool::new(1).map(vec![1, 2, 3], |x| x * 2), vec![2, 4, 6]);
}

#[test]
fn csv_chunk_fault_is_a_typed_parse_error_and_clears_on_exhaustion() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let schema = parse_schema("Empl:str,Dept:str,Sal:int").unwrap();
    // Large enough (> 64 KiB) that a 4-thread budget takes the chunked path.
    let mut text = String::from("Empl,Dept,Sal,t_start,t_end\n");
    for i in 0..4000u64 {
        text.push_str(&format!("e{i},d{},{},{},{}\n", i % 7, i % 100, 2 * i, 2 * i + 1));
    }
    let clean = read_relation_str(schema.clone(), &text, 4).unwrap();
    assert_eq!(clean.len(), 4000);
    fail::cfg("csv.chunk", "1*return(injected chunk fault)").unwrap();
    let err = read_relation_str(schema.clone(), &text, 4).unwrap_err();
    match err {
        TemporalError::NonSequential { reason, .. } => {
            assert!(reason.contains("injected chunk fault"), "fault message lost: {reason}")
        }
        other => panic!("expected a typed parse error, got {other:?}"),
    }
    // The `1*` count is spent: the very next read succeeds, row-identical.
    assert_eq!(read_relation_str(schema.clone(), &text, 4).unwrap(), clean);
    // The lenient chunked reader passes every chunk through the same
    // site; a counting callback observes the whole fan-out and the
    // result is unperturbed.
    let hits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let h = hits.clone();
    fail::cfg_callback("csv.chunk", move || {
        h.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    });
    let (rel, report) =
        read_relation_str_with_policy(schema, &text, 4, RowPolicy::SkipAndReport).unwrap();
    assert_eq!(rel, clean);
    assert!(!report.has_skips());
    assert!(hits.load(std::sync::atomic::Ordering::SeqCst) > 1, "chunked path not taken");
}

#[test]
fn dp_fill_row_fault_is_typed_through_the_facade_and_a_retry_is_clean() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let query = || {
        PtaQuery::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .bound(Bound::Size(4))
    };
    let baseline = query().execute(&proj_relation()).unwrap();
    fail::cfg("dp.fill_row", "1*return(injected dp fault)").unwrap();
    let err = query().execute(&proj_relation()).unwrap_err();
    match err {
        Error::Core(CoreError::Panic { message }) => {
            assert!(message.contains("injected dp fault"), "fault message lost: {message}")
        }
        other => panic!("expected a typed core error, got {other:?}"),
    }
    // Count spent: a retry reproduces the clean run bit-identically.
    let again = query().execute(&proj_relation()).unwrap();
    assert_eq!(again.reduction.len(), baseline.reduction.len());
    assert_eq!(again.reduction.sse().to_bits(), baseline.reduction.sse().to_bits());
}

// ---------------------------------------------------------------------
// Serve-tier scenarios.
// ---------------------------------------------------------------------

use pta::ItaQuerySpec;
use pta_serve::{Client, Server, ServerConfig, ServerHandle, StatsSnapshot};

fn serve_spec() -> ItaQuerySpec {
    ItaQuerySpec::new(&["Proj"], vec![Agg::avg("Sal")])
}

fn serve_config(queue_depth: usize, threads: usize) -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".to_string(), queue_depth, threads, ..Default::default() }
}

/// Starts a proj-relation server; `run()` executes on a plain test
/// thread. Returns the remote control and the join handle yielding the
/// final counters.
fn start_serve(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<StatsSnapshot>) {
    let relation = proj_relation();
    let server = Server::start(config, &relation, &serve_spec()).expect("server starts");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr()).expect("connect")
}

/// The fault-free response line for `reduce A c=4`, captured from the
/// running server itself before any fault is armed.
fn baseline_reduce_a(handle: &ServerHandle) -> String {
    let resp = connect(handle).request("reduce A c=4").expect("baseline");
    assert!(resp.starts_with("ok group=A "), "unhealthy baseline: {resp:?}");
    resp
}

/// An injected handler panic degrades to a typed `err panic` response on
/// the same connection, which stays usable; a retry is bit-identical to
/// the fault-free baseline. An injected handler error degrades to
/// `err internal`.
#[test]
fn serve_handler_panic_is_isolated_and_the_retry_is_bit_identical() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let (handle, join) = start_serve(serve_config(16, 1));
    let baseline = baseline_reduce_a(&handle);

    fail::cfg("serve.handler", "1*panic(injected handler crash)").unwrap();
    let mut client = connect(&handle);
    let crashed = client.request("reduce A c=4").unwrap();
    assert!(crashed.starts_with("err panic "), "got {crashed:?}");
    assert!(crashed.contains("injected handler crash"), "payload lost: {crashed:?}");
    // The connection survived the panic; the count is spent.
    assert_eq!(client.request("reduce A c=4").unwrap(), baseline);

    fail::cfg("serve.handler", "1*return(injected handler error)").unwrap();
    assert_eq!(client.request("reduce A c=4").unwrap(), "err internal injected handler error");
    assert_eq!(client.request("reduce A c=4").unwrap(), baseline);

    assert_eq!(client.request("shutdown").unwrap(), "ok shutting-down");
    let stats = join.join().expect("run() returns");
    assert_eq!(stats.handler_panics, 1, "{stats:?}");
    assert_eq!(stats.conn_panics, 0, "{stats:?}");
}

/// An injected curve-fill fault degrades to `err internal` without
/// poisoning the cache; the retry fills the curve and matches the
/// fault-free answer.
#[test]
fn serve_cache_fault_is_typed_and_does_not_poison_the_curve() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let (handle, join) = start_serve(serve_config(16, 1));
    fail::cfg("serve.cache", "1*return(injected cache fault)").unwrap();
    let mut client = connect(&handle);
    assert_eq!(client.request("reduce A c=4").unwrap(), "err internal injected cache fault");
    let retry = client.request("reduce A c=4").unwrap();
    assert!(retry.starts_with("ok group=A "), "got {retry:?}");
    assert!(retry.ends_with("source=curve"), "retry should fill the cache: {retry:?}");
    let stats_line = client.request("stats").unwrap();
    assert!(stats_line.contains("curves_cached=1"), "got {stats_line:?}");
    assert_eq!(client.request("shutdown").unwrap(), "ok shutting-down");
    join.join().expect("run() returns");
}

/// An injected read fault answers `err io` and closes that connection
/// only; the next connection is served normally.
#[test]
fn serve_read_fault_is_typed_io_then_close() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let (handle, join) = start_serve(serve_config(16, 1));
    fail::cfg("serve.read", "1*return(injected read fault)").unwrap();
    let mut faulted = connect(&handle);
    assert_eq!(faulted.request("ping").unwrap(), "err io injected read fault");
    // The server closed the faulted connection after answering.
    assert!(faulted.request("ping").is_err(), "connection should be closed");
    let mut healthy = connect(&handle);
    assert_eq!(healthy.request("ping").unwrap(), "ok pong");
    assert_eq!(healthy.request("shutdown").unwrap(), "ok shutting-down");
    let stats = join.join().expect("run() returns");
    assert!(stats.read_faults >= 1, "{stats:?}");
}

/// An injected write fault drops that connection (the client observes
/// EOF); the server survives and serves the next connection.
#[test]
fn serve_write_fault_drops_the_connection_not_the_server() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let (handle, join) = start_serve(serve_config(16, 1));
    fail::cfg("serve.write", "1*return(injected write fault)").unwrap();
    let mut faulted = connect(&handle);
    let err = faulted.request("ping").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err:?}");
    let mut healthy = connect(&handle);
    assert_eq!(healthy.request("ping").unwrap(), "ok pong");
    assert_eq!(healthy.request("shutdown").unwrap(), "ok shutting-down");
    let stats = join.join().expect("run() returns");
    assert!(stats.write_faults >= 1, "{stats:?}");
}

/// An injected accept fault drops that one connection on the floor; the
/// accept loop survives and admits the next connection.
#[test]
fn serve_accept_fault_drops_only_that_connection() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let (handle, join) = start_serve(serve_config(16, 1));
    fail::cfg("serve.accept", "1*return(dropped)").unwrap();
    let mut dropped = connect(&handle);
    assert!(dropped.request("ping").is_err(), "dropped connection should EOF");
    let mut healthy = connect(&handle);
    assert_eq!(healthy.request("ping").unwrap(), "ok pong");
    assert_eq!(healthy.request("shutdown").unwrap(), "ok shutting-down");
    let stats = join.join().expect("run() returns");
    assert!(stats.accepted >= 2, "{stats:?}");
}

/// Delays injected at every serve seam at once slow the request path but
/// change nothing: responses stay bit-identical to the fault-free run.
#[test]
fn serve_delays_on_every_seam_keep_responses_bit_identical() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let (handle, join) = start_serve(serve_config(16, 2));
    let baseline = baseline_reduce_a(&handle);
    for site in ["serve.accept", "serve.read", "serve.write", "serve.handler", "serve.cache"] {
        fail::cfg(site, "delay(10)").unwrap();
    }
    let mut client = connect(&handle);
    assert_eq!(client.request("ping").unwrap(), "ok pong");
    assert_eq!(client.request("reduce A c=4").unwrap(), baseline);
    fail::clear();
    let mut after = connect(&handle);
    assert_eq!(after.request("shutdown").unwrap(), "ok shutting-down");
    join.join().expect("run() returns");
}

/// Satellite 6, end to end and deterministically: with one worker pinned
/// by an injected 150 ms handler delay, a second request with a 20 ms
/// budget spends it all in the queue and is shed with the queue-wait
/// message — it never reaches a handler.
#[test]
fn serve_queue_wait_shed_is_deterministic_under_injected_delay() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let (handle, join) = start_serve(serve_config(16, 1));
    let baseline = baseline_reduce_a(&handle);
    fail::cfg("serve.handler", "1*delay(150)").unwrap();
    let addr = handle.addr();
    let slow =
        std::thread::spawn(move || Client::connect(addr).expect("connect").request("reduce A c=4"));
    // Let the single worker pick up the delayed request, then enqueue a
    // request whose 20 ms budget cannot outlast the 150 ms pin.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut starved = connect(&handle);
    assert_eq!(
        starved.request("reduce A c=4 timeout_ms=20").unwrap(),
        "err deadline-exceeded request budget spent in queue"
    );
    assert_eq!(slow.join().expect("slow client").unwrap(), baseline);
    assert_eq!(starved.request("shutdown").unwrap(), "ok shutting-down");
    let stats = join.join().expect("run() returns");
    assert_eq!(stats.shed_queue_wait, 1, "{stats:?}");
}

/// `stats` never waits on a curve fill: with every DP row of group A's
/// first fill slowed by an injected delay, a `stats` request on a second
/// connection answers while the fill still holds the group's curve slot
/// — before the filling `reduce` answers — and counts no cached curve.
#[test]
fn serve_stats_answers_while_a_curve_fill_is_in_flight() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let (handle, join) = start_serve(serve_config(16, 2));
    // Group A's five-tuple curve fills five rows: about 0.6 s in all.
    fail::cfg("dp.fill_row", "delay(120)").unwrap();
    let addr = handle.addr();
    let filler = std::thread::spawn(move || {
        let resp = Client::connect(addr).expect("connect").request("reduce A c=4");
        (resp, std::time::Instant::now())
    });
    // Let the second worker start the fill, then ask for stats.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let mut observer = connect(&handle);
    let stats_line = observer.request("stats").unwrap();
    let stats_at = std::time::Instant::now();
    let (reduce, reduce_at) = filler.join().expect("filling client");
    let reduce = reduce.unwrap();
    assert!(reduce.starts_with("ok group=A "), "got {reduce:?}");
    assert!(stats_at < reduce_at, "stats waited for the fill: {stats_line:?}");
    assert!(stats_line.contains("curves_cached=0"), "got {stats_line:?}");
    fail::clear();
    let after = observer.request("stats").unwrap();
    assert!(after.contains("curves_cached=1"), "got {after:?}");
    assert_eq!(observer.request("shutdown").unwrap(), "ok shutting-down");
    join.join().expect("run() returns");
}

/// Fault-injected soak: concurrent clients, injected handler panics, and
/// a shutdown mid-burst. Every response is the bit-identical `ok` line or
/// a typed degradation; the server drains and returns.
#[test]
fn serve_fault_injected_soak_survives_shutdown_mid_burst() {
    let _guard = serial();
    let _clean = CleanRegistry::new();
    let (handle, join) = start_serve(serve_config(8, 2));
    let baseline = baseline_reduce_a(&handle);
    fail::cfg("serve.handler", "3*panic(soak crash)").unwrap();
    let addr = handle.addr();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for _ in 0..6 {
                    match Client::connect(addr) {
                        Ok(mut c) => out.push(c.request("reduce A c=4")),
                        Err(e) => out.push(Err(e)),
                    }
                }
                out
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(40));
    handle.shutdown();
    let (mut oks, mut panics) = (0usize, 0usize);
    for t in clients {
        for resp in t.join().expect("client thread") {
            match resp {
                Ok(line) if line == baseline => oks += 1,
                Ok(line) if line.starts_with("err panic ") => panics += 1,
                Ok(line) => assert!(
                    line.starts_with("err shutting-down ")
                        || line.starts_with("err overloaded ")
                        || line.starts_with("err cancelled ")
                        || line.starts_with("err deadline-exceeded "),
                    "unexpected response {line:?}"
                ),
                Err(_) => {} // refused/EOF after shutdown: acceptable
            }
        }
    }
    assert!(oks > 0, "the burst should land at least one clean ok");
    let stats = join.join().expect("run() returns despite faults + shutdown");
    assert!(stats.handler_panics <= 3, "{stats:?}");
    assert_eq!(stats.handler_panics as usize, panics, "every panic answered typed: {stats:?}");
    assert_eq!(stats.conn_panics, 0, "{stats:?}");
}

#[test]
fn failpoints_env_scenario_drives_the_comparator() {
    let _guard = serial();
    fail::clear();
    // `FailScenario::setup` parses `FAILPOINTS` the way CI's
    // fault-injection job injects faults without touching test code.
    std::env::set_var("FAILPOINTS", "comparator.method.exact=panic(env injected)");
    let scenario = fail::FailScenario::setup().unwrap();
    std::env::remove_var("FAILPOINTS");
    let cmp = Comparator::new()
        .group_by(&["Proj"])
        .aggregate(Agg::avg("Sal").as_output("AvgSal"))
        .methods(&["exact", "atc"])
        .unwrap()
        .sizes([4usize, 5])
        .run(&proj_relation())
        .unwrap();
    let exact = cmp.method("exact").unwrap();
    for point in &exact.points {
        assert!(
            matches!(point, Err(CoreError::Panic { message }) if message == "env injected"),
            "expected the env-injected panic, got {point:?}"
        );
    }
    assert!(cmp.method("atc").unwrap().points.iter().all(Result::is_ok));
    scenario.teardown();
    assert!(fail::list().is_empty(), "teardown must clear the registry");
}
