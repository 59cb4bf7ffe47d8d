//! End-to-end tests for `pta-serve`: the fault-free wire contract.
//!
//! A real server on an ephemeral port, real TCP clients, and responses
//! compared **bit-identically** against direct [`GroupStore`] answers on
//! the same data (response lines carry no wall-clock fields, so equality
//! is exact). Fault-injected scenarios live in `tests/fault_injection.rs`
//! behind the `failpoints` feature; this file runs in tier-1.

use std::time::Duration;

use pta::{Agg, ItaQuerySpec, RowPolicy};
use pta_core::{CancelToken, Weights};
use pta_datasets::proj_relation;
use pta_serve::{
    Client, GroupEntry, GroupStore, QueryBound, Server, ServerConfig, ServerHandle, StatsSnapshot,
    MAX_REQUEST_LINE,
};
use pta_temporal::csv::parse_schema;
use pta_temporal::TemporalRelation;

fn spec() -> ItaQuerySpec {
    ItaQuerySpec::new(&["Proj"], vec![Agg::avg("Sal")])
}

/// Starts a server over `relation` on an ephemeral port; `run()` executes
/// on a plain test thread (integration tests drive the public API from
/// outside the pool discipline).
fn start(
    config: ServerConfig,
    relation: &TemporalRelation,
) -> (ServerHandle, std::thread::JoinHandle<StatsSnapshot>) {
    let server = Server::start(config, relation, &spec()).expect("server starts");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

fn ephemeral(queue_depth: usize, threads: usize) -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".to_string(), queue_depth, threads, ..Default::default() }
}

/// The store the server would build, for computing expected responses.
fn reference_store(relation: &TemporalRelation, curve_depth: usize) -> GroupStore {
    let seq = pta_ita::ita(relation, &spec()).expect("ita");
    GroupStore::build(&seq, Weights::uniform(1), curve_depth).expect("store")
}

/// Renders the exact response line the server emits for `(entry, bound)`.
fn expected_ok(entry: &GroupEntry, bound: QueryBound) -> String {
    let ans = entry.answer(bound, &CancelToken::inert()).expect("reference answer");
    format!(
        "ok group={} n={} size={} sse={} source={}",
        entry.name(),
        entry.len(),
        ans.size,
        ans.sse,
        if ans.cached { "curve" } else { "direct" }
    )
}

#[test]
fn fault_free_wire_contract_end_to_end() {
    let relation = proj_relation();
    let store = reference_store(&relation, 128);
    let a = store.get("A").expect("group A");
    let (handle, join) = start(ephemeral(16, 2), &relation);
    let mut client = Client::connect(handle.addr()).expect("connect");

    assert_eq!(client.request("ping").unwrap(), "ok pong");

    // The three bound shapes, bit-identical to direct store answers.
    assert_eq!(client.request("reduce A c=4").unwrap(), expected_ok(a, QueryBound::Size(4)));
    assert_eq!(client.request("reduce A eps=1.0").unwrap(), expected_ok(a, QueryBound::Error(1.0)));
    assert_eq!(
        client.request("reduce A ratio=0.5").unwrap(),
        expected_ok(a, QueryBound::Ratio(0.5))
    );
    let b = store.get("B").expect("group B");
    let cb = b.cmin().max(1);
    assert_eq!(
        client.request(&format!("reduce B c={cb}")).unwrap(),
        expected_ok(b, QueryBound::Size(cb))
    );

    // Typed rejections, connection kept alive through every one.
    let bad = client.request("banana").unwrap();
    assert!(bad.starts_with("err bad-request "), "got {bad:?}");
    let unknown = client.request("reduce Z c=3").unwrap();
    assert!(unknown.starts_with("err unknown-group "), "got {unknown:?}");
    let below = client.request("reduce A c=0").unwrap();
    assert!(below.starts_with("err bad-request "), "got {below:?}");

    // Satellite regression: a zero budget is spent before any handler
    // runs — shed with the queue-wait message, deterministically.
    assert_eq!(
        client.request("reduce A c=4 timeout_ms=0").unwrap(),
        "err deadline-exceeded request budget spent in queue"
    );

    let stats = client.request("stats").unwrap();
    assert!(stats.starts_with("ok stats groups=2 "), "got {stats:?}");
    assert!(stats.contains("curves_cached=2"), "both curves should be cached: {stats:?}");
    // The whole key list, in wire order, each key once with a count.
    let keys: Vec<&str> = stats["ok stats ".len()..]
        .split(' ')
        .map(|pair| {
            let (key, value) = pair.split_once('=').expect("key=value");
            assert!(value.parse::<u64>().is_ok(), "{key}={value} in {stats:?}");
            key
        })
        .collect();
    assert_eq!(
        keys,
        [
            "groups",
            "n",
            "curves_cached",
            "accepted",
            "overloaded",
            "handled",
            "ok",
            "shed_queue_wait",
            "bad_requests",
            "handler_panics",
            "conn_panics",
            "read_faults",
            "write_faults",
            "late_rejects",
            "rows_kept",
            "rows_skipped",
        ],
        "{stats:?}"
    );

    assert_eq!(client.request("shutdown").unwrap(), "ok shutting-down");
    let final_stats = join.join().expect("run() returns");
    assert!(final_stats.ok >= 4, "ok count: {final_stats:?}");
    assert_eq!(final_stats.shed_queue_wait, 1, "{final_stats:?}");
    assert_eq!(final_stats.bad_requests, 1, "{final_stats:?}");
    assert_eq!(final_stats.handler_panics, 0, "{final_stats:?}");
    assert_eq!(final_stats.conn_panics, 0, "{final_stats:?}");
}

/// A request line longer than `MAX_REQUEST_LINE` is not buffered to its
/// end: the server answers `err bad-request` once the cap is read and
/// closes that connection, and other connections are served as before.
#[test]
fn over_long_request_line_is_rejected_and_closed() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let relation = proj_relation();
    let (handle, join) = start(ephemeral(16, 1), &relation);
    // One byte past the cap and no newline: a client that never ends its
    // line. Then a cap that falls inside a three-byte character.
    let mut cut_char = vec![b'x'; MAX_REQUEST_LINE - 1];
    cut_char.extend_from_slice("€".as_bytes());
    for payload in [vec![b'x'; MAX_REQUEST_LINE + 1], cut_char] {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.write_all(&payload).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert_eq!(
            resp.trim_end(),
            format!("err bad-request request line exceeds {MAX_REQUEST_LINE} bytes")
        );
        // The server closed the connection after answering.
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap_or(0), 0, "connection should be closed");
    }

    // A line of exactly the cap, newline included, is still a request.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let padded = format!("ping{}", " ".repeat(MAX_REQUEST_LINE - "ping\n".len()));
    assert_eq!(client.request(&padded).unwrap(), "ok pong");
    assert_eq!(client.request("shutdown").unwrap(), "ok shutting-down");
    let stats = join.join().expect("run() returns");
    assert_eq!(stats.bad_requests, 2, "{stats:?}");
    assert_eq!(stats.read_faults, 0, "{stats:?}");
}

/// Admission control: a zero-capacity queue sheds every connection with a
/// typed `overloaded` response instead of buffering or hanging.
#[test]
fn full_queue_sheds_with_typed_overloaded() {
    let relation = proj_relation();
    let (handle, join) = start(ephemeral(0, 1), &relation);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let resp = client.request("ping").unwrap();
    assert_eq!(resp, "err overloaded request queue full");
    handle.shutdown();
    let stats = join.join().expect("run() returns");
    assert!(stats.overloaded >= 1, "{stats:?}");
    assert_eq!(stats.handled, 0, "nothing should reach a handler: {stats:?}");
}

/// Satellite 1 end to end: lenient ingest through the facade feeds the
/// server, and the skip counts surface in `stats` responses.
#[test]
fn ingest_report_surfaces_in_stats() {
    let schema = parse_schema("Proj:str,Sal:int").expect("schema");
    let text = "Proj,Sal,t_start,t_end\nA,100,0,5\nA,banana,5,7\nA,200,5,9\n";
    let (relation, report) =
        pta::read_csv(schema, text, 1, RowPolicy::SkipAndReport).expect("lenient read");
    assert_eq!(report.rows_skipped, 1);
    let server = Server::start(ephemeral(8, 1), &relation, &spec()).expect("server starts");
    server.record_ingest(&report);
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stats = client.request("stats").unwrap();
    assert!(stats.ends_with("rows_kept=2 rows_skipped=1"), "got {stats:?}");
    assert_eq!(client.request("shutdown").unwrap(), "ok shutting-down");
    join.join().expect("run() returns");
}

/// `eps=` has one threshold, `pta_core::error_threshold`, whether the
/// answer is read off a cached curve or comes from the direct PTAε run
/// past the cached depth. Merging this group's first two tuples costs
/// 5e-11: more than 0, but within the threshold's `1e-9·(1 + E_max)`
/// slack, so both stores answer `eps=0` with three tuples.
#[test]
fn eps_zero_answers_the_same_size_at_every_curve_depth() {
    let schema = parse_schema("Proj:str,Sal:float").expect("schema");
    let text = "Proj,Sal,t_start,t_end\nA,0,1,1\nA,0.00001,2,2\nA,10,3,3\nA,20,4,4\n";
    let (relation, _) = pta::read_csv(schema, text, 1, RowPolicy::Strict).expect("read");
    let answer = |depth| {
        let store = reference_store(&relation, depth);
        store.get("A").expect("group A").answer(QueryBound::Error(0.0), &CancelToken::inert())
    };
    let curve = answer(128).expect("curve answer");
    let direct = answer(0).expect("direct answer");
    assert!(curve.cached && !direct.cached, "{curve:?} {direct:?}");
    assert_eq!(curve.size, 3, "{curve:?}");
    assert_eq!(direct.size, curve.size, "{direct:?}");
    assert!(curve.sse > 0.0 && direct.sse > 0.0, "{curve:?} {direct:?}");
}

/// Fault-free soak: concurrent clients hammering both groups while the
/// server is shut down mid-burst. Every response is either the
/// bit-identical `ok` line or a typed late-arrival rejection; the server
/// neither hangs nor dies.
#[test]
fn concurrent_soak_with_shutdown_mid_burst() {
    let relation = proj_relation();
    let store = reference_store(&relation, 128);
    let ok_a = expected_ok(store.get("A").expect("A"), QueryBound::Size(4));
    let b = store.get("B").expect("B");
    let cb = b.cmin().max(1);
    let ok_b = expected_ok(b, QueryBound::Size(cb));
    let (handle, join) = start(ephemeral(8, 2), &relation);
    let addr = handle.addr();

    let clients: Vec<_> = (0..4)
        .map(|i| {
            let req =
                if i % 2 == 0 { "reduce A c=4".to_string() } else { format!("reduce B c={cb}") };
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for _ in 0..6 {
                    match Client::connect_with_deadline(addr, Duration::from_secs(10)) {
                        Ok(mut c) => out.push(c.request(&req)),
                        // Post-shutdown connects may be refused outright.
                        Err(e) => out.push(Err(e)),
                    }
                }
                out
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(40));
    handle.shutdown();

    let mut oks = 0usize;
    for t in clients {
        for resp in t.join().expect("client thread") {
            match resp {
                Ok(line) if line == ok_a || line == ok_b => oks += 1,
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
    assert!(oks > 0, "the burst should land at least one ok before shutdown");
    let stats = join.join().expect("run() returns despite the mid-burst shutdown");
    assert_eq!(stats.handler_panics, 0, "{stats:?}");
    assert_eq!(stats.conn_panics, 0, "{stats:?}");
}
