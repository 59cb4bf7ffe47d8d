//! The threaded TCP server: accept loop, bounded admission, worker pool,
//! deadline propagation, panic isolation, graceful shutdown.
//!
//! ## Budget semantics
//!
//! A request's clock starts when its connection is **enqueued** by the
//! accept loop — queue wait is charged against the budget, so a request
//! that spent its whole budget waiting is shed with a typed
//! `deadline-exceeded` response *without ever reaching a handler*. (This
//! deliberately differs from `Comparator::method_timeout` in the facade,
//! whose per-method clock starts inside the worker: there the fan-out is
//! an internal scheduling artifact of one caller, while here queue wait
//! is real client-visible latency under load.) Subsequent requests on a
//! kept-alive connection start their clock when their line is read.
//!
//! ## Fault sites
//!
//! Five `fail_point!` seams cover the request path: `serve.accept`
//! (connection admission), `serve.read` / `serve.write` (socket I/O),
//! `serve.handler` (query dispatch), `serve.cache` (curve fill, in
//! [`crate::cache`]). The fault-injection suite crashes, delays, and
//! errors each one and asserts the process survives with typed
//! degradation only.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pta_core::{CancelToken, CoreError, Weights};
use pta_failpoints::fail_point;
use pta_ita::{ita, ItaQuerySpec};
use pta_pool::Pool;
use pta_temporal::{IngestReport, TemporalRelation};

use crate::cache::GroupStore;
use crate::protocol::{ErrCode, QueryBound, Request, Response};
use crate::queue::BoundedQueue;
use crate::ServeError;

/// Accept-loop poll interval (the listener is non-blocking so shutdown
/// is noticed within one tick).
const POLL: Duration = Duration::from_millis(2);

/// The longest request line the server reads, newline included. A longer
/// line is answered `err bad-request` and its connection closed.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Server knobs; every one maps to a `pta-cli serve` flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`--addr`); port 0 picks an ephemeral port.
    pub addr: String,
    /// Bounded admission queue capacity (`--queue-depth`); a full queue
    /// sheds with a typed `overloaded` response, never buffers.
    pub queue_depth: usize,
    /// Default per-request budget (`--request-timeout-ms`), applied when
    /// a request carries no `timeout_ms=` override.
    pub request_timeout: Duration,
    /// Per-connection socket read deadline (`--read-timeout-ms`): a
    /// stalled client cannot pin a worker past this.
    pub read_timeout: Duration,
    /// Graceful-shutdown drain budget (`--drain-timeout-ms`): in-flight
    /// work past it is cancelled, queued work shed.
    pub drain_timeout: Duration,
    /// Worker thread count (`--threads`; `0` = the `PTA_THREADS`
    /// process default).
    pub threads: usize,
    /// Cached error-curve depth per group (`--curve-depth`); queries
    /// beyond it fall back to direct DP runs.
    pub curve_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 64,
            request_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(5),
            threads: 0,
            curve_depth: 128,
        }
    }
}

/// Declares the server counters once: each name and doc yields a relaxed
/// atomic in `Counters`, a `pub u64` field of [`StatsSnapshot`], its load
/// in `Counters::snapshot` and its `name=value` pair in the `stats`
/// response, in declaration order.
macro_rules! counters {
    ($($(#[doc = $doc:expr])+ $name:ident,)+) => {
        /// Monotone counters, updated with relaxed atomics (they are
        /// telemetry, not synchronization).
        #[derive(Debug, Default)]
        struct Counters {
            $($name: AtomicU64,)+
        }

        /// A point-in-time copy of the server counters ([`Server::run`]'s
        /// return value and the `stats` request's payload).
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        impl Counters {
            fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $($name: self.$name.load(Ordering::Relaxed),)+ }
            }
        }

        impl StatsSnapshot {
            /// Appends ` name=value` for every counter, in declaration order.
            fn write_pairs(&self, out: &mut String) {
                $(out.push_str(concat!(" ", stringify!($name), "="));
                out.push_str(&self.$name.to_string());)+
            }
        }
    };
}

counters! {
    /// Connections taken off the listener.
    accepted,
    /// Connections shed because the admission queue was full.
    overloaded,
    /// Reduce requests that reached a handler.
    handled,
    /// Reduce requests answered `ok`.
    ok,
    /// Reduce requests shed because their budget was spent in the queue
    /// (they never reached a handler).
    shed_queue_wait,
    /// Request lines that failed to parse.
    bad_requests,
    /// Handler panics isolated to one request.
    handler_panics,
    /// Connection-level panics isolated to one connection.
    conn_panics,
    /// Read faults (timeouts, socket errors, injected).
    read_faults,
    /// Write faults (socket errors, injected).
    write_faults,
    /// Requests turned away with `shutting-down`.
    late_rejects,
    /// Rows kept at startup ingest (see [`Server::record_ingest`]).
    rows_kept,
    /// Rows skipped at startup ingest.
    rows_skipped,
}

fn inc(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// State shared between the accept loop, the workers, and every handle.
struct Shared {
    shutdown: AtomicBool,
    in_flight: AtomicUsize,
    /// Root cancellation flag; every request token shares it, so the
    /// drain-deadline path can abort all in-flight work at once.
    root: CancelToken,
    stats: Counters,
}

/// A cloneable remote control for a running server (address, shutdown
/// signal, counter snapshots).
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (resolved, so an `:0` bind reports its port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals graceful shutdown: the accept loop stops within one poll
    /// tick and the drain phase begins.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }
}

/// The server: built by [`Server::start`] (binds + builds the group
/// store), driven by [`Server::run`] (blocks until shutdown completes).
pub struct Server {
    config: ServerConfig,
    listener: TcpListener,
    addr: SocketAddr,
    store: Arc<GroupStore>,
    shared: Arc<Shared>,
}

impl Server {
    /// Runs ITA over `relation`, builds the per-group store, and binds
    /// the listener. No curve is computed yet — curves fill lazily under
    /// the first requester's budget.
    pub fn start(
        config: ServerConfig,
        relation: &TemporalRelation,
        spec: &ItaQuerySpec,
    ) -> Result<Server, ServeError> {
        let seq = ita(relation, spec)?;
        let weights = Weights::uniform(spec.aggregates.len());
        let store = GroupStore::build(&seq, weights, config.curve_depth)?;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            config,
            listener,
            addr,
            store: Arc::new(store),
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
                root: CancelToken::new(),
                stats: Counters::default(),
            }),
        })
    }

    /// Surfaces the startup [`IngestReport`] in the server's counters
    /// (`rows_kept` / `rows_skipped` in `stats` responses) — the lenient
    /// ingest path's observability hook.
    pub fn record_ingest(&self, report: &IngestReport) {
        self.shared.stats.rows_kept.store(report.rows_kept as u64, Ordering::Relaxed);
        self.shared.stats.rows_skipped.store(report.rows_skipped as u64, Ordering::Relaxed);
    }

    /// A remote control usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { addr: self.addr, shared: self.shared.clone() }
    }

    /// The group store (tests compare server responses against direct
    /// curve computations on the same slices).
    pub fn store(&self) -> &GroupStore {
        &self.store
    }

    /// Serves until shutdown is signalled (via a `shutdown` request or
    /// [`ServerHandle::shutdown`]), drains, and returns the final
    /// counters. The accept loop runs on the calling thread; workers run
    /// on scoped threads via the pool's scope escape hatch.
    pub fn run(self) -> StatsSnapshot {
        let workers = if self.config.threads == 0 {
            pta_pool::default_threads()
        } else {
            self.config.threads
        };
        let queue = BoundedQueue::new(self.config.queue_depth);
        let ctx = Ctx { config: &self.config, store: &self.store, shared: &self.shared };
        Pool::new(1).scope(|s| {
            for _ in 0..workers.max(1) {
                s.spawn(|| worker_loop(&ctx, &queue));
            }
            accept_loop(&ctx, &self.listener, &queue);
            drain(&ctx, &self.listener, &queue);
            // Wakes idle workers; busy ones finish their connection
            // (bounded by the read deadline) and exit.
            queue.close();
        });
        self.shared.stats.snapshot()
    }
}

struct Ctx<'a> {
    config: &'a ServerConfig,
    store: &'a GroupStore,
    shared: &'a Shared,
}

/// Remaining budget of a request whose clock started at `origin`, as of
/// `now`. `None` means the budget is spent — the uniform shed signal for
/// queue wait (checked before the handler runs) and `timeout_ms=0`.
pub(crate) fn remaining_budget(
    origin: Instant,
    budget: Duration,
    now: Instant,
) -> Option<Duration> {
    (origin + budget).checked_duration_since(now).filter(|d| !d.is_zero())
}

fn accept_loop(ctx: &Ctx<'_>, listener: &TcpListener, queue: &BoundedQueue<TcpStream>) {
    while !ctx.shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => admit_guarded(ctx, queue, stream, false),
            // WouldBlock (nothing pending) and transient accept errors
            // both just wait a tick; the loop itself must never die.
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Admission under `catch_unwind`: an injected (or real) panic on the
/// accept path drops that one connection, never the accept loop.
fn admit_guarded(ctx: &Ctx<'_>, queue: &BoundedQueue<TcpStream>, stream: TcpStream, late: bool) {
    if catch_unwind(AssertUnwindSafe(|| admit(ctx, queue, stream, late))).is_err() {
        inc(&ctx.shared.stats.conn_panics);
    }
}

fn admit(ctx: &Ctx<'_>, queue: &BoundedQueue<TcpStream>, stream: TcpStream, late: bool) {
    inc(&ctx.shared.stats.accepted);
    // An injected accept fault drops the connection on the floor; the
    // client observes a closed socket, the server keeps accepting.
    fail_point!("serve.accept", |_msg: String| ());
    if late || ctx.shared.shutdown.load(Ordering::Acquire) {
        inc(&ctx.shared.stats.late_rejects);
        let mut stream = stream;
        let _ = write_response(
            &mut stream,
            &Response::err(ErrCode::ShuttingDown, "server is draining"),
        );
        return;
    }
    if let Err(stream) = queue.try_push(stream) {
        // Typed load shedding: the queue is full (or closed), so the
        // connection is answered and dropped instead of buffered.
        inc(&ctx.shared.stats.overloaded);
        let mut stream = stream;
        let _ =
            write_response(&mut stream, &Response::err(ErrCode::Overloaded, "request queue full"));
    }
}

fn worker_loop(ctx: &Ctx<'_>, queue: &BoundedQueue<TcpStream>) {
    while let Some((stream, enqueued)) = queue.pop() {
        ctx.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        // Connection-level isolation: a panic that escapes the per-
        // request guard (e.g. on the I/O path) kills this connection
        // only; the worker survives to pop the next one.
        if catch_unwind(AssertUnwindSafe(|| serve_conn(ctx, stream, enqueued))).is_err() {
            inc(&ctx.shared.stats.conn_panics);
        }
        ctx.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn serve_conn(ctx: &Ctx<'_>, stream: TcpStream, enqueued: Instant) {
    // The read deadline is the "stalled client cannot pin a worker"
    // guarantee; a socket we cannot configure is not worth serving.
    if stream.set_read_timeout(Some(ctx.config.read_timeout)).is_err() {
        inc(&ctx.shared.stats.read_faults);
        return;
    }
    let _ = stream.set_write_timeout(Some(ctx.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        inc(&ctx.shared.stats.read_faults);
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut first = true;
    loop {
        let line = match read_request(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return, // EOF: the client hung up.
            Err(ReadFault::TooLong) => {
                inc(&ctx.shared.stats.bad_requests);
                let msg = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                let _ = send(ctx, &mut writer, &Response::err(ErrCode::BadRequest, &msg));
                return;
            }
            Err(fault) => {
                inc(&ctx.shared.stats.read_faults);
                let msg = match fault {
                    ReadFault::Injected(msg) => msg,
                    ReadFault::Timeout => "read deadline expired".to_string(),
                    ReadFault::TooLong | ReadFault::Other => return,
                };
                let _ = send(ctx, &mut writer, &Response::err(ErrCode::Io, &msg));
                return;
            }
        };
        // First request: the clock started at *enqueue* (queue wait is
        // charged). Later requests on the same connection: at read.
        let origin = if first { enqueued } else { Instant::now() };
        first = false;
        if line.is_empty() {
            continue;
        }
        if ctx.shared.shutdown.load(Ordering::Acquire) {
            inc(&ctx.shared.stats.late_rejects);
            let _ =
                send(ctx, &mut writer, &Response::err(ErrCode::ShuttingDown, "server is draining"));
            return;
        }
        // Request-level panic isolation: a poisoned query degrades to a
        // typed `panic` response; the connection stays up.
        let (resp, close) = match catch_unwind(AssertUnwindSafe(|| dispatch(ctx, &line, origin))) {
            Ok(pair) => pair,
            Err(payload) => {
                inc(&ctx.shared.stats.handler_panics);
                (Response::err(ErrCode::Panic, &payload_message(payload.as_ref())), false)
            }
        };
        if !send(ctx, &mut writer, &resp) || close {
            return;
        }
    }
}

/// Parses and executes one request line; returns the response and
/// whether the connection should close after it.
fn dispatch(ctx: &Ctx<'_>, line: &str, origin: Instant) -> (Response, bool) {
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(msg) => {
            inc(&ctx.shared.stats.bad_requests);
            return (Response::err(ErrCode::BadRequest, &msg), false);
        }
    };
    match req {
        Request::Ping => (Response::ok("pong"), false),
        Request::Stats => (stats_response(ctx), false),
        Request::Shutdown => {
            ctx.shared.shutdown.store(true, Ordering::Release);
            (Response::ok("shutting-down"), true)
        }
        Request::Reduce { group, bound, timeout_ms } => {
            let budget =
                timeout_ms.map(Duration::from_millis).unwrap_or(ctx.config.request_timeout);
            // Queue wait already consumed part (or all) of the budget: a
            // fully spent request is shed here, before any handler runs.
            let Some(remaining) = remaining_budget(origin, budget, Instant::now()) else {
                inc(&ctx.shared.stats.shed_queue_wait);
                return (
                    Response::err(ErrCode::DeadlineExceeded, "request budget spent in queue"),
                    false,
                );
            };
            inc(&ctx.shared.stats.handled);
            // The deadline rides the root token, so drain-cancellation
            // and the per-request budget share one check path.
            let token = ctx.shared.root.with_deadline_in(remaining);
            match handle_reduce(ctx, &group, bound, &token) {
                Ok(resp) => {
                    inc(&ctx.shared.stats.ok);
                    (resp, false)
                }
                Err(err) => (error_response(&err), false),
            }
        }
    }
}

/// Resolves one `(group, bound)` query against the store under the
/// request's cancel token.
fn handle_reduce(
    ctx: &Ctx<'_>,
    group: &str,
    bound: QueryBound,
    cancel: &CancelToken,
) -> Result<Response, ServeError> {
    fail_point!("serve.handler", |msg: String| Err(ServeError::Injected(msg)));
    let entry = ctx.store.get(group).ok_or_else(|| ServeError::UnknownGroup(group.to_string()))?;
    let ans = entry.answer(bound, cancel)?;
    Ok(Response::ok(&format!(
        "group={} n={} size={} sse={} source={}",
        entry.name(),
        entry.len(),
        ans.size,
        ans.sse,
        if ans.cached { "curve" } else { "direct" },
    )))
}

fn stats_response(ctx: &Ctx<'_>) -> Response {
    let mut line = format!(
        "stats groups={} n={} curves_cached={}",
        ctx.store.groups(),
        ctx.store.total_n(),
        ctx.store.curves_cached(),
    );
    ctx.shared.stats.snapshot().write_pairs(&mut line);
    Response::ok(&line)
}

/// Maps a typed handler failure onto its wire error class.
fn error_response(err: &ServeError) -> Response {
    match err {
        ServeError::UnknownGroup(name) => {
            Response::err(ErrCode::UnknownGroup, &format!("no group named `{name}`"))
        }
        ServeError::Core(CoreError::Cancelled { .. }) => {
            Response::err(ErrCode::Cancelled, "server cancelled the request")
        }
        ServeError::Core(CoreError::DeadlineExceeded { .. }) => {
            Response::err(ErrCode::DeadlineExceeded, "request budget expired during computation")
        }
        ServeError::Core(CoreError::SizeBelowMinimum { requested, cmin }) => Response::err(
            ErrCode::BadRequest,
            &format!("size bound {requested} is below the group's minimum {cmin}"),
        ),
        ServeError::Injected(msg) => Response::err(ErrCode::Internal, msg),
        other => Response::err(ErrCode::Internal, &other.to_string()),
    }
}

/// Read faults a connection can hit (beyond clean EOF).
enum ReadFault {
    /// Injected through the `serve.read` seam (only constructed when the
    /// `failpoints` feature compiles the seam in).
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    Injected(String),
    /// The per-connection read deadline expired.
    Timeout,
    /// The request line outgrew [`MAX_REQUEST_LINE`].
    TooLong,
    /// Any other socket error, or a line within the cap that is not
    /// UTF-8; the connection is closed unanswered.
    Other,
}

/// Reads one request line of at most [`MAX_REQUEST_LINE`] bytes; `None`
/// at EOF. A client that sends more without a newline gets
/// [`ReadFault::TooLong`] once the cap is read, so one connection cannot
/// grow the line buffer without bound. The line is decoded only after
/// the cap is checked, since the cap may fall inside a UTF-8 character.
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Option<String>, ReadFault> {
    fail_point!("serve.read", |msg: String| Err(ReadFault::Injected(msg)));
    let mut line = Vec::new();
    match reader.by_ref().take(MAX_REQUEST_LINE as u64).read_until(b'\n', &mut line) {
        Ok(0) => Ok(None),
        Ok(len) if len == MAX_REQUEST_LINE && line.last() != Some(&b'\n') => {
            Err(ReadFault::TooLong)
        }
        Ok(_) => match String::from_utf8(line) {
            Ok(line) => Ok(Some(line.trim().to_string())),
            Err(_) => Err(ReadFault::Other),
        },
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Err(ReadFault::Timeout)
        }
        Err(_) => Err(ReadFault::Other),
    }
}

/// Writes one response line, counting write faults.
fn send(ctx: &Ctx<'_>, stream: &mut TcpStream, resp: &Response) -> bool {
    match write_response(stream, resp) {
        Ok(()) => true,
        Err(_) => {
            inc(&ctx.shared.stats.write_faults);
            false
        }
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> Result<(), String> {
    fail_point!("serve.write", |msg: String| Err(msg));
    let mut buf = String::with_capacity(resp.line().len() + 1);
    buf.push_str(resp.line());
    buf.push('\n');
    stream.write_all(buf.as_bytes()).map_err(|e| e.to_string())?;
    stream.flush().map_err(|e| e.to_string())
}

/// Drain phase: keep answering late arrivals with `shutting-down`, wait
/// for the queue and in-flight work to empty, and past the drain
/// deadline cancel everything still running.
fn drain(ctx: &Ctx<'_>, listener: &TcpListener, queue: &BoundedQueue<TcpStream>) {
    let deadline = Instant::now() + ctx.config.drain_timeout;
    loop {
        if let Ok((stream, _)) = listener.accept() {
            admit_guarded(ctx, queue, stream, true);
        }
        if queue.is_empty() && ctx.shared.in_flight.load(Ordering::Acquire) == 0 {
            return;
        }
        if Instant::now() >= deadline {
            // Past the drain deadline: in-flight reductions abort with
            // typed `cancelled` responses, queued connections are shed.
            ctx.shared.root.cancel();
            for (stream, _) in queue.drain_pending() {
                inc(&ctx.shared.stats.late_rejects);
                let mut stream = stream;
                let _ = write_response(
                    &mut stream,
                    &Response::err(ErrCode::ShuttingDown, "drain deadline passed"),
                );
            }
            return;
        }
        std::thread::sleep(POLL);
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: queue wait is charged against the budget —
    /// the uniform semantics pinned here are "the clock starts at
    /// enqueue", unlike `Comparator::method_timeout`, whose clock starts
    /// inside the worker.
    #[test]
    fn queue_wait_is_charged_against_the_budget() {
        let origin = Instant::now();
        let now = origin + Duration::from_millis(30);
        assert_eq!(
            remaining_budget(origin, Duration::from_millis(100), now),
            Some(Duration::from_millis(70))
        );
        // Exactly spent and over-spent both shed.
        assert_eq!(remaining_budget(origin, Duration::from_millis(30), now), None);
        assert_eq!(remaining_budget(origin, Duration::from_millis(10), now), None);
        // A zero budget can never reach a handler.
        assert_eq!(remaining_budget(origin, Duration::ZERO, now), None);
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServerConfig::default();
        assert!(cfg.queue_depth > 0);
        assert!(cfg.curve_depth > 0);
        assert_eq!(cfg.threads, 0, "0 defers to the PTA_THREADS default");
    }
}
