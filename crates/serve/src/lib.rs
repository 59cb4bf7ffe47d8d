//! `pta-serve` — a crash-tolerant TCP service answering `(group, bound)`
//! parsimonious-aggregation queries from cached error curves.
//!
//! The server runs ITA once at startup, splits the result into per-group
//! series, and lazily caches each group's **error curve**
//! (`optimal_error_curve`: one DP pass yields the optimal SSE for every
//! output size), so repeated queries at different granularities — the
//! service tier's expected workload — are answered in O(1) after the
//! first fill.
//!
//! Robustness is the design center, not an afterthought:
//!
//! - **Admission control** — a bounded queue ([`queue::BoundedQueue`])
//!   with typed `overloaded` shedding; memory never grows with load.
//! - **Deadline propagation** — each request carries a budget whose
//!   clock starts at *enqueue*; queue wait is charged, and the remainder
//!   rides a [`pta_core::CancelToken`] into the DP (`DpOptions::cancel`),
//!   so expired work aborts with typed `deadline-exceeded`.
//! - **Panic isolation** — per-request and per-connection
//!   `catch_unwind` guards: a poisoned query degrades to an `err panic`
//!   response while sibling connections proceed.
//! - **Graceful shutdown** — the accept loop stops, in-flight work
//!   drains under a drain deadline, late arrivals get `shutting-down`.
//! - **Fault-injected seams** — `fail_point!` sites `serve.accept`,
//!   `serve.read`, `serve.write`, `serve.handler`, `serve.cache`, all
//!   registered in `FAILPOINT_SITES` and exercised by
//!   `tests/fault_injection.rs`.
//!
//! See [`protocol`] for the wire format and [`server::ServerConfig`] for
//! the knobs (`pta-cli serve` exposes each as a flag).

pub mod cache;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

use std::fmt;

pub use cache::{Answer, GroupEntry, GroupStore};
pub use client::Client;
pub use protocol::{ErrCode, QueryBound, Request, Response};
pub use queue::BoundedQueue;
pub use server::{Server, ServerConfig, ServerHandle, StatsSnapshot, MAX_REQUEST_LINE};

/// Typed failures of the serve layer.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration or startup-time invariant breach.
    Config(String),
    /// Socket / listener I/O failure.
    Io(std::io::Error),
    /// ITA failed over the startup relation.
    Ita(pta_ita::ItaError),
    /// A DP / curve computation failed (includes `Cancelled` and
    /// `DeadlineExceeded` from the request token).
    Core(pta_core::CoreError),
    /// A data-model failure from the temporal layer.
    Temporal(pta_temporal::TemporalError),
    /// The requested group does not exist in the store.
    UnknownGroup(String),
    /// A fault injected through a `serve.*` failpoint seam.
    Injected(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "configuration error: {msg}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Ita(e) => write!(f, "ita error: {e}"),
            ServeError::Core(e) => write!(f, "core error: {e}"),
            ServeError::Temporal(e) => write!(f, "temporal error: {e}"),
            ServeError::UnknownGroup(name) => write!(f, "unknown group `{name}`"),
            ServeError::Injected(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Ita(e) => Some(e),
            ServeError::Core(e) => Some(e),
            ServeError::Temporal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<pta_ita::ItaError> for ServeError {
    fn from(e: pta_ita::ItaError) -> Self {
        ServeError::Ita(e)
    }
}

impl From<pta_core::CoreError> for ServeError {
    fn from(e: pta_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<pta_temporal::TemporalError> for ServeError {
    fn from(e: pta_temporal::TemporalError) -> Self {
        ServeError::Temporal(e)
    }
}
