//! Temporal aggregation operators.
//!
//! This crate implements the aggregation substrate the PTA paper builds on:
//!
//! * **ITA** — instant temporal aggregation (Def. 1): for every time
//!   instant, aggregate over all tuples of the same group holding at that
//!   instant, then coalesce constant runs. Result size is up to `2n − 1`.
//!   Available eagerly ([`fn@ita`]) and as a streaming iterator
//!   ([`StreamingIta`]) so the greedy PTA algorithms can merge while ITA
//!   tuples are still being produced (§6.2).
//! * **STA** — span temporal aggregation: the caller fixes the reporting
//!   intervals (e.g. trimesters) and each result tuple aggregates over the
//!   argument tuples overlapping its span.
//! * **MWTA** — moving-window temporal aggregation: ITA over a window
//!   around each instant, implemented by the standard reduction of window
//!   queries to ITA over stretched tuples.
//!
//! ITA, streamed ITA and STA read one partition of the argument relation
//! by group: flat buffers of argument values and timestamps, ordered by one
//! stable sort of the row indices by their grouping values. Aggregate
//! functions `count`, `sum`, `avg`, `min`, `max` are evaluated
//! incrementally during one chronological sweep per group.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod error;
pub mod ita;
pub mod multiset;
pub mod mwta;
mod partition;
pub mod sta;
pub mod stream;

pub use aggregate::{AggregateFunction, AggregateSpec};
pub use error::ItaError;
pub use ita::{ita, ItaQuerySpec};
pub use mwta::{mwta, Window};
pub use sta::{sta, SpanSpec};
pub use stream::{ItaRow, StreamingIta};

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ItaError>;
