//! Temporal data model substrate for parsimonious temporal aggregation.
//!
//! This crate provides the relational building blocks the PTA paper
//! (Gordevičius, Gamper, Böhlen) assumes as given:
//!
//! * a discrete time domain of [`Chronon`]s and inclusive [`TimeInterval`]s,
//! * typed attribute [`Value`]s, [`Schema`]s and [`Tuple`]s,
//! * [`TemporalRelation`]: a bag of tuples with validity intervals,
//! * the [`fn@coalesce`] operator that merges value-equivalent tuples over
//!   consecutive time points (Böhlen, Snodgrass, Soo),
//! * [`SequentialRelation`]: the compact columnar form of an ITA result in
//!   which, per aggregation group, timestamps never overlap (§3 of the
//!   paper). This is the input type of every PTA algorithm.
//!
//! The crate is dependency-free and `forbid(unsafe_code)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chronon;
pub mod coalesce;
pub mod csv;
pub mod error;
pub mod group;
pub mod interval;
pub mod relation;
pub mod schema;
pub mod sequential;
pub mod tuple;
pub mod value;

pub use chronon::Chronon;
pub use coalesce::coalesce;
pub use csv::{IngestReport, RowPolicy};
pub use error::{CommonError, TemporalError};
pub use group::{GroupId, GroupInterner, GroupKey};
pub use interval::TimeInterval;
pub use relation::TemporalRelation;
pub use schema::{Attribute, Schema};
pub use sequential::{SeqEntry, SequentialBuilder, SequentialRelation};
pub use tuple::Tuple;
pub use value::{DataType, Value};

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, TemporalError>;
