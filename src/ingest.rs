//! CSV ingest through the facade, with the lenient-policy report.
//!
//! PR 7 added [`RowPolicy::SkipAndReport`] to the temporal layer's CSV
//! reader; this module closes the loop by surfacing the
//! [`IngestReport`] at the facade: callers (the CLI, the server's
//! startup path) choose a policy and get back both the relation and the
//! report, instead of reaching into `pta_temporal::csv` directly.

pub use pta_temporal::{IngestReport, RowPolicy};

use pta_temporal::{Schema, TemporalRelation};

use crate::Error;

/// Parses a CSV document into a [`TemporalRelation`] under `policy`,
/// returning the [`IngestReport`] alongside.
///
/// - [`RowPolicy::Strict`]: the first malformed row is a typed error;
///   the report then records zero skips.
/// - [`RowPolicy::SkipAndReport`]: malformed rows are skipped and
///   counted in the report, with the rendered errors of the first
///   [`IngestReport::MAX_ERRORS`] as a sample.
///
/// `threads = 0` uses the `PTA_THREADS` process default; large inputs
/// parse in newline-aligned chunks across the pool.
pub fn read_csv(
    schema: Schema,
    text: &str,
    threads: usize,
    policy: RowPolicy,
) -> crate::Result<(TemporalRelation, IngestReport)> {
    pta_temporal::csv::read_relation_str(schema, text, threads, policy).map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_temporal::DataType;

    fn schema() -> Schema {
        Schema::of(&[("G", DataType::Str), ("V", DataType::Int)]).expect("valid schema")
    }

    const GOOD: &str = "G,V,t_start,t_end\nA,1,0,5\nA,2,5,9\n";
    const MIXED: &str = "G,V,t_start,t_end\nA,1,0,5\nA,banana,5,7\nA,2,7,9\n";

    #[test]
    fn strict_round_trip_reports_zero_skips() {
        let (rel, report) = read_csv(schema(), GOOD, 1, RowPolicy::Strict).expect("parses");
        assert_eq!(rel.len(), 2);
        assert_eq!(report.rows_kept, 2);
        assert!(!report.has_skips());
    }

    #[test]
    fn strict_surfaces_the_first_bad_row_as_a_typed_error() {
        assert!(read_csv(schema(), MIXED, 1, RowPolicy::Strict).is_err());
    }

    #[test]
    fn lenient_skips_and_itemizes() {
        let (rel, report) = read_csv(schema(), MIXED, 1, RowPolicy::SkipAndReport).expect("parses");
        assert_eq!(rel.len(), 2);
        assert_eq!(report.rows_kept, 2);
        assert_eq!(report.rows_skipped, 1);
        assert_eq!(report.first_errors.len(), 1);
        assert!(report.first_errors[0].starts_with("line 2:"), "{:?}", report.first_errors);
    }
}
