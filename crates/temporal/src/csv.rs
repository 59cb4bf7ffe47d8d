//! Plain-text (CSV) import/export of temporal relations.
//!
//! The on-disk format mirrors the paper's tables: one row per tuple, the
//! non-temporal attributes first, then the inclusive interval bounds
//! `t_start`, `t_end`. A schema string such as `"Empl:str,Proj:str,
//! Sal:int"` declares the attribute names and domains, so files round-trip
//! without external dependencies.

use std::io::Write;

use pta_failpoints::fail_point;
use pta_pool::Pool;

use crate::error::{CommonError, TemporalError};
use crate::relation::TemporalRelation;
use crate::schema::{Attribute, Schema};
use crate::sequential::SequentialRelation;
use crate::value::{DataType, Value};
use crate::TimeInterval;

/// How the CSV reader treats malformed data rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RowPolicy {
    /// Abort the read on the first malformed row (the default).
    #[default]
    Strict,
    /// Skip malformed rows, keep the well-formed ones, and report the
    /// skips in an [`IngestReport`]. A failed chunk (an injected
    /// `csv.chunk` fault) still aborts.
    SkipAndReport,
}

/// What a [`RowPolicy::SkipAndReport`] read skipped. The report is the
/// same whatever the thread budget and chunk placement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Data rows that parsed and made it into the relation.
    pub rows_kept: usize,
    /// Malformed data rows that were skipped.
    pub rows_skipped: usize,
    /// Zero-based file line numbers of every skipped row, in file order.
    pub skipped_lines: Vec<usize>,
    /// Rendered errors of the first [`IngestReport::MAX_ERRORS`] skipped
    /// rows, in file order — a diagnosis sample; the line list above is
    /// always complete.
    pub first_errors: Vec<String>,
}

impl IngestReport {
    /// Cap on retained error messages (`first_errors`).
    pub const MAX_ERRORS: usize = 16;

    /// Whether any row was skipped.
    pub fn has_skips(&self) -> bool {
        self.rows_skipped > 0
    }

    fn record(&mut self, line: usize, err: &TemporalError) {
        self.rows_skipped += 1;
        self.skipped_lines.push(line);
        if self.first_errors.len() < Self::MAX_ERRORS {
            self.first_errors.push(format!("line {line}: {err}"));
        }
    }

    /// Folds a chunk's report into this one. Chunks drain in file order,
    /// so the first [`IngestReport::MAX_ERRORS`] messages overall are
    /// exactly a one-chunk read's: a chunk's capped message list covers
    /// its earliest skips, and once this report's cap is reached no later
    /// chunk's messages are needed.
    fn absorb(&mut self, chunk: IngestReport) {
        self.rows_kept += chunk.rows_kept;
        self.rows_skipped += chunk.rows_skipped;
        let room = Self::MAX_ERRORS.saturating_sub(self.first_errors.len());
        self.first_errors.extend(chunk.first_errors.into_iter().take(room));
        self.skipped_lines.extend(chunk.skipped_lines);
    }
}

/// Parses a schema string: comma-separated `name:type` pairs with types
/// `int`, `float`, `str`, `bool`.
pub fn parse_schema(spec: &str) -> Result<Schema, TemporalError> {
    let mut attrs = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (name, ty) = part.split_once(':').ok_or_else(|| {
            TemporalError::from(CommonError::invalid_parameter(
                "schema",
                format!("schema entry {part:?} is not name:type"),
            ))
        })?;
        let dtype = match ty.trim().to_ascii_lowercase().as_str() {
            "int" | "i64" => DataType::Int,
            "float" | "f64" => DataType::Float,
            "str" | "string" => DataType::Str,
            "bool" => DataType::Bool,
            other => {
                return Err(CommonError::invalid_parameter(
                    "schema",
                    format!("unknown type {other:?} (use int|float|str|bool)"),
                )
                .into())
            }
        };
        attrs.push(Attribute::new(name.trim(), dtype));
    }
    Schema::new(attrs)
}

fn parse_value(raw: &str, dtype: DataType, line: usize) -> Result<Value, TemporalError> {
    let raw = raw.trim();
    let err = |what: &str| TemporalError::NonSequential {
        index: line,
        reason: format!("cannot parse {raw:?} as {what}"),
    };
    match dtype {
        DataType::Int => raw.parse::<i64>().map(Value::Int).map_err(|_| err("int")),
        DataType::Float => raw.parse::<f64>().map_err(|_| err("float")).and_then(Value::float),
        DataType::Str => Ok(Value::str(raw)),
        DataType::Bool => match raw {
            "true" | "1" => Ok(Value::Bool(true)),
            "false" | "0" => Ok(Value::Bool(false)),
            _ => Err(err("bool")),
        },
    }
}

/// Parses one non-skipped data row (already trimmed) into its attribute
/// values and interval.
fn parse_row(
    schema: &Schema,
    trimmed: &str,
    row_index: usize,
) -> Result<(Vec<Value>, TimeInterval), TemporalError> {
    let arity = schema.arity();
    // Check the column count before parsing any field, so a row with
    // the wrong shape reports ArityMismatch rather than a misleading
    // parse error on whichever value landed in the wrong column. The
    // extra `count()` pass allocates nothing.
    let got = trimmed.split(',').count();
    if got != arity + 2 {
        return Err(TemporalError::ArityMismatch { got, expected: arity + 2 });
    }
    let mut fields = trimmed.split(',');
    let mut next_field =
        || fields.next().ok_or(TemporalError::ArityMismatch { got, expected: arity + 2 });
    let mut values = Vec::with_capacity(arity);
    for i in 0..arity {
        let raw = next_field()?;
        values.push(parse_value(raw, schema.attribute(i).data_type(), row_index)?);
    }
    let parse_t = |raw: &str| -> Result<i64, TemporalError> {
        raw.trim().parse::<i64>().map_err(|_| TemporalError::NonSequential {
            index: row_index,
            reason: format!("cannot parse chronon {raw:?}"),
        })
    };
    let start = parse_t(next_field()?)?;
    let end = parse_t(next_field()?)?;
    Ok((values, TimeInterval::new(start, end)?))
}

/// Inputs below this size parse as one chunk even under a multi-thread
/// budget: chunk setup costs more than the parse itself.
const PAR_MIN_BYTES: usize = 1 << 16;

/// Chunks handed out per worker. More than one so the pool's dynamic
/// scheduling can rebalance chunks whose rows parse unevenly (comment
/// blocks, string-heavy rows).
const PAR_CHUNKS_PER_WORKER: usize = 4;

/// Reads a temporal relation from CSV text under `policy`, returning the
/// [`IngestReport`] alongside. The first line must be a header; every
/// following line carries the attribute values in schema order plus
/// `t_start` and `t_end`. Empty lines and `#` comments are skipped.
///
/// - [`RowPolicy::Strict`]: the first malformed row in file order is a
///   typed error.
/// - [`RowPolicy::SkipAndReport`]: malformed rows are skipped and listed
///   in the report.
///
/// Under a thread budget above one (`0` = the `PTA_THREADS` default),
/// inputs of at least 64 KiB parse in newline-aligned chunks on the pool;
/// smaller inputs and single-thread budgets parse as one chunk. The rows,
/// the error and the report are the same either way.
pub fn read_relation_str(
    schema: Schema,
    text: &str,
    threads: usize,
    policy: RowPolicy,
) -> Result<(TemporalRelation, IngestReport), TemporalError> {
    let pool = Pool::new(threads);
    let chunks = if pool.threads() > 1 && text.len() >= PAR_MIN_BYTES {
        pool.threads() * PAR_CHUNKS_PER_WORKER
    } else {
        1
    };
    read_chunked(schema, text, &pool, chunks, policy)
}

/// Newline-aligned chunk extents: `(start, end, first_line)` byte ranges
/// that tile `text` exactly, each ending just after a `'\n'` (or at the
/// end of input), with `first_line` the number of lines before the chunk.
/// Records are never split: a chunk boundary that would land mid-record
/// slides forward to the next newline. Searching bytes for `b'\n'` is
/// UTF-8-safe — the newline byte never occurs inside a multi-byte
/// sequence — so every extent is a valid `str` slice boundary.
fn chunk_bounds(text: &str, chunks: usize) -> Vec<(usize, usize, usize)> {
    let bytes = text.as_bytes();
    let n = bytes.len();
    let chunks = chunks.max(1);
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    let mut first_line = 0usize;
    for c in 0..chunks {
        if start >= n {
            break;
        }
        // Ideal split point, then slide to the newline at or after it
        // (`target - 1` so a split landing exactly on a '\n' stays put).
        let target = (n * (c + 1) / chunks).max(start + 1);
        let end = if target >= n {
            n
        } else {
            match bytes[target - 1..].iter().position(|&b| b == b'\n') {
                Some(off) => target + off,
                None => n,
            }
        };
        out.push((start, end, first_line));
        first_line += bytes[start..end].iter().filter(|&&b| b == b'\n').count();
        start = end;
    }
    out
}

/// Parses one chunk into a relation of its own and a report.
/// `first_line` keeps global line numbers (and thus the header skip and
/// error indices) the same as a one-chunk read's. Under
/// [`RowPolicy::Strict`] the chunk stops at its first bad row.
fn parse_chunk(
    schema: &Schema,
    chunk: &str,
    first_line: usize,
    policy: RowPolicy,
) -> Result<(TemporalRelation, IngestReport), TemporalError> {
    fail_point!("csv.chunk", |msg: String| Err(TemporalError::NonSequential {
        index: first_line,
        reason: msg,
    }));
    let mut rel = TemporalRelation::new(schema.clone());
    let mut report = IngestReport::default();
    for (i, line) in chunk.lines().enumerate() {
        let row_index = first_line + i;
        let trimmed = line.trim();
        // Line 0 is the header.
        if row_index == 0 || trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match parse_row(schema, trimmed, row_index).and_then(|(v, iv)| rel.push(v, iv)) {
            Ok(()) => {}
            Err(e) if policy == RowPolicy::Strict => return Err(e),
            Err(e) => report.record(row_index, &e),
        }
    }
    report.rows_kept = rel.len();
    Ok((rel, report))
}

/// Parses `chunks` newline-aligned chunks of `text` on `pool` and drains
/// them in file order. A strict chunk stops at its first bad row, so the
/// first error drained is the first bad row in the file, and
/// [`IngestReport::absorb`] keeps a lenient read's first-N error sample.
/// The tests force tiny chunks through here to exercise every boundary
/// placement.
fn read_chunked(
    schema: Schema,
    text: &str,
    pool: &Pool,
    chunks: usize,
    policy: RowPolicy,
) -> Result<(TemporalRelation, IngestReport), TemporalError> {
    let parsed = pool.map(chunk_bounds(text, chunks), |(start, end, first_line)| {
        parse_chunk(&schema, &text[start..end], first_line, policy)
    });
    let mut rel = TemporalRelation::new(schema);
    let mut report = IngestReport::default();
    for chunk in parsed {
        let (part, part_report) = chunk?;
        rel.append(part);
        report.absorb(part_report);
    }
    Ok((rel, report))
}

fn escape(v: &Value) -> String {
    let s = v.to_string();
    debug_assert!(!s.contains(','), "CSV fields must not contain commas");
    s
}

/// Writes a temporal relation as CSV (header + one row per tuple).
pub fn write_relation(relation: &TemporalRelation, mut writer: impl Write) -> std::io::Result<()> {
    let names: Vec<&str> = relation.schema().attributes().iter().map(Attribute::name).collect();
    writeln!(writer, "{},t_start,t_end", names.join(","))?;
    for t in relation.iter() {
        let vals: Vec<String> = t.values().iter().map(escape).collect();
        writeln!(writer, "{},{},{}", vals.join(","), t.interval().start(), t.interval().end())?;
    }
    Ok(())
}

/// Writes a sequential relation (an ITA/PTA result) as CSV: the grouping
/// key rendered per `group_names`, the aggregate values per `value_names`,
/// then the interval bounds.
pub fn write_sequential(
    seq: &SequentialRelation,
    group_names: &[&str],
    value_names: &[&str],
    mut writer: impl Write,
) -> std::io::Result<()> {
    let mut header: Vec<String> = group_names.iter().map(|s| s.to_string()).collect();
    header.extend(value_names.iter().map(|s| s.to_string()));
    writeln!(writer, "{},t_start,t_end", header.join(","))?;
    for i in 0..seq.len() {
        let key = seq
            .group_key(seq.group(i))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut fields: Vec<String> = key.values().iter().map(escape).collect();
        for d in 0..seq.dims() {
            fields.push(format!("{}", seq.value(i, d)));
        }
        writeln!(
            writer,
            "{},{},{}",
            fields.join(","),
            seq.interval(i).start(),
            seq.interval(i).end()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-chunk read every chunked read must match.
    fn one_chunk(
        schema: &Schema,
        text: &str,
        policy: RowPolicy,
    ) -> Result<(TemporalRelation, IngestReport), TemporalError> {
        read_chunked(schema.clone(), text, &Pool::new(1), 1, policy)
    }

    fn strict(schema: &Schema, text: &str) -> Result<TemporalRelation, TemporalError> {
        one_chunk(schema, text, RowPolicy::Strict).map(|(rel, _)| rel)
    }

    #[test]
    fn schema_parsing() {
        let s = parse_schema("Empl:str, Sal:int, Rate:float, Active:bool").unwrap();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.attribute(1).data_type(), DataType::Int);
        assert!(parse_schema("X").is_err());
        assert!(parse_schema("X:widget").is_err());
        assert!(parse_schema("X:int,X:int").is_err());
    }

    #[test]
    fn relation_roundtrip() {
        let schema = parse_schema("Empl:str,Proj:str,Sal:int").unwrap();
        let mut rel = TemporalRelation::new(schema.clone());
        rel.push(
            vec![Value::str("John"), Value::str("A"), Value::Int(800)],
            TimeInterval::new(1, 4).unwrap(),
        )
        .unwrap();
        rel.push(
            vec![Value::str("Ann"), Value::str("A"), Value::Int(400)],
            TimeInterval::new(3, 6).unwrap(),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_relation(&rel, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("Empl,Proj,Sal,t_start,t_end\n"));
        let (back, _) = read_relation_str(schema, &text, 1, RowPolicy::Strict).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let schema = parse_schema("V:int").unwrap();
        let text = "V,t_start,t_end\n# comment\n\n5,1,2\n";
        let rel = strict(&schema, text).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuples()[0].value(0), &Value::Int(5));
    }

    #[test]
    fn malformed_rows_are_rejected() {
        let schema = parse_schema("V:int").unwrap();
        for text in [
            "V,t_start,t_end\n5,1\n",   // missing field
            "V,t_start,t_end\nx,1,2\n", // bad int
            "V,t_start,t_end\n5,9,2\n", // inverted interval
            "V,t_start,t_end\n5,a,2\n", // bad chronon
        ] {
            assert!(strict(&schema, text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn wrong_column_counts_report_arity_not_parse_errors() {
        // A row with too many fields must say ArityMismatch even though
        // the misplaced field ("extra") would also fail to parse as a
        // chronon — the column count is the real problem.
        let schema = parse_schema("Empl:str,Proj:str,Sal:int").unwrap();
        for (text, got) in [
            ("Empl,Proj,Sal,t_start,t_end\ne1,p1,100,extra,0,5\n", 6),
            ("Empl,Proj,Sal,t_start,t_end\ne1,p1,100,0\n", 4),
        ] {
            let err = strict(&schema, text).unwrap_err();
            assert!(
                matches!(err, TemporalError::ArityMismatch { got: g, expected: 5 } if g == got),
                "{text:?}: {err}"
            );
        }
    }

    /// A synthetic corpus with comments, blank lines, and multi-type rows.
    fn corpus(rows: usize, trailing_newline: bool) -> String {
        let mut text = String::from("Empl,Dept,Sal,t_start,t_end\n# generated corpus\n");
        for i in 0..rows {
            if i % 97 == 0 {
                text.push_str("\n# section break\n");
            }
            let start = (i * 3) as i64;
            text.push_str(&format!("e{},d{},{},{},{}\n", i % 17, i % 5, 100 + i, start, start + 2));
        }
        if !trailing_newline {
            text.pop();
        }
        text
    }

    #[test]
    fn chunk_bounds_tile_text_at_newlines() {
        for text in [corpus(57, true), corpus(57, false), String::new(), "no newline at all".into()]
        {
            for chunks in [1, 2, 3, 7, 64] {
                let bounds = chunk_bounds(&text, chunks);
                let mut next = 0usize;
                let mut lines = 0usize;
                for &(start, end, first_line) in &bounds {
                    assert_eq!(start, next, "chunks must be contiguous");
                    assert!(end > start, "chunks must be non-empty");
                    assert_eq!(first_line, lines, "line numbers must accumulate");
                    if end < text.len() {
                        assert_eq!(text.as_bytes()[end - 1], b'\n', "split mid-record");
                    }
                    lines += text[start..end].matches('\n').count();
                    next = end;
                }
                assert_eq!(next, text.len(), "chunks must cover the input");
            }
        }
    }

    /// The chunked parse is row-identical to a one-chunk read across
    /// trailing-newline, blank-line, and comment placements, for chunk
    /// counts from one to far more than the worker count — including
    /// counts that force boundaries onto comments and blank lines.
    #[test]
    fn chunked_parse_matches_sequential() {
        let schema = parse_schema("Empl:str,Dept:str,Sal:int").unwrap();
        for trailing in [true, false] {
            let text = corpus(211, trailing);
            let seq = one_chunk(&schema, &text, RowPolicy::Strict).unwrap();
            for (threads, chunks) in [(1, 1), (2, 2), (4, 3), (4, 7), (4, 64), (4, 1000)] {
                let par = read_chunked(
                    schema.clone(),
                    &text,
                    &Pool::new(threads),
                    chunks,
                    RowPolicy::Strict,
                )
                .unwrap();
                assert_eq!(par, seq, "threads {threads}, chunks {chunks}, trailing {trailing}");
            }
        }
    }

    /// The public reader agrees with a one-chunk read at every thread
    /// budget (the corpus here is below `PAR_MIN_BYTES`, so this pins the
    /// small-input path; the forced-chunk test above covers the fan-out).
    #[test]
    fn parallel_reader_matches_sequential() {
        let schema = parse_schema("Empl:str,Dept:str,Sal:int").unwrap();
        let text = corpus(150, true);
        let seq = one_chunk(&schema, &text, RowPolicy::Strict).unwrap();
        for threads in [0, 1, 2, 4] {
            let read = read_relation_str(schema.clone(), &text, threads, RowPolicy::Strict);
            assert_eq!(read.unwrap(), seq, "threads {threads}");
        }
    }

    /// Error reporting is in file order: the first bad row in the file
    /// wins even when a later chunk also contains a bad row, and the
    /// reported error is identical to a one-chunk read's.
    #[test]
    fn chunked_errors_match_sequential_in_file_order() {
        let schema = parse_schema("Empl:str,Dept:str,Sal:int").unwrap();
        let mut text = corpus(120, true);
        let lines: Vec<&str> = text.lines().collect();
        let bad_early = lines.len() / 3;
        let bad_late = 2 * lines.len() / 3;
        let mut mutated: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        mutated[bad_early] = "e1,d1,not-a-number,5,9".into();
        mutated[bad_late] = "e1,d1,7,5".into();
        text = mutated.join("\n");
        text.push('\n');
        let seq_err = strict(&schema, &text).unwrap_err();
        for chunks in [2, 5, 64] {
            let par_err =
                read_chunked(schema.clone(), &text, &Pool::new(4), chunks, RowPolicy::Strict)
                    .unwrap_err();
            assert_eq!(par_err.to_string(), seq_err.to_string(), "chunks {chunks}");
        }
        assert!(seq_err.to_string().contains("not-a-number"), "{seq_err}");
    }

    /// Lenient mode keeps exactly the well-formed rows and reports the
    /// malformed ones by line, with rendered messages for the first few.
    #[test]
    fn lenient_reader_skips_and_reports() {
        let schema = parse_schema("Empl:str,Dept:str,Sal:int").unwrap();
        let text = corpus(80, true);
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let mut mutated = lines.clone();
        // Three different failure shapes on known lines.
        let bad = [10usize, 40, 71];
        mutated[bad[0]] = "e1,d1,not-a-number,5,9".into();
        mutated[bad[1]] = "e1,d1,7,5".into(); // missing column
        mutated[bad[2]] = "e1,d1,7,9,2".into(); // inverted interval
        let mutated_text = mutated.join("\n") + "\n";
        assert!(strict(&schema, &mutated_text).is_err(), "strict must fail on the bad rows");
        let (rel, report) = one_chunk(&schema, &mutated_text, RowPolicy::SkipAndReport).unwrap();
        assert_eq!(report.rows_skipped, 3);
        assert_eq!(report.skipped_lines, bad.to_vec());
        assert_eq!(report.first_errors.len(), 3);
        assert!(report.first_errors[0].starts_with("line 10:"), "{:?}", report.first_errors);
        assert!(report.has_skips());
        // The survivors are exactly the strict parse of the clean text.
        let clean: Vec<String> = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| !bad.contains(i))
            .map(|(_, l)| l.clone())
            .collect();
        let clean_text = clean.join("\n") + "\n";
        let clean_rel = strict(&schema, &clean_text).unwrap();
        assert_eq!(rel, clean_rel);
        assert_eq!(report.rows_kept, rel.len());
    }

    /// The error-message sample caps at [`IngestReport::MAX_ERRORS`] while
    /// the skipped-line list stays complete.
    #[test]
    fn lenient_error_sample_is_capped() {
        let schema = parse_schema("V:int").unwrap();
        let mut text = String::from("V,t_start,t_end\n");
        for _ in 0..(IngestReport::MAX_ERRORS + 9) {
            text.push_str("oops,1,2\n");
        }
        let (rel, report) = one_chunk(&schema, &text, RowPolicy::SkipAndReport).unwrap();
        assert!(rel.is_empty());
        assert_eq!(report.rows_skipped, IngestReport::MAX_ERRORS + 9);
        assert_eq!(report.skipped_lines.len(), IngestReport::MAX_ERRORS + 9);
        assert_eq!(report.first_errors.len(), IngestReport::MAX_ERRORS);
    }

    /// One-chunk and chunked lenient reads are identical — surviving
    /// rows *and* report — with malformed rows forced onto chunk
    /// boundaries by sweeping the chunk count.
    #[test]
    fn lenient_parity_sequential_vs_chunked() {
        let schema = parse_schema("Empl:str,Dept:str,Sal:int").unwrap();
        for trailing in [true, false] {
            let text = corpus(211, trailing);
            let lines: Vec<String> = text.lines().map(str::to_string).collect();
            let mut mutated = lines.clone();
            // Malformed rows spread across the file, including first/last
            // data rows so some land exactly on chunk edges.
            let step = lines.len() / 9;
            for j in 1..9 {
                mutated[j * step] = format!("bad-row-{j}");
            }
            let mut mtext = mutated.join("\n");
            if trailing {
                mtext.push('\n');
            }
            let (seq_rel, seq_report) =
                one_chunk(&schema, &mtext, RowPolicy::SkipAndReport).unwrap();
            assert!(seq_report.has_skips());
            for (threads, chunks) in [(2, 2), (4, 3), (4, 7), (4, 64), (4, 1000)] {
                let (par_rel, par_report) = read_chunked(
                    schema.clone(),
                    &mtext,
                    &Pool::new(threads),
                    chunks,
                    RowPolicy::SkipAndReport,
                )
                .unwrap();
                assert_eq!(par_rel, seq_rel, "threads {threads}, chunks {chunks}");
                assert_eq!(par_report, seq_report, "threads {threads}, chunks {chunks}");
            }
            // The public reader agrees too.
            let (pub_rel, pub_report) =
                read_relation_str(schema.clone(), &mtext, 4, RowPolicy::SkipAndReport).unwrap();
            assert_eq!(pub_rel, seq_rel);
            assert_eq!(pub_report, seq_report);
        }
    }

    /// On clean input the public reader returns the one-chunk read's rows
    /// and a skip-free report under either policy and any thread budget.
    #[test]
    fn strict_policy_wrappers_match_plain_readers() {
        let schema = parse_schema("Empl:str,Dept:str,Sal:int").unwrap();
        let text = corpus(150, true);
        let plain = strict(&schema, &text).unwrap();
        for policy in [RowPolicy::Strict, RowPolicy::SkipAndReport] {
            for threads in [1, 4] {
                let (rel, report) =
                    read_relation_str(schema.clone(), &text, threads, policy).unwrap();
                assert_eq!(rel, plain, "{policy:?}, threads {threads}");
                assert_eq!(report.rows_kept, plain.len());
                assert!(!report.has_skips());
            }
        }
        // Strict still aborts on a bad row.
        let bad = "Empl,Dept,Sal,t_start,t_end\ne1,d1,x,1,2\n";
        assert!(read_relation_str(schema, bad, 1, RowPolicy::Strict).is_err());
    }

    #[test]
    fn sequential_export_matches_layout() {
        use crate::{GroupKey, SequentialBuilder};
        let mut b = SequentialBuilder::new(1);
        b.push(GroupKey::new(vec![Value::str("A")]), TimeInterval::new(1, 3).unwrap(), &[733.5])
            .unwrap();
        let seq = b.build();
        let mut buf = Vec::new();
        write_sequential(&seq, &["Proj"], &["AvgSal"], &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "Proj,AvgSal,t_start,t_end\nA,733.5,1,3\n");
    }
}
