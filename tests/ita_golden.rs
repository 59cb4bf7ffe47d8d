//! Golden pin of the aggregation operators: every ITA, streamed ITA, STA
//! and MWTA tuple of a fixed grid of queries, read against
//! `tests/golden/ita.txt`.
//!
//! Each tuple is recorded with its group id, its interval and the IEEE-754
//! bits of its values, and each result with its key table, so a rewrite of
//! the partition or the sweep that moves a group, splits a coalesced run
//! or changes the order in which a sum accumulates shows up here. The
//! inputs are seeded relations grouped by nothing, by one `Int` column,
//! by `Str` + `Int` and by `Float` + `Bool`, plus a hand-written relation
//! with nested, overlapping, touching and gapped intervals, duplicate rows,
//! start/end ties at one chronon and equal values that coalesce.

use std::fmt::Write as _;

use pta_ita::{
    ita, mwta, sta, AggregateFunction, AggregateSpec, ItaQuerySpec, SpanSpec, StreamingIta, Window,
};
use pta_temporal::chronon::MAX_CHRONON;
use pta_temporal::{DataType, Schema, SequentialRelation, TemporalRelation, TimeInterval, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN: &str = include_str!("golden/ita.txt");

const GROUPINGS: [&[&str]; 4] = [&[], &["G"], &["S", "G"], &["F", "B"]];

fn iv(a: i64, b: i64) -> TimeInterval {
    TimeInterval::new(a, b).unwrap()
}

fn schema() -> Schema {
    Schema::of(&[
        ("G", DataType::Int),
        ("S", DataType::Str),
        ("F", DataType::Float),
        ("B", DataType::Bool),
        ("X", DataType::Int),
        ("Y", DataType::Float),
    ])
    .unwrap()
}

/// `n` seeded rows over `[0, 40)`: mostly short intervals, some long ones
/// that nest the short, a duplicate of the previous row one time in ten,
/// and argument values from small sets so that runs coalesce. `extremes`
/// puts `i64::MIN` and `i64::MAX` among the `Int` grouping values.
fn seeded(seed: u64, n: usize, extremes: bool) -> TemporalRelation {
    let ints: &[i64] = if extremes { &[i64::MIN, -3, 0, 7, i64::MAX] } else { &[-3, 0, 7, 12] };
    let strs = ["b", "a", "ab", "", "Z", "é"];
    let floats = [-1.5, 0.0, 2.25, 1e10, -1e-300];
    let xs = [100, 200, 300, -50];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = TemporalRelation::new(schema());
    let mut last: Option<(Vec<Value>, TimeInterval)> = None;
    for _ in 0..n {
        if let Some(row) = last.as_ref().filter(|_| rng.random_bool(0.1)) {
            let (values, interval) = row.clone();
            rel.push(values, interval).unwrap();
            continue;
        }
        let start = rng.random_range(0i64..40);
        let len = if rng.random_bool(0.15) {
            rng.random_range(8i64..20)
        } else {
            rng.random_range(1i64..6)
        };
        let values = vec![
            Value::Int(ints[rng.random_range(0..ints.len())]),
            Value::str(strs[rng.random_range(0..strs.len())]),
            Value::float(floats[rng.random_range(0..floats.len())]).unwrap(),
            Value::Bool(rng.random_bool(0.5)),
            Value::Int(xs[rng.random_range(0..xs.len())]),
            Value::float(rng.random_range(-40i64..40) as f64 * 0.1).unwrap(),
        ];
        let interval = iv(start, start + len - 1);
        rel.push(values.clone(), interval).unwrap();
        last = Some((values, interval));
    }
    rel
}

/// Hand-written interval shapes in two groups of `G`, all in one `S`, `F`
/// and `B` group.
fn shapes() -> TemporalRelation {
    let rows: [(i64, i64, i64, f64, i64, i64); 16] = [
        // Nested: [1, 10] holds [3, 4].
        (1, 100, 1, 0.5, 1, 10),
        (1, 200, 2, 0.25, 3, 4),
        // Overlapping.
        (1, 300, 3, 0.1, 12, 15),
        (1, 100, 4, 0.2, 14, 18),
        // Touching with equal values: coalesces.
        (1, 100, 5, 0.3, 20, 22),
        (1, 100, 5, 0.3, 23, 25),
        // Touching with different values.
        (1, 200, 6, 0.4, 26, 27),
        // Gapped.
        (1, 200, 6, 0.4, 30, 31),
        // Duplicate rows.
        (1, 300, 7, 0.7, 33, 35),
        (1, 300, 7, 0.7, 33, 35),
        // One row ends at the chronon where another starts, and a
        // one-chronon row sits on that tie.
        (1, 100, 8, 0.1, 40, 42),
        (1, 200, 9, 0.2, 42, 45),
        (1, 300, 10, 0.3, 42, 42),
        // The second group reaches the ends of the time domain.
        (2, -50, 11, 1.5, i64::MIN, i64::MIN + 2),
        (2, -50, 12, 2.5, MAX_CHRONON - 2, MAX_CHRONON),
        (2, 100, 13, 3.5, MAX_CHRONON - 1, MAX_CHRONON),
    ];
    TemporalRelation::from_rows(
        schema(),
        rows.iter().map(|&(g, x, _, y, a, b)| {
            (
                vec![
                    Value::Int(g),
                    Value::str("s"),
                    Value::float(0.5).unwrap(),
                    Value::Bool(true),
                    Value::Int(x),
                    Value::float(y).unwrap(),
                ],
                iv(a, b),
            )
        }),
    )
    .unwrap()
}

fn inputs() -> Vec<(&'static str, TemporalRelation)> {
    vec![
        ("seed1", seeded(1, 50, false)),
        ("seed2", seeded(2, 70, true)),
        ("shapes", shapes()),
        ("empty", TemporalRelation::new(schema())),
    ]
}

/// Aggregate lists from `p = 1` to `p = 5`, covering every function.
fn aggregate_lists() -> Vec<Vec<AggregateSpec>> {
    vec![
        vec![AggregateSpec::avg("X")],
        vec![AggregateSpec::min("Y"), AggregateSpec::max("X")],
        vec![AggregateSpec::sum("Y"), AggregateSpec::avg("Y"), AggregateSpec::count()],
        vec![
            AggregateSpec::count(),
            AggregateSpec::sum("X"),
            AggregateSpec::avg("Y"),
            AggregateSpec::min("X"),
            AggregateSpec::max("Y"),
        ],
    ]
}

fn agg_text(aggs: &[AggregateSpec]) -> String {
    let names: Vec<String> = aggs
        .iter()
        .map(|a| match a.function {
            AggregateFunction::Count => "count".to_string(),
            f => format!("{f}({})", a.attribute),
        })
        .collect();
    names.join(",")
}

fn bits(values: &[f64]) -> String {
    let hex: Vec<String> = values.iter().map(|v| format!("{:x}", v.to_bits())).collect();
    hex.join(",")
}

fn key_text(values: &[Value]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("({})", parts.join(", "))
}

/// A case's header line, then one line per key of the table and one per
/// tuple, or the error.
fn result_rows(
    rows: &mut Vec<String>,
    case: &str,
    result: Result<SequentialRelation, pta_ita::ItaError>,
) {
    rows.push(format!("@ {case}"));
    match result {
        Ok(seq) => {
            for (id, key) in seq.group_keys().iter().enumerate() {
                rows.push(format!("key {id} {}", key_text(key.values())));
            }
            for i in 0..seq.len() {
                let e = seq.entry(i);
                rows.push(format!("g{} {} {}", e.group, e.interval, bits(seq.values(i))));
            }
        }
        Err(e) => rows.push(format!("err: {e}")),
    }
}

/// Every tuple of the grid, one line each, in a fixed order.
fn actual_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for (name, rel) in inputs() {
        for grouping in GROUPINGS {
            let by = grouping.join("+");
            for aggs in aggregate_lists() {
                let spec = ItaQuerySpec::new(grouping, aggs.clone());
                let case = format!("{name} by[{by}] {}", agg_text(&aggs));
                result_rows(&mut rows, &format!("{case} ita"), ita(&rel, &spec));
            }
            let aggs = aggregate_lists().pop().unwrap();
            let spec = ItaQuerySpec::new(grouping, aggs.clone());
            let case = format!("{name} by[{by}] {}", agg_text(&aggs));
            rows.push(format!("@ {case} stream"));
            for row in StreamingIta::new(&rel, &spec).unwrap() {
                let key = key_text(row.key.values());
                rows.push(format!("{key} {} {}", row.interval, bits(&row.values)));
            }
            let spans = [
                SpanSpec::Fixed { origin: 0, width: 5 },
                SpanSpec::Fixed { origin: -3, width: 7 },
                SpanSpec::Explicit(vec![iv(2, 6), iv(10, 10), iv(15, 40)]),
                SpanSpec::Explicit(vec![iv(3, 3), iv(41, 43)]),
            ];
            // Extents that reach the ends of the time domain would
            // instantiate astronomically many fixed spans.
            let fixed_ok = rel.time_extent().is_none_or(|e| e.start() > -1000);
            for span in &spans {
                if matches!(span, SpanSpec::Fixed { .. }) && !fixed_ok {
                    continue;
                }
                result_rows(
                    &mut rows,
                    &format!("{case} sta {span:?}"),
                    sta(&rel, grouping, &aggs, span),
                );
            }
            for window in [Window::past(2), Window { before: 0, after: 3 }] {
                result_rows(
                    &mut rows,
                    &format!("{case} mwta {window:?}"),
                    mwta(&rel, &spec, window),
                );
            }
        }
    }
    error_rows(&mut rows);
    rows
}

/// Queries that fail, and one that does not because it has no rows.
fn error_rows(rows: &mut Vec<String>) {
    let rel = seeded(3, 10, false);
    let non_numeric =
        vec![AggregateSpec::avg("X"), AggregateSpec::avg("S"), AggregateSpec::min("B")];
    let spec = ItaQuerySpec::new(&["G"], non_numeric.clone());
    result_rows(rows, "errors non-numeric ita", ita(&rel, &spec));
    let streamed = StreamingIta::new(&rel, &spec).map(|s| s.count());
    rows.push(format!("@ errors non-numeric stream {streamed:?}"));
    let spans = SpanSpec::Fixed { origin: 0, width: 5 };
    result_rows(rows, "errors non-numeric sta", sta(&rel, &["G"], &non_numeric, &spans));
    let empty = TemporalRelation::new(schema());
    result_rows(rows, "errors non-numeric empty ita", ita(&empty, &spec));
    let unknown = ItaQuerySpec::new(&["Nope"], vec![AggregateSpec::avg("S")]);
    result_rows(rows, "errors unknown grouping ita", ita(&rel, &unknown));
    // Two overlapping rows whose sum overflows: the builder rejects it.
    let big = TemporalRelation::from_rows(
        schema(),
        [iv(1, 4), iv(3, 6)].into_iter().map(|t| {
            (
                vec![
                    Value::Int(0),
                    Value::str("s"),
                    Value::float(0.0).unwrap(),
                    Value::Bool(false),
                    Value::Int(1),
                    Value::float(1.5e308).unwrap(),
                ],
                t,
            )
        }),
    )
    .unwrap();
    let sum = ItaQuerySpec::new(&[], vec![AggregateSpec::count(), AggregateSpec::sum("Y")]);
    result_rows(rows, "errors overflow ita", ita(&big, &sum));
    rows.push("@ errors overflow stream".to_string());
    for row in StreamingIta::new(&big, &sum).unwrap() {
        rows.push(format!("{} {}", row.interval, bits(&row.values)));
    }
}

#[test]
fn operators_match_the_golden_file() {
    let expected: Vec<&str> =
        GOLDEN.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    let actual = actual_rows();
    let mut report = String::new();
    let (mut shown, mut case) = (0, "");
    for i in 0..expected.len().max(actual.len()) {
        let (want, got) = (expected.get(i).copied(), actual.get(i).map(String::as_str));
        if let Some(header) = want.filter(|w| w.starts_with('@')) {
            case = header;
        }
        if want != got && shown < 20 {
            shown += 1;
            let _ = writeln!(report, "row {i}, in {case}:");
            let _ = writeln!(report, "- {}", want.unwrap_or("<missing>"));
            let _ = writeln!(report, "+ {}", got.unwrap_or("<missing>"));
        }
    }
    assert!(report.is_empty(), "operators differ from tests/golden/ita.txt:\n{report}");
}
