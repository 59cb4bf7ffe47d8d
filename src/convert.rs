//! Conversion of sequential relations back into displayable temporal
//! relations.

use pta_temporal::{Attribute, DataType, Schema, SequentialRelation, TemporalRelation, Value};

use crate::error::Error;

/// Renders a sequential relation (an ITA/PTA result) as a temporal
/// relation with schema `(A1, ..., Ak, B1, ..., Bp, T)`: the grouping-key
/// values followed by the aggregate values.
///
/// `group_names` and `value_names` label the two attribute blocks; the
/// grouping block's types are inferred from the first group key. A
/// relation without group keys (the ITA result of an empty input) takes
/// any grouping names, typed `Str`, and renders as an empty table.
pub fn to_temporal_relation(
    seq: &SequentialRelation,
    group_names: &[&str],
    value_names: &[&str],
) -> Result<TemporalRelation, Error> {
    let first = seq.group_keys().first();
    let group_types: Vec<DataType> = (0..group_names.len())
        .map(|i| first.and_then(|k| k.values().get(i)).map_or(DataType::Str, Value::data_type))
        .collect();
    render(seq, group_names, &group_types, value_names)
}

/// [`to_temporal_relation`] with each grouping attribute typed as the
/// query's input schema declares it, so that a result without rows has
/// the schema every other result of the query has.
pub(crate) fn to_temporal_relation_over(
    input: &Schema,
    seq: &SequentialRelation,
    group_names: &[&str],
    value_names: &[&str],
) -> Result<TemporalRelation, Error> {
    let group_types = group_names
        .iter()
        .map(|name| Ok(input.attribute(input.index_of(name)?).data_type()))
        .collect::<Result<Vec<_>, Error>>()?;
    render(seq, group_names, &group_types, value_names)
}

/// Renders `seq` with the grouping block typed `group_types`.
fn render(
    seq: &SequentialRelation,
    group_names: &[&str],
    group_types: &[DataType],
    value_names: &[&str],
) -> Result<TemporalRelation, Error> {
    if value_names.len() != seq.dims() {
        return Err(Error::InvalidQuery(format!(
            "{} value names supplied for a {}-dimensional relation",
            value_names.len(),
            seq.dims()
        )));
    }
    let key_arity = seq.group_keys().first().map_or(group_names.len(), |k| k.values().len());
    if group_names.len() != key_arity {
        return Err(Error::InvalidQuery(format!(
            "{} group names supplied for keys of arity {key_arity}",
            group_names.len()
        )));
    }
    let mut attrs = Vec::with_capacity(group_names.len() + value_names.len());
    for (name, dtype) in group_names.iter().zip(group_types) {
        attrs.push(Attribute::new(*name, *dtype));
    }
    for name in value_names {
        attrs.push(Attribute::new(*name, DataType::Float));
    }
    let mut rel = TemporalRelation::new(Schema::new(attrs)?);
    for i in 0..seq.len() {
        let key = seq.group_key(seq.group(i))?;
        let mut values: Vec<Value> = key.values().to_vec();
        for d in 0..seq.dims() {
            values.push(Value::float(seq.value(i, d))?);
        }
        rel.push(values, seq.interval(i))?;
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_temporal::{GroupKey, SequentialBuilder, TimeInterval};

    #[test]
    fn converts_groups_and_values() {
        let mut b = SequentialBuilder::new(2);
        b.push(GroupKey::new(vec![Value::str("A")]), TimeInterval::new(1, 3).unwrap(), &[1.5, 2.5])
            .unwrap();
        let seq = b.build();
        let rel = to_temporal_relation(&seq, &["Proj"], &["AvgSal", "MaxSal"]).unwrap();
        assert_eq!(rel.schema().to_string(), "(Proj: Str, AvgSal: Float, MaxSal: Float, T)");
        assert_eq!(rel.tuples()[0].value(1), &Value::float(1.5).unwrap());
    }

    #[test]
    fn arity_mismatches_are_rejected() {
        let seq = SequentialRelation::empty(1);
        assert!(to_temporal_relation(&seq, &["X"], &["V"]).is_err());
        assert!(to_temporal_relation(&seq, &[], &["V", "W"]).is_err());
    }
}
