//! Frequency tables over arbitrary values.
//!
//! §3.2 lists "the number of unique values, and some measure of
//! frequency of values" among the standing summary information of the
//! Summary Database. A [`FrequencyTable`] counts occurrences of any
//! [`Value`] (including `Missing`), supports incremental add/remove,
//! and answers mode / unique-count / frequency queries.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use sdbms_data::Value;

use crate::error::{Result, StatsError};

/// Wrapper giving [`Value`] a total order so it can key a `BTreeMap`.
#[derive(Debug, Clone, PartialEq)]
struct OrdValue(Value);

impl Eq for OrdValue {}
impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Occurrence counts per distinct value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrequencyTable {
    counts: BTreeMap<OrdValue, u64>,
    total: u64,
}

impl FrequencyTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Count every value produced by the iterator.
    pub fn from_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> Self {
        let mut t = Self::new();
        for v in values {
            t.add(v);
        }
        t
    }

    /// Record one occurrence — O(log u).
    pub fn add(&mut self, v: &Value) {
        self.add_count(v, 1);
    }

    /// Record `n` occurrences at once (used when deserializing a
    /// persisted table).
    pub fn add_count(&mut self, v: &Value, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(OrdValue(v.clone())).or_insert(0) += n;
        self.total += n;
    }

    /// Merge another table's counts into this one, as if every
    /// occurrence behind `other` had been added here. Exact and
    /// associative (integer counts over a shared value order), so
    /// parallel partial tables merge to the same table a serial count
    /// produces.
    pub fn merge(&mut self, other: &FrequencyTable) {
        for (v, c) in other.entries() {
            self.add_count(v, c);
        }
    }

    /// Remove one occurrence; errors if the value was not recorded.
    pub fn remove(&mut self, v: &Value) -> Result<()> {
        let key = OrdValue(v.clone());
        match self.counts.get_mut(&key) {
            Some(c) if *c > 1 => {
                *c -= 1;
                self.total -= 1;
                Ok(())
            }
            Some(_) => {
                self.counts.remove(&key);
                self.total -= 1;
                Ok(())
            }
            None => Err(StatsError::InvalidParameter(
                "removing a value that was never recorded",
            )),
        }
    }

    /// Total occurrences recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values.
    #[must_use]
    pub fn unique_count(&self) -> usize {
        self.counts.len()
    }

    /// The most frequent value (ties broken by value order) and its
    /// count.
    pub fn mode(&self) -> Result<(Value, u64)> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(v, c)| (v.0.clone(), *c))
            .ok_or(StatsError::NotEnoughData { needed: 1, got: 0 })
    }

    /// All `(value, count)` pairs in value order.
    pub fn entries(&self) -> impl Iterator<Item = (&Value, u64)> {
        self.counts.iter().map(|(v, c)| (&v.0, *c))
    }
}

/// The unit tests' view of one bucket.
#[cfg(test)]
impl FrequencyTable {
    /// Occurrences of `v`.
    fn count_of(&self, v: &Value) -> u64 {
        self.counts.get(&OrdValue(v.clone())).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FrequencyTable {
        let vals = vec![
            Value::Str("M".into()),
            Value::Str("F".into()),
            Value::Str("M".into()),
            Value::Code(2),
            Value::Missing,
            Value::Str("M".into()),
        ];
        FrequencyTable::from_values(&vals)
    }

    #[test]
    fn counts_and_uniques() {
        let t = table();
        assert_eq!(t.total(), 6);
        assert_eq!(t.unique_count(), 4);
        assert_eq!(t.count_of(&Value::Str("M".into())), 3);
        assert_eq!(t.count_of(&Value::Missing), 1);
        assert_eq!(t.count_of(&Value::Str("X".into())), 0);
    }

    #[test]
    fn mode_with_ties() {
        let t = table();
        assert_eq!(t.mode().unwrap(), (Value::Str("M".into()), 3));
        let mut tie = FrequencyTable::new();
        tie.add(&Value::Int(1));
        tie.add(&Value::Int(2));
        // Tie broken toward the smaller value for determinism.
        assert_eq!(tie.mode().unwrap(), (Value::Int(1), 1));
        assert!(FrequencyTable::new().mode().is_err());
    }

    #[test]
    fn add_remove_inverse() {
        let mut t = table();
        let before = t.clone();
        t.add(&Value::Int(9));
        t.remove(&Value::Int(9)).unwrap();
        assert_eq!(t, before);
        assert!(t.remove(&Value::Int(9)).is_err());
    }

    #[test]
    fn remove_last_occurrence_drops_unique() {
        let mut t = FrequencyTable::new();
        t.add(&Value::Int(5));
        assert_eq!(t.unique_count(), 1);
        t.remove(&Value::Int(5)).unwrap();
        assert_eq!(t.unique_count(), 0);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn nan_floats_group_together() {
        let mut t = FrequencyTable::new();
        t.add(&Value::Float(f64::NAN));
        t.add(&Value::Float(f64::NAN));
        assert_eq!(t.unique_count(), 1);
        assert_eq!(t.count_of(&Value::Float(f64::NAN)), 2);
    }

    #[test]
    fn merge_matches_concatenation() {
        let a = vec![Value::Int(1), Value::Missing, Value::Str("M".into())];
        let b = vec![Value::Int(1), Value::Code(2), Value::Missing];
        let mut merged = FrequencyTable::from_values(&a);
        merged.merge(&FrequencyTable::from_values(&b));
        let whole = FrequencyTable::from_values(a.iter().chain(b.iter()));
        assert_eq!(merged, whole);
        assert_eq!(merged.count_of(&Value::Int(1)), 2);
        assert_eq!(merged.count_of(&Value::Missing), 2);
        // Merging an empty table is a no-op in both directions.
        let mut e = FrequencyTable::new();
        e.merge(&merged);
        assert_eq!(e, merged);
        merged.merge(&FrequencyTable::new());
        assert_eq!(e, merged);
    }

    proptest::proptest! {
        #[test]
        fn prop_merge_exact_and_associative(
            a in proptest::collection::vec((0u8..4, -20i64..20), 0..60),
            b in proptest::collection::vec((0u8..4, -20i64..20), 0..60),
            c in proptest::collection::vec((0u8..4, -20i64..20), 0..60)
        ) {
            let to_vals = |xs: &[(u8, i64)]| -> Vec<Value> {
                xs.iter()
                    .map(|&(tag, x)| match tag {
                        0 => Value::Missing,
                        1 => Value::Int(x),
                        2 => Value::Float(x as f64 / 4.0),
                        _ => Value::Code((x.unsigned_abs() % 8) as u32),
                    })
                    .collect()
            };
            let (va, vb, vc) = (to_vals(&a), to_vals(&b), to_vals(&c));
            let (ta, tb, tc) = (
                FrequencyTable::from_values(&va),
                FrequencyTable::from_values(&vb),
                FrequencyTable::from_values(&vc),
            );
            let mut left = ta.clone();
            left.merge(&tb);
            left.merge(&tc);
            let mut bc = tb.clone();
            bc.merge(&tc);
            let mut right = ta.clone();
            right.merge(&bc);
            proptest::prop_assert_eq!(&left, &right);
            let whole =
                FrequencyTable::from_values(va.iter().chain(vb.iter()).chain(vc.iter()));
            proptest::prop_assert_eq!(&left, &whole);
            proptest::prop_assert_eq!(left.total(), va.len() as u64 + vb.len() as u64 + vc.len() as u64);
        }
    }

    #[test]
    fn entries_in_value_order() {
        let t = table();
        let vals: Vec<String> = t.entries().map(|(v, _)| v.to_string()).collect();
        // Missing first, then strings, then codes (per Value::total_cmp).
        assert_eq!(vals, vec!["·", "F", "M", "#2"]);
    }
}
