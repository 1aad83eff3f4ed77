//! Per-segment zone maps: small statistics that let a scan refute a
//! predicate for a whole segment without decoding it.
//!
//! A [`ZoneMap`] records, for one column segment: the row count, the
//! missing count, the run count, the extreme values under
//! [`Value::total_cmp`] (the same total order predicates compare with,
//! so bounds-based refutation is exact), the first/last values (which
//! make run counts merge exactly), and — when the segment's domain is
//! small, as coded attributes' usually are — the full distinct set,
//! which upgrades equality pruning from range checks to membership
//! checks.
//!
//! Zone maps are *advisory*: every consumer must treat a missing or
//! unreadable map as "may match" and fall back to scanning the
//! segment. That is what makes a torn or corrupted zone-map page
//! degrade to an unpruned scan instead of a wrong answer.

use std::cmp::Ordering;

use sdbms_data::{DataError, Value};

use crate::read_u16;

/// Maximum distinct (non-missing) values a zone map records verbatim.
/// Above this the distinct set is dropped and only min/max survive —
/// coded attributes stay under it, free-ranging measurements don't.
pub const ZONE_DISTINCT_CAP: usize = 16;

/// Leading magic of an encoded zone map, so a stale or garbage record
/// fails decoding instead of pruning with fiction.
const ZONE_MAGIC: u16 = 0x5A4D; // "ZM"

/// Statistics over one column segment (or a merged row range).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ZoneMap {
    /// Rows covered.
    pub rows: usize,
    /// Rows whose value is [`Value::Missing`].
    pub null_count: usize,
    /// Maximal runs of [`Value::group_eq`]-equal values.
    pub run_count: usize,
    /// Smallest non-missing value under [`Value::total_cmp`] (`None`
    /// when every row is missing).
    pub min: Option<Value>,
    /// Largest non-missing value under [`Value::total_cmp`].
    pub max: Option<Value>,
    /// First value of the range (missing included) — lets
    /// [`ZoneMap::merge`] count boundary-spanning runs exactly.
    pub first: Option<Value>,
    /// Last value of the range.
    pub last: Option<Value>,
    /// All distinct non-missing values, sorted by
    /// [`Value::total_cmp`], if there are at most
    /// [`ZONE_DISTINCT_CAP`] of them.
    pub distinct: Option<Vec<Value>>,
}

/// `total_cmp`-ordered insert keeping `set` sorted and duplicate-free;
/// returns `false` (and leaves `set` alone) once the cap is exceeded.
fn distinct_insert(set: &mut Vec<Value>, v: &Value) -> bool {
    match set.binary_search_by(|probe| probe.total_cmp(v)) {
        Ok(_) => true,
        Err(i) => {
            if set.len() >= ZONE_DISTINCT_CAP {
                return false;
            }
            set.insert(i, v.clone());
            true
        }
    }
}

impl ZoneMap {
    /// Build the map of one segment's values in a single pass.
    #[must_use]
    pub fn build(values: &[Value]) -> ZoneMap {
        let mut zm = ZoneMap {
            rows: values.len(),
            first: values.first().cloned(),
            last: values.last().cloned(),
            distinct: Some(Vec::new()),
            ..ZoneMap::default()
        };
        let mut prev: Option<&Value> = None;
        for v in values {
            if !prev.is_some_and(|p| p.group_eq(v)) {
                zm.run_count += 1;
            }
            prev = Some(v);
            if v.is_missing() {
                zm.null_count += 1;
                continue;
            }
            match &mut zm.min {
                Some(m) if m.total_cmp(v) != Ordering::Greater => {}
                slot => *slot = Some(v.clone()),
            }
            match &mut zm.max {
                Some(m) if m.total_cmp(v) != Ordering::Less => {}
                slot => *slot = Some(v.clone()),
            }
            if let Some(set) = &mut zm.distinct {
                if !distinct_insert(set, v) {
                    zm.distinct = None;
                }
            }
        }
        zm
    }

    /// Absorb the map of the row range immediately *following* this
    /// one. Exact: merging per-segment maps reproduces
    /// [`ZoneMap::build`] over the concatenated values, which is what
    /// lets morsel-sized pruning decisions combine segment maps.
    pub fn merge(&mut self, other: &ZoneMap) {
        if other.rows == 0 {
            return;
        }
        if self.rows == 0 {
            *self = other.clone();
            return;
        }
        self.run_count += other.run_count;
        if let (Some(l), Some(f)) = (&self.last, &other.first) {
            if l.group_eq(f) {
                self.run_count -= 1;
            }
        }
        self.rows += other.rows;
        self.null_count += other.null_count;
        self.last = other.last.clone();
        for v in other.min.iter() {
            match &mut self.min {
                Some(m) if m.total_cmp(v) != Ordering::Greater => {}
                slot => *slot = Some(v.clone()),
            }
        }
        for v in other.max.iter() {
            match &mut self.max {
                Some(m) if m.total_cmp(v) != Ordering::Less => {}
                slot => *slot = Some(v.clone()),
            }
        }
        self.distinct = match (self.distinct.take(), &other.distinct) {
            (Some(mut mine), Some(theirs)) => {
                let mut ok = true;
                for v in theirs {
                    if !distinct_insert(&mut mine, v) {
                        ok = false;
                        break;
                    }
                }
                ok.then_some(mine)
            }
            _ => None,
        };
    }

    /// True if any covered row might hold a non-missing value equal to
    /// `v` under [`Value::total_cmp`]. Conservative: `true` whenever
    /// the map cannot prove absence.
    #[must_use]
    pub fn may_contain(&self, v: &Value) -> bool {
        if self.rows == self.null_count {
            return false;
        }
        if let Some(set) = &self.distinct {
            return set.binary_search_by(|probe| probe.total_cmp(v)).is_ok();
        }
        match (&self.min, &self.max) {
            (Some(lo), Some(hi)) => {
                lo.total_cmp(v) != Ordering::Greater && hi.total_cmp(v) != Ordering::Less
            }
            _ => true,
        }
    }

    /// Serialize for persistence alongside the column's data pages.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&ZONE_MAGIC.to_le_bytes());
        buf.extend_from_slice(&(self.rows as u16).to_le_bytes());
        buf.extend_from_slice(&(self.null_count as u16).to_le_bytes());
        buf.extend_from_slice(&(self.run_count as u16).to_le_bytes());
        let mut flags = 0u8;
        if self.min.is_some() {
            flags |= 1;
        }
        if self.first.is_some() {
            flags |= 2;
        }
        if self.distinct.is_some() {
            flags |= 4;
        }
        buf.push(flags);
        for v in self.min.iter().chain(self.max.iter()) {
            v.encode(&mut buf);
        }
        for v in self.first.iter().chain(self.last.iter()) {
            v.encode(&mut buf);
        }
        if let Some(set) = &self.distinct {
            buf.extend_from_slice(&(set.len() as u16).to_le_bytes());
            for v in set {
                v.encode(&mut buf);
            }
        }
        buf
    }

    /// Serialize with a leading generation stamp: the store generation
    /// that wrote the map's segment. A map must never prune a scan of
    /// other contents, even if a page holding it is somehow resurrected
    /// — readers check the stamp via [`ZoneMap::decode_tagged`] against
    /// the segment's and treat a mismatch as "no map".
    #[must_use]
    pub fn encode_tagged(&self, generation: u64) -> Vec<u8> {
        let mut buf = generation.to_le_bytes().to_vec();
        buf.extend_from_slice(&self.encode());
        buf
    }

    /// Decode a generation-stamped zone map, returning the map and the
    /// generation it was written under.
    pub fn decode_tagged(buf: &[u8]) -> Result<(ZoneMap, u64), DataError> {
        let gen_bytes: [u8; 8] = buf
            .get(..8)
            .and_then(|b| b.try_into().ok())
            .ok_or(DataError::Decode("zone map generation truncated"))?;
        let zm = ZoneMap::decode(&buf[8..])?;
        Ok((zm, u64::from_le_bytes(gen_bytes)))
    }

    /// Decode a persisted zone map. Any structural damage is an error —
    /// callers treat it as "no zone map" and scan unpruned.
    pub fn decode(buf: &[u8]) -> Result<ZoneMap, DataError> {
        if read_u16(buf, 0, "zone map truncated")? != ZONE_MAGIC {
            return Err(DataError::Decode("zone map magic mismatch"));
        }
        let rows = read_u16(buf, 2, "zone map truncated")? as usize;
        let null_count = read_u16(buf, 4, "zone map truncated")? as usize;
        let run_count = read_u16(buf, 6, "zone map truncated")? as usize;
        let flags = *buf.get(8).ok_or(DataError::Decode("zone map truncated"))?;
        let mut pos = 9usize;
        let (min, max) = if flags & 1 != 0 {
            (
                Some(Value::decode(buf, &mut pos)?),
                Some(Value::decode(buf, &mut pos)?),
            )
        } else {
            (None, None)
        };
        let (first, last) = if flags & 2 != 0 {
            (
                Some(Value::decode(buf, &mut pos)?),
                Some(Value::decode(buf, &mut pos)?),
            )
        } else {
            (None, None)
        };
        let distinct = if flags & 4 != 0 {
            let n = read_u16(buf, pos, "zone map distinct truncated")? as usize;
            pos += 2;
            if n > ZONE_DISTINCT_CAP {
                return Err(DataError::Decode("zone map distinct set oversized"));
            }
            let mut set = Vec::with_capacity(n);
            for _ in 0..n {
                set.push(Value::decode(buf, &mut pos)?);
            }
            Some(set)
        } else {
            None
        };
        if pos != buf.len() {
            return Err(DataError::Decode("trailing bytes after zone map"));
        }
        if null_count > rows || (rows > 0) != (run_count > 0) {
            return Err(DataError::Decode("zone map counters inconsistent"));
        }
        Ok(ZoneMap {
            rows,
            null_count,
            run_count,
            min,
            max,
            first,
            last,
            distinct,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| match i % 11 {
                0 => Value::Missing,
                1 => Value::Code(u32::try_from(i % 3).unwrap()),
                2 => Value::Float(i as f64 / 4.0 - 30.0),
                3 => Value::Float(f64::NAN),
                4 => Value::Str(if i % 2 == 0 { "a" } else { "b" }.into()),
                _ => Value::Int(i as i64 % 37 - 18),
            })
            .collect()
    }

    #[test]
    fn build_counts_runs_nulls_extremes() {
        let vals = vec![
            Value::Int(5),
            Value::Int(5),
            Value::Missing,
            Value::Int(-2),
            Value::Int(9),
            Value::Int(9),
        ];
        let zm = ZoneMap::build(&vals);
        assert_eq!(zm.rows, 6);
        assert_eq!(zm.null_count, 1);
        assert_eq!(zm.run_count, 4);
        assert_eq!(zm.min, Some(Value::Int(-2)));
        assert_eq!(zm.max, Some(Value::Int(9)));
        assert_eq!(zm.first, Some(Value::Int(5)));
        assert_eq!(zm.last, Some(Value::Int(9)));
        let set = zm
            .distinct
            .clone()
            .expect("small domain keeps distinct set");
        assert_eq!(set, vec![Value::Int(-2), Value::Int(5), Value::Int(9)]);
        assert!(zm.may_contain(&Value::Int(5)));
        assert!(!zm.may_contain(&Value::Int(6)));
    }

    #[test]
    fn all_missing_segment() {
        let zm = ZoneMap::build(&[Value::Missing, Value::Missing]);
        assert_eq!(zm.null_count, 2);
        assert_eq!(zm.run_count, 1);
        assert_eq!(zm.min, None);
        assert!(!zm.may_contain(&Value::Int(0)));
    }

    #[test]
    fn wide_domain_drops_distinct_but_keeps_bounds() {
        let vals: Vec<Value> = (0..100).map(Value::Int).collect();
        let zm = ZoneMap::build(&vals);
        assert!(zm.distinct.is_none());
        assert_eq!(zm.min, Some(Value::Int(0)));
        assert_eq!(zm.max, Some(Value::Int(99)));
        assert!(zm.may_contain(&Value::Int(50)));
        assert!(!zm.may_contain(&Value::Int(100)));
    }

    #[test]
    fn roundtrip_encode_decode() {
        for vals in [mixed(200), Vec::new(), vec![Value::Missing; 7], mixed(3)] {
            let zm = ZoneMap::build(&vals);
            assert_eq!(ZoneMap::decode(&zm.encode()).unwrap(), zm);
        }
    }

    #[test]
    fn decode_rejects_damage() {
        let zm = ZoneMap::build(&mixed(50));
        let good = zm.encode();
        assert!(ZoneMap::decode(&good[..good.len() - 1]).is_err());
        let mut bad = good.clone();
        bad[0] ^= 0xFF; // magic
        assert!(ZoneMap::decode(&bad).is_err());
        let mut junk = good;
        junk.push(0);
        assert!(ZoneMap::decode(&junk).is_err());
        assert!(ZoneMap::decode(&[]).is_err());
    }

    #[test]
    fn tagged_roundtrip_carries_generation() {
        let zm = ZoneMap::build(&mixed(80));
        let bytes = zm.encode_tagged(7);
        let (got, generation) = ZoneMap::decode_tagged(&bytes).unwrap();
        assert_eq!(got, zm);
        assert_eq!(generation, 7);
        // Too short for even the stamp.
        assert!(ZoneMap::decode_tagged(&bytes[..5]).is_err());
        // An untagged record's first bytes are not a valid stamp+map.
        assert!(ZoneMap::decode_tagged(&zm.encode()).is_err());
    }

    #[test]
    fn merge_equals_build_of_concatenation() {
        let whole = mixed(500);
        for cut in [0, 1, 127, 256, 499, 500] {
            let (a, b) = whole.split_at(cut);
            let mut merged = ZoneMap::build(a);
            merged.merge(&ZoneMap::build(b));
            assert_eq!(merged, ZoneMap::build(&whole), "cut at {cut}");
        }
    }

    #[test]
    fn merge_counts_boundary_spanning_runs_once() {
        let a = vec![Value::Code(1), Value::Code(2)];
        let b = vec![Value::Code(2), Value::Code(2), Value::Code(3)];
        let mut merged = ZoneMap::build(&a);
        merged.merge(&ZoneMap::build(&b));
        assert_eq!(merged.run_count, 3);
    }

    proptest::proptest! {
        #[test]
        fn prop_merge_associative_and_exact(
            parts in proptest::collection::vec((0u8..5, 0i64..60), 0..300),
            cut in 0usize..300,
        ) {
            let whole: Vec<Value> = parts
                .iter()
                .map(|&(k, x)| match k {
                    0 => Value::Missing,
                    1 => Value::Code(u32::try_from(x % 4).unwrap()),
                    2 => Value::Float(x as f64 / 2.0),
                    _ => Value::Int(x % 23),
                })
                .collect();
            let cut = cut.min(whole.len());
            let (a, b) = whole.split_at(cut);
            let mut merged = ZoneMap::build(a);
            merged.merge(&ZoneMap::build(b));
            proptest::prop_assert_eq!(merged, ZoneMap::build(&whole));
        }
    }
}
