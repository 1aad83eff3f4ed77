//! The Summary Database.
//!
//! §3.2: "Each Summary Database serves as a cache for the user view.
//! Rather than storing frequently used data … we choose to store
//! results of query (or function) executions… To enhance access to the
//! Summary Database (which may itself become relatively large), we
//! envision the use of a secondary index on function name-attribute
//! name. Data will most likely be clustered on attribute name to
//! facilitate efficient access to all results on a given column."
//!
//! [`SummaryDb`] is disk-resident (entries in a heap file through the
//! shared buffer pool) with a B+tree secondary index keyed on the
//! order-preserving composite `(attribute, function)` — so a prefix
//! scan on the attribute *is* the clustered access path the paper
//! wants. Each entry carries the cached [`SummaryValue`], a freshness
//! flag, and optional auxiliary maintenance state.

use std::sync::Arc;

use sdbms_storage::keyenc::composite_str_key;
use sdbms_storage::{BTree, BufferPool, LongRecordFile, Rid};

use crate::error::{Result, SummaryError};
use crate::function::{AuxState, StatFunction};
use crate::median_window::MedianWindow;
use crate::value::{take_u32, take_u64, SummaryValue};

/// Freshness of a cached entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// The result reflects the current view contents.
    Fresh,
    /// The view changed since the result was computed (§4.3's
    /// invalidate-and-regenerate fallback keeps entries in this state
    /// until the next lookup).
    Stale,
}

/// One row of the Summary Database (paper Figure 4 plus maintenance
/// state).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Attribute the function was applied to.
    pub attribute: String,
    /// The cached function.
    pub function: StatFunction,
    /// The cached result.
    pub result: SummaryValue,
    /// Freshness flag.
    pub freshness: Freshness,
    /// Auxiliary incremental-maintenance state.
    pub aux: Option<AuxState>,
    /// Updates absorbed since the result was last recomputed from data
    /// (drives the accuracy policies of §3.2).
    pub updates_since_refresh: u32,
}

/// Cache-effectiveness counters (reported by experiments E1/E6/E12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Lookups that found only a stale entry.
    pub stale_hits: u64,
    /// Entries updated incrementally (no data access).
    pub incremental_updates: u64,
    /// Entries invalidated.
    pub invalidations: u64,
    /// Entries recomputed from column data.
    pub recomputes: u64,
    /// Damaged entries quarantined (removed after a storage fault or
    /// decode failure) and treated as misses.
    pub quarantined: u64,
}

/// The per-view cache of function results.
///
/// Entries live in a [`LongRecordFile`] (results are varying-length
/// and may exceed a page — §3.2's histograms and notes), indexed by a
/// B+tree on the `(attribute, function)` composite key.
pub struct SummaryDb {
    heap: LongRecordFile,
    index: BTree,
    stats: std::cell::Cell<CacheStats>,
}

impl std::fmt::Debug for SummaryDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SummaryDb")
            .field("entries", &self.index.len())
            .finish()
    }
}

fn entry_key(attribute: &str, function: &StatFunction) -> Vec<u8> {
    // Attribute first: clustering on attribute name (§3.2) falls out of
    // the index order, and `entries_for_attribute` is one prefix scan.
    composite_str_key(&[attribute, &function.name()])
}

fn rid_to_u64(rid: Rid) -> u64 {
    (u64::from(rid.page) << 16) | u64::from(rid.slot)
}

fn rid_from_u64(v: u64) -> Rid {
    Rid::new((v >> 16) as u32, (v & 0xFFFF) as u16)
}

impl SummaryDb {
    /// Create an empty Summary Database in the given buffer pool.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        Ok(SummaryDb {
            heap: LongRecordFile::create(pool.clone())?,
            index: BTree::create(pool)?,
            stats: std::cell::Cell::new(CacheStats::default()),
        })
    }

    /// Number of stored entries, fresh and stale.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len() as usize
    }

    /// True if nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Cache-effectiveness counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats.get()
    }

    fn bump(&self, f: impl FnOnce(&mut CacheStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Look up `function(attribute)`. Counts a hit, stale-hit, or miss.
    pub fn lookup(&self, attribute: &str, function: &StatFunction) -> Result<Option<Entry>> {
        let key = entry_key(attribute, function);
        match self.index.get_first(&key)? {
            None => {
                self.bump(|s| s.misses += 1);
                Ok(None)
            }
            Some(packed) => {
                let entry = decode_entry(&self.heap.get(rid_from_u64(packed))?)?;
                match entry.freshness {
                    Freshness::Fresh => self.bump(|s| s.hits += 1),
                    Freshness::Stale => self.bump(|s| s.stale_hits += 1),
                }
                Ok(Some(entry))
            }
        }
    }

    /// Look up only if fresh — the common fast path.
    pub fn lookup_fresh(&self, attribute: &str, function: &StatFunction) -> Result<Option<Entry>> {
        Ok(self
            .lookup(attribute, function)?
            .filter(|e| e.freshness == Freshness::Fresh))
    }

    /// Insert or replace an entry.
    pub fn put(&self, entry: &Entry) -> Result<()> {
        let key = entry_key(&entry.attribute, &entry.function);
        let bytes = encode_entry(entry);
        if let Some(packed) = self.index.get_first(&key)? {
            let old_rid = rid_from_u64(packed);
            let new_rid = self.heap.update(old_rid, &bytes)?;
            if new_rid != old_rid {
                self.index.delete(&key, packed)?;
                self.index.insert(&key, rid_to_u64(new_rid))?;
            }
        } else {
            let rid = self.heap.insert(&bytes)?;
            self.index.insert(&key, rid_to_u64(rid))?;
        }
        Ok(())
    }

    /// Remove an entry. Returns whether one existed.
    pub fn remove(&self, attribute: &str, function: &StatFunction) -> Result<bool> {
        let key = entry_key(attribute, function);
        match self.index.get_first(&key)? {
            None => Ok(false),
            Some(packed) => {
                self.heap.delete(rid_from_u64(packed))?;
                self.index.delete(&key, packed)?;
                Ok(true)
            }
        }
    }

    /// All entries for one attribute — the clustered access path
    /// ("efficient access to all results on a given column").
    pub fn entries_for_attribute(&self, attribute: &str) -> Result<Vec<Entry>> {
        let prefix = composite_str_key(&[attribute]);
        self.entries_at(self.index.prefix(&prefix)?)
    }

    /// Every entry, in (attribute, function) order.
    pub fn all_entries(&self) -> Result<Vec<Entry>> {
        self.entries_at(self.index.range(None, None)?)
    }

    /// The entries an index scan found, in its order.
    fn entries_at(&self, hits: Vec<(Vec<u8>, u64)>) -> Result<Vec<Entry>> {
        let entry = |(_, packed)| decode_entry(&self.heap.get(rid_from_u64(packed))?);
        hits.into_iter().map(entry).collect()
    }

    /// Mark every entry of `attribute` stale (§4.3: "after each update
    /// operation all the values associated with the updated attribute
    /// will be marked as invalid").
    pub fn invalidate_attribute(&self, attribute: &str) -> Result<usize> {
        let mut n = 0;
        for mut entry in self.entries_for_attribute(attribute)? {
            if entry.freshness == Freshness::Fresh {
                entry.freshness = Freshness::Stale;
                entry.aux = None;
                self.put(&entry)?;
                n += 1;
            }
        }
        self.bump(|s| s.invalidations += n as u64);
        Ok(n)
    }

    /// Record that an entry was refreshed by recomputation from data.
    pub fn note_recompute(&self) {
        self.bump(|s| s.recomputes += 1);
    }

    /// Record that an entry absorbed an update incrementally.
    pub fn note_incremental(&self) {
        self.bump(|s| s.incremental_updates += 1);
    }

    /// Record that a damaged entry was quarantined.
    pub fn note_quarantine(&self) {
        self.bump(|s| s.quarantined += 1);
    }

    /// Render the Figure 4 three-column table for documentation and the
    /// F4 experiment.
    pub fn render_figure4(&self) -> Result<String> {
        let mut out = String::from("FUNCTION_NAME  ATTRIBUTE_NAME  RESULT\n");
        for e in self.all_entries()? {
            out.push_str(&format!(
                "{:<13}  {:<14}  {}\n",
                e.function.name(),
                e.attribute,
                e.result
            ));
        }
        Ok(out)
    }
}

// ---- entry (de)serialization ---------------------------------------------

fn encode_function(f: &StatFunction, buf: &mut Vec<u8>) {
    match f {
        StatFunction::Count => buf.push(0),
        StatFunction::Sum => buf.push(1),
        StatFunction::Mean => buf.push(2),
        StatFunction::Variance => buf.push(3),
        StatFunction::StdDev => buf.push(4),
        StatFunction::Min => buf.push(5),
        StatFunction::Max => buf.push(6),
        StatFunction::Median => buf.push(7),
        StatFunction::Quartiles => buf.push(8),
        StatFunction::Quantile(pm) => {
            buf.push(9);
            buf.extend_from_slice(&pm.to_le_bytes());
        }
        StatFunction::Mode => buf.push(10),
        StatFunction::UniqueCount => buf.push(11),
        StatFunction::Histogram(bins) => {
            buf.push(12);
            buf.extend_from_slice(&bins.to_le_bytes());
        }
        StatFunction::TrimmedMean(lo, hi) => {
            buf.push(13);
            buf.extend_from_slice(&lo.to_le_bytes());
            buf.extend_from_slice(&hi.to_le_bytes());
        }
    }
}

fn decode_function(buf: &[u8], pos: &mut usize) -> Result<StatFunction> {
    let tag = *buf
        .get(*pos)
        .ok_or(SummaryError::Decode("function tag missing"))?;
    *pos += 1;
    let take_u16 = |pos: &mut usize| -> Result<u16> {
        let b = buf
            .get(*pos..*pos + 2)
            .ok_or(SummaryError::Decode("function arg truncated"))?;
        *pos += 2;
        let b = b
            .try_into()
            .map_err(|_| SummaryError::Decode("function arg truncated"))?;
        Ok(u16::from_le_bytes(b))
    };
    Ok(match tag {
        0 => StatFunction::Count,
        1 => StatFunction::Sum,
        2 => StatFunction::Mean,
        3 => StatFunction::Variance,
        4 => StatFunction::StdDev,
        5 => StatFunction::Min,
        6 => StatFunction::Max,
        7 => StatFunction::Median,
        8 => StatFunction::Quartiles,
        9 => StatFunction::Quantile(take_u16(pos)?),
        10 => StatFunction::Mode,
        11 => StatFunction::UniqueCount,
        12 => StatFunction::Histogram(take_u16(pos)?),
        13 => StatFunction::TrimmedMean(take_u16(pos)?, take_u16(pos)?),
        _ => return Err(SummaryError::Decode("unknown function tag")),
    })
}

fn encode_aux(aux: &AuxState, buf: &mut Vec<u8>) {
    match aux {
        AuxState::Moments(m) => {
            buf.push(0);
            let (n, mean, m2) = m.parts();
            buf.extend_from_slice(&n.to_le_bytes());
            buf.extend_from_slice(&mean.to_bits().to_le_bytes());
            buf.extend_from_slice(&m2.to_bits().to_le_bytes());
        }
        AuxState::MinMax(mm) => {
            buf.push(1);
            match mm.parts() {
                None => buf.push(0),
                Some((min, min_c, max, max_c)) => {
                    buf.push(1);
                    buf.extend_from_slice(&min.to_bits().to_le_bytes());
                    buf.extend_from_slice(&min_c.to_le_bytes());
                    buf.extend_from_slice(&max.to_bits().to_le_bytes());
                    buf.extend_from_slice(&max_c.to_le_bytes());
                }
            }
        }
        AuxState::Window(w) => {
            buf.push(2);
            buf.extend_from_slice(&w.encode());
        }
        AuxState::Freq(t) => {
            buf.push(3);
            buf.extend_from_slice(&(t.unique_count() as u32).to_le_bytes());
            for (v, c) in t.entries() {
                v.encode(buf);
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
        AuxState::Histo(h) => {
            buf.push(4);
            crate::value::encode_histogram(h, buf);
        }
    }
}

fn decode_aux(buf: &[u8], pos: &mut usize) -> Result<AuxState> {
    let tag = *buf
        .get(*pos)
        .ok_or(SummaryError::Decode("aux tag missing"))?;
    *pos += 1;
    Ok(match tag {
        0 => {
            let n = take_u64(buf, pos)?;
            let mean = f64::from_bits(take_u64(buf, pos)?);
            let m2 = f64::from_bits(take_u64(buf, pos)?);
            AuxState::Moments(sdbms_stats::Moments::from_parts(n, mean, m2))
        }
        1 => {
            let has = *buf
                .get(*pos)
                .ok_or(SummaryError::Decode("minmax flag missing"))?;
            *pos += 1;
            let parts = if has != 0 {
                let min = f64::from_bits(take_u64(buf, pos)?);
                let min_c = take_u64(buf, pos)?;
                let max = f64::from_bits(take_u64(buf, pos)?);
                let max_c = take_u64(buf, pos)?;
                Some((min, min_c, max, max_c))
            } else {
                None
            };
            AuxState::MinMax(sdbms_stats::MinMaxAcc::from_parts(parts))
        }
        2 => AuxState::Window(MedianWindow::decode(buf, pos)?),
        3 => {
            let n = take_u32(buf, pos)? as usize;
            let mut t = sdbms_stats::FrequencyTable::new();
            for _ in 0..n {
                let v = sdbms_data::Value::decode(buf, pos)
                    .map_err(|_| SummaryError::Decode("freq value"))?;
                let c = take_u64(buf, pos)?;
                t.add_count(&v, c);
            }
            AuxState::Freq(t)
        }
        4 => AuxState::Histo(crate::value::decode_histogram(buf, pos)?),
        _ => return Err(SummaryError::Decode("unknown aux tag")),
    })
}

fn encode_entry(e: &Entry) -> Vec<u8> {
    let mut buf = Vec::new();
    let attr = e.attribute.as_bytes();
    buf.extend_from_slice(&(attr.len() as u16).to_le_bytes());
    buf.extend_from_slice(attr);
    encode_function(&e.function, &mut buf);
    buf.push(match e.freshness {
        Freshness::Fresh => 0,
        Freshness::Stale => 1,
    });
    buf.extend_from_slice(&e.updates_since_refresh.to_le_bytes());
    buf.extend_from_slice(&e.result.encode());
    match &e.aux {
        None => buf.push(0),
        Some(aux) => {
            buf.push(1);
            encode_aux(aux, &mut buf);
        }
    }
    buf
}

fn decode_entry(buf: &[u8]) -> Result<Entry> {
    let mut pos = 0usize;
    let alen = {
        let b = buf
            .get(pos..pos + 2)
            .ok_or(SummaryError::Decode("entry header truncated"))?
            .try_into()
            .map_err(|_| SummaryError::Decode("entry header truncated"))?;
        pos += 2;
        u16::from_le_bytes(b) as usize
    };
    let attr = std::str::from_utf8(
        buf.get(pos..pos + alen)
            .ok_or(SummaryError::Decode("attribute truncated"))?,
    )
    .map_err(|_| SummaryError::Decode("attribute not UTF-8"))?
    .to_string();
    pos += alen;
    let function = decode_function(buf, &mut pos)?;
    let freshness = match buf.get(pos) {
        Some(0) => Freshness::Fresh,
        Some(1) => Freshness::Stale,
        _ => return Err(SummaryError::Decode("bad freshness byte")),
    };
    pos += 1;
    let updates_since_refresh = take_u32(buf, &mut pos)?;
    let result = SummaryValue::decode(buf, &mut pos)?;
    let aux = match buf.get(pos) {
        Some(0) => {
            pos += 1;
            None
        }
        Some(1) => {
            pos += 1;
            Some(decode_aux(buf, &mut pos)?)
        }
        _ => return Err(SummaryError::Decode("bad aux flag")),
    };
    if pos != buf.len() {
        return Err(SummaryError::Decode("trailing bytes after entry"));
    }
    Ok(Entry {
        attribute: attr,
        function,
        result,
        freshness,
        aux,
        updates_since_refresh,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbms_data::Value;
    use sdbms_storage::StorageEnv;

    fn db() -> SummaryDb {
        SummaryDb::create(StorageEnv::new(64).pool).unwrap()
    }

    fn entry(attr: &str, f: StatFunction, result: SummaryValue) -> Entry {
        Entry {
            attribute: attr.to_string(),
            function: f,
            result,
            freshness: Freshness::Fresh,
            aux: None,
            updates_since_refresh: 0,
        }
    }

    #[test]
    fn put_lookup_roundtrip() {
        let db = db();
        let e = entry(
            "POPULATION",
            StatFunction::Min,
            SummaryValue::Scalar(2_143_924.0),
        );
        db.put(&e).unwrap();
        let got = db
            .lookup("POPULATION", &StatFunction::Min)
            .unwrap()
            .unwrap();
        assert_eq!(got, e);
        assert_eq!(db.stats().hits, 1);
        assert!(db
            .lookup("POPULATION", &StatFunction::Max)
            .unwrap()
            .is_none());
        assert_eq!(db.stats().misses, 1);
    }

    #[test]
    fn figure4_contents() {
        // Build exactly the paper's Figure 4 and render it.
        let db = db();
        db.put(&entry(
            "POPULATION",
            StatFunction::Min,
            SummaryValue::Scalar(2_143_924.0),
        ))
        .unwrap();
        db.put(&entry(
            "POPULATION",
            StatFunction::Max,
            SummaryValue::Scalar(33_422_988.0),
        ))
        .unwrap();
        db.put(&entry(
            "AVE_SALARY",
            StatFunction::Median,
            SummaryValue::Scalar(29_933.0),
        ))
        .unwrap();
        let rendered = db.render_figure4().unwrap();
        assert!(rendered.contains("min"));
        assert!(rendered.contains("POPULATION"));
        assert!(rendered.contains("29933"));
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn put_replaces_existing() {
        let db = db();
        db.put(&entry("X", StatFunction::Mean, SummaryValue::Scalar(1.0)))
            .unwrap();
        db.put(&entry("X", StatFunction::Mean, SummaryValue::Scalar(2.0)))
            .unwrap();
        assert_eq!(db.len(), 1);
        let got = db.lookup("X", &StatFunction::Mean).unwrap().unwrap();
        assert_eq!(got.result, SummaryValue::Scalar(2.0));
    }

    #[test]
    fn clustered_prefix_access() {
        let db = db();
        for attr in ["AGE", "INCOME", "AGE_GROUP"] {
            for f in [StatFunction::Min, StatFunction::Max, StatFunction::Mean] {
                db.put(&entry(attr, f, SummaryValue::Scalar(1.0))).unwrap();
            }
        }
        let age = db.entries_for_attribute("AGE").unwrap();
        assert_eq!(age.len(), 3, "exactly AGE's entries, not AGE_GROUP's");
        assert!(age.iter().all(|e| e.attribute == "AGE"));
        let all = db.all_entries().unwrap();
        assert_eq!(all.len(), 9);
        // Clustered: all AGE entries contiguous in index order.
        let attrs: Vec<&str> = all.iter().map(|e| e.attribute.as_str()).collect();
        assert_eq!(
            attrs,
            vec![
                "AGE",
                "AGE",
                "AGE",
                "AGE_GROUP",
                "AGE_GROUP",
                "AGE_GROUP",
                "INCOME",
                "INCOME",
                "INCOME"
            ]
        );
    }

    #[test]
    fn invalidate_attribute_marks_stale_and_drops_aux() {
        let db = db();
        let col: Vec<Value> = (1..=10).map(Value::Int).collect();
        let mut e = entry("X", StatFunction::Mean, SummaryValue::Scalar(5.5));
        e.aux = StatFunction::Mean.build_aux(&col);
        db.put(&e).unwrap();
        db.put(&entry("Y", StatFunction::Mean, SummaryValue::Scalar(1.0)))
            .unwrap();
        let n = db.invalidate_attribute("X").unwrap();
        assert_eq!(n, 1);
        let got = db.lookup("X", &StatFunction::Mean).unwrap().unwrap();
        assert_eq!(got.freshness, Freshness::Stale);
        assert!(got.aux.is_none());
        assert_eq!(db.stats().stale_hits, 1);
        assert!(db.lookup_fresh("X", &StatFunction::Mean).unwrap().is_none());
        // Y untouched.
        let y = db.lookup_fresh("Y", &StatFunction::Mean).unwrap();
        assert!(y.is_some());
        // Re-invalidating already-stale entries is a no-op.
        assert_eq!(db.invalidate_attribute("X").unwrap(), 0);
    }

    #[test]
    fn remove_entries() {
        let db = db();
        db.put(&entry("X", StatFunction::Sum, SummaryValue::Scalar(10.0)))
            .unwrap();
        assert!(db.remove("X", &StatFunction::Sum).unwrap());
        assert!(!db.remove("X", &StatFunction::Sum).unwrap());
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn entries_with_all_aux_kinds_roundtrip() {
        let db = db();
        let col: Vec<Value> = (1..=100).map(Value::Int).collect();
        for f in [
            StatFunction::Mean,
            StatFunction::Min,
            StatFunction::Median,
            StatFunction::Mode,
            StatFunction::Histogram(8),
        ] {
            let mut e = entry("C", f.clone(), f.compute(&col).unwrap());
            e.aux = f.build_aux(&col);
            assert!(e.aux.is_some(), "{f}");
            db.put(&e).unwrap();
            let got = db.lookup("C", &f).unwrap().unwrap();
            assert_eq!(got, e, "{f}");
        }
    }

    #[test]
    fn varying_length_results_coexist() {
        // The paper's point about the third column being varying-length.
        let db = db();
        db.put(&entry("A", StatFunction::Mean, SummaryValue::Scalar(1.0)))
            .unwrap();
        db.put(&entry(
            "A",
            StatFunction::Quartiles,
            SummaryValue::Vector(vec![1.0, 2.0, 3.0]),
        ))
        .unwrap();
        let h = sdbms_stats::Histogram::with_range(0.0, 1.0, 100).unwrap();
        db.put(&entry(
            "A",
            StatFunction::Histogram(100),
            SummaryValue::Histogram(h),
        ))
        .unwrap();
        db.put(&entry(
            "A",
            StatFunction::Mode,
            SummaryValue::ModalValue(Value::Str("a long modal string value".into()), 3),
        ))
        .unwrap();
        assert_eq!(db.entries_for_attribute("A").unwrap().len(), 4);
    }

    #[test]
    fn multi_page_entries_roundtrip() {
        // A 2000-bin histogram entry is ~48 KiB — far beyond one page.
        // The long-record store must carry it transparently.
        let db = db();
        let vals: Vec<Value> = (0..5_000).map(|i| Value::Int(i % 1000)).collect();
        let f = StatFunction::Histogram(2000);
        let mut e = entry("BIG", f.clone(), f.compute(&vals).unwrap());
        e.aux = f.build_aux(&vals);
        db.put(&e).unwrap();
        let got = db.lookup("BIG", &f).unwrap().unwrap();
        assert_eq!(got, e);
        // Replace with a small entry, then a big one again.
        db.put(&entry("BIG", f.clone(), SummaryValue::Scalar(1.0)))
            .unwrap();
        db.put(&e).unwrap();
        assert_eq!(db.lookup("BIG", &f).unwrap().unwrap(), e);
        assert!(db.remove("BIG", &f).unwrap());
    }

    #[test]
    fn long_note_entries() {
        let db = db();
        let note = "analysis journal: ".repeat(2_000); // ~36 KiB
        db.put(&entry(
            "X",
            StatFunction::Mode,
            SummaryValue::Note(note.clone()),
        ))
        .unwrap();
        let got = db.lookup("X", &StatFunction::Mode).unwrap().unwrap();
        assert_eq!(got.result, SummaryValue::Note(note));
    }

    #[test]
    fn survives_tiny_buffer_pool() {
        let db = SummaryDb::create(StorageEnv::new(4).pool).unwrap();
        for i in 0..200u16 {
            db.put(&entry(
                &format!("ATTR_{i:03}"),
                StatFunction::Quantile(i),
                SummaryValue::Scalar(f64::from(i)),
            ))
            .unwrap();
        }
        assert_eq!(db.len(), 200);
        let got = db
            .lookup("ATTR_123", &StatFunction::Quantile(123))
            .unwrap()
            .unwrap();
        assert_eq!(got.result, SummaryValue::Scalar(123.0));
    }
}
