//! Per-view update histories with undo.
//!
//! §3.2: "Keeping a history of updates for each view will enable the
//! DBMS to roll a view back to a previous state should such an action
//! be desired by the analyst. The update history of a view may also be
//! used by other analysts who wish to use some of the data in the view.
//! Rather than repeating the mundane and time consuming data checking
//! operations they can examine what actions were taken by their
//! predecessors and use the 'clean' data for their needs."
//!
//! [`UpdateHistory`] is an append-only log of logical change records.
//! Rolling back produces the *inverse* records for the view layer to
//! apply (the history itself stays append-only, so a rollback is also
//! in the history — nothing is ever lost).
//!
//! The log holds records as bytes, not values. A record is a tag byte
//! and its fields: an attribute as an index into the history's own
//! table of interned names, a row and every count or length as a LEB128
//! varint, cell values in [`Value::encode`]'s form, and text as UTF-8.
//! Records are appended to chunks of 64 KiB, so growth adds a chunk and
//! never copies the log; each chunk keeps a `u16` start offset per
//! record, which is the version → record index. An `Int` or `Float`
//! cell update then costs at most 25 bytes, index included, in a view
//! of fewer than 2^21 rows and 128 attributes. Readers get
//! [`ChangeRecord`]s, decoded as they iterate.

use std::collections::HashMap;
use std::fmt;

use sdbms_data::{DataError, Value};

use crate::error::Result;

/// Monotone version counter; one per applied change record.
pub type Version = u64;

/// One logical change to a view.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeRecord {
    /// A cell was overwritten.
    CellUpdate {
        /// Row index in the view.
        row: usize,
        /// Attribute name.
        attribute: String,
        /// Value before.
        old: Value,
        /// Value after.
        new: Value,
    },
    /// A derived column was appended.
    ColumnAppended {
        /// The new attribute's name.
        attribute: String,
    },
    /// A whole row was appended (transactional batch inserts). The
    /// values are kept so history replay can reconstruct the row.
    RowAppended {
        /// The appended row, in schema order.
        values: Vec<Value>,
    },
    /// A free annotation (data-checking notes other analysts read).
    Annotation {
        /// The note text.
        text: String,
    },
    /// A named checkpoint the analyst can roll back to.
    Checkpoint {
        /// Checkpoint label.
        label: String,
    },
    /// A crash-recovery action taken by the DBMS itself, so later
    /// analysts can see that (and why) cached summaries were
    /// invalidated or rebuilt rather than silently changed.
    Recovery {
        /// Human-readable description of what recovery did.
        detail: String,
    },
}

impl ChangeRecord {
    /// The inverse record, if the change is invertible. Annotations and
    /// checkpoints have no effect to invert; column appends invert to
    /// a drop, which the view layer handles by name.
    #[must_use]
    pub fn inverse(&self) -> Option<ChangeRecord> {
        match self {
            ChangeRecord::CellUpdate {
                row,
                attribute,
                old,
                new,
            } => Some(ChangeRecord::CellUpdate {
                row: *row,
                attribute: attribute.clone(),
                old: new.clone(),
                new: old.clone(),
            }),
            _ => None,
        }
    }
}

impl fmt::Display for ChangeRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChangeRecord::CellUpdate {
                row,
                attribute,
                old,
                new,
            } => write!(f, "row {row}: {attribute} {old} -> {new}"),
            ChangeRecord::ColumnAppended { attribute } => {
                write!(f, "appended column {attribute}")
            }
            ChangeRecord::RowAppended { values } => {
                write!(f, "appended row of {} values", values.len())
            }
            ChangeRecord::Annotation { text } => write!(f, "note: {text}"),
            ChangeRecord::Checkpoint { label } => write!(f, "checkpoint {label:?}"),
            ChangeRecord::Recovery { detail } => write!(f, "recovery: {detail}"),
        }
    }
}

/// Bytes per arena chunk. A record never spans two chunks, and one
/// larger than this gets a chunk of its own, so every offset a chunk
/// indexes fits a `u16`.
const CHUNK_BYTES: usize = 1 << 16;

const CELL_UPDATE: u8 = 0;
const COLUMN_APPENDED: u8 = 1;
const ROW_APPENDED: u8 = 2;
const ANNOTATION: u8 = 3;
const CHECKPOINT: u8 = 4;
const RECOVERY: u8 = 5;

/// Whole encoded records, back to back, and where each one starts.
#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    /// Version of the chunk's first record.
    first: Version,
    bytes: Vec<u8>,
    /// Offset of each record in `bytes`, oldest first.
    starts: Vec<u16>,
}

impl Chunk {
    fn new(first: Version, record: &[u8]) -> Chunk {
        let mut bytes = Vec::with_capacity(CHUNK_BYTES.max(record.len()));
        bytes.extend_from_slice(record);
        Chunk {
            first,
            bytes,
            starts: vec![0],
        }
    }

    /// Append `record` if it fits; `false` leaves the chunk unchanged.
    fn push(&mut self, record: &[u8]) -> bool {
        match u16::try_from(self.bytes.len()) {
            Ok(start) if self.bytes.len() + record.len() <= CHUNK_BYTES => {
                self.starts.push(start);
                self.bytes.extend_from_slice(record);
                true
            }
            _ => false,
        }
    }

    /// The bytes of record `i`: empty when its offsets do not lie in
    /// the chunk, which no record decodes from.
    fn record(&self, i: usize) -> &[u8] {
        let at = |k: usize| {
            self.starts
                .get(k)
                .map_or(self.bytes.len(), |&s| usize::from(s))
        };
        self.bytes.get(at(i)..at(i + 1)).unwrap_or_default()
    }
}

/// The append-only history of one view.
#[derive(Clone, Default, PartialEq)]
pub struct UpdateHistory {
    chunks: Vec<Chunk>,
    /// Interned attribute names: a record holds an index into `names`.
    names: Vec<String>,
    ids: HashMap<String, usize>,
    next_version: Version,
}

impl fmt::Debug for UpdateHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.records()).finish()
    }
}

impl UpdateHistory {
    /// An empty history at version 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current version (number of records applied).
    #[must_use]
    pub fn version(&self) -> Version {
        self.next_version
    }

    /// Append a record, returning its version.
    pub fn record(&mut self, change: ChangeRecord) -> Version {
        let mut bytes = Vec::new();
        self.encode(&change, &mut bytes);
        self.next_version += 1;
        if !self.chunks.last_mut().is_some_and(|c| c.push(&bytes)) {
            self.chunks.push(Chunk::new(self.next_version, &bytes));
        }
        self.next_version
    }

    /// All records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = (Version, ChangeRecord)> + '_ {
        self.records_since(0)
    }

    /// Records after `version` (exclusive), oldest first. Iteration
    /// ends at a record that does not decode, which only damage to the
    /// arena can cause: [`UpdateHistory::record`] is its one writer.
    pub fn records_since(
        &self,
        version: Version,
    ) -> impl Iterator<Item = (Version, ChangeRecord)> + '_ {
        self.raw_since(version)
            .map_while(|(v, bytes)| Some((v, self.decode(bytes).ok()?)))
    }

    /// Version of the most recent checkpoint named `label`, if any.
    /// Only checkpoint records are decoded.
    #[must_use]
    pub fn checkpoint(&self, label: &str) -> Option<Version> {
        self.raw_since(0)
            .rev()
            .filter(|(_, bytes)| bytes.first() == Some(&CHECKPOINT))
            .find(|(_, bytes)| {
                matches!(self.decode(bytes), Ok(ChangeRecord::Checkpoint { label: l }) if l == label)
            })
            .map(|(v, _)| v)
    }

    /// The inverse records needed to roll the view back to `version`,
    /// newest change first (apply them in order). Errors if the
    /// version never existed.
    pub fn undo_to(&self, version: Version) -> Result<Vec<ChangeRecord>> {
        if version > self.next_version {
            return Err(crate::error::ManagementError::NoSuchVersion {
                version,
                current: self.next_version,
            });
        }
        let mut undo: Vec<ChangeRecord> = self
            .records_since(version)
            .filter_map(|(_, r)| r.inverse())
            .collect();
        undo.reverse();
        Ok(undo)
    }

    /// The data-cleaning actions a later analyst would replay (§3.2's
    /// "use the clean data"): every cell update and annotation, in
    /// order.
    #[must_use]
    pub fn cleaning_log(&self) -> Vec<ChangeRecord> {
        self.records()
            .map(|(_, r)| r)
            .filter(|r| {
                matches!(
                    r,
                    ChangeRecord::CellUpdate { .. } | ChangeRecord::Annotation { .. }
                )
            })
            .collect()
    }

    /// Each record after `version` as `(its version, its bytes)`,
    /// oldest first: the chunk index finds the first one without
    /// touching the records before it.
    fn raw_since(
        &self,
        version: Version,
    ) -> impl DoubleEndedIterator<Item = (Version, &[u8])> + '_ {
        let first = self
            .chunks
            .partition_point(|c| c.first + c.starts.len() as u64 <= version);
        let next = version.saturating_add(1);
        self.chunks[first..].iter().flat_map(move |c| {
            let skip = usize::try_from(next.saturating_sub(c.first)).unwrap_or(usize::MAX);
            (skip.min(c.starts.len())..c.starts.len())
                .map(move |i| (c.first + i as u64, c.record(i)))
        })
    }

    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len();
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    fn encode(&mut self, change: &ChangeRecord, out: &mut Vec<u8>) {
        match change {
            ChangeRecord::CellUpdate {
                row,
                attribute,
                old,
                new,
            } => {
                out.push(CELL_UPDATE);
                put_varint(out, self.intern(attribute) as u64);
                put_varint(out, *row as u64);
                old.encode(out);
                new.encode(out);
            }
            ChangeRecord::ColumnAppended { attribute } => {
                out.push(COLUMN_APPENDED);
                put_varint(out, self.intern(attribute) as u64);
            }
            ChangeRecord::RowAppended { values } => {
                out.push(ROW_APPENDED);
                put_varint(out, values.len() as u64);
                for v in values {
                    v.encode(out);
                }
            }
            ChangeRecord::Annotation { text } => put_text(out, ANNOTATION, text),
            ChangeRecord::Checkpoint { label } => put_text(out, CHECKPOINT, label),
            ChangeRecord::Recovery { detail } => put_text(out, RECOVERY, detail),
        }
    }

    /// Decode one record's bytes. Any damage — truncation, an unknown
    /// tag or attribute index, invalid UTF-8, trailing bytes — is a
    /// typed error, never a panic.
    fn decode(&self, bytes: &[u8]) -> Result<ChangeRecord> {
        let mut r = Reader { bytes, pos: 0 };
        let record = match r.byte()? {
            CELL_UPDATE => ChangeRecord::CellUpdate {
                attribute: r.name(&self.names)?,
                row: r.count()?,
                old: r.value()?,
                new: r.value()?,
            },
            COLUMN_APPENDED => ChangeRecord::ColumnAppended {
                attribute: r.name(&self.names)?,
            },
            ROW_APPENDED => {
                let n = r.count()?;
                // Every value takes at least its tag byte.
                let mut values = Vec::with_capacity(n.min(bytes.len() - r.pos));
                for _ in 0..n {
                    values.push(r.value()?);
                }
                ChangeRecord::RowAppended { values }
            }
            ANNOTATION => ChangeRecord::Annotation { text: r.text()? },
            CHECKPOINT => ChangeRecord::Checkpoint { label: r.text()? },
            RECOVERY => ChangeRecord::Recovery { detail: r.text()? },
            _ => return Err(damaged("unknown history record tag")),
        };
        if r.pos != bytes.len() {
            return Err(damaged("trailing bytes after history record"));
        }
        Ok(record)
    }
}

fn damaged(what: &'static str) -> crate::error::ManagementError {
    DataError::Decode(what).into()
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_text(out: &mut Vec<u8>, tag: u8, text: &str) {
    out.push(tag);
    put_varint(out, text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

/// A bounds-checked cursor over one record's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| damaged("history record truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            if shift > 63 || (shift == 63 && bits > 1) {
                return Err(damaged("history varint overflows"));
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn count(&mut self) -> Result<usize> {
        usize::try_from(self.varint()?).map_err(|_| damaged("history count overflows"))
    }

    fn name(&mut self, names: &[String]) -> Result<String> {
        let id = self.count()?;
        names
            .get(id)
            .cloned()
            .ok_or_else(|| damaged("history attribute index out of range"))
    }

    fn text(&mut self) -> Result<String> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| damaged("history text not UTF-8"))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(Value::decode(self.bytes, &mut self.pos)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn upd(row: usize, old: i64, new: i64) -> ChangeRecord {
        ChangeRecord::CellUpdate {
            row,
            attribute: "X".into(),
            old: Value::Int(old),
            new: Value::Int(new),
        }
    }

    /// Equality with floats compared by bits, so NaN payloads and the
    /// sign of zero count.
    fn same(a: &ChangeRecord, b: &ChangeRecord) -> bool {
        fn value(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => a == b,
            }
        }
        match (a, b) {
            (
                ChangeRecord::CellUpdate {
                    row,
                    attribute,
                    old,
                    new,
                },
                ChangeRecord::CellUpdate {
                    row: r2,
                    attribute: a2,
                    old: o2,
                    new: n2,
                },
            ) => row == r2 && attribute == a2 && value(old, o2) && value(new, n2),
            (ChangeRecord::RowAppended { values }, ChangeRecord::RowAppended { values: v2 }) => {
                values.len() == v2.len() && values.iter().zip(v2).all(|(x, y)| value(x, y))
            }
            _ => a == b,
        }
    }

    /// Bytes the history holds, index included.
    fn footprint(h: &UpdateHistory) -> usize {
        h.chunks
            .iter()
            .map(|c| c.bytes.len() + 2 * c.starts.len())
            .sum()
    }

    /// One value of every kind the store holds, chosen by `kind`.
    fn value(kind: u8, bits: u64, text: &str) -> Value {
        match kind % 7 {
            0 => Value::Missing,
            1 => Value::Int(bits as i64),
            2 => Value::Float(f64::from_bits(bits)),
            // A NaN with an arbitrary payload and sign.
            3 => Value::Float(f64::from_bits(0x7ff0_0000_0000_0001 | bits)),
            4 => Value::Float(if bits & 1 == 0 { -0.0 } else { 0.0 }),
            5 => Value::Code(bits as u32),
            _ => Value::Str(text.to_string()),
        }
    }

    fn edge_cases() -> Vec<ChangeRecord> {
        let nan = f64::from_bits(0xfff8_dead_beef_0001);
        vec![
            ChangeRecord::CellUpdate {
                row: 0,
                attribute: "INCOME".into(),
                old: Value::Float(nan),
                new: Value::Float(-0.0),
            },
            ChangeRecord::CellUpdate {
                row: usize::MAX,
                attribute: "ÂGE — 年齢".into(),
                old: Value::Missing,
                new: Value::Code(u32::MAX),
            },
            ChangeRecord::CellUpdate {
                row: 7,
                attribute: "SEX".into(),
                old: Value::Str("Ünïcødé ✓ 漢字".into()),
                new: Value::Str(String::new()),
            },
            ChangeRecord::ColumnAppended {
                attribute: "LOG_INCOME".into(),
            },
            ChangeRecord::RowAppended { values: Vec::new() },
            ChangeRecord::RowAppended {
                values: (0..600u64)
                    .map(|i| value(i as u8, i.wrapping_mul(0x9e37_79b9_7f4a_7c15), "wide"))
                    .collect(),
            },
            ChangeRecord::Annotation {
                text: "long note ✎ ".repeat(20_000),
            },
            ChangeRecord::Checkpoint {
                label: String::new(),
            },
            ChangeRecord::Recovery {
                detail: "invalidated 3 summary entries for AGE".into(),
            },
        ]
    }

    #[test]
    fn versions_monotone() {
        let mut h = UpdateHistory::new();
        assert_eq!(h.version(), 0);
        let v1 = h.record(upd(0, 1, 2));
        let v2 = h.record(upd(1, 3, 4));
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(h.version(), 2);
        assert_eq!(h.records().count(), 2);
    }

    #[test]
    fn undo_produces_reversed_inverses() {
        let mut h = UpdateHistory::new();
        h.record(upd(0, 1, 2));
        h.record(upd(0, 2, 3));
        h.record(upd(5, 10, 20));
        let undo = h.undo_to(1).unwrap();
        assert_eq!(undo.len(), 2);
        // Newest first: 5:20->10, then 0:3->2.
        assert_eq!(
            undo[0],
            ChangeRecord::CellUpdate {
                row: 5,
                attribute: "X".into(),
                old: Value::Int(20),
                new: Value::Int(10),
            }
        );
        assert_eq!(
            undo[1],
            ChangeRecord::CellUpdate {
                row: 0,
                attribute: "X".into(),
                old: Value::Int(3),
                new: Value::Int(2),
            }
        );
        // Rolling back to the current version is a no-op.
        assert!(h.undo_to(3).unwrap().is_empty());
        assert!(h.undo_to(99).is_err());
    }

    #[test]
    fn checkpoints_found_latest_first() {
        let mut h = UpdateHistory::new();
        h.record(ChangeRecord::Checkpoint {
            label: "clean".into(),
        });
        h.record(upd(0, 1, 2));
        h.record(ChangeRecord::Checkpoint {
            label: "clean".into(),
        });
        assert_eq!(h.checkpoint("clean"), Some(3));
        assert_eq!(h.checkpoint("nope"), None);
        // Undo to the first checkpoint: inverse of the single update.
        let undo = h.undo_to(1).unwrap();
        assert_eq!(undo.len(), 1);
    }

    #[test]
    fn annotations_not_invertible_but_logged() {
        let mut h = UpdateHistory::new();
        h.record(ChangeRecord::Annotation {
            text: "row 17 income 999999 marked invalid: data-entry error".into(),
        });
        h.record(upd(17, 999_999, 0));
        h.record(ChangeRecord::ColumnAppended {
            attribute: "LOG_INCOME".into(),
        });
        let undo = h.undo_to(0).unwrap();
        assert_eq!(undo.len(), 1, "only the cell update inverts");
        let clean = h.cleaning_log();
        assert_eq!(clean.len(), 2, "annotation + cell update");
    }

    #[test]
    fn records_since_boundary() {
        let mut h = UpdateHistory::new();
        for i in 0..5 {
            h.record(upd(i, 0, 1));
        }
        assert_eq!(h.records_since(0).count(), 5);
        assert_eq!(h.records_since(3).count(), 2);
        assert_eq!(h.records_since(5).count(), 0);
        assert_eq!(h.records_since(u64::MAX).count(), 0);
    }

    #[test]
    fn records_since_crosses_chunks_at_every_version() {
        // Enough records for several chunks, plus one oversized record
        // that takes a chunk of its own.
        let mut h = UpdateHistory::new();
        let mut all = Vec::new();
        for i in 0..12_000usize {
            let r = if i == 5_000 {
                ChangeRecord::Annotation {
                    text: "x".repeat(CHUNK_BYTES + 3),
                }
            } else {
                upd(i, i as i64, -(i as i64))
            };
            all.push(r.clone());
            h.record(r);
        }
        assert!(h.chunks.len() >= 4, "{} chunks", h.chunks.len());
        let boundaries = h
            .chunks
            .iter()
            .flat_map(|c| [c.first - 1, c.first, c.first + 1]);
        for since in boundaries.chain([4_999, 5_000, 5_001, 11_999, 12_000]) {
            let got: Vec<_> = h.records_since(since).collect();
            assert_eq!(got.len(), all.len() - since as usize, "since {since}");
            for (k, (v, r)) in got.iter().enumerate() {
                assert_eq!(*v, since + 1 + k as u64);
                assert_eq!(r, &all[since as usize + k], "version {v}");
            }
        }
    }

    #[test]
    fn recovery_records_logged_but_not_invertible() {
        let mut h = UpdateHistory::new();
        h.record(upd(0, 1, 2));
        let v = h.record(ChangeRecord::Recovery {
            detail: "invalidated 3 summary entries for AGE".into(),
        });
        assert_eq!(v, 2);
        assert!(h.undo_to(0).unwrap().len() == 1, "recovery has no inverse");
        assert!(
            h.cleaning_log().len() == 1,
            "recovery is not a cleaning action"
        );
        let shown = h.records().last().unwrap().1.to_string();
        assert_eq!(shown, "recovery: invalidated 3 summary entries for AGE");
    }

    #[test]
    fn missing_value_updates_invert() {
        let mut h = UpdateHistory::new();
        h.record(ChangeRecord::CellUpdate {
            row: 2,
            attribute: "AGE".into(),
            old: Value::Int(1000),
            new: Value::Missing,
        });
        let undo = h.undo_to(0).unwrap();
        assert_eq!(
            undo[0],
            ChangeRecord::CellUpdate {
                row: 2,
                attribute: "AGE".into(),
                old: Value::Missing,
                new: Value::Int(1000),
            }
        );
    }

    #[test]
    fn every_variant_round_trips_bit_exactly() {
        let mut h = UpdateHistory::new();
        let cases = edge_cases();
        for c in &cases {
            h.record(c.clone());
        }
        let back: Vec<_> = h.records().collect();
        assert_eq!(back.len(), cases.len());
        for ((v, got), (k, want)) in back.iter().zip(cases.iter().enumerate()) {
            assert_eq!(*v, k as u64 + 1);
            assert!(same(got, want), "version {v}: {got:?} != {want:?}");
        }
    }

    #[test]
    fn a_numeric_cell_update_costs_at_most_32_bytes() {
        // The shape of the benchmark's cleaning edits: eight attributes,
        // 20 000 rows, Int and Float cells.
        let attrs = [
            "PERSON_ID",
            "SEX",
            "RACE",
            "REGION",
            "AGE",
            "AGE_GROUP",
            "INCOME",
            "HOURS_WORKED",
        ];
        let mut h = UpdateHistory::new();
        let n = 50_000usize;
        for i in 0..n {
            let (old, new) = if i % 2 == 0 {
                (Value::Int(i as i64), Value::Int(-(i as i64)))
            } else {
                (Value::Float(i as f64 * 0.5), Value::Float(f64::NAN))
            };
            h.record(ChangeRecord::CellUpdate {
                row: (i * 7_919) % 20_000,
                attribute: attrs[i % attrs.len()].into(),
                old,
                new,
            });
        }
        let per = footprint(&h) as f64 / n as f64;
        assert!(per <= 25.0, "{per:.1} bytes per cell update");

        // The widest row a u32 holds still fits the bound.
        let mut wide = UpdateHistory::new();
        wide.record(ChangeRecord::CellUpdate {
            row: u32::MAX as usize,
            attribute: "INCOME".into(),
            old: Value::Float(1.0),
            new: Value::Int(2),
        });
        assert!(footprint(&wide) <= 32, "{} bytes", footprint(&wide));
    }

    #[test]
    fn a_truncated_or_damaged_arena_yields_a_prefix_never_a_panic() {
        let mut h = UpdateHistory::new();
        let cases = edge_cases();
        for c in cases
            .iter()
            .filter(|c| !matches!(c, ChangeRecord::Annotation { .. }))
        {
            h.record(c.clone());
        }
        let whole: Vec<_> = h.records().collect();
        let chunk = h.chunks.len() - 1;
        let len = h.chunks[chunk].bytes.len();
        for cut in 0..len {
            let mut t = h.clone();
            t.chunks[chunk].bytes.truncate(cut);
            let got: Vec<_> = t.records().collect();
            assert!(got.len() < whole.len(), "cut at {cut} decoded everything");
            for ((v, r), (w, s)) in got.iter().zip(&whole) {
                assert!(v == w && same(r, s), "cut at {cut}: version {v} changed");
            }
            let _ = (t.checkpoint(""), t.undo_to(0), t.cleaning_log());
        }
        // Every single-byte corruption: a typed error or a record,
        // never a panic.
        for at in 0..len {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut t = h.clone();
                t.chunks[chunk].bytes[at] ^= flip;
                let _ = t.records().count();
                let _ = (t.checkpoint(""), t.undo_to(0), t.cleaning_log());
            }
        }
        // Offsets that point outside the bytes read as no record.
        let mut t = h.clone();
        t.chunks[chunk].starts[1] = u16::MAX;
        assert_eq!(t.records().count(), 0);
        // A lost offset makes one slice of two records: it is no record,
        // not the first of the two.
        let mut t = h.clone();
        t.chunks[chunk].starts.remove(1);
        assert_eq!(t.records().count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn any_record_round_trips_bit_exactly(
            kind in 0u8..6,
            row in any::<usize>(),
            attr in 0usize..200,
            old in (0u8..7, any::<u64>()),
            new in (0u8..7, any::<u64>()),
            text in "[a-zA-Z0-9 éß漢字✓]{0,24}",
            width in 0usize..40
        ) {
            let record = match kind {
                0 => ChangeRecord::CellUpdate {
                    row,
                    attribute: format!("A{attr}"),
                    old: value(old.0, old.1, &text),
                    new: value(new.0, new.1, &text),
                },
                1 => ChangeRecord::ColumnAppended { attribute: text.clone() },
                2 => ChangeRecord::RowAppended {
                    values: (0..width as u64)
                        .map(|i| value(old.0.wrapping_add(i as u8), old.1 ^ i, &text))
                        .collect(),
                },
                3 => ChangeRecord::Annotation { text: text.repeat(width) },
                4 => ChangeRecord::Checkpoint { label: text.clone() },
                _ => ChangeRecord::Recovery { detail: text.clone() },
            };
            let mut h = UpdateHistory::new();
            // Earlier records intern other names first, so the index
            // the record carries is not always 0.
            for a in 0..attr % 5 {
                h.record(ChangeRecord::ColumnAppended { attribute: format!("B{a}") });
            }
            let v = h.record(record.clone());
            let back: Vec<_> = h.records_since(v - 1).collect();
            prop_assert_eq!(back.len(), 1);
            prop_assert_eq!(back[0].0, v);
            prop_assert!(same(&back[0].1, &record), "{:?} != {:?}", back[0].1, record);
        }

        #[test]
        fn arbitrary_bytes_decode_to_a_typed_error_or_a_record(
            bytes in prop::collection::vec(any::<u8>(), 0..48),
            tag in 0u8..8,
            names in 0usize..4
        ) {
            let mut h = UpdateHistory::new();
            for a in 0..names {
                h.intern(&format!("N{a}"));
            }
            // Half the cases start with a real tag so decoding gets
            // past the first byte.
            let mut input = bytes.clone();
            if tag < 6 {
                input.insert(0, tag);
            }
            if let Err(e) = h.decode(&input) {
                prop_assert!(
                    matches!(e, crate::error::ManagementError::Data(DataError::Decode(_))),
                    "{e:?}"
                );
            }
        }
    }
}
