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
//! record. An `Int` or `Float` cell update then costs at most 25 bytes,
//! index included, in a view of fewer than 2^21 rows and 128
//! attributes. Readers get [`ChangeRecord`]s, decoded as they iterate.
//!
//! A statement's cell updates are mostly one long run on one attribute
//! (§2.2's recode of a whole variable), and [`UpdateHistory::extend`]
//! stores each such run as one *run record*: the rows as zigzag varint
//! deltas, the old values once per cell, and the new values either as
//! one *shift* `d` with `new == old + d` for every cell, bit for bit
//! (`INCOME += b`), or else *each* one. Values of one type go in a
//! lane of 8-byte payloads without tags. A shift run over consecutive
//! rows costs 9 bytes per cell, an *each* run 17. A
//! run keeps one version per cell: a chunk's versions are counted
//! from its first, and a version inside a run decodes the run and
//! skips into it.

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
/// Run records, by the form of their new values.
const RUN_EACH: u8 = 6;
const RUN_SHIFT: u8 = 7;

/// Lane kinds: how a run stores a sequence of values.
const LANE_VALUES: u8 = 0;
const LANE_INT: u8 = 1;
const LANE_FLOAT: u8 = 2;

/// One cell of a run: row, old value, new value.
type Cell = (usize, Value, Value);

/// Whole encoded records, back to back, and where each one starts.
#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    /// Version of the chunk's first record (of its first cell, for a
    /// run).
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

    /// Give back the room a closed chunk will never use.
    fn close(&mut self) {
        self.bytes.shrink_to_fit();
        self.starts.shrink_to_fit();
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

    /// Current version: one per record applied, and one per cell of a
    /// run.
    #[must_use]
    pub fn version(&self) -> Version {
        self.next_version
    }

    /// Append a record, returning its version.
    pub fn record(&mut self, change: ChangeRecord) -> Version {
        let mut bytes = Vec::new();
        self.encode(&change, &mut bytes);
        self.append(&bytes, 1)
    }

    /// Append `changes`, oldest first, returning the current version.
    /// Each run of two or more consecutive cell updates of one
    /// attribute becomes one run record (see the module doc); it still
    /// takes one version per cell, and reads back as the same records.
    pub fn extend(&mut self, changes: impl IntoIterator<Item = ChangeRecord>) -> Version {
        let mut changes = changes.into_iter().peekable();
        while let Some(change) = changes.next() {
            let ChangeRecord::CellUpdate {
                row,
                attribute,
                old,
                new,
            } = change
            else {
                self.record(change);
                continue;
            };
            let mut cells = vec![(row, old, new)];
            while let Some(ChangeRecord::CellUpdate { row, old, new, .. }) = changes.next_if(
                |c| matches!(c, ChangeRecord::CellUpdate { attribute: a, .. } if *a == attribute),
            ) {
                cells.push((row, old, new));
            }
            if let [_] = cells[..] {
                let (row, old, new) = cells.swap_remove(0);
                self.record(ChangeRecord::CellUpdate {
                    row,
                    attribute,
                    old,
                    new,
                });
            } else {
                let mut bytes = Vec::new();
                self.encode_run(&attribute, &cells, &mut bytes);
                self.append(&bytes, cells.len() as u64);
            }
        }
        self.next_version
    }

    /// Append one encoded record that takes `versions` versions.
    fn append(&mut self, record: &[u8], versions: u64) -> Version {
        let first = self.next_version + 1;
        self.next_version += versions;
        if !self.chunks.last_mut().is_some_and(|c| c.push(record)) {
            if let Some(full) = self.chunks.last_mut() {
                full.close();
            }
            self.chunks.push(Chunk::new(first, record));
        }
        self.next_version
    }

    /// All records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = (Version, ChangeRecord)> + '_ {
        self.records_since(0)
    }

    /// Records after `version` (exclusive), oldest first. Iteration
    /// ends at a record that does not decode, which only damage to the
    /// arena can cause: [`UpdateHistory::append`] is its one writer.
    pub fn records_since(
        &self,
        version: Version,
    ) -> impl Iterator<Item = (Version, ChangeRecord)> + '_ {
        self.raw_since(version)
            .map_while(|(last, bytes)| Some((last, self.decode(bytes).ok()?)))
            .flat_map(move |(last, records)| {
                let first = last.saturating_add(1).saturating_sub(records.len() as u64);
                (first..).zip(records).filter(move |(v, _)| *v > version)
            })
    }

    /// Version of the most recent checkpoint named `label`, if any.
    /// Chunks are searched newest first, and only checkpoint records
    /// are decoded.
    #[must_use]
    pub fn checkpoint(&self, label: &str) -> Option<Version> {
        let named = |(_, bytes): &(Version, &[u8])| {
            bytes.first() == Some(&CHECKPOINT)
                && matches!(self.decode(bytes).as_deref(), Ok([ChangeRecord::Checkpoint { label: l }]) if l == label)
        };
        self.chunks
            .iter()
            .rev()
            .find_map(|c| chunk_records(c).filter(named).last())
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

    /// Each record holding a version after `version`, as `(the version
    /// of its last cell, its bytes)`, oldest first: the chunk index
    /// finds the first one without touching the chunks before it.
    fn raw_since(&self, version: Version) -> impl Iterator<Item = (Version, &[u8])> + '_ {
        let next = version.saturating_add(1);
        let first = self
            .chunks
            .partition_point(|c| c.first <= next)
            .saturating_sub(1);
        self.chunks[first..]
            .iter()
            .flat_map(chunk_records)
            .filter(move |(last, _)| *last >= next)
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

    /// Encode a run of two or more cells of `attribute`.
    fn encode_run(&mut self, attribute: &str, cells: &[Cell], out: &mut Vec<u8>) {
        let shift = shift_of(cells);
        out.push(if shift.is_some() { RUN_SHIFT } else { RUN_EACH });
        put_varint(out, self.intern(attribute) as u64);
        put_varint(out, cells.len() as u64);
        let mut prev = 0u64;
        for &(row, ..) in cells {
            let row = row as u64;
            put_varint(out, zigzag(row.wrapping_sub(prev)));
            prev = row;
        }
        put_lane(out, cells.iter().map(|(_, old, _)| old));
        match shift {
            Some(d) => d.encode(out),
            None => put_lane(out, cells.iter().map(|(_, _, new)| new)),
        }
    }

    /// Decode one record's bytes into its records: one, or a run's
    /// cells. Any damage — truncation, an unknown tag or attribute
    /// index, invalid UTF-8, a shift that does not apply, trailing
    /// bytes — is a typed error, never a panic.
    fn decode(&self, bytes: &[u8]) -> Result<Vec<ChangeRecord>> {
        let mut r = Reader { bytes, pos: 0 };
        let tag = r.byte()?;
        let record = match tag {
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
            RUN_EACH | RUN_SHIFT => return self.decode_run(tag, r),
            _ => return Err(damaged("unknown history record tag")),
        };
        r.finish()?;
        Ok(vec![record])
    }

    /// The cells of a run record whose tag has been read.
    fn decode_run(&self, tag: u8, mut r: Reader<'_>) -> Result<Vec<ChangeRecord>> {
        let attribute = r.name(&self.names)?;
        let n = r.count()?;
        if n == 0 {
            return Err(damaged("empty history run"));
        }
        // Every row takes at least one byte.
        let mut rows = Vec::with_capacity(n.min(r.bytes.len() - r.pos));
        let mut row = 0u64;
        for _ in 0..n {
            row = row.wrapping_add(unzigzag(r.varint()?));
            rows.push(usize::try_from(row).map_err(|_| damaged("history row overflows"))?);
        }
        let olds = r.lane(n)?;
        let news = match tag {
            RUN_EACH => r.lane(n)?,
            _ => {
                let d = r.value()?;
                let news = olds.iter().map(|old| shifted(old, &d));
                news.collect::<Option<_>>()
                    .ok_or_else(|| damaged("history shift does not apply"))?
            }
        };
        r.finish()?;
        Ok(rows
            .into_iter()
            .zip(olds)
            .zip(news)
            .map(|((row, old), new)| ChangeRecord::CellUpdate {
                row,
                attribute: attribute.clone(),
                old,
                new,
            })
            .collect())
    }
}

/// Each record of chunk `c`, oldest first, as `(the version of its
/// last cell, its bytes)`.
fn chunk_records(c: &Chunk) -> impl Iterator<Item = (Version, &[u8])> + '_ {
    let mut last = c.first.saturating_sub(1);
    (0..c.starts.len()).map(move |i| {
        let bytes = c.record(i);
        last = last.saturating_add(versions(bytes));
        (last, bytes)
    })
}

/// Versions the record `bytes` takes: a run's cell count, else one.
/// Damage that misstates it also keeps the record from decoding.
fn versions(bytes: &[u8]) -> u64 {
    let mut r = Reader { bytes, pos: 0 };
    let run = matches!(r.byte(), Ok(RUN_EACH | RUN_SHIFT));
    match (run, r.varint(), r.varint()) {
        (true, Ok(_), Ok(n)) => n.max(1),
        _ => 1,
    }
}

/// The `d` with `old + d == new` for every cell, bit for bit, if the
/// difference at the first cell is one; `None` stores each new value.
fn shift_of(cells: &[Cell]) -> Option<Value> {
    let (_, old, new) = &cells[0];
    let d = match (old, new) {
        (Value::Int(o), Value::Int(n)) => Value::Int(n.checked_sub(*o)?),
        (Value::Float(o), Value::Float(n)) => Value::Float(n - o),
        _ => return None,
    };
    let reproduces = |(_, old, new): &Cell| shifted(old, &d).is_some_and(|v| identical(&v, new));
    cells.iter().all(reproduces).then_some(d)
}

/// `old + d` within one type, if it is defined.
fn shifted(old: &Value, d: &Value) -> Option<Value> {
    match (old, d) {
        (Value::Int(o), Value::Int(d)) => o.checked_add(*d).map(Value::Int),
        (Value::Float(o), Value::Float(d)) => Some(Value::Float(o + d)),
        _ => None,
    }
}

/// Equality with floats compared by bits.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Values of one run: a lane kind, then 8-byte payloads when every
/// value is an `Int` or every one a `Float`, else each value encoded.
fn put_lane<'a>(out: &mut Vec<u8>, values: impl Iterator<Item = &'a Value> + Clone) {
    let payload = |v: &Value| match v {
        Value::Int(i) => Some((LANE_INT, i.to_le_bytes())),
        Value::Float(x) => Some((LANE_FLOAT, x.to_bits().to_le_bytes())),
        _ => None,
    };
    let mut kinds = values.clone().map(|v| payload(v).map(|(k, _)| k));
    let first = kinds.next().flatten();
    match first.filter(|&k| kinds.all(|other| other == Some(k))) {
        Some(kind) => {
            out.push(kind);
            for (_, bytes) in values.filter_map(payload) {
                out.extend_from_slice(&bytes);
            }
        }
        None => {
            out.push(LANE_VALUES);
            for v in values {
                v.encode(out);
            }
        }
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

    /// `n` values stored by [`put_lane`].
    fn lane(&mut self, n: usize) -> Result<Vec<Value>> {
        let kind = self.byte()?;
        // Every value takes at least one byte.
        let mut values = Vec::with_capacity(n.min(self.bytes.len() - self.pos));
        for _ in 0..n {
            let value = match kind {
                LANE_VALUES => self.value()?,
                LANE_INT | LANE_FLOAT => {
                    let mut payload = [0u8; 8];
                    payload.copy_from_slice(self.take(8)?);
                    if kind == LANE_INT {
                        Value::Int(i64::from_le_bytes(payload))
                    } else {
                        Value::Float(f64::from_bits(u64::from_le_bytes(payload)))
                    }
                }
                _ => return Err(damaged("unknown history lane kind")),
            };
            values.push(value);
        }
        Ok(values)
    }

    /// Every byte of the record was read.
    fn finish(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(damaged("trailing bytes after history record"));
        }
        Ok(())
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
        let value = identical;
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

    fn cell(row: usize, attribute: &str, old: Value, new: Value) -> ChangeRecord {
        ChangeRecord::CellUpdate {
            row,
            attribute: attribute.into(),
            old,
            new,
        }
    }

    /// Runs in both forms and every lane: a literal assignment, an `Int` and
    /// a `Float` shift, NaN payloads, `-0.0`, `Missing`, mixed `Int` /
    /// `Float` values, descending and far-apart rows.
    fn edge_runs() -> Vec<Vec<ChangeRecord>> {
        let nan = |bits: u64| Value::Float(f64::from_bits(0x7ff0_0000_0000_0001 | bits));
        vec![
            (0..5)
                .map(|r| cell(r, "AGE", Value::Int(r as i64), Value::Int(40)))
                .collect(),
            (0..6)
                .map(|r| {
                    cell(
                        90 - r,
                        "AGE",
                        Value::Int(r as i64),
                        Value::Int(r as i64 + 3),
                    )
                })
                .collect(),
            (0..7)
                .map(|r| {
                    let old = 1_000.0 + r as f64 * 0.37;
                    cell(r * 3, "INCOME", Value::Float(old), Value::Float(old + 12.0))
                })
                .collect(),
            vec![
                cell(usize::MAX, "INCOME", nan(0xdead), Value::Float(-0.0)),
                cell(0, "INCOME", Value::Float(-0.0), nan(0xbeef)),
                cell(7, "INCOME", Value::Missing, Value::Int(-1)),
                cell(1 << 40, "INCOME", Value::Int(i64::MIN), Value::Float(0.5)),
            ],
            vec![
                cell(3, "SEX", Value::Code(1), Value::Code(2)),
                cell(2, "SEX", Value::Str("Ünïcødé ✓".into()), Value::Missing),
            ],
            vec![
                cell(10, "HOURS", Value::Missing, nan(7)),
                cell(11, "HOURS", Value::Int(1), nan(7)),
            ],
        ]
    }

    /// The history holding `runs`, each appended by one `extend`.
    fn with_runs(runs: &[Vec<ChangeRecord>]) -> UpdateHistory {
        let mut h = UpdateHistory::new();
        for run in runs {
            h.extend(run.iter().cloned());
        }
        h
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
        // Enough records for several chunks, one oversized record that
        // takes a chunk of its own, runs inside chunks, and one run
        // larger than a chunk.
        let mut h = UpdateHistory::new();
        let mut all = Vec::new();
        let mut runs = Vec::new();
        for i in 0..12_000usize {
            let (first, len) = (all.len() as u64 + 1, if i % 1_000 == 500 { 40 } else { 1 });
            let run: Vec<_> = match i {
                5_000 => vec![ChangeRecord::Annotation {
                    text: "x".repeat(CHUNK_BYTES + 3),
                }],
                9_000 => (0..4_000)
                    .map(|k| {
                        let (old, new) = (Value::Int(k), Value::Float(k as f64 / 3.0));
                        let (old, new) = if k % 2 == 0 { (old, new) } else { (new, old) };
                        cell(9_000 - k as usize, "Y", old, new)
                    })
                    .collect(),
                _ => (0..len)
                    .map(|k| upd(i + k, (i + k) as i64, -((i + k) as i64)))
                    .collect(),
            };
            if run.len() > 1 {
                runs.push(first - 1..=first + run.len() as u64 - 1);
            }
            all.extend(run.iter().cloned());
            h.extend(run);
        }
        assert!(h.chunks.len() >= 6, "{} chunks", h.chunks.len());
        let check = |since: u64, take: usize| {
            let got: Vec<_> = h.records_since(since).take(take).collect();
            let left = all.len() - since as usize;
            assert_eq!(got.len(), left.min(take), "since {since}");
            for (k, (v, r)) in got.iter().enumerate() {
                assert_eq!(*v, since + 1 + k as u64);
                assert!(same(r, &all[since as usize + k]), "version {v}");
            }
        };
        let boundaries = h
            .chunks
            .iter()
            .flat_map(|c| [c.first - 1, c.first, c.first + 1]);
        let end = all.len() as u64;
        for since in boundaries.chain([4_999, 5_000, 5_001, end - 1, end]) {
            check(since, usize::MAX);
        }
        // Every version inside every run, the one wider than a chunk
        // included.
        assert_eq!(runs.len(), 13);
        for since in runs.into_iter().flatten() {
            check(since, 50);
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
        let mut cases = edge_cases();
        for c in &cases {
            h.record(c.clone());
        }
        for run in edge_runs() {
            let v = h.extend(run.iter().cloned());
            cases.extend(run);
            assert_eq!(v, cases.len() as u64, "a run takes a version per cell");
        }
        let back: Vec<_> = h.records().collect();
        assert_eq!(back.len(), cases.len());
        for ((v, got), (k, want)) in back.iter().zip(cases.iter().enumerate()) {
            assert_eq!(*v, k as u64 + 1);
            assert!(same(got, want), "version {v}: {got:?} != {want:?}");
        }
    }

    /// The tag of record `i` of chunk `c`: for a run, its form.
    fn tag(h: &UpdateHistory, c: usize, i: usize) -> u8 {
        h.chunks[c].record(i)[0]
    }

    #[test]
    fn a_run_stores_a_shift_only_where_it_reproduces_every_cell() {
        let runs = edge_runs();
        let h = with_runs(&runs);
        let forms: Vec<u8> = (0..runs.len()).map(|i| tag(&h, 0, i)).collect();
        assert_eq!(
            forms,
            [RUN_EACH, RUN_SHIFT, RUN_SHIFT, RUN_EACH, RUN_EACH, RUN_EACH]
        );
        // A float recode whose first sum rounded: the first cell's
        // difference misses the others, so the run stores each value.
        let bump = 123.0;
        let olds = [
            f64::from_bits(0x40ff_ffff_ffff_ffff),
            5_000.25,
            77.5,
            65_000.125,
        ];
        let recode: Vec<_> = olds
            .iter()
            .enumerate()
            .map(|(r, &o)| cell(r, "INCOME", Value::Float(o), Value::Float(o + bump)))
            .collect();
        assert_ne!((olds[0] + bump) - olds[0], bump, "the first sum rounds");
        let h = with_runs(std::slice::from_ref(&recode));
        assert_eq!(tag(&h, 0, 0), RUN_EACH);
        let back: Vec<_> = h.records().map(|(_, r)| r).collect();
        assert!(back.iter().zip(&recode).all(|(a, b)| same(a, b)));
        // The same recode from an exact first sum is a shift, and one
        // cell off it falls back to storing each.
        let mut off = recode[1..].to_vec();
        let h = with_runs(std::slice::from_ref(&off));
        assert_eq!(tag(&h, 0, 0), RUN_SHIFT);
        if let ChangeRecord::CellUpdate { new, .. } = &mut off[1] {
            *new = Value::Float(77.5 + bump + 1e-9);
        }
        let h = with_runs(std::slice::from_ref(&off));
        assert_eq!(tag(&h, 0, 0), RUN_EACH);
        let back: Vec<_> = h.records().map(|(_, r)| r).collect();
        assert!(back.iter().zip(&off).all(|(a, b)| same(a, b)));
    }

    #[test]
    fn undo_to_a_version_inside_a_run_equals_undoing_the_cells_one_by_one() {
        let runs = edge_runs();
        let runs_h = with_runs(&runs);
        let mut cells_h = UpdateHistory::new();
        for c in runs.iter().flatten() {
            cells_h.record(c.clone());
        }
        assert_eq!(runs_h.version(), cells_h.version());
        for v in 0..=runs_h.version() {
            let (a, b) = (runs_h.undo_to(v).unwrap(), cells_h.undo_to(v).unwrap());
            assert_eq!(a.len(), b.len(), "version {v}");
            assert!(a.iter().zip(&b).all(|(x, y)| same(x, y)), "version {v}");
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
    fn a_shift_run_costs_at_most_11_bytes_a_cell_and_an_each_run_19() {
        let n = 10_000usize;
        // `INCOME += 25` on every other row, and the same rows set to
        // values no shift reproduces.
        let shift = (0..n).map(|i| {
            let old = (i * 7_919 % 9_000_000) as f64 / 100.0;
            cell(2 * i, "INCOME", Value::Float(old), Value::Float(old + 25.0))
        });
        let each = (0..n).map(|i| {
            let old = i as f64 * 0.5;
            cell(2 * i, "INCOME", Value::Float(old), Value::Float(old.sqrt()))
        });
        for (name, bound, run) in [
            ("shift", 11.0, shift.collect::<Vec<_>>()),
            ("each", 19.0, each.collect()),
        ] {
            let mut h = UpdateHistory::new();
            assert_eq!(h.extend(run), n as u64);
            let per = footprint(&h) as f64 / n as f64;
            println!("{name} run: {per:.2} bytes per cell");
            assert!(per <= bound, "{name} run: {per:.2} bytes per cell");
        }
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
        for run in edge_runs() {
            h.extend(run);
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
            tag in 0u8..12,
            names in 0usize..4
        ) {
            let mut h = UpdateHistory::new();
            for a in 0..names {
                h.intern(&format!("N{a}"));
            }
            // Most cases start with a real tag so decoding gets
            // past the first byte.
            let mut input = bytes.clone();
            if tag <= RUN_SHIFT {
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
