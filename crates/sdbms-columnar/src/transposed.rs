//! Transposed (fully decomposed) view storage: one file per column.
//!
//! §2.6: "Both [ALDS/SDB and RAPID] rely on the use of transposed files
//! to minimize access time to a column of a data set… a transposed file
//! organization will minimize the number of I/O operations needed to
//! retrieve all entries in a column", at the price of poor
//! "informational" (whole-row) queries. Each column is a chain of
//! [`crate::segment`] records in its own heap file; a small in-memory
//! directory maps row ranges to segment records.

use std::sync::Arc;

use sdbms_data::{DataError, DataSet, DataType, Schema, Value};
use sdbms_storage::{BufferPool, HeapFile, PageId, Rid};

use crate::batch::ColumnBatch;
use crate::segment::{self, encode_segment, Compression, SegmentSink, SEGMENT_ROWS};
use crate::store::{Result, TableStore};
use crate::zonemap::ZoneMap;

#[derive(Debug, Clone, Copy)]
struct SegmentInfo {
    rid: Rid,
    start_row: usize,
    len: usize,
    /// Record holding this segment's persisted [`ZoneMap`], in the
    /// column's *zones* file. `None` means no map: the segment is
    /// scanned unpruned. Writers clear this before touching segment
    /// data and only restore it after a map for the *new* contents is
    /// durably written, so a map is never stale.
    zone: Option<Rid>,
}

struct Column {
    file: HeapFile,
    /// Zone-map records, one per segment, in a separate heap file so
    /// map pages and data pages fail independently (and fault
    /// injection can target one without the other).
    zones: HeapFile,
    segments: Vec<SegmentInfo>,
    compression: Compression,
}

impl Column {
    fn create(pool: &Arc<BufferPool>, compression: Compression) -> Result<Column> {
        Ok(Column {
            file: HeapFile::create(pool.clone()).map_err(DataError::Storage)?,
            zones: HeapFile::create(pool.clone()).map_err(DataError::Storage)?,
            segments: Vec::new(),
            compression,
        })
    }
}

/// A view stored column-at-a-time (transposed files).
pub struct TransposedFile {
    pool: Arc<BufferPool>,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
    /// Version generation stamped into every persisted zone map. A map
    /// whose stamp disagrees is ignored ("scan unpruned"), so maps from
    /// a retired store version — or from before a rebuild — can never
    /// prune this version's scans.
    generation: u64,
}

impl std::fmt::Debug for TransposedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransposedFile")
            .field("rows", &self.rows)
            .field("columns", &self.columns.len())
            .finish()
    }
}

/// Pick a default compression per attribute: RLE for category-like
/// types (codes, strings, ints — long runs in cross-product order),
/// raw for floats (runs are rare in measurements).
#[must_use]
pub fn default_compression(dtype: DataType) -> Compression {
    match dtype {
        DataType::Code => Compression::Rle,
        DataType::Str => Compression::Dictionary,
        DataType::Int => Compression::Rle,
        DataType::Float => Compression::None,
    }
}

impl TransposedFile {
    /// Create an empty transposed store; compression is chosen per
    /// column by [`default_compression`].
    pub fn create(pool: Arc<BufferPool>, schema: Schema) -> Result<Self> {
        let compressions: Vec<Compression> = schema
            .attributes()
            .iter()
            .map(|a| default_compression(a.dtype))
            .collect();
        Self::create_with(pool, schema, &compressions)
    }

    /// Create with an explicit compression per column.
    pub fn create_with(
        pool: Arc<BufferPool>,
        schema: Schema,
        compressions: &[Compression],
    ) -> Result<Self> {
        if compressions.len() != schema.len() {
            return Err(DataError::ArityMismatch {
                expected: schema.len(),
                got: compressions.len(),
            });
        }
        let columns = compressions
            .iter()
            .map(|&compression| Column::create(&pool, compression))
            .collect::<Result<Vec<_>>>()?;
        Ok(TransposedFile {
            pool,
            schema,
            columns,
            rows: 0,
            generation: 0,
        })
    }

    /// Bulk-load a data set (column at a time, full segments).
    pub fn from_dataset(pool: Arc<BufferPool>, ds: &DataSet) -> Result<Self> {
        let mut store = Self::create(pool, ds.schema().clone())?;
        store.bulk_append(ds)?;
        Ok(store)
    }

    /// The generation this store stamps into (and requires of) its
    /// persisted zone maps.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Append all rows of `ds` (schema must match).
    pub fn bulk_append(&mut self, ds: &DataSet) -> Result<()> {
        if ds.schema() != &self.schema {
            return Err(DataError::Decode("bulk_append schema mismatch"));
        }
        for (col, attr) in self.columns.iter_mut().zip(self.schema.attributes()) {
            let values: Vec<Value> = ds.column(&attr.name)?.cloned().collect();
            Self::append_segments(col, &values, self.rows, self.generation)?;
        }
        self.rows += ds.len();
        self.repack_tail()
    }

    /// The one writer of new segments: append `values` to `col` in
    /// chunks of [`SEGMENT_ROWS`], the first starting at row `start`,
    /// each with its zone map.
    fn append_segments(
        col: &mut Column,
        values: &[Value],
        mut start: usize,
        generation: u64,
    ) -> Result<()> {
        for chunk in values.chunks(SEGMENT_ROWS) {
            let bytes = encode_segment(chunk, col.compression);
            let rid = col.file.insert(&bytes).map_err(DataError::Storage)?;
            let zone = Self::write_zone(&mut col.zones, chunk, generation);
            col.segments.push(SegmentInfo {
                rid,
                start_row: start,
                len: chunk.len(),
                zone,
            });
            start += chunk.len();
        }
        Ok(())
    }

    /// Total disk pages across all column files.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.columns.iter().map(|c| c.file.page_count()).sum()
    }

    /// Index of the segment of `col` that holds `row < self.rows`.
    fn segment_of_row(col: &Column, row: usize) -> Result<usize> {
        let i = col.segments.partition_point(|s| s.start_row + s.len <= row);
        if i == col.segments.len() {
            return Err(DataError::Decode("segment directory out of sync"));
        }
        Ok(i)
    }

    /// Visit, in row order, every segment of `attribute` overlapping
    /// rows `[start, start + len)` as `visit(column, segment index, lo,
    /// hi)`, `[lo, hi)` being the covered rows relative to the segment.
    /// A morsel aligned to [`SEGMENT_ROWS`] touches exactly its own
    /// segments, so parallel workers never fetch each other's pages.
    fn for_each_overlap(
        &self,
        attribute: &str,
        start: usize,
        len: usize,
        mut visit: impl FnMut(&Column, usize, usize, usize) -> Result<()>,
    ) -> Result<()> {
        let ci = self.schema.require(attribute)?;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.rows)
            .ok_or(DataError::NoSuchRow(start.saturating_add(len).max(1) - 1))?;
        if start == end {
            return Ok(());
        }
        let col = &self.columns[ci];
        let first = Self::segment_of_row(col, start)?;
        for si in first..col.segments.len() {
            let info = col.segments[si];
            if info.start_row >= end {
                break;
            }
            let lo = start.saturating_sub(info.start_row);
            let hi = (end - info.start_row).min(info.len);
            visit(col, si, lo, hi)?;
        }
        Ok(())
    }

    /// Persist a zone map for `values`, stamped with `generation`,
    /// returning its record id. Returns `None` on any write failure —
    /// zone maps are advisory, so losing one degrades scans to
    /// unpruned, never fails the data operation that triggered it.
    fn write_zone(zones: &mut HeapFile, values: &[Value], generation: u64) -> Option<Rid> {
        zones
            .insert(&ZoneMap::build(values).encode_tagged(generation))
            .ok()
    }

    /// Load one segment's zone map. Returns `None` — "scan unpruned" —
    /// when the segment has no map, the record read fails (torn or
    /// corrupt page fails its checksum), the bytes don't decode, the
    /// map's generation stamp disagrees with the store's, or the map
    /// disagrees with the directory about the row count.
    fn load_zone(col: &Column, si: usize, generation: u64) -> Option<ZoneMap> {
        Self::zone_record(col, si, generation).map(|(zm, _)| zm)
    }

    /// One segment's zone map and the record it was decoded from, if
    /// [`Self::load_zone`] would serve it.
    fn zone_record(col: &Column, si: usize, generation: u64) -> Option<(ZoneMap, Vec<u8>)> {
        let info = col.segments[si];
        let bytes = col.zones.get(info.zone?).ok()?;
        let (zm, stamp) = ZoneMap::decode_tagged(&bytes).ok()?;
        (stamp == generation && zm.rows == info.len).then_some((zm, bytes))
    }

    /// Fetch one segment's raw record, verifying the stored row count
    /// against the directory.
    fn segment_bytes(col: &Column, si: usize) -> Result<Vec<u8>> {
        let info = col.segments[si];
        let bytes = col.file.get(info.rid).map_err(DataError::Storage)?;
        if segment::stored_rows(&bytes)? != info.len {
            return Err(DataError::Decode("segment directory out of sync"));
        }
        Ok(bytes)
    }

    /// The one read of segment data: fetch, check against the
    /// directory, decode rows `[lo, hi)` into `sink`. On `Ok` the sink
    /// received exactly `hi - lo` rows (for `hi` within the segment).
    fn decode_rows(
        col: &Column,
        si: usize,
        lo: usize,
        hi: usize,
        sink: &mut impl SegmentSink,
    ) -> Result<()> {
        segment::decode(&Self::segment_bytes(col, si)?, lo, hi, sink)
    }

    fn load_segment(col: &Column, si: usize) -> Result<Vec<Value>> {
        let len = col.segments[si].len;
        let mut vals = Vec::with_capacity(len);
        Self::decode_rows(col, si, 0, len, &mut vals)?;
        Ok(vals)
    }

    /// Rows `[start, start + len)` of one column into `sink`.
    fn read_into(
        &self,
        attribute: &str,
        start: usize,
        len: usize,
        sink: &mut impl SegmentSink,
    ) -> Result<()> {
        self.for_each_overlap(attribute, start, len, |col, si, lo, hi| {
            Self::decode_rows(col, si, lo, hi, sink)
        })
    }

    /// Push the cell of `col` at `row < self.rows` onto `out`.
    fn read_cell(col: &Column, row: usize, out: &mut Vec<Value>) -> Result<()> {
        let si = Self::segment_of_row(col, row)?;
        let off = row - col.segments[si].start_row;
        Self::decode_rows(col, si, off, off + 1, out)
    }

    fn store_segment(col: &mut Column, si: usize, values: &[Value], generation: u64) -> Result<()> {
        // Invalidate-first: drop the old zone map before the data
        // changes so a failure between the two writes leaves the
        // segment unpruned rather than pruned by a stale map.
        if let Some(z) = col.segments[si].zone.take() {
            // The zone entry is already detached — a failed delete leaks a dead zone-map page, never a stale pruning decision
            let _ = col.zones.delete(z);
        }
        let bytes = encode_segment(values, col.compression);
        let info = col.segments[si];
        let new_rid = col
            .file
            .update(info.rid, &bytes)
            .map_err(DataError::Storage)?;
        col.segments[si].rid = new_rid;
        col.segments[si].len = values.len();
        col.segments[si].zone = Self::write_zone(&mut col.zones, values, generation);
        Ok(())
    }

    /// Merge undersized tail segments created by row-at-a-time appends.
    fn repack_tail(&mut self) -> Result<()> {
        let generation = self.generation;
        for col in &mut self.columns {
            while col.segments.len() >= 2 {
                let last = col.segments[col.segments.len() - 1];
                let prev = col.segments[col.segments.len() - 2];
                if prev.len + last.len > SEGMENT_ROWS {
                    break;
                }
                let mut vals = Self::load_segment(col, col.segments.len() - 2)?;
                vals.extend(Self::load_segment(col, col.segments.len() - 1)?);
                col.file.delete(last.rid).map_err(DataError::Storage)?;
                if let Some(z) = last.zone {
                    // The merged segment's zone is rebuilt below — a failed delete leaks a dead page, never a stale map
                    let _ = col.zones.delete(z);
                }
                col.segments.pop();
                let si = col.segments.len() - 1;
                Self::store_segment(col, si, &vals, generation)?;
            }
        }
        Ok(())
    }

    /// The successor version of this store: fresh pages throughout (the
    /// original's are never written), each column under the encoding it
    /// has here, and the next generation, so its zone maps can never be
    /// confused with the original's.
    ///
    /// It copies records, not values. Each segment's encoded record and
    /// directory entry go over as they are. Each zone map that this
    /// version would serve goes over with only its generation stamp
    /// rewritten. A segment is decoded only when its map is missing or
    /// invalid, to build it a fresh one.
    fn successor(&self) -> Result<TransposedFile> {
        let generation = self.generation + 1;
        let mut columns = Vec::with_capacity(self.columns.len());
        for col in &self.columns {
            let mut next = Column::create(&self.pool, col.compression)?;
            for (si, info) in col.segments.iter().enumerate() {
                let bytes = Self::segment_bytes(col, si)?;
                let rid = next.file.insert(&bytes).map_err(DataError::Storage)?;
                let zone = match Self::zone_record(col, si, self.generation) {
                    Some((_, mut record)) => {
                        ZoneMap::restamp_tagged(&mut record, generation);
                        next.zones.insert(&record).ok()
                    }
                    None => {
                        let values = Self::load_segment(col, si)?;
                        Self::write_zone(&mut next.zones, &values, generation)
                    }
                };
                next.segments.push(SegmentInfo { rid, zone, ..*info });
            }
            columns.push(next);
        }
        Ok(TransposedFile {
            pool: self.pool.clone(),
            schema: self.schema.clone(),
            columns,
            rows: self.rows,
            generation,
        })
    }

    /// Pages holding zone-map records (across all columns), disjoint
    /// from data pages. Exposed so fault-injection tests can corrupt
    /// exactly the advisory statistics and assert scans degrade to
    /// unpruned rather than answer wrongly.
    #[must_use]
    pub fn zone_page_ids(&self) -> Vec<PageId> {
        let mut out: Vec<PageId> = self.columns.iter().flat_map(|c| c.zones.pages()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl TableStore for TransposedFile {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn read_column(&self, attribute: &str) -> Result<Vec<Value>> {
        self.read_column_range(attribute, 0, self.rows)
    }

    fn read_column_range(&self, attribute: &str, start: usize, len: usize) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(len.min(self.rows));
        self.read_into(attribute, start, len, &mut out)?;
        Ok(out)
    }

    fn read_column_batch(&self, attribute: &str, start: usize, len: usize) -> Result<ColumnBatch> {
        // Decoded straight into the typed batch: RLE and dictionary
        // segments contribute runs (one `Value` per run), raw segments
        // decode primitive payloads directly into the lane.
        let mut out = ColumnBatch::new();
        self.read_into(attribute, start, len, &mut out)?;
        Ok(out)
    }

    fn range_stats(&self, attribute: &str, start: usize, len: usize) -> Option<ZoneMap> {
        let mut merged = ZoneMap::default();
        // Pruning decisions cover whole segments: a map describes its
        // full segment, so partial overlap still merges the whole map
        // (conservative — a superset of the range). Any failure — bad
        // range, unknown attribute, one missing map — is "no statistics".
        self.for_each_overlap(attribute, start, len, |col, si, _, _| {
            let zone = Self::load_zone(col, si, self.generation)
                .ok_or(DataError::Decode("segment has no zone map"))?;
            merged.merge(&zone);
            Ok(())
        })
        .ok()?;
        Some(merged)
    }

    fn read_row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.rows {
            return Err(DataError::NoSuchRow(row));
        }
        // One segment fetch *per column* — the informational-query
        // penalty of transposed files. Only the addressed row is
        // decoded from each record.
        let mut out = Vec::with_capacity(self.columns.len());
        for col in &self.columns {
            Self::read_cell(col, row, &mut out)?;
        }
        Ok(out)
    }

    fn get_cell(&self, row: usize, attribute: &str) -> Result<Value> {
        let ci = self.schema.require(attribute)?;
        if row >= self.rows {
            return Err(DataError::NoSuchRow(row));
        }
        let mut cell = Vec::with_capacity(1);
        Self::read_cell(&self.columns[ci], row, &mut cell)?;
        cell.pop()
            .ok_or(DataError::Decode("segment directory out of sync"))
    }

    fn set_cell(&mut self, row: usize, attribute: &str, value: Value) -> Result<Value> {
        let mut old = Vec::with_capacity(1);
        self.set_cells(attribute, &[(row, value)], &mut old)?;
        old.pop()
            .ok_or(DataError::Decode("segment directory out of sync"))
    }

    /// Each maximal run of consecutive cells in one segment is one
    /// load, one store and one zone map: an update whose rows ascend
    /// or descend stores each touched segment once. The cells are
    /// checked before anything is written, and a run's old values
    /// reach `olds` only after its segment has been stored.
    fn set_cells(
        &mut self,
        attribute: &str,
        cells: &[(usize, Value)],
        olds: &mut Vec<Value>,
    ) -> Result<()> {
        let ci = self.schema.require(attribute)?;
        for (row, value) in cells {
            self.schema.check_cell(attribute, value)?;
            if *row >= self.rows {
                return Err(DataError::NoSuchRow(*row));
            }
        }
        let generation = self.generation;
        let col = &mut self.columns[ci];
        let mut rest = cells;
        while let Some(&(first, _)) = rest.first() {
            let si = Self::segment_of_row(col, first)?;
            let SegmentInfo { start_row, len, .. } = col.segments[si];
            let n = rest
                .iter()
                .position(|(row, _)| !(start_row..start_row + len).contains(row))
                .unwrap_or(rest.len());
            let (run, tail) = rest.split_at(n);
            let mut vals = Self::load_segment(col, si)?;
            let mut replaced = Vec::with_capacity(run.len());
            for (row, value) in run {
                replaced.push(std::mem::replace(&mut vals[row - start_row], value.clone()));
            }
            Self::store_segment(col, si, &vals, generation)?;
            olds.append(&mut replaced);
            rest = tail;
        }
        Ok(())
    }

    fn add_column(&mut self, attr: sdbms_data::Attribute, values: Vec<Value>) -> Result<()> {
        if values.len() != self.rows {
            return Err(DataError::ArityMismatch {
                expected: self.rows,
                got: values.len(),
            });
        }
        let compression = default_compression(attr.dtype);
        let new_schema = self.schema.with_appended(attr)?;
        // A new column file — no existing data moves (the transposed
        // layout's schema-growth advantage).
        let mut col = Column::create(&self.pool, compression)?;
        Self::append_segments(&mut col, &values, 0, self.generation)?;
        self.columns.push(col);
        self.schema = new_schema;
        Ok(())
    }

    fn data_page_ids(&self) -> Vec<PageId> {
        let mut out: Vec<PageId> = self.columns.iter().flat_map(|c| c.file.pages()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn zone_map_page_ids(&self) -> Vec<PageId> {
        self.zone_page_ids()
    }

    fn rebuild_zone_maps(&mut self) -> Result<usize> {
        let pool = self.pool.clone();
        // Move to the next generation before writing anything: even if
        // an abandoned pre-rebuild map page were somehow consulted
        // again, its stamp no longer matches and it cannot prune.
        self.generation += 1;
        let generation = self.generation;
        let mut written = 0usize;
        for col in &mut self.columns {
            // The old zones file may hold damaged pages, and inserting
            // into a damaged heap can itself fail — so rebuilt maps go
            // to a fresh file and the old pages are abandoned. Maps are
            // derived purely from segment data (the rung's authority);
            // an unreadable segment propagates as an error, telling the
            // caller this damage is above the zone-map rung.
            let mut zones = HeapFile::create(pool.clone()).map_err(DataError::Storage)?;
            for si in 0..col.segments.len() {
                let vals = Self::load_segment(col, si)?;
                col.segments[si].zone = Self::write_zone(&mut zones, &vals, generation);
                if col.segments[si].zone.is_some() {
                    written += 1;
                }
            }
            col.zones = zones;
        }
        Ok(written)
    }

    fn to_dataset(&self, name: &str) -> Result<DataSet> {
        // By column: every segment is fetched and decoded once, then
        // the column vectors are consumed while zipping rows.
        let mut columns = self
            .schema
            .attributes()
            .iter()
            .map(|a| self.read_column(&a.name).map(Vec::into_iter))
            .collect::<Result<Vec<_>>>()?;
        let mut ds = DataSet::new(name, self.schema.clone());
        for _ in 0..self.rows {
            ds.push_row(columns.iter_mut().filter_map(Iterator::next).collect())?;
        }
        Ok(ds)
    }

    fn boxed_clone(&self) -> Result<Box<dyn TableStore + Send + Sync>> {
        Ok(Box::new(self.successor()?))
    }

    fn store_generation(&self) -> u64 {
        self.generation
    }

    fn segment_count(&self, attribute: &str) -> usize {
        self.schema
            .require(attribute)
            .map_or(0, |ci| self.columns[ci].segments.len())
    }

    fn encoded_segment(&self, attribute: &str, segment: usize) -> Result<Option<Vec<u8>>> {
        let ci = self.schema.require(attribute)?;
        let col = &self.columns[ci];
        if segment >= col.segments.len() {
            return Ok(None);
        }
        Self::segment_bytes(col, segment).map(Some)
    }

    fn append_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.schema.check_row(&row)?;
        let generation = self.generation;
        for (ci, v) in row.into_iter().enumerate() {
            let col = &mut self.columns[ci];
            match col.segments.last().copied() {
                Some(last) if last.len < SEGMENT_ROWS => {
                    let si = col.segments.len() - 1;
                    let mut vals = Self::load_segment(col, si)?;
                    vals.push(v);
                    Self::store_segment(col, si, &vals, generation)?;
                }
                _ => Self::append_segments(col, &[v], self.rows, generation)?,
            }
        }
        self.rows += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbms_data::census::{figure1, microdata_census, CensusConfig};
    use sdbms_storage::StorageEnv;

    fn micro(rows: usize) -> DataSet {
        microdata_census(&CensusConfig {
            rows,
            ..Default::default()
        })
        .unwrap()
    }

    fn column<'a>(t: &'a TransposedFile, attribute: &str) -> &'a Column {
        &t.columns[t.schema.require(attribute).unwrap()]
    }

    /// How many segments of one column have a readable zone map.
    fn zone_map_count(t: &TransposedFile, attribute: &str) -> usize {
        let col = column(t, attribute);
        (0..col.segments.len())
            .filter(|&si| TransposedFile::load_zone(col, si, t.generation).is_some())
            .count()
    }

    #[test]
    fn roundtrip_figure1() {
        let env = StorageEnv::new(64);
        let t = TransposedFile::from_dataset(env.pool, &figure1()).unwrap();
        assert_eq!(t.len(), 9);
        let ds = t.to_dataset("check").unwrap();
        assert_eq!(ds.rows(), figure1().rows());
    }

    #[test]
    fn roundtrip_large_multisegment() {
        let env = StorageEnv::new(256);
        let ds = micro(1000);
        let t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        assert_eq!(t.len(), 1000);
        for attr in ["AGE", "INCOME", "SEX", "REGION"] {
            let col = t.read_column(attr).unwrap();
            let expect: Vec<Value> = ds.column(attr).unwrap().cloned().collect();
            assert_eq!(col, expect, "column {attr}");
        }
        assert_eq!(t.read_row(999).unwrap(), ds.rows()[999]);
        assert!(t.read_row(1000).is_err());
    }

    #[test]
    fn column_read_touches_fewer_pages_than_row_store() {
        use crate::rowstore::RowStore;
        let ds = micro(4000);
        // Tiny pools so I/O actually happens.
        let env_t = StorageEnv::new(4);
        let mut t = TransposedFile::from_dataset(env_t.pool.clone(), &ds).unwrap();
        let env_r = StorageEnv::new(4);
        let r = RowStore::from_dataset(env_r.pool.clone(), &ds).unwrap();

        env_t.tracker.reset();
        let _ = t.read_column("INCOME").unwrap();
        let t_reads = env_t.tracker.snapshot().page_reads;

        env_r.tracker.reset();
        let _ = r.read_column("INCOME").unwrap();
        let r_reads = env_r.tracker.snapshot().page_reads;

        assert!(
            t_reads * 3 < r_reads,
            "transposed {t_reads} pages vs row {r_reads} pages"
        );

        // And the informational query reverses the comparison.
        env_t.tracker.reset();
        let _ = t.read_row(2000).unwrap();
        let t_row = env_t.tracker.snapshot().page_reads;
        env_r.tracker.reset();
        let _ = r.read_row(2000).unwrap();
        let r_row = env_r.tracker.snapshot().page_reads;
        assert!(
            r_row <= t_row,
            "row store row read {r_row} should not exceed transposed {t_row}"
        );
        // Silence unused-mut lint (set_cell exercised elsewhere).
        let _ = t.set_cell(0, "AGE", Value::Int(30)).unwrap();
    }

    #[test]
    fn set_cell_preserves_neighbors() {
        let env = StorageEnv::new(64);
        let ds = micro(600);
        let mut t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        let old = t.set_cell(300, "AGE", Value::Int(77)).unwrap();
        assert_eq!(old, ds.rows()[300][4]);
        assert_eq!(t.get_cell(300, "AGE").unwrap(), Value::Int(77));
        assert_eq!(t.get_cell(299, "AGE").unwrap(), ds.rows()[299][4]);
        assert_eq!(t.get_cell(301, "AGE").unwrap(), ds.rows()[301][4]);
        // Invalidation: mark missing.
        t.set_cell(300, "AGE", Value::Missing).unwrap();
        let ages = t.read_column("AGE").unwrap();
        assert_eq!(ages.iter().filter(|v| v.is_missing()).count(), 1);
    }

    /// Cells over four segments: ascending, a row written twice, then
    /// descending.
    fn spread_cells() -> Vec<(usize, Value)> {
        let up = (0..900).step_by(7).map(|r| (r, Value::Int(r as i64 % 90)));
        let again = [(301, Value::Int(5)), (301, Value::Int(6))];
        let down = (0..900).rev().step_by(50).map(|r| (r, Value::Missing));
        up.chain(again).chain(down).collect()
    }

    #[test]
    fn set_cells_equals_the_set_cell_loop() {
        let ds = micro(1000);
        let env = StorageEnv::new(256);
        let mut batched = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        let mut looped = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        let cells = spread_cells();
        let mut olds = Vec::new();
        batched.set_cells("AGE", &cells, &mut olds).unwrap();
        let looped_olds: Vec<Value> = cells
            .iter()
            .map(|(row, v)| looped.set_cell(*row, "AGE", v.clone()).unwrap())
            .collect();
        assert_eq!(olds, looped_olds);
        // The second write of a row returns the first one's value.
        let at = cells.iter().rposition(|&(r, _)| r == 301).unwrap() - 1;
        assert_eq!(olds[at + 1], Value::Int(5));
        for si in 0..batched.segment_count("AGE") {
            assert_eq!(
                batched.encoded_segment("AGE", si).unwrap(),
                looped.encoded_segment("AGE", si).unwrap(),
                "segment {si}"
            );
        }
        assert_eq!(zone_map_count(&batched, "AGE"), 4);
        // Every cell is checked before the first write.
        let bad = [(0, Value::Int(1)), (1_000, Value::Int(1))];
        assert!(batched.set_cells("AGE", &bad, &mut olds).is_err());
        let bad = [(0, Value::Int(1)), (1, Value::Str("x".into()))];
        assert!(batched.set_cells("AGE", &bad, &mut olds).is_err());
        assert_eq!(olds.len(), cells.len());
        assert_eq!(
            batched.read_column("AGE").unwrap(),
            looped.read_column("AGE").unwrap()
        );
    }

    #[test]
    fn set_cells_stores_each_run_of_a_segment_once() {
        let ds = micro(1000);
        let env = StorageEnv::new(256);
        let mut t = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        // Page accesses of one write, in the pool or from disk.
        let touched = |t: &mut TransposedFile, cells: &[(usize, Value)]| {
            env.tracker.reset();
            t.set_cells("INCOME", cells, &mut Vec::new()).unwrap();
            let io = env.tracker.snapshot();
            io.page_reads + io.pool_hits
        };
        let one_per_segment: Vec<_> = (0..4).map(|s| (s * 256, Value::Float(1.0))).collect();
        let dense: Vec<_> = (0..1000).map(|r| (r, Value::Float(r as f64))).collect();
        let (few, many) = (touched(&mut t, &one_per_segment), touched(&mut t, &dense));
        assert_eq!(few, many, "4 cells and 1000 cells over the same 4 segments");
    }

    #[test]
    fn a_failed_set_cells_reports_whole_segments_written() {
        use sdbms_storage::FaultPlan;
        let ds = micro(1000);
        let cells = spread_cells();
        // Cells before which a new segment run starts, and the end.
        let mut boundaries: Vec<usize> = (1..cells.len())
            .filter(|&i| cells[i].0 / SEGMENT_ROWS != cells[i - 1].0 / SEGMENT_ROWS)
            .collect();
        boundaries.extend([0, cells.len()]);
        let mut failed = 0;
        for offset in 1..40 {
            // A pool of 4 pages, so storing segments reaches the disk.
            let env = StorageEnv::new(4);
            let mut t = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
            let ops = env.injector.ops();
            env.injector.set_plan(FaultPlan {
                crash_at_op: Some(ops + offset),
                ..FaultPlan::none()
            });
            let mut olds = Vec::new();
            if t.set_cells("AGE", &cells, &mut olds).is_err() {
                failed += 1;
                assert!(
                    boundaries.contains(&olds.len()),
                    "+{offset}: {} olds is not a segment boundary",
                    olds.len()
                );
            }
        }
        assert!(failed > 0, "no offset failed the write");
    }

    #[test]
    fn append_rows_one_at_a_time() {
        let env = StorageEnv::new(64);
        let mut t = TransposedFile::create(env.pool, figure1().schema().clone()).unwrap();
        for row in figure1().rows() {
            t.append_row(row.clone()).unwrap();
        }
        assert_eq!(t.len(), 9);
        assert_eq!(t.to_dataset("x").unwrap().rows(), figure1().rows());
    }

    #[test]
    fn bulk_append_after_partial_segment() {
        let env = StorageEnv::new(128);
        let ds = micro(300);
        let mut t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        let ds2 = micro(300);
        // Appending again must keep all rows addressable even though the
        // previous tail segment was partial.
        t.bulk_append(&ds2).unwrap();
        assert_eq!(t.len(), 600);
        assert_eq!(t.read_row(0).unwrap(), ds.rows()[0]);
        assert_eq!(t.read_row(300).unwrap(), ds2.rows()[0]);
        assert_eq!(t.read_row(599).unwrap(), ds2.rows()[299]);
        let ages = t.read_column("AGE").unwrap();
        assert_eq!(ages.len(), 600);
    }

    #[test]
    fn range_reads_match_full_column() {
        let env = StorageEnv::new(256);
        let ds = micro(1000);
        let t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        let full = t.read_column("INCOME").unwrap();
        // Segment-aligned, straddling, single-row, empty, and tail ranges.
        for (start, len) in [(0, 256), (200, 300), (999, 1), (500, 0), (768, 232)] {
            let got = t.read_column_range("INCOME", start, len).unwrap();
            assert_eq!(got, full[start..start + len], "range ({start}, {len})");
        }
        assert_eq!(t.read_column_range("INCOME", 0, 1000).unwrap(), full);
        assert!(t.read_column_range("INCOME", 900, 101).is_err());
        assert!(t.read_column_range("NOPE", 0, 1).is_err());
    }

    #[test]
    fn range_read_touches_only_its_segments() {
        let env = StorageEnv::new(4);
        let ds = micro(4000);
        let t = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        env.tracker.reset();
        let _ = t.read_column("INCOME").unwrap();
        let full_reads = env.tracker.snapshot().page_reads;
        env.tracker.reset();
        let _ = t.read_column_range("INCOME", 0, SEGMENT_ROWS).unwrap();
        let range_reads = env.tracker.snapshot().page_reads;
        assert!(
            range_reads * 4 < full_reads.max(4),
            "one-segment range read {range_reads} pages vs full column {full_reads}"
        );
    }

    #[test]
    fn zone_maps_cover_every_segment_after_bulk_load() {
        let env = StorageEnv::new(256);
        let ds = micro(1000);
        let t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        for attr in ["AGE", "INCOME", "SEX", "REGION"] {
            assert_eq!(zone_map_count(&t, attr), 4, "{attr}");
            let zm = t.range_stats(attr, 0, 1000).expect("full-column stats");
            assert_eq!(zm.rows, 1000);
            let col = t.read_column(attr).unwrap();
            assert_eq!(zm, crate::zonemap::ZoneMap::build(&col), "{attr}");
        }
        // Per-morsel stats merge exactly too (two segments).
        let zm = t.range_stats("AGE", 256, 512).unwrap();
        let col = t.read_column_range("AGE", 256, 512).unwrap();
        assert_eq!(zm, crate::zonemap::ZoneMap::build(&col));
        // Out-of-bounds range: no stats.
        assert!(t.range_stats("AGE", 900, 200).is_none());
        assert!(t.range_stats("NOPE", 0, 10).is_none());
    }

    #[test]
    fn set_cell_recomputes_zone_map_not_stale() {
        let env = StorageEnv::new(256);
        let ds = micro(600);
        let mut t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        let before = t.range_stats("AGE", 256, 256).expect("stats");
        assert!(!before.may_contain(&Value::Int(5000)));
        t.set_cell(300, "AGE", Value::Int(5000)).unwrap();
        let after = t.range_stats("AGE", 256, 256).expect("stats recomputed");
        assert!(
            after.may_contain(&Value::Int(5000)),
            "map must not be stale"
        );
        assert_eq!(after.max, Some(Value::Int(5000)));
    }

    #[test]
    fn corrupt_zone_page_degrades_to_no_stats_reads_still_work() {
        let env = StorageEnv::new(64);
        let ds = micro(700);
        let t = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        assert!(t.range_stats("AGE", 0, 700).is_some());
        env.pool.flush_all().unwrap();
        env.pool.discard_frames().unwrap();
        for pid in t.zone_page_ids() {
            env.disk.corrupt_page(pid, 5).unwrap();
        }
        // Stats gone (checksum rejects the pages)…
        assert!(t.range_stats("AGE", 0, 700).is_none());
        // …but data reads are untouched: zone pages are disjoint.
        let col = t.read_column("AGE").unwrap();
        assert_eq!(col.len(), 700);
    }

    #[test]
    fn append_and_repack_keep_zone_maps_fresh() {
        let env = StorageEnv::new(128);
        let mut t = TransposedFile::create(env.pool, figure1().schema().clone()).unwrap();
        for row in figure1().rows() {
            t.append_row(row.clone()).unwrap();
        }
        let zm = t.range_stats("AGE_GROUP", 0, t.len()).expect("stats");
        let col = t.read_column("AGE_GROUP").unwrap();
        assert_eq!(zm, crate::zonemap::ZoneMap::build(&col));
        // Bulk append triggers repack of the partial tail.
        let ds = micro(300);
        let mut t2 = TransposedFile::from_dataset(StorageEnv::new(128).pool, &ds).unwrap();
        t2.bulk_append(&micro(300)).unwrap();
        let zm = t2.range_stats("AGE", 0, 600).expect("stats after repack");
        assert_eq!(
            zm,
            crate::zonemap::ZoneMap::build(&t2.read_column("AGE").unwrap())
        );
    }

    #[test]
    fn boxed_clone_is_successor_version_on_fresh_pages() {
        let env = StorageEnv::new(256);
        let ds = micro(600);
        let t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        assert_eq!(t.store_generation(), 0);
        let mut shadow = t.boxed_clone().unwrap();
        assert_eq!(shadow.store_generation(), 1);
        assert_eq!(shadow.len(), t.len());
        // Disjoint pages: mutating the clone leaves the original alone.
        let t_pages: std::collections::HashSet<_> = t
            .data_page_ids()
            .into_iter()
            .chain(t.zone_map_page_ids())
            .collect();
        assert!(shadow
            .data_page_ids()
            .iter()
            .chain(shadow.zone_map_page_ids().iter())
            .all(|p| !t_pages.contains(p)));
        let before = t.get_cell(10, "AGE").unwrap();
        shadow.set_cell(10, "AGE", Value::Int(101)).unwrap();
        assert_eq!(t.get_cell(10, "AGE").unwrap(), before);
        // The clone's zone maps are live at its own generation.
        let zm = shadow.range_stats("AGE", 0, 600).expect("clone has maps");
        assert_eq!(zm.rows, 600);
    }

    #[test]
    fn boxed_clone_keeps_each_columns_encoding() {
        let ds = micro(300);
        let raw = vec![Compression::None; ds.schema().len()];
        let defaults: Vec<Compression> = ds
            .schema()
            .attributes()
            .iter()
            .map(|a| default_compression(a.dtype))
            .collect();
        for compressions in [raw, defaults] {
            let env = StorageEnv::new(256);
            let mut t =
                TransposedFile::create_with(env.pool, ds.schema().clone(), &compressions).unwrap();
            // Two bulk loads leave a partial segment mid-column, and
            // row-at-a-time appends grow the partial tail: segments of
            // 256, 44, 256 and 47 rows, which a re-chunking clone would
            // lay out as 256, 256 and 91.
            t.bulk_append(&ds).unwrap();
            t.bulk_append(&ds).unwrap();
            for row in &ds.rows()[..3] {
                t.append_row(row.clone()).unwrap();
            }
            assert_eq!(t.segment_count("AGE"), 4);
            let shadow = t.boxed_clone().unwrap();
            assert_eq!(shadow.len(), 603);
            for attr in ds.schema().attributes() {
                let name = &attr.name;
                assert_eq!(shadow.segment_count(name), t.segment_count(name), "{name}");
                for si in 0..t.segment_count(name) {
                    assert!(
                        shadow.encoded_segment(name, si).unwrap()
                            == t.encoded_segment(name, si).unwrap(),
                        "{name} segment {si} was re-encoded"
                    );
                }
                assert_eq!(
                    shadow.read_column(name).unwrap(),
                    t.read_column(name).unwrap()
                );
                assert_eq!(
                    shadow.range_stats(name, 0, 603),
                    t.range_stats(name, 0, 603)
                );
            }
        }
    }

    /// Each column's zone-map records, decoded: `(map, stamp)` per
    /// segment, `None` where the segment has no readable record.
    fn zone_records(t: &TransposedFile) -> Vec<Vec<Option<(ZoneMap, u64)>>> {
        t.columns
            .iter()
            .map(|col| {
                col.segments
                    .iter()
                    .map(|s| {
                        let bytes = col.zones.get(s.zone?).ok()?;
                        ZoneMap::decode_tagged(&bytes).ok()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn boxed_clone_copies_each_zone_map_at_the_next_generation() {
        let env = StorageEnv::new(256);
        let mut t = TransposedFile::from_dataset(env.pool, &micro(700)).unwrap();
        t.rebuild_zone_maps().unwrap();
        let shadow = t.successor().unwrap();
        assert_eq!(shadow.generation(), 2);
        let (src, copy) = (zone_records(&t), zone_records(&shadow));
        assert_eq!(copy.len(), src.len());
        for (s, c) in src.iter().zip(&copy) {
            assert_eq!(s.len(), c.len());
            for (s, c) in s.iter().zip(c) {
                let (s, c) = (s.as_ref().unwrap(), c.as_ref().unwrap());
                assert_eq!((&c.0, c.1), (&s.0, s.1 + 1), "same map, next stamp");
            }
        }
        for attr in t.schema().attributes() {
            assert_eq!(
                zone_map_count(&shadow, &attr.name),
                t.segment_count(&attr.name)
            );
        }
    }

    /// Every zone map the clone serves is the map of its segment's
    /// values; returns how many it serves.
    fn assert_no_stale_map(shadow: &TransposedFile) -> usize {
        let mut served = 0;
        for (ci, col) in shadow.columns.iter().enumerate() {
            for si in 0..col.segments.len() {
                if let Some(zm) = TransposedFile::load_zone(col, si, shadow.generation) {
                    let values = TransposedFile::load_segment(col, si).unwrap();
                    assert_eq!(zm, ZoneMap::build(&values), "column {ci} segment {si}");
                    served += 1;
                }
            }
        }
        served
    }

    #[test]
    fn a_damaged_source_zone_page_gives_the_clone_a_rebuilt_map_never_a_stale_one() {
        let env = StorageEnv::new(64);
        let t = TransposedFile::from_dataset(env.pool.clone(), &micro(700)).unwrap();
        env.pool.flush_all().unwrap();
        env.pool.discard_frames().unwrap();
        for pid in t.zone_page_ids() {
            env.disk.corrupt_page(pid, 5).unwrap();
        }
        assert!(t.range_stats("AGE", 0, 700).is_none());
        let shadow = t.successor().unwrap();
        assert!(
            assert_no_stale_map(&shadow) > 0,
            "the clone writes maps to fresh pages"
        );
    }

    #[test]
    fn a_source_map_of_another_generation_is_rebuilt_not_restamped() {
        let env = StorageEnv::new(256);
        let mut t = TransposedFile::from_dataset(env.pool, &micro(600)).unwrap();
        t.rebuild_zone_maps().unwrap();
        // Segment 0 of AGE points at a map from the previous generation
        // claiming every AGE is 5000: the source does not serve it, so
        // the clone must not adopt it under its own stamp.
        let stale = ZoneMap::build(&vec![Value::Int(5000); 256]).encode_tagged(0);
        let ci = t.schema.require("AGE").unwrap();
        let col = &mut t.columns[ci];
        col.segments[0].zone = Some(col.zones.insert(&stale).unwrap());
        assert!(t.range_stats("AGE", 0, 256).is_none());
        let shadow = t.successor().unwrap();
        let served = assert_no_stale_map(&shadow);
        assert_eq!(served, 3 * shadow.columns.len(), "every segment has a map");
    }

    #[test]
    fn a_map_at_the_source_generation_never_prunes_the_clone() {
        let env = StorageEnv::new(256);
        let t = TransposedFile::from_dataset(env.pool, &micro(600)).unwrap();
        let mut shadow = t.successor().unwrap();
        // A map for segment 0 stamped with the source's generation,
        // claiming every AGE is 5000, so it would prune any scan for a
        // real age.
        let stale = ZoneMap::build(&vec![Value::Int(5000); 256]).encode_tagged(t.generation());
        let ci = shadow.schema.require("AGE").unwrap();
        let col = &mut shadow.columns[ci];
        col.segments[0].zone = Some(col.zones.insert(&stale).unwrap());
        assert!(TransposedFile::load_zone(col, 0, shadow.generation).is_none());
        assert!(shadow.range_stats("AGE", 0, 256).is_none());
        assert!(shadow.range_stats("AGE", 0, 600).is_none());
        assert!(shadow.range_stats("AGE", 256, 256).is_some());
    }

    #[test]
    fn to_dataset_reads_each_page_about_once() {
        // Far smaller pool than the store: a row-at-a-time read would
        // re-fetch a page per row per column.
        let env = StorageEnv::new(4);
        let ds = micro(4000);
        let t = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        env.tracker.reset();
        let back = t.to_dataset("check").unwrap();
        let reads = env.tracker.snapshot().page_reads;
        assert_eq!(back.rows(), ds.rows());
        assert!(
            reads <= 2 * t.page_count() as u64,
            "{reads} page reads for a {}-page store",
            t.page_count()
        );
    }

    #[test]
    fn rebuild_bumps_generation_and_old_maps_cannot_prune() {
        let env = StorageEnv::new(256);
        let ds = micro(400);
        let mut t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        assert_eq!(t.generation(), 0);
        t.rebuild_zone_maps().unwrap();
        assert_eq!(t.generation(), 1);
        // Rebuilt maps serve the new generation exactly.
        let zm = t.range_stats("AGE", 0, 400).expect("rebuilt maps");
        assert_eq!(
            zm,
            crate::zonemap::ZoneMap::build(&t.read_column("AGE").unwrap())
        );
    }

    #[test]
    fn batch_reads_match_range_reads() {
        let env = StorageEnv::new(256);
        let ds = micro(1000);
        let t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
        for attr in ["AGE", "INCOME", "SEX", "REGION"] {
            for (start, len) in [
                (0, 1000),
                (0, 256),
                (200, 300),
                (999, 1),
                (500, 0),
                (768, 232),
            ] {
                let batch = t.read_column_batch(attr, start, len).unwrap();
                let want = t.read_column_range(attr, start, len).unwrap();
                assert_eq!(batch.to_values(), want, "{attr} ({start},{len})");
                assert_eq!(batch.rows(), len, "{attr} ({start},{len})");
            }
        }
        assert!(t.read_column_batch("INCOME", 900, 101).is_err());
        assert!(t.read_column_batch("NOPE", 0, 1).is_err());
    }

    #[test]
    fn corrupt_data_page_reads_fail_cleanly_or_return_the_original_values() {
        let env = StorageEnv::new(64);
        let ds = micro(700);
        let t = TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        env.pool.flush_all().unwrap();
        env.pool.discard_frames().unwrap();
        let victim = t.data_page_ids()[0];
        env.disk.corrupt_page(victim, 21).unwrap();
        // A read that touches the flipped page is a typed checksum
        // error; one that does not returns exactly what was loaded —
        // never silently different data.
        let mut failed = 0;
        for attr in ds.schema().attributes() {
            match t.read_column(&attr.name) {
                Ok(col) => {
                    let want: Vec<Value> = ds.column(&attr.name).unwrap().cloned().collect();
                    assert_eq!(col, want, "{}", attr.name);
                }
                Err(DataError::Storage(
                    sdbms_storage::StorageError::ChecksumMismatch { .. }
                    | sdbms_storage::StorageError::Corrupt(_),
                )) => failed += 1,
                Err(e) => panic!("{}: unexpected error {e:?}", attr.name),
            }
        }
        assert!(failed >= 1, "the victim page backs at least one column");
    }

    #[test]
    fn every_reader_refuses_a_damaged_segment_record() {
        fn is_decode<T>(r: Result<T>) -> bool {
            matches!(r, Err(DataError::Decode(_)))
        }
        let ds = micro(1000);
        // Segment 1 holds rows 256..512; 511 is the row whose window
        // reaches the record's stored count.
        for (attr, compression, runs_overshoot) in [
            ("INCOME", Compression::None, false),
            ("SEX", Compression::Dictionary, false),
            ("AGE", Compression::Rle, true),
        ] {
            let env = StorageEnv::new(256);
            let mut t = TransposedFile::from_dataset(env.pool, &ds).unwrap();
            assert_eq!(column(&t, attr).compression, compression);
            let want = t.read_column(attr).unwrap();
            let mut bytes = t.encoded_segment(attr, 1).unwrap().unwrap();
            if runs_overshoot {
                // Lengthen the first run (`u16` after the header, tag
                // and run count) so the runs sum past the header count.
                let len = u16::from_le_bytes([bytes[5], bytes[6]]) + 1;
                bytes[5..7].copy_from_slice(&len.to_le_bytes());
            } else {
                bytes.push(0);
            }
            let ci = t.schema.require(attr).unwrap();
            let col = &mut t.columns[ci];
            col.segments[1].rid = col.file.update(col.segments[1].rid, &bytes).unwrap();

            assert!(is_decode(t.read_column(attr)), "{attr} read_column");
            assert!(
                is_decode(t.read_column_range(attr, 0, 1000)),
                "{attr} read_column_range"
            );
            assert!(
                is_decode(t.read_column_batch(attr, 0, 1000)),
                "{attr} read_column_batch"
            );
            assert!(is_decode(t.read_row(511)), "{attr} read_row");
            assert!(is_decode(t.get_cell(511, attr)), "{attr} get_cell");
            assert!(
                is_decode(t.set_cell(300, attr, want[0].clone())),
                "{attr} set_cell"
            );
            // The neighbouring segments still read.
            assert_eq!(t.read_column_range(attr, 0, 256).unwrap(), want[..256]);
            assert_eq!(t.read_column_range(attr, 512, 488).unwrap(), want[512..]);
            assert_eq!(t.get_cell(255, attr).unwrap(), want[255]);
            assert_eq!(t.read_row(512).unwrap(), ds.rows()[512]);
        }
    }

    #[test]
    fn mismatched_compressions_rejected() {
        let env = StorageEnv::new(16);
        let r =
            TransposedFile::create_with(env.pool, figure1().schema().clone(), &[Compression::None]);
        assert!(r.is_err());
    }
}
