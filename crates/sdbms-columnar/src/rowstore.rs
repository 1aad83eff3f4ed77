//! Row-oriented view storage: one heap record per row.
//!
//! This is the layout a conventional DBMS gives you and the baseline
//! experiment E4 compares transposed files against: informational
//! queries (one row, all columns) cost one record fetch, but
//! statistical queries (one column, all rows) must read *every page of
//! the file*.

use std::sync::Arc;

use sdbms_data::{decode_row, encode_row, DataError, DataSet, Schema, Value};
use sdbms_storage::{BufferPool, HeapFile, Rid};

use crate::store::{Result, TableStore};

/// A view stored as whole-row records in a heap file.
pub struct RowStore {
    schema: Schema,
    file: HeapFile,
    /// Row index → record id (updates may move records).
    rids: Vec<Rid>,
}

impl std::fmt::Debug for RowStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowStore")
            .field("rows", &self.rids.len())
            .field("pages", &self.file.page_count())
            .finish()
    }
}

impl RowStore {
    /// Create an empty row store.
    pub fn create(pool: Arc<BufferPool>, schema: Schema) -> Result<Self> {
        Ok(RowStore {
            schema,
            file: HeapFile::create(pool).map_err(DataError::Storage)?,
            rids: Vec::new(),
        })
    }

    /// Bulk-load a data set.
    pub fn from_dataset(pool: Arc<BufferPool>, ds: &DataSet) -> Result<Self> {
        let mut store = Self::create(pool, ds.schema().clone())?;
        for row in ds.rows() {
            store.append_row(row.clone())?;
        }
        Ok(store)
    }

    /// Number of disk pages occupied.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.file.page_count()
    }

    fn rid(&self, row: usize) -> Result<Rid> {
        self.rids.get(row).copied().ok_or(DataError::NoSuchRow(row))
    }
}

impl TableStore for RowStore {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn len(&self) -> usize {
        self.rids.len()
    }

    fn read_column(&self, attribute: &str) -> Result<Vec<Value>> {
        let col = self.schema.require(attribute)?;
        // Sequential scan of the whole file — every page is touched even
        // though one column is wanted. Scan order is page order, so we
        // map rids back to row positions to return values in row order.
        let mut by_rid: std::collections::HashMap<Rid, usize> =
            self.rids.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let mut out = vec![Value::Missing; self.rids.len()];
        for rec in self.file.scan() {
            let (rid, bytes) = rec.map_err(DataError::Storage)?;
            if let Some(row_idx) = by_rid.remove(&rid) {
                let row = decode_row(&bytes)?;
                out[row_idx] = row
                    .get(col)
                    .cloned()
                    .ok_or(DataError::Decode("row shorter than schema"))?;
            }
        }
        if !by_rid.is_empty() {
            return Err(DataError::Decode("row store directory out of sync"));
        }
        Ok(out)
    }

    fn read_column_range(&self, attribute: &str, start: usize, len: usize) -> Result<Vec<Value>> {
        let col = self.schema.require(attribute)?;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.rids.len())
            .ok_or(DataError::NoSuchRow(start.saturating_add(len).max(1) - 1))?;
        // Fetch each row's record directly by rid — a range read touches
        // only the range's records, not every page like read_column.
        let mut out = Vec::with_capacity(len);
        for row in start..end {
            let mut vals = self.read_row(row)?;
            if col >= vals.len() {
                return Err(DataError::Decode("row shorter than schema"));
            }
            out.push(vals.swap_remove(col));
        }
        Ok(out)
    }

    fn read_row(&self, row: usize) -> Result<Vec<Value>> {
        let rid = self.rid(row)?;
        let bytes = self.file.get(rid).map_err(DataError::Storage)?;
        decode_row(&bytes)
    }

    fn data_page_ids(&self) -> Vec<sdbms_storage::PageId> {
        self.file.pages()
    }

    fn get_cell(&self, row: usize, attribute: &str) -> Result<Value> {
        let col = self.schema.require(attribute)?;
        Ok(self.read_row(row)?.swap_remove(col))
    }

    fn set_cell(&mut self, row: usize, attribute: &str, value: Value) -> Result<Value> {
        let col = self.schema.check_cell(attribute, &value)?;
        let mut vals = self.read_row(row)?;
        let old = std::mem::replace(&mut vals[col], value);
        let rid = self.rid(row)?;
        let new_rid = self
            .file
            .update(rid, &encode_row(&vals))
            .map_err(DataError::Storage)?;
        self.rids[row] = new_rid;
        Ok(old)
    }

    fn append_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.schema.check_row(&row)?;
        let rid = self
            .file
            .insert(&encode_row(&row))
            .map_err(DataError::Storage)?;
        self.rids.push(rid);
        Ok(())
    }

    fn boxed_clone(&self) -> Result<Box<dyn TableStore + Send + Sync>> {
        // Shadow copy onto fresh pages, record for record in row order;
        // the original's are never written, which is what makes
        // copy-on-write installs atomic.
        let mut next = Self::create(self.file.pool().clone(), self.schema.clone())?;
        for &rid in &self.rids {
            let bytes = self.file.get(rid).map_err(DataError::Storage)?;
            let copy = next.file.insert(&bytes).map_err(DataError::Storage)?;
            next.rids.push(copy);
        }
        Ok(Box::new(next))
    }

    fn add_column(&mut self, attr: sdbms_data::Attribute, values: Vec<Value>) -> Result<()> {
        if values.len() != self.rids.len() {
            return Err(DataError::ArityMismatch {
                expected: self.rids.len(),
                got: values.len(),
            });
        }
        let new_schema = self.schema.with_appended(attr)?;
        // Rewrite every record with the extra value (row layout pays
        // the full price for schema growth).
        for (i, v) in values.into_iter().enumerate() {
            let mut row = self.read_row(i)?;
            row.push(v);
            new_schema.check_row(&row)?;
            let rid = self.rids[i];
            let new_rid = self
                .file
                .update(rid, &encode_row(&row))
                .map_err(DataError::Storage)?;
            self.rids[i] = new_rid;
        }
        self.schema = new_schema;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbms_data::census::figure1;
    use sdbms_storage::StorageEnv;

    fn store() -> RowStore {
        let env = StorageEnv::new(64);
        RowStore::from_dataset(env.pool, &figure1()).unwrap()
    }

    #[test]
    fn roundtrip_figure1() {
        let s = store();
        assert_eq!(s.len(), 9);
        let ds = s.to_dataset("check").unwrap();
        assert_eq!(ds.rows(), figure1().rows());
    }

    #[test]
    fn read_column_in_row_order() {
        let s = store();
        let pops = s.read_column("POPULATION").unwrap();
        assert_eq!(pops[0], Value::Int(12_300_347));
        assert_eq!(pops[8], Value::Int(2_143_924));
        assert_eq!(pops.len(), 9);
    }

    #[test]
    fn set_cell_roundtrip() {
        let mut s = store();
        let old = s.set_cell(0, "POPULATION", Value::Int(1)).unwrap();
        assert_eq!(old, Value::Int(12_300_347));
        assert_eq!(s.get_cell(0, "POPULATION").unwrap(), Value::Int(1));
        // Type check enforced.
        assert!(s.set_cell(0, "POPULATION", Value::Float(1.0)).is_err());
        // Missing allowed anywhere.
        s.set_cell(1, "POPULATION", Value::Missing).unwrap();
        assert_eq!(s.get_cell(1, "POPULATION").unwrap(), Value::Missing);
    }

    #[test]
    fn range_reads_match_full_column() {
        let s = store();
        let full = s.read_column("POPULATION").unwrap();
        for (start, len) in [(0, 9), (3, 4), (8, 1), (4, 0)] {
            let got = s.read_column_range("POPULATION", start, len).unwrap();
            assert_eq!(got, full[start..start + len], "range ({start}, {len})");
        }
        assert!(s.read_column_range("POPULATION", 5, 5).is_err());
        assert!(s.read_column_range("NOPE", 0, 1).is_err());
    }

    #[test]
    fn bad_row_and_attr_errors() {
        let mut s = store();
        assert!(s.read_row(99).is_err());
        assert!(s.read_column("NOPE").is_err());
        assert!(s.append_row(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn boxed_clone_copies_data_onto_fresh_pages() {
        let s = store();
        let mut shadow = s.boxed_clone().unwrap();
        assert_eq!(shadow.len(), s.len());
        assert_eq!(
            shadow.to_dataset("shadow").unwrap().rows(),
            s.to_dataset("s").unwrap().rows()
        );
        assert_eq!(shadow.store_generation(), 0, "row layout tracks none");
        let s_pages: std::collections::HashSet<_> = s.data_page_ids().into_iter().collect();
        assert!(shadow.data_page_ids().iter().all(|p| !s_pages.contains(p)));
        let before = s.get_cell(2, "POPULATION").unwrap();
        shadow.set_cell(2, "POPULATION", Value::Int(0)).unwrap();
        assert_eq!(s.get_cell(2, "POPULATION").unwrap(), before);
    }

    #[test]
    fn many_rows_with_moved_updates() {
        let env = StorageEnv::new(32);
        let mut s = RowStore::create(env.pool, figure1().schema().clone()).unwrap();
        for i in 0..500i64 {
            s.append_row(vec![
                Value::Str("M".into()),
                Value::Str("W".into()),
                Value::Code(1),
                Value::Int(i),
                Value::Int(i * 2),
            ])
            .unwrap();
        }
        // Grow row 3's SEX string so the record has to move.
        s.set_cell(3, "SEX", Value::Str("a much longer marker string".into()))
            .unwrap();
        assert_eq!(
            s.get_cell(3, "SEX").unwrap(),
            Value::Str("a much longer marker string".into())
        );
        assert_eq!(s.get_cell(3, "POPULATION").unwrap(), Value::Int(3));
        assert_eq!(s.len(), 500);
        // Column read still aligned after the move.
        let pops = s.read_column("POPULATION").unwrap();
        assert_eq!(pops[3], Value::Int(3));
        assert_eq!(pops[499], Value::Int(499));
    }
}
