//! Long records: values spanning multiple pages.
//!
//! WiSS (the storage system the paper planned to build on) supported
//! "long data items"; we need them because Summary Database entries are
//! explicitly varying-length (§3.2) and can exceed a page — a
//! fine-grained histogram, a verbal data-set description, a wide
//! frequency table.
//!
//! A long record is a chain of heap-file chunks. Each chunk starts with
//! a 7-byte header — `u8` has-next flag, then the successor's record
//! id — followed by payload. Chunks are inserted tail-first so every
//! chunk knows its successor at insert time; the returned [`Rid`] is
//! the head chunk's.

use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::heap::{HeapFile, Rid, MAX_RECORD};

/// Per-chunk header: flag byte + page id + slot.
const HEADER: usize = 1 + 4 + 2;

/// Payload capacity per chunk.
pub const CHUNK_PAYLOAD: usize = MAX_RECORD - HEADER;

/// A heap file storing records of unbounded length.
pub struct LongRecordFile {
    file: HeapFile,
}

impl std::fmt::Debug for LongRecordFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LongRecordFile")
            .field("chunks", &self.file.record_count())
            .field("pages", &self.file.page_count())
            .finish()
    }
}

fn encode_chunk(next: Option<Rid>, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER + payload.len());
    match next {
        Some(rid) => {
            buf.push(1);
            buf.extend_from_slice(&rid.page.to_le_bytes());
            buf.extend_from_slice(&rid.slot.to_le_bytes());
        }
        None => {
            buf.push(0);
            buf.extend_from_slice(&[0u8; 6]);
        }
    }
    buf.extend_from_slice(payload);
    buf
}

fn decode_chunk(bytes: &[u8]) -> Result<(Option<Rid>, &[u8])> {
    if bytes.len() < HEADER {
        return Err(StorageError::corrupt("long-record chunk too short"));
    }
    let next = match bytes[0] {
        0 => None,
        1 => {
            let page = bytes[1..5]
                .try_into()
                .map_err(|_| StorageError::corrupt("long-record header truncated"))?;
            let slot = bytes[5..7]
                .try_into()
                .map_err(|_| StorageError::corrupt("long-record header truncated"))?;
            Some(Rid::new(u32::from_le_bytes(page), u16::from_le_bytes(slot)))
        }
        _ => return Err(StorageError::corrupt("bad long-record flag byte")),
    };
    Ok((next, &bytes[HEADER..]))
}

impl LongRecordFile {
    /// Create an empty long-record file.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        Ok(LongRecordFile {
            file: HeapFile::create(pool)?,
        })
    }

    /// Store `bytes` (any length), returning the head record id.
    pub fn insert(&self, bytes: &[u8]) -> Result<Rid> {
        // Insert tail-first so each chunk can point at its successor.
        let chunks: Vec<&[u8]> = if bytes.is_empty() {
            vec![&[][..]]
        } else {
            bytes.chunks(CHUNK_PAYLOAD).collect()
        };
        let mut next: Option<Rid> = None;
        for chunk in chunks.iter().rev() {
            let rid = self.file.insert(&encode_chunk(next, chunk))?;
            next = Some(rid);
        }
        next.ok_or_else(|| StorageError::corrupt("long record produced no chunks"))
    }

    /// Read the full record starting at `head`.
    pub fn get(&self, head: Rid) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut cursor = Some(head);
        while let Some(rid) = cursor {
            // Corrupt or crash-torn headers can link chunks into a
            // cycle; revisiting a chunk means the chain is damaged.
            if !seen.insert(rid) {
                return Err(StorageError::corrupt("long-record chunk cycle").at_page(rid.page));
            }
            let bytes = self.file.get(rid)?;
            let (next, payload) = decode_chunk(&bytes).map_err(|e| e.at_page(rid.page))?;
            out.extend_from_slice(payload);
            cursor = next;
        }
        Ok(out)
    }

    /// Delete the record starting at `head`, freeing every chunk.
    pub fn delete(&self, head: Rid) -> Result<()> {
        let mut seen = std::collections::HashSet::new();
        let mut cursor = Some(head);
        while let Some(rid) = cursor {
            if !seen.insert(rid) {
                return Err(StorageError::corrupt("long-record chunk cycle").at_page(rid.page));
            }
            let bytes = self.file.get(rid)?;
            let (next, _) = decode_chunk(&bytes).map_err(|e| e.at_page(rid.page))?;
            self.file.delete(rid)?;
            cursor = next;
        }
        Ok(())
    }

    /// Replace the record at `head` with `bytes`. The head id may
    /// change; callers maintaining an index must use the returned id.
    pub fn update(&self, head: Rid, bytes: &[u8]) -> Result<Rid> {
        self.delete(head)?;
        self.insert(bytes)
    }

    /// Number of disk pages used.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.file.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Tracker;
    use crate::disk::DiskManager;

    fn file(frames: usize) -> LongRecordFile {
        let disk = Arc::new(DiskManager::new(Tracker::new()));
        let pool = Arc::new(BufferPool::new(disk, frames));
        LongRecordFile::create(pool).unwrap()
    }

    fn blob(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn small_record_single_chunk() {
        let f = file(8);
        let rid = f.insert(b"short").unwrap();
        assert_eq!(f.get(rid).unwrap(), b"short");
        assert_eq!(f.file.record_count(), 1);
    }

    #[test]
    fn empty_record_roundtrip() {
        let f = file(8);
        let rid = f.insert(&[]).unwrap();
        assert_eq!(f.get(rid).unwrap(), Vec::<u8>::new());
        f.delete(rid).unwrap();
        assert_eq!(f.file.record_count(), 0);
    }

    #[test]
    fn multi_page_record_roundtrip() {
        let f = file(16);
        // 3.5 chunks worth.
        let data = blob(CHUNK_PAYLOAD * 3 + CHUNK_PAYLOAD / 2, 7);
        let rid = f.insert(&data).unwrap();
        assert_eq!(f.file.record_count(), 4);
        assert_eq!(f.get(rid).unwrap(), data);
    }

    #[test]
    fn boundary_sizes() {
        let f = file(16);
        for len in [
            CHUNK_PAYLOAD - 1,
            CHUNK_PAYLOAD,
            CHUNK_PAYLOAD + 1,
            2 * CHUNK_PAYLOAD,
        ] {
            let data = blob(len, len as u8);
            let rid = f.insert(&data).unwrap();
            assert_eq!(f.get(rid).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn delete_frees_all_chunks() {
        let f = file(16);
        let before = f.file.record_count();
        let rid = f.insert(&blob(CHUNK_PAYLOAD * 5, 3)).unwrap();
        assert_eq!(f.file.record_count(), before + 5);
        f.delete(rid).unwrap();
        assert_eq!(f.file.record_count(), before);
        assert!(f.get(rid).is_err(), "head chunk gone");
    }

    #[test]
    fn update_shrinks_and_grows() {
        let f = file(16);
        let rid = f.insert(&blob(CHUNK_PAYLOAD * 3, 1)).unwrap();
        let small = blob(100, 2);
        let rid2 = f.update(rid, &small).unwrap();
        assert_eq!(f.get(rid2).unwrap(), small);
        assert_eq!(f.file.record_count(), 1);
        let big = blob(CHUNK_PAYLOAD * 6, 3);
        let rid3 = f.update(rid2, &big).unwrap();
        assert_eq!(f.get(rid3).unwrap(), big);
        assert_eq!(f.file.record_count(), 6);
    }

    #[test]
    fn many_interleaved_records() {
        let f = file(32);
        let mut rids = Vec::new();
        for i in 0..30usize {
            let data = blob(i * 997, i as u8);
            rids.push((f.insert(&data).unwrap(), data));
        }
        // Delete every third.
        for (rid, _) in rids.iter().step_by(3) {
            f.delete(*rid).unwrap();
        }
        for (i, (rid, data)) in rids.iter().enumerate() {
            if i % 3 == 0 {
                continue;
            }
            assert_eq!(&f.get(*rid).unwrap(), data, "record {i}");
        }
    }

    #[test]
    fn works_with_tiny_pool() {
        let f = file(3);
        let data = blob(CHUNK_PAYLOAD * 10, 9);
        let rid = f.insert(&data).unwrap();
        assert_eq!(f.get(rid).unwrap(), data);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn prop_roundtrip_any_size(len in 0usize..20_000, seed: u8) {
            let f = file(16);
            let data = blob(len, seed);
            let rid = f.insert(&data).unwrap();
            proptest::prop_assert_eq!(f.get(rid).unwrap(), data);
        }
    }
}
