//! # sdbms-columnar — transposed files and compression
//!
//! §2.6 of the paper concludes that "the transposed file structure
//! appears to be the best all-around storage structure for statistical
//! data sets": exploratory/confirmatory operations read a few columns
//! of every row, so storing each column contiguously minimizes page
//! I/O, and run-length compression works *down* a column where category
//! cross-products produce long runs. The cost is the "informational"
//! query (one row, all columns), which must now touch one file per
//! column.
//!
//! - [`store`] — the [`store::TableStore`] trait both layouts
//!   implement, so the DBMS core can reorganize a live view.
//! - [`rowstore`] — the conventional row layout (baseline of
//!   experiment E4).
//! - [`transposed`] — one segment-chain file per column.
//! - [`segment`] — the segment format (raw / RLE / dictionary): its
//!   one encoder and its one decoder, which feeds both `Vec<Value>`
//!   readers and typed batches.
//! - [`rle`] — run-length codecs and the column-vs-row compression
//!   ratio measurements of experiment E5.
//! - [`zonemap`] — per-segment statistics for predicate pruning and
//!   run-aware (compressed-domain) aggregation.
//! - [`batch`] — typed column batches ([`batch::ColumnBatch`]) decoded
//!   straight from segment bytes, the unit the vectorized kernels in
//!   `sdbms-exec` consume.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod rle;
pub mod rowstore;
pub mod segment;
pub mod store;
pub mod transposed;
pub mod zonemap;

pub use batch::{decode_batch, decode_batch_range, BatchValues, ColumnBatch};
pub use rle::RunCursor;
pub use rowstore::RowStore;
pub use segment::{Compression, SEGMENT_ROWS};
pub use store::{Layout, TableStore};
pub use transposed::TransposedFile;
pub use zonemap::{ZoneMap, ZONE_DISTINCT_CAP};

/// Read a little-endian u16 at `pos`, or fail with a decode error —
/// the bounds check and the width conversion are one fallible step, so
/// codecs never need an infallible-looking `try_into().unwrap()`.
pub(crate) fn read_u16(
    buf: &[u8],
    pos: usize,
    what: &'static str,
) -> Result<u16, sdbms_data::DataError> {
    match buf.get(pos..pos + 2) {
        Some([a, b]) => Ok(u16::from_le_bytes([*a, *b])),
        _ => Err(sdbms_data::DataError::Decode(what)),
    }
}
