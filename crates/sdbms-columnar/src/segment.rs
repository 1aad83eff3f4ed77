//! Column segments: the unit of transposed-file storage, and the one
//! place its format is written and read.
//!
//! A segment packs up to [`SEGMENT_ROWS`] consecutive values of one
//! column into one storage record: a `u16` row count, a tag byte, and
//! a body under one of three encodings — raw, run-length
//! ([`crate::rle`]), or dictionary. [`encode_segment`] is the only
//! writer of that layout and [`decode`] the only reader. The decoder
//! walks rows `[lo, hi)` of a record and hands them to a
//! [`SegmentSink`]; `Vec<Value>` (scalar readers) and
//! [`crate::batch::ColumnBatch`] (typed lanes) are the two sinks, so
//! neither knows about tags and the decoder knows nothing about lanes.
//! The decoder's reference is the encoder: `decode(encode(v))` delivers
//! `v`, and a window `[lo, hi)` delivers `v[lo..hi]`, bit for bit.

use std::collections::HashMap;

use sdbms_data::{DataError, Value};

use crate::rle;

/// Maximum values per segment. 256 keeps raw float segments
/// (256 × 9 B ≈ 2.3 KiB) comfortably inside one storage record.
pub const SEGMENT_ROWS: usize = 256;

/// How a column's segments are encoded on storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compression {
    /// Values stored back to back.
    None,
    /// Run-length encoded (best for sorted / category columns).
    Rle,
    /// Dictionary encoded (best for low-cardinality strings).
    Dictionary,
}

const TAG_RAW: u8 = 0;
const TAG_RLE: u8 = 1;
const TAG_DICT: u8 = 2;

/// Encode `values` as one segment record.
#[must_use]
pub fn encode_segment(values: &[Value], compression: Compression) -> Vec<u8> {
    debug_assert!(values.len() <= SEGMENT_ROWS);
    let mut buf = Vec::new();
    buf.extend_from_slice(&(values.len() as u16).to_le_bytes());
    match compression {
        Compression::None => {
            buf.push(TAG_RAW);
            for v in values {
                v.encode(&mut buf);
            }
        }
        Compression::Rle => {
            buf.push(TAG_RLE);
            buf.extend_from_slice(&rle::compress_values(values));
        }
        Compression::Dictionary => {
            buf.push(TAG_DICT);
            // Keyed on the value's own encoding, so two values share an
            // entry exactly when they store the same bytes (NaN payloads
            // and -0.0 stay distinct). Entries are in first-occurrence
            // order.
            let mut index: HashMap<Vec<u8>, u16> = HashMap::new();
            let mut entries = Vec::new();
            let mut codes = Vec::with_capacity(2 * values.len());
            let mut key = Vec::new();
            for v in values {
                key.clear();
                v.encode(&mut key);
                let code = match index.get(&key) {
                    Some(&code) => code,
                    None => {
                        let code = index.len() as u16;
                        entries.extend_from_slice(&key);
                        index.insert(key.clone(), code);
                        code
                    }
                };
                codes.extend_from_slice(&code.to_le_bytes());
            }
            buf.extend_from_slice(&(index.len() as u16).to_le_bytes());
            buf.extend_from_slice(&entries);
            buf.extend_from_slice(&codes);
        }
    }
    buf
}

/// Where decoded rows go. Rows arrive in order; a raw segment delivers
/// them one at a time by type, a run-length or dictionary segment as
/// `run(value, n)` — `n >= 1` consecutive rows holding `value`.
pub(crate) trait SegmentSink {
    fn missing(&mut self);
    fn int(&mut self, x: i64);
    fn float(&mut self, x: f64);
    fn code(&mut self, c: u32);
    fn str(&mut self, s: &str);
    fn run(&mut self, v: &Value, n: usize);
}

// Sink methods are `#[inline]` so the monomorphised decoder absorbs
// them; without the hint each row is a call into another codegen unit.
impl SegmentSink for Vec<Value> {
    #[inline]
    fn missing(&mut self) {
        self.push(Value::Missing);
    }
    #[inline]
    fn int(&mut self, x: i64) {
        self.push(Value::Int(x));
    }
    #[inline]
    fn float(&mut self, x: f64) {
        self.push(Value::Float(x));
    }
    #[inline]
    fn code(&mut self, c: u32) {
        self.push(Value::Code(c));
    }
    #[inline]
    fn str(&mut self, s: &str) {
        self.push(Value::Str(s.to_string()));
    }
    #[inline]
    fn run(&mut self, v: &Value, n: usize) {
        for _ in 0..n {
            self.push(v.clone());
        }
    }
}

/// Rows of a raw segment that precede the window: parsed and checked
/// like any other, delivered nowhere.
struct Skip;

impl SegmentSink for Skip {
    fn missing(&mut self) {}
    fn int(&mut self, _: i64) {}
    fn float(&mut self, _: f64) {}
    fn code(&mut self, _: u32) {}
    fn str(&mut self, _: &str) {}
    fn run(&mut self, _: &Value, _: usize) {}
}

/// The row count a segment record's header declares.
pub(crate) fn stored_rows(buf: &[u8]) -> Result<usize, DataError> {
    Ok(crate::read_u16(buf, 0, "segment header truncated")? as usize)
}

/// The `len` bytes at `body[*pos..]`, advancing `pos`. The per-row
/// path uses `let else`, not `ok_or`, which would build and drop a
/// `DataError` for every row that decodes fine.
fn take<'a>(body: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8], DataError> {
    let Some(bytes) = body.get(*pos..*pos + len) else {
        return Err(DataError::Decode("value payload truncated"));
    };
    *pos += len;
    Ok(bytes)
}

fn take_arr<const N: usize>(body: &[u8], pos: &mut usize) -> Result<[u8; N], DataError> {
    let Ok(bytes) = take(body, pos, N)?.try_into() else {
        return Err(DataError::Decode("value payload truncated"));
    };
    Ok(bytes)
}

/// Parse one [`Value::encode`] image at `body[*pos..]` into `sink`
/// without building a `Value`.
fn raw_value<S: SegmentSink>(body: &[u8], pos: &mut usize, sink: &mut S) -> Result<(), DataError> {
    let Some(&tag) = body.get(*pos) else {
        return Err(DataError::Decode("value tag missing"));
    };
    *pos += 1;
    match tag {
        0 => sink.missing(),
        1 => sink.int(i64::from_le_bytes(take_arr(body, pos)?)),
        2 => sink.float(f64::from_bits(u64::from_le_bytes(take_arr(body, pos)?))),
        3 => {
            let len = u16::from_le_bytes(take_arr(body, pos)?) as usize;
            let Ok(s) = std::str::from_utf8(take(body, pos, len)?) else {
                return Err(DataError::Decode("string not UTF-8"));
            };
            sink.str(s);
        }
        4 => sink.code(u32::from_le_bytes(take_arr(body, pos)?)),
        _ => return Err(DataError::Decode("unknown value tag")),
    }
    Ok(())
}

/// Decode rows `[lo, hi)` of a segment record into `sink` (positions
/// are segment-relative; the window is clamped to the stored count).
///
/// On `Ok` the sink received exactly the clamped window, and never more
/// than that on `Err`. Only the window is materialized: a raw segment
/// stops parsing at `hi`, a run-length segment walks runs, a dictionary
/// segment jumps to its fixed-width codes. A window that reaches the
/// stored count must also consume the body exactly — trailing bytes
/// and surplus runs are damage; one that stops short cannot see the
/// tail and does not judge it.
pub(crate) fn decode<S: SegmentSink>(
    buf: &[u8],
    lo: usize,
    hi: usize,
    sink: &mut S,
) -> Result<(), DataError> {
    let n = stored_rows(buf)?;
    let tag = *buf.get(2).ok_or(DataError::Decode("segment tag missing"))?;
    let body = &buf[3..];
    let (lo, hi) = (lo.min(n), hi.min(n));
    let to_end = hi == n;
    if lo >= hi && !to_end {
        return Ok(());
    }
    match tag {
        TAG_RAW => {
            let mut pos = 0usize;
            for _ in 0..lo {
                raw_value(body, &mut pos, &mut Skip)?;
            }
            for _ in lo..hi {
                raw_value(body, &mut pos, sink)?;
            }
            if to_end && pos != body.len() {
                return Err(DataError::Decode("trailing bytes in raw segment"));
            }
        }
        TAG_RLE => {
            let mut row = 0usize;
            let mut delivered = 0usize;
            for run in rle::RunCursor::new(body)? {
                let (v, len) = run?;
                let start = row;
                row += len;
                if row <= lo {
                    continue;
                }
                // Zero past `hi`: reading to the end keeps walking so
                // the cursor reports trailing bytes and surplus runs.
                let take = row.min(hi).saturating_sub(start.max(lo));
                if take > 0 {
                    sink.run(&v, take);
                    delivered += take;
                }
                if row >= hi && !to_end {
                    break;
                }
            }
            if delivered != hi - lo {
                return Err(DataError::Decode("rle segment shorter than header count"));
            }
            if to_end && row != n {
                return Err(DataError::Decode("segment count mismatch"));
            }
        }
        TAG_DICT => {
            let dict_size = crate::read_u16(body, 0, "dict size truncated")? as usize;
            // The encoder makes an entry only for a value that occurs.
            if dict_size > n {
                return Err(DataError::Decode("dict larger than segment"));
            }
            let mut pos = 2usize;
            let mut dict = Vec::with_capacity(dict_size);
            for _ in 0..dict_size {
                dict.push(Value::decode(body, &mut pos)?);
            }
            // Codes are fixed-width: jump straight into the window and
            // coalesce equal adjacent codes into runs (2-byte compares,
            // never value compares).
            let mut codes = body
                .get(pos + 2 * lo..pos + 2 * hi)
                .ok_or(DataError::Decode("dict code truncated"))?
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .peekable();
            while let Some(code) = codes.next() {
                let mut len = 1usize;
                while codes.next_if_eq(&code).is_some() {
                    len += 1;
                }
                let Some(v) = dict.get(usize::from(code)) else {
                    return Err(DataError::Decode("dict code out of range"));
                };
                sink.run(v, len);
            }
            if to_end && pos + 2 * n != body.len() {
                return Err(DataError::Decode("trailing bytes in dict segment"));
            }
        }
        _ => return Err(DataError::Decode("unknown segment encoding tag")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ColumnBatch;

    const ALL: [Compression; 3] = [Compression::None, Compression::Rle, Compression::Dictionary];

    /// Rows `[lo, hi)` of a record through the `Vec<Value>` sink.
    fn window(buf: &[u8], lo: usize, hi: usize) -> Result<Vec<Value>, DataError> {
        let mut out = Vec::new();
        decode(buf, lo, hi, &mut out)?;
        Ok(out)
    }

    /// Every stored row of a record.
    fn all(buf: &[u8]) -> Result<Vec<Value>, DataError> {
        window(buf, 0, usize::MAX)
    }

    fn sample() -> Vec<Value> {
        vec![
            Value::Str("M".into()),
            Value::Str("M".into()),
            Value::Str("F".into()),
            Value::Missing,
            Value::Code(4),
            Value::Int(-3),
            Value::Float(2.5),
        ]
    }

    #[test]
    fn roundtrip_all_encodings() {
        for c in ALL {
            let buf = encode_segment(&sample(), c);
            assert_eq!(all(&buf).unwrap(), sample(), "{c:?}");
        }
    }

    #[test]
    fn empty_segment_roundtrip() {
        for c in ALL {
            let buf = encode_segment(&[], c);
            assert_eq!(all(&buf).unwrap(), Vec::<Value>::new());
        }
    }

    #[test]
    fn rle_smaller_on_runs_dict_smaller_on_low_cardinality() {
        let runs: Vec<Value> =
            std::iter::repeat_n(Value::Str("White".into()), SEGMENT_ROWS).collect();
        let raw = encode_segment(&runs, Compression::None).len();
        let rle = encode_segment(&runs, Compression::Rle).len();
        assert!(rle * 10 < raw, "rle {rle} vs raw {raw}");

        // Alternating values defeat RLE but not a dictionary.
        let alt: Vec<Value> = (0..SEGMENT_ROWS)
            .map(|i| Value::Str(if i % 2 == 0 { "Male" } else { "Female" }.into()))
            .collect();
        let raw = encode_segment(&alt, Compression::None).len();
        let rle = encode_segment(&alt, Compression::Rle).len();
        let dict = encode_segment(&alt, Compression::Dictionary).len();
        assert!(dict < raw, "dict {dict} vs raw {raw}");
        assert!(dict < rle, "dict {dict} vs rle {rle}");
    }

    #[test]
    fn decode_rejects_bad_tag_and_truncation() {
        let mut buf = encode_segment(&sample(), Compression::None);
        buf[2] = 9;
        assert!(all(&buf).is_err());
        let good = encode_segment(&sample(), Compression::Dictionary);
        assert!(all(&good[..good.len() - 1]).is_err());
        assert!(all(&[0]).is_err());
    }

    #[test]
    fn nan_distinct_values_in_dictionary() {
        // Two different NaN payloads must each roundtrip bit-exactly.
        let (nan1, nan2) = (0x7ff8_0000_0000_0001u64, 0x7ff8_0000_0000_0002u64);
        let vals = vec![
            Value::Float(f64::from_bits(nan1)),
            Value::Float(1.0),
            Value::Float(f64::from_bits(nan2)),
            Value::Float(f64::from_bits(nan1)),
        ];
        let buf = encode_segment(&vals, Compression::Dictionary);
        let bits: Vec<u64> = all(&buf)
            .unwrap()
            .iter()
            .map(|v| match v {
                Value::Float(x) => x.to_bits(),
                other => panic!("not a float: {other:?}"),
            })
            .collect();
        assert_eq!(bits, [nan1, 1.0f64.to_bits(), nan2, nan1]);
        // Three entries, not four: equal bytes still share one.
        assert_eq!(u16::from_le_bytes([buf[3], buf[4]]), 3);
    }

    #[test]
    fn range_decode_matches_full_decode_slice() {
        let vals: Vec<Value> = (0..SEGMENT_ROWS)
            .map(|i| match i % 7 {
                0 => Value::Missing,
                1 | 2 => Value::Code(u32::try_from(i / 50).unwrap()),
                3 => Value::Str("x".into()),
                _ => Value::Int(i as i64 % 11),
            })
            .collect();
        for c in ALL {
            let buf = encode_segment(&vals, c);
            assert_eq!(all(&buf).unwrap(), vals, "{c:?}");
            for (lo, hi) in [
                (0, 256),
                (0, 1),
                (100, 200),
                (255, 256),
                (40, 40),
                (250, 999),
            ] {
                let got = window(&buf, lo, hi).unwrap();
                let want = &vals[lo.min(vals.len())..hi.min(vals.len())];
                assert_eq!(got, want, "{c:?} [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn range_decode_rejects_damage() {
        let buf = encode_segment(&sample(), Compression::Rle);
        assert!(window(&buf[..buf.len() - 1], 0, 7).is_err());
        let mut bad = buf;
        bad[2] = 9;
        assert!(window(&bad, 0, 7).is_err());
    }

    #[test]
    fn a_window_that_reaches_the_count_consumes_the_body_exactly() {
        for c in ALL {
            let mut longer = encode_segment(&sample(), c);
            longer.push(0);
            // The whole record, its last row alone, and the empty
            // window at the end all see the tail; a window that stops
            // short does not.
            for (lo, hi) in [(0, 7), (6, 7), (7, 7), (0, 99)] {
                assert!(window(&longer, lo, hi).is_err(), "{c:?} [{lo}, {hi})");
            }
            assert_eq!(window(&longer, 0, 6).unwrap(), sample()[..6], "{c:?}");
        }
    }

    #[test]
    fn an_overlong_run_is_never_expanded_past_the_window() {
        // Header count 1, body one run declaring 65 535 rows: damage,
        // and the sink sees at most the one row the header allows.
        let mut buf = vec![1, 0, TAG_RLE, 1, 0, 0xff, 0xff];
        Value::Int(7).encode(&mut buf);
        let mut out = Vec::new();
        assert!(matches!(
            decode(&buf, 0, usize::MAX, &mut out),
            Err(DataError::Decode(_))
        ));
        assert!(out.len() <= 1, "sink received {} rows", out.len());
        let mut batch = ColumnBatch::new();
        assert!(decode(&buf, 0, usize::MAX, &mut batch).is_err());
        assert!(batch.rows() <= 1);
        // Same for a dictionary that claims more entries than rows.
        let mut buf = vec![1, 0, TAG_DICT, 0xff, 0xff];
        Value::Int(7).encode(&mut buf);
        assert!(all(&buf).is_err());
    }

    #[test]
    fn encoder_bytes_are_pinned() {
        // CRC32 of every column of a fixed 256-row census slice, under
        // each encoding, computed at `73856f7`. Stores, archives and
        // repair's byte-identical regeneration all assume the encoder
        // keeps producing these bytes.
        use sdbms_data::census::{microdata_census, CensusConfig};
        let ds = microdata_census(&CensusConfig {
            rows: SEGMENT_ROWS,
            ..Default::default()
        })
        .unwrap();
        for (c, want) in [
            (Compression::None, 0x58fd_93ce_u32),
            (Compression::Rle, 0x2ec0_b955),
            (Compression::Dictionary, 0x3b95_6a0e),
        ] {
            let mut bytes = Vec::new();
            for attr in ds.schema().attributes() {
                let col: Vec<Value> = ds.column(&attr.name).unwrap().cloned().collect();
                bytes.extend(encode_segment(&col, c));
            }
            assert_eq!(sdbms_storage::crc32(&bytes), want, "{c:?}");
        }
    }

    /// Decode `[lo, hi)` of arbitrary bytes through both sinks: never a
    /// panic, never more than the window, and the sinks agree.
    fn check_arbitrary(buf: &[u8], lo: usize, hi: usize) -> Result<(), String> {
        let mut vals = Vec::new();
        let scalar = decode(buf, lo, hi, &mut vals);
        let mut batch = ColumnBatch::new();
        let typed = decode(buf, lo, hi, &mut batch);
        let cap = hi.saturating_sub(lo);
        if vals.len() > cap || batch.rows() > cap {
            return Err(format!(
                "[{lo}, {hi}) delivered {} / {} rows",
                vals.len(),
                batch.rows()
            ));
        }
        if scalar != typed {
            return Err(format!("sinks disagree: {scalar:?} vs {typed:?}"));
        }
        let same = vals.len() == batch.rows()
            && vals
                .iter()
                .zip(batch.to_values())
                .all(|(a, b)| a.group_eq(&b));
        if scalar.is_ok() && !same {
            return Err(format!("sinks delivered different rows for [{lo}, {hi})"));
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn prop_segment_roundtrip(
            codes in proptest::collection::vec(0u32..8, 0..SEGMENT_ROWS),
            tag in 0usize..3
        ) {
            let vals: Vec<Value> = codes.into_iter().map(Value::Code).collect();
            let buf = encode_segment(&vals, ALL[tag]);
            proptest::prop_assert_eq!(all(&buf).unwrap(), vals);
        }

        #[test]
        fn prop_arbitrary_bytes_never_panic_or_overdeliver(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            small_header in proptest::prelude::any::<bool>(),
            window in (0usize..300, 0usize..300),
        ) {
            // Random headers mostly declare huge counts; half the cases
            // get a plausible count and a valid tag so the arms run.
            let mut bytes = bytes;
            if small_header && bytes.len() >= 3 {
                bytes[1] = 0;
                bytes[2] %= 3;
            }
            let (lo, hi) = window;
            proptest::prop_assert_eq!(check_arbitrary(&bytes, lo, hi), Ok(()));
            proptest::prop_assert_eq!(check_arbitrary(&bytes, 0, usize::MAX), Ok(()));
        }

        #[test]
        fn prop_damaged_segments_never_panic_or_overdeliver(
            cells in proptest::collection::vec((0u8..5, -40i64..40), 1..SEGMENT_ROWS),
            tag in 0usize..3,
            damage in 0u8..3,
            at in proptest::prelude::any::<proptest::sample::Index>(),
            byte in proptest::prelude::any::<u8>(),
            window in (0usize..260, 0usize..260),
        ) {
            let vals: Vec<Value> = cells
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => Value::Missing,
                    1 => Value::Int(x),
                    2 => Value::Float(x as f64 * 0.25),
                    3 => Value::Code(x.unsigned_abs() as u32 % 6),
                    _ => Value::Str(format!("s{}", x % 4)),
                })
                .collect();
            let mut buf = encode_segment(&vals, ALL[tag]);
            match damage {
                0 => {
                    let i = at.index(buf.len());
                    buf[i] ^= byte | 1;
                }
                1 => buf.truncate(at.index(buf.len())),
                _ => buf.push(byte),
            }
            let (lo, hi) = window;
            proptest::prop_assert_eq!(check_arbitrary(&buf, lo, hi), Ok(()));
            proptest::prop_assert_eq!(check_arbitrary(&buf, 0, usize::MAX), Ok(()));
            if damage > 0 {
                proptest::prop_assert!(all(&buf).is_err(), "truncated or extended record accepted");
            }
        }
    }
}
