//! Column segments: the unit of transposed-file storage.
//!
//! A segment packs up to [`SEGMENT_ROWS`] consecutive values of one
//! column into one storage record, under one of three encodings:
//! raw, run-length ([`crate::rle`]), or dictionary. The per-column
//! encoding choice is the knob experiment E5 sweeps.

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

/// Encode `values` as one segment record.
#[must_use]
pub fn encode_segment(values: &[Value], compression: Compression) -> Vec<u8> {
    debug_assert!(values.len() <= SEGMENT_ROWS);
    let mut buf = Vec::new();
    buf.extend_from_slice(&(values.len() as u16).to_le_bytes());
    match compression {
        Compression::None => {
            buf.push(0);
            for v in values {
                v.encode(&mut buf);
            }
        }
        Compression::Rle => {
            buf.push(1);
            buf.extend_from_slice(&rle::compress_values(values));
        }
        Compression::Dictionary => {
            buf.push(2);
            let mut dict: Vec<&Value> = Vec::new();
            let mut index: HashMap<String, u16> = HashMap::new();
            let mut codes: Vec<u16> = Vec::with_capacity(values.len());
            for v in values {
                // Keyed on the full debug form so distinct values never
                // collide; group_eq semantics preserved by exact bytes.
                let key = format!("{v:?}");
                let code = *index.entry(key).or_insert_with(|| {
                    dict.push(v);
                    (dict.len() - 1) as u16
                });
                codes.push(code);
            }
            buf.extend_from_slice(&(dict.len() as u16).to_le_bytes());
            for v in dict {
                v.encode(&mut buf);
            }
            for c in codes {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    buf
}

/// Decode a segment record back into values.
pub fn decode_segment(buf: &[u8]) -> Result<Vec<Value>, DataError> {
    let n = crate::read_u16(buf, 0, "segment header truncated")? as usize;
    let tag = *buf.get(2).ok_or(DataError::Decode("segment tag missing"))?;
    let body = &buf[3..];
    let out = match tag {
        0 => {
            let mut pos = 0usize;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(Value::decode(body, &mut pos)?);
            }
            if pos != body.len() {
                return Err(DataError::Decode("trailing bytes in raw segment"));
            }
            out
        }
        1 => rle::decompress_values(body)?,
        2 => {
            let dict_size = crate::read_u16(body, 0, "dict size truncated")? as usize;
            let mut pos = 2usize;
            let mut dict = Vec::with_capacity(dict_size);
            for _ in 0..dict_size {
                dict.push(Value::decode(body, &mut pos)?);
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let code = crate::read_u16(body, pos, "dict code truncated")? as usize;
                pos += 2;
                let v = dict
                    .get(code)
                    .ok_or(DataError::Decode("dict code out of range"))?;
                out.push(v.clone());
            }
            if pos != body.len() {
                return Err(DataError::Decode("trailing bytes in dict segment"));
            }
            out
        }
        _ => return Err(DataError::Decode("unknown segment encoding tag")),
    };
    if out.len() != n {
        return Err(DataError::Decode("segment count mismatch"));
    }
    Ok(out)
}

/// Decode only rows `[lo, hi)` of a segment record (positions are
/// segment-relative; the range is clamped to the stored count).
///
/// This is the partial-range read path: a raw segment stops decoding at
/// `hi`, an RLE segment walks runs and never materializes rows outside
/// the window, and a dictionary segment jumps straight to the fixed-
/// width code array. Returns exactly `decode_segment(buf)[lo..hi]`.
pub fn decode_segment_range(buf: &[u8], lo: usize, hi: usize) -> Result<Vec<Value>, DataError> {
    let n = crate::read_u16(buf, 0, "segment header truncated")? as usize;
    let tag = *buf.get(2).ok_or(DataError::Decode("segment tag missing"))?;
    let body = &buf[3..];
    let lo = lo.min(n);
    let hi = hi.min(n);
    if lo >= hi {
        return Ok(Vec::new());
    }
    match tag {
        0 => {
            let mut pos = 0usize;
            let mut out = Vec::with_capacity(hi - lo);
            for i in 0..hi {
                let v = Value::decode(body, &mut pos)?;
                if i >= lo {
                    out.push(v);
                }
            }
            Ok(out)
        }
        1 => {
            let mut out = Vec::with_capacity(hi - lo);
            let mut row = 0usize;
            for run in rle::RunCursor::new(body)? {
                let (v, len) = run?;
                let start = row;
                row += len;
                if row <= lo {
                    continue;
                }
                let take = row.min(hi) - start.max(lo);
                out.extend(std::iter::repeat_n(v, take));
                if row >= hi {
                    break;
                }
            }
            if out.len() != hi - lo {
                return Err(DataError::Decode("rle segment shorter than header count"));
            }
            Ok(out)
        }
        2 => {
            let dict_size = crate::read_u16(body, 0, "dict size truncated")? as usize;
            let mut pos = 2usize;
            let mut dict = Vec::with_capacity(dict_size);
            for _ in 0..dict_size {
                dict.push(Value::decode(body, &mut pos)?);
            }
            let mut out = Vec::with_capacity(hi - lo);
            for i in lo..hi {
                let code = crate::read_u16(body, pos + 2 * i, "dict code truncated")? as usize;
                let v = dict
                    .get(code)
                    .ok_or(DataError::Decode("dict code out of range"))?;
                out.push(v.clone());
            }
            Ok(out)
        }
        _ => Err(DataError::Decode("unknown segment encoding tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for c in [Compression::None, Compression::Rle, Compression::Dictionary] {
            let buf = encode_segment(&sample(), c);
            assert_eq!(decode_segment(&buf).unwrap(), sample(), "{c:?}");
        }
    }

    #[test]
    fn empty_segment_roundtrip() {
        for c in [Compression::None, Compression::Rle, Compression::Dictionary] {
            let buf = encode_segment(&[], c);
            assert_eq!(decode_segment(&buf).unwrap(), Vec::<Value>::new());
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
        assert!(decode_segment(&buf).is_err());
        let good = encode_segment(&sample(), Compression::Dictionary);
        assert!(decode_segment(&good[..good.len() - 1]).is_err());
        assert!(decode_segment(&[0]).is_err());
    }

    #[test]
    fn nan_distinct_values_in_dictionary() {
        // Two different NaN payloads must each roundtrip bit-exactly.
        let vals = vec![
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(f64::NAN),
        ];
        let buf = encode_segment(&vals, Compression::Dictionary);
        let out = decode_segment(&buf).unwrap();
        assert!(matches!(out[0], Value::Float(x) if x.is_nan()));
        assert_eq!(out[1], Value::Float(1.0));
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
        for c in [Compression::None, Compression::Rle, Compression::Dictionary] {
            let buf = encode_segment(&vals, c);
            let full = decode_segment(&buf).unwrap();
            for (lo, hi) in [
                (0, 256),
                (0, 1),
                (100, 200),
                (255, 256),
                (40, 40),
                (250, 999),
            ] {
                let got = decode_segment_range(&buf, lo, hi).unwrap();
                let want = &full[lo.min(full.len())..hi.min(full.len())];
                assert_eq!(got, want, "{c:?} [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn range_decode_rejects_damage() {
        let buf = encode_segment(&sample(), Compression::Rle);
        assert!(decode_segment_range(&buf[..buf.len() - 1], 0, 7).is_err());
        let mut bad = buf;
        bad[2] = 9;
        assert!(decode_segment_range(&bad, 0, 7).is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_segment_roundtrip(
            codes in proptest::collection::vec(0u32..8, 0..SEGMENT_ROWS),
            tag in 0u8..3
        ) {
            let vals: Vec<Value> = codes.into_iter().map(Value::Code).collect();
            let c = match tag {
                0 => Compression::None,
                1 => Compression::Rle,
                _ => Compression::Dictionary,
            };
            let buf = encode_segment(&vals, c);
            proptest::prop_assert_eq!(decode_segment(&buf).unwrap(), vals);
        }
    }
}
