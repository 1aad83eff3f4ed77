//! Run-length encoding of value sequences.
//!
//! §2.6: "run-length compression techniques are more likely to improve
//! storage efficiency when they are applied down a column rather than
//! across a row" — category columns (the cross-product key of a
//! statistical data set) are long runs of identical values when the
//! data is in cross-product order (`tests/paper_claims.rs` asserts this
//! columnwise-vs-rowwise asymmetry as claim E5). A value-run body is
//! written by [`compress_values`] and read only through [`RunCursor`],
//! run by run — nothing here expands runs into rows.

use sdbms_data::{DataError, Value};

/// Encode a sequence of values as `(run-length, value)` pairs.
///
/// Format: `u16 n_runs`, then per run `u16 len` + one encoded value.
/// Runs group by [`Value::group_eq`], so NaN runs with NaN and Missing
/// with Missing.
#[must_use]
pub fn compress_values(values: &[Value]) -> Vec<u8> {
    let mut runs: Vec<(u16, &Value)> = Vec::new();
    for v in values {
        match runs.last_mut() {
            Some((len, rv)) if *len < u16::MAX && rv.group_eq(v) => *len += 1,
            _ => runs.push((1, v)),
        }
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(&(runs.len() as u16).to_le_bytes());
    for (len, v) in runs {
        buf.extend_from_slice(&len.to_le_bytes());
        v.encode(&mut buf);
    }
    buf
}

/// Streaming iterator over the `(value, run-length)` pairs of a
/// [`compress_values`] body — its only reader.
///
/// The cursor never materializes rows: the segment decoder clips each
/// run to its window and hands it whole to the sink, so a
/// [`crate::batch::ColumnBatch`] keeps a run view that lets the
/// aggregation kernels process run lengths arithmetically — O(runs),
/// not O(rows) — and no run length read from a damaged record is
/// expanded before the window bounds it.
///
/// Contract: concatenating each yielded value `len` times reproduces
/// the original sequence exactly. Run boundaries are an encoding
/// artifact — consumers must not assume adjacent runs hold
/// non-[`Value::group_eq`] values (encoders split runs at `u16::MAX`).
#[derive(Debug)]
pub struct RunCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    remaining: usize,
}

impl<'a> RunCursor<'a> {
    /// Open a cursor over a [`compress_values`] body. Fails fast on a
    /// truncated header; per-run damage surfaces while iterating.
    pub fn new(buf: &'a [u8]) -> Result<RunCursor<'a>, DataError> {
        let n_runs = crate::read_u16(buf, 0, "rle header truncated")? as usize;
        Ok(RunCursor {
            buf,
            pos: 2,
            remaining: n_runs,
        })
    }
}

impl Iterator for RunCursor<'_> {
    type Item = Result<(Value, usize), DataError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return if self.pos == self.buf.len() {
                None
            } else {
                self.remaining = usize::MAX; // poison: report once
                Some(Err(DataError::Decode("trailing bytes after rle runs")))
            };
        }
        if self.remaining == usize::MAX {
            return None;
        }
        self.remaining -= 1;
        let len = match crate::read_u16(self.buf, self.pos, "rle run truncated") {
            Ok(len) => len as usize,
            Err(e) => {
                self.remaining = 0;
                self.pos = self.buf.len();
                return Some(Err(e));
            }
        };
        self.pos += 2;
        match Value::decode(self.buf, &mut self.pos) {
            Ok(v) => Some(Ok((v, len))),
            Err(e) => {
                self.remaining = 0;
                self.pos = self.buf.len();
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expand a run body through the cursor (what the segment decoder
    /// does, without a window).
    fn expand(buf: &[u8]) -> Result<Vec<Value>, DataError> {
        let mut out = Vec::new();
        for run in RunCursor::new(buf)? {
            let (v, len) = run?;
            out.extend(std::iter::repeat_n(v, len));
        }
        Ok(out)
    }

    #[test]
    fn roundtrip_with_runs() {
        let vals: Vec<Value> = std::iter::repeat_n(Value::Str("M".into()), 500)
            .chain(std::iter::repeat_n(Value::Str("F".into()), 500))
            .collect();
        let buf = compress_values(&vals);
        assert!(
            buf.len() < 40,
            "two runs should compress tiny: {}",
            buf.len()
        );
        assert_eq!(expand(&buf).unwrap(), vals);
    }

    #[test]
    fn roundtrip_no_runs() {
        let vals: Vec<Value> = (0..100).map(Value::Int).collect();
        let buf = compress_values(&vals);
        assert_eq!(expand(&buf).unwrap(), vals);
    }

    #[test]
    fn empty_roundtrip() {
        let buf = compress_values(&[]);
        assert_eq!(expand(&buf).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn missing_and_nan_run_together() {
        let vals = vec![
            Value::Missing,
            Value::Missing,
            Value::Float(f64::NAN),
            Value::Float(f64::NAN),
        ];
        let buf = compress_values(&vals);
        let out = expand(&buf).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out[0].is_missing() && out[1].is_missing());
        assert!(matches!(out[2], Value::Float(x) if x.is_nan()));
        // 2 runs only.
        assert_eq!(u16::from_le_bytes([buf[0], buf[1]]), 2);
    }

    #[test]
    fn long_runs_split_at_u16_max() {
        let vals: Vec<Value> = std::iter::repeat_n(Value::Code(1), 70_000).collect();
        let buf = compress_values(&vals);
        assert_eq!(expand(&buf).unwrap().len(), 70_000);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(expand(&[5]).is_err());
        assert!(expand(&[1, 0, 2, 0]).is_err());
        let mut ok = compress_values(&[Value::Int(1)]);
        ok.push(9);
        assert!(expand(&ok).is_err());
    }

    #[test]
    fn run_cursor_yields_exact_runs() {
        let vals = vec![
            Value::Code(7),
            Value::Code(7),
            Value::Missing,
            Value::Int(3),
            Value::Int(3),
            Value::Int(3),
        ];
        let buf = compress_values(&vals);
        let runs: Vec<(Value, usize)> = RunCursor::new(&buf)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0], (Value::Code(7), 2));
        assert!(runs[1].0.is_missing() && runs[1].1 == 1);
        assert_eq!(runs[2], (Value::Int(3), 3));
        // Expanding the runs reproduces the sequence.
        let expanded: Vec<Value> = runs
            .iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v.clone(), *n))
            .collect();
        assert_eq!(expanded, vals);
    }

    #[test]
    fn run_cursor_surfaces_damage_once() {
        let good = compress_values(&[Value::Int(1), Value::Int(2)]);
        // Truncation mid-run.
        let errs: Vec<_> = RunCursor::new(&good[..good.len() - 1]).unwrap().collect();
        assert!(errs.last().unwrap().is_err());
        // Trailing garbage.
        let mut junk = good.clone();
        junk.push(0xAB);
        let mut cursor = RunCursor::new(&junk).unwrap();
        assert!(cursor.next().unwrap().is_ok());
        assert!(cursor.next().unwrap().is_ok());
        assert!(cursor.next().unwrap().is_err());
        assert!(cursor.next().is_none());
        // Truncated header.
        assert!(RunCursor::new(&[9]).is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_value_rle_roundtrip(codes in proptest::collection::vec(0u32..5, 0..400)) {
            let vals: Vec<Value> = codes.into_iter().map(Value::Code).collect();
            let buf = compress_values(&vals);
            proptest::prop_assert_eq!(expand(&buf).unwrap(), vals);
        }
    }
}
