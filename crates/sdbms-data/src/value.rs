//! Typed values with first-class missing-value support.
//!
//! §3.1 of the paper: suspicious measurements are investigated and, if
//! invalid, "marked as invalid — 'missing value' in the statistics
//! vernacular". Every statistical function must therefore cope with
//! [`Value::Missing`], and updates can set any cell to missing.
//!
//! [`Value::Code`] carries an encoded category value (like the
//! `AGE_GROUP` column of paper Figure 1) whose meaning lives in a
//! [`crate::codebook::CodeBook`].

use std::cmp::Ordering;
use std::fmt;

use crate::error::{DataError, Result};

/// The declared type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Encoded category value, interpreted through a code book.
    Code,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Code => "code",
        })
    }
}

/// A single cell of a data set.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer measurement or count.
    Int(i64),
    /// Floating-point measurement.
    Float(f64),
    /// String (names, free text, category labels).
    Str(String),
    /// Encoded category value (see [`crate::codebook::CodeBook`]).
    Code(u32),
    /// Invalid / unknown ("missing value").
    Missing,
}

impl Value {
    /// Short name of this value's runtime type.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Code(_) => "code",
            Value::Missing => "missing",
        }
    }

    /// True for [`Value::Missing`].
    #[must_use]
    pub fn is_missing(&self) -> bool {
        matches!(self, Value::Missing)
    }

    /// Whether this value may be stored in an attribute of type `dt`.
    /// Missing is storable anywhere.
    #[must_use]
    pub fn conforms_to(&self, dt: DataType) -> bool {
        matches!(
            (self, dt),
            (Value::Int(_), DataType::Int)
                | (Value::Float(_), DataType::Float)
                | (Value::Str(_), DataType::Str)
                | (Value::Code(_), DataType::Code)
                | (Value::Missing, _)
        )
    }

    /// Numeric view of the value, if it has one. Codes are *not*
    /// numeric: computing the mean of `AGE_GROUP` "does not make
    /// sense" (§3.2), so codes must be decoded or grouped, never
    /// averaged.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// String view, if the value is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total order used for sorting and grouping: Missing first, then
    /// by type (int/float interleaved numerically), strings, codes.
    /// NaN floats sort after all other floats.
    #[must_use]
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Missing => 0,
                Int(_) | Float(_) => 1,
                Str(_) => 2,
                Code(_) => 3,
            }
        }
        match (self, other) {
            (Missing, Missing) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Code(a), Code(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Group-by equality: like `==` but `Missing` groups with
    /// `Missing` and floats compare bitwise (so NaN groups with NaN).
    #[must_use]
    pub fn group_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    // ---- binary row encoding ------------------------------------------

    /// Append this value's binary encoding to `buf`.
    ///
    /// Layout: 1 tag byte, then a type-dependent payload. Strings are
    /// length-prefixed (u16).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Missing => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(x) => {
                buf.push(2);
                buf.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                buf.push(3);
                let bytes = s.as_bytes();
                buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                buf.extend_from_slice(bytes);
            }
            Value::Code(c) => {
                buf.push(4);
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    /// Decode one value from `buf[*pos..]`, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Value> {
        let tag = *buf
            .get(*pos)
            .ok_or(DataError::Decode("value tag missing"))?;
        *pos += 1;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let s = buf
                .get(*pos..*pos + n)
                .ok_or(DataError::Decode("value payload truncated"))?;
            *pos += n;
            Ok(s)
        };
        match tag {
            0 => Ok(Value::Missing),
            1 => Ok(Value::Int(i64::from_le_bytes(take_arr(
                buf,
                pos,
                "value payload truncated",
            )?))),
            2 => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(take_arr(
                buf,
                pos,
                "value payload truncated",
            )?)))),
            3 => {
                let len =
                    u16::from_le_bytes(take_arr(buf, pos, "value payload truncated")?) as usize;
                let sb = take(pos, len)?;
                let s =
                    std::str::from_utf8(sb).map_err(|_| DataError::Decode("string not UTF-8"))?;
                Ok(Value::Str(s.to_string()))
            }
            4 => Ok(Value::Code(u32::from_le_bytes(take_arr(
                buf,
                pos,
                "value payload truncated",
            )?))),
            _ => Err(DataError::Decode("unknown value tag")),
        }
    }
}

/// Read exactly `N` bytes at `*pos` as a fixed array, advancing `pos`,
/// or fail with a decode error. Bounds check and width conversion are
/// one fallible step: decoders never hold a slice whose length they
/// must re-prove to the type system.
pub(crate) fn take_arr<const N: usize>(
    buf: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<[u8; N]> {
    let s = buf.get(*pos..*pos + N).ok_or(DataError::Decode(what))?;
    *pos += N;
    s.try_into().map_err(|_| DataError::Decode(what))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Code(c) => write!(f, "#{c}"),
            Value::Missing => write!(f, "·"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Code(v)
    }
}

/// Encode a full row (values only; the schema provides meaning).
#[must_use]
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + row.len() * 9);
    buf.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        v.encode(&mut buf);
    }
    buf
}

/// Decode a row previously encoded with [`encode_row`].
pub fn decode_row(buf: &[u8]) -> Result<Vec<Value>> {
    let mut pos = 0usize;
    let n = u16::from_le_bytes(take_arr(buf, &mut pos, "row header truncated")?) as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Value::decode(buf, &mut pos)?);
    }
    if pos != buf.len() {
        return Err(DataError::Decode("trailing bytes after row"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance() {
        assert!(Value::Int(3).conforms_to(DataType::Int));
        assert!(!Value::Int(3).conforms_to(DataType::Float));
        assert!(Value::Missing.conforms_to(DataType::Str));
        assert!(Value::Code(1).conforms_to(DataType::Code));
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Code(3).as_f64(), None, "codes are not numbers");
        assert_eq!(Value::Missing.as_f64(), None);
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn ordering_missing_first_nan_last() {
        let mut vals = [
            Value::Float(f64::NAN),
            Value::Int(1),
            Value::Missing,
            Value::Float(-2.0),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_missing());
        assert_eq!(vals[1], Value::Float(-2.0));
        assert_eq!(vals[2], Value::Int(1));
        assert!(matches!(vals[3], Value::Float(x) if x.is_nan()));
    }

    #[test]
    fn int_float_interleave() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
    }

    #[test]
    fn group_eq_nan_and_missing() {
        assert!(Value::Missing.group_eq(&Value::Missing));
        assert!(Value::Float(f64::NAN).group_eq(&Value::Float(f64::NAN)));
        assert!(!Value::Float(0.0).group_eq(&Value::Missing));
    }

    #[test]
    fn row_roundtrip() {
        let row = vec![
            Value::Int(-42),
            Value::Float(3.75),
            Value::Str("white".into()),
            Value::Code(4),
            Value::Missing,
        ];
        let bytes = encode_row(&row);
        assert_eq!(decode_row(&bytes).unwrap(), row);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_row(&[]).is_err());
        assert!(decode_row(&[1, 0, 9]).is_err()); // 1 value, bad tag
        let mut good = encode_row(&[Value::Int(1)]);
        good.push(0xFF); // trailing byte
        assert!(decode_row(&good).is_err());
        let truncated = &encode_row(&[Value::Str("hello".into())]);
        assert!(decode_row(&truncated[..truncated.len() - 1]).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Code(2).to_string(), "#2");
        assert_eq!(Value::Missing.to_string(), "·");
    }

    proptest::proptest! {
        #[test]
        fn prop_row_roundtrip(ints in proptest::collection::vec(
            proptest::prelude::any::<i64>(), 0..20),
            floats in proptest::collection::vec(
                proptest::prelude::any::<f64>(), 0..20),
            strs in proptest::collection::vec("[a-zA-Z0-9 ]{0,30}", 0..10)) {
            let mut row: Vec<Value> = Vec::new();
            row.extend(ints.into_iter().map(Value::Int));
            row.extend(floats.into_iter().map(Value::Float));
            row.extend(strs.into_iter().map(Value::Str));
            row.push(Value::Missing);
            let decoded = decode_row(&encode_row(&row)).unwrap();
            proptest::prop_assert_eq!(decoded.len(), row.len());
            for (a, b) in decoded.iter().zip(row.iter()) {
                match (a, b) {
                    (Value::Float(x), Value::Float(y)) => {
                        proptest::prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                    _ => proptest::prop_assert_eq!(a, b),
                }
            }
        }
    }
}
