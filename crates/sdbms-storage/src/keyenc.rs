//! Order-preserving key encodings.
//!
//! B+tree keys are compared as raw bytes, so anything indexed must be
//! encoded such that byte order equals logical order. The Summary
//! Database's `(attribute, function)` secondary index is keyed by
//! [`composite_str_key`].

/// Append a string to a composite key such that the composite ordering
/// is (this string, then whatever follows).
///
/// Uses 0x00-terminated escaping: 0x00 bytes in the string become
/// `0x00 0xFF`, and the field ends with `0x00 0x00`. This keeps prefix
/// strings ordered before their extensions and makes field boundaries
/// unambiguous.
pub fn push_str(buf: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        if b == 0 {
            buf.push(0);
            buf.push(0xFF);
        } else {
            buf.push(b);
        }
    }
    buf.push(0);
    buf.push(0);
}

/// Build a composite key of strings (e.g. `(attribute, function)`).
#[must_use]
pub fn composite_str_key(parts: &[&str]) -> Vec<u8> {
    let mut buf = Vec::new();
    for p in parts {
        push_str(&mut buf, p);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_prefix_orders_first() {
        let a = composite_str_key(&["abc"]);
        let b = composite_str_key(&["abcd"]);
        assert!(a < b);
    }

    #[test]
    fn composite_field_boundary_not_confused() {
        // ("ab", "c") must differ from ("abc", "") and order sanely.
        let x = composite_str_key(&["ab", "c"]);
        let y = composite_str_key(&["abc", ""]);
        assert_ne!(x, y);
    }

    #[test]
    fn embedded_nul_escaped() {
        let x = composite_str_key(&["a\0b"]);
        let y = composite_str_key(&["a"]);
        let z = composite_str_key(&["ab"]);
        assert!(x > y);
        assert!(x < z);
    }

    proptest::proptest! {

        #[test]
        fn prop_composite_str_order(a in "[a-z]{0,8}", b in "[a-z]{0,8}") {
            let ka = composite_str_key(&[&a]);
            let kb = composite_str_key(&[&b]);
            proptest::prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        }
    }
}
