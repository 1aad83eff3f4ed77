//! Fixed-size pages and little-endian field access helpers.
//!
//! Everything stored on the simulated disk lives in [`PAGE_SIZE`]-byte
//! pages. Higher layers (slotted heap pages, B+tree nodes, column
//! segments) impose their own structure on the raw bytes through the
//! accessors here.

/// Size in bytes of every disk page.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page on the simulated disk.
pub type PageId = u32;

/// Sentinel meaning "no page" in on-page link fields.
pub const INVALID_PAGE: PageId = u32::MAX;

/// A raw disk page: a boxed byte array so frames are heap-allocated.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", PAGE_SIZE)
    }
}

impl Page {
    /// A zero-filled page.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Immutable view of the full page.
    #[must_use]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable view of the full page.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// Read a `u16` stored little-endian at `off`.
    ///
    /// # Panics
    /// Panics if `off + 2 > PAGE_SIZE` (an internal layout bug).
    #[must_use]
    pub fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    /// Write a `u16` little-endian at `off`.
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a `u32` stored little-endian at `off`.
    #[must_use]
    pub fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes([
            self.data[off],
            self.data[off + 1],
            self.data[off + 2],
            self.data[off + 3],
        ])
    }

    /// Write a `u32` little-endian at `off`.
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a `u64` stored little-endian at `off`.
    #[must_use]
    pub fn get_u64(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[off..off + 8]);
        u64::from_le_bytes(b)
    }

    /// Write a `u64` little-endian at `off`.
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// A byte slice `[off, off+len)` of the page.
    #[must_use]
    pub fn slice(&self, off: usize, len: usize) -> &[u8] {
        &self.data[off..off + len]
    }

    /// Copy `src` into the page starting at `off`.
    pub fn write_slice(&mut self, off: usize, src: &[u8]) {
        self.data[off..off + src.len()].copy_from_slice(src);
    }

    /// Zero the byte range `[off, off+len)`.
    pub fn zero(&mut self, off: usize, len: usize) {
        self.data[off..off + len].fill(0);
    }

    /// CRC32 of the full page contents. The simulated disk stores this
    /// out-of-band with each page (like a sector ECC field) and
    /// verifies it on every read, so injected bit flips surface as
    /// [`crate::error::StorageError::ChecksumMismatch`] instead of
    /// silently wrong data.
    #[must_use]
    pub fn crc32(&self) -> u32 {
        crate::checksum::crc32(&self.data[..])
    }

    /// Flip one bit (test/fault-injection hook).
    pub fn flip_bit(&mut self, bit: usize) {
        self.data[(bit / 8) % PAGE_SIZE] ^= 1 << (bit % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let p = Page::new();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn u16_roundtrip() {
        let mut p = Page::new();
        p.put_u16(10, 0xBEEF);
        assert_eq!(p.get_u16(10), 0xBEEF);
    }

    #[test]
    fn u32_roundtrip_at_end() {
        let mut p = Page::new();
        p.put_u32(PAGE_SIZE - 4, 0xDEAD_BEEF);
        assert_eq!(p.get_u32(PAGE_SIZE - 4), 0xDEAD_BEEF);
    }

    #[test]
    fn u64_roundtrip() {
        let mut p = Page::new();
        p.put_u64(0, u64::MAX - 7);
        assert_eq!(p.get_u64(0), u64::MAX - 7);
    }

    #[test]
    fn slice_write_read() {
        let mut p = Page::new();
        p.write_slice(100, b"statistics");
        assert_eq!(p.slice(100, 10), b"statistics");
        p.zero(100, 10);
        assert_eq!(p.slice(100, 10), &[0u8; 10]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let p = Page::new();
        let _ = p.get_u32(PAGE_SIZE - 2);
    }

    #[test]
    fn crc_detects_any_flipped_bit() {
        let mut p = Page::new();
        p.write_slice(0, b"summary database entry");
        let crc = p.crc32();
        for bit in [0, 77, PAGE_SIZE * 8 - 1] {
            let mut q = p.clone();
            q.flip_bit(bit);
            assert_ne!(q.crc32(), crc, "bit {bit}");
            q.flip_bit(bit);
            assert_eq!(q.crc32(), crc);
        }
    }
}
