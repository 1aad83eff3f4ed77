//! The §4.2 median window ("histogram with a pointer").
//!
//! The paper's scheme for order statistics, quoted: "Rather than saving
//! a single value as the result of this computation, we will store, in
//! the Summary Database, a histogram of some number, say 100, of values
//! around the median. Associated with the histogram will be a pointer
//! which will initially be set to the median. As updates are made to
//! the original data set the pointer can be moved up and down the list
//! reflecting the changes. When the pointer runs off the list a new
//! histogram will have to be generated… generation of the new histogram
//! will require only a single pass over the data."
//!
//! [`MedianWindow`] keeps a sorted window of up to `capacity` values
//! around the median plus exact counts of values below and above it.
//! The "pointer" is implicit: the median's global rank, computed from
//! the counts. Updates adjust counts or edit the window in O(log W);
//! [`MedianWindow::median`] returns `None` exactly when the pointer has
//! run off, and [`MedianWindow::rebuild`] regenerates from one pass
//! over the column.

/// Default window size — the paper's "say, 100" (one extra keeps the
/// window symmetric around a central element).
pub const DEFAULT_WINDOW: usize = 101;

/// A maintained window of values around the median.
#[derive(Debug, Clone, PartialEq)]
pub struct MedianWindow {
    capacity: usize,
    /// Sorted values around the median.
    window: Vec<f64>,
    /// Count of tracked values below `window[0]`.
    below: u64,
    /// Count of tracked values above `window.last()`.
    above: u64,
    /// Set false when counts go inconsistent (caller must rebuild).
    consistent: bool,
}

impl MedianWindow {
    /// An empty window with the given capacity (≥ 3).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        MedianWindow {
            capacity: capacity.max(3),
            window: Vec::new(),
            below: 0,
            above: 0,
            consistent: true,
        }
    }

    /// Window capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total tracked observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.below + self.window.len() as u64 + self.above
    }

    /// Regenerate from the full column — the paper's "single pass over
    /// the data" (one column scan; the in-memory sort is CPU, not I/O).
    pub fn rebuild(&mut self, data: &[f64]) {
        let mut sorted: Vec<f64> = data.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            self.window.clear();
            self.below = 0;
            self.above = 0;
            self.consistent = true;
            return;
        }
        let center = (n - 1) / 2;
        let half = self.capacity / 2;
        let start = center.saturating_sub(half);
        let end = (start + self.capacity).min(n);
        let start = end.saturating_sub(self.capacity).min(start);
        self.window = sorted[start..end].to_vec();
        self.below = start as u64;
        self.above = (n - end) as u64;
        self.consistent = true;
    }

    /// The median, if the pointer is still on the list. `None` means
    /// the window must be rebuilt (or the set is empty).
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        if !self.consistent {
            return None;
        }
        let n = self.total();
        if n == 0 || self.window.is_empty() {
            return None;
        }
        let lo_rank = (n - 1) / 2;
        let hi_rank = n / 2;
        let v_lo = self.value_at_rank(lo_rank)?;
        let v_hi = self.value_at_rank(hi_rank)?;
        Some((v_lo + v_hi) / 2.0)
    }

    fn value_at_rank(&self, rank: u64) -> Option<f64> {
        if rank < self.below {
            return None; // ran off the bottom
        }
        let idx = (rank - self.below) as usize;
        self.window.get(idx).copied() // None = ran off the top
    }

    /// Record an inserted value — O(log W).
    pub fn add(&mut self, x: f64) {
        if x.is_nan() || !self.consistent {
            return;
        }
        if self.window.is_empty() {
            if self.below == 0 && self.above == 0 {
                self.window.push(x);
            } else {
                // Window emptied out while outside counts remain: the
                // new value cannot be placed relative to them.
                self.consistent = false;
            }
            return;
        }
        let first = self.window[0];
        let last = *self.window.last().unwrap_or(&first);
        if x < first {
            self.below += 1;
        } else if x > last {
            self.above += 1;
        } else {
            let pos = self.window.partition_point(|&w| w < x);
            self.window.insert(pos, x);
            if self.window.len() > self.capacity {
                self.shed_excess();
            }
        }
    }

    /// Shed one value from whichever end is farther from the median
    /// rank, converting it into a below/above count.
    fn shed_excess(&mut self) {
        let n = self.total();
        let med_rank = (n - 1) / 2;
        // Index the median would have inside the window.
        let med_idx = med_rank.saturating_sub(self.below) as usize;
        if med_idx < self.window.len() / 2 {
            self.window.pop();
            self.above += 1;
        } else {
            self.window.remove(0);
            self.below += 1;
        }
    }

    /// Record a removed value. Returns `false` (and flags
    /// inconsistency) if the value cannot be accounted for.
    pub fn remove(&mut self, x: f64) -> bool {
        if x.is_nan() {
            return true;
        }
        if !self.consistent {
            return false;
        }
        if self.window.is_empty() {
            self.consistent = false;
            return false;
        }
        let first = self.window[0];
        let last = *self.window.last().unwrap_or(&first);
        // Prefer removing an exact copy from the window (handles
        // boundary-equal duplicates deterministically).
        if x >= first && x <= last {
            let pos = self.window.partition_point(|&w| w < x);
            if self.window.get(pos) == Some(&x) {
                self.window.remove(pos);
                return true;
            }
        }
        if x < first {
            if self.below == 0 {
                self.consistent = false;
                return false;
            }
            self.below -= 1;
            true
        } else if x > last {
            if self.above == 0 {
                self.consistent = false;
                return false;
            }
            self.above -= 1;
            true
        } else {
            // In-range but not present: untracked value.
            self.consistent = false;
            false
        }
    }

    /// Replace `old` with `new` — the §4.2 pointer movement. Returns
    /// `false` if the state went inconsistent (rebuild required).
    pub fn replace(&mut self, old: f64, new: f64) -> bool {
        if !self.remove(old) {
            return false;
        }
        self.add(new);
        self.consistent
    }

    /// Whether the median can currently be answered without a rebuild.
    #[must_use]
    pub fn is_usable(&self) -> bool {
        self.median().is_some()
    }

    // ---- binary encoding (for the disk-resident Summary Database) ----

    /// Serialize.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(21 + self.window.len() * 8);
        buf.extend_from_slice(&(self.capacity as u32).to_le_bytes());
        buf.extend_from_slice(&self.below.to_le_bytes());
        buf.extend_from_slice(&self.above.to_le_bytes());
        buf.push(u8::from(self.consistent));
        buf.extend_from_slice(&(self.window.len() as u32).to_le_bytes());
        for x in &self.window {
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        buf
    }

    /// Deserialize (inverse of [`MedianWindow::encode`]).
    pub fn decode(buf: &[u8], pos: &mut usize) -> crate::error::Result<Self> {
        use crate::value::{take_u32, take_u64};
        let capacity = take_u32(buf, pos)? as usize;
        let below = take_u64(buf, pos)?;
        let above = take_u64(buf, pos)?;
        let consistent = *buf
            .get(*pos)
            .ok_or(crate::error::SummaryError::Decode("window flag missing"))?
            != 0;
        *pos += 1;
        let n = take_u32(buf, pos)? as usize;
        let mut window = Vec::with_capacity(n);
        for _ in 0..n {
            window.push(f64::from_bits(take_u64(buf, pos)?));
        }
        Ok(MedianWindow {
            capacity: capacity.max(3),
            window,
            below,
            above,
            consistent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbms_stats::quantile;

    fn data(n: usize) -> Vec<f64> {
        // Deterministic scrambled values.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn rebuild_matches_batch_median() {
        for n in [1, 2, 3, 10, 100, 101, 1000] {
            let d = data(n);
            let mut w = MedianWindow::new(101);
            w.rebuild(&d);
            let expect = quantile::median(&d).unwrap();
            assert_eq!(w.median().unwrap(), expect, "n = {n}");
            assert_eq!(w.total(), n as u64);
        }
    }

    #[test]
    fn empty_has_no_median() {
        let mut w = MedianWindow::new(101);
        assert_eq!(w.median(), None);
        w.rebuild(&[]);
        assert_eq!(w.median(), None);
        assert!(!w.is_usable());
    }

    #[test]
    fn small_updates_tracked_exactly() {
        let mut d = data(1001);
        let mut w = MedianWindow::new(101);
        w.rebuild(&d);
        // Replace a few interior values and compare against recompute.
        for (i, new) in [(3usize, 250.0), (500, 750.0), (900, 10.0), (17, 499.5)] {
            let old = d[i];
            d[i] = new;
            assert!(w.replace(old, new), "replace {old} -> {new}");
            assert_eq!(
                w.median().unwrap(),
                quantile::median(&d).unwrap(),
                "after replacing index {i}"
            );
        }
    }

    #[test]
    fn deletions_and_insertions() {
        let mut d = data(500);
        let mut w = MedianWindow::new(101);
        w.rebuild(&d);
        // Delete 20 interior values.
        for _ in 0..20 {
            let x = d.swap_remove(123 % d.len());
            assert!(w.remove(x));
        }
        assert_eq!(w.median().unwrap(), quantile::median(&d).unwrap());
        for x in [250.3, 249.9, 251.1] {
            d.push(x);
            w.add(x);
        }
        assert_eq!(w.median().unwrap(), quantile::median(&d).unwrap());
        assert_eq!(w.total(), d.len() as u64);
    }

    #[test]
    fn pointer_runs_off_after_many_one_sided_updates() {
        // Shift mass upward until the median leaves the window.
        let mut d = data(10_001);
        let mut w = MedianWindow::new(101);
        w.rebuild(&d);
        let mut ran_off = false;
        for (i, x) in d.iter_mut().enumerate() {
            if *x < 3000.0 {
                let old = *x;
                *x = 9000.0 + i as f64 * 1e-3;
                w.replace(old, *x);
                if w.median().is_none() {
                    ran_off = true;
                    break;
                }
            }
        }
        assert!(ran_off, "median must eventually leave a 101-value window");
        // Rebuild restores exactness.
        w.rebuild(&d);
        assert_eq!(w.median().unwrap(), quantile::median(&d).unwrap());
    }

    #[test]
    fn window_absorbs_balanced_updates_without_rebuild() {
        // The paper's claim: small balanced updates only move the
        // pointer, no regeneration needed.
        let mut d = data(10_001);
        let mut w = MedianWindow::new(101);
        w.rebuild(&d);
        for i in 0..40 {
            // Alternate: push one low value high, one high value low.
            let (from, to) = if i % 2 == 0 {
                (d[i], 9_999.0)
            } else {
                (d[d.len() - 1 - i], 1.0)
            };
            let idx = d.iter().position(|&x| x == from).unwrap();
            d[idx] = to;
            assert!(w.replace(from, to), "step {i}");
            assert!(w.is_usable(), "step {i}: window should absorb balance");
        }
        assert_eq!(w.median().unwrap(), quantile::median(&d).unwrap());
    }

    #[test]
    fn inconsistent_removal_flags_rebuild() {
        let mut w = MedianWindow::new(11);
        w.rebuild(&data(100));
        // Remove a value that was never tracked and sits inside the
        // window range but not in the window (capacity 11 over 0..100:
        // the window spans roughly ranks 44..55, so 47.5 is in range).
        assert!(!w.remove(47.5));
        assert_eq!(w.median(), None);
        assert!(!w.replace(1.0, 2.0), "inconsistent state rejects updates");
    }

    #[test]
    fn tiny_capacity_still_correct() {
        let d = data(9);
        let mut w = MedianWindow::new(3);
        w.rebuild(&d);
        assert_eq!(w.median().unwrap(), quantile::median(&d).unwrap());
    }

    #[test]
    fn even_count_interpolates() {
        let mut w = MedianWindow::new(5);
        w.rebuild(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(w.median().unwrap(), 2.5);
        w.add(5.0);
        assert_eq!(w.median().unwrap(), 3.0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut w = MedianWindow::new(101);
        w.rebuild(&data(500));
        w.replace(100.0, 200.5);
        let bytes = w.encode();
        let mut pos = 0usize;
        let out = MedianWindow::decode(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(out, w);
        assert_eq!(out.median(), w.median());
    }

    #[test]
    fn nan_updates_ignored() {
        let mut w = MedianWindow::new(11);
        w.rebuild(&[1.0, 2.0, 3.0]);
        w.add(f64::NAN);
        assert!(w.remove(f64::NAN));
        assert_eq!(w.median().unwrap(), 2.0);
        assert_eq!(w.total(), 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_tracks_median_or_signals_rebuild(
            base in proptest::collection::vec(-1000.0f64..1000.0, 5..300),
            updates in proptest::collection::vec(
                (proptest::prelude::any::<proptest::sample::Index>(), -1000.0f64..1000.0), 0..60)
        ) {
            let mut d = base.clone();
            let mut w = MedianWindow::new(21);
            w.rebuild(&d);
            for (idx, new) in updates {
                let i = idx.index(d.len());
                let old = d[i];
                d[i] = new;
                if !w.replace(old, new) || !w.is_usable() {
                    w.rebuild(&d);
                }
                let expect = quantile::median(&d).unwrap();
                let got = w.median().unwrap();
                proptest::prop_assert!(
                    (got - expect).abs() < 1e-9,
                    "median {got} != {expect}"
                );
            }
        }
    }
}
