//! Disk-resident B+tree with variable-length byte keys.
//!
//! Keys compare as raw bytes (see [`crate::keyenc`] for
//! order-preserving encodings) and map to `u64` values (typically a
//! packed [`crate::heap::Rid`]). Duplicate *keys* are allowed;
//! `(key, value)` pairs are unique, as in a secondary index where the
//! value is a record id. Internally, entries and separators are ordered
//! by the `(key, value)` pair, which keeps separator invariants exact
//! even when one key's postings span several leaves.
//!
//! Nodes are (de)serialized whole through the buffer pool — simple and
//! correct; the buffer pool keeps hot nodes resident so the I/O pattern
//! is still realistic. Deletion is *lazy* (no rebalancing): leaves may
//! underflow or empty out but stay linked, which matches the paper's
//! workload where indexes grow monotonically with the Summary Database
//! and deletions are rare.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::{Mutex, Rank};

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, INVALID_PAGE, PAGE_SIZE};

/// Largest permitted key, chosen so a node always holds several keys.
pub const MAX_KEY: usize = 1000;

/// Split threshold: serialize up to this many bytes per node.
const MAX_NODE_BYTES: usize = PAGE_SIZE;

/// Lexicographic order on `(key, value)` pairs.
fn cmp_entry(k1: &[u8], v1: u64, k2: &[u8], v2: u64) -> Ordering {
    k1.cmp(k2).then(v1.cmp(&v2))
}

/// Cycle detector for page-link walks. A page that was allocated but
/// never flushed before a crash reads back zeroed, which decodes as an
/// empty leaf whose `next` pointer is page 0 — a walk that trusted the
/// link would loop forever. Any revisited page means the structure is
/// torn, and the walk must fail with [`StorageError::Corrupt`] so the
/// caller can quarantine and rebuild.
#[derive(Default)]
struct ChainGuard {
    seen: HashSet<PageId>,
}

impl ChainGuard {
    fn visit(&mut self, pid: PageId) -> Result<()> {
        if self.seen.insert(pid) {
            Ok(())
        } else {
            Err(StorageError::corrupt("page-link cycle in b+tree").at_page(pid))
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, u64)>,
        next: PageId,
    },
    Internal {
        /// `seps[i]` separates `children[i]` (strictly less) from
        /// `children[i+1]` (greater or equal), comparing `(key, value)`
        /// pairs.
        seps: Vec<(Vec<u8>, u64)>,
        children: Vec<PageId>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                1 + 2 + 4 + entries.iter().map(|(k, _)| 2 + k.len() + 8).sum::<usize>()
            }
            Node::Internal { seps, children } => {
                1 + 2
                    + 4 * children.len()
                    + seps.iter().map(|(k, _)| 2 + k.len() + 8).sum::<usize>()
            }
        }
    }

    fn write_to(&self, p: &mut Page) {
        match self {
            Node::Leaf { entries, next } => {
                p.bytes_mut()[0] = 0;
                p.put_u16(1, entries.len() as u16);
                p.put_u32(3, *next);
                let mut off = 7;
                for (k, v) in entries {
                    p.put_u16(off, k.len() as u16);
                    off += 2;
                    p.write_slice(off, k);
                    off += k.len();
                    p.put_u64(off, *v);
                    off += 8;
                }
            }
            Node::Internal { seps, children } => {
                p.bytes_mut()[0] = 1;
                p.put_u16(1, seps.len() as u16);
                let mut off = 3;
                for c in children {
                    p.put_u32(off, *c);
                    off += 4;
                }
                for (k, v) in seps {
                    p.put_u16(off, k.len() as u16);
                    off += 2;
                    p.write_slice(off, k);
                    off += k.len();
                    p.put_u64(off, *v);
                    off += 8;
                }
            }
        }
    }

    fn read_from(p: &Page) -> Result<Node> {
        #[allow(clippy::type_complexity)] // local helper, not API surface
        let read_pairs =
            |p: &Page, mut off: usize, n: usize| -> Result<(Vec<(Vec<u8>, u64)>, usize)> {
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    if off + 2 > PAGE_SIZE {
                        return Err(StorageError::corrupt("entry header past page end"));
                    }
                    let klen = p.get_u16(off) as usize;
                    off += 2;
                    if off + klen + 8 > PAGE_SIZE {
                        return Err(StorageError::corrupt("entry past page end"));
                    }
                    let k = p.slice(off, klen).to_vec();
                    off += klen;
                    let v = p.get_u64(off);
                    off += 8;
                    out.push((k, v));
                }
                Ok((out, off))
            };
        match p.bytes()[0] {
            0 => {
                let n = p.get_u16(1) as usize;
                let next = p.get_u32(3);
                let (entries, _) = read_pairs(p, 7, n)?;
                Ok(Node::Leaf { entries, next })
            }
            1 => {
                let n = p.get_u16(1) as usize;
                let mut off = 3;
                let mut children = Vec::with_capacity(n + 1);
                for _ in 0..=n {
                    children.push(p.get_u32(off));
                    off += 4;
                }
                let (seps, _) = read_pairs(p, off, n)?;
                Ok(Node::Internal { seps, children })
            }
            _ => Err(StorageError::corrupt("unknown node type byte")),
        }
    }
}

struct TreeState {
    root: PageId,
    len: u64,
}

/// A B+tree mapping byte keys to `u64` values. `(key, value)` pairs are
/// unique; one key may map to many values.
pub struct BTree {
    pool: Arc<BufferPool>,
    state: Mutex<TreeState>,
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("BTree")
            .field("root", &s.root)
            .field("len", &s.len)
            .finish()
    }
}

impl BTree {
    /// Create an empty tree (a single empty leaf).
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let root = Node::Leaf {
            entries: Vec::new(),
            next: INVALID_PAGE,
        };
        let (pid, guard) = pool.new_page()?;
        guard.with_mut(|p| root.write_to(p));
        drop(guard);
        Ok(BTree {
            pool,
            state: Mutex::new(Rank::BtreeState, TreeState { root: pid, len: 0 }),
        })
    }

    /// Number of `(key, value)` pairs in the tree.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.state.lock().len
    }

    /// True if the tree has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn load(&self, pid: PageId) -> Result<Node> {
        let guard = self.pool.fetch(pid)?;
        guard.with(Node::read_from).map_err(|e| e.at_page(pid))
    }

    fn store(&self, pid: PageId, node: &Node) -> Result<()> {
        debug_assert!(node.serialized_size() <= PAGE_SIZE);
        let guard = self.pool.fetch(pid)?;
        guard.with_mut(|p| node.write_to(p));
        Ok(())
    }

    fn store_new(&self, node: &Node) -> Result<PageId> {
        let (pid, guard) = self.pool.new_page()?;
        guard.with_mut(|p| node.write_to(p));
        Ok(pid)
    }

    /// Insert a `(key, value)` pair. Returns `false` (and changes
    /// nothing) if the exact pair is already present.
    pub fn insert(&self, key: &[u8], value: u64) -> Result<bool> {
        if key.len() > MAX_KEY {
            return Err(StorageError::KeyTooLarge {
                len: key.len(),
                max: MAX_KEY,
            });
        }
        let root = self.state.lock().root;
        let outcome = self.insert_rec(root, key, value)?;
        match outcome {
            InsertOutcome::Duplicate => Ok(false),
            InsertOutcome::Done => {
                self.state.lock().len += 1;
                Ok(true)
            }
            InsertOutcome::Split(sep, right) => {
                // Root split: keep the root page id stable by moving the
                // old root's contents to a fresh page.
                let old_root_node = self.load(root)?;
                let moved_old = self.store_new(&old_root_node)?;
                let new_root = Node::Internal {
                    seps: vec![sep],
                    children: vec![moved_old, right],
                };
                self.store(root, &new_root)?;
                self.state.lock().len += 1;
                Ok(true)
            }
        }
    }

    fn insert_rec(&self, pid: PageId, key: &[u8], value: u64) -> Result<InsertOutcome> {
        let mut node = self.load(pid)?;
        match &mut node {
            Node::Leaf { entries, .. } => {
                let pos = match entries.binary_search_by(|(k, v)| cmp_entry(k, *v, key, value)) {
                    Ok(_) => return Ok(InsertOutcome::Duplicate),
                    Err(p) => p,
                };
                entries.insert(pos, (key.to_vec(), value));
                if node.serialized_size() <= MAX_NODE_BYTES {
                    self.store(pid, &node)?;
                    return Ok(InsertOutcome::Done);
                }
                // Split near the byte-size midpoint.
                let Node::Leaf { entries, next } = node else {
                    // lint: allow(no-panic): node was destructured as Leaf at the top of this arm; rebinding cannot change the variant
                    unreachable!()
                };
                let total: usize = entries.iter().map(|(k, _)| 2 + k.len() + 8).sum();
                let mut acc = 0usize;
                let mut split_at = entries.len() / 2;
                for (i, (k, _)) in entries.iter().enumerate() {
                    acc += 2 + k.len() + 8;
                    if acc * 2 >= total {
                        split_at = (i + 1).clamp(1, entries.len() - 1);
                        break;
                    }
                }
                let right_entries = entries[split_at..].to_vec();
                let left_entries = entries[..split_at].to_vec();
                let sep = right_entries[0].clone();
                let right = Node::Leaf {
                    entries: right_entries,
                    next,
                };
                let right_pid = self.store_new(&right)?;
                let left = Node::Leaf {
                    entries: left_entries,
                    next: right_pid,
                };
                self.store(pid, &left)?;
                Ok(InsertOutcome::Split(sep, right_pid))
            }
            Node::Internal { seps, children } => {
                let idx = child_index(seps, key, value);
                let child = children[idx];
                match self.insert_rec(child, key, value)? {
                    InsertOutcome::Duplicate => Ok(InsertOutcome::Duplicate),
                    InsertOutcome::Done => Ok(InsertOutcome::Done),
                    InsertOutcome::Split(sep, right_pid) => {
                        seps.insert(idx, sep);
                        children.insert(idx + 1, right_pid);
                        if node.serialized_size() <= MAX_NODE_BYTES {
                            self.store(pid, &node)?;
                            return Ok(InsertOutcome::Done);
                        }
                        let Node::Internal { seps, children } = node else {
                            // lint: allow(no-panic): node was destructured as Internal at the top of this arm; rebinding cannot change the variant
                            unreachable!()
                        };
                        let mid = seps.len() / 2;
                        let up = seps[mid].clone();
                        let right = Node::Internal {
                            seps: seps[mid + 1..].to_vec(),
                            children: children[mid + 1..].to_vec(),
                        };
                        let right_pid = self.store_new(&right)?;
                        let left = Node::Internal {
                            seps: seps[..mid].to_vec(),
                            children: children[..=mid].to_vec(),
                        };
                        self.store(pid, &left)?;
                        Ok(InsertOutcome::Split(up, right_pid))
                    }
                }
            }
        }
    }

    /// All values stored under exactly `key`, in ascending value order.
    pub fn get(&self, key: &[u8]) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        self.for_range(Some(key), Some(key), |_, v| {
            out.push(v);
            true
        })?;
        Ok(out)
    }

    /// Smallest value under `key`, if any.
    pub fn get_first(&self, key: &[u8]) -> Result<Option<u64>> {
        let mut out = None;
        self.for_range(Some(key), Some(key), |_, v| {
            out = Some(v);
            false
        })?;
        Ok(out)
    }

    /// True if the exact `(key, value)` pair is present.
    pub fn contains(&self, key: &[u8], value: u64) -> Result<bool> {
        let leaf_pid = self.descend(key, value)?;
        let node = self.load(leaf_pid)?;
        let Node::Leaf { entries, .. } = node else {
            return Err(StorageError::corrupt("descend hit internal node").at_page(leaf_pid));
        };
        Ok(entries
            .binary_search_by(|(k, v)| cmp_entry(k, *v, key, value))
            .is_ok())
    }

    /// Remove one `(key, value)` pair. Returns whether a pair was
    /// removed. Lazy: nodes are never merged.
    pub fn delete(&self, key: &[u8], value: u64) -> Result<bool> {
        let leaf_pid = self.descend(key, value)?;
        let mut node = self.load(leaf_pid)?;
        let Node::Leaf { entries, .. } = &mut node else {
            return Err(StorageError::corrupt("descend hit internal node").at_page(leaf_pid));
        };
        if let Ok(pos) = entries.binary_search_by(|(k, v)| cmp_entry(k, *v, key, value)) {
            entries.remove(pos);
            self.store(leaf_pid, &node)?;
            self.state.lock().len -= 1;
            return Ok(true);
        }
        Ok(false)
    }

    /// Leaf that would contain the pair `(key, value)`.
    fn descend(&self, key: &[u8], value: u64) -> Result<PageId> {
        let mut pid = self.state.lock().root;
        let mut guard = ChainGuard::default();
        loop {
            guard.visit(pid)?;
            match self.load(pid)? {
                Node::Leaf { .. } => return Ok(pid),
                Node::Internal { seps, children } => {
                    pid = children[child_index(&seps, key, value)];
                }
            }
        }
    }

    /// Visit `(key, value)` pairs with `low <= key <= high` in
    /// `(key, value)` order (`None` bounds are unbounded). The visitor
    /// returns `false` to stop early.
    pub fn for_range(
        &self,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
        mut visit: impl FnMut(&[u8], u64) -> bool,
    ) -> Result<()> {
        // Start at the leaf that would hold (low, value 0): every pair
        // with key >= low is at or after that position.
        let mut pid = self.descend(low.unwrap_or(&[]), 0)?;
        let mut guard = ChainGuard::default();
        loop {
            guard.visit(pid)?;
            let node = self.load(pid)?;
            let Node::Leaf { entries, next } = node else {
                return Err(StorageError::corrupt("leaf chain hit internal node").at_page(pid));
            };
            for (k, v) in &entries {
                if let Some(lo) = low {
                    if k.as_slice() < lo {
                        continue;
                    }
                }
                if let Some(hi) = high {
                    if k.as_slice() > hi {
                        return Ok(());
                    }
                }
                if !visit(k, *v) {
                    return Ok(());
                }
            }
            if next == INVALID_PAGE {
                return Ok(());
            }
            pid = next;
        }
    }

    /// Collect a whole key range (convenience over [`BTree::for_range`]).
    pub fn range(&self, low: Option<&[u8]>, high: Option<&[u8]>) -> Result<Vec<(Vec<u8>, u64)>> {
        let mut out = Vec::new();
        self.for_range(low, high, |k, v| {
            out.push((k.to_vec(), v));
            true
        })?;
        Ok(out)
    }

    /// Collect every entry whose key starts with `prefix`.
    pub fn prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, u64)>> {
        let mut out = Vec::new();
        let mut pid = self.descend(prefix, 0)?;
        let mut guard = ChainGuard::default();
        loop {
            guard.visit(pid)?;
            let node = self.load(pid)?;
            let Node::Leaf { entries, next } = node else {
                return Err(StorageError::corrupt("leaf chain hit internal node").at_page(pid));
            };
            for (k, v) in &entries {
                if k.as_slice() < prefix {
                    continue;
                }
                if !k.starts_with(prefix) {
                    return Ok(out);
                }
                out.push((k.clone(), *v));
            }
            if next == INVALID_PAGE {
                return Ok(out);
            }
            pid = next;
        }
    }
}

enum InsertOutcome {
    /// Pair already present; nothing changed.
    Duplicate,
    /// Inserted without splitting.
    Done,
    /// Inserted; this node split and the parent must absorb
    /// `(separator, right sibling)`.
    Split((Vec<u8>, u64), PageId),
}

/// Index of the child an entry `(key, value)` belongs to: entries equal
/// to a separator live in the right child.
fn child_index(seps: &[(Vec<u8>, u64)], key: &[u8], value: u64) -> usize {
    match seps.binary_search_by(|(k, v)| cmp_entry(k, *v, key, value)) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Tracker;
    use crate::disk::DiskManager;

    fn tree(frames: usize) -> BTree {
        let disk = Arc::new(DiskManager::new(Tracker::new()));
        let pool = Arc::new(BufferPool::new(disk, frames));
        BTree::create(pool).unwrap()
    }

    /// Big-endian, so byte order is numeric order.
    fn encode_u64(v: u64) -> [u8; 8] {
        v.to_be_bytes()
    }

    /// Levels from the root down to the leftmost leaf.
    fn height(t: &BTree) -> usize {
        let mut pid = t.state.lock().root;
        let mut h = 1;
        while let Node::Internal { children, .. } = t.load(pid).unwrap() {
            pid = children[0];
            h += 1;
        }
        h
    }

    #[test]
    fn insert_get_single() {
        let t = tree(16);
        assert!(t.insert(b"alpha", 1).unwrap());
        assert_eq!(t.get(b"alpha").unwrap(), vec![1]);
        assert_eq!(t.get(b"beta").unwrap(), Vec::<u64>::new());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn exact_duplicate_pair_rejected() {
        let t = tree(16);
        assert!(t.insert(b"k", 7).unwrap());
        assert!(!t.insert(b"k", 7).unwrap());
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b"k").unwrap(), vec![7]);
    }

    #[test]
    fn thousand_keys_sorted_scan() {
        let t = tree(64);
        let mut keys: Vec<u64> = (0..1000).collect();
        keys.reverse();
        for &k in &keys {
            assert!(t.insert(&encode_u64(k), k * 2).unwrap());
        }
        assert_eq!(t.len(), 1000);
        assert!(height(&t) > 1, "tree should have split");
        let all = t.range(None, None).unwrap();
        assert_eq!(all.len(), 1000);
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(k.as_slice(), encode_u64(i as u64));
            assert_eq!(*v, (i as u64) * 2);
        }
    }

    #[test]
    fn duplicate_keys_all_returned_in_value_order() {
        let t = tree(16);
        for v in (0..10u64).rev() {
            t.insert(b"dup", v).unwrap();
        }
        assert_eq!(t.get(b"dup").unwrap(), (0..10).collect::<Vec<_>>());
        assert_eq!(t.get_first(b"dup").unwrap(), Some(0));
    }

    #[test]
    fn many_duplicates_of_one_key_span_leaves() {
        let t = tree(64);
        // Enough postings under a single key to force splits.
        for v in 0..2000u64 {
            assert!(t.insert(b"hot-key", v).unwrap());
        }
        assert!(height(&t) > 1);
        let vals = t.get(b"hot-key").unwrap();
        assert_eq!(vals, (0..2000).collect::<Vec<_>>());
        // contains() must find pairs on both sides of splits.
        assert!(t.contains(b"hot-key", 0).unwrap());
        assert!(t.contains(b"hot-key", 1999).unwrap());
        assert!(!t.contains(b"hot-key", 2000).unwrap());
        // Re-inserting any existing posting is rejected.
        assert!(!t.insert(b"hot-key", 1000).unwrap());
    }

    #[test]
    fn delete_specific_pair() {
        let t = tree(16);
        t.insert(b"k", 1).unwrap();
        t.insert(b"k", 2).unwrap();
        t.insert(b"k", 3).unwrap();
        assert!(t.delete(b"k", 2).unwrap());
        assert!(!t.delete(b"k", 2).unwrap());
        assert_eq!(t.get(b"k").unwrap(), vec![1, 3]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn range_bounds_inclusive() {
        let t = tree(32);
        for k in 0..100u64 {
            t.insert(&encode_u64(k), k).unwrap();
        }
        let r = t
            .range(Some(&encode_u64(10)), Some(&encode_u64(20)))
            .unwrap();
        let vals: Vec<u64> = r.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, (10..=20).collect::<Vec<_>>());
    }

    #[test]
    fn range_after_deletions() {
        let t = tree(32);
        for k in 0..200u64 {
            t.insert(&encode_u64(k), k).unwrap();
        }
        for k in (0..200u64).step_by(2) {
            assert!(t.delete(&encode_u64(k), k).unwrap());
        }
        let vals: Vec<u64> = t
            .range(None, None)
            .unwrap()
            .iter()
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(vals, (1..200).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn prefix_scan() {
        let t = tree(16);
        t.insert(b"age:min", 1).unwrap();
        t.insert(b"age:max", 2).unwrap();
        t.insert(b"salary:min", 3).unwrap();
        t.insert(b"age:mean", 4).unwrap();
        let hits = t.prefix(b"age:").unwrap();
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|(k, _)| k.starts_with(b"age:")));
    }

    #[test]
    fn long_keys_split_correctly() {
        let t = tree(32);
        for i in 0..50u64 {
            let mut k = vec![b'x'; 900];
            k.extend_from_slice(&encode_u64(i));
            t.insert(&k, i).unwrap();
        }
        assert_eq!(t.len(), 50);
        let all = t.range(None, None).unwrap();
        assert_eq!(all.len(), 50);
        for (i, (_, v)) in all.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn oversized_key_rejected() {
        let t = tree(8);
        let k = vec![0u8; MAX_KEY + 1];
        assert!(matches!(
            t.insert(&k, 0),
            Err(StorageError::KeyTooLarge { .. })
        ));
    }

    #[test]
    fn early_stop_visitor() {
        let t = tree(16);
        for k in 0..100u64 {
            t.insert(&encode_u64(k), k).unwrap();
        }
        let mut seen = 0;
        t.for_range(None, None, |_, _| {
            seen += 1;
            seen < 5
        })
        .unwrap();
        assert_eq!(seen, 5);
    }

    #[test]
    fn works_with_tiny_pool() {
        let t = tree(3);
        for k in 0..500u64 {
            t.insert(&encode_u64(k), k).unwrap();
        }
        assert_eq!(t.get(&encode_u64(250)).unwrap(), vec![250]);
        assert_eq!(t.range(None, None).unwrap().len(), 500);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_matches_btreeset(ops in proptest::collection::vec(
            (proptest::prelude::any::<u16>(), proptest::prelude::any::<bool>()), 1..200)) {
            let t = tree(32);
            let mut model: std::collections::BTreeSet<(Vec<u8>, u64)> = Default::default();
            for (k, is_insert) in ops {
                let key = encode_u64(u64::from(k % 64)).to_vec();
                let val = u64::from(k);
                if is_insert {
                    let inserted = t.insert(&key, val).unwrap();
                    let model_inserted = model.insert((key, val));
                    proptest::prop_assert_eq!(inserted, model_inserted);
                } else {
                    let removed = t.delete(&key, val).unwrap();
                    let model_removed = model.remove(&(key, val));
                    proptest::prop_assert_eq!(removed, model_removed);
                }
                proptest::prop_assert_eq!(t.len(), model.len() as u64);
            }
            let got = t.range(None, None).unwrap();
            let want: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
            proptest::prop_assert_eq!(got, want);
        }
    }
}
