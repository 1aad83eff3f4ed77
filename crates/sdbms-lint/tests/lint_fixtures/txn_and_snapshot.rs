//! Known-bad fixture: unordered lock acquisition and in-place store
//! mutation. Expected findings (see ../fixtures.rs):
//!   line 15  txn-lock-order     (acquire_raw in library code)
//!   line 20  snapshot-bypass    (.store.set_cell mutates in place)
//!   line 21  snapshot-bypass    (.store.set_cells mutates in place)
//!   line 26  snapshot-bypass    (.store = assignment skips install)
//!   line 31  snapshot-bypass    (store_mut, the in-place accessor, is back)
//!   line 32  snapshot-bypass    (Arc::get_mut writes the installed store)

/// Grabs a lock below the session's current maximum — acquire_raw
/// skips the order check that would have caught it.
pub fn sneak_lock(locks: &std::sync::Arc<LockTable>, session: u64) -> LockGuard {
    // The checked path would return OrderViolation here; the raw path
    // silently admits the cycle.
    locks.acquire_raw(session, "aardvark")
}

/// Writes cells straight through a possibly-pinned store.
pub fn poke(v: &mut ConcreteView) {
    v.store.set_cell(0, 3, Value::Int(9));
    v.store.set_cells("AGE", &[(1, Value::Int(9))], &mut Vec::new());
}

/// Swaps the store without a version bump or epoch retire.
pub fn swap(v: &mut ConcreteView, s: Arc<dyn TableStore>) {
    v.store = s;
}

/// Writes the installed version when no snapshot happens to pin it.
pub fn poke_unshared(v: &mut ConcreteView) {
    v.store_mut().set_cell(0, 3, Value::Int(9));
    if let Some(s) = Arc::get_mut(&mut v.store) {
        s.set_cell(0, 3, Value::Int(9));
    }
}

/// Reads are fine on a shared store: no findings below this line.
pub fn peek(v: &ConcreteView) -> usize {
    let n = v.store.row_count();
    // A comparison is not an assignment.
    if v.store == v.store { n } else { 0 }
}
