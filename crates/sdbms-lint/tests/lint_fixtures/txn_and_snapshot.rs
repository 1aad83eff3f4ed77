//! Known-bad fixture: unordered lock acquisition and in-place store
//! mutation. Expected findings (see ../fixtures.rs):
//!   line 13  txn-lock-order     (acquire_raw in library code)
//!   line 18  snapshot-bypass    (.store.set_cell mutates in place)
//!   line 19  snapshot-bypass    (.store.set_cells mutates in place)
//!   line 24  snapshot-bypass    (.store = assignment skips install)

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

/// Reads are fine on a shared store: no findings below this line.
pub fn peek(v: &ConcreteView) -> usize {
    let n = v.store.row_count();
    // A comparison is not an assignment.
    if v.store == v.store { n } else { 0 }
}
