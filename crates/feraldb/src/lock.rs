//! Lock manager: shared/exclusive locks on rows and index keys.
//!
//! In-database constraints (unique indexes, foreign keys) are what make the
//! database-backed counterparts of feral validations race-free, and they are
//! race-free precisely because their checks run under key locks held until
//! commit. Feral `SELECT`-probe validations take **no** locks below
//! Serializable — the asymmetry this module makes explicit.
//!
//! Deadlocks are resolved by bounded waiting: a transaction that cannot
//! acquire a lock within the configured timeout (twice that while it is
//! older than every holder) aborts with [`DbError::LockTimeout`], like
//! lock-wait timeouts in MySQL and statement timeouts on PostgreSQL.

use crate::error::{DbError, DbResult};
use crate::schema::{IndexId, TableId};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of a transaction for lock-ownership purposes.
pub type TxnId = u64;

/// What a lock protects.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LockKey {
    /// A heap row, identified by table and row-chain position.
    Row(TableId, usize),
    /// An index key value (encoded composite key bytes). Locking an index
    /// key serializes constraint checks against writes of that key — the
    /// mechanism behind race-free unique and FK enforcement.
    Key(IndexId, Vec<u8>),
    /// A whole table (used by DDL).
    Table(TableId),
}

impl fmt::Display for LockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockKey::Row(t, r) => write!(f, "row {}.{}", t.0, r),
            LockKey::Key(i, k) => write!(f, "key idx{}:{:02x?}", i.0, &k[..k.len().min(8)]),
            LockKey::Table(t) => write!(f, "table {}", t.0),
        }
    }
}

/// Lock strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared: compatible with other shared holders.
    Shared,
    /// Exclusive: compatible with nothing (except re-entry by the holder).
    Exclusive,
}

#[derive(Default)]
struct LockState {
    /// Current holders and their strongest held mode.
    holders: Vec<(TxnId, LockMode)>,
    /// Number of transactions currently blocked on this lock (diagnostics).
    waiters: usize,
}

impl LockState {
    fn mode_of(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m)
    }

    fn compatible(&self, txn: TxnId, want: LockMode) -> bool {
        match want {
            LockMode::Shared => self
                .holders
                .iter()
                .all(|(t, m)| *t == txn || *m == LockMode::Shared),
            LockMode::Exclusive => self.holders.iter().all(|(t, _)| *t == txn),
        }
    }

    fn grant(&mut self, txn: TxnId, want: LockMode) {
        match self.holders.iter_mut().find(|(t, _)| *t == txn) {
            Some((_, m)) => {
                if *m == LockMode::Shared && want == LockMode::Exclusive {
                    *m = LockMode::Exclusive;
                }
            }
            None => self.holders.push((txn, want)),
        }
    }
}

struct LockCell {
    state: Mutex<LockState>,
    cv: Condvar,
}

/// The lock manager. One instance per [`crate::Database`].
pub struct LockManager {
    table: Mutex<HashMap<LockKey, Arc<LockCell>>>,
    timeout: Duration,
}

/// Report a lock-table touch to a schedule hook (sim only — callers
/// gate on `feral_hooks::active()`). Lock acquire attempts, grants, and
/// releases on the same key are mutually dependent scheduling events:
/// reordering them changes who waits and who times out.
fn note_lock_access(key: &LockKey, mode: LockMode) {
    feral_hooks::note_access(feral_hooks::Access {
        space: "lock",
        what: feral_hooks::fnv64(key.to_string().as_bytes()),
        mode: match mode {
            LockMode::Shared => feral_hooks::AccessMode::LockShared,
            LockMode::Exclusive => feral_hooks::AccessMode::LockExcl,
        },
    });
}

impl LockManager {
    /// Create a lock manager with the given wait timeout.
    pub fn new(timeout: Duration) -> Self {
        LockManager {
            table: Mutex::new(HashMap::new()),
            timeout,
        }
    }

    fn cell(&self, key: &LockKey) -> Arc<LockCell> {
        let mut table = self.table.lock();
        table
            .entry(key.clone())
            .or_insert_with(|| {
                Arc::new(LockCell {
                    state: Mutex::new(LockState::default()),
                    cv: Condvar::new(),
                })
            })
            .clone()
    }

    /// Acquire `key` in `mode` on behalf of `txn`, blocking up to the
    /// configured timeout times [`patience`]. Re-entrant; upgrades
    /// Shared→Exclusive when the holder is alone. `Ok` means the lock is
    /// held (newly or already), so callers can record it for release.
    pub fn acquire(&self, txn: TxnId, key: &LockKey, mode: LockMode) -> DbResult<()> {
        let cell = self.cell(key);
        let mut state = cell.state.lock();
        if let Some(held) = state.mode_of(txn) {
            if held == LockMode::Exclusive || mode == LockMode::Shared {
                return Ok(());
            }
        }
        if feral_hooks::active() {
            // Simulated execution: no wall-clock deadline. Hand the turn
            // back to the scheduler until the lock is free; a TimedOut
            // grant means we were elected deadlock victim and must abort
            // exactly as a timed-out waiter would.
            note_lock_access(key, mode);
            while !state.compatible(txn, mode) {
                state.waiters += 1;
                drop(state);
                let outcome = feral_hooks::wait(feral_hooks::WaitKind::Lock);
                state = cell.state.lock();
                state.waiters -= 1;
                // each wake-up re-checks the lock table in a new segment
                note_lock_access(key, mode);
                if outcome == feral_hooks::WaitOutcome::TimedOut && !state.compatible(txn, mode) {
                    return Err(DbError::LockTimeout {
                        lock: key.to_string(),
                    });
                }
            }
            state.grant(txn, mode);
            return Ok(());
        }
        let deadline = Instant::now() + self.timeout * patience(&state.holders, txn);
        while !state.compatible(txn, mode) {
            state.waiters += 1;
            let timed_out = cell.cv.wait_until(&mut state, deadline).timed_out();
            state.waiters -= 1;
            if timed_out && !state.compatible(txn, mode) {
                return Err(DbError::LockTimeout {
                    lock: key.to_string(),
                });
            }
        }
        state.grant(txn, mode);
        Ok(())
    }

    /// Try to acquire without blocking. Returns `false` if unavailable.
    pub fn try_acquire(&self, txn: TxnId, key: &LockKey, mode: LockMode) -> bool {
        let cell = self.cell(key);
        let mut state = cell.state.lock();
        if let Some(held) = state.mode_of(txn) {
            if held == LockMode::Exclusive || mode == LockMode::Shared {
                return true;
            }
        }
        if state.compatible(txn, mode) {
            state.grant(txn, mode);
            true
        } else {
            false
        }
    }

    /// Release a single lock held by `txn`.
    pub fn release(&self, txn: TxnId, key: &LockKey) {
        let cell = {
            let table = self.table.lock();
            match table.get(key) {
                Some(c) => c.clone(),
                None => return,
            }
        };
        let mut state = cell.state.lock();
        state.holders.retain(|(t, _)| *t != txn);
        cell.cv.notify_all();
        if feral_hooks::active() {
            // releases conflict with acquires regardless of held strength
            note_lock_access(key, LockMode::Exclusive);
        }
        feral_hooks::progress();
        // opportunistic cleanup of idle cells to bound memory on key-heavy
        // workloads
        if state.holders.is_empty() && state.waiters == 0 {
            drop(state);
            let mut table = self.table.lock();
            if let Some(c) = table.get(key) {
                let s = c.state.lock();
                if s.holders.is_empty() && s.waiters == 0 {
                    drop(s);
                    table.remove(key);
                }
            }
        }
    }

    /// Release every lock in `keys` held by `txn` (end of transaction).
    pub fn release_all(&self, txn: TxnId, keys: &[LockKey]) {
        for key in keys {
            self.release(txn, key);
        }
    }

    /// Number of lock cells currently materialized (diagnostics/tests).
    pub fn cells(&self) -> usize {
        self.table.lock().len()
    }
}

/// Timeout multiplier for a lock wait: a transaction older (lower id)
/// than every holder waits twice as long. In a two-transaction deadlock
/// both waits start together, so equal deadlines tend to expire both;
/// with this the younger one times out first and its release lets the
/// older one finish. `acquire` reads it once, from the holders present
/// when the wait starts; later changes to the holder set do not move
/// that deadline.
fn patience(holders: &[(TxnId, LockMode)], txn: TxnId) -> u32 {
    if holders.iter().all(|&(holder, _)| txn < holder) {
        2
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    fn key() -> LockKey {
        LockKey::Row(TableId(1), 7)
    }

    #[test]
    fn shared_locks_are_compatible() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.acquire(1, &key(), LockMode::Shared).unwrap();
        lm.acquire(2, &key(), LockMode::Shared).unwrap();
        lm.release(1, &key());
        lm.release(2, &key());
        assert_eq!(lm.cells(), 0);
    }

    #[test]
    fn exclusive_blocks_shared_until_timeout() {
        let lm = LockManager::new(Duration::from_millis(30));
        lm.acquire(1, &key(), LockMode::Exclusive).unwrap();
        let err = lm.acquire(2, &key(), LockMode::Shared).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        lm.release(1, &key());
        lm.acquire(2, &key(), LockMode::Shared).unwrap();
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::new(Duration::from_millis(30));
        lm.acquire(1, &key(), LockMode::Shared).unwrap();
        // sole holder may upgrade
        lm.acquire(1, &key(), LockMode::Exclusive).unwrap();
        // and re-acquire at any strength
        lm.acquire(1, &key(), LockMode::Shared).unwrap();
        lm.acquire(1, &key(), LockMode::Exclusive).unwrap();
        // others blocked
        assert!(!lm.try_acquire(2, &key(), LockMode::Shared));
    }

    #[test]
    fn upgrade_blocked_by_other_shared_holder() {
        let lm = LockManager::new(Duration::from_millis(20));
        lm.acquire(1, &key(), LockMode::Shared).unwrap();
        lm.acquire(2, &key(), LockMode::Shared).unwrap();
        let err = lm.acquire(1, &key(), LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
    }

    #[test]
    fn waiter_wakes_on_release() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        lm.acquire(1, &key(), LockMode::Exclusive).unwrap();
        let got = Arc::new(AtomicBool::new(false));
        let lm2 = lm.clone();
        let got2 = got.clone();
        let h = thread::spawn(move || {
            lm2.acquire(2, &key(), LockMode::Exclusive).unwrap();
            got2.store(true, Ordering::SeqCst);
            lm2.release(2, &key());
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!got.load(Ordering::SeqCst));
        lm.release(1, &key());
        h.join().unwrap();
        assert!(got.load(Ordering::SeqCst));
    }

    #[test]
    fn older_waiter_outlasts_younger_in_a_deadlock() {
        let timeout = Duration::from_millis(400);
        let lm = Arc::new(LockManager::new(timeout));
        let (a, b) = (key(), LockKey::Row(TableId(1), 8));
        lm.acquire(1, &a, LockMode::Exclusive).unwrap();
        lm.acquire(2, &b, LockMode::Exclusive).unwrap();
        let (lm1, b1) = (lm.clone(), b.clone());
        let older = thread::spawn(move || lm1.acquire(1, &b1, LockMode::Exclusive));
        while lm.cell(&b).state.lock().waiters == 0 {
            thread::yield_now();
        }
        // T1 has waited half a timeout when T2 (younger) closes the cycle:
        // with equal deadlines T1 would expire first, but it waits twice
        // as long, so T2 times out after one timeout and T1 finishes
        thread::sleep(timeout / 2);
        let started = Instant::now();
        let err = lm.acquire(2, &a, LockMode::Exclusive).unwrap_err();
        let waited = started.elapsed();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        assert!(waited >= timeout && waited < 2 * timeout, "{waited:?}");
        lm.release(2, &b);
        older
            .join()
            .unwrap()
            .expect("the older transaction gets B once the younger aborts");
        lm.release_all(1, &[a, b]);
        assert_eq!(lm.cells(), 0);
    }

    #[test]
    fn distinct_keys_do_not_conflict() {
        let lm = LockManager::new(Duration::from_millis(20));
        let k1 = LockKey::Key(IndexId(0), vec![1, 2, 3]);
        let k2 = LockKey::Key(IndexId(0), vec![1, 2, 4]);
        lm.acquire(1, &k1, LockMode::Exclusive).unwrap();
        lm.acquire(2, &k2, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn release_all_clears_everything() {
        let lm = LockManager::new(Duration::from_millis(20));
        let keys = vec![
            LockKey::Row(TableId(0), 0),
            LockKey::Row(TableId(0), 1),
            LockKey::Key(IndexId(3), vec![9]),
        ];
        for k in &keys {
            lm.acquire(7, k, LockMode::Exclusive).unwrap();
        }
        lm.release_all(7, &keys);
        for k in &keys {
            assert!(lm.try_acquire(8, k, LockMode::Exclusive));
        }
    }
}
