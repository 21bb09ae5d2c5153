//! Key-routed shards behind independent reader-writer locks: the one
//! sharded-lock table under the xmldb collections and the fan-out
//! subscription table.
//!
//! A key routes to one of the first `routed` shards by [`hash_str`]; any
//! `extra` shards after them (fan-out's wildcard shard) are reached by
//! index only. Every acquire tries the lock first and, if it is held,
//! reports one contention to the owner's callback before blocking, so an
//! uncontended acquire costs one `try_read`/`try_write` and allocates
//! nothing.

use std::sync::{RwLockReadGuard, RwLockWriteGuard};

use parking_lot::RwLock;

use crate::rng::hash_str;

/// Called with the shard index on every contended acquire.
type OnContention = Box<dyn Fn(usize) + Send + Sync>;

/// `T`s behind one `RwLock` each; see the module docs.
pub struct Shards<T> {
    locks: Box<[RwLock<T>]>,
    routed: usize,
    on_contention: OnContention,
}

impl<T> Shards<T> {
    /// `routed` keyed shards (at least one) plus `extra` unrouted ones,
    /// each starting as `init()`.
    pub fn new(
        routed: usize,
        extra: usize,
        init: impl FnMut() -> T,
        on_contention: impl Fn(usize) + Send + Sync + 'static,
    ) -> Self {
        let routed = routed.max(1);
        Shards {
            locks: std::iter::repeat_with(init)
                .map(RwLock::new)
                .take(routed + extra)
                .collect(),
            routed,
            on_contention: Box::new(on_contention),
        }
    }

    /// Every shard, routed and extra.
    pub fn count(&self) -> usize {
        self.locks.len()
    }

    /// Shards a key can route to.
    pub fn routed(&self) -> usize {
        self.routed
    }

    /// The routed shard `key` maps to (stable across runs and platforms).
    pub fn route(&self, key: &str) -> usize {
        (hash_str(key) % self.routed as u64) as usize
    }

    /// Shard `i`'s read lock, counting a contended acquire.
    pub fn read(&self, i: usize) -> RwLockReadGuard<'_, T> {
        let lock = &self.locks[i];
        if let Some(g) = lock.try_read() {
            return g;
        }
        (self.on_contention)(i);
        lock.read()
    }

    /// Shard `i`'s write lock, counting a contended acquire.
    pub fn write(&self, i: usize) -> RwLockWriteGuard<'_, T> {
        let lock = &self.locks[i];
        if let Some(g) = lock.try_write() {
            return g;
        }
        (self.on_contention)(i);
        lock.write()
    }

    /// Every shard's read lock, taken in index order.
    pub fn read_all(&self) -> Vec<RwLockReadGuard<'_, T>> {
        (0..self.count()).map(|i| self.read(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};

    fn counted(routed: usize, extra: usize) -> (Arc<Shards<u32>>, Arc<AtomicU64>) {
        let seen = Arc::new(AtomicU64::new(0));
        let count = seen.clone();
        let shards = Shards::new(
            routed,
            extra,
            || 0,
            move |_| {
                count.fetch_add(1, Ordering::Relaxed);
            },
        );
        (Arc::new(shards), seen)
    }

    #[test]
    fn routes_within_the_routed_shards_only() {
        let (shards, _) = counted(4, 1);
        assert_eq!((shards.count(), shards.routed()), (5, 4));
        for i in 0..100 {
            let key = format!("k{i}");
            assert!(shards.route(&key) < 4);
            assert_eq!(shards.route(&key), (hash_str(&key) % 4) as usize);
        }
    }

    #[test]
    fn uncontended_acquires_count_nothing() {
        let (shards, seen) = counted(2, 1);
        *shards.write(0) += 1;
        assert_eq!(*shards.read(0), 1);
        let _both = (shards.read(1), shards.read(1));
        drop(shards.write(2));
        assert_eq!(seen.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_read_behind_a_held_write_counts_one_contention() {
        let (shards, seen) = counted(2, 0);
        let (locked, wait_locked) = mpsc::channel();
        let (release, wait_release) = mpsc::channel::<()>();
        let holder = {
            let shards = shards.clone();
            std::thread::spawn(move || {
                let mut guard = shards.write(1);
                locked.send(()).unwrap();
                wait_release.recv().unwrap();
                *guard = 7;
            })
        };
        wait_locked.recv().unwrap();
        let reader = {
            let shards = shards.clone();
            std::thread::spawn(move || *shards.read(1))
        };
        while seen.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        holder.join().unwrap();
        assert_eq!(reader.join().unwrap(), 7);
        assert_eq!(seen.load(Ordering::Relaxed), 1);
        assert_eq!(*shards.read(0), 0);
    }
}
