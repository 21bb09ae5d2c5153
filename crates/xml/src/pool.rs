//! A thread-local pool of reusable `String` buffers for wire serialisation.
//!
//! Every hop of both stacks serialises at least one envelope; without
//! pooling, each serialisation allocates a fresh multi-kilobyte buffer and
//! frees it microseconds later. [`pooled_string`] hands out a cleared buffer
//! that keeps its old capacity, and [`PooledString`]'s `Drop` returns it to
//! the pool — so steady-state message traffic serialises with zero buffer
//! allocations per message.
//!
//! Ownership rules (see DESIGN.md §12):
//! - A pooled buffer must not outlive the scope that checked it out; to keep
//!   the bytes (e.g. a oneway job queued for later delivery), call
//!   [`PooledString::into_string`], which detaches the buffer from the pool.
//! - The pool is thread-local and lock-free; buffers never migrate between
//!   threads, so there is no cross-thread contention and no `Send` impl is
//!   needed.
//! - Capacity is bounded: the pool keeps at most [`MAX_POOLED`] buffers and
//!   drops any buffer that grew beyond [`MAX_POOLED_CAPACITY`], so one
//!   pathological message cannot pin megabytes for the process lifetime.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Maximum number of idle buffers retained per thread.
const MAX_POOLED: usize = 16;
/// Buffers that grew beyond this many bytes are freed instead of pooled.
const MAX_POOLED_CAPACITY: usize = 1 << 20;

thread_local! {
    static POOL: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Check out an empty `String` from this thread's pool (allocating a fresh
/// one only when the pool is dry). Dropping the handle returns the buffer.
pub fn pooled_string() -> PooledString {
    let buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    debug_assert!(buf.is_empty());
    PooledString { buf: Some(buf) }
}

/// The `String` that `write` produces, at the cost of exactly one
/// allocation once the pool is warm: written into a pooled buffer, whose
/// capacity is already there, and copied out at its final length — cheaper
/// than walking the input once to size the buffer and again to fill it.
pub fn collect_pooled(write: impl FnOnce(&mut String)) -> String {
    let mut buf = pooled_string();
    write(&mut buf);
    buf.as_str().to_owned()
}

/// An owned, pooled `String`. Dereferences to `String`, so it can be handed
/// to any `&mut String` serialisation entry point.
pub struct PooledString {
    /// `None` only after [`PooledString::into_string`] detaches the buffer.
    buf: Option<String>,
}

impl PooledString {
    /// Detach the buffer from the pool, keeping its contents. Use this when
    /// the serialised bytes must outlive the checkout scope.
    pub fn into_string(mut self) -> String {
        self.buf.take().expect("buffer already detached")
    }
}

impl Deref for PooledString {
    type Target = String;
    fn deref(&self) -> &String {
        self.buf.as_ref().expect("buffer already detached")
    }
}

impl DerefMut for PooledString {
    fn deref_mut(&mut self) -> &mut String {
        self.buf.as_mut().expect("buffer already detached")
    }
}

impl Drop for PooledString {
    fn drop(&mut self) {
        if let Some(mut buf) = self.buf.take() {
            if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
                return;
            }
            buf.clear();
            POOL.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < MAX_POOLED {
                    pool.push(buf);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_with_capacity() {
        let ptr;
        {
            let mut b = pooled_string();
            b.push_str("warm up the capacity");
            ptr = b.as_ptr();
        }
        let b = pooled_string();
        assert!(b.is_empty());
        assert!(b.capacity() >= "warm up the capacity".len());
        assert_eq!(b.as_ptr(), ptr, "expected the same buffer back");
    }

    #[test]
    fn into_string_detaches_contents() {
        let mut b = pooled_string();
        b.push_str("keep me");
        let s = b.into_string();
        assert_eq!(s, "keep me");
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        {
            let mut b = pooled_string();
            b.reserve(MAX_POOLED_CAPACITY + 1);
            b.push('x');
        }
        let b = pooled_string();
        assert!(b.capacity() <= MAX_POOLED_CAPACITY);
    }

    #[test]
    fn pool_depth_is_bounded() {
        let handles: Vec<_> = (0..MAX_POOLED * 2)
            .map(|_| {
                let mut b = pooled_string();
                b.push('x');
                b
            })
            .collect();
        drop(handles);
        POOL.with(|p| assert!(p.borrow().len() <= MAX_POOLED));
    }
}
