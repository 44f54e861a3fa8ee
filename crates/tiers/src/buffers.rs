//! A process-wide pool of 1 MiB payload buffers.
//!
//! A 1 MiB block is above glibc's mmap threshold, so freeing one hands its
//! pages back to the OS and the next 1 MiB copy faults in fresh ones. The
//! real data path moves payloads in 1 MiB segments, so it recycles them
//! instead: a [`MemoryBackend`](crate::backend::MemoryBackend) offers each
//! extent it lets go of to [`recycle`], and the shim's writes and staging
//! copy into a buffer from [`copy`] or [`filled`].
//!
//! The pool takes a buffer only from the last handle that shows it
//! ([`Bytes::try_into_mut`]), so no reader or other tier ever sees a reused
//! buffer change, and only one whose length and capacity are both exactly
//! [`BUFFER_BYTES`], so a pooled buffer holds no byte it does not show. It
//! keeps at most [`POOL_BUFFERS`] and drops the rest. It is one static,
//! not a per-server pool, because a server's buffers are last let go when
//! the server is dropped, and the next server or a standalone shim should
//! get them.

use bytes::Bytes;
use parking_lot::Mutex;

/// Length and capacity of every pooled buffer: one segment of the real
/// data path.
pub const BUFFER_BYTES: usize = 1 << 20;

/// Most buffers the process-wide pool keeps (64 MiB idle at most).
pub const POOL_BUFFERS: usize = 64;

static POOL: BufferPool = BufferPool::new(POOL_BUFFERS);

/// A bounded stack of free [`BUFFER_BYTES`] buffers.
struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    bound: usize,
}

impl BufferPool {
    const fn new(bound: usize) -> Self {
        Self { free: Mutex::new(Vec::new()), bound }
    }

    fn recycle(&self, data: Bytes) {
        if data.len() != BUFFER_BYTES {
            return;
        }
        let Ok(buf) = data.try_into_mut() else { return };
        let buf = Vec::from(buf);
        if buf.capacity() != BUFFER_BYTES {
            return;
        }
        let mut free = self.free.lock();
        if free.len() < self.bound {
            free.push(buf);
        }
    }

    fn filled(&self, len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        let pooled = if len == BUFFER_BYTES { self.free.lock().pop() } else { None };
        let mut buf = pooled.unwrap_or_else(|| vec![0; len]);
        fill(&mut buf);
        Bytes::from(buf)
    }
}

/// Keeps `data`'s buffer for reuse if `data` is its last handle, it is
/// exactly [`BUFFER_BYTES`] long and the pool has room; otherwise just
/// drops `data`.
pub fn recycle(data: Bytes) {
    POOL.recycle(data);
}

/// A buffer of `len` bytes written by `fill`: a pooled one when `len` is
/// [`BUFFER_BYTES`] and one is free, else a fresh one. A pooled buffer
/// still holds its old bytes, so `fill` must write every byte.
pub fn filled(len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
    POOL.filled(len, fill)
}

/// A copy of `data`, in a pooled buffer when one fits and is free.
pub fn copy(data: &[u8]) -> Bytes {
    filled(data.len(), |buf| buf.copy_from_slice(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer(byte: u8) -> Bytes {
        Bytes::from(vec![byte; BUFFER_BYTES])
    }

    fn pooled(pool: &BufferPool) -> usize {
        pool.free.lock().len()
    }

    #[test]
    fn a_recycled_buffer_comes_back_out() {
        let pool = BufferPool::new(4);
        let data = buffer(1);
        let ptr = data.as_ptr();
        pool.recycle(data);
        assert_eq!(pooled(&pool), 1);
        let refilled = pool.filled(BUFFER_BYTES, |buf| buf.fill(2));
        assert!(std::ptr::eq(refilled.as_ptr(), ptr), "the fill reused the pooled buffer");
        assert_eq!(refilled, vec![2u8; BUFFER_BYTES]);
        assert_eq!(pooled(&pool), 0);
    }

    #[test]
    fn the_pool_never_holds_more_than_its_bound() {
        let pool = BufferPool::new(3);
        for i in 0..5 {
            pool.recycle(buffer(i));
            assert!(pooled(&pool) <= 3);
        }
        assert_eq!(pooled(&pool), 3);
    }

    #[test]
    fn a_buffer_not_exactly_one_buffer_long_passes_through() {
        let pool = BufferPool::new(4);
        pool.recycle(Bytes::from(vec![0u8; BUFFER_BYTES - 1]));
        pool.recycle(Bytes::from(vec![0u8; BUFFER_BYTES + 1]));
        let mut roomy = Vec::with_capacity(2 * BUFFER_BYTES);
        roomy.resize(BUFFER_BYTES, 0u8);
        pool.recycle(Bytes::from(roomy));
        assert_eq!(pooled(&pool), 0, "only exact 1 MiB buffers are pooled");
        pool.recycle(buffer(0));
        assert_eq!(pool.filled(100, |buf| buf.fill(1)), [1u8; 100]);
        assert_eq!(pooled(&pool), 1, "a shorter buffer takes no pooled one");
    }

    #[test]
    fn a_shared_handle_is_never_pooled() {
        let pool = BufferPool::new(4);
        let data = buffer(5);
        let reader = data.clone();
        pool.recycle(data);
        assert_eq!(pooled(&pool), 0, "a reader still holds the buffer");
        assert_eq!(reader, vec![5u8; BUFFER_BYTES]);
        pool.recycle(reader);
        assert_eq!(pooled(&pool), 1, "the last handle is pooled");
    }
}
