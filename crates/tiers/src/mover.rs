//! Data movement between tiers.
//!
//! The paper's "Data Prefetching I/O Clients" perform the actual fetches
//! between source and destination tiers (§III-A.5). [`DataMover`] is the
//! byte-level primitive those clients use: copy a range of a file from one
//! backend to another in bounded chunks, and evict a range, each retrying
//! transient failures. The clients evict a cache source after its copy
//! lands (HFetch's cache is *exclusive* — a segment lives in exactly one
//! tier, §III-D).

use std::time::Duration;

use crate::backend::StorageBackend;
use crate::error::{Result, TierError};
use crate::ids::FileId;
use crate::range::ByteRange;

/// Bounded retry schedule for transient failures.
///
/// The mover does not sleep: [`DataMover::copy_with_retry_recorded`] and
/// [`DataMover::evict_with_retry`] pass each backoff to the caller's `wait`
/// (the real server's I/O clients sleep it). The simulator's fault plan
/// charges the same schedule to simulated time
/// ([`crate::faults::FaultPlan::roll_op_with_retry`]).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each subsequent one.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 3, base_backoff: Duration::from_millis(10) }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based), exponential and
    /// capped at 2^10 doublings.
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.base_backoff * 2u32.saturating_pow(attempt.min(10))
    }
}

/// What a retried copy actually cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyReceipt {
    /// Bytes copied by the successful attempt.
    pub bytes: u64,
    /// Attempts made (1 = no retries needed).
    pub attempts: u32,
}

/// Default copy chunk: 4 MiB keeps peak buffer use bounded while amortizing
/// per-call overhead.
pub const DEFAULT_CHUNK: u64 = 4 * 1024 * 1024;

/// Copies file ranges between storage backends.
#[derive(Clone)]
pub struct DataMover {
    chunk: u64,
}

impl Default for DataMover {
    fn default() -> Self {
        Self { chunk: DEFAULT_CHUNK }
    }
}

impl DataMover {
    /// Creates a mover with the default chunk size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a mover with a custom chunk size (for tests and tuning).
    pub fn with_chunk(chunk: u64) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        Self { chunk }
    }

    /// Copies `range` of `file` from `src` to `dst`. The range must be fully
    /// resident on `src`. Returns the number of bytes copied.
    ///
    /// Each chunk `src` reads is handed to `dst` as it is: between memory
    /// tiers a chunk that is one whole source extent moves as a shared
    /// handle, and only a part of an extent is copied (by the read).
    pub fn copy(
        &self,
        file: FileId,
        range: ByteRange,
        src: &dyn StorageBackend,
        dst: &dyn StorageBackend,
    ) -> Result<u64> {
        let mut copied = 0;
        let mut cursor = range.offset;
        let end = range.end();
        while cursor < end {
            let len = self.chunk.min(end - cursor);
            let chunk = src.read(file, ByteRange::new(cursor, len))?;
            dst.write(file, cursor, chunk)?;
            copied += len;
            cursor += len;
        }
        Ok(copied)
    }

    /// Like [`DataMover::copy`], but retries transient failures
    /// ([`TierError::TransientIo`]) up to `retry.max_retries` times,
    /// passing each backoff to `wait` before the retry. Copies are
    /// idempotent (same bytes, same offsets), so a retry after a mid-copy
    /// failure simply re-walks the chunks. Permanent errors propagate
    /// immediately; exhausting the budget propagates the last transient
    /// error.
    ///
    /// The move is recorded into `rec`, labelled with the directed
    /// `(src_tier, dst_tier)` hierarchy-index pair: bytes moved and copy
    /// count per tier pair, a copy-size histogram, and a retry counter when
    /// attempts > 1. Failed copies are counted (`mover.failed_copies`) but
    /// move no bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn copy_with_retry_recorded(
        &self,
        file: FileId,
        range: ByteRange,
        src: &dyn StorageBackend,
        dst: &dyn StorageBackend,
        retry: &RetryPolicy,
        wait: &mut dyn FnMut(Duration),
        rec: &obs::Recorder,
        tier_pair: (u16, u16),
    ) -> Result<CopyReceipt> {
        let mut attempt = 0u32;
        let outcome = loop {
            match self.copy(file, range, src, dst) {
                Ok(bytes) => break Ok(CopyReceipt { bytes, attempts: attempt + 1 }),
                Err(TierError::TransientIo { .. }) if attempt < retry.max_retries => {
                    wait(retry.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => break Err(e),
            }
        };
        if rec.is_enabled() {
            let label = obs::Label::tier_pair(tier_pair.0, tier_pair.1);
            match &outcome {
                Ok(receipt) => {
                    rec.counter_add("mover.bytes", label, receipt.bytes);
                    rec.counter_inc("mover.copies", label);
                    rec.observe("mover.copy_bytes", label, receipt.bytes);
                    if receipt.attempts > 1 {
                        rec.counter_add("mover.retries", label, (receipt.attempts - 1) as u64);
                    }
                }
                Err(_) => rec.counter_inc("mover.failed_copies", label),
            }
        }
        outcome
    }

    /// Evicts `range` of `file` from `backend`, retrying transient failures
    /// on the same schedule as [`DataMover::copy_with_retry_recorded`] (each
    /// backoff is passed to `wait`). Returns the bytes evicted.
    pub fn evict_with_retry(
        &self,
        file: FileId,
        range: ByteRange,
        backend: &dyn StorageBackend,
        retry: &RetryPolicy,
        wait: &mut dyn FnMut(Duration),
    ) -> Result<u64> {
        let mut attempt = 0u32;
        loop {
            match backend.evict(file, range) {
                Err(TierError::TransientIo { .. }) if attempt < retry.max_retries => {
                    wait(retry.backoff(attempt));
                    attempt += 1;
                }
                outcome => return outcome,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::error::TierError;

    fn filled(file: FileId, len: u64) -> MemoryBackend {
        let b = MemoryBackend::new();
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        b.write(file, 0, data.into()).unwrap();
        b
    }

    #[test]
    fn copy_preserves_bytes_across_chunks() {
        let f = FileId(1);
        let src = filled(f, 1000);
        let dst = MemoryBackend::new();
        let mover = DataMover::with_chunk(64); // force many chunks
        let copied = mover.copy(f, ByteRange::new(100, 800), &src, &dst).unwrap();
        assert_eq!(copied, 800);
        let got = dst.read(f, ByteRange::new(100, 800)).unwrap();
        let want = src.read(f, ByteRange::new(100, 800)).unwrap();
        assert_eq!(got, want);
        // Source untouched by plain copy.
        assert_eq!(src.resident_bytes(f), 1000);
    }

    #[test]
    fn copying_a_segment_out_of_a_larger_extent_holds_only_the_segment() {
        const MIB: u64 = 1 << 20;
        let f = FileId(2);
        let src = filled(f, 4 * MIB);
        let extent = src.read(f, ByteRange::new(0, 4 * MIB)).unwrap();
        let dst = MemoryBackend::new();
        let segment = ByteRange::new(MIB, MIB);
        assert_eq!(DataMover::new().copy(f, segment, &src, &dst).unwrap(), MIB);
        let held = dst.read(f, segment).unwrap();
        let inside = extent.as_ptr() as usize..extent.as_ptr() as usize + extent.len();
        assert!(!inside.contains(&(held.as_ptr() as usize)), "the destination pins the source");
        assert_eq!(held, &extent[MIB as usize..2 * MIB as usize]);
        assert_eq!((dst.held_bytes(), dst.used_bytes()), (MIB, MIB));
        // A whole extent moves as a handle: source and destination share it.
        let dst = MemoryBackend::new();
        DataMover::new().copy(f, ByteRange::new(0, 4 * MIB), &src, &dst).unwrap();
        let moved = dst.read(f, ByteRange::new(0, 4 * MIB)).unwrap();
        assert!(std::ptr::eq(moved.as_ptr(), extent.as_ptr()), "a whole-extent copy copied");
    }

    #[test]
    fn copy_of_missing_range_fails_cleanly() {
        let f = FileId(3);
        let src = filled(f, 100);
        let dst = MemoryBackend::new();
        let err = DataMover::new().copy(f, ByteRange::new(50, 100), &src, &dst).unwrap_err();
        assert!(matches!(err, TierError::RangeNotResident { .. }));
    }

    #[test]
    fn partial_chunked_copy_failure_keeps_prefix() {
        // Source holds [0,100); ask for [0,160) with 32-byte chunks: the
        // first three chunks succeed, the fourth fails. Destination keeps
        // what was copied (callers handle cleanup).
        let f = FileId(4);
        let src = filled(f, 100);
        let dst = MemoryBackend::new();
        let mover = DataMover::with_chunk(32);
        let err = mover.copy(f, ByteRange::new(0, 160), &src, &dst).unwrap_err();
        assert!(matches!(err, TierError::RangeNotResident { .. }));
        assert_eq!(dst.resident_bytes(f), 96);
    }

    /// A backend that fails its first `fail_n` data operations transiently.
    struct FailsFirst {
        inner: MemoryBackend,
        remaining: std::sync::atomic::AtomicU32,
    }

    impl FailsFirst {
        fn new(inner: MemoryBackend, fail_n: u32) -> Self {
            Self { inner, remaining: fail_n.into() }
        }

        fn gate(&self) -> crate::error::Result<()> {
            let left = &self.remaining;
            if left.load(std::sync::atomic::Ordering::SeqCst) > 0 {
                left.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                return Err(TierError::TransientIo { op: "test" });
            }
            Ok(())
        }
    }

    impl StorageBackend for FailsFirst {
        fn write(&self, file: FileId, offset: u64, data: bytes::Bytes) -> crate::error::Result<()> {
            self.gate()?;
            self.inner.write(file, offset, data)
        }
        fn read(
            &self,
            file: FileId,
            range: ByteRange,
        ) -> crate::error::Result<bytes::Bytes> {
            self.gate()?;
            self.inner.read(file, range)
        }
        fn evict(&self, file: FileId, range: ByteRange) -> crate::error::Result<u64> {
            self.gate()?;
            self.inner.evict(file, range)
        }
        fn delete(&self, file: FileId) -> crate::error::Result<u64> {
            self.inner.delete(file)
        }
        fn resident(&self, file: FileId, range: ByteRange) -> bool {
            self.inner.resident(file, range)
        }
        fn covered_bytes(&self, file: FileId, range: ByteRange) -> u64 {
            self.inner.covered_bytes(file, range)
        }
        fn covered_ranges(&self, file: FileId, range: ByteRange) -> Vec<ByteRange> {
            self.inner.covered_ranges(file, range)
        }
        fn resident_bytes(&self, file: FileId) -> u64 {
            self.inner.resident_bytes(file)
        }
        fn used_bytes(&self) -> u64 {
            self.inner.used_bytes()
        }
        fn files(&self) -> Vec<FileId> {
            self.inner.files()
        }
    }

    #[test]
    fn evict_retries_transient_failures_within_the_budget() {
        let f = FileId(12);
        let retry = RetryPolicy { max_retries: 2, base_backoff: Duration::from_millis(1) };
        let mut waits = Vec::new();
        let flaky = FailsFirst::new(filled(f, 64), 2);
        let evicted = DataMover::new()
            .evict_with_retry(f, ByteRange::new(0, 64), &flaky, &retry, &mut |d| waits.push(d))
            .unwrap();
        assert_eq!(evicted, 64);
        assert_eq!(waits, vec![retry.backoff(0), retry.backoff(1)]);
        assert_eq!(flaky.resident_bytes(f), 0);

        let stuck = FailsFirst::new(filled(f, 64), u32::MAX);
        let err = DataMover::new()
            .evict_with_retry(f, ByteRange::new(0, 64), &stuck, &retry, &mut |_| {})
            .unwrap_err();
        assert!(matches!(err, TierError::TransientIo { .. }));
        assert_eq!(stuck.resident_bytes(f), 64, "an exhausted budget evicts nothing");
    }

    /// A retried copy of `range` without a recorder; each backoff the
    /// mover waits is appended to `waits`.
    fn retried_copy(
        f: FileId,
        range: ByteRange,
        src: &dyn StorageBackend,
        dst: &dyn StorageBackend,
        retry: &RetryPolicy,
        waits: &mut Vec<Duration>,
    ) -> crate::error::Result<CopyReceipt> {
        let off = obs::Recorder::disabled();
        DataMover::new()
            .copy_with_retry_recorded(f, range, src, dst, retry, &mut |d| waits.push(d), &off, (0, 1))
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let f = FileId(8);
        let src = FailsFirst::new(filled(f, 256), 2);
        let dst = MemoryBackend::new();
        let retry = RetryPolicy::default();
        let mut waits = Vec::new();
        let receipt = retried_copy(f, ByteRange::new(0, 256), &src, &dst, &retry, &mut waits).unwrap();
        assert_eq!(receipt.bytes, 256);
        assert_eq!(receipt.attempts, 3, "two failures, then success");
        assert_eq!(waits, vec![retry.backoff(0), retry.backoff(1)]);
        assert_eq!(dst.resident_bytes(f), 256);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let f = FileId(9);
        let src = FailsFirst::new(filled(f, 64), u32::MAX);
        let dst = MemoryBackend::new();
        let retry = RetryPolicy { max_retries: 2, base_backoff: Duration::from_millis(1) };
        let err = retried_copy(f, ByteRange::new(0, 64), &src, &dst, &retry, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, TierError::TransientIo { .. }));
        // 1 initial attempt + 2 retries consumed exactly 3 gate tokens.
        assert_eq!(
            src.remaining.load(std::sync::atomic::Ordering::SeqCst),
            u32::MAX - 3
        );
    }

    #[test]
    fn retry_does_not_mask_permanent_errors() {
        // A range the source does not hold is not transient: no retries.
        let f = FileId(10);
        let src = filled(f, 100);
        let dst = MemoryBackend::new();
        let mut waits = Vec::new();
        let retry = RetryPolicy::default();
        let err = retried_copy(f, ByteRange::new(50, 100), &src, &dst, &retry, &mut waits)
            .unwrap_err();
        assert!(matches!(err, TierError::RangeNotResident { .. }));
        assert!(waits.is_empty());
    }

    #[test]
    fn retry_backoff_schedule() {
        let r = RetryPolicy { max_retries: 5, base_backoff: Duration::from_millis(4) };
        assert_eq!(r.backoff(0), Duration::from_millis(4));
        assert_eq!(r.backoff(2), Duration::from_millis(16));
        assert_eq!(r.backoff(10), r.backoff(20), "doubling caps");
    }

    #[test]
    fn recorded_copy_labels_bytes_per_tier_pair() {
        let f = FileId(11);
        let src = FailsFirst::new(filled(f, 256), 1);
        let dst = MemoryBackend::new();
        let rec = obs::Recorder::enabled();
        let receipt = DataMover::new()
            .copy_with_retry_recorded(
                f,
                ByteRange::new(0, 256),
                &src,
                &dst,
                &RetryPolicy::default(),
                &mut |_| {},
                &rec,
                (3, 0),
            )
            .unwrap();
        assert_eq!(receipt.bytes, 256);
        let report = rec.report();
        assert_eq!(report.counter("mover.bytes{from=3,to=0}"), Some(256));
        assert_eq!(report.counter("mover.copies{from=3,to=0}"), Some(1));
        assert_eq!(report.counter("mover.retries{from=3,to=0}"), Some(1));
        assert_eq!(report.counter("mover.failed_copies{from=3,to=0}"), None);
    }

    #[test]
    fn zero_length_copy_is_noop() {
        let f = FileId(7);
        let src = filled(f, 10);
        let dst = MemoryBackend::new();
        assert_eq!(DataMover::new().copy(f, ByteRange::new(0, 0), &src, &dst).unwrap(), 0);
        assert_eq!(dst.used_bytes(), 0);
    }
}
