//! Telemetry-ingestion throughput benchmark (`--bin ingest`).
//!
//! Drives the file segment auditor directly — no simulator, no placement
//! engine — with Fig. 5-style access patterns, and measures the cost of
//! turning raw accesses into pending score updates:
//!
//! * **events/s** — single-thread observe_read throughput,
//! * **locks/event** — lock acquisitions per event, by family: statistics
//!   shards (each holding its stripe of pending updates) and auxiliary
//!   mutexes; this is machine-independent and the primary contention
//!   currency,
//! * **drain equivalence** — the same seeded workload driven by 1, 2 and
//!   4 producer threads (disjoint files per thread) must produce
//!   byte-identical canonicalised drains; the digest is asserted in the
//!   binary and recorded in `BENCH_ingest.json`.

use std::sync::Arc;
use std::time::Instant;

use hfetch_core::auditor::{Auditor, IngestLockStats};
use hfetch_core::{HFetchConfig, ScoreUpdate};
use tiers::ids::{FileId, ProcessId};
use tiers::range::ByteRange;
use tiers::time::Timestamp;
use tiers::units::MIB;

use crate::BenchScale;

/// One synthetic access: everything `observe_read` needs.
#[derive(Clone, Copy, Debug)]
pub struct SynthAccess {
    /// Byte range read.
    pub range: ByteRange,
    /// Issuing process.
    pub process: ProcessId,
    /// Event time.
    pub time: Timestamp,
}

/// Workload sizing per [`BenchScale`].
#[derive(Clone, Copy, Debug)]
pub struct IngestScale {
    /// Events per producer thread.
    pub events_per_thread: u64,
    /// Dataset bytes per thread (one file per thread).
    pub dataset: u64,
    /// Base request size in bytes.
    pub request: u64,
}

impl IngestScale {
    /// Sizing for a [`BenchScale`].
    pub fn of(scale: BenchScale) -> Self {
        match scale {
            BenchScale::Smoke => {
                Self { events_per_thread: 10_000, dataset: 64 * MIB, request: 4 * MIB }
            }
            BenchScale::Quick => {
                Self { events_per_thread: 100_000, dataset: 256 * MIB, request: 4 * MIB }
            }
            BenchScale::Full => {
                Self { events_per_thread: 500_000, dataset: 1024 * MIB, request: 4 * MIB }
            }
        }
    }
}

/// Generates one stream's accesses: four Fig. 5-style logical processes
/// (bulk-sequential, strided, repetitive, irregular) interleaved
/// round-robin, numbered `process_base..process_base + 4`. Streams must
/// use disjoint process ranges — the auditor's per-process sequencing
/// state is global, so shared process IDs would couple otherwise-
/// independent files. Fully deterministic in `seed`; timestamps advance
/// 1 ms per event so scores decay realistically.
///
/// The sequential process issues *bulk* scans of up to 48 MiB — the
/// checkpoint/analysis phases of scientific workflows read far wider
/// than the strided/random accessors — which is exactly where batched
/// ingestion pays off: a scan touching more segments than the map has
/// shards is pigeonhole-guaranteed to revisit shards, so grouping the
/// writes saves locks.
pub fn synth_accesses(
    seed: u64,
    process_base: u32,
    n: u64,
    dataset: u64,
    request: u64,
) -> Vec<SynthAccess> {
    let chunks = (dataset / request).max(1);
    // Small xorshift for the irregular/repetitive draws — keeps the
    // stream identical across platforms and rand versions.
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let working_set = (chunks / 4).max(1);
    // Bulk scans cover up to 48 MiB (rounded to whole chunks) but never
    // more than the file.
    let wide_chunks = (48 * MIB / request).clamp(1, chunks);
    let wide_starts = chunks - wide_chunks + 1;
    let mut out = Vec::with_capacity(n as usize);
    let (mut seq_pos, mut stride_pos, mut rep_pos) = (0u64, 0u64, 0u64);
    for i in 0..n {
        let (process, chunk, len_chunks) = match i % 4 {
            0 => {
                let c = (seq_pos * wide_chunks) % wide_starts;
                seq_pos += 1;
                (ProcessId(process_base), c, wide_chunks)
            }
            1 => {
                let c = (stride_pos * 4) % chunks;
                stride_pos += 1;
                (ProcessId(process_base + 1), c, 1)
            }
            2 => {
                // Repetitive: lap a bounded working set in a scrambled but
                // repeating order.
                let c = (rep_pos * 7 + 3) % working_set;
                rep_pos += 1;
                (ProcessId(process_base + 2), c, 1)
            }
            _ => (ProcessId(process_base + 3), next() % chunks, 1),
        };
        out.push(SynthAccess {
            range: ByteRange::new(chunk * request, len_chunks * request),
            process,
            time: Timestamp::from_millis(i),
        });
    }
    out
}

/// Result of one ingestion run.
#[derive(Clone, Copy, Debug)]
pub struct IngestRun {
    /// Total events observed (all threads).
    pub events: u64,
    /// Wall-clock seconds for the observe phase.
    pub wall_s: f64,
    /// Lock acquisitions attributable to the observe phase.
    pub locks: IngestLockStats,
    /// Coalesced updates in the final drain.
    pub drained: usize,
    /// FNV-1a digest of the canonicalised (segment-sorted) final drain.
    pub digest: u64,
}

impl IngestRun {
    /// Events per second over the observe phase.
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    /// Total lock acquisitions per event.
    pub fn locks_per_event(&self) -> f64 {
        self.locks.total() as f64 / self.events.max(1) as f64
    }
}

/// Canonicalises a drain (sort by segment) and digests it. Scores are
/// hashed by bit pattern: "byte-identical" means exactly that.
pub fn drain_digest(updates: &[ScoreUpdate]) -> u64 {
    let mut sorted: Vec<&ScoreUpdate> = updates.iter().collect();
    sorted.sort_by_key(|u| (u.segment.file.0, u.segment.index));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for u in sorted {
        eat(u.segment.file.0);
        eat(u.segment.index);
        eat(u.score.to_bits());
        eat(u.size);
        eat(u64::from(u.anticipated));
    }
    h
}

/// Streams (= files) in every ingestion run. Fixed regardless of thread
/// count, so the total workload — and therefore the canonical drain —
/// is comparable across thread counts.
pub const STREAMS: u64 = 4;

/// Runs one ingestion workload: [`STREAMS`] seeded per-file access
/// streams distributed round-robin over `threads` producers, all feeding
/// one auditor. A thread processes its assigned streams sequentially, so
/// every file's access order is preserved at any thread count; files are
/// disjoint, so per-segment score evolution is interleaving-independent
/// and the canonicalised (segment-sorted) drain is byte-identical for 1,
/// 2 or 4 threads — [`IngestRun::digest`] pins that down.
///
/// With `drain_every = Some(k)` the driver drains every `k` events
/// (engine-cadence mode, single-threaded only); with `None` the queue is
/// drained once at the end, which is what the cross-thread equivalence
/// check needs (one coalesced batch per segment).
pub fn run_ingest(threads: usize, scale: IngestScale, drain_every: Option<u64>) -> IngestRun {
    assert!(threads > 0);
    assert!(
        drain_every.is_none() || threads == 1,
        "engine-cadence drains are only deterministic single-threaded"
    );
    let auditor = Arc::new(Auditor::new(HFetchConfig::default()));
    let streams: Vec<(FileId, Vec<SynthAccess>)> = (0..STREAMS)
        .map(|j| {
            (
                FileId(j + 1),
                synth_accesses(
                    0x5EED + j,
                    (j * 4) as u32,
                    scale.events_per_thread,
                    scale.dataset,
                    scale.request,
                ),
            )
        })
        .collect();
    for (file, _) in &streams {
        auditor.set_file_size(*file, scale.dataset);
    }
    // Epoch staging seeds one update per segment and is part of the
    // ingestion path, so it counts toward wall time and lock traffic.
    let baseline = auditor.ingest_lock_stats();
    let mut mid_drained = 0usize;
    let start = Instant::now();
    for (file, _) in &streams {
        auditor.start_epoch(*file, Timestamp::ZERO);
    }
    if threads == 1 {
        let mut since_drain = 0u64;
        for (file, stream) in &streams {
            for a in stream {
                auditor.observe_read(*file, a.range, a.process, a.time);
                since_drain += 1;
                if let Some(k) = drain_every {
                    if since_drain >= k {
                        mid_drained += auditor.drain_updates().len();
                        since_drain = 0;
                    }
                }
            }
        }
    } else {
        std::thread::scope(|s| {
            for t in 0..threads {
                let auditor = Arc::clone(&auditor);
                let streams = &streams;
                s.spawn(move || {
                    for (file, stream) in streams.iter().skip(t).step_by(threads) {
                        for a in stream {
                            auditor.observe_read(*file, a.range, a.process, a.time);
                        }
                    }
                });
            }
        });
    }
    let wall_s = start.elapsed().as_secs_f64();
    let after = auditor.ingest_lock_stats();
    // Fills expanded: the digest covers every update the batch stands for.
    let final_drain: Vec<ScoreUpdate> = auditor.drain_updates().expanded().collect();
    let digest = drain_digest(&final_drain);
    IngestRun {
        events: scale.events_per_thread * STREAMS,
        wall_s,
        locks: IngestLockStats {
            map_shard: after.map_shard - baseline.map_shard,
            auxiliary: after.auxiliary - baseline.auxiliary,
        },
        drained: final_drain.len() + mid_drained,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> IngestScale {
        IngestScale { events_per_thread: 2_000, dataset: 64 * MIB, request: 4 * MIB }
    }

    #[test]
    fn synth_stream_is_deterministic_and_in_bounds() {
        let a = synth_accesses(42, 0, 500, 64 * MIB, 4 * MIB);
        let b = synth_accesses(42, 0, 500, 64 * MIB, 4 * MIB);
        assert_eq!(a.len(), 500);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.range, y.range);
            assert_eq!(x.process, y.process);
            assert_eq!(x.time, y.time);
        }
        assert!(a.iter().all(|s| s.range.end() <= 64 * MIB));
        let distinct: std::collections::HashSet<u64> =
            a.iter().map(|s| s.range.offset).collect();
        assert!(distinct.len() > 4, "patterns cover multiple chunks");
    }

    #[test]
    fn thread_count_does_not_change_the_canonical_drain() {
        let t1 = run_ingest(1, tiny(), None);
        let t2 = run_ingest(2, tiny(), None);
        let t4 = run_ingest(4, tiny(), None);
        assert_eq!(t1.events, t2.events, "same total workload at any thread count");
        assert_eq!(t1.digest, t2.digest, "2-thread drain byte-identical to serial");
        assert_eq!(t1.digest, t4.digest, "4-thread drain byte-identical to serial");
        assert_eq!(t1.drained, t2.drained);
        assert_eq!(t1.drained, t4.drained);
    }

    #[test]
    fn engine_cadence_drains_count_everything() {
        let r = run_ingest(1, tiny(), Some(500));
        assert!(r.drained > 0);
    }
}
