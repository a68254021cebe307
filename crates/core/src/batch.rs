//! Shared decoded-trace chunks for batched lockstep sweeps.
//!
//! Population sweeps run the *same* trace slice against many
//! configurations (the paper's §II design-space methodology). The trace
//! generators are pure functions of `(SliceSpec, seed)`, so every member
//! of such a group consumes an identical instruction stream — yet the
//! serial per-member loop regenerates it once per member. A
//! [`CachedStream`] hands out each block of decoded records once, from a
//! [`ChunkCache`] shared by any number of consumers, and N simulators
//! step over the shared block ([`Simulator::run_block`]), amortizing
//! generation cost across the whole group. [`InstChunk`] is the plain
//! reusable buffer for callers that drive a generator themselves.
//!
//! Chunked lockstep preserves bit-identity by construction: simulators
//! share no mutable state, and each member sees the exact record
//! sequence it would have seen stepping its own generator.
//!
//! [`Simulator::run_block`]: crate::sim::Simulator::run_block

use exynos_trace::suite::SliceSpec;
use exynos_trace::{Fingerprint, Inst, TraceError, TraceGen};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Records decoded per [`InstChunk::refill`] call. The dominant cost of
/// small chunks is not the bookkeeping but the *member switch*: each
/// simulator's hot predictor state (SHP weights, BTB/µBTB tag+target
/// arrays, cache tags) is evicted by the other members' tables between
/// its turns, so members must step long contiguous runs to keep
/// scalar-like locality. 8 Ki records gives each member thousands of
/// contiguous steps per switch (a typical warmup or detail window is a
/// handful of chunks) while the buffer itself stays well under a MiB,
/// so it remains cache-resident across the member loop.
pub const CHUNK_LEN: usize = 8 * 1024;

/// A reusable buffer of decoded trace records shared by every member of
/// a lockstep batch.
#[derive(Debug, Default)]
pub struct InstChunk {
    buf: Vec<Inst>,
}

impl InstChunk {
    /// An empty chunk with capacity for [`CHUNK_LEN`] records.
    pub fn new() -> InstChunk {
        InstChunk { buf: Vec::with_capacity(CHUNK_LEN) }
    }

    /// Discard the current contents and decode up to `n` records from
    /// `gen`. Returns the freshly decoded block.
    pub fn refill(&mut self, gen: &mut dyn TraceGen, n: usize) -> &[Inst] {
        self.buf.clear();
        self.buf.reserve(n);
        for _ in 0..n {
            self.buf.push(gen.next_inst());
        }
        &self.buf
    }

    /// The decoded records currently in the buffer.
    pub fn as_slice(&self) -> &[Inst] {
        &self.buf
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// One cached chunk's identity: which stream it came from and where in
/// that stream it sits. Chunks are always materialized on canonical
/// [`CHUNK_LEN`]-aligned boundaries (chunk `i` covers records
/// `[i*CHUNK_LEN, (i+1)*CHUNK_LEN)`), so any consumer cursor — warmup
/// offsets included — maps onto the same cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ChunkKey {
    stream: u128,
    index: u64,
}

/// Bytes one fully decoded chunk occupies (the eviction unit).
const CHUNK_BYTES: usize = CHUNK_LEN * std::mem::size_of::<Inst>();

/// How many evicted buffers the free list retains for reuse. Small on
/// purpose: it only needs to cover the steady-state churn of one
/// producer per stream, not the whole cache.
const FREE_LIST_CAP: usize = 8;

/// Upper bound on buffered pipeline-stall samples between drains.
const STALL_SAMPLE_CAP: usize = 4096;

struct CacheEntry {
    data: Arc<Vec<Inst>>,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<ChunkKey, CacheEntry>,
    /// Decoded bytes currently resident (gauge behind `stats().bytes`).
    bytes: u64,
    /// Monotone LRU clock, bumped on every hit/insert.
    tick: u64,
    /// Recycled chunk buffers (the free-list pool): evicted chunks whose
    /// last `Arc` lived in the cache donate their allocation back here,
    /// so steady-state materialization is allocation-free.
    free: Vec<Vec<Inst>>,
}

/// A bounded, ref-counted cache of decoded trace chunks, shared across
/// generation groups, sweep jobs and service jobs.
///
/// Keys are [`Fingerprint`] stream digests plus a canonical chunk index;
/// values are `Arc<Vec<Inst>>` handed out to any consumer replaying the
/// same stream. Eviction is LRU under a byte `budget`:
///
/// * `None` — unbounded;
/// * `Some(0)` — store nothing: every lookup misses, materialized chunks
///   go straight to the caller and are dropped after use. The cache is
///   then a pure pass-through — what one-shot population sweeps use,
///   since they read each chunk once;
/// * `Some(n)` — evict least-recently-used whole chunks until resident
///   bytes fit `n` (an in-flight chunk's memory is freed only when its
///   consumers drop their `Arc`s, but it stops being findable).
///
/// All methods take `&self`; the cache is `Sync` and meant to be shared
/// behind an [`Arc`].
pub struct ChunkCache {
    inner: Mutex<CacheInner>,
    budget: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stalls: Mutex<Vec<u64>>,
}

impl std::fmt::Debug for ChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ChunkCache")
            .field("budget", &self.budget)
            .field("stats", &s)
            .finish()
    }
}

/// Point-in-time counters for one [`ChunkCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkCacheStats {
    /// Lookups served from a resident chunk.
    pub hits: u64,
    /// Lookups that had to materialize (including budget-0 pass-through).
    pub misses: u64,
    /// Whole chunks evicted under the byte budget.
    pub evictions: u64,
    /// Decoded bytes currently resident.
    pub bytes: u64,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl ChunkCache {
    /// An unbounded cache.
    pub fn unbounded() -> ChunkCache {
        ChunkCache::with_budget(None)
    }

    /// A cache holding at most `budget` decoded bytes (`None` =
    /// unbounded, `Some(0)` = pass-through; see the type docs).
    pub fn with_budget(budget: Option<u64>) -> ChunkCache {
        ChunkCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                free: Vec::new(),
            }),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stalls: Mutex::new(Vec::new()),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Current counters.
    pub fn stats(&self) -> ChunkCacheStats {
        ChunkCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: lock_unpoisoned(&self.inner).bytes,
        }
    }

    /// Record one pipeline stall (consumer blocked waiting on a producer)
    /// in microseconds. Samples are buffered (bounded) until drained by
    /// [`ChunkCache::take_stalls`].
    pub fn record_stall(&self, dur_us: u64) {
        let mut stalls = lock_unpoisoned(&self.stalls);
        if stalls.len() < STALL_SAMPLE_CAP {
            stalls.push(dur_us);
        }
    }

    /// Drain the buffered stall samples (for histogram export).
    pub fn take_stalls(&self) -> Vec<u64> {
        std::mem::take(&mut *lock_unpoisoned(&self.stalls))
    }

    fn lookup(&self, key: ChunkKey) -> Option<Arc<Vec<Inst>>> {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(&key) {
            e.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(&e.data));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Pop a recycled buffer for the producer to fill (or a fresh one).
    fn checkout_buffer(&self) -> Vec<Inst> {
        lock_unpoisoned(&self.inner)
            .free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(CHUNK_LEN))
    }

    /// Insert a freshly materialized chunk, evicting LRU entries to fit
    /// the budget. With budget 0 nothing is stored (the caller keeps the
    /// only `Arc`). Races between two producers of the same key are
    /// benign: both materialized byte-identical data, last insert wins.
    fn insert(&self, key: ChunkKey, data: &Arc<Vec<Inst>>) {
        if self.budget == Some(0) {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let old = inner.map.insert(
            key,
            CacheEntry { data: Arc::clone(data), last_used: tick },
        );
        if old.is_none() {
            inner.bytes += CHUNK_BYTES as u64;
        }
        if let Some(budget) = self.budget {
            while inner.bytes > budget && !inner.map.is_empty() {
                let lru = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k);
                let Some(lru) = lru else { break };
                if let Some(e) = inner.map.remove(&lru) {
                    inner.bytes -= CHUNK_BYTES as u64;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    // Recycle the allocation if the cache held the last
                    // reference (the free-list pool).
                    if let Ok(mut buf) = Arc::try_unwrap(e.data) {
                        if inner.free.len() < FREE_LIST_CAP {
                            buf.clear();
                            inner.free.push(buf);
                        }
                    }
                }
            }
        }
    }
}

/// A record-level cursor over one fingerprinted stream, backed by a
/// shared [`ChunkCache`].
///
/// The stream hands out whole decoded chunks plus the sub-range the
/// cursor covers, so consumers with arbitrary (non-chunk-aligned)
/// warmup/detail windows still map onto canonical cache entries. On a
/// hit the private generator is *not* advanced — it lazily fast-forwards
/// (or rebuilds from scratch if the cursor ever regressed past it) only
/// when a miss forces materialization. Correctness never depends on the
/// cache: every path re-derives the same records from the same pure
/// generator.
pub struct CachedStream {
    cache: Arc<ChunkCache>,
    stream: Fingerprint,
    build: Box<dyn Fn() -> Result<Box<dyn TraceGen + Send>, TraceError> + Send + Sync>,
    gen: Option<Box<dyn TraceGen + Send>>,
    /// Absolute record position of `gen` (records already drawn from it).
    gen_pos: u64,
    /// Absolute record position of the consumer cursor.
    pos: u64,
}

impl std::fmt::Debug for CachedStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedStream")
            .field("stream", &self.stream)
            .field("pos", &self.pos)
            .field("gen_pos", &self.gen_pos)
            .finish()
    }
}

impl CachedStream {
    /// A stream over `build()`'s output, identified by `stream`.
    ///
    /// The caller asserts that `build` is pure and that `stream` is a
    /// faithful content digest (two streams with equal fingerprints must
    /// emit byte-identical records) — [`SliceSpec::stream_fingerprint`]
    /// and the [`exynos_trace::TraceSource`] contract provide exactly
    /// that.
    pub fn new<F>(cache: Arc<ChunkCache>, stream: Fingerprint, build: F) -> CachedStream
    where
        F: Fn() -> Result<Box<dyn TraceGen + Send>, TraceError> + Send + Sync + 'static,
    {
        CachedStream {
            cache,
            stream,
            build: Box::new(build),
            gen: None,
            gen_pos: 0,
            pos: 0,
        }
    }

    /// A stream over a catalog slice (the common case).
    pub fn for_slice(cache: Arc<ChunkCache>, slice: &SliceSpec) -> CachedStream {
        let fp = slice.stream_fingerprint();
        let spec = slice.clone();
        CachedStream::new(cache, fp, move || spec.build())
    }

    /// The stream's content digest.
    pub fn fingerprint(&self) -> Fingerprint {
        self.stream
    }

    /// The shared cache this stream reads through.
    pub fn cache(&self) -> &Arc<ChunkCache> {
        &self.cache
    }

    /// Absolute record position of the cursor.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Advance the cursor by `n` records without producing them. Free on
    /// cached regions: the skipped records are only ever generated if a
    /// later miss needs the generator fast-forwarded through them.
    pub fn skip(&mut self, n: u64) {
        self.pos += n;
    }

    /// Materialize the canonical chunk containing absolute record
    /// `start..start+CHUNK_LEN`, reusing pooled buffers.
    fn materialize(&mut self, chunk_index: u64) -> Result<Arc<Vec<Inst>>, TraceError> {
        let start = chunk_index * CHUNK_LEN as u64;
        // The generator can only move forward; a cursor that regressed
        // (or a fresh stream) rebuilds it from the pure source.
        if self.gen.is_none() || self.gen_pos > start {
            self.gen = Some((self.build)()?);
            self.gen_pos = 0;
        }
        // `materialize` is only called with `gen` freshly assigned above
        // or already present; the `else` arm is unreachable but kept
        // typed rather than unwrapped.
        let Some(gen) = self.gen.as_mut() else {
            return Err(TraceError::program("cached-stream", "generator unavailable"));
        };
        for _ in self.gen_pos..start {
            let _ = gen.next_inst();
        }
        let mut buf = self.cache.checkout_buffer();
        buf.clear();
        buf.reserve(CHUNK_LEN);
        for _ in 0..CHUNK_LEN {
            buf.push(gen.next_inst());
        }
        self.gen_pos = start + CHUNK_LEN as u64;
        Ok(Arc::new(buf))
    }

    /// Produce the next run of records: the resident (or freshly
    /// materialized) chunk under the cursor plus the in-chunk range
    /// covering at most `max` records. The range never crosses a chunk
    /// boundary, so a consumer loop naturally re-enters per chunk.
    /// Streams are infinite; this always yields a non-empty range for
    /// `max > 0`.
    pub fn next_block(&mut self, max: usize) -> Result<(Arc<Vec<Inst>>, Range<usize>), TraceError> {
        let chunk_index = self.pos / CHUNK_LEN as u64;
        let offset = (self.pos % CHUNK_LEN as u64) as usize;
        let len = max.min(CHUNK_LEN - offset);
        let key = ChunkKey { stream: self.stream.0, index: chunk_index };
        let data = match self.cache.lookup(key) {
            Some(d) => d,
            None => {
                let d = self.materialize(chunk_index)?;
                self.cache.insert(key, &d);
                d
            }
        };
        self.pos += len as u64;
        Ok((data, offset..offset + len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exynos_trace::gen::loops::{LoopNest, LoopNestParams};

    #[test]
    fn refill_matches_direct_generation() {
        let params = LoopNestParams::default();
        let mut a = LoopNest::new(&params, 0, 7);
        let mut b = LoopNest::new(&params, 0, 7);
        let mut chunk = InstChunk::new();
        let block = chunk.refill(&mut a, 100);
        assert_eq!(block.len(), 100);
        for inst in block {
            assert_eq!(inst.pc, b.next_inst().pc);
        }
        // Refilling reuses the buffer and replaces the contents.
        let block = chunk.refill(&mut a, 5);
        assert_eq!(block.len(), 5);
        assert_eq!(block[0].pc, b.next_inst().pc);
    }

    fn loop_stream(cache: &Arc<ChunkCache>, seed: u64) -> CachedStream {
        let params = LoopNestParams::default();
        CachedStream::new(
            Arc::clone(cache),
            Fingerprint(0x1234 + seed as u128),
            move || Ok(Box::new(LoopNest::new(&params, 0, seed))),
        )
    }

    /// Drain `n` records through arbitrary block sizes and collect PCs.
    fn drain(stream: &mut CachedStream, n: usize, block: usize) -> Vec<u64> {
        let mut pcs = Vec::with_capacity(n);
        while pcs.len() < n {
            let (chunk, range) = stream.next_block(block.min(n - pcs.len())).unwrap();
            pcs.extend(chunk[range].iter().map(|i| i.pc));
        }
        pcs
    }

    #[test]
    fn cached_stream_matches_direct_generation() {
        let cache = Arc::new(ChunkCache::unbounded());
        let mut direct = LoopNest::new(&LoopNestParams::default(), 0, 7);
        let want: Vec<u64> = (0..20_000).map(|_| direct.next_inst().pc).collect();
        let mut s = loop_stream(&cache, 7);
        assert_eq!(drain(&mut s, 20_000, 777), want);
        // A second pass over the same stream hits the cache and still
        // yields identical records.
        let before = cache.stats();
        assert!(before.hits >= 1, "second chunk of pass 1 re-reads chunk 0? {before:?}");
        let mut s2 = loop_stream(&cache, 7);
        assert_eq!(drain(&mut s2, 20_000, 4_096), want);
        let after = cache.stats();
        assert_eq!(after.misses, before.misses, "pass 2 must be all hits");
        assert!(after.hits > before.hits);
    }

    #[test]
    fn budget_zero_is_pure_pass_through() {
        let cache = Arc::new(ChunkCache::with_budget(Some(0)));
        let mut direct = LoopNest::new(&LoopNestParams::default(), 0, 9);
        let want: Vec<u64> = (0..20_000).map(|_| direct.next_inst().pc).collect();
        let mut s = loop_stream(&cache, 9);
        assert_eq!(drain(&mut s, 20_000, 1_000), want);
        let st = cache.stats();
        assert_eq!(st.hits, 0);
        assert_eq!(st.bytes, 0);
        assert!(st.misses >= 3);
    }

    #[test]
    fn tiny_budget_evicts_but_stays_correct() {
        // One chunk's worth of budget: the second resident chunk evicts
        // the first, every pass regenerates, results stay identical.
        let cache = Arc::new(ChunkCache::with_budget(Some(CHUNK_BYTES as u64)));
        let mut direct = LoopNest::new(&LoopNestParams::default(), 0, 11);
        let want: Vec<u64> = (0..3 * CHUNK_LEN).map(|_| direct.next_inst().pc).collect();
        let mut s = loop_stream(&cache, 11);
        assert_eq!(drain(&mut s, 3 * CHUNK_LEN, 500), want);
        let st = cache.stats();
        assert!(st.evictions >= 2, "expected evictions under a 1-chunk budget: {st:?}");
        assert!(st.bytes <= CHUNK_BYTES as u64);
        let mut s2 = loop_stream(&cache, 11);
        assert_eq!(drain(&mut s2, 3 * CHUNK_LEN, 8_192), want);
    }

    #[test]
    fn skip_is_cursor_only_and_alignment_is_canonical() {
        let cache = Arc::new(ChunkCache::unbounded());
        // Warm chunks 0..3 via one consumer.
        let mut warm = loop_stream(&cache, 13);
        let all = drain(&mut warm, 3 * CHUNK_LEN, CHUNK_LEN);
        let misses = cache.stats().misses;
        // A second consumer skipping a non-aligned warmup still lands on
        // the same canonical chunks: zero new misses.
        let mut s = loop_stream(&cache, 13);
        s.skip(10_000);
        let tail = drain(&mut s, 3 * CHUNK_LEN - 10_000, 321);
        assert_eq!(tail, all[10_000..]);
        assert_eq!(cache.stats().misses, misses, "skip must not bypass canonical alignment");
    }

    #[test]
    fn distinct_fingerprints_do_not_share_chunks() {
        let cache = Arc::new(ChunkCache::unbounded());
        let mut a = loop_stream(&cache, 1);
        let mut b = loop_stream(&cache, 2);
        let _ = a.next_block(64).unwrap();
        let hits_before = cache.stats().hits;
        let _ = b.next_block(64).unwrap();
        assert_eq!(cache.stats().hits, hits_before, "different streams must miss");
    }

    #[test]
    fn stall_samples_drain_once() {
        let cache = ChunkCache::unbounded();
        cache.record_stall(42);
        cache.record_stall(7);
        assert_eq!(cache.take_stalls(), vec![42, 7]);
        assert!(cache.take_stalls().is_empty());
    }
}
