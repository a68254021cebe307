//! Set-associative cache arrays with the metadata the paper's large-cache
//! management needs (§VIII.A–B).
//!
//! Each line tracks whether it was brought in by a prefetch, whether a
//! demand access ever hit it (the adaptive standalone prefetcher's
//! confidence metadata, §VIII.D), and a small reuse counter fed by L2 hits
//! and L3 re-allocations (the coordinated exclusive-hierarchy policy,
//! §VIII.A). L2 tags may be *sectored* at 128 B for 64 B data lines
//! (§VIII.B): two sectors share one tag, which is what makes the Buddy
//! prefetcher pollution-free.

/// How an access entered the cache (affects metadata and policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load/store/ifetch.
    Demand,
    /// Hardware prefetch, first pass (two-pass scheme, §VII.B).
    PrefetchFirstPass,
    /// Hardware prefetch, second pass / ordinary prefetch fill.
    Prefetch,
    /// Writeback / castout from an inner level.
    Writeback,
}

impl AccessKind {
    /// Whether this access is any kind of prefetch.
    pub fn is_prefetch(self) -> bool {
        matches!(self, AccessKind::Prefetch | AccessKind::PrefetchFirstPass)
    }
}

/// Insertion priority chosen by the coordinated-management policy when a
/// castout allocates into the L3 (§VIII.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPriority {
    /// Elevated replacement state (protected — observed reuse).
    Elevated,
    /// Ordinary replacement state.
    Ordinary,
    /// Do not allocate at all.
    Bypass,
}

/// Per-line metadata carried through the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineMeta {
    /// Brought in by a prefetch and not yet demanded.
    pub prefetched: bool,
    /// A demand access has hit this line since fill.
    pub demand_hit: bool,
    /// Reuse level, 0–3: L2 hits and L3 re-allocations increment it,
    /// saturating at 3 (a cache stores it in two bits).
    pub reuse: u8,
    /// Second-pass-prefetch filter (§VIII.A: "some cases needed to be
    /// filtered out from being marked as reuse, such as the second pass
    /// prefetch of two-pass prefetching").
    pub second_pass: bool,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// 64 B-aligned line address of the evicted line.
    pub addr: u64,
    /// Its metadata at eviction.
    pub meta: LineMeta,
    /// Whether the line was dirty.
    pub dirty: bool,
}

/// The victims displaced by one fill: at most both sectors of a single
/// evicted tag, so a fixed two-slot array avoids a heap allocation on
/// every fill in the simulator's hot loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Victims {
    items: [Option<Victim>; 2],
    len: u8,
}

impl Victims {
    fn push(&mut self, v: Victim) {
        debug_assert!((self.len as usize) < 2, "a fill evicts at most one tag");
        if (self.len as usize) < self.items.len() {
            self.items[self.len as usize] = Some(v);
            self.len += 1;
        }
    }

    /// Number of victims.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the fill displaced nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over the victims by reference.
    pub fn iter(&self) -> impl Iterator<Item = &Victim> {
        self.items[..self.len as usize].iter().flatten()
    }
}

impl IntoIterator for Victims {
    type Item = Victim;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Victim>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().flatten()
    }
}

impl<'a> IntoIterator for &'a Victims {
    type Item = &'a Victim;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Option<Victim>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items[..self.len as usize].iter().flatten()
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Data line size in bytes (64 throughout the paper).
    pub line_bytes: u64,
    /// Tag-sector factor: 1 = one tag per line; 2 = 128 B-sectored tags
    /// (two 64 B sectors share a tag, §VIII.B).
    pub sectors_per_tag: u64,
    /// Access latency in cycles (hit).
    pub latency: u32,
}

impl CacheConfig {
    /// Number of tag entries.
    pub fn tags(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.sectors_per_tag)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.tags() / self.ways as u64).max(1)
    }
}

/// Tag word of an invalid way.
const INVALID_TAG: u64 = u64::MAX;

/// Bit position of the 2-bit SRRIP RRPV in [`WayState`].
const RRPV_SHIFT: u32 = 4;

/// Bit position of sector `s`'s 5-bit [`LineMeta`] in [`WayState`].
#[inline]
fn meta_shift(s: usize) -> u32 {
    6 + 5 * s as u32
}

/// Everything a way holds besides its tag, packed into 16 bits:
///
/// | bits | field |
/// |---|---|
/// | 0–1 | per-sector valid |
/// | 2–3 | per-sector dirty |
/// | 4–5 | SRRIP re-reference prediction value: 0 = near re-reference (elevated / recently hit), 3 = evictable. The "elevated" vs "ordinary" replacement states of §VIII.A map onto the insertion RRPV |
/// | 6–10 | sector 0 [`LineMeta`]: prefetched, demand hit, second pass, 2-bit reuse |
/// | 11–15 | sector 1 [`LineMeta`] |
///
/// Invariant, kept by every mutation and checked on restore: a way's tag
/// is [`INVALID_TAG`] exactly when none of its sectors is valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WayState(u16);

impl WayState {
    /// A free way: nothing valid or dirty, default metadata, RRPV 3.
    const INVALID: WayState = WayState(3 << RRPV_SHIFT);

    #[inline]
    fn valid_bits(self) -> u8 {
        (self.0 & 3) as u8
    }

    #[inline]
    fn dirty_bits(self) -> u8 {
        (self.0 >> 2 & 3) as u8
    }

    #[inline]
    fn is_valid(self, s: usize) -> bool {
        self.0 >> s & 1 == 1
    }

    #[inline]
    fn is_dirty(self, s: usize) -> bool {
        self.0 >> (2 + s) & 1 == 1
    }

    #[inline]
    fn set_valid(&mut self, s: usize) {
        self.0 |= 1 << s;
    }

    #[inline]
    fn set_dirty(&mut self, s: usize) {
        self.0 |= 1 << (2 + s);
    }

    /// Clear sector `s`'s valid and dirty bits (its metadata stays, as
    /// the checkpoint records it).
    #[inline]
    fn clear_sector(&mut self, s: usize) {
        self.0 &= !(1 << s | 1 << (2 + s));
    }

    #[inline]
    fn rrpv(self) -> u8 {
        (self.0 >> RRPV_SHIFT & 3) as u8
    }

    #[inline]
    fn set_rrpv(&mut self, rrpv: u8) {
        self.0 = self.0 & !(3 << RRPV_SHIFT) | u16::from(rrpv & 3) << RRPV_SHIFT;
    }

    #[inline]
    fn meta(self, s: usize) -> LineMeta {
        let b = self.0 >> meta_shift(s);
        LineMeta {
            prefetched: b & 1 == 1,
            demand_hit: b >> 1 & 1 == 1,
            second_pass: b >> 2 & 1 == 1,
            reuse: (b >> 3 & 3) as u8,
        }
    }

    /// Store sector `s`'s metadata; `reuse` saturates at 3.
    #[inline]
    fn set_meta(&mut self, s: usize, m: LineMeta) {
        let bits = u16::from(m.prefetched)
            | u16::from(m.demand_hit) << 1
            | u16::from(m.second_pass) << 2
            | u16::from(m.reuse.min(3)) << 3;
        let shift = meta_shift(s);
        self.0 = self.0 & !(0x1F << shift) | bits << shift;
    }

    /// Whether a demand has consumed every valid sector of the first
    /// `sectors` (the victim preference of [`Cache::fill`]).
    #[inline]
    fn consumed(self, sectors: usize) -> bool {
        (0..sectors).all(|s| !self.is_valid(s) || self.meta(s).demand_hit)
    }
}

/// `m` after a demand touch: demanded, and one more reuse unless it is a
/// second-pass prefetch (§VIII.A's reuse filter).
#[inline]
fn demanded(m: LineMeta) -> LineMeta {
    LineMeta {
        demand_hit: true,
        reuse: if m.second_pass { m.reuse } else { m.reuse.saturating_add(1).min(3) },
        ..m
    }
}

/// Access statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub demand_hits: u64,
    /// Demand misses.
    pub demand_misses: u64,
    /// Prefetch hits (already present).
    pub prefetch_hits: u64,
    /// Prefetch misses (will fill).
    pub prefetch_misses: u64,
    /// Lines filled.
    pub fills: u64,
    /// Victims evicted (valid lines displaced).
    pub evictions: u64,
    /// Demand hits on lines brought by prefetch (useful prefetches).
    pub useful_prefetch_hits: u64,
}

/// A set-associative, optionally sectored, write-back cache array with
/// SRRIP replacement.
///
/// Ways are stored set-contiguous as two parallel arrays: the 8 B tag
/// words, which every lookup scans, and the 2 B [`WayState`] words, which
/// a lookup reads only at the matching way (a fill into a full set also
/// scans them for its victim). A tag appears at most once per set (fills
/// keep it so; restore rejects repeats), so a lookup stops at the first
/// matching tag.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    /// `log2(granule)` when the tag granule is a power of two (every
    /// shipped geometry), letting `tag_addr` shift instead of divide.
    granule_shift: Option<u32>,
    /// `log2(line_bytes)` when the line size is a power of two.
    line_shift: Option<u32>,
    /// `sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    /// Tag-granule address (`addr / (line * sectors)`) per way;
    /// [`INVALID_TAG`] marks a free way.
    tags: Vec<u64>,
    /// Valid/dirty bits, metadata and RRPV per way, parallel to `tags`.
    state: Vec<WayState>,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache from `cfg`.
    ///
    /// # Panics
    /// Panics if geometry is degenerate (zero ways/size, or more than two
    /// sectors per tag).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.size_bytes > 0 && cfg.ways > 0 && cfg.line_bytes > 0);
        assert!(
            cfg.sectors_per_tag == 1 || cfg.sectors_per_tag == 2,
            "1 or 2 sectors per tag supported"
        );
        let sets = cfg.sets();
        let granule = cfg.line_bytes * cfg.sectors_per_tag;
        let ways = (sets * cfg.ways as u64) as usize;
        Cache {
            sets,
            granule_shift: granule.is_power_of_two().then(|| granule.trailing_zeros()),
            line_shift: cfg
                .line_bytes
                .is_power_of_two()
                .then(|| cfg.line_bytes.trailing_zeros()),
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            tags: vec![INVALID_TAG; ways],
            state: vec![WayState::INVALID; ways],
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn granule(&self) -> u64 {
        self.cfg.line_bytes * self.cfg.sectors_per_tag
    }

    #[inline]
    fn tag_addr(&self, addr: u64) -> u64 {
        match self.granule_shift {
            Some(s) => addr >> s,
            None => addr / self.granule(),
        }
    }

    /// The 64 B line address of sector `sector` under tag `tag`.
    #[inline]
    fn line_addr(&self, tag: u64, sector: usize) -> u64 {
        let base = match self.granule_shift {
            Some(s) => tag << s,
            None => tag * self.granule(),
        };
        base + sector as u64 * self.cfg.line_bytes
    }

    /// The largest tag whose every sector has an address in `u64`.
    fn max_tag(&self) -> u64 {
        (u64::MAX - (self.granule() - self.cfg.line_bytes)) / self.granule()
    }

    #[inline]
    fn sector_of(&self, addr: u64) -> usize {
        // sectors_per_tag is 1 or 2 (asserted in `new`), so it is always
        // a power of two and the modulo can be a mask.
        let line = match self.line_shift {
            Some(s) => addr >> s,
            None => addr / self.cfg.line_bytes,
        };
        (line & (self.cfg.sectors_per_tag - 1)) as usize
    }

    /// Index of the first way of `tag`'s set.
    #[inline]
    fn set_base(&self, tag: u64) -> usize {
        let h = tag ^ (tag >> 13);
        let set = match self.set_mask {
            Some(mask) => h & mask,
            None => h % self.sets,
        };
        (set * self.cfg.ways as u64) as usize
    }

    /// The way holding `addr`'s 64 B line, and the line's sector.
    #[inline]
    fn find(&self, addr: u64) -> Option<(usize, usize)> {
        let t = self.tag_addr(addr);
        let base = self.set_base(t);
        let i = base + self.tags[base..base + self.cfg.ways].iter().position(|&tag| tag == t)?;
        let sector = self.sector_of(addr);
        self.state[i].is_valid(sector).then_some((i, sector))
    }

    /// Probe without side effects: is the 64 B line present?
    pub fn probe(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Probe whether the *buddy* sector of `addr` is valid under the same
    /// tag (Buddy prefetcher support; always false for unsectored caches).
    pub fn buddy_valid(&self, addr: u64) -> bool {
        if self.cfg.sectors_per_tag != 2 {
            return false;
        }
        let buddy = addr ^ self.cfg.line_bytes;
        self.probe(buddy)
    }

    fn count_miss(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Demand => self.stats.demand_misses += 1,
            AccessKind::Writeback => {}
            _ => self.stats.prefetch_misses += 1,
        }
    }

    /// Apply a hit of `kind` to sector `sector` of way `i`; returns the
    /// sector's metadata from before the hit.
    #[inline]
    fn hit(&mut self, i: usize, sector: usize, kind: AccessKind) -> LineMeta {
        let st = &mut self.state[i];
        let before = st.meta(sector);
        st.set_rrpv(0);
        match kind {
            AccessKind::Demand => {
                if before.prefetched && !before.demand_hit {
                    self.stats.useful_prefetch_hits += 1;
                }
                st.set_meta(sector, demanded(before));
                self.stats.demand_hits += 1;
            }
            AccessKind::Writeback => st.set_dirty(sector),
            _ => self.stats.prefetch_hits += 1,
        }
        before
    }

    /// Look up `addr`; on a hit, update replacement state and metadata.
    /// Returns the line's metadata from before the access on a hit,
    /// `None` on a miss.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> Option<LineMeta> {
        match self.find(addr) {
            Some((i, sector)) => Some(self.hit(i, sector, kind)),
            None => {
                self.count_miss(kind);
                None
            }
        }
    }

    /// [`Cache::access`] then, on a hit, [`Cache::invalidate`] — in one
    /// lookup (the exclusive L3's hit-and-swap). Returns the line's
    /// metadata after the access and whether it was dirty.
    pub fn take(&mut self, addr: u64, kind: AccessKind) -> Option<(LineMeta, bool)> {
        let Some((i, sector)) = self.find(addr) else {
            self.count_miss(kind);
            return None;
        };
        self.hit(i, sector, kind);
        Some(self.invalidate_way(i, sector))
    }

    /// Fill the 64 B line at `addr`. Returns victims displaced by the fill
    /// (up to both sectors of an evicted sectored tag).
    pub fn fill(&mut self, addr: u64, kind: AccessKind, mut meta: LineMeta, priority: InsertPriority) -> Victims {
        let insert_rrpv = match priority {
            InsertPriority::Elevated => 0,
            InsertPriority::Ordinary => 2,
            InsertPriority::Bypass => return Victims::default(),
        };
        self.stats.fills += 1;
        meta.prefetched = kind.is_prefetch();
        if kind == AccessKind::Demand {
            meta.demand_hit = true;
        }
        let t = self.tag_addr(addr);
        let sector = self.sector_of(addr);
        let base = self.set_base(t);
        let ways = self.cfg.ways;
        // One tag pass: the same tag already present (other sector valid,
        // or refill), else remember the first free way.
        let mut free = None;
        for (w, &tag) in self.tags[base..base + ways].iter().enumerate() {
            if tag == t {
                let st = &mut self.state[base + w];
                st.set_valid(sector);
                st.set_meta(sector, meta);
                st.set_rrpv(st.rrpv().min(insert_rrpv));
                return Victims::default();
            }
            if tag == INVALID_TAG && free.is_none() {
                free = Some(w);
            }
        }
        // SRRIP victim selection: a free way, else a way at RRPV 3 (aging
        // the set until one appears). Among RRPV-3 candidates, prefer
        // lines that a demand has already consumed over
        // prefetched-but-unconsumed ones — evicting the stream's past
        // rather than its prefetched future (§VIII.A's "preserve useful
        // data in the wake of transient streams").
        let sectors = self.cfg.sectors_per_tag as usize;
        let states = &mut self.state[base..base + ways];
        let w = match free {
            Some(w) => w,
            None => loop {
                // One scan, no candidate list: remember the first RRPV-3
                // way and stop at the first fully demand-consumed one.
                let mut first = None;
                let mut consumed = None;
                for (w, st) in states.iter().enumerate() {
                    if st.rrpv() < 3 {
                        continue;
                    }
                    if first.is_none() {
                        first = Some(w);
                    }
                    if st.consumed(sectors) {
                        consumed = Some(w);
                        break;
                    }
                }
                if let Some(w) = consumed.or(first) {
                    break w;
                }
                for st in states.iter_mut() {
                    st.set_rrpv(st.rrpv() + 1);
                }
            },
        };
        let i = base + w;
        let old = self.state[i];
        let mut victims = Victims::default();
        for s in 0..sectors {
            if old.is_valid(s) {
                victims.push(Victim {
                    addr: self.line_addr(self.tags[i], s),
                    meta: old.meta(s),
                    dirty: old.is_dirty(s),
                });
            }
        }
        self.stats.evictions += victims.len() as u64;
        let mut st = WayState::INVALID;
        st.set_valid(sector);
        st.set_meta(sector, meta);
        st.set_rrpv(insert_rrpv);
        self.tags[i] = t;
        self.state[i] = st;
        victims
    }

    /// Clear sector `sector` of way `i`, freeing the way when no sector
    /// stays valid; returns the sector's metadata and dirtiness.
    #[inline]
    fn invalidate_way(&mut self, i: usize, sector: usize) -> (LineMeta, bool) {
        let st = &mut self.state[i];
        let out = (st.meta(sector), st.is_dirty(sector));
        st.clear_sector(sector);
        if st.valid_bits() == 0 {
            st.set_rrpv(3);
            self.tags[i] = INVALID_TAG;
        }
        out
    }

    /// Invalidate the 64 B line (exclusive-hierarchy swap). Returns its
    /// metadata if it was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<(LineMeta, bool)> {
        let (i, sector) = self.find(addr)?;
        Some(self.invalidate_way(i, sector))
    }

    /// Mark the line dirty (store hit).
    pub fn mark_dirty(&mut self, addr: u64) {
        if let Some((i, sector)) = self.find(addr) {
            self.state[i].set_dirty(sector);
        }
    }

    /// Mark the line as demanded by an inner level (§VIII.A: reuse
    /// metadata "passed through request or response channels between the
    /// cache levels"). No hit statistics are charged.
    pub fn mark_demanded(&mut self, addr: u64) {
        if let Some((i, sector)) = self.find(addr) {
            let st = &mut self.state[i];
            st.set_meta(sector, demanded(st.meta(sector)));
        }
    }

    /// Number of valid 64 B lines resident.
    pub fn occupancy(&self) -> usize {
        self.state.iter().map(|st| st.valid_bits().count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 4,
            line_bytes: 64,
            sectors_per_tag: 1,
            latency: 4,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(c.access(0x1000, AccessKind::Demand).is_none());
        c.fill(0x1000, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        assert!(c.access(0x1000, AccessKind::Demand).is_some());
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // 4 ways: fill 5 lines mapping to the same set (set stride =
        // sets*64).
        let sets = c.config().sets();
        let stride = sets * 64;
        for i in 0..5u64 {
            let a = 0x10_0000 + i * stride;
            c.access(a, AccessKind::Demand);
            c.fill(a, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        }
        assert!(!c.probe(0x10_0000), "oldest line evicted");
        assert!(c.probe(0x10_0000 + 4 * stride));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn sectored_tags_share_one_tag() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 2,
            line_bytes: 64,
            sectors_per_tag: 2,
            latency: 12,
        });
        c.fill(0x2000, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        assert!(c.probe(0x2000));
        assert!(!c.probe(0x2040), "buddy sector invalid until filled");
        assert!(!c.buddy_valid(0x2040) == false || c.buddy_valid(0x2040));
        assert!(c.buddy_valid(0x2040), "0x2000 is 0x2040's buddy");
        // Filling the buddy does not evict anything (same tag).
        let v = c.fill(0x2040, AccessKind::Prefetch, LineMeta::default(), InsertPriority::Ordinary);
        assert!(v.is_empty());
        assert!(c.probe(0x2040));
    }

    #[test]
    fn eviction_of_sectored_tag_yields_both_victims() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 1,
            line_bytes: 64,
            sectors_per_tag: 2,
            latency: 12,
        });
        let sets = c.config().sets();
        let stride = sets * 128;
        c.fill(0x4000, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        c.fill(0x4040, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        let v = c.fill(0x4000 + stride, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        assert_eq!(v.len(), 2, "both sectors evicted with the tag");
    }

    #[test]
    fn useful_prefetch_tracked_once() {
        let mut c = small();
        c.fill(0x3000, AccessKind::Prefetch, LineMeta::default(), InsertPriority::Ordinary);
        assert!(c.access(0x3000, AccessKind::Demand).is_some());
        assert!(c.access(0x3000, AccessKind::Demand).is_some());
        assert_eq!(c.stats().useful_prefetch_hits, 1);
    }

    #[test]
    fn reuse_counter_saturates_and_skips_second_pass() {
        let mut c = small();
        let mut meta = LineMeta::default();
        meta.second_pass = true;
        c.fill(0x3000, AccessKind::PrefetchFirstPass, meta, InsertPriority::Ordinary);
        for _ in 0..5 {
            c.access(0x3000, AccessKind::Demand);
        }
        assert_eq!(c.access(0x3000, AccessKind::Demand).unwrap().reuse, 0, "second-pass lines don't mark reuse");
        c.fill(0x3040, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        for _ in 0..5 {
            c.access(0x3040, AccessKind::Demand);
        }
        assert_eq!(c.access(0x3040, AccessKind::Demand).unwrap().reuse, 3, "saturates at 3");
    }

    #[test]
    fn access_returns_the_pre_access_meta() {
        let mut c = small();
        assert_eq!(c.access(0x5000, AccessKind::Demand), None);
        c.fill(0x5000, AccessKind::Prefetch, LineMeta::default(), InsertPriority::Ordinary);
        let before = c.access(0x5000, AccessKind::Demand).unwrap();
        assert!(before.prefetched && !before.demand_hit, "first demand sees the untouched prefetch");
        assert!(c.access(0x5000, AccessKind::Demand).unwrap().demand_hit);
    }

    #[test]
    fn take_is_access_then_invalidate() {
        let mut c = small();
        assert_eq!(c.take(0x6000, AccessKind::Demand), None);
        assert_eq!(c.stats().demand_misses, 1);
        c.fill(0x6000, AccessKind::Prefetch, LineMeta::default(), InsertPriority::Ordinary);
        let (meta, dirty) = c.take(0x6000, AccessKind::Demand).unwrap();
        assert!(meta.demand_hit && meta.reuse == 1 && !dirty, "{meta:?}");
        assert_eq!(c.stats().useful_prefetch_hits, 1);
        assert!(!c.probe(0x6000));
    }

    #[test]
    fn elevated_insertion_resists_ordinary_stream() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 4,
            line_bytes: 64,
            sectors_per_tag: 1,
            latency: 30,
        });
        let sets = c.config().sets();
        let stride = sets * 64;
        // One elevated (hot) line.
        c.fill(0x8000, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        // An ordinary transient stream through the same set.
        for i in 1..9u64 {
            c.fill(0x8000 + i * stride, AccessKind::Demand, LineMeta::default(), InsertPriority::Ordinary);
        }
        assert!(c.probe(0x8000), "elevated line survives a transient stream");
        // But protection ages out eventually — a cold elevated line cannot
        // pin its way forever.
        for i in 9..40u64 {
            c.fill(0x8000 + i * stride, AccessKind::Demand, LineMeta::default(), InsertPriority::Ordinary);
        }
        assert!(!c.probe(0x8000), "unreferenced elevated line ages out");
    }

    #[test]
    fn invalidate_supports_exclusive_swaps() {
        let mut c = small();
        c.fill(0x9000, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        c.mark_dirty(0x9000);
        let (meta, dirty) = c.invalidate(0x9000).unwrap();
        assert!(dirty);
        assert!(meta.demand_hit);
        assert!(!c.probe(0x9000));
        assert!(c.invalidate(0x9000).is_none());
    }

    /// Byte offset of way `k` in an image from [`image_with_one_line`]:
    /// section tag and length (6 B), way count (4 B), 19 B per way.
    fn way_at(k: usize) -> usize {
        10 + 19 * k
    }

    /// A small cache holding one line at `0x7040`, with its image and
    /// the index of the way the line sits in.
    fn image_with_one_line(sectors_per_tag: u64) -> (Cache, Vec<u8>, usize) {
        use exynos_snapshot::{Encoder, Snapshot};
        let mut c = Cache::new(CacheConfig { size_bytes: 4096, ways: 4, line_bytes: 64, sectors_per_tag, latency: 4 });
        c.fill(0x7040, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        let mut enc = Encoder::new();
        c.save(&mut enc);
        let (way, _) = c.find(0x7040).unwrap();
        (c, enc.finish(), way)
    }

    fn restore_err(c: &mut Cache, image: &[u8]) -> Option<exynos_snapshot::SnapshotError> {
        use exynos_snapshot::{Decoder, Snapshot};
        c.restore(&mut Decoder::new(image)).err()
    }

    fn assert_corrupt(c: &mut Cache, image: &[u8]) {
        let err = restore_err(c, image);
        assert!(matches!(err, Some(exynos_snapshot::SnapshotError::Corrupt { .. })), "{err:?}");
    }

    #[test]
    fn restore_accepts_its_own_image() {
        let (mut c, image, _) = image_with_one_line(2);
        assert_eq!(restore_err(&mut c, &image), None);
        assert!(c.probe(0x7040));
    }

    #[test]
    fn restore_rejects_valid_bits_under_the_invalid_tag() {
        let (mut c, mut image, way) = image_with_one_line(1);
        let free = if way % 4 == 0 { way + 1 } else { way - 1 };
        image[way_at(free) + 8] = 1;
        assert_corrupt(&mut c, &image);
    }

    #[test]
    fn restore_rejects_a_real_tag_without_valid_bits() {
        let (mut c, mut image, way) = image_with_one_line(1);
        image[way_at(way) + 8] = 0;
        assert_corrupt(&mut c, &image);
    }

    #[test]
    fn restore_rejects_sector_bits_beyond_the_tag() {
        let (mut c, mut image, way) = image_with_one_line(1);
        image[way_at(way) + 8] = 0b11;
        assert_corrupt(&mut c, &image);
        let (mut c, mut image, way) = image_with_one_line(2);
        image[way_at(way) + 9] = 0b100;
        assert_corrupt(&mut c, &image);
    }

    #[test]
    fn restore_rejects_dirty_bits_on_an_invalid_sector() {
        // 0x7040 is sector 1 of its tag; sector 0 is not valid.
        let (mut c, mut image, way) = image_with_one_line(2);
        image[way_at(way) + 9] = 0b10;
        assert_eq!(restore_err(&mut c, &image), None, "dirty on the valid sector restores");
        image[way_at(way) + 9] = 0b01;
        assert_corrupt(&mut c, &image);
    }

    #[test]
    fn restore_rejects_a_tag_whose_line_address_overflows() {
        // 128 B granule: 2^57 is the first tag past the address space
        // (2^57 * 128 = 2^64), so a later victim address would overflow.
        let (mut c, mut image, way) = image_with_one_line(2);
        let at = way_at(way);
        image[at..at + 8].copy_from_slice(&(u64::MAX >> 7).to_le_bytes());
        assert_eq!(restore_err(&mut c, &image), None, "the last tag in range restores");
        image[at..at + 8].copy_from_slice(&(1u64 << 57).to_le_bytes());
        assert_corrupt(&mut c, &image);
    }

    #[test]
    fn restore_rejects_a_tag_repeated_within_a_set() {
        let (mut c, mut image, way) = image_with_one_line(1);
        let other = if way % 4 == 0 { way + 1 } else { way - 1 };
        let src = image[way_at(way)..way_at(way) + 19].to_vec();
        image[way_at(other)..way_at(other) + 19].copy_from_slice(&src);
        assert_corrupt(&mut c, &image);
    }

    #[test]
    fn restore_rejects_rrpv_above_three() {
        let (mut c, mut image, way) = image_with_one_line(1);
        image[way_at(way) + 18] = 4;
        assert_corrupt(&mut c, &image);
    }

    #[test]
    fn restore_rejects_reuse_above_three() {
        let (mut c, mut image, way) = image_with_one_line(1);
        image[way_at(way) + 12] = 4;
        assert_corrupt(&mut c, &image);
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = small();
        for i in 0..10u64 {
            c.fill(0xA000 + i * 64, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        }
        assert_eq!(c.occupancy(), 10);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{tags, Decoder, Encoder, Snapshot, SnapshotError};

    fn save_meta(enc: &mut Encoder, m: &LineMeta) {
        enc.bool(m.prefetched);
        enc.bool(m.demand_hit);
        enc.u8(m.reuse);
        enc.bool(m.second_pass);
    }

    fn load_meta(dec: &mut Decoder<'_>) -> Result<LineMeta, SnapshotError> {
        Ok(LineMeta {
            prefetched: dec.bool()?,
            demand_hit: dec.bool()?,
            reuse: dec.u8()?,
            second_pass: dec.bool()?,
        })
    }

    impl Snapshot for Cache {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::CACHE);
            enc.seq(self.tags.len());
            for (&tag, st) in self.tags.iter().zip(&self.state) {
                enc.u64(tag);
                enc.u8(st.valid_bits());
                enc.u8(st.dirty_bits());
                save_meta(enc, &st.meta(0));
                save_meta(enc, &st.meta(1));
                enc.u8(st.rrpv());
            }
            enc.u64(self.stats.demand_hits);
            enc.u64(self.stats.demand_misses);
            enc.u64(self.stats.prefetch_hits);
            enc.u64(self.stats.prefetch_misses);
            enc.u64(self.stats.fills);
            enc.u64(self.stats.evictions);
            enc.u64(self.stats.useful_prefetch_hits);
            enc.end_section();
        }

        /// Rejects, as [`SnapshotError::Corrupt`], any way the cache could
        /// not have produced: valid or dirty bits beyond its sectors, a
        /// dirty bit on an invalid sector, a tag that disagrees with its valid bits, a tag whose line
        /// address overflows, a tag repeated within a set, and an RRPV or
        /// reuse counter above 3.
        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::CACHE)?;
            let n = dec.seq(1)?;
            if n != self.tags.len() {
                return Err(SnapshotError::Geometry {
                    what: "cache tag array",
                    expected: self.tags.len() as u64,
                    found: n as u64,
                });
            }
            let corrupt = |what| Err(SnapshotError::Corrupt { what });
            let sector_mask = (1u8 << self.cfg.sectors_per_tag) - 1;
            let max_tag = self.max_tag();
            for i in 0..n {
                let tag = dec.u64()?;
                let valid = dec.u8()?;
                let dirty = dec.u8()?;
                let metas = [load_meta(dec)?, load_meta(dec)?];
                let rrpv = dec.u8()?;
                if (valid | dirty) & !sector_mask != 0 {
                    return corrupt("cache sector bits beyond the tag's sectors");
                }
                if dirty & !valid != 0 {
                    return corrupt("cache dirty bits on an invalid sector");
                }
                if (tag == INVALID_TAG) != (valid == 0) {
                    return corrupt("cache tag disagrees with its valid bits");
                }
                if valid != 0 && tag > max_tag {
                    return corrupt("cache tag beyond the address space");
                }
                if rrpv > 3 || metas.iter().any(|m| m.reuse > 3) {
                    return corrupt("cache RRPV or reuse counter above 3");
                }
                let set_start = i - i % self.cfg.ways;
                if valid != 0 && self.tags[set_start..i].contains(&tag) {
                    return corrupt("cache tag repeated within a set");
                }
                let mut st = WayState(u16::from(valid) | u16::from(dirty) << 2);
                st.set_meta(0, metas[0]);
                st.set_meta(1, metas[1]);
                st.set_rrpv(rrpv);
                self.tags[i] = tag;
                self.state[i] = st;
            }
            self.stats.demand_hits = dec.u64()?;
            self.stats.demand_misses = dec.u64()?;
            self.stats.prefetch_hits = dec.u64()?;
            self.stats.prefetch_misses = dec.u64()?;
            self.stats.fills = dec.u64()?;
            self.stats.evictions = dec.u64()?;
            self.stats.useful_prefetch_hits = dec.u64()?;
            dec.end_section()
        }
    }
}
