//! Array-of-structs reference models: the cache and TLB layouts the dense
//! [`Cache`] and [`Tlb`] replaced, kept as the oracle the property tests
//! below check them against — hit/miss, pre-access metadata, victims,
//! statistics and checkpoint bytes, op for op.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats, InsertPriority, LineMeta, Victim};
use crate::config::MemGenConfig;
use crate::tlb::{Tlb, TlbConfig};
use exynos_snapshot::{tags, Encoder, Snapshot};

#[derive(Debug, Clone, Copy)]
struct TagEntry {
    tag_addr: u64,
    sector_valid: u8,
    sector_dirty: u8,
    meta: [LineMeta; 2],
    rrpv: u8,
}

impl TagEntry {
    fn invalid() -> TagEntry {
        TagEntry {
            tag_addr: u64::MAX,
            sector_valid: 0,
            sector_dirty: 0,
            meta: [LineMeta::default(); 2],
            rrpv: 3,
        }
    }
}

/// The reference cache: one 24 B entry per way, plain divisions.
#[derive(Debug, Clone)]
pub(crate) struct RefCache {
    cfg: CacheConfig,
    sets: u64,
    entries: Vec<TagEntry>,
    stats: CacheStats,
}

impl RefCache {
    pub(crate) fn new(cfg: CacheConfig) -> RefCache {
        let sets = cfg.sets();
        RefCache {
            sets,
            entries: vec![TagEntry::invalid(); (sets * cfg.ways as u64) as usize],
            stats: CacheStats::default(),
            cfg,
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    fn granule(&self) -> u64 {
        self.cfg.line_bytes * self.cfg.sectors_per_tag
    }

    fn tag_addr(&self, addr: u64) -> u64 {
        addr / self.granule()
    }

    fn sector_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes) % self.cfg.sectors_per_tag) as usize
    }

    fn set_of(&self, addr: u64) -> u64 {
        let t = self.tag_addr(addr);
        (t ^ (t >> 13)) % self.sets
    }

    fn find(&self, addr: u64) -> Option<usize> {
        let t = self.tag_addr(addr);
        let base = (self.set_of(addr) * self.cfg.ways as u64) as usize;
        let sector = self.sector_of(addr);
        (base..base + self.cfg.ways)
            .find(|&i| self.entries[i].tag_addr == t && self.entries[i].sector_valid >> sector & 1 == 1)
    }

    pub(crate) fn probe(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    pub(crate) fn buddy_valid(&self, addr: u64) -> bool {
        self.cfg.sectors_per_tag == 2 && self.probe(addr ^ self.cfg.line_bytes)
    }

    pub(crate) fn meta(&self, addr: u64) -> Option<LineMeta> {
        self.find(addr).map(|i| self.entries[i].meta[self.sector_of(addr)])
    }

    pub(crate) fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
        match self.find(addr) {
            Some(i) => {
                let sector = self.sector_of(addr);
                self.entries[i].rrpv = 0;
                match kind {
                    AccessKind::Demand => {
                        let m = &mut self.entries[i].meta[sector];
                        if m.prefetched && !m.demand_hit {
                            self.stats.useful_prefetch_hits += 1;
                        }
                        m.demand_hit = true;
                        if !m.second_pass {
                            m.reuse = m.reuse.saturating_add(1).min(3);
                        }
                        self.stats.demand_hits += 1;
                    }
                    AccessKind::Writeback => {
                        self.entries[i].sector_dirty |= 1 << sector;
                    }
                    _ => {
                        self.stats.prefetch_hits += 1;
                    }
                }
                true
            }
            None => {
                match kind {
                    AccessKind::Demand => self.stats.demand_misses += 1,
                    AccessKind::Writeback => {}
                    _ => self.stats.prefetch_misses += 1,
                }
                false
            }
        }
    }

    pub(crate) fn fill(
        &mut self,
        addr: u64,
        kind: AccessKind,
        mut meta: LineMeta,
        priority: InsertPriority,
    ) -> Vec<Victim> {
        if priority == InsertPriority::Bypass {
            return Vec::new();
        }
        self.stats.fills += 1;
        meta.prefetched = kind.is_prefetch();
        if kind == AccessKind::Demand {
            meta.demand_hit = true;
        }
        let t = self.tag_addr(addr);
        let sector = self.sector_of(addr);
        let base = (self.set_of(addr) * self.cfg.ways as u64) as usize;
        let insert_rrpv = if priority == InsertPriority::Elevated { 0 } else { 2 };
        if let Some(i) = (base..base + self.cfg.ways).find(|&i| self.entries[i].tag_addr == t) {
            let e = &mut self.entries[i];
            e.sector_valid |= 1 << sector;
            e.meta[sector] = meta;
            e.rrpv = e.rrpv.min(insert_rrpv);
            return Vec::new();
        }
        let victim_idx = loop {
            if let Some(i) = (base..base + self.cfg.ways).find(|&i| self.entries[i].sector_valid == 0) {
                break i;
            }
            let mut first = None;
            let mut consumed = None;
            for i in base..base + self.cfg.ways {
                if self.entries[i].rrpv < 3 {
                    continue;
                }
                if first.is_none() {
                    first = Some(i);
                }
                let e = &self.entries[i];
                if (0..self.cfg.sectors_per_tag as usize)
                    .filter(|&s| e.sector_valid >> s & 1 == 1)
                    .all(|s| e.meta[s].demand_hit)
                {
                    consumed = Some(i);
                    break;
                }
            }
            if let Some(i) = consumed.or(first) {
                break i;
            }
            for i in base..base + self.cfg.ways {
                self.entries[i].rrpv += 1;
            }
        };
        let mut victims = Vec::new();
        let e = self.entries[victim_idx];
        for s in 0..self.cfg.sectors_per_tag as usize {
            if e.sector_valid >> s & 1 == 1 {
                victims.push(Victim {
                    addr: e.tag_addr * self.granule() + s as u64 * self.cfg.line_bytes,
                    meta: e.meta[s],
                    dirty: e.sector_dirty >> s & 1 == 1,
                });
            }
        }
        self.stats.evictions += victims.len() as u64;
        let e = &mut self.entries[victim_idx];
        *e = TagEntry::invalid();
        e.tag_addr = t;
        e.sector_valid = 1 << sector;
        e.meta[sector] = meta;
        e.rrpv = insert_rrpv;
        victims
    }

    pub(crate) fn invalidate(&mut self, addr: u64) -> Option<(LineMeta, bool)> {
        let i = self.find(addr)?;
        let sector = self.sector_of(addr);
        let e = &mut self.entries[i];
        let meta = e.meta[sector];
        let dirty = e.sector_dirty >> sector & 1 == 1;
        e.sector_valid &= !(1 << sector);
        e.sector_dirty &= !(1 << sector);
        if e.sector_valid == 0 {
            e.tag_addr = u64::MAX;
            e.rrpv = 3;
        }
        Some((meta, dirty))
    }

    pub(crate) fn mark_dirty(&mut self, addr: u64) {
        if let Some(i) = self.find(addr) {
            let sector = self.sector_of(addr);
            self.entries[i].sector_dirty |= 1 << sector;
        }
    }

    pub(crate) fn mark_demanded(&mut self, addr: u64) {
        if let Some(i) = self.find(addr) {
            let sector = self.sector_of(addr);
            let m = &mut self.entries[i].meta[sector];
            m.demand_hit = true;
            if !m.second_pass {
                m.reuse = m.reuse.saturating_add(1).min(3);
            }
        }
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.entries.iter().map(|e| e.sector_valid.count_ones() as usize).sum()
    }

    /// The checkpoint encoding the dense cache must keep byte for byte.
    pub(crate) fn image(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.begin_section(tags::CACHE);
        enc.seq(self.entries.len());
        for e in &self.entries {
            enc.u64(e.tag_addr);
            enc.u8(e.sector_valid);
            enc.u8(e.sector_dirty);
            for m in &e.meta {
                enc.bool(m.prefetched);
                enc.bool(m.demand_hit);
                enc.u8(m.reuse);
                enc.bool(m.second_pass);
            }
            enc.u8(e.rrpv);
        }
        let s = self.stats;
        for v in [
            s.demand_hits,
            s.demand_misses,
            s.prefetch_hits,
            s.prefetch_misses,
            s.fills,
            s.evictions,
            s.useful_prefetch_hits,
        ] {
            enc.u64(v);
        }
        enc.end_section();
        enc.finish()
    }
}

/// The reference TLB: `(tag, valid, lru)` triples, divide and modulo.
#[derive(Debug, Clone)]
pub(crate) struct RefTlb {
    cfg: TlbConfig,
    sets: usize,
    entries: Vec<(u64, u64, u64)>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    pub(crate) fn new(cfg: TlbConfig) -> RefTlb {
        let sets = (cfg.entries / cfg.ways).max(1);
        RefTlb { sets, entries: vec![(u64::MAX, 0, 0); sets * cfg.ways], stamp: 0, hits: 0, misses: 0, cfg }
    }

    fn granule_vpn(&self, vaddr: u64) -> (u64, usize) {
        let vpn = vaddr >> 12;
        (vpn / self.cfg.sectors as u64, (vpn % self.cfg.sectors as u64) as usize)
    }

    fn set_of(&self, gvpn: u64) -> usize {
        ((gvpn ^ (gvpn >> 9)) % self.sets as u64) as usize
    }

    pub(crate) fn access(&mut self, vaddr: u64) -> bool {
        self.stamp += 1;
        let (gvpn, sector) = self.granule_vpn(vaddr);
        let base = self.set_of(gvpn) * self.cfg.ways;
        for i in base..base + self.cfg.ways {
            let (tag, valid, _) = self.entries[i];
            if tag == gvpn && valid >> sector & 1 == 1 {
                self.entries[i].2 = self.stamp;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    pub(crate) fn fill(&mut self, vaddr: u64) {
        self.stamp += 1;
        let (gvpn, sector) = self.granule_vpn(vaddr);
        let base = self.set_of(gvpn) * self.cfg.ways;
        for i in base..base + self.cfg.ways {
            if self.entries[i].0 == gvpn {
                self.entries[i].1 |= 1 << sector;
                self.entries[i].2 = self.stamp;
                return;
            }
        }
        let victim = (base..base + self.cfg.ways)
            .min_by_key(|&i| if self.entries[i].0 == u64::MAX { 0 } else { self.entries[i].2.max(1) })
            .unwrap_or(base);
        self.entries[victim] = (gvpn, 1 << sector, self.stamp);
    }

    pub(crate) fn image(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.begin_section(tags::TLB);
        enc.seq(self.entries.len());
        for &(vpn, valid, lru) in &self.entries {
            enc.u64(vpn);
            enc.u64(valid);
            enc.u64(lru);
        }
        enc.u64(self.stamp);
        enc.u64(self.hits);
        enc.u64(self.misses);
        enc.end_section();
        enc.finish()
    }
}

fn image_of(s: &impl Snapshot) -> Vec<u8> {
    let mut enc = Encoder::new();
    s.save(&mut enc);
    enc.finish()
}

/// SplitMix64: the op streams' only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Every distinct cache geometry the generations ship, plus small
/// sectored and unsectored arrays whose sets overflow within a short op
/// stream.
fn cache_geometries() -> Vec<CacheConfig> {
    let mut out: Vec<CacheConfig> = Vec::new();
    for g in MemGenConfig::all_generations() {
        for c in [Some(g.l1i), Some(g.l1d), Some(g.l2), g.l3].into_iter().flatten() {
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }
    for sectors_per_tag in [1, 2] {
        out.push(CacheConfig { size_bytes: 2048, ways: 4, line_bytes: 64, sectors_per_tag, latency: 1 });
    }
    out
}

/// Three ways' worth of tags in each of two sets, found by walking tags
/// through the set hash `(t ^ t >> 13) % sets`.
fn hot_tags(cfg: &CacheConfig) -> Vec<u64> {
    let sets = cfg.sets();
    let per_set = cfg.ways * 3;
    let mut out = Vec::new();
    for target in [5 % sets, 0x123 % sets] {
        out.extend((0u64..).filter(|t| (t ^ (t >> 13)) % sets == target).take(per_set));
    }
    out
}

/// Addresses half drawn from a region three times the cache's capacity,
/// half from `hot` tags, so even the 4 MiB L3's sets fill, age and evict
/// within a short stream. Sub-line offsets and both sectors included.
fn cache_addr(rng: &mut Rng, cfg: &CacheConfig, hot: &[u64]) -> u64 {
    if rng.below(2) == 0 {
        let lines = (cfg.size_bytes / cfg.line_bytes) * 3;
        return rng.below(lines) * cfg.line_bytes + rng.below(cfg.line_bytes);
    }
    let tag = hot[rng.below(hot.len() as u64) as usize];
    let granule = cfg.line_bytes * cfg.sectors_per_tag;
    tag * granule + rng.below(cfg.sectors_per_tag) * cfg.line_bytes + rng.below(cfg.line_bytes)
}

const KINDS: [AccessKind; 4] =
    [AccessKind::Demand, AccessKind::PrefetchFirstPass, AccessKind::Prefetch, AccessKind::Writeback];
const PRIORITIES: [InsertPriority; 3] =
    [InsertPriority::Elevated, InsertPriority::Ordinary, InsertPriority::Bypass];

fn random_meta(rng: &mut Rng) -> LineMeta {
    let r = rng.next();
    LineMeta {
        prefetched: r & 1 == 1,
        demand_hit: r >> 1 & 1 == 1,
        reuse: (r >> 2 & 3) as u8,
        second_pass: r >> 4 & 1 == 1,
    }
}

fn check_cache(cfg: CacheConfig, ops: usize, seed: u64) {
    let mut rng = Rng(seed);
    let hot = hot_tags(&cfg);
    let mut dense = Cache::new(cfg);
    let mut reference = RefCache::new(cfg);
    for op in 0..ops {
        let addr = cache_addr(&mut rng, &cfg, &hot);
        let kind = KINDS[rng.below(4) as usize];
        let ctx = || format!("{cfg:?} seed {seed} op {op} addr {addr:#x} kind {kind:?}");
        match rng.below(10) {
            0..=2 => {
                let before = reference.meta(addr);
                let hit = reference.access(addr, kind);
                assert_eq!(dense.access(addr, kind), before.filter(|_| hit), "access: {}", ctx());
            }
            3..=5 => {
                let meta = random_meta(&mut rng);
                let prio = PRIORITIES[rng.below(3) as usize];
                let want = reference.fill(addr, kind, meta, prio);
                let got: Vec<Victim> = dense.fill(addr, kind, meta, prio).into_iter().collect();
                assert_eq!(got, want, "fill victims: {}", ctx());
            }
            6 => {
                let hit = reference.access(addr, kind);
                let want = if hit { reference.invalidate(addr) } else { None };
                assert_eq!(dense.take(addr, kind), want, "take: {}", ctx());
            }
            7 => assert_eq!(dense.invalidate(addr), reference.invalidate(addr), "invalidate: {}", ctx()),
            8 => {
                if rng.below(2) == 0 {
                    dense.mark_dirty(addr);
                    reference.mark_dirty(addr);
                } else {
                    dense.mark_demanded(addr);
                    reference.mark_demanded(addr);
                }
            }
            _ => {
                assert_eq!(dense.probe(addr), reference.probe(addr), "probe: {}", ctx());
                assert_eq!(dense.buddy_valid(addr), reference.buddy_valid(addr), "buddy: {}", ctx());
            }
        }
        assert_eq!(dense.stats(), reference.stats(), "stats: {}", ctx());
    }
    assert!(reference.stats().evictions > 0, "{cfg:?} seed {seed}: the stream must evict");
    assert_eq!(dense.occupancy(), reference.occupancy(), "{cfg:?} seed {seed}: occupancy");
    assert!(image_of(&dense) == reference.image(), "{cfg:?} seed {seed}: checkpoint bytes diverged");
}

#[test]
fn dense_cache_matches_the_reference_on_every_geometry() {
    for (k, cfg) in cache_geometries().into_iter().enumerate() {
        // Enough ops to fill, age and evict the small arrays many times
        // over and to reach every op kind on the large ones.
        let ops = if cfg.size_bytes <= 4096 { 6_000 } else { 12_000 };
        for seed in 0..3 {
            check_cache(cfg, ops, 0xCAC4E ^ (k as u64) << 8 ^ seed);
        }
    }
}

#[test]
fn dense_cache_restores_reference_images() {
    // A reference image mid-run restores into the dense cache and the two
    // continue in lockstep.
    let cfg = CacheConfig { size_bytes: 4096, ways: 4, line_bytes: 64, sectors_per_tag: 2, latency: 1 };
    let mut rng = Rng(17);
    let hot = hot_tags(&cfg);
    let mut reference = RefCache::new(cfg);
    for _ in 0..2_000 {
        let addr = cache_addr(&mut rng, &cfg, &hot);
        if reference.access(addr, AccessKind::Demand) {
            let _ = reference.invalidate(addr ^ 64);
        } else {
            let _ = reference.fill(addr, AccessKind::Demand, random_meta(&mut rng), InsertPriority::Ordinary);
        }
    }
    let image = reference.image();
    let mut dense = Cache::new(cfg);
    dense.restore(&mut exynos_snapshot::Decoder::new(&image)).unwrap();
    assert!(image_of(&dense) == image);
}

fn tlb_geometries() -> Vec<TlbConfig> {
    let mut out: Vec<TlbConfig> = Vec::new();
    for g in MemGenConfig::all_generations() {
        for t in [Some(g.tlb.itlb), Some(g.tlb.dtlb), g.tlb.dtlb15, Some(g.tlb.l2tlb)].into_iter().flatten() {
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }
    // Small and set-associative, with the 2-page sectors no shipped level uses.
    out.push(TlbConfig { entries: 16, ways: 4, sectors: 2, latency: 1 });
    out
}

#[test]
fn soa_tlb_matches_the_reference_on_every_geometry() {
    for (k, cfg) in tlb_geometries().into_iter().enumerate() {
        for seed in 0..3 {
            let mut rng = Rng(0x71B ^ (k as u64) << 8 ^ seed);
            let mut soa = Tlb::new(cfg);
            let mut reference = RefTlb::new(cfg);
            let pages = (cfg.pages() as u64) * 3;
            for op in 0..8_000 {
                let vaddr = (0x10_0000 + rng.below(pages)) << 12 | rng.below(4096);
                if rng.below(3) == 0 {
                    soa.fill(vaddr);
                    reference.fill(vaddr);
                } else {
                    assert_eq!(soa.access(vaddr), reference.access(vaddr), "{cfg:?} seed {seed} op {op}");
                }
            }
            assert_eq!(soa.stats().hits, reference.hits);
            assert_eq!(soa.stats().misses, reference.misses);
            assert!(image_of(&soa) == reference.image(), "{cfg:?} seed {seed}: checkpoint bytes diverged");
        }
    }
}
