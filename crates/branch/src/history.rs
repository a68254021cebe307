//! Global outcome history (GHIST) and path history (PHIST) registers, and
//! the per-table folded histories the SHP indexes with.
//!
//! §IV.A: each SHP table is indexed by an XOR hash of (1) a hash of the
//! GHIST pattern *in a given interval for that table* — one bit per
//! conditional-branch outcome; (2) a hash of the PHIST in a given interval —
//! "three bits, bits two through four, of each branch address encountered";
//! and (3) a hash of the PC. M1 used 165 bits of GHIST and 80 entries of
//! PHIST; M5 grew GHIST by 25% and rebalanced the intervals.
//!
//! [`FoldedHistory`] keeps both hashes ready: one folded-GHIST and one
//! folded-PHIST register per table, each updated in O(1) per push
//! (TAGE-style circular folding), so a prediction reads 2 registers per
//! table instead of re-folding up to 206 GHIST bits and 100 PHIST
//! entries.

use crate::shp::{ShpConfig, MAX_TABLES};

/// Maximum GHIST bits any generation keeps (M5/M6 use 206).
pub const MAX_GHIST: usize = 256;
/// Maximum PHIST entries (3 bits each) any generation keeps.
pub const MAX_PHIST: usize = 128;
// The PHIST ring buffer masks with MAX_PHIST - 1.
const _: () = assert!(MAX_PHIST.is_power_of_two());

/// A shift-register of conditional-branch outcomes, newest in bit 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalHistory {
    words: [u64; MAX_GHIST / 64],
}

impl GlobalHistory {
    /// An all-not-taken history.
    pub fn new() -> GlobalHistory {
        GlobalHistory {
            words: [0; MAX_GHIST / 64],
        }
    }

    /// Record a conditional-branch outcome.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        // Shift the whole register left by one, inserting at bit 0.
        let n = self.words.len();
        for i in (1..n).rev() {
            self.words[i] = (self.words[i] << 1) | (self.words[i - 1] >> 63);
        }
        self.words[0] = (self.words[0] << 1) | taken as u64;
    }

    /// Bit `i` of history (0 = most recent outcome).
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < MAX_GHIST);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }
}

impl Default for GlobalHistory {
    fn default() -> Self {
        Self::new()
    }
}

/// A shift-register of per-branch path nibbles: bits 2..=4 of each branch
/// address encountered, newest first.
///
/// Stored as a ring buffer: `head` is the index of the newest entry and
/// a push only writes one byte, instead of rotating the whole 128-byte
/// array per branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathHistory {
    /// 3-bit entries; the newest is at `entries[head]`, older entries
    /// follow at increasing (wrapping) indices.
    entries: [u8; MAX_PHIST],
    head: usize,
}

impl PathHistory {
    /// An empty path history.
    pub fn new() -> PathHistory {
        PathHistory {
            entries: [0; MAX_PHIST],
            head: 0,
        }
    }

    /// Record a branch address (any branch encountered).
    #[inline]
    pub fn push(&mut self, pc: u64) {
        self.head = (self.head + MAX_PHIST - 1) & (MAX_PHIST - 1);
        self.entries[self.head] = ((pc >> 2) & 0x7) as u8;
    }

    /// Entry `k` (0 = the most recent branch).
    #[inline]
    fn entry(&self, k: usize) -> u8 {
        self.entries[(self.head + k) & (MAX_PHIST - 1)]
    }
}

impl Default for PathHistory {
    fn default() -> Self {
        Self::new()
    }
}

/// One SHP table's fold geometry: its interval lengths and where the
/// bit or entry leaving each interval sits in the folded register.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TableFold {
    /// GHIST interval in bits (0: the table sees no GHIST).
    glen: u16,
    /// PHIST interval in entries (0: the table sees no PHIST).
    plen: u16,
    /// Folded position of GHIST bit `glen - 1`: `(glen - 1) % width`.
    gout: u8,
    /// Folded position of PHIST entry `plen - 1`:
    /// `3 * ((plen - 1) % (width / 3))`.
    pout: u8,
}

/// The raw GHIST/PHIST registers plus, per SHP table, the table's
/// GHIST and PHIST intervals folded to the row-index width.
///
/// * Folded GHIST: interval bit `i` (0 = newest) is XORed into bit
///   `i % width`. A push XORs out the bit leaving the interval, rotates
///   the register left by one within `width` bits and XORs in the new
///   outcome.
/// * Folded PHIST: interval entry `k` is XORed into bits `3 * (k %
///   slots)`, `slots = ⌊width / 3⌋`. A push XORs out the entry leaving
///   the interval, rotates by 3 within the `3 · slots`-bit field and XORs
///   in the new entry.
///
/// Both registers equal the chunked folds of the raw registers after
/// every push, so [`crate::shp::Shp::predict`] reads them directly.
/// Snapshots store only the raw registers; the folds are rebuilt on
/// restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedHistory {
    ghist: GlobalHistory,
    phist: PathHistory,
    gfold: [u32; MAX_TABLES],
    pfold: [u32; MAX_TABLES],
    geom: [TableFold; MAX_TABLES],
    tables: u8,
    /// Fold width: the SHP's row-index bits.
    width: u8,
}

impl FoldedHistory {
    /// An all-zero history shaped for an SHP built from `cfg`, which
    /// [`crate::shp::Shp::new`] has already validated (callers go through
    /// [`crate::shp::Shp::new_history`]).
    pub(crate) fn new(cfg: &ShpConfig) -> FoldedHistory {
        let width = cfg.index_bits();
        let slots = (width / 3) as usize;
        let mut geom = [TableFold::default(); MAX_TABLES];
        for ((g, &glen), &plen) in geom
            .iter_mut()
            .zip(&cfg.intervals())
            .zip(&cfg.path_intervals())
        {
            let glen = glen.min(MAX_GHIST);
            let plen = plen.min(MAX_PHIST);
            *g = TableFold {
                glen: glen as u16,
                plen: plen as u16,
                gout: (glen.saturating_sub(1) % width as usize) as u8,
                pout: (3 * (plen.saturating_sub(1) % slots)) as u8,
            };
        }
        FoldedHistory {
            ghist: GlobalHistory::new(),
            phist: PathHistory::new(),
            gfold: [0; MAX_TABLES],
            pfold: [0; MAX_TABLES],
            geom,
            tables: cfg.tables as u8,
            width: width as u8,
        }
    }

    /// Table `t`'s folded GHIST and folded PHIST registers.
    #[inline]
    pub fn folds(&self, t: usize) -> (u32, u32) {
        (self.gfold[t], self.pfold[t])
    }

    /// Record a conditional-branch outcome.
    #[inline]
    pub fn push_outcome(&mut self, taken: bool) {
        let w = self.width as u32;
        let mask = ((1u64 << w) - 1) as u32;
        for (f, g) in self
            .gfold
            .iter_mut()
            .zip(&self.geom)
            .take(self.tables as usize)
        {
            if g.glen == 0 {
                continue;
            }
            let out = self.ghist.bit(g.glen as usize - 1) as u32;
            let x = *f ^ (out << g.gout);
            *f = (((x << 1) | (x >> (w - 1))) & mask) ^ taken as u32;
        }
        self.ghist.push(taken);
    }

    /// Record a branch address (any branch encountered).
    #[inline]
    pub fn push_path(&mut self, pc: u64) {
        let e = ((pc >> 2) & 0x7) as u32;
        let pw = 3 * (self.width as u32 / 3);
        let mask = ((1u64 << pw) - 1) as u32;
        for (f, g) in self
            .pfold
            .iter_mut()
            .zip(&self.geom)
            .take(self.tables as usize)
        {
            if g.plen == 0 {
                continue;
            }
            let out = self.phist.entry(g.plen as usize - 1) as u32;
            let x = *f ^ (out << g.pout);
            *f = (((x << 3) | (x >> (pw - 3))) & mask) ^ e;
        }
        self.phist.push(pc);
    }

    /// Recompute every folded register from the raw registers by
    /// replaying them, oldest first, through the push rule (used after a
    /// snapshot restore).
    fn rebuild_folds(&mut self) {
        let mut fresh = FoldedHistory {
            ghist: GlobalHistory::new(),
            phist: PathHistory::new(),
            gfold: [0; MAX_TABLES],
            pfold: [0; MAX_TABLES],
            ..self.clone()
        };
        for i in (0..MAX_GHIST).rev() {
            fresh.push_outcome(self.ghist.bit(i));
        }
        for k in (0..MAX_PHIST).rev() {
            fresh.push_path(u64::from(self.phist.entry(k)) << 2);
        }
        self.gfold = fresh.gfold;
        self.pfold = fresh.pfold;
    }
}

/// The chunked folds the folded registers replace: the oracle the
/// folded-history tests check [`FoldedHistory`] against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    impl GlobalHistory {
        /// Bits `[pos, pos + n)` of history as a little-endian value (bit
        /// `pos` in bit 0), extracted by whole-word shifts. `n <= 32`.
        #[inline]
        fn bits(&self, pos: usize, n: usize) -> u64 {
            debug_assert!((1..=32).contains(&n) && pos + n <= MAX_GHIST);
            let w = pos / 64;
            let off = pos % 64;
            let mut v = self.words[w] >> off;
            if off > 0 && w + 1 < self.words.len() {
                v |= self.words[w + 1] << (64 - off);
            }
            v & ((1u64 << n) - 1)
        }

        /// Fold the most recent `len` bits into `out_bits` bits by XOR-ing
        /// successive chunks (the classic folded-history index hash).
        ///
        /// # Panics
        /// Panics if `out_bits` is 0 or greater than 32.
        #[inline]
        pub(crate) fn fold(&self, len: usize, out_bits: u32) -> u32 {
            assert!((1..=32).contains(&out_bits), "fold width out of range");
            let len = len.min(MAX_GHIST);
            if len == 0 {
                return 0;
            }
            let mask = (1u64 << out_bits) - 1;
            let mut acc = 0u64;
            let mut consumed = 0usize;
            // Each chunk is extracted with word shifts rather than bit-by-bit
            // — same chunks, same XOR, so the hash is unchanged.
            while consumed < len {
                let chunk_len = (len - consumed).min(out_bits as usize);
                acc ^= self.bits(consumed, chunk_len);
                consumed += chunk_len;
            }
            (acc & mask) as u32
        }
    }

    impl PathHistory {
        /// Fold the most recent `len` entries (3 bits each) into `out_bits`
        /// bits.
        ///
        /// # Panics
        /// Panics if `out_bits` is 0 or greater than 32.
        #[inline]
        pub(crate) fn fold(&self, len: usize, out_bits: u32) -> u32 {
            assert!((1..=32).contains(&out_bits), "fold width out of range");
            let len = len.min(MAX_PHIST);
            let mask = (1u64 << out_bits) - 1;
            let mut acc = 0u64;
            let mut bitpos = 0u32;
            // Walk newest → older through the ring, identical entry order to
            // the pre-ring shift-register layout.
            for k in 0..len {
                acc ^= (self.entry(k) as u64) << bitpos;
                bitpos += 3;
                if bitpos + 3 > out_bits {
                    // Wrap the rolling insertion point.
                    acc = ((acc >> out_bits) ^ acc) & mask;
                    bitpos = 0;
                }
            }
            ((acc ^ (acc >> out_bits)) & mask) as u32
        }
    }

    /// Every SHP geometry the simulator builds: the M1, M3 and M5
    /// presets, the 256-row M1 of the always-taken-filter ablation, and
    /// the M1 variants of Fig. 1's GHIST-length sweep.
    pub(crate) fn shp_geometries() -> Vec<ShpConfig> {
        let mut cfgs = vec![
            ShpConfig::m1(),
            ShpConfig::m3(),
            ShpConfig::m5(),
            ShpConfig {
                rows: 256,
                ..ShpConfig::m1()
            },
        ];
        for len in [0usize, 8, 16, 32, 48, 64, 96, 128, 165, 206] {
            cfgs.push(ShpConfig {
                ghist_len: len.max(1),
                ..ShpConfig::m1()
            });
        }
        cfgs
    }

    /// Every folded register of `h` equals the chunked fold of the raw
    /// registers over its table's `(interval, plen, idx_bits)`.
    pub(crate) fn folds_match(h: &FoldedHistory, cfg: &ShpConfig) -> Result<(), String> {
        let w = cfg.index_bits();
        for (t, (glen, plen)) in cfg
            .intervals()
            .into_iter()
            .zip(cfg.path_intervals())
            .enumerate()
        {
            let want = (h.ghist.fold(glen, w), h.phist.fold(plen, w));
            if h.folds(t) != want {
                return Err(format!(
                    "table {t} (interval {glen}, plen {plen}, width {w}): folded {:?}, oracle {want:?}",
                    h.folds(t)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{folds_match, shp_geometries};
    use super::*;
    use crate::shp::Shp;
    use exynos_snapshot::{tags, Decoder, Encoder, Snapshot, SnapshotError};
    use proptest::prelude::*;

    #[test]
    fn ghist_push_and_bit() {
        let mut g = GlobalHistory::new();
        g.push(true);
        g.push(false);
        g.push(true);
        // Newest first: T, NT, T.
        assert!(g.bit(0));
        assert!(!g.bit(1));
        assert!(g.bit(2));
        assert!(!g.bit(3));
    }

    #[test]
    fn ghist_shift_crosses_word_boundary() {
        let mut g = GlobalHistory::new();
        g.push(true);
        for _ in 0..70 {
            g.push(false);
        }
        assert!(g.bit(70));
        assert!(!g.bit(69));
        assert!(!g.bit(71));
    }

    #[test]
    fn fold_depends_only_on_interval() {
        let mut a = GlobalHistory::new();
        let mut b = GlobalHistory::new();
        // Same last 10 outcomes, different older outcomes.
        b.push(true);
        b.push(true);
        for i in 0..10 {
            let t = i % 3 == 0;
            a.push(t);
            b.push(t);
        }
        assert_eq!(a.fold(10, 8), b.fold(10, 8));
        assert_ne!(a.fold(16, 8), b.fold(16, 8));
    }

    #[test]
    fn fold_zero_len_is_zero() {
        let mut g = GlobalHistory::new();
        g.push(true);
        assert_eq!(g.fold(0, 10), 0);
    }

    #[test]
    fn fold_distinguishes_patterns() {
        let mut a = GlobalHistory::new();
        let mut b = GlobalHistory::new();
        for i in 0..64 {
            a.push(i % 2 == 0);
            b.push(i % 3 == 0);
        }
        assert_ne!(a.fold(64, 12), b.fold(64, 12));
    }

    #[test]
    fn phist_records_addr_bits_2_to_4() {
        let mut p = PathHistory::new();
        p.push(0b10100); // bits 2..=4 = 0b101
        let mut q = PathHistory::new();
        q.push(0b00100); // bits 2..=4 = 0b001
        assert_ne!(p.fold(1, 6), q.fold(1, 6));
        let mut r = PathHistory::new();
        r.push(0b10100 | (0b11 << 40)); // high bits ignored
        assert_eq!(p.fold(1, 6), r.fold(1, 6));
    }

    #[test]
    fn phist_fold_interval_sensitivity() {
        let mut a = PathHistory::new();
        let mut b = PathHistory::new();
        b.push(0x7C); // older entry differs
        for pc in [0x10u64, 0x24, 0x38, 0x4C] {
            a.push(pc);
            b.push(pc);
        }
        assert_eq!(a.fold(4, 9), b.fold(4, 9));
        assert_ne!(a.fold(5, 9), b.fold(5, 9));
    }

    /// A path-history image holding an entry wider than 3 bits is
    /// refused: the folded registers could not be rebuilt to match it.
    #[test]
    fn restore_rejects_path_entry_wider_than_three_bits() {
        let image = |entries: &[u8; MAX_PHIST]| {
            let mut enc = Encoder::new();
            GlobalHistory::new().save(&mut enc);
            enc.begin_section(tags::PATH_HISTORY);
            enc.bytes(entries);
            enc.usize(0);
            enc.end_section();
            enc.finish()
        };
        let mut entries = [0u8; MAX_PHIST];
        entries[5] = 8;
        let mut h = Shp::new(ShpConfig::m1()).new_history();
        let r = h.restore(&mut Decoder::new(&image(&entries)));
        assert!(matches!(r, Err(SnapshotError::Corrupt { .. })), "{r:?}");
        // The same image with the entry in range restores exactly.
        entries[5] = 7;
        assert!(h.restore(&mut Decoder::new(&image(&entries))).is_ok());
        assert_eq!(folds_match(&h, &ShpConfig::m1()), Ok(()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Global-history folding is a pure function of the covered interval.
        #[test]
        fn ghist_fold_pure(bits in prop::collection::vec(any::<bool>(), 64), len in 1usize..64, out in 1u32..20) {
            let mut a = GlobalHistory::new();
            let mut b = GlobalHistory::new();
            // b gets extra old history first.
            b.push(true);
            b.push(false);
            b.push(true);
            for &x in &bits {
                a.push(x);
                b.push(x);
            }
            let la = a.fold(len.min(bits.len()), out);
            let lb = b.fold(len.min(bits.len()), out);
            prop_assert_eq!(la, lb, "fold must depend only on the newest `len` bits");
            prop_assert!(la < (1 << out));
        }

        /// The O(1) folded registers equal the chunked folds after every
        /// push, for every geometry the simulator builds, over sequences
        /// longer than both raw registers (so entries leave the longest
        /// intervals too).
        #[test]
        fn folded_registers_match_chunked_folds(
            ops in prop::collection::vec((any::<bool>(), any::<bool>(), 0u64..1 << 20), 300),
        ) {
            for cfg in shp_geometries() {
                let mut h = Shp::new(cfg.clone()).new_history();
                for (i, &(conditional, taken, pc)) in ops.iter().enumerate() {
                    if conditional {
                        h.push_outcome(taken);
                    }
                    h.push_path(pc);
                    if i % 5 == 0 || i + 1 == ops.len() {
                        prop_assert_eq!(folds_match(&h, &cfg), Ok(()));
                    }
                }
            }
        }
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{tags, Decoder, Encoder, Snapshot, SnapshotError};

    impl Snapshot for GlobalHistory {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::GLOBAL_HISTORY);
            for w in self.words {
                enc.u64(w);
            }
            enc.end_section();
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::GLOBAL_HISTORY)?;
            for w in &mut self.words {
                *w = dec.u64()?;
            }
            dec.end_section()
        }
    }

    impl Snapshot for PathHistory {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::PATH_HISTORY);
            enc.bytes(&self.entries);
            enc.usize(self.head);
            enc.end_section();
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::PATH_HISTORY)?;
            for e in &mut self.entries {
                let v = dec.u8()?;
                // push() keeps 3 bits; a wider entry would desynchronise
                // the folded registers rebuilt from this image.
                if v > 0x7 {
                    return Err(SnapshotError::Corrupt { what: "path-history entry wider than 3 bits" });
                }
                *e = v;
            }
            let head = dec.usize()?;
            if head >= MAX_PHIST {
                return Err(SnapshotError::Corrupt { what: "path-history head out of range" });
            }
            self.head = head;
            dec.end_section()
        }
    }

    /// Only the raw registers are stored — the same two sections a
    /// front end has always written — and the folds are rebuilt from
    /// them on restore.
    impl Snapshot for FoldedHistory {
        fn save(&self, enc: &mut Encoder) {
            self.ghist.save(enc);
            self.phist.save(enc);
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            let r = self
                .ghist
                .restore(dec)
                .and_then(|()| self.phist.restore(dec));
            self.rebuild_folds();
            r
        }
    }
}
