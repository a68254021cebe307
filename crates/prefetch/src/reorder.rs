//! The address re-order buffer and duplicate filter feeding the L1
//! prefetcher's training unit (§VII.A, patents \[27\]\[28\]).
//!
//! "To avoid noisy behavior and improve pattern detection, out-of-order
//! addresses generated from multiple load pipes are reordered back into
//! program order using a ROB-like structure. To reduce the size of this
//! re-order buffer, an address filter is used to deallocate duplicate
//! entries to the same cache line."

use std::collections::VecDeque;

/// Statistics for the address re-order buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Entries dropped by the duplicate filter.
    pub filtered: u64,
    /// Entries dropped because the buffer was full (oldest released
    /// early).
    pub overflows: u64,
}

/// Re-orders (sequence-numbered) load addresses back into program order
/// and filters duplicate cache lines.
#[derive(Debug, Clone)]
pub struct AddressReorderBuffer {
    /// Pending out-of-order arrivals: (seq, line).
    pending: Vec<(u64, u64)>,
    /// Next sequence number to release.
    next_seq: u64,
    /// Recently released lines (duplicate filter).
    recent_lines: VecDeque<u64>,
    filter_depth: usize,
    capacity: usize,
    /// Entries dropped by the duplicate filter.
    filtered: u64,
    /// Entries dropped because the buffer was full (oldest released early).
    overflows: u64,
}

impl AddressReorderBuffer {
    /// A buffer of `capacity` entries with a `filter_depth`-line duplicate
    /// filter.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, filter_depth: usize) -> AddressReorderBuffer {
        assert!(capacity > 0);
        AddressReorderBuffer {
            pending: Vec::new(),
            next_seq: 0,
            recent_lines: VecDeque::with_capacity(filter_depth),
            filter_depth,
            capacity,
            filtered: 0,
            overflows: 0,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ReorderStats {
        ReorderStats {
            filtered: self.filtered,
            overflows: self.overflows,
        }
    }

    /// Insert a load's cache-line address with its program-order sequence
    /// number, writing the lines now releasable *in program order* into
    /// `out` (cleared first).
    pub fn insert_into(&mut self, seq: u64, line: u64, out: &mut Vec<u64>) {
        out.clear();
        // Duplicate filter: deallocate entries to a recently seen line.
        if self.recent_lines.contains(&line) || self.pending.iter().any(|&(_, l)| l == line) {
            self.filtered += 1;
            // Skip the sequence slot so in-order release continues.
            if seq == self.next_seq {
                self.next_seq += 1;
                self.drain_ready_into(out);
            } else {
                self.pending.push((seq, u64::MAX)); // tombstone
            }
            return;
        }
        self.pending.push((seq, line));
        if self.pending.len() > self.capacity {
            // Pressure: release the oldest pending entry early.
            self.overflows += 1;
            self.pending.sort_unstable_by_key(|&(s, _)| s);
            let (s, l) = self.pending.remove(0);
            self.next_seq = self.next_seq.max(s + 1);
            if l != u64::MAX {
                self.remember(l);
                out.push(l);
            }
        }
        self.drain_ready_into(out);
    }

    fn remember(&mut self, line: u64) {
        if self.filter_depth == 0 {
            return;
        }
        if self.recent_lines.len() == self.filter_depth {
            self.recent_lines.pop_front();
        }
        self.recent_lines.push_back(line);
    }

    /// Append the pending lines that are next in sequence to `out`.
    fn drain_ready_into(&mut self, out: &mut Vec<u64>) {
        while let Some(i) = self.pending.iter().position(|&(s, _)| s == self.next_seq) {
            let (_, line) = self.pending.swap_remove(i);
            self.next_seq += 1;
            if line != u64::MAX {
                self.remember(line);
                out.push(line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Insert, returning the released lines.
    fn insert(b: &mut AddressReorderBuffer, seq: u64, line: u64) -> Vec<u64> {
        let mut out = Vec::new();
        b.insert_into(seq, line, &mut out);
        out
    }

    #[test]
    fn releases_in_program_order() {
        let mut b = AddressReorderBuffer::new(8, 4);
        assert!(insert(&mut b, 2, 0x30).is_empty());
        assert!(insert(&mut b, 1, 0x20).is_empty());
        let out = insert(&mut b, 0, 0x10);
        assert_eq!(out, vec![0x10, 0x20, 0x30]);
    }

    #[test]
    fn duplicates_filtered() {
        let mut b = AddressReorderBuffer::new(8, 4);
        let out = insert(&mut b, 0, 0x10);
        assert_eq!(out, vec![0x10]);
        let out = insert(&mut b, 1, 0x10); // duplicate line
        assert!(out.is_empty());
        assert_eq!(b.stats().filtered, 1);
        // Sequence continues past the filtered slot.
        let out = insert(&mut b, 2, 0x20);
        assert_eq!(out, vec![0x20]);
    }

    #[test]
    fn duplicate_mid_window_does_not_stall_release() {
        let mut b = AddressReorderBuffer::new(8, 4);
        insert(&mut b, 0, 0x10);
        assert!(insert(&mut b, 2, 0x30).is_empty());
        // seq 1 is a duplicate of 0x10: tombstoned; 0x30 must release once
        // seq 1 resolves.
        let out = insert(&mut b, 1, 0x10);
        assert_eq!(out, vec![0x30]);
    }

    #[test]
    fn overflow_releases_oldest_early() {
        let mut b = AddressReorderBuffer::new(2, 0);
        assert!(insert(&mut b, 5, 0x50).is_empty());
        assert!(insert(&mut b, 3, 0x30).is_empty());
        // Third insert overflows: the oldest (seq 3) releases early.
        let out = insert(&mut b, 7, 0x70);
        assert!(out.contains(&0x30));
        assert_eq!(b.stats().overflows, 1);
    }
}

impl AddressReorderBuffer {
    /// Drop all in-flight addresses and the duplicate filter, keeping
    /// cumulative statistics.
    pub fn clear(&mut self) {
        self.pending.clear();
        self.recent_lines.clear();
        self.next_seq = 0;
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{tags, Decoder, Encoder, Snapshot, SnapshotError};

    impl Snapshot for AddressReorderBuffer {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::REORDER);
            enc.seq(self.pending.len());
            for (seq, line) in &self.pending {
                enc.u64(*seq);
                enc.u64(*line);
            }
            enc.u64(self.next_seq);
            enc.seq(self.recent_lines.len());
            for l in &self.recent_lines {
                enc.u64(*l);
            }
            enc.u64(self.filtered);
            enc.u64(self.overflows);
            enc.end_section();
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::REORDER)?;
            let n = dec.seq(16)?;
            if n > self.capacity + 1 {
                return Err(SnapshotError::Geometry {
                    what: "reorder pending entries",
                    expected: self.capacity as u64,
                    found: n as u64,
                });
            }
            self.pending.clear();
            for _ in 0..n {
                self.pending.push((dec.u64()?, dec.u64()?));
            }
            self.next_seq = dec.u64()?;
            let r = dec.seq(8)?;
            if r > self.filter_depth {
                return Err(SnapshotError::Geometry {
                    what: "reorder duplicate filter",
                    expected: self.filter_depth as u64,
                    found: r as u64,
                });
            }
            self.recent_lines.clear();
            for _ in 0..r {
                self.recent_lines.push_back(dec.u64()?);
            }
            self.filtered = dec.u64()?;
            self.overflows = dec.u64()?;
            dec.end_section()
        }
    }
}
