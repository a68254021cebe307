//! Batched lockstep sweep engine.
//!
//! A population sweep runs every generation (M1..M6) over the *same*
//! workload slice, and trace generators are pure functions of
//! `(SliceSpec, seed)` — so all members of one (slice) group consume an
//! identical instruction stream. A [`PopulationBatch`] draws each block
//! of decoded records **once** from a [`CachedStream`] and steps every
//! member over it, amortizing generation/decode across the group.
//!
//! Correctness is anchored on a simple identity: simulators share no
//! mutable state, and feeding each member the exact record sequence it
//! would have generated itself — in block-major, member-minor order —
//! performs the very same `Simulator::step` calls the scalar
//! `Simulator::run_slice` does, in the same per-member order. Results are
//! therefore **bit-identical** to the scalar path for any member count,
//! block size and cache budget; the `batch_determinism` integration test
//! asserts it against a scalar oracle.
//!
//! "Uncached" is not a separate path: a
//! [`ChunkCache::with_budget`](exynos_core::batch::ChunkCache::with_budget)
//! of `Some(0)` stores nothing, so every block is materialized once and
//! dropped after the members have stepped it.

use exynos_core::batch::{CachedStream, CHUNK_LEN};
use exynos_core::sim::{Simulator, SliceMeasure, SliceResult};
use exynos_core::SimError;
use exynos_trace::{Inst, SlicePlan};

/// A same-trace group of simulators advanced in lockstep over one shared
/// decoded record stream.
#[derive(Debug, Default)]
pub struct PopulationBatch {
    members: Vec<Simulator>,
}

impl PopulationBatch {
    /// An empty batch; add members with [`PopulationBatch::push`].
    pub fn new() -> PopulationBatch {
        PopulationBatch { members: Vec::new() }
    }

    /// Add a member. Members must all be fed the same trace — the caller
    /// guarantees they belong to the same (slice, seed) group and have
    /// consumed the same number of its records.
    pub fn push(&mut self, sim: Simulator) {
        self.members.push(sim);
    }

    /// Number of members (the batch width).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the batch has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Borrow the members, in insertion order.
    pub fn members(&self) -> &[Simulator] {
        &self.members
    }

    /// Lockstep equivalent of every member running
    /// `Simulator::run_slice(own_gen, plan)` from the stream's cursor:
    /// `plan.warmup + plan.detail` records are drawn from `stream`, each
    /// block exactly once, and every member steps each block in turn.
    /// The block that straddles the warmup/detail boundary is split there
    /// so each member's measurement baseline lands on the same
    /// instruction as in the scalar path. Returns one [`SliceResult`] per
    /// member, in member order.
    pub fn run_slice(
        &mut self,
        stream: &mut CachedStream,
        plan: SlicePlan,
    ) -> Result<Vec<SliceResult>, SimError> {
        let total = plan.warmup + plan.detail;
        let mut measures = (plan.warmup == 0).then(|| self.measure_begin());
        let mut done = 0u64;
        while done < total {
            let take = (total - done).min(CHUNK_LEN as u64) as usize;
            let (chunk, range) = stream.next_block(take).map_err(SimError::from)?;
            let mut block = &chunk[range];
            if measures.is_none() && done + block.len() as u64 >= plan.warmup {
                let (head, tail) = block.split_at((plan.warmup - done) as usize);
                self.step_all(head)?;
                done += head.len() as u64;
                measures = Some(self.measure_begin());
                block = tail;
            }
            self.step_all(block)?;
            done += block.len() as u64;
        }
        // `warmup <= total`, so the loop always crossed the boundary.
        let measures = measures.unwrap_or_else(|| self.measure_begin());
        Ok(self
            .members
            .iter()
            .zip(&measures)
            .map(|(s, m)| s.measure_end(m))
            .collect())
    }

    fn step_all(&mut self, block: &[Inst]) -> Result<(), SimError> {
        for sim in &mut self.members {
            sim.run_block(block)?;
        }
        Ok(())
    }

    fn measure_begin(&self) -> Vec<SliceMeasure> {
        self.members.iter().map(Simulator::measure_begin).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::must;
    use exynos_core::batch::ChunkCache;
    use exynos_core::builder::SimBuilder;
    use exynos_core::config::CoreConfig;
    use exynos_trace::standard_suite;
    use std::sync::Arc;

    fn all_generations() -> PopulationBatch {
        let mut batch = PopulationBatch::new();
        for cfg in CoreConfig::all_generations() {
            batch.push(must(SimBuilder::config(cfg).build()));
        }
        batch
    }

    #[test]
    fn run_slice_matches_scalar_for_every_budget() {
        let suite = standard_suite(1);
        let slice = &suite[1];
        let plan = SlicePlan::new(700, 900);
        let want: Vec<String> = CoreConfig::all_generations()
            .into_iter()
            .map(|cfg| {
                let mut sim = must(SimBuilder::config(cfg).build());
                let mut gen = slice.build().unwrap();
                format!("{:?}", must(sim.run_slice(&mut *gen, plan)))
            })
            .collect();
        for budget in [None, Some(0), Some(64 * 1024)] {
            let cache = Arc::new(ChunkCache::with_budget(budget));
            let mut stream = CachedStream::for_slice(cache, slice);
            let got: Vec<String> = must(all_generations().run_slice(&mut stream, plan))
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            assert_eq!(want, got, "budget {budget:?}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut batch = PopulationBatch::new();
        assert!(batch.is_empty());
        let suite = standard_suite(1);
        let cache = Arc::new(ChunkCache::with_budget(Some(0)));
        let mut stream = CachedStream::for_slice(cache, &suite[0]);
        let out = must(batch.run_slice(&mut stream, SlicePlan::new(100, 100)));
        assert!(out.is_empty());
        assert_eq!(stream.position(), 200);
    }
}
