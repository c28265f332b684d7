//! Batched evaluation of a floorplan's distinct unit cells, with
//! cross-call caching on the factored path: a per-plan memo in front of
//! a matrix (factorization) tier.
//!
//! # The per-plan memo
//!
//! [`ChipEngine::evaluate_factored`] keeps, per plan, the last
//! evaluation's per-tile cell bits and `ΔT` plus the plan's distinct
//! cells with their tile counts. The memo key is the model's cache tag
//! and the plan's *lineage*: a private id that [`Floorplan::new`] draws
//! from a process-wide counter and that clones and
//! [`Floorplan::update_power_map`] keep. A re-evaluation scans every
//! tile's cell bits against the memo (word compares, no hashing or
//! allocation); the changed tiles' new cells are looked up in the memo's
//! own distinct cells, and only the cells it does not hold are solved,
//! through the matrix tier. A warm two-tile update therefore costs two
//! lookups and at most two back-substitutions, not a pass over every
//! tile's keys.
//!
//! Correctness rests on the scan, not on the key: the scan compares
//! every tile's via density and powers, and a lineage's geometry and
//! grid never change. Plans that share a lineage — a clone and its
//! original — share one memo slot, and the scan finds the tiles where
//! they differ. A memo is taken out of the engine for the evaluation and
//! stored back only when it succeeded, so a failed call leaves no
//! half-updated memo behind. The memos hold at most
//! [`ChipEngine::with_scenario_cache_cap`] tiles in total, cleared
//! generationally; a plan larger than the cap is not memoized.
//!
//! The lineage key is a trade-off. Two independently built plans with
//! the same geometry and via map — two sessions, say — keep separate
//! memos instead of thrashing one slot, and the key costs no hashing of
//! the via map. In exchange, a plan built again from scratch with
//! identical content, or reverted to an earlier power map, pays its
//! back-substitutions again (it still shares the factorizations).
//!
//! [`ChipEngine::evaluate`] — the generic path for models that are not
//! power-separable — is stateless: it dedups identical tiles within the
//! call, solves every distinct cell and keeps nothing, which makes it the
//! in-engine oracle the property suites compare the memoized path
//! against.
//!
//! # The matrix tier
//!
//! Keyed on the model's cache tag, the *geometry* bits and a tile's via
//! density (powers excluded), and shared by every plan on the engine.
//! For a [`PowerSeparableModel`] such as
//! [`ModelB`](ttsv_core::model_b::ModelB), tiles that differ only in
//! power share one matrix factorization, and each distinct power vector
//! costs a single `O(n)` back-substitution instead of an assembly +
//! factorization. An all-distinct power map collapses onto one
//! factorization per distinct via density.
//!
//! The memo and the tier are transparent: for deterministic models every
//! cached value is bit-identical to a fresh per-tile solve (the property
//! suites compare the engine bitwise against that oracle, also over
//! random update sequences), so caching changes cost, never results. The
//! [`ChipEngine::solves`] / [`ChipEngine::factorizations`] counters make
//! the cost observable — the serving tests assert that a power delta
//! re-solves exactly the changed tiles.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ttsv_core::scenario::{PowerSeparableModel, Scenario, ThermalModel};
use ttsv_core::CoreError;
use ttsv_units::Power;
use ttsv_validate::sweep::{default_workers, run_batch_with_workers};

use crate::floorplan::{CellKey, Floorplan};
use crate::report::ChipReport;

/// A matrix-tier key: the model's cache tag (interned per call) plus the
/// exact bit pattern of everything that determines the factorization.
/// Hashing covers only the bit payload — the tag still takes part in
/// equality (hash collisions across models just share a bucket), so the
/// per-tile hot path never re-hashes the tag string.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EngineKey {
    tag: Arc<str>,
    bits: Vec<u64>,
}

impl std::hash::Hash for EngineKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &b in &self.bits {
            state.write_u64(b);
        }
    }
}

/// A Fowler–Noll–Vo-style word hasher for the engine's key maps: the
/// keys are short arrays of already-well-mixed `f64` bit patterns, so a
/// multiply-xor word hash beats the DoS-resistant SipHash default by a
/// wide margin on the per-tile hot path (keys are exact — the hash only
/// picks buckets, equality still compares every bit).
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.0 = (self.0 ^ word).wrapping_mul(0x100_0000_01b3);
        }
        for &b in chunks.remainder() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x100_0000_01b3);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write_u8(&mut self, b: u8) {
        self.write_u64(u64::from(b));
    }

    fn finish(&self) -> u64 {
        // Final avalanche so sequential bit patterns spread across
        // buckets.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// The engine's persistent caches (behind one mutex — all bookkeeping
/// happens on the coordinating thread, workers only solve).
#[derive(Default)]
struct EngineCaches {
    /// Plan memos: model tag + plan lineage → the last evaluation of a
    /// plan of that lineage.
    memos: KeyMap<(Arc<str>, u64), PlanMemo>,
    /// Tiles held by `memos`, summed — the quantity the memo bound caps.
    memo_tiles: usize,
    /// Matrix tier: geometry bits → type-erased model factorization.
    matrix: KeyMap<EngineKey, Arc<dyn Any + Send + Sync>>,
}

/// One plan's last factored evaluation: every tile's cell bits and `ΔT`,
/// plus the plan's distinct cells with their tile counts, so the next
/// evaluation of a plan of the same lineage touches only the tiles whose
/// bits differ.
struct PlanMemo {
    /// Row-major cell bits, [`Floorplan::cell_width`] words per tile
    /// (empty until the first evaluation fills it).
    cell_bits: Vec<u64>,
    /// Row-major per-tile `ΔT` in kelvin.
    delta_t: Vec<f64>,
    /// The plan's via count (fixed for a lineage).
    total_vias: f64,
    /// Distinct cell bits → (tiles holding them, `ΔT` in kelvin).
    cells: KeyMap<CellKey, (usize, f64)>,
}

/// Evaluates a [`Floorplan`] through any [`ThermalModel`]: deduplicates
/// identical tiles, batch-solves the distinct unit cells on the bounded
/// self-scheduling worker pool, and scatters the results back into a
/// full-chip [`ChipReport`]. [`ChipEngine::evaluate_factored`] adds the
/// per-plan memo and the matrix tier for power-separable models — see
/// the module docs.
///
/// The worker count and the cache caps change cost only: for
/// deterministic models the report is bit-identical to solving every tile
/// on its own, for every setting (the property suite enforces it).
///
/// Cloning an engine starts with cold caches and zeroed counters.
#[derive(Debug)]
pub struct ChipEngine {
    workers: Option<usize>,
    memo_tile_cap: usize,
    matrix_cache_cap: usize,
    caches: Mutex<EngineCaches>,
    solves: AtomicUsize,
    factorizations: AtomicUsize,
    memo_hits: AtomicUsize,
    evictions: AtomicUsize,
}

/// Default bound on memoized tiles, summed over plans. At three planes a
/// memoized tile takes 40 B, plus 100–140 B for its entry in the plan's
/// distinct cells when every tile is distinct, so the default bounds the
/// memos at roughly 150–190 MB in that worst case — see
/// [`ChipEngine::with_scenario_cache_cap`].
const DEFAULT_MEMO_TILE_CAP: usize = 1 << 20;

/// Default bound on matrix-tier entries. Factorizations are orders of
/// magnitude heavier than memoized tiles, and the tier is keyed on
/// geometry only, so thousands of distinct geometries already indicates a
/// pathological workload — see [`ChipEngine::with_matrix_cache_cap`].
const DEFAULT_MATRIX_CACHE_CAP: usize = 1 << 12;

impl std::fmt::Debug for EngineCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCaches")
            .field("memos", &self.memos.len())
            .field("memo_tiles", &self.memo_tiles)
            .field("matrix_entries", &self.matrix.len())
            .finish()
    }
}

impl Clone for ChipEngine {
    fn clone(&self) -> Self {
        Self {
            workers: self.workers,
            memo_tile_cap: self.memo_tile_cap,
            matrix_cache_cap: self.matrix_cache_cap,
            ..Self::new()
        }
    }
}

impl Default for ChipEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ChipEngine {
    /// An engine with cold caches and the default worker pool
    /// (`available_parallelism()`).
    #[must_use]
    pub fn new() -> Self {
        Self {
            workers: None,
            memo_tile_cap: DEFAULT_MEMO_TILE_CAP,
            matrix_cache_cap: DEFAULT_MATRIX_CACHE_CAP,
            caches: Mutex::new(EngineCaches::default()),
            solves: AtomicUsize::new(0),
            factorizations: AtomicUsize::new(0),
            memo_hits: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// Pins the worker-pool size (the determinism tests run 1 vs N).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one chip-engine worker");
        self.workers = Some(workers);
        self
    }

    /// Bounds the plan memos of [`ChipEngine::evaluate_factored`], in
    /// memoized tiles summed over plans (default: 2²⁰). The name dates
    /// from a since-removed scenario cache; the cap now bounds memo tiles
    /// only. A serving loop that keeps registering new plans would
    /// otherwise accumulate one memo per plan; when storing a memo would
    /// push the total past the cap, every memo is dropped first
    /// (generational eviction — the live plans repopulate it, and
    /// eviction only costs re-solves, never correctness), and a plan
    /// larger than the cap is not memoized at all. Dropped tiles count
    /// into [`ChipEngine::evictions`].
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_scenario_cache_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "the memo tile cap must be positive");
        self.memo_tile_cap = cap;
        self
    }

    /// Bounds the matrix (factorization) tier the same generational way
    /// (default: 2¹² entries). Factorizations dominate the engine's
    /// resident memory, so a serving layer bounds this tier to its
    /// session quota budget. Evicted factorizations count into
    /// [`ChipEngine::evictions`].
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_matrix_cache_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "the matrix cache cap must be positive");
        self.matrix_cache_cap = cap;
        self
    }

    /// Stores a plan memo under `key`, keeping the memos within
    /// [`ChipEngine::with_scenario_cache_cap`] tiles: a plan larger than
    /// the cap is not memoized, and one that no longer fits beside the
    /// existing memos clears them first (the cleared tiles count into
    /// [`ChipEngine::evictions`]).
    fn store_memo(&self, key: (Arc<str>, u64), memo: PlanMemo) {
        let tiles = memo.delta_t.len();
        if tiles > self.memo_tile_cap {
            return;
        }
        let mut caches = self.caches.lock().expect("engine cache lock");
        // A concurrent evaluation of a plan of the same lineage may have
        // stored its memo meanwhile; the newer one replaces it.
        if let Some(old) = caches.memos.remove(&key) {
            caches.memo_tiles -= old.delta_t.len();
        }
        if caches.memo_tiles + tiles > self.memo_tile_cap {
            self.evictions
                .fetch_add(caches.memo_tiles, Ordering::Relaxed);
            caches.memos.clear();
            caches.memo_tiles = 0;
        }
        caches.memo_tiles += tiles;
        caches.memos.insert(key, memo);
    }

    /// Model solves this engine has actually performed (distinct cells
    /// no memo held), cumulative across calls. A repeat factored
    /// evaluation of an unchanged plan adds zero; a power-delta update
    /// adds exactly the changed tiles' new cells.
    #[must_use]
    pub fn solves(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Matrix factorizations performed by the factored path, cumulative
    /// across calls.
    #[must_use]
    pub fn factorizations(&self) -> usize {
        self.factorizations.load(Ordering::Relaxed)
    }

    /// Distinct cells answered from a plan memo instead of solved,
    /// cumulative across calls. Over successful evaluations,
    /// `memo_hits + solves` is the sum of the reports' `distinct_cells`.
    #[must_use]
    pub fn memo_hits(&self) -> usize {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Memoized tiles and factorizations dropped by the generational
    /// caps, cumulative across calls. Eviction never changes results —
    /// evicted work just re-solves on the next touch (property-tested).
    #[must_use]
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Current live sizes, `(memoized tiles, matrix-tier entries)` — the
    /// serving layer's memory observability hook.
    ///
    /// # Panics
    ///
    /// Panics if the internal cache lock is poisoned.
    #[must_use]
    pub fn cache_entries(&self) -> (usize, usize) {
        let caches = self.caches.lock().expect("engine cache lock");
        (caches.memo_tiles, caches.matrix.len())
    }

    /// Gathers the distinct unit cells of a plan: per tile the index into
    /// the distinct list, each distinct cell's representative tile, and
    /// the plan's via count.
    fn distinct_cells(plan: &Floorplan) -> (Vec<usize>, Vec<(usize, usize)>, f64) {
        let (nx, ny) = (plan.nx(), plan.ny());
        let mut cell_of = Vec::with_capacity(nx * ny);
        let mut distinct: Vec<(usize, usize)> = Vec::new();
        let mut seen: KeyMap<CellKey, usize> = KeyMap::default();
        seen.reserve(nx * ny);
        let mut total_vias = 0.0;
        for iy in 0..ny {
            for ix in 0..nx {
                total_vias += plan.cells_in_tile(ix, iy);
                let index = *seen.entry(plan.cell_key(ix, iy)).or_insert_with(|| {
                    distinct.push((ix, iy));
                    distinct.len() - 1
                });
                cell_of.push(index);
            }
        }
        (cell_of, distinct, total_vias)
    }

    /// Worker count for this engine's batches.
    fn workers(&self) -> usize {
        self.workers.unwrap_or_else(default_workers)
    }

    /// Evaluates every tile's unit cell and assembles the chip `ΔT` map:
    /// identical tiles are deduplicated within the call, and every
    /// distinct cell is solved through [`ThermalModel::max_delta_t`].
    ///
    /// This path is stateless — it keeps no memo and reads no cache —
    /// which makes it the in-engine oracle for
    /// [`ChipEngine::evaluate_factored`].
    ///
    /// # Errors
    ///
    /// Propagates tile-scenario validation failures and the first (by
    /// distinct-cell order) model error.
    pub fn evaluate(
        &self,
        plan: &Floorplan,
        model: &(dyn ThermalModel + Sync),
    ) -> Result<ChipReport, CoreError> {
        let (cell_of, distinct, total_vias) = Self::distinct_cells(plan);
        let scenarios = distinct
            .iter()
            .map(|&(ix, iy)| plan.tile_cell(ix, iy).map(|cell| cell.scenario))
            .collect::<Result<Vec<Scenario>, CoreError>>()?;
        let cell_delta_t = run_batch_with_workers(scenarios.len(), self.workers(), |k| {
            model.max_delta_t(&scenarios[k]).map(|t| t.as_kelvin())
        })?;
        self.solves.fetch_add(scenarios.len(), Ordering::Relaxed);

        let delta_t: Vec<f64> = cell_of.iter().map(|&i| cell_delta_t[i]).collect();
        Ok(ChipReport::from_tiles(
            model.name(),
            plan.nx(),
            plan.ny(),
            delta_t,
            distinct.len(),
            total_vias,
        ))
    }

    /// Like [`ChipEngine::evaluate`], but for [`PowerSeparableModel`]s,
    /// and with a per-plan memo: a re-evaluation of a plan of the same
    /// lineage touches only the tiles whose cell bits changed since the
    /// last evaluation. Their new cells are looked up in the plan's own
    /// distinct cells, and the rest are solved through the matrix tier —
    /// one factorization per distinct geometry (via density), one
    /// back-substitution per distinct power vector — with no full
    /// [`Scenario`] built for tiles whose matrix is already cached.
    /// Results are bit-identical to [`ChipEngine::evaluate`] on the
    /// model's default solver path (property-tested).
    ///
    /// # Errors
    ///
    /// Propagates tile validation/factorization failures and the first
    /// (by distinct-cell order) model error. A failed call leaves no
    /// memo behind, so the next call starts from a full evaluation.
    pub fn evaluate_factored<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        model: &M,
    ) -> Result<ChipReport, CoreError> {
        let tag: Arc<str> = Arc::from(model.cache_tag());
        let key = (tag.clone(), plan.lineage());
        let memo = {
            let mut caches = self.caches.lock().expect("engine cache lock");
            let memo = caches.memos.remove(&key);
            if let Some(memo) = &memo {
                caches.memo_tiles -= memo.delta_t.len();
            }
            memo
        };
        let mut memo = memo.unwrap_or_else(|| PlanMemo {
            cell_bits: Vec::new(),
            delta_t: vec![f64::NAN; plan.tiles()],
            total_vias: plan.via_count(),
            cells: KeyMap::default(),
        });
        // On error the memo is dropped here, not stored half-updated.
        self.update_memo(plan, model, tag, &mut memo)?;
        let report = ChipReport::from_tiles(
            model.name(),
            plan.nx(),
            plan.ny(),
            memo.delta_t.clone(),
            memo.cells.len(),
            memo.total_vias,
        );
        self.store_memo(key, memo);
        Ok(report)
    }

    /// Brings `memo` up to date with `plan`: scans every tile's cell bits
    /// against the memo (an empty memo counts every tile as changed),
    /// counts the changed tiles' new cells in and their old cells out,
    /// solves the new cells the memo did not hold through
    /// [`ChipEngine::solve_factored`], and patches the changed tiles'
    /// `ΔT`.
    fn update_memo<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        model: &M,
        tag: Arc<str>,
        memo: &mut PlanMemo,
    ) -> Result<(), CoreError> {
        let width = plan.cell_width();
        let tiles = plan.tiles();
        let span = |t: usize| t * width..(t + 1) * width;
        let warm = !memo.cell_bits.is_empty();
        let changed: Vec<usize> = if warm {
            (0..tiles)
                .filter(|&t| !plan.cell_bits_match(t, &memo.cell_bits[span(t)]))
                .collect()
        } else {
            memo.cell_bits = vec![0; tiles * width];
            (0..tiles).collect()
        };

        // Count the new cells in first, so a cell that only moves between
        // changed tiles stays held by the plan; `unseen` collects the
        // cells the memo did not hold, in row-major first-appearance
        // order.
        let mut bits = vec![0; width];
        let mut unseen: Vec<usize> = Vec::new();
        for &t in &changed {
            plan.write_cell_bits(t, &mut bits);
            match memo.cells.get_mut(bits.as_slice()) {
                Some((count, _)) => *count += 1,
                None => {
                    memo.cells.insert(CellKey::new(bits.clone()), (1, f64::NAN));
                    unseen.push(t);
                }
            }
        }
        // Then count the old cells out and record the new bits.
        for &t in &changed {
            let slot = &mut memo.cell_bits[span(t)];
            if warm {
                let (count, _) = memo
                    .cells
                    .get_mut(&*slot)
                    .expect("every memoized tile's cell is counted");
                *count -= 1;
                if *count == 0 {
                    memo.cells.remove(&*slot);
                }
            }
            plan.write_cell_bits(t, slot);
        }

        let nx = plan.nx();
        let unseen_tiles: Vec<(usize, usize)> = unseen.iter().map(|&t| (t % nx, t / nx)).collect();
        let solved = self.solve_factored(plan, model, tag, &unseen_tiles)?;
        self.solves.fetch_add(unseen.len(), Ordering::Relaxed);
        self.memo_hits
            .fetch_add(memo.cells.len() - unseen.len(), Ordering::Relaxed);

        for (&t, dt) in unseen.iter().zip(solved) {
            memo.cells
                .get_mut(&memo.cell_bits[span(t)])
                .expect("counted in above")
                .1 = dt;
        }
        for &t in &changed {
            memo.delta_t[t] = memo.cells[&memo.cell_bits[span(t)]].1;
        }
        Ok(())
    }

    /// The matrix-tier solver behind [`ChipEngine::evaluate_factored`]:
    /// groups the tiles `(ix, iy)` to solve by via density (the matrix key
    /// is the model `tag`, the plan's geometry bits and the density),
    /// factorizes every matrix not already cached, and back-substitutes
    /// each tile's power vector; returns one `ΔT` in kelvin per tile, in
    /// order.
    fn solve_factored<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        model: &M,
        tag: Arc<str>,
        misses: &[(usize, usize)],
    ) -> Result<Vec<f64>, CoreError> {
        let workers = self.workers();
        let geometry = EngineKey {
            tag,
            bits: plan.geometry_bits(),
        };
        let mut matrix_keys: Vec<EngineKey> = Vec::new();
        let mut matrix_index: KeyMap<EngineKey, usize> = KeyMap::default();
        let mut matrix_of: Vec<usize> = Vec::with_capacity(misses.len());
        let mut matrix_rep: Vec<(usize, usize)> = Vec::new();
        for &(ix, iy) in misses {
            let mut mkey = geometry.clone();
            mkey.bits.push(plan.matrix_bits(ix, iy));
            let mi = match matrix_index.entry(mkey) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => {
                    let mi = matrix_keys.len();
                    matrix_keys.push(entry.key().clone());
                    matrix_rep.push((ix, iy));
                    entry.insert(mi);
                    mi
                }
            };
            matrix_of.push(mi);
        }

        // Matrix tier: factorize every distinct geometry not already
        // cached (in parallel), then publish the new factorizations.
        let mut factorizations: Vec<Option<Arc<M::Factorization>>> = vec![None; matrix_keys.len()];
        let mut missing: Vec<usize> = Vec::new();
        {
            let caches = self.caches.lock().expect("engine cache lock");
            for (mi, mkey) in matrix_keys.iter().enumerate() {
                let cached = caches.matrix.get(mkey);
                match cached.and_then(|any| any.clone().downcast::<M::Factorization>().ok()) {
                    Some(fact) => factorizations[mi] = Some(fact),
                    None => missing.push(mi),
                }
            }
        }
        let built = run_batch_with_workers(missing.len(), workers, |k| {
            let (ix, iy) = matrix_rep[missing[k]];
            let cell = plan.tile_cell(ix, iy)?;
            model.factorize_geometry(&cell.scenario).map(Arc::new)
        })?;
        self.factorizations
            .fetch_add(missing.len(), Ordering::Relaxed);
        {
            let mut caches = self.caches.lock().expect("engine cache lock");
            // Same generational bound as the memos: a working set past
            // the cap is not cached; one that no longer fits beside the
            // existing entries clears the tier (counted as evictions).
            let cache_matrices = missing.len() <= self.matrix_cache_cap;
            if cache_matrices && caches.matrix.len() + missing.len() > self.matrix_cache_cap {
                self.evictions
                    .fetch_add(caches.matrix.len(), Ordering::Relaxed);
                caches.matrix.clear();
            }
            for (mi, fact) in missing.iter().zip(built) {
                if cache_matrices {
                    caches.matrix.insert(matrix_keys[*mi].clone(), fact.clone());
                }
                factorizations[*mi] = Some(fact);
            }
        }

        // Back-substitution per distinct power vector: cells are grouped
        // by shared matrix and handed to the model in batches, so a
        // multi-RHS kernel (Model B's four-lane back-substitution) can
        // amortize each pass over the factors. Job order is
        // deterministic, and batching is bitwise-transparent by the
        // `solve_with_powers_batch` contract.
        const JOB_TILES: usize = 32;
        let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); matrix_keys.len()];
        for (k, &mi) in matrix_of.iter().enumerate() {
            grouped[mi].push(k);
        }
        let jobs: Vec<(usize, &[usize])> = grouped
            .iter()
            .enumerate()
            .flat_map(|(mi, ks)| ks.chunks(JOB_TILES).map(move |c| (mi, c)))
            .collect();
        let solved_jobs = run_batch_with_workers(jobs.len(), workers, |j| {
            let (mi, ks) = jobs[j];
            let fact = factorizations[mi]
                .as_ref()
                .expect("every needed matrix was factorized");
            let powers: Vec<Vec<Power>> = ks
                .iter()
                .map(|&k| {
                    let (ix, iy) = misses[k];
                    plan.tile_cell_powers(ix, iy)
                })
                .collect();
            model
                .solve_with_powers_batch(fact, &powers)
                .map(|ts| ts.into_iter().map(|t| t.as_kelvin()).collect::<Vec<_>>())
        })?;

        let mut delta_t = vec![f64::NAN; misses.len()];
        for ((_, ks), dts) in jobs.iter().zip(&solved_jobs) {
            for (&k, dt) in ks.iter().zip(dts) {
                delta_t[k] = *dt;
            }
        }
        Ok(delta_t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsv_core::full_chip::CaseStudy;
    use ttsv_core::model_a::ModelA;
    use ttsv_core::model_b::ModelB;
    use ttsv_core::prelude::*;

    use crate::map::{PowerMap, ViaDensityMap};

    fn model_a() -> ModelA {
        ModelA::with_coefficients(CaseStudy::paper_fitting())
    }

    #[test]
    fn uniform_plan_evaluates_one_distinct_cell() {
        let plan = Floorplan::uniform(&CaseStudy::paper(), 4, 4).unwrap();
        let engine = ChipEngine::new();
        let report = engine.evaluate(&plan, &model_a()).unwrap();
        assert_eq!(report.tiles, 16);
        assert_eq!(report.distinct_cells, 1);
        assert_eq!(engine.solves(), 1);
        assert_eq!(report.delta_t.len(), 16);
        // Uniform chip: every tile identical, flat statistics.
        assert_eq!(report.max_delta_t, report.mean_delta_t);
        assert_eq!(report.max_delta_t, report.p99_delta_t);
        assert!(report.max_delta_t > 0.0);
    }

    #[test]
    fn hotspot_raises_delta_t_where_the_power_is() {
        let cs = CaseStudy::paper();
        // 2×1 grid: left tile hot, right tile cool, same total as paper.
        let hot = |left: f64, total: f64| {
            PowerMap::new(
                2,
                1,
                vec![
                    Power::from_watts(total * left),
                    Power::from_watts(total * (1.0 - left)),
                ],
            )
            .unwrap()
        };
        let maps = vec![hot(0.8, 70.0), hot(0.8, 7.0), hot(0.8, 7.0)];
        let via = ViaDensityMap::uniform(2, 1, cs.density).unwrap();
        let plan = Floorplan::new(&cs, maps, via).unwrap();
        let report = ChipEngine::new().evaluate(&plan, &model_a()).unwrap();
        assert_eq!(report.distinct_cells, 2);
        assert!(report.get(0, 0) > report.get(1, 0));
        assert_eq!((report.argmax_ix, report.argmax_iy), (0, 0));
        assert_eq!(report.max_delta_t, report.get(0, 0));
    }

    #[test]
    fn denser_vias_cool_their_tile() {
        let cs = CaseStudy::paper();
        let maps = (0..3)
            .map(|j| PowerMap::uniform(2, 1, cs.plane_powers[j] * 0.2).unwrap())
            .collect();
        // Right tile has 4× the via density of the left.
        let via = ViaDensityMap::new(2, 1, vec![0.005, 0.02]).unwrap();
        let plan = Floorplan::new(&cs, maps, via).unwrap();
        let report = ChipEngine::new().evaluate(&plan, &model_a()).unwrap();
        assert!(report.get(1, 0) < report.get(0, 0));
    }

    #[test]
    fn factored_path_shares_one_factorization_across_distinct_powers() {
        let cs = CaseStudy::paper();
        // 3×1 grid, all-distinct powers, uniform density → one matrix.
        let maps = (0..3)
            .map(|j| {
                PowerMap::from_fn(3, 1, |ix, _| cs.plane_powers[j] * ((1.0 + ix as f64) / 6.0))
                    .unwrap()
            })
            .collect();
        let via = ViaDensityMap::uniform(3, 1, cs.density).unwrap();
        let plan = Floorplan::new(&cs, maps, via).unwrap();
        let model = ModelB::paper_b20();
        let engine = ChipEngine::new();
        let factored = engine.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(factored.distinct_cells, 3);
        assert_eq!(engine.factorizations(), 1);
        assert_eq!(engine.solves(), 3);
        // Bit-identical to the per-tile path.
        let plain = ChipEngine::new().evaluate(&plan, &model).unwrap();
        assert_eq!(factored.delta_t, plain.delta_t);
    }

    #[test]
    fn power_delta_re_solves_only_changed_tiles() {
        let cs = CaseStudy::paper();
        let mut plan = Floorplan::uniform(&cs, 4, 4).unwrap();
        let model = ModelB::paper_b20();
        let engine = ChipEngine::new();
        engine.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(engine.solves(), 1); // uniform → one distinct cell
        assert_eq!(engine.factorizations(), 1);

        // Double one tile's power on the top plane: 2 distinct cells now,
        // one of them already cached.
        let mut tiles: Vec<Power> = plan.plane_maps()[2].tiles().to_vec();
        tiles[5] = tiles[5] * 2.0;
        plan.update_power_map(2, PowerMap::new(4, 4, tiles).unwrap())
            .unwrap();
        let report = engine.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(report.distinct_cells, 2);
        assert_eq!(engine.solves(), 2, "only the changed tile re-solves");
        assert_eq!(engine.memo_hits(), 1, "the other cell came from the memo");
        assert_eq!(engine.factorizations(), 1, "geometry unchanged");
    }

    /// Model B with one poisoned per-cell power value: a solve whose
    /// power vector holds it fails, every other call delegates unchanged
    /// (so results stay bitwise Model B's).
    struct PoisonedModelB {
        inner: ModelB,
        poison: Power,
    }

    impl PoisonedModelB {
        fn check(&self, powers: &[Power]) -> Result<(), CoreError> {
            if powers
                .iter()
                .any(|p| p.as_watts().to_bits() == self.poison.as_watts().to_bits())
            {
                return Err(CoreError::InvalidScenario {
                    reason: "poisoned power value".into(),
                });
            }
            Ok(())
        }
    }

    impl ThermalModel for PoisonedModelB {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn max_delta_t(&self, scenario: &Scenario) -> Result<TemperatureDelta, CoreError> {
            self.check(scenario.plane_powers())?;
            self.inner.max_delta_t(scenario)
        }
    }

    impl PowerSeparableModel for PoisonedModelB {
        type Factorization = <ModelB as PowerSeparableModel>::Factorization;
        fn factorize_geometry(
            &self,
            scenario: &Scenario,
        ) -> Result<Self::Factorization, CoreError> {
            self.inner.factorize_geometry(scenario)
        }
        fn solve_with_powers(
            &self,
            factorization: &Self::Factorization,
            plane_powers: &[Power],
        ) -> Result<TemperatureDelta, CoreError> {
            self.check(plane_powers)?;
            self.inner.solve_with_powers(factorization, plane_powers)
        }
        fn solve_with_powers_batch(
            &self,
            factorization: &Self::Factorization,
            batch: &[Vec<Power>],
        ) -> Result<Vec<TemperatureDelta>, CoreError> {
            for powers in batch {
                self.check(powers)?;
            }
            self.inner.solve_with_powers_batch(factorization, batch)
        }
    }

    #[test]
    fn failed_update_leaves_no_memo_behind() {
        // A 4×4 plan with every tile distinct; updates edit plane 1.
        let cs = CaseStudy::paper();
        let maps: Vec<PowerMap> = (0..3)
            .map(|j| {
                PowerMap::from_fn(4, 4, |ix, iy| {
                    cs.plane_powers[j] * ((1.0 + (iy * 4 + ix) as f64) / 136.0)
                })
                .unwrap()
            })
            .collect();
        let via = ViaDensityMap::uniform(4, 4, cs.density).unwrap();
        let mut plan = Floorplan::new(&cs, maps, via).unwrap();
        let edit = |plan: &Floorplan, tiles: &[(usize, f64)]| {
            let mut map = plan.plane_maps()[1].tiles().to_vec();
            for &(t, watts) in tiles {
                map[t] = Power::from_watts(watts);
            }
            PowerMap::new(4, 4, map).unwrap()
        };
        // The poison is tile 5's per-cell plane-1 power at 3.5 W.
        let poisoned_update = edit(&plan, &[(5, 3.5), (6, 0.25)]);
        let mut poisoned_plan = plan.clone();
        poisoned_plan
            .update_power_map(1, poisoned_update.clone())
            .unwrap();
        let model = PoisonedModelB {
            inner: ModelB::paper_b20(),
            poison: poisoned_plan.tile_cell_powers(1, 1)[1],
        };

        let engine = ChipEngine::new();
        let before = engine.evaluate_factored(&plan, &model).unwrap();
        let previous = plan.plane_maps()[1].clone();
        let bits = |r: &ChipReport| r.delta_t.iter().map(|t| t.to_bits()).collect::<Vec<_>>();

        // The update hitting the poison fails; rolling the plan back (as
        // the server does) re-evaluates bitwise to the pre-failure report.
        plan.update_power_map(1, poisoned_update.clone()).unwrap();
        assert!(engine.evaluate_factored(&plan, &model).is_err());
        plan.update_power_map(1, previous.clone()).unwrap();
        let rolled_back = engine.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(bits(&rolled_back), bits(&before));
        assert_eq!(rolled_back.to_json(), before.to_json());

        // Fail again, then go straight to the next valid update, which
        // keeps tile 6's new power: a memo stored half-updated by the
        // failed call would hold tile 6's new bits with its old ΔT.
        plan.update_power_map(1, poisoned_update).unwrap();
        assert!(engine.evaluate_factored(&plan, &model).is_err());
        plan.update_power_map(1, previous).unwrap();
        plan.update_power_map(1, edit(&plan, &[(6, 0.25)])).unwrap();
        let next = engine.evaluate_factored(&plan, &model).unwrap();
        let fresh = ChipEngine::new().evaluate_factored(&plan, &model).unwrap();
        assert_eq!(bits(&next), bits(&fresh));
        assert_eq!(next.to_json(), fresh.to_json());
    }

    #[test]
    fn update_power_map_validates_inputs() {
        let cs = CaseStudy::paper();
        let mut plan = Floorplan::uniform(&cs, 2, 2).unwrap();
        assert!(matches!(
            plan.update_power_map(7, PowerMap::uniform(2, 2, Power::from_watts(1.0)).unwrap()),
            Err(CoreError::InvalidFloorplan { .. })
        ));
        assert!(matches!(
            plan.update_power_map(0, PowerMap::uniform(3, 2, Power::from_watts(1.0)).unwrap()),
            Err(CoreError::InvalidFloorplan { .. })
        ));
    }

    #[test]
    fn plan_memo_is_bounded_by_generational_eviction() {
        // Two 4-tile plans under a cap of 4 memoized tiles: storing the
        // second plan's memo drops the first, so the memos never exceed
        // the bound — and correctness is untouched (the evicted plan just
        // re-solves).
        let cs = CaseStudy::paper();
        let model = ModelB::paper_b20();
        let plan_a = Floorplan::uniform(&cs, 2, 2).unwrap();
        let mut cs_b = cs.clone();
        cs_b.plane_powers[0] = cs.plane_powers[0] * 2.0;
        let plan_b = Floorplan::uniform(&cs_b, 2, 2).unwrap();
        let engine = ChipEngine::new().with_scenario_cache_cap(4);
        let first = engine.evaluate_factored(&plan_a, &model).unwrap();
        engine.evaluate_factored(&plan_b, &model).unwrap();
        assert_eq!(engine.solves(), 2);
        assert_eq!(engine.evictions(), 4, "plan_a's four tiles were dropped");
        assert_eq!(engine.cache_entries().0, 4);
        let again = engine.evaluate_factored(&plan_a, &model).unwrap();
        assert_eq!(engine.solves(), 3, "the evicted plan re-solves");
        assert_eq!(engine.evictions(), 8);
        let bits = |r: &ChipReport| r.delta_t.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again), bits(&first));
        assert_eq!(again.to_json(), first.to_json());

        // A plan larger than the cap is not memoized at all.
        let small = ChipEngine::new().with_scenario_cache_cap(3);
        small.evaluate_factored(&plan_a, &model).unwrap();
        small.evaluate_factored(&plan_a, &model).unwrap();
        assert_eq!(small.solves(), 2);
        assert_eq!((small.cache_entries().0, small.evictions()), (0, 0));
    }

    #[test]
    fn matrix_cache_is_bounded_and_eviction_preserves_results() {
        let cs = CaseStudy::paper();
        let model = ModelB::paper_b20();
        // Two distinct via densities → two distinct matrices, cap of 1:
        // the second factorization evicts the first.
        let plan_at = |density: f64| {
            let maps = (0..3)
                .map(|j| PowerMap::uniform(2, 1, cs.plane_powers[j] * 0.5).unwrap())
                .collect();
            let via = ViaDensityMap::uniform(2, 1, density).unwrap();
            Floorplan::new(&cs, maps, via).unwrap()
        };
        let (plan_a, plan_b) = (plan_at(0.005), plan_at(0.01));
        let engine = ChipEngine::new().with_matrix_cache_cap(1);
        engine.evaluate_factored(&plan_a, &model).unwrap();
        engine.evaluate_factored(&plan_b, &model).unwrap();
        assert_eq!(engine.factorizations(), 2);
        assert_eq!(engine.evictions(), 1, "plan_a's matrix was evicted");
        // Force a re-factorization of plan_a by changing its power bits
        // (an unchanged plan is answered from its memo and never touches
        // the matrix tier).
        let mut plan_a2 = plan_a;
        let tiles: Vec<Power> = plan_a2.plane_maps()[0]
            .tiles()
            .iter()
            .map(|p| *p * 1.5)
            .collect();
        plan_a2
            .update_power_map(0, PowerMap::new(2, 1, tiles).unwrap())
            .unwrap();
        let refac = engine.evaluate_factored(&plan_a2, &model).unwrap();
        assert_eq!(engine.factorizations(), 3, "evicted matrix re-factorizes");
        // Same geometry solved through a fresh engine agrees bitwise.
        let fresh = ChipEngine::new()
            .evaluate_factored(&plan_a2, &model)
            .unwrap();
        assert_eq!(refac.delta_t, fresh.delta_t);
        assert!(engine.cache_entries().1 <= 1, "matrix tier stays bounded");
    }

    #[test]
    fn cloned_engines_start_cold() {
        let plan = Floorplan::uniform(&CaseStudy::paper(), 2, 2).unwrap();
        let model = ModelB::paper_b20();
        let engine = ChipEngine::new();
        engine.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(engine.solves(), 1);
        let fresh = engine.clone();
        assert_eq!((fresh.solves(), fresh.cache_entries()), (0, (0, 0)));
        fresh.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(fresh.solves(), 1, "the clone has no memo of the plan");
        engine.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(engine.solves(), 1, "the original keeps its memo");
    }

    #[test]
    fn model_errors_propagate() {
        struct Failing;
        impl ThermalModel for Failing {
            fn name(&self) -> String {
                "failing".into()
            }
            fn max_delta_t(&self, _: &Scenario) -> Result<TemperatureDelta, CoreError> {
                Err(CoreError::InvalidScenario {
                    reason: "synthetic failure".into(),
                })
            }
        }
        let plan = Floorplan::uniform(&CaseStudy::paper(), 2, 2).unwrap();
        assert!(ChipEngine::new().evaluate(&plan, &Failing).is_err());
    }
}
