//! The battery compiler: lowers a flattened forest into a quantized,
//! feature-pruned scoring program — the one batch engine for tree
//! models.
//!
//! A tree model compiles its [`ForestProgram`] on its first batch call
//! (`predict_batch` or `attribute_batch`), or up front through
//! `optimize()`; either way a load-time step, never a wire format
//! change. The program replaces per-row pointer walks over `f64`
//! thresholds with:
//!
//! - **Quantized thresholds.** Every feature's split thresholds across
//!   the whole forest become a sorted cut table, and each row value is
//!   bucketed once per matrix into a `u16` rank. Node compares become
//!   integer compares: with 1-based buckets (`bucket(v) = 1 + #{cuts <
//!   v}`, `NaN` mapping above every cut) and a node's quantized
//!   threshold `qt = bucket(threshold)`, the IEEE comparison `v <= t` is
//!   *exactly* `bucket(v) <= qt` — including `-0.0`/`0.0` ties and NaN
//!   row values. A `NaN` split threshold (always-false, go right) and a
//!   leaf both encode as `qt = 0`, which no bucket (≥ 1) ever satisfies.
//!   When a feature's threshold set cannot quantize losslessly into the
//!   `u16` rank space (> [`MAX_CUTS`] distinct cuts), `compile` refuses
//!   and the model keeps the scalar row walk (`FlatTree::score_from`) —
//!   the exactness fallback. Each feature keeps one cut table, padded
//!   with `+∞` to a power of two and allocated once at that size; large
//!   tables rank by a branchless binary search over it: `log2(cuts)`
//!   conditional-move steps per value, no sort of the matrix, and the
//!   searches for different rows are independent so they pipeline.
//! - **Feature-subset pruning.** Each tree records the columns its
//!   splits actually touch; row prep buckets only the union of touched
//!   columns into a packed per-matrix `u16` table (row-major per
//!   feature slot), so dead columns are never gathered and the whole
//!   working set is a few KiB of ranks that stay cache-resident across
//!   all 200 trees.
//! - **Mask-propagation blocks.** A block never descends per row at
//!   all. The program first builds, per feature, a table of 64-bit row
//!   masks indexed by cut rank — `mask(qt)` = "rows of this block whose
//!   bucket is ≤ qt", a histogram over the block's ranks followed by a
//!   prefix-OR — and every split node's compare against the whole block
//!   becomes *one load* of `mask(qt)`. Each tree is then walked once in
//!   preorder, propagating row-set masks (`left = m & mask`, `right = m
//!   & !mask`) and skipping any subtree whose mask goes empty, so the
//!   work scales with the nodes the block actually reaches (≈ one visit
//!   per node) instead of `rows × depth` steps. Landed rows pop out of
//!   the leaf masks bit by bit, one `(row, leaf, value)` sink call each.
//!   The walk is exact for any block of 1 to [`BLOCK_ROWS`] rows and any
//!   depth, DAG-shaped wire tables included.
//! - **Depth-unrolled ladders.** Short batches — serve-style single-row
//!   scoring, anything below [`MASK_MIN_ROWS`] rows (longer batches
//!   never leave a shorter tail block, see `block_len`) — can't amortize
//!   mask tables. When every tree is at most [`UNROLL_MAX_DEPTH`] deep,
//!   each tree gets a perfect-binary ladder instead: slot `j` steps to
//!   `2j + 1 + (bucket > qt)` with no child pointer load, the step count
//!   a compile-time constant (monomorphized per depth), early leaves
//!   padded down the always-right spine with `qt = 0` sentinels. A
//!   forest with any deeper tree (wire-decoded, custom configs) runs its
//!   short blocks through the mask walk as well. Ladders are built from
//!   the mask walk's node table on the first short block, not at
//!   compile: a depth-8 ladder is 511 slots for a tree of a few dozen
//!   nodes, and a model that only ever scores long batches (bulk
//!   scoring, retraining) never pays that memory.
//!
//! The program holds no leaf values: the walks read them from the
//! owning flat table's `threshold` slots, which callers pass to
//! [`walk_batch`](ForestProgram::walk_batch) — one value table per
//! model, not two.
//!
//! Every decision the program makes is provably the decision the
//! scalar row walk makes, so leaf values — and therefore scores *and*
//! attribution deposits, which only depend on the landed leaf — are
//! bit-identical. The unit tests below and the differential fuzz in
//! `tests/` compare every engine against the row walk.

use crate::dataset::ColMatrix;
use crate::infer::{FlatTree, LEAF};
use std::sync::{Arc, OnceLock};

/// Rows per scoring block: the mask walk packs one block row per bit of
/// a `u64`.
const BLOCK_ROWS: usize = 64;

/// Rows a ladder walks side by side. Each lane is an independent
/// root-to-leaf walk, so the loads of `LANES` rows overlap instead of
/// serializing on one walk's dependency chain.
const LANES: usize = 16;

/// Trees at or below this depth compile to the branchless unrolled
/// ladder; a forest with a deeper tree runs every block through the mask
/// walk. 8 matches the default `TreeConfig::max_depth`, so trained
/// batteries unroll every tree; the ladder for depth 8 is 255 nodes +
/// 256 leaves — about 2 KiB, comfortably L1-resident while a tree sweeps
/// a block.
pub(crate) const UNROLL_MAX_DEPTH: u32 = 8;

/// Blocks with at least this many rows run the mask-propagation walk;
/// shorter blocks (single-row serve scoring, batches under this size) of
/// shallow forests run the ladders, whose per-tree fixed cost is lower
/// than building the per-block mask tables.
pub(crate) const MASK_MIN_ROWS: usize = 32;

// The mask walk packs one block row per bit of a u64.
const _: () = assert!(BLOCK_ROWS <= 64);

/// Cut tables at or below this size rank by vectorized counting;
/// larger ones fall back to a per-value branchless binary search (see
/// [`FeatQuant::bucket_column`]). 64 keeps the counting path's
/// `O(rows · cuts)` under the search's constant factor everywhere the
/// crossover could plausibly sit.
const COUNT_CUTS_MAX: usize = 64;

/// Largest number of distinct cuts a feature may quantize into: buckets
/// run `1 ..= cuts + 1` (the top bucket also absorbs `NaN`), and both
/// must fit `u16`. Beyond this the threshold set does not quantize
/// losslessly and `compile` refuses: the model keeps the scalar row walk.
pub(crate) const MAX_CUTS: usize = u16::MAX as usize - 1;

/// One touched feature: its source column and the forest-wide sorted
/// table of distinct finite split thresholds on that column, padded
/// with `+∞` to a power of two — the branchless search table. The real
/// cuts are its first `len` entries ([`cuts`](Self::cuts)). `+∞` pads
/// are transparent: they are never `< v`, even for `v = +∞`, so the
/// padded rank equals the real rank.
#[derive(Debug, Clone)]
struct FeatQuant {
    column: u32,
    len: u32,
    pad: Box<[f64]>,
}

/// Per-column quantization tables from `(column, cut)` pairs: one
/// [`FeatQuant`] for each of `columns` (sorted, distinct, and covering
/// every pair's column; a column without finite cuts gets an empty
/// table), with its cuts sorted, deduped by `==` and padded, each table
/// allocated once at its padded size. The `==` dedup merges
/// `-0.0`/`0.0`: `v <= -0.0 ⟺ v <= 0.0` under IEEE, so one
/// representative rank is exact for both. `None` when a column has more
/// than [`MAX_CUTS`] distinct cuts.
fn quant_tables(columns: &[u32], mut pairs: Vec<(u32, f64)>) -> Option<Vec<FeatQuant>> {
    pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    pairs.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    let mut rest = pairs.as_slice();
    columns
        .iter()
        .map(|&column| {
            let len = rest.partition_point(|p| p.0 == column);
            if len > MAX_CUTS {
                return None;
            }
            let (cuts, tail) = rest.split_at(len);
            rest = tail;
            let mut pad = Vec::with_capacity(len.next_power_of_two());
            pad.extend(cuts.iter().map(|p| p.1));
            pad.resize(len.next_power_of_two(), f64::INFINITY);
            Some(FeatQuant {
                column,
                len: len as u32,
                pad: pad.into_boxed_slice(),
            })
        })
        .collect()
}

impl FeatQuant {
    /// The real cut table: sorted, distinct, finite split thresholds.
    fn cuts(&self) -> &[f64] {
        &self.pad[..self.len as usize]
    }

    /// Rank an entire column at once: `bucket(v) = 1 + #{cuts < v}`,
    /// with `NaN` pinned above every cut so `bucket(NaN) <= qt` is false
    /// for every node — mirroring IEEE `NaN <= t`.
    ///
    /// Small cut tables (the battery's typical ~10–20 cuts a feature)
    /// rank by counting, cuts outer and rows inner: `dst[r] += (c <
    /// col[r])` over a contiguous column is branchless, carries no
    /// loop dependency, and vectorizes. (`c < NaN` is false for every
    /// cut, so NaN rows fall out of the count at 1 and are pinned to
    /// the top bucket in one trailing pass.) Big tables — possible
    /// through the wire path — switch to a branchless lower-bound over
    /// the `+∞`-padded power-of-two table, `log2(cuts)`
    /// conditional-move steps per value, so cost never exceeds
    /// `O(rows · log cuts)`.
    fn bucket_column(&self, col: &[f64], dst: &mut [u16], counts: &mut Vec<f64>) {
        let top = self.len as u16 + 1;
        if self.len as usize <= COUNT_CUTS_MAX {
            counts.clear();
            counts.resize(col.len(), 0.0);
            // Counting in f64 keeps the whole accumulation in one lane
            // width — compare, mask to 1.0, add — which the
            // autovectorizer handles; counts are integers well inside
            // exact f64 range. `c < NaN` is false for every cut, so
            // NaN rows sit at 0 and the conversion pass pins them to
            // the top bucket.
            for &c in self.cuts() {
                for (a, &v) in counts.iter_mut().zip(col) {
                    *a += if c < v { 1.0 } else { 0.0 };
                }
            }
            for ((d, &a), &v) in dst.iter_mut().zip(counts.iter()).zip(col) {
                *d = if v.is_nan() { top } else { a as u16 + 1 };
            }
        } else {
            for (d, &v) in dst.iter_mut().zip(col) {
                *d = if v.is_nan() {
                    top
                } else {
                    let mut lo = 0usize;
                    let mut half = self.pad.len() >> 1;
                    while half > 0 {
                        lo += usize::from(self.pad[lo + half - 1] < v) * half;
                        half >>= 1;
                    }
                    (lo + usize::from(self.pad[lo] < v)) as u16 + 1
                };
            }
        }
    }
}

/// Battery-wide quantization, shared by every linked program: the
/// per-column *union* of the programs' cut tables.
///
/// Without sharing, every program in a battery re-buckets the same
/// matrix against its own (largely overlapping) cut tables — for a
/// 15-model battery that is 15 passes over identical columns per
/// scoring call, and it dominates the walk once the descent itself is
/// mask-driven. Linked programs instead rank the matrix *once* against
/// the merged tables and recover their local ranks through a
/// precomputed monotone remap ([`down_table`]), which is exact because
/// each local cut table is a subset of the merged one: with
/// `bucket(v) = 1 + #{cuts < v}`, the merged rank pins down exactly
/// which merged cuts lie below `v`, and counting the local cuts among
/// them *is* the local rank.
///
/// The merged ranks live on the matrix, not on the models
/// (`ColMatrix::battery_ranks`): the first linked model to score a
/// matrix ranks it, its siblings read the same ranks — concurrent ones
/// wait for that one ranking instead of racing duplicates — and the
/// ranks go when the pass's matrix does, so a model holds no per-matrix
/// state between passes. Short blocks (serve-style single rows) never
/// take this path at all (see [`ForestProgram::walk_batch`]).
#[derive(Debug)]
pub(crate) struct SharedQuant {
    feats: Vec<FeatQuant>,
    /// Largest source column any merged table reads; matrices narrower
    /// than this cannot be ranked shared and fall back to local
    /// bucketing.
    max_column: u32,
}

impl SharedQuant {
    /// Merged ranks for `x`, slot-major (`feats.len() × n_rows` `u16`s).
    fn rank(&self, x: &ColMatrix) -> Vec<u16> {
        let n = x.n_rows();
        let mut q = vec![0u16; self.feats.len() * n];
        let mut counts: Vec<f64> = Vec::new();
        for (s, fq) in self.feats.iter().enumerate() {
            fq.bucket_column(
                x.col(fq.column as usize),
                &mut q[s * n..(s + 1) * n],
                &mut counts,
            );
        }
        q
    }
}

/// One program's view of a [`SharedQuant`]: where its feature slots sit
/// in the merged table and how merged ranks map back to local ranks.
#[derive(Debug, Clone)]
struct SharedCtx {
    quant: Arc<SharedQuant>,
    /// Program feature slot → merged feature slot.
    mslot: Vec<u32>,
    /// Concatenated per-slot remap tables: `down[down_base[slot] + mb]`
    /// is the local rank of merged rank `mb`.
    down: Vec<u16>,
    down_base: Vec<u32>,
}

/// The merged-rank → local-rank remap for one column. `local` must be a
/// subset of `merged` (both sorted ascending, deduped by `==`). Entry
/// `mb` (a merged bucket, `1 ..= merged.len() + 1`) holds
/// `1 + #{local cuts among the first mb - 1 merged cuts}`, which equals
/// `1 + #{local cuts < v}` for every `v` with merged bucket `mb` — the
/// definitional local bucket. The top merged rank maps to the top local
/// rank, which also routes `NaN` rows correctly (both tables pin `NaN`
/// to their top bucket). Index 0 is never produced by ranking; it holds
/// 0 so the table stays densely indexable.
fn down_table(merged: &[f64], local: &[f64], out: &mut Vec<u16>) {
    out.push(0);
    out.push(1);
    let mut li = 0usize;
    for &c in merged {
        if li < local.len() && local[li] == c {
            li += 1;
        }
        out.push(li as u16 + 1);
    }
    debug_assert_eq!(li, local.len(), "local cuts must be a subset of merged");
}

/// Link a battery's compiled programs to one [`SharedQuant`] built from
/// the union of their cut tables, so a matrix is ranked once per
/// scoring call instead of once per model. No-op (programs keep exact
/// local bucketing) when the union does not fit the `u16` rank space;
/// already-linked programs are left on their first link.
pub(crate) fn link_programs(programs: &[&ForestProgram]) {
    if programs.len() < 2 {
        // Nothing to share: a lone program's local tables already rank
        // each matrix exactly once.
        return;
    }
    // Merged cut tables: union of every program's cuts per source column.
    let mut columns: Vec<u32> = programs
        .iter()
        .flat_map(|prog| prog.feats.iter().map(|fq| fq.column))
        .collect();
    columns.sort_unstable();
    columns.dedup();
    let pairs = programs
        .iter()
        .flat_map(|prog| prog.feats.iter())
        .flat_map(|fq| fq.cuts().iter().map(|&c| (fq.column, c)))
        .collect();
    let Some(feats) = quant_tables(&columns, pairs) else {
        return;
    };
    let quant = Arc::new(SharedQuant {
        feats,
        max_column: columns.last().copied().unwrap_or(0),
    });
    let merged_slot = |column: u32| {
        quant
            .feats
            .binary_search_by_key(&column, |fq| fq.column)
            .expect("linked column")
    };
    for prog in programs {
        let mslot: Vec<u32> = prog
            .feats
            .iter()
            .map(|fq| merged_slot(fq.column) as u32)
            .collect();
        // Exact size: each slot's remap has an entry per merged rank.
        let mut down = Vec::with_capacity(
            mslot
                .iter()
                .map(|&ms| quant.feats[ms as usize].len as usize + 2)
                .sum(),
        );
        let mut down_base = Vec::with_capacity(prog.feats.len() + 1);
        for (fq, &ms) in prog.feats.iter().zip(&mslot) {
            down_base.push(down.len() as u32);
            down_table(quant.feats[ms as usize].cuts(), fq.cuts(), &mut down);
        }
        down_base.push(down.len() as u32);
        let _ = prog.shared.set(SharedCtx {
            quant: quant.clone(),
            mslot,
            down,
            down_base,
        });
    }
}

/// Quantized threshold for a split: the rank its cut occupies, chosen so
/// `v <= t  ⟺  bucket(v) <= qt`. `NaN` thresholds (always-false splits)
/// get rank 0, which no bucket satisfies — the same trick the program
/// uses for leaves.
#[inline]
fn qt_of(cuts: &[f64], t: f64) -> u16 {
    if t.is_nan() {
        0
    } else {
        cuts.partition_point(|&c| c < t) as u16 + 1
    }
}

/// A shallow program's short-block form: every tree's perfect-binary
/// ladder, packed back to back. Tree `t`'s ladder starts at `start[t]`:
/// `2^depth - 1` packed nodes (`feat_slot << 16 | qt`), then the
/// original node id of each of the `2^depth` bottom slots — attribution
/// wants the id, and values come from the owning flat table's
/// `threshold` slots, so the ladder stays 2 KiB a tree instead of 4.
/// Slot arithmetic replaces child pointers.
#[derive(Debug, Clone)]
struct Ladders {
    start: Vec<usize>,
    slots: Vec<u32>,
}

/// A [`FlatForest`](crate::infer::FlatForest) lowered to its vectorized
/// form. Built once by [`compile`](ForestProgram::compile) on the
/// model's first batch call (or by `optimize()`), immutable afterwards
/// apart from its lazily built ladders and battery link; scoring and
/// attribution both drive [`walk_batch`](ForestProgram::walk_batch).
#[derive(Debug, Clone)]
pub(crate) struct ForestProgram {
    feats: Vec<FeatQuant>,
    /// The mask walk's node records: `maskofs << 32 | right`, where
    /// `maskofs` is the offset into the per-block mask table — split
    /// node `i` compares a whole block as `masks[maskofs]` (=
    /// `feat_base[slot] + qt`, one load instead of 64 per-row
    /// compares) — and `right` the right-child id. Leaves hold
    /// `u32::MAX` in the offset half: the walk's leaf test.
    mnodes: Vec<u64>,
    /// Prefix offsets of each feature's `cuts + 2` mask-table ranks
    /// (`0 ..= cuts + 1`); the extra trailing entry is the table size.
    feat_base: Vec<u32>,
    roots: Vec<u32>,
    /// Per-root max depth when every tree is at most
    /// [`UNROLL_MAX_DEPTH`] deep, so short blocks can run ladders;
    /// `None` sends every block through the mask walk.
    ladder_depths: Option<Vec<u32>>,
    /// The ladders, built by [`ladders`](Self::ladders) on the first
    /// block below [`MASK_MIN_ROWS`] rows (like `FlatForest::attr`, on
    /// first use).
    ladders: OnceLock<Ladders>,
    /// Battery-level quantization, installed once by [`link_programs`]
    /// after every program in the battery has compiled; absent means
    /// this program buckets matrices against its own tables.
    shared: OnceLock<SharedCtx>,
}

impl ForestProgram {
    /// Lower `(nodes, roots)` — a validated flat forest — into a
    /// program, or `None` when the table does not quantize losslessly
    /// (the exactness fallback: the model keeps the scalar row walk).
    pub(crate) fn compile(nodes: &FlatTree, roots: &[u32]) -> Option<ForestProgram> {
        let n = nodes.n_nodes();
        let splits = || (0..n).filter(|&i| nodes.feature[i] != LEAF);
        // Distinct split columns, sorted: the union of per-tree touched
        // columns (leaves contribute nothing).
        let mut columns: Vec<u32> = splits().map(|i| nodes.feature[i]).collect();
        columns.sort_unstable();
        columns.dedup();
        if columns.len() > u16::MAX as usize {
            return None;
        }
        let slot_of = |column: u32| columns.binary_search(&column).expect("column is present");
        let pairs = splits()
            .filter(|&i| !nodes.threshold[i].is_nan())
            .map(|i| (nodes.feature[i], nodes.threshold[i]))
            .collect();
        let feats = quant_tables(&columns, pairs)?;

        // Mask-table layout: feature `slot` owns ranks `0 ..= cuts + 1`
        // starting at `feat_base[slot]`, one u64 row mask per rank per
        // block. Offsets must leave `u32::MAX` free as the leaf
        // sentinel; a forest big enough to overflow that keeps the
        // scalar row walk.
        let mut feat_base: Vec<u32> = Vec::with_capacity(feats.len() + 1);
        let mut total = 0usize;
        for fq in &feats {
            feat_base.push(total as u32);
            total += fq.len as usize + 2;
            if total >= u32::MAX as usize {
                return None;
            }
        }
        feat_base.push(total as u32);

        let mnodes = (0..n)
            .map(|i| {
                let f = nodes.feature[i];
                let maskofs = if f == LEAF {
                    u32::MAX
                } else {
                    let slot = slot_of(f);
                    feat_base[slot] + u32::from(qt_of(feats[slot].cuts(), nodes.threshold[i]))
                };
                u64::from(maskofs) << 32 | u64::from(nodes.right[i])
            })
            .collect();

        let all_depths = nodes.node_depths();
        let depths: Vec<u32> = roots.iter().map(|&r| all_depths[r as usize]).collect();
        Some(ForestProgram {
            feats,
            mnodes,
            feat_base,
            roots: roots.to_vec(),
            ladder_depths: depths
                .iter()
                .all(|&d| d <= UNROLL_MAX_DEPTH)
                .then_some(depths),
            ladders: OnceLock::new(),
            shared: OnceLock::new(),
        })
    }

    /// Every tree's ladder, in forest order, for the per-root `depths`
    /// of a shallow program. Built once, on first call, in one
    /// allocation.
    fn ladders(&self, depths: &[u32]) -> &Ladders {
        self.ladders.get_or_init(|| {
            let len = |depth: u32| (2usize << depth) - 1;
            let mut slots = Vec::with_capacity(depths.iter().map(|&d| len(d)).sum());
            let start = self
                .roots
                .iter()
                .zip(depths)
                .map(|(&root, &depth)| {
                    let start = slots.len();
                    slots.resize(start + len(depth), 0);
                    let (nodes, leaf) = slots[start..].split_at_mut((1usize << depth) - 1);
                    self.fill_ladder(root as usize, 0, depth, nodes, leaf);
                    start
                })
                .collect();
            Ladders { start, slots }
        })
    }

    /// Expand a (depth ≤ [`UNROLL_MAX_DEPTH`]) tree rooted at `id` into
    /// its perfect-binary ladder, reading the mask walk's node table:
    /// split `i`'s `feat_slot`/`qt` decode from its mask offset, its left
    /// child is `i + 1` (the preorder invariant) and its right child the
    /// low half of `mnodes`. Early leaves become `qt = 0` spine nodes that
    /// force every lane right until the bottom level, where the original
    /// leaf's node id lands; slots no walk can reach stay zero.
    fn fill_ladder(
        &self,
        id: usize,
        slot: usize,
        levels_left: u32,
        ladder: &mut [u32],
        leaf: &mut [u32],
    ) {
        let nd = self.mnodes[id];
        let maskofs = (nd >> 32) as u32;
        let is_leaf = maskofs == u32::MAX;
        if levels_left == 0 {
            // Bottom level: `node_depths` guarantees every path from the
            // root has reached its leaf by now.
            debug_assert!(is_leaf, "ladder bottom must be a leaf");
            leaf[slot - ladder.len()] = id as u32;
            return;
        }
        if is_leaf {
            // Early leaf: pad with an always-right sentinel (`qt = 0`;
            // every bucket is ≥ 1) and push the leaf down the right spine.
            ladder[slot] = 0;
            self.fill_ladder(id, 2 * slot + 2, levels_left - 1, ladder, leaf);
            return;
        }
        // A split's mask offset is `feat_base[feat_slot] + qt` with
        // `qt ≤ cuts + 1`, so its feature slot is the last base at or
        // below the offset.
        let feat_slot = self.feat_base.partition_point(|&b| b <= maskofs) - 1;
        let qt = maskofs - self.feat_base[feat_slot];
        ladder[slot] = (feat_slot as u32) << 16 | qt;
        self.fill_ladder(id + 1, 2 * slot + 1, levels_left - 1, ladder, leaf);
        let right = (nd & u64::from(u32::MAX)) as usize;
        self.fill_ladder(right, 2 * slot + 2, levels_left - 1, ladder, leaf);
    }

    /// Whether `x` has every column this program splits on (`feats` is
    /// sorted by column, so the last is the widest). The program ranks
    /// whole columns, so a narrower matrix — whose missing values the
    /// row walk reads as 0.0 — must take the scalar row walk.
    pub(crate) fn fits(&self, x: &ColMatrix) -> bool {
        self.feats
            .last()
            .is_none_or(|fq| (fq.column as usize) < x.n_cols())
    }

    /// Walk every tree over every row of `x`, calling
    /// `sink(row, leaf_node_id, leaf_value)`, with leaf values read from
    /// `value` — the `threshold` table of the flat forest this program
    /// was compiled from. Trees run in forest order
    /// and each row fires exactly once per tree, so every row sees its
    /// trees in forest order — the scalar row walk's per-row fold order
    /// exactly — and per-row sums and attribution deposits are
    /// bit-identical. (Within one tree the *row* order is unspecified:
    /// the mask walk emits leaves in traversal order. Rows never fold
    /// into each other, so only the per-row tree order matters.) The
    /// caller must already have checked [`fits`](Self::fits), which
    /// bounds every column this program buckets.
    pub(crate) fn walk_batch(
        &self,
        x: &ColMatrix,
        value: &[f64],
        sink: &mut impl FnMut(usize, u32, f64),
    ) {
        // The walks index `value` unchecked by node id.
        assert_eq!(
            value.len(),
            self.mnodes.len(),
            "value table of another forest"
        );
        let n = x.n_rows();
        if n == 0 {
            return;
        }
        // Quantize the whole matrix up front: touched columns only, two
        // bytes a rank. Linked batteries rank the matrix once against
        // the shared merged tables and remap to local ranks — a table
        // lookup per value; unlinked programs (and short matrices, where
        // serve-path traffic would outweigh the win) bucket locally (see
        // [`FeatQuant::bucket_column`]).
        let mut q = vec![0u16; self.feats.len() * n];
        if let Some((ctx, mq)) = self.shared_ranks(x) {
            for slot in 0..self.feats.len() {
                let ms = ctx.mslot[slot] as usize;
                let src = &mq[ms * n..(ms + 1) * n];
                let map = &ctx.down[ctx.down_base[slot] as usize..ctx.down_base[slot + 1] as usize];
                for (d, &mb) in q[slot * n..(slot + 1) * n].iter_mut().zip(src) {
                    *d = map[mb as usize];
                }
            }
        } else {
            let mut counts: Vec<f64> = Vec::new();
            for (slot, fq) in self.feats.iter().enumerate() {
                fq.bucket_column(
                    x.col(fq.column as usize),
                    &mut q[slot * n..(slot + 1) * n],
                    &mut counts,
                );
            }
        }
        let mut masks = vec![0u64; *self.feat_base.last().expect("non-empty") as usize];
        let mut stack: Vec<(u32, u64)> = Vec::with_capacity(64);
        let mut tile: Vec<u16> = Vec::new();
        let mut start = 0;
        while start < n {
            let len = block_len(n - start);
            match &self.ladder_depths {
                Some(depths) if len < MASK_MIN_ROWS => {
                    if tile.is_empty() {
                        tile = vec![1u16; self.feats.len() * BLOCK_ROWS];
                    }
                    self.ladder_block(&q, n, start, len, value, depths, &mut tile, sink);
                }
                _ => self.mask_block(&q, n, start, len, value, &mut masks, &mut stack, sink),
            }
            start += len;
        }
    }

    /// The battery's merged ranks of `x` with this program's view of
    /// them, or `None` when `x` must be bucketed locally: the program
    /// is unlinked, `x` is shorter than [`MASK_MIN_ROWS`] rows, or `x`
    /// is narrower than the merged tables (which may span columns this
    /// program never touches, so `x` can still be legal for *this*
    /// program). The first linked model to ask ranks `x` and stores the
    /// ranks on it; ranks some other battery left there fail the owner
    /// check and this program buckets locally.
    fn shared_ranks<'x>(&self, x: &'x ColMatrix) -> Option<(&SharedCtx, &'x [u16])> {
        if x.n_rows() < MASK_MIN_ROWS {
            return None;
        }
        let ctx = self
            .shared
            .get()
            .filter(|ctx| (ctx.quant.max_column as usize) < x.n_cols())?;
        let (owner, ranks) = x
            .battery_ranks
            .get_or_init(|| (Arc::downgrade(&ctx.quant), ctx.quant.rank(x)));
        std::ptr::eq(owner.as_ptr(), Arc::as_ptr(&ctx.quant)).then_some((ctx, ranks.as_slice()))
    }

    /// Mask-propagation engine for one block of 1 to [`BLOCK_ROWS`] rows.
    ///
    /// Builds the per-feature rank → row-mask tables (histogram +
    /// prefix-OR: `masks[feat_base[slot] + qt]` = rows whose bucket is
    /// `≤ qt`, so rank 0 — NaN splits — is correctly empty), then walks
    /// each tree once in preorder. At a split, `m & mask` is *exactly*
    /// the rows taking the left branch (`bucket ≤ qt ⟺ v <= t`); empty
    /// branches are pruned, the left spine is followed in-loop and
    /// pending right subtrees stack up. Every row lands exactly one
    /// leaf per tree — the masks at any level partition the block's
    /// rows — so the sink fires once per (tree, row), rows in
    /// traversal order within the tree.
    #[allow(clippy::too_many_arguments)]
    fn mask_block(
        &self,
        q: &[u16],
        n: usize,
        start: usize,
        len: usize,
        value: &[f64],
        masks: &mut [u64],
        stack: &mut Vec<(u32, u64)>,
        sink: &mut impl FnMut(usize, u32, f64),
    ) {
        for (slot, fq) in self.feats.iter().enumerate() {
            let base = self.feat_base[slot] as usize;
            let ranks = fq.len as usize + 2;
            masks[base..base + ranks].fill(0);
            for (r, &b) in q[slot * n + start..slot * n + start + len]
                .iter()
                .enumerate()
            {
                masks[base + b as usize] |= 1u64 << r;
            }
            for k in base + 1..base + ranks {
                masks[k] |= masks[k - 1];
            }
        }
        let full = if len == 64 { !0u64 } else { (1u64 << len) - 1 };
        for &root in &self.roots {
            stack.clear();
            let mut node = root as usize;
            let mut m = full;
            loop {
                // SAFETY: `node` is a validated table id — the root, a
                // right pointer the decode guard range-checked, or a
                // preorder left child (`node + 1`, in range because
                // splits are never the last table entry); `mnodes` and
                // `value` are table-length (`walk_batch` asserts the
                // latter). A split's `maskofs` is
                // `feat_base[slot] + qt ≤ feat_base[slot + 1] - 1 <
                // masks.len()` by construction. Checked indexing here
                // costs as much as the mask AND itself.
                let nd = unsafe { *self.mnodes.get_unchecked(node) };
                if nd >> 32 == u64::from(u32::MAX) {
                    let v = unsafe { *value.get_unchecked(node) };
                    let mut bits = m;
                    while bits != 0 {
                        let r = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        sink(start + r, node as u32, v);
                    }
                    match stack.pop() {
                        Some((pending, pm)) => {
                            node = pending as usize;
                            m = pm;
                        }
                        None => break,
                    }
                } else {
                    let cmp = unsafe { *masks.get_unchecked((nd >> 32) as usize) };
                    let left = m & cmp;
                    let right = m & !cmp;
                    if left != 0 {
                        if right != 0 {
                            stack.push((nd as u32, right));
                        }
                        // Preorder invariant: left child is `node + 1`.
                        node += 1;
                        m = left;
                    } else {
                        // `m` is non-empty by construction, so it all
                        // went right.
                        node = (nd & u64::from(u32::MAX)) as usize;
                    }
                }
            }
        }
    }

    /// Ladder engine for one short block of a shallow program: re-packs
    /// the block's ranks into a compile-time-stride tile (bucket index
    /// becomes shift-and-add) and runs each tree's ladder [`LANES`] rows
    /// at a time. Padding lanes hold bucket 1 (any real rank) so their
    /// walks stay in bounds and are discarded before the sink.
    #[allow(clippy::too_many_arguments)]
    fn ladder_block(
        &self,
        q: &[u16],
        n: usize,
        start: usize,
        len: usize,
        value: &[f64],
        depths: &[u32],
        tile: &mut [u16],
        sink: &mut impl FnMut(usize, u32, f64),
    ) {
        let padded = len.next_multiple_of(LANES);
        for slot in 0..self.feats.len() {
            let dst = &mut tile[slot * BLOCK_ROWS..slot * BLOCK_ROWS + padded];
            dst[..len].copy_from_slice(&q[slot * n + start..slot * n + start + len]);
            dst[len..].fill(1);
        }
        let ladders = self.ladders(depths);
        for (&depth, &at) in depths.iter().zip(&ladders.start) {
            let inner = (1usize << depth) - 1;
            let nodes = &ladders.slots[at..at + inner];
            let leaf = &ladders.slots[at + inner..at + 2 * inner + 1];
            for base in (0..padded).step_by(LANES) {
                ladder_lanes(depth, nodes, tile, base, leaf, value, len, start, sink);
            }
        }
    }
}

/// Rows in the next block when `left` rows remain: a full
/// [`BLOCK_ROWS`] block, except that a remainder under
/// [`MASK_MIN_ROWS`] is never left behind — the last two blocks share
/// their rows instead. Every block of a batch of at least
/// `MASK_MIN_ROWS` rows therefore runs the mask walk, and only batches
/// shorter than that (serve micro-batches) build and run the ladders.
fn block_len(left: usize) -> usize {
    if left > BLOCK_ROWS && left < BLOCK_ROWS + MASK_MIN_ROWS {
        left.div_ceil(2)
    } else {
        left.min(BLOCK_ROWS)
    }
}

/// One [`LANES`]-wide sweep of an unrolled ladder, monomorphized per
/// depth so the step loop fully unrolls into a branchless compare
/// ladder.
#[allow(clippy::too_many_arguments)]
#[inline]
fn ladder_lanes(
    depth: u32,
    nodes: &[u32],
    tile: &[u16],
    base: usize,
    leaf: &[u32],
    value: &[f64],
    len: usize,
    start: usize,
    sink: &mut impl FnMut(usize, u32, f64),
) {
    macro_rules! dispatch {
        ($($d:literal),*) => {
            match depth {
                $($d => ladder_steps::<$d>(nodes, tile, base, leaf, value, len, start, sink),)*
                _ => unreachable!("ladder depth exceeds UNROLL_MAX_DEPTH"),
            }
        };
    }
    dispatch!(0, 1, 2, 3, 4, 5, 6, 7, 8)
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn ladder_steps<const D: u32>(
    nodes: &[u32],
    tile: &[u16],
    base: usize,
    leaf: &[u32],
    value: &[f64],
    len: usize,
    start: usize,
    sink: &mut impl FnMut(usize, u32, f64),
) {
    let first = (1usize << D) - 1;
    debug_assert_eq!(nodes.len(), first);
    debug_assert_eq!(leaf.len(), 1 << D);
    debug_assert!(base + LANES <= BLOCK_ROWS && tile.len().is_multiple_of(BLOCK_ROWS));
    let mut slot = [0usize; LANES];
    for _ in 0..D {
        for (l, s) in slot.iter_mut().enumerate() {
            // SAFETY: after k < D steps a slot satisfies `s < 2^k - 1 +
            // 2^k = 2^{k+1} - 1 ≤ 2^D - 1 = nodes.len()` (each step maps
            // `s → 2s + 1 + b`, `b ∈ {0, 1}`), so the node load is in
            // bounds; the bucket index is `feat_slot * BLOCK_ROWS + base
            // + l` with `feat_slot < tile.len() / BLOCK_ROWS` (compile
            // packs only real feature slots) and `base + l < BLOCK_ROWS`.
            // Bounds checks here cost more than the whole compare — this
            // loop is the entire short-block inner kernel.
            unsafe {
                let nd = *nodes.get_unchecked(*s);
                let b = *tile.get_unchecked((nd >> 16) as usize * BLOCK_ROWS + base + l);
                *s = 2 * *s + 1 + usize::from(b > nd as u16);
            }
        }
    }
    for (l, &s) in slot.iter().enumerate() {
        if base + l < len {
            // SAFETY: D steps land every slot in the bottom level:
            // `first ≤ s < 2^{D+1} - 1`, so `s - first < 2^D`; `leaf`
            // holds original node ids, all `< value.len()`.
            let bottom = s - first;
            unsafe {
                let id = *leaf.get_unchecked(bottom);
                sink(start + base + l, id, *value.get_unchecked(id as usize));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ColMatrix;
    use crate::forest::RandomForest;
    use crate::infer::CompiledClassifier;
    use crate::Classifier;

    fn synth_rows(n: usize, cols: usize, salt: u64) -> Vec<Vec<f64>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt | 1);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        (0..n)
            .map(|_| (0..cols).map(|_| next() * 10.0 - 5.0).collect())
            .collect()
    }

    /// A preorder left-spine chain of `splits` nodes on feature 0 with
    /// distinct thresholds, every right edge sharing one bottom leaf — a
    /// legal DAG-shaped wire table that is `splits` levels deep.
    fn chain_tree(splits: usize) -> FlatTree {
        let mut t = FlatTree::default();
        let leaf = splits as u32;
        for i in 0..splits {
            t.feature.push(0);
            t.threshold.push(i as f64 * 0.25 - 8.0);
            t.right.push(leaf);
        }
        t.feature.push(LEAF);
        t.threshold.push(42.0);
        t.right.push(leaf);
        t
    }

    /// The scalar reference for a tree model: `score_from` per tree,
    /// folded like the row walk.
    fn reference(model: &CompiledClassifier, row: &[f64]) -> f64 {
        match model {
            CompiledClassifier::Forest(forest) => forest.score_row(row),
            CompiledClassifier::Tree(tree) => tree.score_from(0, row),
            _ => unreachable!("tree models only"),
        }
    }

    /// Batch scores and attributions of `rows` against the per-row
    /// scalar references, bit for bit.
    fn assert_matches_reference(model: &CompiledClassifier, rows: &[Vec<f64>], context: &str) {
        let x = ColMatrix::from_rows(rows);
        let scores = model.predict_batch(&x);
        let attributions = model.attribute_batch(&x);
        assert_eq!(scores.len(), rows.len(), "{context}");
        for (i, row) in rows.iter().enumerate() {
            let want = reference(model, row);
            assert_eq!(scores[i].to_bits(), want.to_bits(), "{context}: row {i}");
            assert_eq!(
                attributions[i],
                model.attribute_row(row),
                "{context}: attribution row {i}"
            );
        }
    }

    fn trained_forest(rows: &[Vec<f64>], label: impl Fn(&[f64]) -> bool) -> CompiledClassifier {
        let y: Vec<usize> = rows.iter().map(|r| label(r) as usize).collect();
        let mut f = RandomForest::new();
        f.fit(rows, &y);
        f.compile().unwrap()
    }

    #[test]
    fn optimized_forest_scores_bit_identically() {
        let rows = synth_rows(150, 7, 3);
        let optimized = trained_forest(&rows, |r| r[0] + r[1] > 0.0);
        assert!(optimized.optimize());
        assert_matches_reference(&optimized, &rows, "150 rows");
    }

    #[test]
    fn mask_and_lane_engines_agree_across_block_sizes() {
        // Batch sizes straddling MASK_MIN_ROWS and BLOCK_ROWS: tiny
        // batches take the ladder path, 64-row blocks the mask walk,
        // and sizes in between split their last two blocks (65 rows run
        // as 33 + 32). All must equal the scalar row walk bitwise.
        let rows = synth_rows(200, 6, 23);
        let optimized = trained_forest(&rows, |r| r[2] > 0.5);
        assert!(optimized.optimize());
        for take in [1usize, MASK_MIN_ROWS - 1, MASK_MIN_ROWS, 64, 65, 150] {
            assert_matches_reference(&optimized, &rows[..take], &format!("take={take}"));
        }
    }

    #[test]
    fn ladders_are_built_on_the_first_short_block_only() {
        // Batches of at least MASK_MIN_ROWS rows (bulk scoring,
        // attribution) never read a ladder, whatever their tail, so an
        // optimized model holds none until a shorter batch arrives; from
        // then on short blocks run the ladders and stay bitwise equal to
        // the scalar row walk.
        let rows = synth_rows(150, 6, 29);
        let optimized = trained_forest(&rows, |r| r[1] > 0.1);
        assert!(optimized.optimize());
        let prog = optimized.program().expect("compiled");
        assert!(prog.ladder_depths.is_some(), "trained trees unroll");
        let built = || prog.ladders.get().is_some();
        assert!(!built(), "optimize() built ladders");
        for take in [MASK_MIN_ROWS, 64, 65, 95, 96, 150] {
            assert_matches_reference(&optimized, &rows[..take], &format!("take={take}"));
            assert!(!built(), "a {take}-row batch built ladders");
        }
        for take in [1usize, MASK_MIN_ROWS - 1] {
            assert_matches_reference(&optimized, &rows[..take], &format!("take={take}"));
            assert!(built(), "a {take}-row batch ran without ladders");
        }
    }

    #[test]
    fn long_batches_leave_no_short_block() {
        for n in 1..=4 * BLOCK_ROWS {
            let mut blocks = Vec::new();
            let mut left = n;
            while left > 0 {
                let len = block_len(left);
                blocks.push(len);
                left -= len;
            }
            assert!(blocks.iter().all(|&b| b <= BLOCK_ROWS), "{n}: {blocks:?}");
            if n >= MASK_MIN_ROWS {
                assert!(
                    blocks.iter().all(|&b| b >= MASK_MIN_ROWS),
                    "{n}: {blocks:?}"
                );
            } else {
                assert_eq!(blocks, [n]);
            }
        }
    }

    #[test]
    fn deep_chains_take_the_mask_walk_on_short_blocks() {
        // 40 levels is past UNROLL_MAX_DEPTH, so the program builds no
        // ladders and short blocks run the mask walk too — over a
        // DAG-shaped table no ladder could expand node-per-slot, whose
        // shared bottom leaf the walk visits once per incoming path with
        // disjoint masks.
        let model = CompiledClassifier::Tree(chain_tree(40));
        assert!(model.optimize());
        let mut rows = synth_rows(90, 3, 11);
        rows[0][0] = -8.0;
        rows[7][0] = f64::NAN;
        rows[33][0] = -8.0;
        for take in [1usize, 8, MASK_MIN_ROWS - 1, MASK_MIN_ROWS, 65, 90] {
            assert_matches_reference(&model, &rows[..take], &format!("take={take}"));
        }
        let prog = model.program().expect("compiled");
        assert!(prog.ladder_depths.is_none() && prog.ladders.get().is_none());
    }

    #[test]
    fn oversized_cut_tables_take_the_exactness_fallback() {
        // One feature with MAX_CUTS + 2 distinct thresholds cannot rank
        // into u16 buckets losslessly: compile must refuse and leave the
        // scalar row walk in charge.
        let model = CompiledClassifier::Tree(chain_tree(MAX_CUTS + 2));
        assert!(!model.optimize());
        let rows = synth_rows(5, 2, 17);
        assert_matches_reference(&model, &rows, "oversized");
    }

    #[test]
    fn nan_split_thresholds_quantize_to_always_false() {
        let mut tree = FlatTree::default();
        tree.feature = vec![0, LEAF, LEAF];
        tree.threshold = vec![f64::NAN, 1.0, 2.0];
        tree.right = vec![2, 1, 2];
        assert!(tree.optimize());
        let x = ColMatrix::from_rows(&synth_rows(130, 3, 19));
        assert!(tree.predict_batch(&x).iter().all(|&p| p == 2.0));
    }

    #[test]
    fn linked_batteries_share_ranks_and_stay_bit_identical() {
        // Two forests trained on overlapping features get linked to one
        // merged quantization; scoring must stay bitwise equal to the
        // scalar row walk across the mask/ladder block-size boundary
        // (the shared path only covers full blocks).
        let rows = synth_rows(180, 6, 41);
        let ca = trained_forest(&rows, |r| r[0] > 0.2);
        let cb = trained_forest(&rows, |r| r[3] + r[4] > -0.5);
        assert!(ca.optimize() && cb.optimize());
        crate::infer::link_battery([&ca, &cb], []);
        assert!(ca.program().unwrap().shared.get().is_some());
        for take in [MASK_MIN_ROWS - 1, MASK_MIN_ROWS, 64, 65, 180] {
            for model in [&ca, &cb] {
                assert_matches_reference(model, &rows[..take], &format!("take={take}"));
            }
        }
    }

    #[test]
    fn battery_ranks_live_on_the_matrix_for_their_own_battery() {
        // Two linked batteries score one matrix: the first model ranks it
        // for its battery and leaves the ranks on the matrix, its sibling
        // reads them, and the other battery's models bucket locally. All
        // four stay bitwise equal to the scalar row walk.
        let rows = synth_rows(96, 6, 43);
        let x = ColMatrix::from_rows(&rows);
        let ca = trained_forest(&rows, |r| r[0] > 0.2);
        let cb = trained_forest(&rows, |r| r[3] > 0.1);
        let cc = trained_forest(&rows, |r| r[1] > -0.3);
        let cd = trained_forest(&rows, |r| r[4] < 0.4);
        crate::infer::link_battery([&ca, &cb], []);
        crate::infer::link_battery([&cc, &cd], []);
        for model in [&ca, &cb, &cc, &cd] {
            let scores = model.predict_batch(&x);
            for (row, got) in rows.iter().zip(&scores) {
                assert_eq!(got.to_bits(), reference(model, row).to_bits());
            }
        }
        let quant = &ca.program().unwrap().shared.get().unwrap().quant;
        let (owner, ranks) = x.battery_ranks.get().expect("the first model ranked x");
        assert!(std::ptr::eq(owner.as_ptr(), Arc::as_ptr(quant)));
        assert_eq!(ranks.len(), quant.feats.len() * rows.len());
    }

    #[test]
    fn down_tables_remap_merged_ranks_exactly() {
        // local ⊆ merged (signed zeros deduped by `==` in both): for any
        // probe, ranking against merged then remapping must equal
        // ranking against local directly.
        let local = quant(vec![-2.0, 0.0, 3.5]);
        let merged = quant(vec![-7.25, -2.0, -0.0, 1.0, 3.5, 9.0]);
        let mut down = Vec::new();
        down_table(merged.cuts(), local.cuts(), &mut down);
        assert_eq!(down.len(), merged.cuts().len() + 2);
        for v in [
            -100.0,
            -7.25,
            -2.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            3.5,
            9.0,
            42.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let mb = bucket_one(&merged, v);
            assert_eq!(down[mb as usize], bucket_one(&local, v), "v={v}");
        }
    }

    /// Rank a single value through the production search path.
    fn bucket_one(fq: &FeatQuant, v: f64) -> u16 {
        let mut dst = [0u16; 1];
        fq.bucket_column(&[v], &mut dst, &mut Vec::new());
        dst[0]
    }

    fn quant(cuts: Vec<f64>) -> FeatQuant {
        let len = cuts.len();
        let mut pad = cuts;
        pad.resize(len.next_power_of_two(), f64::INFINITY);
        FeatQuant {
            column: 0,
            len: len as u32,
            pad: pad.into_boxed_slice(),
        }
    }

    #[test]
    fn quant_tables_sort_dedup_and_pad_each_column_once() {
        let pairs = vec![(3, 2.0), (1, 0.0), (3, -1.0), (1, -0.0), (3, 2.0), (1, 5.0)];
        let feats = quant_tables(&[1, 2, 3], pairs).expect("fits u16");
        let cuts: Vec<&[f64]> = feats.iter().map(FeatQuant::cuts).collect();
        assert_eq!(cuts, [&[-0.0, 5.0][..], &[], &[-1.0, 2.0]]);
        for fq in &feats {
            assert_eq!(fq.pad.len(), (fq.len as usize).next_power_of_two());
            assert!(fq.pad[fq.len as usize..]
                .iter()
                .all(|&c| c == f64::INFINITY));
        }
        let many = (0..=MAX_CUTS).map(|i| (0, i as f64)).collect();
        assert!(quant_tables(&[0], many).is_none());
    }

    #[test]
    fn buckets_rank_against_cuts_exactly() {
        let fq = quant(vec![-1.5, 0.0, 2.25]);
        // v <= c[i]  ⟺  bucket(v) <= i + 1, for every cut and probe.
        for (i, &c) in fq.cuts().iter().enumerate() {
            let qt = qt_of(fq.cuts(), c);
            assert_eq!(qt, i as u16 + 1);
            for &v in &[-10.0, -1.5, -0.0, 0.0, 1.0, 2.25, 3.0, f64::NAN] {
                assert_eq!(v <= c, bucket_one(&fq, v) <= qt, "v={v} c={c}");
            }
        }
        // NaN thresholds rank 0: no bucket ever satisfies them.
        assert_eq!(qt_of(fq.cuts(), f64::NAN), 0);
        assert!(bucket_one(&fq, f64::NAN) > 0);
    }

    #[test]
    fn signed_zero_cuts_share_a_rank() {
        let mut cuts = vec![0.0, -0.0, 1.0];
        cuts.sort_by(f64::total_cmp);
        cuts.dedup_by(|a, b| *a == *b);
        assert_eq!(cuts.len(), 2);
        assert_eq!(qt_of(&cuts, 0.0), qt_of(&cuts, -0.0));
    }

    #[test]
    fn branchless_search_matches_the_reference_rank() {
        // The padded-table lower bound must reproduce the definitional
        // rank `1 + #{cuts < v}` for every value — duplicates, signed
        // zeros, infinities, out-of-range values and NaNs included (NaN
        // ranks past every cut, and the +∞ pads are invisible even to
        // v = +∞).
        let reference = |cuts: &[f64], v: f64| -> u16 {
            if v.is_nan() {
                cuts.len() as u16 + 1
            } else {
                cuts.iter().filter(|&&c| c < v).count() as u16 + 1
            }
        };
        // Past COUNT_CUTS_MAX the padded binary search takes over; the
        // non-power-of-two 100-cut table exercises it (and its +∞
        // padding) on the same probes.
        let big: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37 - 18.0).collect();
        for cuts in [
            vec![],
            vec![0.25],
            vec![-3.0, -0.0, 0.5, 2.0, 9.75],
            vec![-3.0, -0.0, 0.5, 2.0, f64::INFINITY],
            big,
        ] {
            let fq = quant(cuts);
            for v in [
                5.0,
                f64::NAN,
                -0.0,
                0.5,
                -7.0,
                0.0,
                60.0,
                2.0,
                -3.0,
                9.75,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ] {
                assert_eq!(bucket_one(&fq, v), reference(fq.cuts(), v), "v={v}");
            }
        }
    }
}
