//! The battery compiler: lowers a flattened forest into a quantized,
//! feature-pruned, depth-unrolled scoring program.
//!
//! The PR 4 interpreter ([`FlatTree::score_block`]-style lockstep over
//! [`KernelTables`](crate::infer::KernelTables)) still pays for generic
//! trees on every step: an 8-byte packed node plus an 8-byte threshold
//! load, a double compare, and a 50 KiB row-major `f64` block gathered
//! per model per block whether or not a column is ever split on.
//! [`ForestProgram`] removes that interpretive overhead at *compile*
//! time — a load/reload-time step behind `optimize()`, never a wire
//! format change:
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
//!   and the caller keeps the exact interpreter — the exactness
//!   fallback. Ranking is a branchless binary search over a
//!   power-of-two cut table padded with `+∞`: `log2(cuts)`
//!   conditional-move steps per value, no sort of the matrix, and the
//!   searches for different rows are independent so they pipeline.
//! - **Feature-subset pruning.** Each tree records the columns its
//!   splits actually touch; row prep buckets only the union of touched
//!   columns into a packed per-matrix `u16` table (row-major per
//!   feature slot), so dead columns are never gathered and the whole
//!   working set drops from ~50 KiB of `f64` per block to a few KiB of
//!   ranks that stay cache-resident across all 200 trees.
//! - **Mask-propagation blocks.** A full block never descends per row
//!   at all. The program first builds, per feature, a table of 64-bit
//!   row masks indexed by cut rank — `mask(qt)` = "rows of this block
//!   whose bucket is ≤ qt", a histogram over the block's ranks followed
//!   by a prefix-OR — and every split node's compare against the whole
//!   block becomes *one load* of `mask(qt)`. Each tree is then walked
//!   once in preorder, propagating row-set masks (`left = m & mask`,
//!   `right = m & !mask`) and skipping any subtree whose mask goes
//!   empty, so the work scales with the nodes the block actually
//!   reaches (≈ one visit per node) instead of `rows × depth` lockstep
//!   steps. Landed rows pop out of the leaf masks bit by bit, one
//!   `(row, leaf, value)` sink call each.
//! - **Depth-unrolled hot trees.** Short batches — serve-style
//!   single-row scoring, anything below [`MASK_MIN_ROWS`] rows (longer
//!   batches never leave a shorter tail block, see `block_len`) —
//!   can't amortize mask tables, so trees whose depth is at most
//!   [`UNROLL_MAX_DEPTH`] also get a perfect-binary ladder: slot `j`
//!   steps to `2j + 1 + (bucket > qt)` with no child pointer load, the
//!   step count a compile-time constant (monomorphized per depth),
//!   early leaves padded down the always-right spine with `qt = 0`
//!   sentinels. Deeper trees (wire-decoded, custom configs) run a
//!   quantized lockstep loop over the shared node table on that path.
//!   Ladders are built from the quantized node table on the first short
//!   block, not at compile: a depth-8 ladder is 511 slots for a tree of a
//!   few dozen nodes, and a model that only ever scores full blocks
//!   (bulk scoring, retraining) never pays that memory.
//!
//! Every decision the program makes is provably the decision the
//! interpreter makes, so leaf values — and therefore scores *and*
//! attribution deposits, which only depend on the landed leaf — are
//! bit-identical. The equality gate in `tests/` and the
//! `inference_kernel` bench enforce this end to end.

use crate::dataset::ColMatrix;
use crate::infer::{FlatTree, BLOCK_ROWS, LANES, LEAF};

/// Trees at or below this depth compile to the branchless unrolled
/// ladder; deeper trees keep the (quantized) lockstep loop. 8 matches
/// the default `TreeConfig::max_depth`, so trained batteries unroll
/// every tree; the ladder for depth 8 is 255 nodes + 256 leaves — about
/// 2 KiB, comfortably L1-resident while a tree sweeps a block.
pub(crate) const UNROLL_MAX_DEPTH: u32 = 8;

/// Blocks with at least this many rows run the mask-propagation walk;
/// shorter blocks (single-row serve scoring, batches under this size)
/// keep the ladder/lockstep descent, whose per-tree fixed cost is lower
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
/// losslessly and `compile` falls back to the interpreter.
pub(crate) const MAX_CUTS: usize = u16::MAX as usize - 1;

/// One touched feature: its source column and the forest-wide sorted
/// table of distinct finite split thresholds on that column.
#[derive(Debug, Clone)]
struct FeatQuant {
    column: u32,
    cuts: Vec<f64>,
    /// `cuts` padded with `+∞` to a power of two — the branchless
    /// search table. `+∞` pads are transparent: they are never `< v`,
    /// even for `v = +∞`, so the padded rank equals the real rank.
    pad: Vec<f64>,
}

impl FeatQuant {
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
        let top = self.cuts.len() as u16 + 1;
        if self.cuts.len() <= COUNT_CUTS_MAX {
            counts.clear();
            counts.resize(col.len(), 0.0);
            // Counting in f64 keeps the whole accumulation in one lane
            // width — compare, mask to 1.0, add — which the
            // autovectorizer handles; counts are integers well inside
            // exact f64 range. `c < NaN` is false for every cut, so
            // NaN rows sit at 0 and the conversion pass pins them to
            // the top bucket.
            for &c in &self.cuts {
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
/// per-column *union* of the programs' cut tables, plus a one-slot
/// cache of the last matrix ranked against it.
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
/// The cache keys on [`ColMatrix::identity`] — process-unique per
/// construction, so a hit can only mean the same immutable matrix —
/// and deliberately holds one entry: batch scoring walks one matrix
/// across all models before moving on, and short blocks (serve-style
/// single rows) never take this path at all (see
/// [`ForestProgram::walk_batch`]), so there is nothing to thrash.
#[derive(Debug)]
pub(crate) struct SharedQuant {
    feats: Vec<FeatQuant>,
    /// Largest source column any merged table reads; matrices narrower
    /// than this cannot be ranked shared and fall back to local
    /// bucketing.
    max_column: u32,
    cache: std::sync::Mutex<Option<(u64, std::sync::Arc<Vec<u16>>)>>,
}

impl SharedQuant {
    /// Merged ranks for `x`, slot-major (`feats.len() × n_rows` `u16`s),
    /// cached across the battery's walks over the same matrix. Computing
    /// under the lock is intentional: concurrent models asking for the
    /// same matrix should wait for one ranking, not race duplicates.
    fn ranks(&self, x: &ColMatrix) -> std::sync::Arc<Vec<u16>> {
        let mut slot = self.cache.lock().expect("rank cache poisoned");
        if let Some((id, q)) = slot.as_ref() {
            if *id == x.identity() {
                return q.clone();
            }
        }
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
        let q = std::sync::Arc::new(q);
        *slot = Some((x.identity(), q.clone()));
        q
    }
}

/// One program's view of a [`SharedQuant`]: where its feature slots sit
/// in the merged table and how merged ranks map back to local ranks.
#[derive(Debug, Clone)]
struct SharedCtx {
    quant: std::sync::Arc<SharedQuant>,
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
    let mut merged: std::collections::BTreeMap<u32, Vec<f64>> = std::collections::BTreeMap::new();
    for prog in programs {
        for fq in &prog.feats {
            merged
                .entry(fq.column)
                .or_default()
                .extend_from_slice(&fq.cuts);
        }
    }
    let mut feats = Vec::with_capacity(merged.len());
    let mut max_column = 0u32;
    for (column, mut cuts) in merged {
        cuts.sort_by(f64::total_cmp);
        cuts.dedup_by(|a, b| a == b);
        if cuts.len() > MAX_CUTS {
            return;
        }
        let mut pad = cuts.clone();
        pad.resize(cuts.len().next_power_of_two(), f64::INFINITY);
        max_column = max_column.max(column);
        feats.push(FeatQuant { column, cuts, pad });
    }
    let quant = std::sync::Arc::new(SharedQuant {
        feats,
        max_column,
        cache: std::sync::Mutex::new(None),
    });
    let merged_slot = |column: u32| {
        quant
            .feats
            .binary_search_by_key(&column, |fq| fq.column)
            .expect("linked column")
    };
    for prog in programs {
        let mut mslot = Vec::with_capacity(prog.feats.len());
        let mut down = Vec::new();
        let mut down_base = Vec::with_capacity(prog.feats.len() + 1);
        for fq in &prog.feats {
            let ms = merged_slot(fq.column);
            mslot.push(ms as u32);
            down_base.push(down.len() as u32);
            down_table(&quant.feats[ms].cuts, &fq.cuts, &mut down);
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

/// One compiled tree on the short-block path: either an unrolled
/// perfect-binary ladder or a (root, depth) program over the shared
/// quantized node table. Full blocks ignore this and run the
/// mask-propagation walk from the tree's root.
#[derive(Debug, Clone)]
enum TreeProg {
    /// Perfect-binary ladder at `ShortTrees::ladders[start..]`:
    /// `2^depth - 1` packed nodes (`feat_slot << 16 | qt`), then the
    /// original node id of each of the `2^depth` bottom slots —
    /// attribution wants the id, and values come from the shared
    /// `value` table, so the ladder stays 2 KiB a tree instead of 4.
    /// Slot arithmetic replaces child pointers.
    Unrolled { depth: u32, start: usize },
    /// Quantized lockstep over the shared table — the preorder
    /// invariant (`left == i + 1`) holds globally, so no per-tree node
    /// extraction is needed and DAG-shaped wire forests cost nothing.
    Lockstep { root: u32, depth: u32 },
}

/// A program's short-block form: one [`TreeProg`] per tree, and the
/// ladders of the unrolled ones packed back to back.
#[derive(Debug, Clone)]
struct ShortTrees {
    trees: Vec<TreeProg>,
    ladders: Vec<u32>,
}

/// A [`FlatForest`](crate::infer::FlatForest) lowered to its vectorized
/// form. Built once by [`compile`](ForestProgram::compile) (behind
/// `optimize()`), immutable afterwards apart from its lazily built
/// short-block programs; scoring and attribution both drive
/// [`walk_batch`](ForestProgram::walk_batch).
#[derive(Debug, Clone)]
pub(crate) struct ForestProgram {
    feats: Vec<FeatQuant>,
    /// Shared quantized node table:
    /// `feat_slot << 48 | qt << 32 | right`. Leaves carry `qt = 0` and
    /// their self-looping `right`, so a finished lockstep lane holds
    /// position.
    qnodes: Vec<u64>,
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
    /// Original per-node values (leaf values in their threshold slots) —
    /// the leaf lookup for every engine.
    value: Vec<f64>,
    roots: Vec<u32>,
    /// Per-root max depth: picks ladder or lockstep, and is the
    /// lockstep step budget.
    depths: Vec<u32>,
    /// Per-tree short-block programs, built by
    /// [`short_trees`](Self::short_trees) on the first block below
    /// [`MASK_MIN_ROWS`] rows (like `FlatForest::attr`, on first use).
    short: std::sync::OnceLock<ShortTrees>,
    /// Battery-level quantization, installed once by [`link_programs`]
    /// after every program in the battery has compiled; absent means
    /// this program buckets matrices against its own tables.
    shared: std::sync::OnceLock<SharedCtx>,
}

impl ForestProgram {
    /// Lower `(nodes, roots, depths)` — a validated flat forest — into a
    /// program, or `None` when the table does not quantize losslessly
    /// (the exactness fallback: the caller keeps the interpreter).
    pub(crate) fn compile(
        nodes: &FlatTree,
        roots: &[u32],
        depths: &[u32],
    ) -> Option<ForestProgram> {
        let n = nodes.n_nodes();
        // Distinct split columns in first-touch order, then sorted: the
        // union of per-tree touched columns (leaves contribute nothing).
        let mut columns: Vec<u32> = nodes
            .feature
            .iter()
            .filter(|&&f| f != LEAF)
            .copied()
            .collect();
        columns.sort_unstable();
        columns.dedup();
        if columns.len() > u16::MAX as usize {
            return None;
        }
        let slot_of = |column: u32| columns.binary_search(&column).expect("column is present");
        let mut feats: Vec<FeatQuant> = columns
            .iter()
            .map(|&column| FeatQuant {
                column,
                cuts: Vec::new(),
                pad: Vec::new(),
            })
            .collect();
        for i in 0..n {
            if nodes.feature[i] != LEAF && !nodes.threshold[i].is_nan() {
                feats[slot_of(nodes.feature[i])]
                    .cuts
                    .push(nodes.threshold[i]);
            }
        }
        for fq in &mut feats {
            fq.cuts.sort_by(f64::total_cmp);
            // `==` dedup merges `-0.0`/`0.0`: `v <= -0.0 ⟺ v <= 0.0`
            // under IEEE, so one representative rank is exact for both.
            fq.cuts.dedup_by(|a, b| a == b);
            if fq.cuts.len() > MAX_CUTS {
                return None;
            }
            fq.pad = fq.cuts.clone();
            fq.pad
                .resize(fq.cuts.len().next_power_of_two(), f64::INFINITY);
        }

        // Mask-table layout: feature `slot` owns ranks `0 ..= cuts + 1`
        // starting at `feat_base[slot]`, one u64 row mask per rank per
        // block. Offsets must leave `u32::MAX` free as the leaf
        // sentinel; a forest big enough to overflow that keeps the
        // interpreter.
        let mut feat_base: Vec<u32> = Vec::with_capacity(feats.len() + 1);
        let mut total = 0usize;
        for fq in &feats {
            feat_base.push(total as u32);
            total += fq.cuts.len() + 2;
            if total >= u32::MAX as usize {
                return None;
            }
        }
        feat_base.push(total as u32);

        let mut qnodes = Vec::with_capacity(n);
        let mut mnodes = Vec::with_capacity(n);
        for i in 0..n {
            let f = nodes.feature[i];
            if f == LEAF {
                qnodes.push(u64::from(nodes.right[i]));
                mnodes.push(u64::from(u32::MAX) << 32 | u64::from(nodes.right[i]));
            } else {
                let slot = slot_of(f);
                let qt = qt_of(&feats[slot].cuts, nodes.threshold[i]);
                qnodes.push((slot as u64) << 48 | u64::from(qt) << 32 | u64::from(nodes.right[i]));
                mnodes.push(
                    u64::from(feat_base[slot] + u32::from(qt)) << 32 | u64::from(nodes.right[i]),
                );
            }
        }

        Some(ForestProgram {
            feats,
            qnodes,
            mnodes,
            feat_base,
            value: nodes.threshold.clone(),
            roots: roots.to_vec(),
            depths: depths.to_vec(),
            short: std::sync::OnceLock::new(),
            shared: std::sync::OnceLock::new(),
        })
    }

    /// The short-block program of every tree, in forest order: a ladder
    /// for trees at most [`UNROLL_MAX_DEPTH`] deep, lockstep otherwise.
    /// Built once, on first call, with every ladder in one allocation.
    fn short_trees(&self) -> &ShortTrees {
        self.short.get_or_init(|| {
            let unrolled = |depth: u32| depth <= UNROLL_MAX_DEPTH;
            let len = |depth: u32| (2usize << depth) - 1;
            let total = self
                .depths
                .iter()
                .filter(|&&d| unrolled(d))
                .map(|&d| len(d));
            let mut ladders = Vec::with_capacity(total.sum());
            let trees = self
                .roots
                .iter()
                .zip(&self.depths)
                .map(|(&root, &depth)| {
                    if !unrolled(depth) {
                        return TreeProg::Lockstep { root, depth };
                    }
                    let start = ladders.len();
                    ladders.resize(start + len(depth), 0);
                    let (nodes, leaf) = ladders[start..].split_at_mut((1usize << depth) - 1);
                    self.fill_ladder(root as usize, 0, depth, nodes, leaf);
                    TreeProg::Unrolled { depth, start }
                })
                .collect();
            ShortTrees { trees, ladders }
        })
    }

    /// Expand a (depth ≤ [`UNROLL_MAX_DEPTH`]) tree rooted at `id` into
    /// its perfect-binary ladder, reading the quantized node table:
    /// split `i`'s `feat_slot`/`qt` come from `qnodes`, its left child
    /// is `i + 1` (the preorder invariant) and its right child the low
    /// half of `qnodes`. Early leaves become `qt = 0` spine nodes that
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
        let is_leaf = self.mnodes[id] >> 32 == u64::from(u32::MAX);
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
        let nd = self.qnodes[id];
        ladder[slot] = ((nd >> 48) as u32) << 16 | u32::from((nd >> 32) as u16);
        self.fill_ladder(id + 1, 2 * slot + 1, levels_left - 1, ladder, leaf);
        let right = (nd & u64::from(u32::MAX)) as usize;
        self.fill_ladder(right, 2 * slot + 2, levels_left - 1, ladder, leaf);
    }

    /// Walk every tree over every row of `x`, calling
    /// `sink(row, leaf_node_id, leaf_value)`. Trees run in forest order
    /// and each row fires exactly once per tree, so every row sees its
    /// trees in forest order — the interpreter's per-row fold order
    /// exactly — and per-row sums and attribution deposits are
    /// bit-identical. (Within one tree the *row* order is unspecified:
    /// the mask walk emits leaves in traversal order. Rows never fold
    /// into each other, so only the per-row tree order matters.) The
    /// caller must already have passed the interpreter's one-time
    /// `max_feature < width` guard, which bounds every column this
    /// program buckets (both sides are the maximum split column of the
    /// same node table).
    pub(crate) fn walk_batch(&self, x: &ColMatrix, sink: &mut impl FnMut(usize, u32, f64)) {
        let n = x.n_rows();
        if n == 0 {
            return;
        }
        // Quantize the whole matrix up front: touched columns only, two
        // bytes a rank. Linked batteries rank the matrix once against
        // the shared merged tables (cached across sibling models) and
        // remap to local ranks — a table lookup per value; unlinked
        // programs (and short matrices, where serve-path cache traffic
        // would outweigh the win) bucket locally (see
        // [`FeatQuant::bucket_column`]). The shared tables may span
        // columns this program never touches, so a narrower matrix —
        // legal for *this* program — must take the local path.
        let mut q = vec![0u16; self.feats.len() * n];
        let shared = if n >= MASK_MIN_ROWS {
            self.shared
                .get()
                .filter(|ctx| (ctx.quant.max_column as usize) < x.n_cols())
        } else {
            None
        };
        if let Some(ctx) = shared {
            let mq = ctx.quant.ranks(x);
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
            if len >= MASK_MIN_ROWS {
                self.mask_block(&q, n, start, len, &mut masks, &mut stack, sink);
            } else {
                if tile.is_empty() {
                    tile = vec![1u16; self.feats.len() * BLOCK_ROWS];
                }
                self.lane_block(&q, n, start, len, &mut tile, sink);
            }
            start += len;
        }
    }

    /// Mask-propagation engine for one (≥ [`MASK_MIN_ROWS`]-row) block.
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
        masks: &mut [u64],
        stack: &mut Vec<(u32, u64)>,
        sink: &mut impl FnMut(usize, u32, f64),
    ) {
        for (slot, fq) in self.feats.iter().enumerate() {
            let base = self.feat_base[slot] as usize;
            let ranks = fq.cuts.len() + 2;
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
                // `value` are table-length. A split's `maskofs` is
                // `feat_base[slot] + qt ≤ feat_base[slot + 1] - 1 <
                // masks.len()` by construction. Checked indexing here
                // costs as much as the mask AND itself.
                let nd = unsafe { *self.mnodes.get_unchecked(node) };
                if nd >> 32 == u64::from(u32::MAX) {
                    let v = unsafe { *self.value.get_unchecked(node) };
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

    /// Per-lane descent engine for short blocks: re-packs the block's
    /// ranks into a compile-time-stride tile (bucket index becomes
    /// shift-and-add) and runs each tree's ladder — or the quantized
    /// lockstep loop for deep trees — [`LANES`] rows at a time. Padding
    /// lanes hold bucket 1 (any real rank) so their walks stay in
    /// bounds and are discarded before the sink.
    #[allow(clippy::too_many_arguments)]
    fn lane_block(
        &self,
        q: &[u16],
        n: usize,
        start: usize,
        len: usize,
        tile: &mut [u16],
        sink: &mut impl FnMut(usize, u32, f64),
    ) {
        let padded = len.next_multiple_of(LANES);
        for slot in 0..self.feats.len() {
            let dst = &mut tile[slot * BLOCK_ROWS..slot * BLOCK_ROWS + padded];
            dst[..len].copy_from_slice(&q[slot * n + start..slot * n + start + len]);
            dst[len..].fill(1);
        }
        let short = self.short_trees();
        for prog in &short.trees {
            match *prog {
                TreeProg::Unrolled { depth, start: at } => {
                    let inner = (1usize << depth) - 1;
                    let nodes = &short.ladders[at..at + inner];
                    let leaf = &short.ladders[at + inner..at + 2 * inner + 1];
                    for base in (0..padded).step_by(LANES) {
                        ladder_lanes(
                            depth,
                            nodes,
                            tile,
                            base,
                            leaf,
                            &self.value,
                            len,
                            start,
                            sink,
                        );
                    }
                }
                TreeProg::Lockstep { root, depth } => {
                    for base in (0..padded).step_by(LANES) {
                        let mut idx = [root as usize; LANES];
                        for _ in 0..depth {
                            for (l, i) in idx.iter_mut().enumerate() {
                                let nd = self.qnodes[*i];
                                let b = tile[(nd >> 48) as usize * BLOCK_ROWS + base + l];
                                *i = if b <= (nd >> 32) as u16 {
                                    *i + 1
                                } else {
                                    (nd & u64::from(u32::MAX)) as usize
                                };
                            }
                        }
                        for (l, &i) in idx.iter().enumerate() {
                            if base + l < len {
                                sink(start + base + l, i as u32, self.value[i]);
                            }
                        }
                    }
                }
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
            t.left.push(i as u32 + 1);
            t.right.push(leaf);
        }
        t.feature.push(LEAF);
        t.threshold.push(42.0);
        t.left.push(leaf);
        t.right.push(leaf);
        t
    }

    fn assert_programs_match(reference: &FlatTree, x: &ColMatrix) {
        let optimized = reference.clone();
        optimized.optimize();
        let a = reference.predict_batch(x);
        let b = optimized.predict_batch(x);
        for (i, (p, q)) in a.iter().zip(&b).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "row {i} diverged");
        }
    }

    #[test]
    fn optimized_forest_scores_bit_identically() {
        let rows = synth_rows(150, 7, 3);
        let y: Vec<usize> = rows.iter().map(|r| (r[0] + r[1] > 0.0) as usize).collect();
        let mut f = RandomForest::new();
        f.fit(&rows, &y);
        let compiled = f.compile().unwrap();
        let optimized = compiled.clone();
        assert!(optimized.optimize());
        let x = ColMatrix::from_rows(&rows);
        let a = compiled.predict_batch(&x);
        let b = optimized.predict_batch(&x);
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn mask_and_lane_engines_agree_across_block_sizes() {
        // Batch sizes straddling MASK_MIN_ROWS and BLOCK_ROWS: tiny
        // batches take the ladder path, 64-row blocks the mask walk,
        // and sizes in between split their last two blocks (65 rows run
        // as 33 + 32). All must equal the interpreter bitwise.
        let rows = synth_rows(200, 6, 23);
        let y: Vec<usize> = rows.iter().map(|r| (r[2] > 0.5) as usize).collect();
        let mut f = RandomForest::new();
        f.fit(&rows, &y);
        let compiled = f.compile().unwrap();
        let optimized = compiled.clone();
        assert!(optimized.optimize());
        for take in [1usize, MASK_MIN_ROWS - 1, MASK_MIN_ROWS, 64, 65, 150] {
            let x = ColMatrix::from_rows(&rows[..take]);
            let a = compiled.predict_batch(&x);
            let b = optimized.predict_batch(&x);
            for (i, (p, q)) in a.iter().zip(&b).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "take={take} row {i}");
            }
        }
    }

    #[test]
    fn ladders_are_built_on_the_first_short_block_only() {
        // Batches of at least MASK_MIN_ROWS rows (bulk scoring,
        // attribution) never read a ladder, whatever their tail, so an
        // optimized model holds none until a shorter batch arrives; from
        // then on short blocks run the ladders and stay bitwise equal to
        // the interpreter.
        let rows = synth_rows(150, 6, 29);
        let y: Vec<usize> = rows.iter().map(|r| (r[1] > 0.1) as usize).collect();
        let mut f = RandomForest::new();
        f.fit(&rows, &y);
        let compiled = f.compile().unwrap();
        let optimized = compiled.clone();
        assert!(optimized.optimize());
        let built = || optimized.program().expect("compiled").short.get().is_some();
        assert!(!built(), "optimize() built ladders");
        for take in [MASK_MIN_ROWS, 64, 65, 95, 96, 150] {
            let x = ColMatrix::from_rows(&rows[..take]);
            let (a, b) = (compiled.predict_batch(&x), optimized.predict_batch(&x));
            assert!(a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()));
            assert_eq!(compiled.attribute_batch(&x), optimized.attribute_batch(&x));
            assert!(!built(), "a {take}-row batch built ladders");
        }
        for take in [1usize, MASK_MIN_ROWS - 1] {
            let x = ColMatrix::from_rows(&rows[..take]);
            let (a, b) = (compiled.predict_batch(&x), optimized.predict_batch(&x));
            for (i, (p, q)) in a.iter().zip(&b).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "take={take} row {i}");
            }
            assert_eq!(compiled.attribute_batch(&x), optimized.attribute_batch(&x));
            assert!(built(), "a {take}-row batch ran without ladders");
        }
        let short = optimized.program().unwrap().short_trees();
        assert!(short
            .trees
            .iter()
            .all(|t| matches!(t, TreeProg::Unrolled { .. })));
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
    fn deep_chains_run_the_quantized_lockstep_path() {
        // 40 levels is past UNROLL_MAX_DEPTH, so the short-block path
        // keeps the lockstep loop — over a DAG-shaped table the ladder
        // could not legally expand node-per-slot — and the mask walk
        // must handle the shared bottom leaf (visited once per
        // incoming path, disjoint masks each time).
        let tree = chain_tree(40);
        assert!(tree.optimize());
        let mut rows = synth_rows(90, 3, 11);
        rows[7][0] = f64::NAN;
        rows[33][0] = -8.0;
        assert_programs_match(&tree, &ColMatrix::from_rows(&rows));
    }

    #[test]
    fn oversized_cut_tables_take_the_exactness_fallback() {
        // One feature with MAX_CUTS + 2 distinct thresholds cannot rank
        // into u16 buckets losslessly: optimize() must refuse and leave
        // the interpreter in charge.
        let tree = chain_tree(MAX_CUTS + 2);
        assert!(!tree.optimize());
        let rows = synth_rows(5, 2, 17);
        assert_programs_match(&tree, &ColMatrix::from_rows(&rows));
    }

    #[test]
    fn nan_split_thresholds_quantize_to_always_false() {
        let mut tree = FlatTree::default();
        tree.feature = vec![0, LEAF, LEAF];
        tree.threshold = vec![f64::NAN, 1.0, 2.0];
        tree.left = vec![1, 1, 2];
        tree.right = vec![2, 1, 2];
        assert!(tree.optimize());
        let x = ColMatrix::from_rows(&synth_rows(130, 3, 19));
        assert!(tree.predict_batch(&x).iter().all(|&p| p == 2.0));
    }

    #[test]
    fn linked_batteries_share_ranks_and_stay_bit_identical() {
        // Two forests trained on overlapping features get linked to one
        // merged quantization; scoring must stay bitwise equal to each
        // forest's own interpreter across the mask/ladder block-size
        // boundary (the shared path only covers full blocks).
        let rows = synth_rows(180, 6, 41);
        let ya: Vec<usize> = rows.iter().map(|r| (r[0] > 0.2) as usize).collect();
        let yb: Vec<usize> = rows.iter().map(|r| (r[3] + r[4] > -0.5) as usize).collect();
        let mut fa = RandomForest::new();
        fa.fit(&rows, &ya);
        let mut fb = RandomForest::new();
        fb.fit(&rows, &yb);
        let (ia, ib) = (fa.compile().unwrap(), fb.compile().unwrap());
        let (ca, cb) = (ia.clone(), ib.clone());
        assert!(ca.optimize() && cb.optimize());
        crate::infer::link_battery([&ca, &cb], []);
        for take in [MASK_MIN_ROWS, 64, 65, 180] {
            let x = ColMatrix::from_rows(&rows[..take]);
            for (interp, linked) in [(&ia, &ca), (&ib, &cb)] {
                let a = interp.predict_batch(&x);
                let b = linked.predict_batch(&x);
                for (i, (p, q)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(p.to_bits(), q.to_bits(), "take={take} row {i}");
                }
            }
        }
    }

    #[test]
    fn down_tables_remap_merged_ranks_exactly() {
        // local ⊆ merged (signed zeros deduped by `==` in both): for any
        // probe, ranking against merged then remapping must equal
        // ranking against local directly.
        let local = quant(vec![-2.0, 0.0, 3.5]);
        let merged = quant(vec![-7.25, -2.0, -0.0, 1.0, 3.5, 9.0]);
        let mut down = Vec::new();
        down_table(&merged.cuts, &local.cuts, &mut down);
        assert_eq!(down.len(), merged.cuts.len() + 2);
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
        let pad_len = cuts.len().next_power_of_two();
        let mut pad = cuts.clone();
        pad.resize(pad_len, f64::INFINITY);
        FeatQuant {
            column: 0,
            cuts,
            pad,
        }
    }

    #[test]
    fn buckets_rank_against_cuts_exactly() {
        let fq = quant(vec![-1.5, 0.0, 2.25]);
        // v <= c[i]  ⟺  bucket(v) <= i + 1, for every cut and probe.
        for (i, &c) in fq.cuts.iter().enumerate() {
            let qt = qt_of(&fq.cuts, c);
            assert_eq!(qt, i as u16 + 1);
            for &v in &[-10.0, -1.5, -0.0, 0.0, 1.0, 2.25, 3.0, f64::NAN] {
                assert_eq!(v <= c, bucket_one(&fq, v) <= qt, "v={v} c={c}");
            }
        }
        // NaN thresholds rank 0: no bucket ever satisfies them.
        assert_eq!(qt_of(&fq.cuts, f64::NAN), 0);
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
                assert_eq!(bucket_one(&fq, v), reference(&fq.cuts, v), "v={v}");
            }
        }
    }
}
