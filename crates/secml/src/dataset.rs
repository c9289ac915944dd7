//! The columnar training matrix, and the named-feature alignment that
//! feeds it ([`dense_rows_by_name`]).
//!
//! Besides the in-RAM layout, [`ColMatrixBuilder`] can spill the matrix
//! to disk as fixed-width column segments (see [`ColMatrixBuilder::spill`])
//! and hand back a [`ColMatrix`] whose columns chunk-read lazily — the
//! out-of-core path for corpora too large to hold row-major in memory.
//! Spilled and in-RAM matrices are bit-identical through `col`, the sort
//! permutations and `subset`, so `fit_matrix` consumers never know the
//! difference.

use std::collections::BTreeSet;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Monotone source of [`ColMatrix::identity`] values. Starts at 1 so 0
/// never names a live matrix.
static NEXT_MATRIX_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_matrix_id() -> u64 {
    NEXT_MATRIX_ID.fetch_add(1, Ordering::Relaxed)
}

/// A feature-major (columnar) matrix: one contiguous `Vec<f64>` per
/// feature, plus lazily computed per-column sort permutations.
///
/// This is the layout every learner trains on. Row-major `&[Vec<f64>]`
/// input is converted once at the training boundary; from there, split
/// sweeps, gram matrices, gradient passes and class statistics all walk
/// contiguous columns. The sort permutations make decision-tree split
/// finding O(n log n)-once-per-column instead of per-node, and
/// [`ColMatrix::subset`] *derives* a child's permutations from its
/// parent's in O(n) per column — so cross-validation folds and forest
/// bootstraps never re-sort.
#[derive(Debug)]
pub struct ColMatrix {
    n_rows: usize,
    columns: Columns,
    /// Unique per construction (clones included): matrices are immutable
    /// once built, so equal identities imply equal contents — the key the
    /// compiled kernels' shared rank cache relies on (see
    /// [`crate::kernel`]). Never reused within a process.
    id: u64,
    /// Per-column row permutation, ascending by value (ties keep row
    /// order). Computed on first use, shared across threads.
    perms: OnceLock<Vec<Vec<u32>>>,
}

/// Column storage: resident vectors, or disk segments read on demand.
#[derive(Debug, Clone)]
enum Columns {
    Ram(Vec<Vec<f64>>),
    Spilled(SpillReader),
}

impl Default for ColMatrix {
    fn default() -> Self {
        ColMatrix {
            n_rows: 0,
            columns: Columns::Ram(Vec::new()),
            id: fresh_matrix_id(),
            perms: OnceLock::new(),
        }
    }
}

impl Clone for ColMatrix {
    fn clone(&self) -> Self {
        let perms = OnceLock::new();
        if let Some(p) = self.perms.get() {
            let _ = perms.set(p.clone());
        }
        ColMatrix {
            n_rows: self.n_rows,
            columns: self.columns.clone(),
            // A fresh identity is sound (at worst one redundant rank
            // recompute) and keeps "same id ⟹ same allocation lineage"
            // trivially true.
            id: fresh_matrix_id(),
            perms,
        }
    }
}

impl ColMatrix {
    /// Transpose a row-major matrix. Every row must have the same width.
    pub fn from_rows(rows: &[Vec<f64>]) -> ColMatrix {
        let n_cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut columns = vec![Vec::with_capacity(rows.len()); n_cols];
        for row in rows {
            debug_assert_eq!(row.len(), n_cols, "ragged row-major input");
            for (col, &v) in columns.iter_mut().zip(row) {
                col.push(v);
            }
        }
        ColMatrix {
            n_rows: rows.len(),
            columns: Columns::Ram(columns),
            id: fresh_matrix_id(),
            perms: OnceLock::new(),
        }
    }

    /// Wrap ready-made columns of `n_rows` values each. The row count is
    /// explicit so a matrix with no columns still has its rows.
    pub fn from_columns(n_rows: usize, columns: Vec<Vec<f64>>) -> ColMatrix {
        assert!(columns.iter().all(|c| c.len() == n_rows), "ragged columns");
        ColMatrix {
            n_rows,
            columns: Columns::Ram(columns),
            id: fresh_matrix_id(),
            perms: OnceLock::new(),
        }
    }

    /// Re-open a matrix previously spilled to `dir` (by
    /// [`ColMatrixBuilder::spill`] or [`ColMatrix::spill_columns`]).
    /// Columns are chunk-read from the segment files on first touch.
    pub fn open_spilled(dir: &Path) -> io::Result<ColMatrix> {
        let reader = SpillReader::open(dir)?;
        Ok(ColMatrix {
            n_rows: reader.n_rows,
            columns: Columns::Spilled(reader),
            id: fresh_matrix_id(),
            perms: OnceLock::new(),
        })
    }

    /// Write columns to `dir` one at a time (single segment) and return
    /// the spilled matrix — the column-producer counterpart of
    /// [`ColMatrixBuilder`]'s row path. Peak memory is one column.
    pub fn spill_columns(
        dir: &Path,
        n_rows: usize,
        columns: impl IntoIterator<Item = Vec<f64>>,
    ) -> io::Result<ColMatrix> {
        std::fs::create_dir_all(dir)?;
        let mut seg = io::BufWriter::new(std::fs::File::create(dir.join("seg-0.col"))?);
        let mut n_cols = 0usize;
        for col in columns {
            assert_eq!(col.len(), n_rows, "ragged spilled column");
            for v in &col {
                seg.write_all(&v.to_le_bytes())?;
            }
            n_cols += 1;
        }
        seg.flush()?;
        let segment_rows = if n_rows > 0 {
            vec![n_rows as u32]
        } else {
            Vec::new()
        };
        write_spill_meta(dir, n_cols, n_rows, &segment_rows)?;
        if n_rows == 0 {
            // The lone segment would be empty; readers only open listed
            // segments, so drop the placeholder file.
            let _ = std::fs::remove_file(dir.join("seg-0.col"));
        }
        ColMatrix::open_spilled(dir)
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Process-unique identity (see the field docs): cache key for
    /// derived per-matrix state.
    pub(crate) fn identity(&self) -> u64 {
        self.id
    }

    pub fn n_cols(&self) -> usize {
        match &self.columns {
            Columns::Ram(cols) => cols.len(),
            Columns::Spilled(r) => r.n_cols,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// One feature column, contiguous. Spilled columns are read from disk
    /// on first touch and stay resident afterwards; use
    /// [`col_owned`](ColMatrix::col_owned) for one-shot passes that must
    /// not grow the resident set.
    pub fn col(&self, j: usize) -> &[f64] {
        match &self.columns {
            Columns::Ram(cols) => &cols[j],
            Columns::Spilled(r) => r.cache[j].get_or_init(|| {
                r.read_column(j)
                    .unwrap_or_else(|e| panic!("spilled column {j} unreadable: {e}"))
            }),
        }
    }

    /// Owned copy of column `j`. For spilled matrices this chunk-reads
    /// from disk WITHOUT populating the resident cache — the streaming
    /// statistics path over matrices wider than memory.
    pub fn col_owned(&self, j: usize) -> Vec<f64> {
        match &self.columns {
            Columns::Ram(cols) => cols[j].clone(),
            Columns::Spilled(r) => match r.cache[j].get() {
                Some(c) => c.clone(),
                None => r
                    .read_column(j)
                    .unwrap_or_else(|e| panic!("spilled column {j} unreadable: {e}")),
            },
        }
    }

    /// Single cell (row `i`, column `j`).
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.col(j)[i]
    }

    /// Materialize row `i` (allocation per call — prediction-path only).
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.n_cols()).map(|j| self.col(j)[i]).collect()
    }

    /// Materialize the whole matrix row-major (for row-based consumers
    /// like k-NN's training-set store).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.n_rows).map(|i| self.row(i)).collect()
    }

    /// Row indices of column `j` in ascending value order (NaNs sort
    /// last under `total_cmp`; ties keep row order). First call sorts
    /// every column once; the result is cached and shared.
    pub fn sorted(&self, j: usize) -> &[u32] {
        &self.all_perms()[j]
    }

    fn all_perms(&self) -> &Vec<Vec<u32>> {
        self.perms.get_or_init(|| {
            (0..self.n_cols())
                .map(|j| {
                    let col = self.col(j);
                    let mut idx: Vec<u32> = (0..self.n_rows as u32).collect();
                    idx.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
                    idx
                })
                .collect()
        })
    }

    /// Gather the rows at `indices` (duplicates allowed — this is also
    /// the forest-bootstrap path). If this matrix's sort permutations
    /// are already computed, the subset's permutations are *derived*
    /// from them with a counting pass instead of re-sorting: O(N + n)
    /// per column.
    pub fn subset(&self, indices: &[usize]) -> ColMatrix {
        let columns: Vec<Vec<f64>> = (0..self.n_cols())
            .map(|j| {
                let col = self.col(j);
                indices.iter().map(|&i| col[i]).collect()
            })
            .collect();
        let out = ColMatrix {
            n_rows: indices.len(),
            columns: Columns::Ram(columns),
            id: fresh_matrix_id(),
            perms: OnceLock::new(),
        };
        if let Some(parent_perms) = self.perms.get() {
            // Stable counting sort by parent row: slots[start[r]..] are
            // the subset positions holding parent row r, ascending.
            let mut count = vec![0u32; self.n_rows];
            for &r in indices {
                count[r] += 1;
            }
            let mut start = vec![0u32; self.n_rows];
            let mut sum = 0u32;
            for (s, &c) in start.iter_mut().zip(&count) {
                *s = sum;
                sum += c;
            }
            let mut slots = vec![0u32; indices.len()];
            let mut cursor = start.clone();
            for (pos, &r) in indices.iter().enumerate() {
                slots[cursor[r] as usize] = pos as u32;
                cursor[r] += 1;
            }
            let derived: Vec<Vec<u32>> = parent_perms
                .iter()
                .map(|perm| {
                    let mut out_perm = Vec::with_capacity(indices.len());
                    for &r in perm {
                        let (r, lo) = (r as usize, start[r as usize] as usize);
                        out_perm.extend_from_slice(&slots[lo..lo + count[r] as usize]);
                    }
                    out_perm
                })
                .collect();
            let _ = out.perms.set(derived);
        }
        out
    }
}

/// On-disk spill layout, all integers little-endian:
///
/// ```text
/// dir/matrix.meta : "CLSM" magic, version byte (1), n_cols u32,
///                   n_rows u64, n_segments u32, then rows-per-segment u32…
/// dir/seg-<k>.col : column-major f64 bits for segment k — column j's
///                   rows live at byte offset j·rows(k)·8.
/// ```
///
/// Values are raw `f64::to_le_bytes`, so every bit pattern (NaN payloads
/// included) round-trips exactly — the spilled matrix is bit-identical
/// to its in-RAM twin.
const SPILL_MAGIC: &[u8; 4] = b"CLSM";
const SPILL_VERSION: u8 = 1;

fn write_spill_meta(
    dir: &Path,
    n_cols: usize,
    n_rows: usize,
    segment_rows: &[u32],
) -> io::Result<()> {
    let mut meta = Vec::with_capacity(21 + 4 * segment_rows.len());
    meta.extend_from_slice(SPILL_MAGIC);
    meta.push(SPILL_VERSION);
    meta.extend_from_slice(&(n_cols as u32).to_le_bytes());
    meta.extend_from_slice(&(n_rows as u64).to_le_bytes());
    meta.extend_from_slice(&(segment_rows.len() as u32).to_le_bytes());
    for &rows in segment_rows {
        meta.extend_from_slice(&rows.to_le_bytes());
    }
    std::fs::write(dir.join("matrix.meta"), meta)
}

fn bad_meta(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("spill meta: {msg}"))
}

/// Lazily reads the columns of a spilled matrix back from its segment
/// files via plain `std::fs` seeks — offline-safe, no mmap dependency.
#[derive(Debug)]
struct SpillReader {
    dir: PathBuf,
    n_cols: usize,
    n_rows: usize,
    segment_rows: Vec<u32>,
    /// One lazily-loaded resident cell per column; columns the training
    /// path never touches never leave disk.
    cache: Vec<OnceLock<Vec<f64>>>,
}

impl Clone for SpillReader {
    fn clone(&self) -> Self {
        let cache = self
            .cache
            .iter()
            .map(|cell| {
                let fresh = OnceLock::new();
                if let Some(v) = cell.get() {
                    let _ = fresh.set(v.clone());
                }
                fresh
            })
            .collect();
        SpillReader {
            dir: self.dir.clone(),
            n_cols: self.n_cols,
            n_rows: self.n_rows,
            segment_rows: self.segment_rows.clone(),
            cache,
        }
    }
}

impl SpillReader {
    fn open(dir: &Path) -> io::Result<SpillReader> {
        let meta = std::fs::read(dir.join("matrix.meta"))?;
        if meta.len() < 21 || &meta[..4] != SPILL_MAGIC {
            return Err(bad_meta("missing CLSM magic"));
        }
        if meta[4] != SPILL_VERSION {
            return Err(bad_meta(&format!("unsupported version {}", meta[4])));
        }
        let n_cols = u32::from_le_bytes(meta[5..9].try_into().unwrap()) as usize;
        let n_rows = u64::from_le_bytes(meta[9..17].try_into().unwrap()) as usize;
        let n_segments = u32::from_le_bytes(meta[17..21].try_into().unwrap()) as usize;
        if meta.len() != 21 + 4 * n_segments {
            return Err(bad_meta("truncated segment table"));
        }
        let segment_rows: Vec<u32> = (0..n_segments)
            .map(|k| u32::from_le_bytes(meta[21 + 4 * k..25 + 4 * k].try_into().unwrap()))
            .collect();
        if segment_rows.iter().map(|&r| r as usize).sum::<usize>() != n_rows {
            return Err(bad_meta("segment rows do not sum to n_rows"));
        }
        // A short or overlong segment would otherwise open fine and fail
        // only on first column read, deep inside a training worker.
        for (k, &rows) in segment_rows.iter().enumerate() {
            let path = dir.join(format!("seg-{k}.col"));
            // u128: a hostile header's n_cols × rows × 8 can pass u64.
            let expected = n_cols as u128 * rows as u128 * 8;
            let actual = std::fs::metadata(&path)?.len();
            if actual as u128 != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "spill segment {}: {actual} bytes, expected {expected}",
                        path.display()
                    ),
                ));
            }
        }
        Ok(SpillReader {
            dir: dir.to_path_buf(),
            n_cols,
            n_rows,
            segment_rows,
            cache: (0..n_cols).map(|_| OnceLock::new()).collect(),
        })
    }

    /// Chunk-read column `j` across every segment, in row order.
    fn read_column(&self, j: usize) -> io::Result<Vec<f64>> {
        assert!(j < self.n_cols, "column {j} out of {}", self.n_cols);
        let mut out = Vec::with_capacity(self.n_rows);
        let mut buf = Vec::new();
        for (k, &rows) in self.segment_rows.iter().enumerate() {
            let rows = rows as usize;
            let mut file = std::fs::File::open(self.dir.join(format!("seg-{k}.col")))?;
            file.seek(SeekFrom::Start((j * rows * 8) as u64))?;
            buf.resize(rows * 8, 0);
            file.read_exact(&mut buf)?;
            out.extend(
                buf.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap())),
            );
        }
        Ok(out)
    }
}

/// Incremental row-streaming constructor for [`ColMatrix`], with an
/// optional spill-to-disk mode for matrices that must never be fully
/// resident. Rows accumulate in a bounded columnar chunk buffer; once
/// [`spill`](ColMatrixBuilder::spill) is armed, each full chunk flushes
/// to its own fixed-width column segment and the buffer resets.
#[derive(Debug)]
pub struct ColMatrixBuilder {
    n_cols: usize,
    chunk_rows: usize,
    buf: Vec<Vec<f64>>,
    buffered: usize,
    n_rows: usize,
    spill: Option<SpillTarget>,
}

#[derive(Debug)]
struct SpillTarget {
    dir: PathBuf,
    segment_rows: Vec<u32>,
}

impl ColMatrixBuilder {
    /// A builder for a `n_cols`-wide matrix (in-RAM until `spill`).
    pub fn new(n_cols: usize) -> ColMatrixBuilder {
        ColMatrixBuilder {
            n_cols,
            chunk_rows: 4096,
            buf: vec![Vec::new(); n_cols],
            buffered: 0,
            n_rows: 0,
            spill: None,
        }
    }

    /// Rows per disk segment (and the spill-mode memory bound).
    pub fn chunk_rows(mut self, rows: usize) -> ColMatrixBuilder {
        self.chunk_rows = rows.max(1);
        self
    }

    /// Arm spill-to-disk mode: every full chunk of rows is written to
    /// `dir` as a column-major segment and dropped from memory. Call
    /// before the first [`push_row`](ColMatrixBuilder::push_row).
    pub fn spill(mut self, dir: &Path) -> io::Result<ColMatrixBuilder> {
        assert_eq!(self.n_rows, 0, "spill must be armed before rows are pushed");
        std::fs::create_dir_all(dir)?;
        self.spill = Some(SpillTarget {
            dir: dir.to_path_buf(),
            segment_rows: Vec::new(),
        });
        Ok(self)
    }

    /// Append one row (must have exactly `n_cols` values).
    pub fn push_row(&mut self, row: &[f64]) -> io::Result<()> {
        assert_eq!(row.len(), self.n_cols, "ragged row pushed into builder");
        for (col, &v) in self.buf.iter_mut().zip(row) {
            col.push(v);
        }
        self.buffered += 1;
        self.n_rows += 1;
        if self.spill.is_some() && self.buffered == self.chunk_rows {
            self.flush_segment()?;
        }
        Ok(())
    }

    /// Rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn flush_segment(&mut self) -> io::Result<()> {
        let target = self.spill.as_mut().expect("flush only in spill mode");
        let k = target.segment_rows.len();
        let mut seg = io::BufWriter::new(std::fs::File::create(
            target.dir.join(format!("seg-{k}.col")),
        )?);
        for col in &mut self.buf {
            for v in col.iter() {
                seg.write_all(&v.to_le_bytes())?;
            }
            col.clear();
        }
        seg.flush()?;
        target.segment_rows.push(self.buffered as u32);
        self.buffered = 0;
        Ok(())
    }

    /// Finish the matrix: in-RAM columns, or (in spill mode) flush the
    /// tail segment, write the meta header and re-open the spilled form.
    pub fn finish(mut self) -> io::Result<ColMatrix> {
        match self.spill.is_some() {
            false => Ok(ColMatrix::from_columns(self.n_rows, self.buf)),
            true => {
                if self.buffered > 0 {
                    self.flush_segment()?;
                }
                let target = self.spill.take().expect("spill mode");
                write_spill_meta(&target.dir, self.n_cols, self.n_rows, &target.segment_rows)?;
                ColMatrix::open_spilled(&target.dir)
            }
        }
    }
}

/// The sorted union of the names in `items`, and one dense row per item
/// in that column order (0.0 for a name an item lacks — collectors always
/// emit the full set, so this is a safety net, not an imputation
/// strategy). `items` is walked twice: once for the names, once for the
/// rows.
pub fn dense_rows_by_name<'a, I, F>(items: I) -> (Vec<String>, Vec<Vec<f64>>)
where
    I: IntoIterator<Item = F> + Clone,
    F: IntoIterator<Item = (&'a str, f64)>,
{
    let names: BTreeSet<&str> = items
        .clone()
        .into_iter()
        .flat_map(|item| item.into_iter().map(|(k, _)| k))
        .collect();
    let schema: Vec<String> = names.into_iter().map(String::from).collect();
    let rows = items
        .into_iter()
        .map(|item| {
            let mut row = vec![0.0; schema.len()];
            for (k, v) in item {
                if let Ok(i) = schema.binary_search_by(|n| n.as_str().cmp(k)) {
                    row[i] = v;
                }
            }
            row
        })
        .collect();
    (schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<String>, Vec<Vec<f64>>) {
        let items: [&[(&str, f64)]; 3] = [
            &[("loc", 10.0), ("cyclo", 3.0)],
            &[("cyclo", 5.0), ("loc", 20.0)],
            &[("loc", 30.0)],
        ];
        dense_rows_by_name(items.iter().map(|item| item.iter().copied()))
    }

    #[test]
    fn columns_are_union_sorted() {
        let (schema, rows) = sample();
        assert_eq!(schema, ["cyclo", "loc"]);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn rows_align_regardless_of_input_order() {
        let (_, rows) = sample();
        assert_eq!(rows[0], [3.0, 10.0]);
        assert_eq!(rows[1], [5.0, 20.0]);
        // Missing cyclo for the third item defaults to 0.
        assert_eq!(rows[2], [0.0, 30.0]);
    }

    #[test]
    fn empty_dataset() {
        let none: [[(&str, f64); 0]; 0] = [];
        assert_eq!(dense_rows_by_name(none), (Vec::new(), Vec::new()));
        // Items without names keep their (empty) rows.
        let blank: [[(&str, f64); 0]; 2] = [[], []];
        let (schema, rows) = dense_rows_by_name(blank);
        assert!(schema.is_empty());
        assert_eq!(rows, [Vec::<f64>::new(), Vec::new()]);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clairvoyant-spill-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spill_twin(rows: &[Vec<f64>], chunk: usize, tag: &str) -> (ColMatrix, ColMatrix) {
        let n_cols = rows.first().map_or(0, |r| r.len());
        let ram = ColMatrix::from_rows(rows);
        let dir = scratch_dir(tag);
        let mut b = ColMatrixBuilder::new(n_cols)
            .chunk_rows(chunk)
            .spill(&dir)
            .unwrap();
        for row in rows {
            b.push_row(row).unwrap();
        }
        (ram, b.finish().unwrap())
    }

    #[test]
    fn spill_round_trips_bits_across_segments() {
        let rows = vec![
            vec![1.5, f64::NAN, -0.0],
            vec![2.5, 7.0, 3.25],
            vec![-1.0, f64::INFINITY, 1e-300],
            vec![0.0, -7.5, f64::MIN_POSITIVE],
            vec![9.0, 0.125, -4.0],
        ];
        let (ram, spilled) = spill_twin(&rows, 2, "bits");
        assert_eq!(spilled.n_rows(), 5);
        assert_eq!(spilled.n_cols(), 3);
        for j in 0..3 {
            let a: Vec<u64> = ram.col(j).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = spilled.col(j).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "column {j} bit pattern");
        }
    }

    #[test]
    fn spill_matches_ram_permutations_and_subset() {
        let rows = vec![
            vec![3.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, f64::NAN],
            vec![1.0, 0.5],
        ];
        let (ram, spilled) = spill_twin(&rows, 3, "perms");
        for j in 0..2 {
            assert_eq!(ram.sorted(j), spilled.sorted(j), "perm {j}");
        }
        let sr = ram.subset(&[2, 0, 3]);
        let ss = spilled.subset(&[2, 0, 3]);
        for j in 0..2 {
            assert_eq!(
                sr.col(j).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ss.col(j).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(sr.sorted(j), ss.sorted(j));
        }
    }

    #[test]
    fn builder_without_spill_matches_from_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let mut b = ColMatrixBuilder::new(2);
        for row in &rows {
            b.push_row(row).unwrap();
        }
        let m = b.finish().unwrap();
        let twin = ColMatrix::from_rows(&rows);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.col(0), twin.col(0));
        assert_eq!(m.col(1), twin.col(1));
    }

    #[test]
    fn zero_width_matrices_keep_their_rows() {
        // A feature filter can keep no column; the rows (one per label)
        // must survive in RAM exactly as they do spilled.
        let mut b = ColMatrixBuilder::new(0);
        for _ in 0..3 {
            b.push_row(&[]).unwrap();
        }
        let m = b.finish().unwrap();
        assert_eq!((m.n_rows(), m.n_cols()), (3, 0));
        let m = ColMatrix::from_columns(3, Vec::new());
        assert_eq!((m.n_rows(), m.n_cols()), (3, 0));
        let (ram, spilled) = spill_twin(&[vec![], vec![], vec![]], 2, "zerowidth");
        assert_eq!((ram.n_rows(), spilled.n_rows()), (3, 3));
        assert_eq!(spilled.n_cols(), 0);
    }

    #[test]
    fn spill_edge_shapes() {
        // Single row.
        let (ram, spilled) = spill_twin(&[vec![4.0, 5.0, 6.0]], 4096, "onerow");
        assert_eq!(ram.sorted(1), spilled.sorted(1));
        // Zero rows, zero columns.
        let dir = scratch_dir("empty");
        let b = ColMatrixBuilder::new(0).spill(&dir).unwrap();
        let empty = b.finish().unwrap();
        assert_eq!(empty.n_rows(), 0);
        assert_eq!(empty.n_cols(), 0);
        // Zero rows, some columns: every column reads back empty.
        let dir = scratch_dir("norows");
        let b = ColMatrixBuilder::new(2).spill(&dir).unwrap();
        let m = b.finish().unwrap();
        assert_eq!(m.n_cols(), 2);
        assert!(m.col(0).is_empty());
        assert_eq!(m.sorted(1), Vec::<u32>::new());
    }

    #[test]
    fn spilled_value_and_row_accessors() {
        let rows = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let (_, spilled) = spill_twin(&rows, 2, "access");
        assert_eq!(spilled.value(1, 1), 20.0);
        assert_eq!(spilled.row(2), vec![3.0, 30.0]);
    }

    #[test]
    fn open_spilled_rejects_truncated_segment() {
        let dir = scratch_dir("truncated");
        let mut b = ColMatrixBuilder::new(2).chunk_rows(2).spill(&dir).unwrap();
        for i in 0..5 {
            b.push_row(&[i as f64, -(i as f64)]).unwrap();
        }
        b.finish().unwrap();
        // Cut the middle segment short by one byte.
        let seg = dir.join("seg-1.col");
        let len = std::fs::metadata(&seg).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 1)
            .unwrap();
        let err = ColMatrix::open_spilled(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn open_spilled_rejects_bad_meta() {
        let dir = scratch_dir("badmeta");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("matrix.meta"), b"NOPE").unwrap();
        assert!(ColMatrix::open_spilled(&dir).is_err());
    }
}
