//! The GraphBLAS sparse matrix container (CSR storage).
//!
//! [`CsrMatrix`] stores nonzeroes in Compressed Sparse Row form — the three
//! arrays of the paper's §III-B — with `u32` column indices (HPCG-scale
//! problems have `n < 2³²`; the narrower index type halves index bandwidth,
//! per the performance guide's "smaller integers" advice).
//!
//! Construction validates invariants once; kernels may then rely on them:
//! `row_ptr` is monotone with `row_ptr[0] == 0`, column indices are strictly
//! increasing within each row and in bounds.
//!
//! # Row numbers vs storage slots
//!
//! The three arrays hold the rows in **storage slots**; a row's *number* —
//! the index the user, every mask and every vector use — need not be its
//! slot. The paper's §III makes containers opaque exactly so that an
//! implementation may choose the layout: rows that are swept together can
//! lie together without anyone renumbering anything. A private map takes a
//! row number to its slot; it is empty for *index order* (slot = row), which
//! is what every constructor produces except
//! [`CsrMatrix::from_row_fn_stored`], whose caller names the order (HPCG's
//! problem generator stores each operator colour-major, so one RBGS colour
//! step is one contiguous stream). [`CsrMatrix::row`] and
//! [`CsrMatrix::row_nnz`] go through the map and are the only row-indexed
//! access; everything built on them — every kernel, `transpose`, `mxm`,
//! `extract`, equality — sees the same matrix whatever the storage order,
//! and computes the same bits. [`CsrMatrix::csr_parts`] returns the arrays
//! as stored: slot order, not row order.

use crate::backend::dist::plan::ShardPlanCache;
use crate::error::{check_dims, GrbError, Result};
use crate::ops::scalar::Scalar;

/// An immutable sparse matrix in Compressed Sparse Row format.
#[derive(Clone, Debug)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    /// Indexed by storage slot (see the module docs).
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<T>,
    /// Row number → storage slot; empty when rows are stored in index order.
    slot_of_row: Vec<u32>,
    /// True when every column holds at most one nonzero. Transpose-`mxv`
    /// then scatters without write conflicts and may run in parallel
    /// (HPCG's restriction matrix has this property: straight injection).
    columns_conflict_free: bool,
    /// What the distributed backend has derived from the pattern so far
    /// (see [`ShardPlanCache`]); never part of the matrix's value.
    shard_plans: ShardPlanCache,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Builds from `(row, col, value)` triplets in any order.
    ///
    /// Duplicate `(row, col)` entries are combined by domain addition, the
    /// GraphBLAS build-with-`plus`-dup semantics.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, T)],
    ) -> Result<Self> {
        for &(r, c, _) in triplets {
            if r >= nrows {
                return Err(GrbError::IndexOutOfBounds {
                    index: r,
                    len: nrows,
                });
            }
            if c >= ncols {
                return Err(GrbError::IndexOutOfBounds {
                    index: c,
                    len: ncols,
                });
            }
        }
        // Counting sort by row, then sort each row segment by column.
        let mut counts = vec![0usize; nrows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let row_ptr_draft = counts.clone();
        let mut entries: Vec<(u32, T)> = vec![(0, T::ZERO); triplets.len()];
        {
            let mut cursor = counts;
            for &(r, c, v) in triplets {
                entries[cursor[r]] = (c as u32, v);
                cursor[r] += 1;
            }
        }
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        for r in 0..nrows {
            let seg = &mut entries[row_ptr_draft[r]..row_ptr_draft[r + 1]];
            seg.sort_unstable_by_key(|&(c, _)| c);
            // Combine duplicates by domain addition.
            let mut k = 0;
            while k < seg.len() {
                let (c, mut acc) = seg[k];
                let mut j = k + 1;
                while j < seg.len() && seg[j].0 == c {
                    acc = acc.add(seg[j].1);
                    j += 1;
                }
                col_idx.push(c);
                values.push(acc);
                k = j;
            }
            row_ptr.push(col_idx.len());
        }
        Self::from_csr(nrows, ncols, row_ptr, col_idx, values)
    }

    /// Builds from raw CSR arrays, validating all invariants.
    pub fn from_csr(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Result<Self> {
        Self::from_stored(nrows, ncols, row_ptr, col_idx, values, Vec::new())
    }

    /// [`from_csr`](Self::from_csr) over arrays in storage order, with the
    /// row → slot map that says which (a permutation, or empty).
    fn from_stored(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<T>,
        slot_of_row: Vec<u32>,
    ) -> Result<Self> {
        // Error path only: name the row, not the slot it was found in.
        let row_at = |slot: usize| {
            let holds = |&s: &u32| s as usize == slot;
            slot_of_row.iter().position(holds).unwrap_or(slot)
        };
        if row_ptr.len() != nrows + 1 {
            return Err(GrbError::InvalidInput(format!(
                "row_ptr length {} != nrows + 1 = {}",
                row_ptr.len(),
                nrows + 1
            )));
        }
        if row_ptr[0] != 0 {
            return Err(GrbError::InvalidInput("row_ptr[0] must be 0".into()));
        }
        if *row_ptr.last().unwrap() != col_idx.len() {
            return Err(GrbError::InvalidInput(format!(
                "row_ptr[last] = {} != nnz = {}",
                row_ptr.last().unwrap(),
                col_idx.len()
            )));
        }
        check_dims("from_csr", "values vs col_idx", col_idx.len(), values.len())?;
        for s in 0..nrows {
            if row_ptr[s] > row_ptr[s + 1] {
                return Err(GrbError::InvalidInput(format!(
                    "row_ptr not monotone at row {}",
                    row_at(s)
                )));
            }
            let seg = &col_idx[row_ptr[s]..row_ptr[s + 1]];
            for (k, &c) in seg.iter().enumerate() {
                if c as usize >= ncols {
                    return Err(GrbError::IndexOutOfBounds {
                        index: c as usize,
                        len: ncols,
                    });
                }
                if k > 0 && seg[k - 1] >= c {
                    return Err(GrbError::InvalidInput(format!(
                        "columns not strictly increasing in row {}",
                        row_at(s)
                    )));
                }
            }
        }
        let columns_conflict_free = {
            let mut seen = vec![false; ncols];
            let mut free = true;
            'outer: for &c in &col_idx {
                let c = c as usize;
                if seen[c] {
                    free = false;
                    break 'outer;
                }
                seen[c] = true;
            }
            free
        };
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            slot_of_row,
            columns_conflict_free,
            shard_plans: ShardPlanCache::default(),
        })
    }

    /// Builds row-by-row via a generator callback.
    ///
    /// `emit(r, &mut row)` must push `(col, value)` pairs with strictly
    /// increasing columns for row `r`. This is the zero-copy path the HPCG
    /// problem generator uses: no triplet buffer, no sorting.
    pub fn from_row_fn(
        nrows: usize,
        ncols: usize,
        nnz_hint: usize,
        emit: impl FnMut(usize, &mut Vec<(u32, T)>),
    ) -> Result<Self> {
        Self::from_row_fn_stored(nrows, ncols, nnz_hint, &[], emit)
    }

    /// [`from_row_fn`](Self::from_row_fn) with a chosen **storage order**:
    /// slot `s` of the arrays holds row `storage_order[s]`, and `emit` is
    /// called in that order so the rows are generated where they will lie —
    /// no index-order copy of the matrix ever exists. `storage_order` must
    /// be a permutation of `0..nrows`; empty means index order.
    ///
    /// The order is a locality hint and nothing else: the matrix is the one
    /// `from_row_fn` would build (`==` to it, same `row(i)` for every `i`,
    /// same results from every operation).
    pub fn from_row_fn_stored(
        nrows: usize,
        ncols: usize,
        nnz_hint: usize,
        storage_order: &[u32],
        mut emit: impl FnMut(usize, &mut Vec<(u32, T)>),
    ) -> Result<Self> {
        let slot_of_row = invert_storage_order(nrows, storage_order)?;
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::with_capacity(nnz_hint);
        let mut values = Vec::with_capacity(nnz_hint);
        let mut scratch: Vec<(u32, T)> = Vec::with_capacity(32);
        row_ptr.push(0);
        for slot in 0..nrows {
            scratch.clear();
            emit(
                storage_order.get(slot).map_or(slot, |&r| r as usize),
                &mut scratch,
            );
            for &(c, v) in scratch.iter() {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Self::from_stored(nrows, ncols, row_ptr, col_idx, values, slot_of_row)
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeroes.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Whether every column holds at most one nonzero (see struct docs).
    #[inline(always)]
    pub fn columns_conflict_free(&self) -> bool {
        self.columns_conflict_free
    }

    /// The distributed backend's per-layout plans for this pattern.
    pub(crate) fn shard_plans(&self) -> &ShardPlanCache {
        &self.shard_plans
    }

    /// The storage slot holding row `r` (`r` itself in index order) — for
    /// tests and tools that assert a layout; kernels use [`row`](Self::row).
    #[inline(always)]
    pub fn storage_slot(&self, r: usize) -> usize {
        if self.slot_of_row.is_empty() {
            r
        } else {
            self.slot_of_row[r] as usize
        }
    }

    /// The `(columns, values)` slices of row `r`.
    #[inline(always)]
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        let slot = self.storage_slot(r);
        let lo = self.row_ptr[slot];
        let hi = self.row_ptr[slot + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of nonzeroes in row `r`.
    #[inline(always)]
    pub fn row_nnz(&self, r: usize) -> usize {
        let slot = self.storage_slot(r);
        self.row_ptr[slot + 1] - self.row_ptr[slot]
    }

    /// The raw CSR arrays `(row_ptr, col_idx, values)` **in storage
    /// order**: `row_ptr[s]..row_ptr[s + 1]` delimits the row stored in slot
    /// `s`, which is row `s` only for an index-order matrix (see the module
    /// docs). Use [`row`](Self::row) for row-indexed access; this is for
    /// callers that want the column multiset, the whole value stream, or
    /// compare matrices they built in index order themselves.
    ///
    /// Exposed for the *reference* (non-GraphBLAS) HPCG implementation,
    /// which the paper explicitly allows to reach past the opaque API
    /// (§III-B); GraphBLAS-side code must not use this.
    pub fn csr_parts(&self) -> (&[usize], &[u32], &[T]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// The stored value at `(r, c)`, if present.
    pub fn get(&self, r: usize, c: usize) -> Option<T> {
        if r >= self.nrows || c >= self.ncols {
            return None;
        }
        let (cols, vals) = self.row(r);
        cols.binary_search(&(c as u32)).ok().map(|k| vals[k])
    }

    /// Extracts the diagonal as a dense vector (absent diagonal entries
    /// become domain zero).
    ///
    /// HPCG stores `A_diag` separately because GraphBLAS does not allow
    /// constant-time access to individual matrix values (paper §III-A).
    pub fn extract_diagonal(&self) -> crate::Vector<T> {
        let n = self.nrows.min(self.ncols);
        let mut d = vec![T::ZERO; self.nrows];
        for (r, slot) in d.iter_mut().enumerate().take(n) {
            if let Some(v) = self.get(r, r) {
                *slot = v;
            }
        }
        crate::Vector::from_dense(d)
    }

    /// Materializes the transpose (used by tests and by `mxm`; the `mxv`
    /// kernels honor [`crate::Descriptor::TRANSPOSE`] without this).
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let pos = cursor[c as usize];
                col_idx[pos] = r as u32;
                values[pos] = v;
                cursor[c as usize] += 1;
            }
        }
        // Rows of the transpose inherit increasing order because we sweep
        // source rows in order; invariants hold by construction.
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
            slot_of_row: Vec::new(),
            columns_conflict_free: self.rows_at_most_one_nnz(),
            shard_plans: ShardPlanCache::default(),
        }
    }

    fn rows_at_most_one_nnz(&self) -> bool {
        (0..self.nrows).all(|r| self.row_nnz(r) <= 1)
    }

    /// Structural + numeric symmetry check (test/validation helper).
    pub fn is_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                match self.get(c as usize, r) {
                    Some(w) if w == v => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// Structural (pattern-only) symmetry: every stored `(r, c)` has a
    /// stored mirror `(c, r)`, values ignored. Returns the first
    /// unmirrored entry as `Err((r, c))` so validators can name it.
    pub fn check_pattern_symmetric(&self) -> std::result::Result<(), (usize, usize)> {
        for r in 0..self.nrows {
            let (cols, _) = self.row(r);
            for &c in cols {
                if self.get(c as usize, r).is_none() {
                    return Err((r, c as usize));
                }
            }
        }
        Ok(())
    }

    /// Iterates all stored entries as `(row, col, value)`.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Estimated resident bytes of the three CSR arrays and the slot map —
    /// the storage-cost side of the paper's §III-B restriction-matrix
    /// discussion.
    pub fn storage_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<T>()
            + self.slot_of_row.len() * std::mem::size_of::<u32>()
    }
}

/// Equality is about content, not layout: the same rows under the same
/// numbers, however they are stored.
impl<T: Scalar> PartialEq for CsrMatrix<T> {
    fn eq(&self, other: &CsrMatrix<T>) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.nnz() == other.nnz()
            && (0..self.nrows).all(|r| self.row(r) == other.row(r))
    }
}

/// The row → slot map of `storage_order` (slot → row): empty for index
/// order, whether given as the empty slice or as the identity.
fn invert_storage_order(nrows: usize, storage_order: &[u32]) -> Result<Vec<u32>> {
    if storage_order.is_empty() {
        return Ok(Vec::new());
    }
    check_dims(
        "storage order",
        "storage_order vs nrows",
        nrows,
        storage_order.len(),
    )?;
    const UNSET: u32 = u32::MAX;
    if nrows >= UNSET as usize {
        return Err(GrbError::InvalidInput(
            "a storage order needs nrows < 2^32 - 1".into(),
        ));
    }
    let mut slot_of_row = vec![UNSET; nrows];
    let mut identity = true;
    for (slot, &r) in storage_order.iter().enumerate() {
        match slot_of_row.get_mut(r as usize) {
            Some(s) if *s == UNSET => *s = slot as u32,
            Some(_) => {
                return Err(GrbError::InvalidInput(format!(
                    "storage order names row {r} twice"
                )))
            }
            None => {
                return Err(GrbError::IndexOutOfBounds {
                    index: r as usize,
                    len: nrows,
                })
            }
        }
        identity &= r as usize == slot;
    }
    Ok(if identity { Vec::new() } else { slot_of_row })
}

/// A matrix bundled with its transpose: the CSR view for pull-mode (row
/// sweep) traversal and the CSC view — stored as the CSR of `Aᵀ` — for
/// push-mode (column scatter) traversal.
///
/// Direction-optimizing `mxv` needs both orientations of the same
/// adjacency available at kernel-selection time; `GraphMatrix` pays the
/// transpose once at construction so per-step mode switches are free.
#[derive(Clone, Debug)]
pub struct GraphMatrix<T> {
    csr: CsrMatrix<T>,
    csc: CsrMatrix<T>,
}

/// `csc` is `csr`'s transpose by construction, so `csr` decides.
impl<T: Scalar> PartialEq for GraphMatrix<T> {
    fn eq(&self, other: &GraphMatrix<T>) -> bool {
        self.csr == other.csr
    }
}

impl<T: Scalar> GraphMatrix<T> {
    /// Bundles `a` with its materialized transpose.
    pub fn from_csr(a: CsrMatrix<T>) -> Self {
        let csc = a.transpose();
        GraphMatrix { csr: a, csc }
    }

    /// The row-oriented (CSR) view of `A`.
    #[inline(always)]
    pub fn csr(&self) -> &CsrMatrix<T> {
        &self.csr
    }

    /// The column-oriented view of `A`: the CSR storage of `Aᵀ`, whose
    /// row `j` lists the `(i, A[i,j])` entries of column `j` of `A`.
    #[inline(always)]
    pub fn csc(&self) -> &CsrMatrix<T> {
        &self.csc
    }

    /// Number of rows of `A`.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.csr.nrows()
    }

    /// Number of columns of `A`.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.csr.ncols()
    }

    /// Number of stored nonzeroes of `A`.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// Resident bytes across both orientations.
    pub fn storage_bytes(&self) -> usize {
        self.csr.storage_bytes() + self.csc.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix<f64> {
        // [[2, 0, 1],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dims_and_nnz() {
        let a = small();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.row_nnz(0), 2);
        assert_eq!(a.row_nnz(1), 1);
    }

    #[test]
    fn triplets_any_order_and_duplicates_sum() {
        let a = CsrMatrix::from_triplets(2, 2, &[(1, 1, 4.0), (0, 0, 1.0), (1, 1, 6.0)]).unwrap();
        assert_eq!(a.get(1, 1), Some(10.0), "duplicates combine by addition");
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn triplets_out_of_bounds() {
        assert!(matches!(
            CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]),
            Err(GrbError::IndexOutOfBounds { index: 2, len: 2 })
        ));
        assert!(matches!(
            CsrMatrix::from_triplets(2, 2, &[(0, 3, 1.0)]),
            Err(GrbError::IndexOutOfBounds { index: 3, len: 2 })
        ));
    }

    #[test]
    fn from_csr_validates() {
        // row_ptr too short
        assert!(CsrMatrix::<f64>::from_csr(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // row_ptr[0] != 0
        assert!(CsrMatrix::<f64>::from_csr(1, 2, vec![1, 1], vec![], vec![]).is_err());
        // last != nnz
        assert!(CsrMatrix::<f64>::from_csr(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
        // non-monotone
        assert!(
            CsrMatrix::<f64>::from_csr(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err()
        );
        // columns not increasing
        assert!(CsrMatrix::<f64>::from_csr(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]).is_err());
        // column out of bounds
        assert!(CsrMatrix::<f64>::from_csr(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // values/col mismatch
        assert!(CsrMatrix::<f64>::from_csr(1, 2, vec![0, 1], vec![0], vec![]).is_err());
    }

    #[test]
    fn get_and_row_access() {
        let a = small();
        assert_eq!(a.get(0, 0), Some(2.0));
        assert_eq!(a.get(0, 1), None);
        assert_eq!(a.get(9, 0), None);
        let (cols, vals) = a.row(2);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[4.0, 5.0]);
    }

    #[test]
    fn extract_diagonal() {
        let a = small();
        let d = a.extract_diagonal();
        assert_eq!(d.as_slice(), &[2.0, 3.0, 5.0]);

        // Missing diagonal entries become zero.
        let b = CsrMatrix::from_triplets(2, 2, &[(0, 1, 7.0)]).unwrap();
        assert_eq!(b.extract_diagonal().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = small();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(2, 0), Some(1.0));
        assert_eq!(t.get(0, 2), Some(4.0));
        let tt = t.transpose();
        for (r, c, v) in a.iter_entries() {
            assert_eq!(tt.get(r, c), Some(v));
        }
        assert_eq!(tt.nnz(), a.nnz());
    }

    #[test]
    fn transpose_rectangular() {
        let a = CsrMatrix::from_triplets(2, 4, &[(0, 3, 1.0), (1, 0, 2.0)]).unwrap();
        let t = a.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(3, 0), Some(1.0));
        assert_eq!(t.get(0, 1), Some(2.0));
    }

    #[test]
    fn conflict_free_columns_detection() {
        // Injection-like: each column referenced at most once.
        let inj = CsrMatrix::from_triplets(2, 8, &[(0, 0, 1.0), (1, 4, 1.0)]).unwrap();
        assert!(inj.columns_conflict_free());
        // Column 0 used twice.
        let dup = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(!dup.columns_conflict_free());
    }

    #[test]
    fn symmetry_check() {
        let sym = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)],
        )
        .unwrap();
        assert!(sym.is_symmetric());
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, -1.0)]).unwrap();
        assert!(!asym.is_symmetric());
        let rect = CsrMatrix::<f64>::from_triplets(1, 2, &[]).unwrap();
        assert!(!rect.is_symmetric());
    }

    #[test]
    fn from_row_fn_matches_triplets() {
        let by_fn = CsrMatrix::from_row_fn(3, 3, 5, |r, row| {
            if r == 0 {
                row.push((0, 2.0));
                row.push((2, 1.0));
            } else if r == 1 {
                row.push((1, 3.0));
            } else {
                row.push((0, 4.0));
                row.push((2, 5.0));
            }
        })
        .unwrap();
        assert_eq!(by_fn, small());
    }

    #[test]
    fn iter_entries_and_storage() {
        let a = small();
        let entries: Vec<_> = a.iter_entries().collect();
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[0], (0, 0, 2.0));
        assert!(a.storage_bytes() > 0);
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::<f64>::from_triplets(0, 0, &[]).unwrap();
        assert_eq!(a.nnz(), 0);
        assert!(a.is_symmetric());
        let t = a.transpose();
        assert_eq!(t.nrows(), 0);
    }

    #[test]
    fn pattern_symmetry_check() {
        // Pattern-symmetric but numerically asymmetric: 1.0 vs 9.0.
        let pat = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 9.0)]).unwrap();
        assert!(!pat.is_symmetric());
        assert_eq!(pat.check_pattern_symmetric(), Ok(()));
        // A directed edge names its unmirrored entry.
        let dir = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (2, 1, 1.0)]).unwrap();
        assert_eq!(dir.check_pattern_symmetric(), Err((2, 1)));
    }

    #[test]
    fn graph_matrix_bundles_both_orientations() {
        let a = small();
        let g = GraphMatrix::from_csr(a.clone());
        assert_eq!(g.nrows(), 3);
        assert_eq!(g.ncols(), 3);
        assert_eq!(g.nnz(), a.nnz());
        assert_eq!(g.csr(), &a);
        assert_eq!(g.csc(), &a.transpose());
        // Column 0 of A = row 0 of the CSC view: entries from rows 0 and 2.
        let (rows, vals) = g.csc().row(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[2.0, 4.0]);
        assert_eq!(
            g.storage_bytes(),
            a.storage_bytes() + g.csc().storage_bytes()
        );
    }
}
