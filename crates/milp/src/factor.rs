//! Product-form basis factorization: eta file with periodic
//! refactorization.
//!
//! The revised simplex ([`crate::simplex`]) never forms `B^-1`
//! explicitly. The basis inverse is carried as a product of *eta
//! matrices* — identity except for one column — one appended per pivot
//! (the product-form, PFI, update): if the entering column's
//! transformed form is `w = B^-1 a_j` and the pivot row is `r`, then the
//! new basis satisfies `B_new = B E` where `E` is identity with column
//! `r` replaced by `w`. Solving with `B_new` is solving with `B` plus
//! one sparse eta application. There are no LU factors: the eta file is
//! the whole factorization.
//!
//! The eta file grows by one column per pivot, so both FTRAN
//! (`x = B^-1 b`) and BTRAN (`y = c_B B^-T`) slow down linearly with
//! pivots since the last factorization. [`Factor::refactor`] rebuilds
//! the file from scratch off the current basis columns — Gaussian
//! elimination in product form, smallest-column-first with partial
//! pivoting — and the solver triggers it every
//! [`crate::model::Model::set_refactor_interval`] pivots (default 32,
//! the same cadence the column-generation master already used for its
//! cold refreshes). The rebuild is sparse: two bitsets track the rows a
//! column's elimination touches and the fresh etas that pivot on those
//! rows, so each column's work visits only them, and a column that
//! eliminates to a bare `+1` (a unit slack) stores no eta at all, since
//! applying an identity eta is an exact no-op.
//!
//! Storage is two flat arrays: one header per eta (pivot row, `1/pivot`,
//! end offset) and one entries array holding every eta's off-pivot
//! nonzeros back to back, in file order. FTRAN and BTRAN walk slices of
//! it, a pivot or a row append pushes onto its end, and cloning the
//! file is two copies however many etas it holds.

/// One eta matrix: identity with column `r` replaced by a sparse column
/// whose off-pivot nonzeros are the file's entries ending at `end`.
#[derive(Debug, Clone, Copy)]
struct EtaHead {
    /// Pivot row.
    r: usize,
    /// `1 / w[r]` — stored inverted so applications multiply.
    inv: f64,
    /// One past this eta's last entry; its first entry is the previous
    /// eta's `end` (0 for the first eta).
    end: usize,
}

/// Entries below this magnitude are dropped from stored eta columns;
/// keeping denormal dust would only grow the file and add noise.
const DROP_TOL: f64 = 1e-12;

/// Pivot elements below this magnitude make a refactorization attempt
/// numerically singular; the old eta file is kept instead.
const PIVOT_TOL: f64 = 1e-10;

/// `eta_of_row` entry of a row no fresh eta pivots on.
const NO_ETA: usize = usize::MAX;

/// An eta-file factorization of the current simplex basis.
#[derive(Debug, Clone, Default)]
pub(crate) struct Factor {
    /// One header per eta, in file order.
    heads: Vec<EtaHead>,
    /// Off-pivot nonzeros `(row, w[row])`, `row != r`, of every eta back
    /// to back in file order.
    entries: Vec<(usize, f64)>,
    /// Etas appended by pivots since the last successful refactorization
    /// (refactorization etas do not count — they *are* the fresh start).
    updates: usize,
    /// Lifetime refactorization count (telemetry).
    pub(crate) refactorizations: u64,
    /// Lifetime pivot-eta count (telemetry).
    pub(crate) eta_updates: u64,
}

impl Factor {
    /// A factorization of the identity basis.
    pub(crate) fn identity() -> Self {
        Factor::default()
    }

    /// Pivot-etas appended since the last refactorization.
    pub(crate) fn updates_since_refactor(&self) -> usize {
        self.updates
    }

    /// Total stored nonzeros (memory-weight proxy): every entry plus one
    /// per eta for its pivot. A refactorization stores no identity etas,
    /// so unit slacks count nothing here.
    pub(crate) fn nnz(&self) -> usize {
        self.entries.len() + self.heads.len()
    }

    /// Release the spare capacity of both arrays.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.heads.shrink_to_fit();
        self.entries.shrink_to_fit();
    }

    /// FTRAN: overwrite `x` with `B^-1 x` by applying every eta in file
    /// order.
    pub(crate) fn ftran(&self, x: &mut [f64]) {
        let mut start = 0;
        for h in &self.heads {
            let nz = &self.entries[start..h.end];
            start = h.end;
            let t = x[h.r] * h.inv;
            if t == 0.0 {
                continue;
            }
            x[h.r] = t;
            for &(i, v) in nz {
                x[i] -= v * t;
            }
        }
    }

    /// BTRAN: overwrite `y` with `B^-T y` by applying every eta in
    /// reverse file order.
    pub(crate) fn btran(&self, y: &mut [f64]) {
        for (k, h) in self.heads.iter().enumerate().rev() {
            let start = if k == 0 { 0 } else { self.heads[k - 1].end };
            let mut acc = y[h.r];
            for &(i, v) in &self.entries[start..h.end] {
                acc -= v * y[i];
            }
            y[h.r] = acc * h.inv;
        }
    }

    /// Two BTRANs in one sweep over the file: overwrite `a` with
    /// `B^-T a` and `b` with `B^-T b`. Each vector sees the operations of
    /// a lone [`Factor::btran`] in the same order, so both results are
    /// bit for bit what two separate calls give.
    pub(crate) fn btran_pair(&self, a: &mut [f64], b: &mut [f64]) {
        for (k, h) in self.heads.iter().enumerate().rev() {
            let start = if k == 0 { 0 } else { self.heads[k - 1].end };
            let (mut acc_a, mut acc_b) = (a[h.r], b[h.r]);
            for &(i, v) in &self.entries[start..h.end] {
                acc_a -= v * a[i];
                acc_b -= v * b[i];
            }
            a[h.r] = acc_a * h.inv;
            b[h.r] = acc_b * h.inv;
        }
    }

    /// Append the pivot eta for entering column `w = B^-1 a_j` at pivot
    /// row `r` (the basis change `B <- B E`).
    pub(crate) fn update(&mut self, w: &[f64], r: usize) {
        self.update_with(w, r, |_, _| {});
    }

    /// [`Factor::update`] that also hands every nonzero `(i, w[i])` of
    /// `w`, the pivot row's included, to `nonzero` in row order, so a
    /// caller that needs its own pass over `w` rides along with the eta
    /// extraction.
    #[inline]
    pub(crate) fn update_with(&mut self, w: &[f64], r: usize, mut nonzero: impl FnMut(usize, f64)) {
        for (i, &v) in w.iter().enumerate() {
            if v != 0.0 {
                nonzero(i, v);
                if i != r && v.abs() > DROP_TOL {
                    self.entries.push((i, v));
                }
            }
        }
        self.heads.push(EtaHead { r, inv: 1.0 / w[r], end: self.entries.len() });
        self.updates += 1;
        self.eta_updates += 1;
    }

    /// Append the eta of a row append: the variable basic in row `k`
    /// gains a `+1` entry in the new row `r`, whose slack is basic there.
    /// Reading the file as identity on row `r`, the grown basis is
    /// `B E` with `E` the identity with column `k` replaced by
    /// `e_k + e_r`: the eta [`Factor::update`] stores for that `w`,
    /// built in O(1) and exact in floating point. It counts like a pivot
    /// eta, toward the refactorization interval too.
    pub(crate) fn append_row(&mut self, k: usize, r: usize) {
        self.entries.push((r, 1.0));
        self.heads.push(EtaHead { r: k, inv: 1.0, end: self.entries.len() });
        self.updates += 1;
        self.eta_updates += 1;
    }

    /// Rebuild the eta file from scratch off the current basis columns:
    /// Gaussian elimination in product form. `col(basis[k])` is the
    /// sparse matrix column of the variable basic in row `k`; columns are
    /// processed smallest-nonzero-count first (slacks and artificials
    /// come first) with partial pivoting over still-unassigned rows: the
    /// largest magnitude above `PIVOT_TOL` wins, ties go to the lowest
    /// row.
    ///
    /// The elimination is sparse. The work column is a dense array whose
    /// support is a bitset of touched rows, so loading, pivot search, eta
    /// extraction and clearing cost the column's fill (plus one pass over
    /// the bitset's words), not `rows`. Every row of the fresh file is
    /// the pivot row of at most one of its etas, and a second bitset
    /// holds the etas still to apply to the column: those whose pivot row
    /// the column has touched. They are applied in file order, which is
    /// what FTRAN through the whole file does, since an eta whose pivot
    /// row is untouched when FTRAN reaches it multiplies a zero and is
    /// skipped. A row that an applied eta fills marks its own eta only
    /// when that eta comes later in the file: an earlier one was passed
    /// while the row still read zero.
    ///
    /// Pivot search and eta extraction walk the touched rows in
    /// increasing order, so each eta's entries come out sorted by row,
    /// the order BTRAN sums them in. A column that eliminates to `+1` at
    /// its pivot row with nothing else (a unit slack) assigns its row and
    /// stores no eta.
    ///
    /// On success the row assignment in `basis` is permuted to match the
    /// chosen pivot rows and `true` is returned; on a numerically
    /// singular column the old file and `basis` are kept untouched and
    /// `false` is returned (the solver just keeps growing the eta file
    /// until the next trigger).
    pub(crate) fn refactor<'a>(
        &mut self,
        col: impl Fn(usize) -> &'a [(usize, f64)],
        basis: &mut [usize],
    ) -> bool {
        let m = basis.len();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&k| col(basis[k]).len());

        let mut heads: Vec<EtaHead> = Vec::with_capacity(m);
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(self.entries.len());
        let mut new_basis = vec![usize::MAX; m];
        let mut w = vec![0.0f64; m];
        // Row -> the fresh eta pivoting on it.
        let mut eta_of_row = vec![NO_ETA; m];
        let mut assigned = BitSet::new(m);
        let mut touched = BitSet::new(m);
        let mut pending = BitSet::new(m);
        for &k in &order {
            let j = basis[k];
            for &(r, c) in col(j) {
                w[r] = c;
                if touched.insert(r) && eta_of_row[r] != NO_ETA {
                    pending.insert(eta_of_row[r]);
                }
            }
            // FTRAN through the etas that can act on the column.
            let mut cursor = 0;
            while let Some(e) = pending.pop_first(&mut cursor) {
                let h = heads[e];
                let t = w[h.r] * h.inv;
                if t == 0.0 {
                    continue;
                }
                w[h.r] = t;
                let start = if e == 0 { 0 } else { heads[e - 1].end };
                for &(i, v) in &entries[start..h.end] {
                    if touched.insert(i) && eta_of_row[i] != NO_ETA && eta_of_row[i] > e {
                        pending.insert(eta_of_row[i]);
                    }
                    w[i] -= v * t;
                }
            }
            // Partial pivoting over the rows no earlier column claimed:
            // the strict `>` in row order sends ties to the lowest row.
            let mut prow = usize::MAX;
            let mut pmag = PIVOT_TOL;
            touched.for_each_outside(&assigned, |r| {
                let a = w[r].abs();
                if a > pmag {
                    pmag = a;
                    prow = r;
                }
            });
            if prow == usize::MAX {
                return false; // singular: keep the old (still valid) file
            }
            let inv = 1.0 / w[prow];
            let start = entries.len();
            touched.drain(|i| {
                if i != prow && w[i].abs() > DROP_TOL {
                    entries.push((i, w[i]));
                }
                w[i] = 0.0;
            });
            if inv != 1.0 || entries.len() > start {
                eta_of_row[prow] = heads.len();
                heads.push(EtaHead { r: prow, inv, end: entries.len() });
            }
            assigned.insert(prow);
            new_basis[prow] = j;
        }
        self.heads = heads;
        self.entries = entries;
        self.updates = 0;
        self.refactorizations += 1;
        basis.copy_from_slice(&new_basis);
        true
    }
}

/// A set of indices below a fixed bound, one bit each in 64-bit words.
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet { words: vec![0; n.div_ceil(64)] }
    }

    /// Add `i`; `true` when it was not in the set yet.
    #[inline]
    fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Remove and return the smallest member, searching from word
    /// `*cursor` on and leaving the cursor at the member's word. Members
    /// below the cursor's word are not seen, so a caller that only ever
    /// inserts above the last popped member walks the set in order.
    #[inline]
    fn pop_first(&mut self, cursor: &mut usize) -> Option<usize> {
        while let Some(word) = self.words.get_mut(*cursor) {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(*cursor * 64 + bit);
            }
            *cursor += 1;
        }
        None
    }

    /// Call `f` on every member that is not in `other`, in increasing
    /// order.
    #[inline]
    fn for_each_outside(&self, other: &BitSet, mut f: impl FnMut(usize)) {
        for (k, (&word, &skip)) in self.words.iter().zip(&other.words).enumerate() {
            let mut bits = word & !skip;
            while bits != 0 {
                f(k * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Call `f` on every member in increasing order and empty the set.
    #[inline]
    fn drain(&mut self, mut f: impl FnMut(usize)) {
        for (k, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                f(k * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic PRNG so tests need no external crates.
    struct Rng(u64);
    impl Rng {
        fn f(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            lo + (self.0 >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        }
    }

    /// Column accessor over per-column vectors, the shape
    /// [`Factor::refactor`] reads columns in.
    fn by_col<'a>(cols: &'a [Vec<(usize, f64)>]) -> impl Fn(usize) -> &'a [(usize, f64)] {
        move |j| &cols[j]
    }

    /// Dense multiply `B x` where column of row `r`'s basic variable is
    /// `cols[basis[r]]`.
    fn apply_basis(cols: &[Vec<(usize, f64)>], basis: &[usize], x: &[f64]) -> Vec<f64> {
        let m = basis.len();
        let mut out = vec![0.0; m];
        for (r, &j) in basis.iter().enumerate() {
            for &(i, c) in &cols[j] {
                out[i] += c * x[r];
            }
        }
        out
    }

    /// Random sparse well-conditioned columns: identity plus noise.
    fn random_cols(rng: &mut Rng, m: usize) -> Vec<Vec<(usize, f64)>> {
        (0..m)
            .map(|j| {
                let mut col = vec![(j, rng.f(1.0, 3.0))];
                for i in 0..m {
                    if i != j && rng.f(0.0, 1.0) < 0.3 {
                        col.push((i, rng.f(-0.5, 0.5)));
                    }
                }
                col
            })
            .collect()
    }

    #[test]
    fn refactor_then_ftran_solves_bx_eq_b() {
        for seed in 1..=10u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let m = 8;
            let cols = random_cols(&mut rng, m);
            let mut basis: Vec<usize> = (0..m).collect();
            let mut f = Factor::identity();
            assert!(f.refactor(by_col(&cols), &mut basis), "seed {seed}: refactor failed");
            let b: Vec<f64> = (0..m).map(|_| rng.f(-2.0, 2.0)).collect();
            let mut x = b.clone();
            f.ftran(&mut x);
            let back = apply_basis(&cols, &basis, &x);
            for (i, (&bi, &ri)) in b.iter().zip(&back).enumerate() {
                assert!((bi - ri).abs() < 1e-9, "seed {seed} row {i}: {bi} vs {ri}");
            }
        }
    }

    #[test]
    fn btran_is_transpose_solve() {
        for seed in 1..=10u64 {
            let mut rng = Rng(seed.wrapping_mul(0xD1B54A32D192ED03) | 1);
            let m = 7;
            let cols = random_cols(&mut rng, m);
            let mut basis: Vec<usize> = (0..m).collect();
            let mut f = Factor::identity();
            assert!(f.refactor(by_col(&cols), &mut basis));
            let c: Vec<f64> = (0..m).map(|_| rng.f(-1.0, 1.0)).collect();
            let mut y = c.clone();
            f.btran(&mut y);
            // Check B^T y = c, i.e. for every row r: y . col(basis[r]) = c[r].
            for (r, &j) in basis.iter().enumerate() {
                let dot: f64 = cols[j].iter().map(|&(i, v)| v * y[i]).sum();
                assert!((dot - c[r]).abs() < 1e-9, "seed {seed} row {r}: {dot} vs {}", c[r]);
            }
        }
    }

    /// Satellite 4(b): after k pivot-eta updates, `B^-1 b` through the
    /// grown eta file must match a fresh refactorization of the same
    /// basis to tight tolerance.
    #[test]
    fn eta_updates_match_fresh_refactorization() {
        for seed in 1..=10u64 {
            let mut rng = Rng(seed.wrapping_mul(0x2545F4914F6CDD1D) | 1);
            let m = 9;
            // Pool wider than the basis so pivots have columns to bring in.
            let mut cols = random_cols(&mut rng, m);
            for _ in 0..m {
                let mut col = Vec::new();
                for i in 0..m {
                    if rng.f(0.0, 1.0) < 0.5 {
                        col.push((i, rng.f(-1.0, 2.0)));
                    }
                }
                if col.is_empty() {
                    col.push((0, 1.0));
                }
                cols.push(col);
            }
            let mut basis: Vec<usize> = (0..m).collect();
            let mut f = Factor::identity();
            assert!(f.refactor(by_col(&cols), &mut basis));
            // k random (valid) pivots via eta updates.
            let mut w = vec![0.0; m];
            let mut pivots = 0;
            let mut attempt = 0;
            while pivots < 6 && attempt < 60 {
                attempt += 1;
                let j = m + (rng.f(0.0, m as f64) as usize).min(m - 1);
                if basis.contains(&j) {
                    continue;
                }
                w.iter_mut().for_each(|v| *v = 0.0);
                for &(r, c) in &cols[j] {
                    w[r] = c;
                }
                f.ftran(&mut w);
                let Some((prow, _)) =
                    w.iter().enumerate().max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                else {
                    continue;
                };
                if w[prow].abs() < 0.1 {
                    continue;
                }
                f.update(&w, prow);
                basis[prow] = j;
                pivots += 1;
            }
            assert!(pivots > 0, "seed {seed}: no pivots exercised");
            assert_eq!(f.updates_since_refactor(), pivots);
            // Same solve through the eta file and through a fresh factor.
            let b: Vec<f64> = (0..m).map(|_| rng.f(-3.0, 3.0)).collect();
            let mut x_eta = b.clone();
            f.ftran(&mut x_eta);
            let mut fresh = Factor::identity();
            let mut basis2 = basis.clone();
            assert!(fresh.refactor(by_col(&cols), &mut basis2));
            let mut x_fresh = b.clone();
            fresh.ftran(&mut x_fresh);
            // The refactor may permute the row assignment; compare by
            // basic variable, not by row.
            for (r, &j) in basis.iter().enumerate() {
                let r2 = basis2.iter().position(|&jj| jj == j).expect("same basis set");
                assert!(
                    (x_eta[r] - x_fresh[r2]).abs() < 1e-8,
                    "seed {seed} var {j}: eta {} vs fresh {}",
                    x_eta[r],
                    x_fresh[r2]
                );
            }
            assert_eq!(fresh.updates_since_refactor(), 0);
        }
    }

    #[test]
    fn counters_accumulate() {
        let cols = vec![vec![(0, 2.0)], vec![(1, 1.0)], vec![(0, 1.0), (1, 1.0)]];
        let mut basis = vec![0, 1];
        let mut f = Factor::identity();
        assert!(f.refactor(by_col(&cols), &mut basis));
        assert_eq!(f.refactorizations, 1);
        let mut w = vec![1.0, 1.0];
        f.ftran(&mut w);
        f.update(&w, 0);
        assert_eq!(f.eta_updates, 1);
        assert_eq!(f.updates_since_refactor(), 1);
        let mut basis2 = vec![2, 1];
        assert!(f.refactor(by_col(&cols), &mut basis2));
        assert_eq!(f.refactorizations, 2);
        assert_eq!(f.updates_since_refactor(), 0);
    }

    /// The O(1) row-append eta is the pivot eta of `w = e_k + e_r`, bit
    /// for bit, with the same counters.
    #[test]
    fn append_row_is_the_update_of_a_unit_sum() {
        let (k, r) = (1, 3);
        let mut w = vec![0.0; r + 1];
        w[k] = 1.0;
        w[r] = 1.0;
        let (mut a, mut b) = (Factor::identity(), Factor::identity());
        a.update(&w, k);
        b.append_row(k, r);
        assert_eq!(file_bits(&b), file_bits(&a));
        assert_eq!((b.updates, b.eta_updates), (a.updates, a.eta_updates));
    }

    /// One eta the way the file stored it before it became flat arrays:
    /// `(r, inv, off-pivot entries)`.
    type VecEta = (usize, f64, Vec<(usize, f64)>);

    /// An eta file with one vector per eta: the test-side oracle the
    /// flat file is compared against, with its own FTRAN and BTRAN.
    #[derive(Default)]
    struct VecFile {
        etas: Vec<VecEta>,
    }

    impl VecFile {
        fn ftran(&self, x: &mut [f64]) {
            for (r, inv, nz) in &self.etas {
                let t = x[*r] * inv;
                if t == 0.0 {
                    continue;
                }
                x[*r] = t;
                for &(i, v) in nz {
                    x[i] -= v * t;
                }
            }
        }

        fn btran(&self, y: &mut [f64]) {
            for (r, inv, nz) in self.etas.iter().rev() {
                let mut acc = y[*r];
                for &(i, v) in nz {
                    acc -= v * y[i];
                }
                y[*r] = acc * inv;
            }
        }

        /// The pivot eta [`Factor::update`] appends, as its own vector.
        fn update(&mut self, w: &[f64], r: usize) {
            let nz = w
                .iter()
                .enumerate()
                .filter(|&(i, &v)| i != r && v.abs() > DROP_TOL)
                .map(|(i, &v)| (i, v))
                .collect();
            self.etas.push((r, 1.0 / w[r], nz));
        }
    }

    /// One eta of a flat file: `(r, inv, off-pivot entries)`.
    type EtaRef<'a> = (usize, f64, &'a [(usize, f64)]);

    /// The etas of a flat file, in file order.
    fn etas(f: &Factor) -> Vec<EtaRef<'_>> {
        let mut start = 0;
        f.heads
            .iter()
            .map(|h| {
                let nz = &f.entries[start..h.end];
                start = h.end;
                (h.r, h.inv, nz)
            })
            .collect()
    }

    /// The dense elimination `Factor::refactor` replaced, kept as its
    /// bitwise oracle: every pass over the work column costs `rows`, and
    /// every column stores its eta, identity etas included.
    fn dense_refactor(f: &mut VecFile, cols: &[Vec<(usize, f64)>], basis: &mut [usize]) -> bool {
        let m = basis.len();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&k| cols[basis[k]].len());

        let mut fresh = VecFile { etas: Vec::with_capacity(m) };
        let mut assigned = vec![false; m];
        let mut new_basis = vec![usize::MAX; m];
        let mut w = vec![0.0f64; m];
        for &k in &order {
            let j = basis[k];
            w.iter_mut().for_each(|v| *v = 0.0);
            for &(r, c) in &cols[j] {
                w[r] = c;
            }
            fresh.ftran(&mut w);
            let mut prow = usize::MAX;
            let mut pmag = PIVOT_TOL;
            for (r, &v) in w.iter().enumerate() {
                if !assigned[r] && v.abs() > pmag {
                    pmag = v.abs();
                    prow = r;
                }
            }
            if prow == usize::MAX {
                return false;
            }
            fresh.update(&w, prow);
            assigned[prow] = true;
            new_basis[prow] = j;
        }
        *f = fresh;
        basis.copy_from_slice(&new_basis);
        true
    }

    /// An eta as comparable bits: `(r, inv, [(row, value)])`.
    type EtaBits = (usize, u64, Vec<(usize, u64)>);

    fn eta_bits((r, inv, nz): EtaRef<'_>) -> EtaBits {
        (r, inv.to_bits(), nz.iter().map(|&(i, v)| (i, v.to_bits())).collect())
    }

    fn file_bits(f: &Factor) -> Vec<EtaBits> {
        etas(f).into_iter().map(eta_bits).collect()
    }

    fn vec_file_bits(f: &VecFile) -> Vec<EtaBits> {
        f.etas.iter().map(|(r, inv, nz)| eta_bits((*r, *inv, nz))).collect()
    }

    fn vec_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn is_identity((_, inv, nz): &VecEta) -> bool {
        *inv == 1.0 && nz.is_empty()
    }

    fn pick(rng: &mut Rng, n: usize) -> usize {
        (rng.f(0.0, n as f64) as usize).min(n - 1)
    }

    /// A random basis shaped like the simplex's: `m + 3` pool columns,
    /// `m` of them basic in shuffled rows. A pool column is a unit slack,
    /// a `-1` slack, or a structural column with a diagonal entry on a
    /// row permutation plus random off-diagonal entries. Coefficients
    /// are small integers in most bases (pivot magnitudes tie) and reals
    /// in the rest; some bases carry a dense row through every structural
    /// column, and some a duplicated column, which makes them singular.
    fn random_basis(rng: &mut Rng, m: usize) -> (Vec<Vec<(usize, f64)>>, Vec<usize>) {
        let integer = rng.f(0.0, 1.0) < 0.6;
        let dense_row = (rng.f(0.0, 1.0) < 0.3).then(|| pick(rng, m));
        let density = rng.f(0.05, 0.4);
        let coeff = |rng: &mut Rng| {
            let v = if integer { rng.f(1.0, 4.0).floor() } else { rng.f(0.1, 3.0) };
            if rng.f(0.0, 1.0) < 0.5 {
                -v
            } else {
                v
            }
        };
        let mut cols = Vec::with_capacity(m + 3);
        for k in 0..m + 3 {
            let d = k % m;
            let u = rng.f(0.0, 1.0);
            let col = if u < 0.4 {
                vec![(d, 1.0)]
            } else if u < 0.5 {
                vec![(d, -1.0)]
            } else {
                let mut col = Vec::new();
                for i in 0..m {
                    if i == d || Some(i) == dense_row || rng.f(0.0, 1.0) < density {
                        col.push((i, coeff(rng)));
                    }
                }
                col
            };
            cols.push(col);
        }
        if rng.f(0.0, 1.0) < 0.4 {
            let (a, b) = (pick(rng, m), pick(rng, m));
            if a != b {
                cols[b] = cols[a].clone();
            }
        }
        let mut basis: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            basis.swap(i, pick(rng, i + 1));
        }
        (cols, basis)
    }

    /// Rebuild one random basis of `m` rows both ways and require the
    /// sparse rebuild to match the dense elimination bit for bit.
    /// Returns `None` for a singular basis, else the number of stored
    /// etas and of identity etas the sparse rebuild skipped.
    fn check_sparse_against_dense(seed: u64, rng: &mut Rng, m: usize) -> Option<(usize, usize)> {
        let (cols, basis) = random_basis(rng, m);
        let (mut dense, mut sparse) = (VecFile::default(), Factor::identity());
        let (mut bd, mut bs) = (basis.clone(), basis.clone());
        let ok = dense_refactor(&mut dense, &cols, &mut bd);
        assert_eq!(sparse.refactor(by_col(&cols), &mut bs), ok, "seed {seed}: verdict");
        assert_eq!(bs, bd, "seed {seed}: row assignment");
        if !ok {
            assert_eq!(bs, basis, "seed {seed}: singular rebuild moved the basis");
            return None;
        }
        let identities = dense.etas.iter().filter(|e| is_identity(e)).count();
        let want =
            VecFile { etas: dense.etas.iter().filter(|e| !is_identity(e)).cloned().collect() };
        assert_eq!(file_bits(&sparse), vec_file_bits(&want), "seed {seed}: eta file");
        let v: Vec<f64> = (0..m).map(|_| rng.f(-2.0, 2.0)).collect();
        let (mut a, mut b) = (v.clone(), v.clone());
        dense.ftran(&mut a);
        sparse.ftran(&mut b);
        assert_eq!(vec_bits(&b), vec_bits(&a), "seed {seed}: ftran");
        let (mut a, mut b) = (v.clone(), v);
        dense.btran(&mut a);
        sparse.btran(&mut b);
        assert_eq!(vec_bits(&b), vec_bits(&a), "seed {seed}: btran");
        Some((want.etas.len(), identities))
    }

    /// The sparse rebuild must reproduce the dense elimination bit for
    /// bit: same verdict, same row assignment, the same non-identity etas
    /// entry for entry, and therefore the same FTRAN and BTRAN. Bases of
    /// up to 31 rows keep the rebuild's bitsets in one word; bases of 65
    /// to 200 rows spread them over several and number etas past 64.
    #[test]
    fn sparse_refactor_matches_dense_bitwise() {
        let (mut nonsingular, mut singular, mut identities) = (0, 0, 0);
        for seed in 1..=400u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let m = 2 + pick(&mut rng, 30);
            match check_sparse_against_dense(seed, &mut rng, m) {
                Some((_, skipped)) => {
                    nonsingular += 1;
                    identities += skipped;
                }
                None => singular += 1,
            }
        }
        assert!(
            nonsingular >= 100 && singular >= 100 && identities > 0,
            "{nonsingular} nonsingular, {singular} singular, {identities} identity etas"
        );
        let (mut wide, mut wide_singular) = (0, 0);
        for seed in 401..=500u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let m = 65 + pick(&mut rng, 136);
            match check_sparse_against_dense(seed, &mut rng, m) {
                Some((etas, _)) => wide += usize::from(etas > 64),
                None => wide_singular += 1,
            }
        }
        assert!(
            wide >= 25 && wide_singular >= 10,
            "{wide} files past 64 etas, {wide_singular} singular"
        );
    }

    /// The flat file solves like a file of one vector per eta, bit for
    /// bit, while it grows past a rebuild by pivot etas of every length
    /// (none included, dust dropped) and by row appends; and one sweep of
    /// the BTRAN pair equals two lone BTRANs.
    #[test]
    fn flat_file_matches_a_vec_file_through_updates_and_row_appends() {
        let mut grown = 0;
        for seed in 1..=60u64 {
            let mut rng = Rng(seed.wrapping_mul(0xD1B54A32D192ED03) | 1);
            let m = 2 + pick(&mut rng, 20);
            let (cols, basis) = random_basis(&mut rng, m);
            let (mut flat, mut vecs) = (Factor::identity(), VecFile::default());
            let (mut bf, mut bv) = (basis.clone(), basis);
            if !dense_refactor(&mut vecs, &cols, &mut bv) {
                continue;
            }
            assert!(flat.refactor(by_col(&cols), &mut bf));
            vecs.etas.retain(|e| !is_identity(e));
            let mut rows = m;
            for step in 0..10 {
                if rng.f(0.0, 1.0) < 0.3 {
                    let k = pick(&mut rng, rows);
                    flat.append_row(k, rows);
                    vecs.etas.push((k, 1.0, vec![(rows, 1.0)]));
                    rows += 1;
                } else {
                    let density = rng.f(0.0, 0.6);
                    let mut w: Vec<f64> = (0..rows)
                        .map(|_| {
                            let u = rng.f(0.0, 1.0);
                            if u < density {
                                rng.f(-2.0, 2.0)
                            } else if u < density + 0.1 {
                                // Dust below `DROP_TOL`, which no eta keeps.
                                rng.f(-1.0, 1.0) * DROP_TOL
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    let r = pick(&mut rng, rows);
                    w[r] = rng.f(0.5, 2.0);
                    flat.update(&w, r);
                    vecs.update(&w, r);
                }
                assert_eq!(file_bits(&flat), vec_file_bits(&vecs), "seed {seed} step {step}");
                let v: Vec<f64> = (0..rows).map(|_| rng.f(-2.0, 2.0)).collect();
                let (mut a, mut b) = (v.clone(), v.clone());
                vecs.ftran(&mut a);
                flat.ftran(&mut b);
                assert_eq!(vec_bits(&b), vec_bits(&a), "seed {seed} step {step}: ftran");
                let (mut a, mut b) = (v.clone(), v.clone());
                vecs.btran(&mut a);
                flat.btran(&mut b);
                assert_eq!(vec_bits(&b), vec_bits(&a), "seed {seed} step {step}: btran");
                // One sweep for a unit vector and a dense one, as the dual
                // pivot prices its row, equals two lone BTRANs.
                let mut unit = vec![0.0; rows];
                unit[pick(&mut rng, rows)] = 1.0;
                let (mut lone_unit, mut lone_v) = (unit.clone(), v.clone());
                flat.btran(&mut lone_unit);
                flat.btran(&mut lone_v);
                let (mut pair_unit, mut pair_v) = (unit, v);
                flat.btran_pair(&mut pair_unit, &mut pair_v);
                assert_eq!(vec_bits(&pair_unit), vec_bits(&lone_unit), "seed {seed} step {step}");
                assert_eq!(vec_bits(&pair_v), vec_bits(&lone_v), "seed {seed} step {step}");
            }
            assert_eq!(flat.nnz(), vecs.etas.iter().map(|e| e.2.len() + 1).sum::<usize>());
            grown += 1;
        }
        assert!(grown >= 20, "only {grown} files grown");
    }

    /// A singular rebuild on top of a grown file returns `false` and
    /// leaves the etas, the pivot count and the row assignment alone.
    #[test]
    fn singular_refactor_keeps_old_file() {
        let mut rng = Rng(0x5EED_F00D);
        let m = 6;
        let mut cols = random_cols(&mut rng, m);
        cols.push(cols[2].clone());
        let mut basis: Vec<usize> = (0..m).collect();
        let mut f = Factor::identity();
        assert!(f.refactor(by_col(&cols), &mut basis));
        for r in 0..3 {
            let mut w: Vec<f64> = (0..m).map(|_| rng.f(-1.0, 1.0)).collect();
            w[r] = 2.0;
            f.update(&w, r);
        }
        let before = file_bits(&f);
        let mut singular = basis.clone();
        let slot = basis.iter().position(|&j| j != 2).unwrap();
        singular[slot] = m; // column 2 twice
        let kept = singular.clone();
        assert!(!f.refactor(by_col(&cols), &mut singular));
        assert_eq!(singular, kept);
        assert_eq!(file_bits(&f), before);
        assert_eq!(f.updates_since_refactor(), 3);
        assert_eq!((f.refactorizations, f.eta_updates), (1, 3));
    }

    /// Pivot choice at the edges: a magnitude equal to `PIVOT_TOL` is
    /// singular, and equal magnitudes go to the lowest row.
    #[test]
    fn pivot_tolerance_is_strict_and_ties_go_low() {
        let mut basis = vec![0, 1];
        let tiny = vec![vec![(0, PIVOT_TOL), (1, -PIVOT_TOL)], vec![(1, 1.0)]];
        assert!(!Factor::identity().refactor(by_col(&tiny), &mut basis));
        // Column 0 reads magnitude 2 on both rows and lists row 1 first,
        // so its touched list is out of row order; row 0 must still win.
        // Had row 1 won, column 1 would land on row 0 instead.
        let tied = vec![vec![(1, -2.0), (0, 2.0)], vec![(0, 1.0), (1, 3.0)]];
        let mut basis = vec![0, 1];
        assert!(Factor::identity().refactor(by_col(&tied), &mut basis));
        assert_eq!(basis, vec![0, 1]);
    }
}
