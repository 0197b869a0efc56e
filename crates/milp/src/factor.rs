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
//! cold refreshes). The rebuild is sparse: each column's work touches
//! only the rows its elimination fills, and a column that eliminates to
//! a bare `+1` (a unit slack) stores no eta at all, since applying an
//! identity eta is an exact no-op.

/// One eta matrix: identity with column `r` replaced by a sparse column.
#[derive(Debug, Clone)]
struct Eta {
    /// Pivot row.
    r: usize,
    /// `1 / w[r]` — stored inverted so applications multiply.
    inv: f64,
    /// Off-pivot nonzeros `(row, w[row])`, `row != r`.
    nz: Vec<(usize, f64)>,
}

/// Entries below this magnitude are dropped from stored eta columns;
/// keeping denormal dust would only grow the file and add noise.
const DROP_TOL: f64 = 1e-12;

/// Pivot elements below this magnitude make a refactorization attempt
/// numerically singular; the old eta file is kept instead.
const PIVOT_TOL: f64 = 1e-10;

/// An eta-file factorization of the current simplex basis.
#[derive(Debug, Clone, Default)]
pub(crate) struct Factor {
    etas: Vec<Eta>,
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

    /// Total stored nonzeros (memory-weight proxy). A refactorization
    /// stores no identity etas, so unit slacks count nothing here.
    pub(crate) fn nnz(&self) -> usize {
        self.etas.iter().map(|e| e.nz.len() + 1).sum()
    }

    /// FTRAN: overwrite `x` with `B^-1 x` by applying every eta in file
    /// order.
    pub(crate) fn ftran(&self, x: &mut [f64]) {
        for eta in &self.etas {
            let t = x[eta.r] * eta.inv;
            if t == 0.0 {
                continue;
            }
            x[eta.r] = t;
            for &(i, v) in &eta.nz {
                x[i] -= v * t;
            }
        }
    }

    /// BTRAN: overwrite `y` with `B^-T y` by applying every eta in
    /// reverse file order.
    pub(crate) fn btran(&self, y: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut acc = y[eta.r];
            for &(i, v) in &eta.nz {
                acc -= v * y[i];
            }
            y[eta.r] = acc * eta.inv;
        }
    }

    /// Append the pivot eta for entering column `w = B^-1 a_j` at pivot
    /// row `r` (the basis change `B <- B E`).
    pub(crate) fn update(&mut self, w: &[f64], r: usize) {
        let nz: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != r && v.abs() > DROP_TOL)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta { r, inv: 1.0 / w[r], nz });
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
        self.etas.push(Eta { r: k, inv: 1.0, nz: vec![(r, 1.0)] });
        self.updates += 1;
        self.eta_updates += 1;
    }

    /// Rebuild the eta file from scratch off the current basis columns:
    /// Gaussian elimination in product form. `cols[basis[k]]` is the
    /// sparse matrix column of the variable basic in row `k`; columns are
    /// processed smallest-nonzero-count first (slacks and artificials
    /// come first) with partial pivoting over still-unassigned rows: the
    /// largest magnitude above `PIVOT_TOL` wins, ties go to the lowest
    /// row.
    ///
    /// The elimination is sparse. The work column is a dense array whose
    /// support is tracked in a touched-row list, so loading, pivot search,
    /// eta extraction and clearing cost the column's fill, not `rows`.
    /// A column that eliminates to `+1` at its pivot row with nothing
    /// else (a unit slack) assigns its row and stores no eta.
    ///
    /// On success the row assignment in `basis` is permuted to match the
    /// chosen pivot rows and `true` is returned; on a numerically
    /// singular column the old file and `basis` are kept untouched and
    /// `false` is returned (the solver just keeps growing the eta file
    /// until the next trigger).
    pub(crate) fn refactor(&mut self, cols: &[Vec<(usize, f64)>], basis: &mut [usize]) -> bool {
        let m = basis.len();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&k| cols[basis[k]].len());

        let mut fresh = Factor {
            etas: Vec::new(),
            updates: 0,
            refactorizations: self.refactorizations,
            eta_updates: self.eta_updates,
        };
        let mut assigned = vec![false; m];
        let mut new_basis = vec![usize::MAX; m];
        let mut w = vec![0.0f64; m];
        let mut seen = vec![false; m];
        let mut touched: Vec<usize> = Vec::new();
        for &k in &order {
            let j = basis[k];
            for &(r, c) in &cols[j] {
                w[r] = c;
                if !seen[r] {
                    seen[r] = true;
                    touched.push(r);
                }
            }
            // FTRAN through the fresh file, recording fill-in rows.
            for eta in &fresh.etas {
                let t = w[eta.r] * eta.inv;
                if t == 0.0 {
                    continue;
                }
                w[eta.r] = t;
                for &(i, v) in &eta.nz {
                    if !seen[i] {
                        seen[i] = true;
                        touched.push(i);
                    }
                    w[i] -= v * t;
                }
            }
            // Partial pivoting over the rows no earlier column claimed.
            let mut prow = usize::MAX;
            let mut pmag = PIVOT_TOL;
            for &r in &touched {
                let a = w[r].abs();
                if !assigned[r] && (a > pmag || (a == pmag && prow != usize::MAX && r < prow)) {
                    pmag = a;
                    prow = r;
                }
            }
            if prow == usize::MAX {
                return false; // singular: keep the old (still valid) file
            }
            // BTRAN sums an eta's entries in stored order: keep row order.
            let mut nz: Vec<(usize, f64)> = touched
                .iter()
                .filter(|&&i| i != prow && w[i].abs() > DROP_TOL)
                .map(|&i| (i, w[i]))
                .collect();
            nz.sort_unstable_by_key(|&(i, _)| i);
            let inv = 1.0 / w[prow];
            if inv != 1.0 || !nz.is_empty() {
                fresh.etas.push(Eta { r: prow, inv, nz });
            }
            assigned[prow] = true;
            new_basis[prow] = j;
            for &i in &touched {
                w[i] = 0.0;
                seen[i] = false;
            }
            touched.clear();
        }
        fresh.refactorizations += 1;
        *self = fresh;
        basis.copy_from_slice(&new_basis);
        true
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
            assert!(f.refactor(&cols, &mut basis), "seed {seed}: refactor failed");
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
            assert!(f.refactor(&cols, &mut basis));
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
            assert!(f.refactor(&cols, &mut basis));
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
            assert!(fresh.refactor(&cols, &mut basis2));
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
        assert!(f.refactor(&cols, &mut basis));
        assert_eq!(f.refactorizations, 1);
        let mut w = vec![1.0, 1.0];
        f.ftran(&mut w);
        f.update(&w, 0);
        assert_eq!(f.eta_updates, 1);
        assert_eq!(f.updates_since_refactor(), 1);
        let mut basis2 = vec![2, 1];
        assert!(f.refactor(&cols, &mut basis2));
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

    /// The dense elimination `Factor::refactor` replaced, kept as its
    /// bitwise oracle: every pass over the work column costs `rows`, and
    /// every column stores its eta, identity etas included.
    fn dense_refactor(f: &mut Factor, cols: &[Vec<(usize, f64)>], basis: &mut [usize]) -> bool {
        let m = basis.len();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&k| cols[basis[k]].len());

        let mut fresh = Factor {
            etas: Vec::with_capacity(m),
            updates: 0,
            refactorizations: f.refactorizations,
            eta_updates: f.eta_updates,
        };
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
            let nz: Vec<(usize, f64)> = w
                .iter()
                .enumerate()
                .filter(|&(i, &v)| i != prow && v.abs() > DROP_TOL)
                .map(|(i, &v)| (i, v))
                .collect();
            fresh.etas.push(Eta { r: prow, inv: 1.0 / w[prow], nz });
            assigned[prow] = true;
            new_basis[prow] = j;
        }
        fresh.refactorizations += 1;
        *f = fresh;
        basis.copy_from_slice(&new_basis);
        true
    }

    /// An eta as comparable bits: `(r, inv, [(row, value)])`.
    type EtaBits = (usize, u64, Vec<(usize, u64)>);

    fn eta_bits(e: &Eta) -> EtaBits {
        (e.r, e.inv.to_bits(), e.nz.iter().map(|&(i, v)| (i, v.to_bits())).collect())
    }

    fn file_bits(f: &Factor) -> Vec<EtaBits> {
        f.etas.iter().map(eta_bits).collect()
    }

    fn vec_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn is_identity(e: &Eta) -> bool {
        e.inv == 1.0 && e.nz.is_empty()
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

    /// The sparse rebuild must reproduce the dense elimination bit for
    /// bit: same verdict, same row assignment, the same non-identity etas
    /// entry for entry, and therefore the same FTRAN and BTRAN.
    #[test]
    fn sparse_refactor_matches_dense_bitwise() {
        let (mut nonsingular, mut singular, mut identities) = (0, 0, 0);
        for seed in 1..=400u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let m = 2 + pick(&mut rng, 30);
            let (cols, basis) = random_basis(&mut rng, m);
            let (mut dense, mut sparse) = (Factor::identity(), Factor::identity());
            let (mut bd, mut bs) = (basis.clone(), basis.clone());
            let ok = dense_refactor(&mut dense, &cols, &mut bd);
            assert_eq!(sparse.refactor(&cols, &mut bs), ok, "seed {seed}: verdict");
            assert_eq!(bs, bd, "seed {seed}: row assignment");
            if !ok {
                assert_eq!(bs, basis, "seed {seed}: singular rebuild moved the basis");
                singular += 1;
                continue;
            }
            nonsingular += 1;
            identities += dense.etas.iter().filter(|e| is_identity(e)).count();
            let want: Vec<_> =
                dense.etas.iter().filter(|e| !is_identity(e)).map(eta_bits).collect();
            assert_eq!(file_bits(&sparse), want, "seed {seed}: eta file");
            let v: Vec<f64> = (0..m).map(|_| rng.f(-2.0, 2.0)).collect();
            let solves: [fn(&Factor, &mut [f64]); 2] = [Factor::ftran, Factor::btran];
            for solve in solves {
                let (mut a, mut b) = (v.clone(), v.clone());
                solve(&dense, &mut a);
                solve(&sparse, &mut b);
                assert_eq!(vec_bits(&b), vec_bits(&a), "seed {seed}: solve");
            }
        }
        assert!(
            nonsingular >= 100 && singular >= 100 && identities > 0,
            "{nonsingular} nonsingular, {singular} singular, {identities} identity etas"
        );
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
        assert!(f.refactor(&cols, &mut basis));
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
        assert!(!f.refactor(&cols, &mut singular));
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
        assert!(!Factor::identity().refactor(&tiny, &mut basis));
        // Column 0 reads magnitude 2 on both rows and lists row 1 first,
        // so its touched list is out of row order; row 0 must still win.
        // Had row 1 won, column 1 would land on row 0 instead.
        let tied = vec![vec![(1, -2.0), (0, 2.0)], vec![(0, 1.0), (1, 3.0)]];
        let mut basis = vec![0, 1];
        assert!(Factor::identity().refactor(&tied, &mut basis));
        assert_eq!(basis, vec![0, 1]);
    }
}
