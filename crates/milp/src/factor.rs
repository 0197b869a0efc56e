//! Basis factorization: an eta file, rebuilt as a sparse LU and grown by
//! product-form updates in between.
//!
//! The revised simplex ([`crate::simplex`]) never forms `B^-1`
//! explicitly. The basis inverse is carried as a product of *eta
//! matrices*, each identity except for one column, applied in file
//! order. Every pivot appends one (the product-form, PFI, update): if
//! the entering column's transformed form is `w = B^-1 a_j` and the pivot
//! row is `r`, then the new basis satisfies `B_new = B E` where `E` is
//! identity with column `r` replaced by `w`. Solving with `B_new` is
//! solving with `B` plus one sparse eta application.
//!
//! The eta file grows by one column per pivot, so both FTRAN
//! (`x = B^-1 b`) and BTRAN (`y = c_B B^-T`) slow down linearly with
//! pivots since the last factorization. [`Factor::refactor`] rebuilds
//! the file from scratch off the current basis columns as a sparse LU
//! factorization, `B = L U` up to row and column order, written into the
//! same file: one eta per elimination step for `L`, then one per column
//! of `U` in reverse pivot order, so FTRAN through the file is forward
//! elimination followed by back substitution. Pivots follow Markowitz's
//! rule with threshold partial pivoting, singletons first. On a pattern
//! basis, whose machine and area rows run through every structural
//! column, that order leaves those two rows for last and keeps the file
//! close to the basis' own nonzero count; unit slacks store nothing. The
//! solver rebuilds every [`crate::model::Model::set_refactor_interval`]
//! pivots (default 32).
//!
//! Storage is two flat arrays: one header per eta (pivot row, `1/pivot`,
//! end offset) and one entries array holding every eta's off-pivot
//! nonzeros back to back, in file order. FTRAN and BTRAN walk slices of
//! it, a pivot or a row append pushes onto its end, and cloning the
//! file is two copies however many etas it holds.

use std::cell::RefCell;

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

    /// Rebuild the eta file from scratch off the current basis columns as
    /// a sparse LU factorization, `col(basis[k])` being the sparse matrix
    /// column of the variable basic in row `k`.
    ///
    /// Gaussian elimination on the active submatrix picks each pivot by
    /// Markowitz's rule with threshold partial pivoting, every candidate
    /// above `PIVOT_TOL` in magnitude:
    ///
    /// 1. a column singleton, the lowest column first;
    /// 2. else a row singleton, the lowest row first;
    /// 3. else the entry with the smallest `(r - 1)(c - 1)`, `r` and `c`
    ///    the active counts of its row and column, among the entries at
    ///    least `THRESHOLD` times their column's largest magnitude; ties
    ///    go to the lowest row, then the lowest column.
    ///
    /// No candidate left means a numerically singular basis. Singletons
    /// come from bitset queues and the Markowitz search reads rows and
    /// columns by increasing count, stopping once no unread entry can
    /// beat the best, so no step makes a pass over all `m` rows or
    /// columns.
    /// Updated entries of magnitude up to `DROP_TOL` leave the active
    /// submatrix, as do multipliers that small.
    ///
    /// With `L` the elimination's row operations and `U` the pivot rows,
    /// `B^-1 = U^-1 L^-1`, and the file holds exactly that: one L eta per
    /// pivot column with other active entries (pivot row `r`, `1/pivot`
    /// 1, the multipliers by row), in elimination order, then one eta per
    /// U column in reverse pivot order (pivot row, `1/pivot`, the
    /// column's entries in the rows pivoted before it, in pivot order).
    /// FTRAN through the file is forward elimination and then back
    /// substitution. An identity eta (a unit slack's U column, a column
    /// singleton's L column) is not stored.
    ///
    /// On success the row assignment in `basis` is permuted to match the
    /// pivot rows and `true` is returned; on a numerically singular basis
    /// the old file and `basis` are kept untouched and `false` is
    /// returned (the solver just keeps growing the eta file until the
    /// next trigger).
    pub(crate) fn refactor<'a>(
        &mut self,
        col: impl Fn(usize) -> &'a [(usize, f64)],
        basis: &mut [usize],
    ) -> bool {
        let m = basis.len();
        let mut heads: Vec<EtaHead> = Vec::with_capacity(m);
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(self.entries.len());
        let mut new_basis = vec![usize::MAX; m];
        let factored = WORK.with_borrow_mut(|lu| {
            if !lu.load(m, |k| col(basis[k])) || lu.eliminate(&mut heads, &mut entries).is_none() {
                return false;
            }
            lu.write_u(&mut heads, &mut entries);
            for &(r, c, _) in &lu.pivots {
                new_basis[r] = basis[c];
            }
            true
        });
        if !factored {
            return false;
        }
        self.heads = heads;
        self.entries = entries;
        self.updates = 0;
        self.refactorizations += 1;
        basis.copy_from_slice(&new_basis);
        true
    }
}

/// An entry may pivot in a Markowitz step (rule 3 of
/// [`Factor::refactor`]) only when its magnitude is at least this
/// fraction of its column's largest.
const THRESHOLD: f64 = 0.1;

/// End of a [`Buckets`] list, and an unset position.
const NIL: usize = usize::MAX;

thread_local! {
    /// The rebuild's work arrays, kept from one rebuild to the next on
    /// each thread instead of allocated afresh.
    static WORK: RefCell<Lu> = RefCell::new(Lu::default());
}

/// The active submatrix of a Markowitz elimination, and what it has
/// produced so far. Columns are numbered by their basis position.
#[derive(Default)]
struct Lu {
    /// Column entries `(row, value)`: column `k`'s active ones are
    /// `ents[cbeg[k]..cbeg[k] + cols.count[k]]`, with room for `ccap[k]`.
    /// A column that outgrows its room moves to the end of the array.
    ents: Vec<(usize, f64)>,
    cbeg: Vec<usize>,
    ccap: Vec<usize>,
    /// Row patterns: the columns of row `i`'s active entries are among
    /// `pats[rbeg[i]..rbeg[i] + rlen[i]]` (room for `rcap[i]`), with
    /// eliminated columns left in until a read of the row drops them.
    pats: Vec<usize>,
    rbeg: Vec<usize>,
    rlen: Vec<usize>,
    rcap: Vec<usize>,
    /// Live columns and rows, by active count.
    cols: Buckets,
    rows: Buckets,
    col_live: Vec<bool>,
    row_live: Vec<bool>,
    /// Column and row singletons, queued when a count drops to one and
    /// checked again when popped.
    col_singles: MinSet,
    row_singles: MinSet,
    /// `THRESHOLD` times each column's largest magnitude, NaN until
    /// computed and again once the column changes.
    big: Vec<f64>,
    /// Position of each row in the column being updated, else `NIL`.
    at: Vec<usize>,
    /// The current pivot column's multipliers `(row, l)`, by row.
    mult: Vec<(usize, f64)>,
    /// Fill-in of the column being updated.
    fills: Vec<(usize, f64)>,
    /// U entries `(row, value, next)`, each column's linked in pivot
    /// order from `u_head` to `u_tail`.
    u: Vec<(usize, f64, usize)>,
    u_head: Vec<usize>,
    u_tail: Vec<usize>,
    /// Pivots `(row, column, value)`, in elimination order.
    pivots: Vec<(usize, usize, f64)>,
}

impl Lu {
    /// Load the basis columns `col(0..m)` as the active submatrix, over
    /// whatever an earlier rebuild left; `false` when a column or a row
    /// holds no entry above `DROP_TOL`, which no elimination can pivot.
    fn load<'a>(&mut self, m: usize, col: impl Fn(usize) -> &'a [(usize, f64)]) -> bool {
        let (ents, ccount, rcount) = (&mut self.ents, &mut self.cols.count, &mut self.rows.count);
        ents.clear();
        self.cbeg.clear();
        ccount.clear();
        refill(rcount, m, 0);
        for k in 0..m {
            let beg = ents.len();
            for &(i, v) in col(k) {
                if v.abs() > DROP_TOL {
                    ents.push((i, v));
                    rcount[i] += 1;
                }
            }
            if ents.len() == beg {
                return false;
            }
            self.cbeg.push(beg);
            ccount.push(ents.len() - beg);
        }
        if rcount.contains(&0) {
            return false;
        }
        self.rbeg.clear();
        let mut total = 0;
        for &c in rcount.iter() {
            self.rbeg.push(total);
            total += c;
        }
        refill(&mut self.pats, total, 0);
        refill(&mut self.rlen, m, 0);
        for k in 0..m {
            for &(i, _) in &ents[self.cbeg[k]..self.cbeg[k] + ccount[k]] {
                self.pats[self.rbeg[i] + self.rlen[i]] = k;
                self.rlen[i] += 1;
            }
        }
        self.col_singles.reset(m);
        self.row_singles.reset(m);
        for k in (0..m).filter(|&k| ccount[k] == 1) {
            self.col_singles.insert(k);
        }
        for i in (0..m).filter(|&i| rcount[i] == 1) {
            self.row_singles.insert(i);
        }
        self.ccap.clone_from(ccount);
        self.rcap.clone_from(rcount);
        self.cols.linked = false;
        self.rows.linked = false;
        refill(&mut self.col_live, m, true);
        refill(&mut self.row_live, m, true);
        refill(&mut self.big, m, f64::NAN);
        refill(&mut self.at, m, NIL);
        self.u.clear();
        refill(&mut self.u_head, m, NIL);
        refill(&mut self.u_tail, m, NIL);
        self.pivots.clear();
        true
    }

    /// Column `k`'s active entries.
    fn col(&self, k: usize) -> &[(usize, f64)] {
        &self.ents[self.cbeg[k]..self.cbeg[k] + self.cols.count[k]]
    }

    /// The value of active entry `(i, k)`.
    fn value(&self, i: usize, k: usize) -> f64 {
        self.col(k).iter().find(|e| e.0 == i).expect("an active entry").1
    }

    /// Drop eliminated columns from row `i`'s pattern; returns its length,
    /// which is then the row's active count.
    fn compact_row(&mut self, i: usize) -> usize {
        let beg = self.rbeg[i];
        let mut n = 0;
        for p in beg..beg + self.rlen[i] {
            let k = self.pats[p];
            if self.col_live[k] {
                self.pats[beg + n] = k;
                n += 1;
            }
        }
        self.rlen[i] = n;
        n
    }

    /// Run the elimination, appending the L etas to the file; `None` on a
    /// numerically singular basis.
    fn eliminate(
        &mut self,
        heads: &mut Vec<EtaHead>,
        entries: &mut Vec<(usize, f64)>,
    ) -> Option<()> {
        for _ in 0..self.col_live.len() {
            let (r, c) = self.pick()?;
            self.pivot(r, c, heads, entries)?;
        }
        Some(())
    }

    /// The next pivot `(row, column)` under the rule of
    /// [`Factor::refactor`], or `None` when no entry qualifies.
    fn pick(&mut self) -> Option<(usize, usize)> {
        while let Some(k) = self.col_singles.pop() {
            if self.col_live[k] && self.cols.count[k] == 1 {
                let (i, v) = self.ents[self.cbeg[k]];
                if v.abs() > PIVOT_TOL {
                    return Some((i, k));
                }
            }
        }
        while let Some(i) = self.row_singles.pop() {
            if self.row_live[i] && self.rows.count[i] == 1 {
                self.compact_row(i);
                let k = self.pats[self.rbeg[i]];
                if self.value(i, k).abs() > PIVOT_TOL {
                    return Some((i, k));
                }
            }
        }
        self.markowitz()
    }

    /// Rule 3: the eligible entry with the smallest `(r - 1)(c - 1)`,
    /// ties to the lowest row and column. Columns and rows are read by
    /// increasing count `n`; once they are read up to `n`, every unread
    /// entry has both counts above `n`, so a best count below `n * n`
    /// is final. An entry that cannot beat the best so far is passed
    /// over before its eligibility is checked.
    fn markowitz(&mut self) -> Option<(usize, usize)> {
        if !self.cols.linked {
            self.cols.link_all(&self.col_live);
            self.rows.link_all(&self.row_live);
        }
        // `(count, row, column)`: tuple order is the rule's order.
        let mut best: Option<(usize, usize, usize)> = None;
        let beats = |best: Option<(usize, usize, usize)>, key| best.is_none_or(|b| key < b);
        for n in 1..=self.col_live.len() {
            let mut k = self.cols.head[n];
            while k != NIL {
                for q in self.cbeg[k]..self.cbeg[k] + n {
                    let (i, v) = self.ents[q];
                    let key = ((self.rows.count[i] - 1) * (n - 1), i, k);
                    if beats(best, key) && self.eligible(k, v) {
                        best = Some(key);
                    }
                }
                k = self.cols.next[k];
            }
            // A row of count `n` adds the entries whose column count is
            // above `n` (the others were read above), each at least
            // `(n - 1) n`.
            if best.is_none_or(|b| b.0 >= (n - 1) * n) {
                let mut i = self.rows.head[n];
                while i != NIL {
                    let len = self.compact_row(i);
                    for slot in self.rbeg[i]..self.rbeg[i] + len {
                        let k = self.pats[slot];
                        let c = self.cols.count[k];
                        let key = ((n - 1) * (c - 1), i, k);
                        if c > n && beats(best, key) && self.eligible(k, self.value(i, k)) {
                            best = Some(key);
                        }
                    }
                    i = self.rows.next[i];
                }
            }
            if best.is_some_and(|b| b.0 < n * n) {
                break;
            }
        }
        best.map(|(_, i, k)| (i, k))
    }

    /// Whether `v`, an active entry of column `k`, is eligible under
    /// rule 3: above `PIVOT_TOL` and at least `THRESHOLD` times the
    /// column's largest magnitude, which is cached until the column
    /// changes.
    fn eligible(&mut self, k: usize, v: f64) -> bool {
        if v.abs() <= PIVOT_TOL {
            return false;
        }
        if self.big[k].is_nan() {
            self.big[k] = THRESHOLD * self.col(k).iter().fold(0.0, |a: f64, e| a.max(e.1.abs()));
        }
        v.abs() >= self.big[k]
    }

    /// Eliminate with pivot `(r, c)`: column `c`'s other entries become
    /// the L eta's multipliers, row `r`'s other entries become U entries,
    /// and each column of row `r` takes the row operations. `None` when
    /// a live row or column is left empty: the basis is singular.
    fn pivot(
        &mut self,
        r: usize,
        c: usize,
        heads: &mut Vec<EtaHead>,
        entries: &mut Vec<(usize, f64)>,
    ) -> Option<()> {
        let p = self.value(r, c);
        self.col_live[c] = false;
        self.cols.unlink(c);
        self.mult.clear();
        for q in self.cbeg[c]..self.cbeg[c] + self.cols.count[c] {
            let (i, v) = self.ents[q];
            if i != r {
                let l = v / p;
                if l.abs() > DROP_TOL {
                    self.mult.push((i, l));
                }
                self.drop_row_entry(i)?;
            }
        }
        if !self.mult.is_empty() {
            self.mult.sort_unstable_by_key(|e| e.0);
            entries.extend_from_slice(&self.mult);
            heads.push(EtaHead { r, inv: 1.0, end: entries.len() });
        }
        self.row_live[r] = false;
        self.rows.unlink(r);
        let len = self.compact_row(r);
        for slot in self.rbeg[r]..self.rbeg[r] + len {
            let k = self.pats[slot];
            self.cols.unlink(k);
            let u = self.take(k, r);
            self.push_u(k, r, u);
            if !self.mult.is_empty() {
                self.update(k, u)?;
            }
            let n = self.cols.count[k];
            match n {
                0 => return None,
                1 => self.col_singles.insert(k),
                _ => {}
            }
            self.cols.link(k);
        }
        self.pivots.push((r, c, p));
        Some(())
    }

    /// Remove row `r`'s entry from column `k`, unlinked from its bucket,
    /// and return its value.
    fn take(&mut self, k: usize, r: usize) -> f64 {
        let beg = self.cbeg[k];
        let last = beg + self.cols.count[k] - 1;
        let q = (beg..=last).find(|&q| self.ents[q].0 == r).expect("an active entry");
        let v = self.ents[q].1;
        self.ents[q] = self.ents[last];
        self.cols.count[k] -= 1;
        self.big[k] = f64::NAN;
        v
    }

    /// Row `i` lost an active entry; `None` when it has none left.
    fn drop_row_entry(&mut self, i: usize) -> Option<()> {
        let n = self.rows.count[i] - 1;
        if n == 0 {
            return None;
        }
        if n == 1 {
            self.row_singles.insert(i);
        }
        self.rows.set(i, n);
        Some(())
    }

    /// Column `k` minus `l_i u` in every multiplier row `i`, `u` being
    /// the pivot row's entry in it: entries that fall to `DROP_TOL` or
    /// below leave the column, fill-in above it joins the column and its
    /// row. Column `k` is unlinked from its bucket meanwhile.
    fn update(&mut self, k: usize, u: f64) -> Option<()> {
        let beg = self.cbeg[k];
        let len = self.cols.count[k];
        for q in beg..beg + len {
            self.at[self.ents[q].0] = q;
        }
        self.fills.clear();
        let mut dropped = false;
        for &(i, l) in &self.mult {
            let q = self.at[i];
            if q == NIL {
                let v = 0.0 - l * u;
                if v.abs() > DROP_TOL {
                    self.fills.push((i, v));
                }
            } else {
                let a = &mut self.ents[q].1;
                *a -= l * u;
                dropped |= a.abs() <= DROP_TOL;
            }
        }
        for q in beg..beg + len {
            self.at[self.ents[q].0] = NIL;
        }
        if dropped {
            let mut q = beg;
            while q < beg + self.cols.count[k] {
                let (i, v) = self.ents[q];
                if v.abs() <= DROP_TOL {
                    self.ents[q] = self.ents[beg + self.cols.count[k] - 1];
                    self.cols.count[k] -= 1;
                    let pat = &mut self.pats[self.rbeg[i]..self.rbeg[i] + self.rlen[i]];
                    let at = pat.iter().position(|&j| j == k).expect("a pattern entry");
                    pat[at] = pat[pat.len() - 1];
                    self.rlen[i] -= 1;
                    self.drop_row_entry(i)?;
                } else {
                    q += 1;
                }
            }
        }
        if !self.fills.is_empty() {
            let len = self.cols.count[k];
            let need = len + self.fills.len();
            if need > self.ccap[k] {
                let (old, beg) = (self.cbeg[k], self.ents.len());
                self.ents.extend_from_within(old..old + len);
                self.ents.resize(beg + 2 * need, (0, 0.0));
                self.cbeg[k] = beg;
                self.ccap[k] = 2 * need;
            }
            let beg = self.cbeg[k];
            self.ents[beg + len..beg + need].copy_from_slice(&self.fills);
            self.cols.count[k] = need;
            for f in 0..self.fills.len() {
                let i = self.fills[f].0;
                self.push_row(i, k);
                let n = self.rows.count[i] + 1;
                self.rows.set(i, n);
            }
        }
        Some(())
    }

    /// Append column `k` to row `i`'s pattern, first dropping eliminated
    /// columns and then moving the row to the end of the array if it has
    /// no room.
    fn push_row(&mut self, i: usize, k: usize) {
        if self.rlen[i] == self.rcap[i] && self.compact_row(i) == self.rcap[i] {
            let (old, len, beg) = (self.rbeg[i], self.rlen[i], self.pats.len());
            self.pats.extend_from_within(old..old + len);
            self.pats.resize(beg + 2 * len + 4, 0);
            self.rbeg[i] = beg;
            self.rcap[i] = 2 * len + 4;
        }
        self.pats[self.rbeg[i] + self.rlen[i]] = k;
        self.rlen[i] += 1;
    }

    /// Append U entry `(r, v)` to column `k`'s list.
    fn push_u(&mut self, k: usize, r: usize, v: f64) {
        let e = self.u.len();
        self.u.push((r, v, NIL));
        match self.u_tail[k] {
            NIL => self.u_head[k] = e,
            t => self.u[t].2 = e,
        }
        self.u_tail[k] = e;
    }

    /// Append the U etas to the file: for each pivot `(r, c, p)` in
    /// reverse order, pivot row `r`, `1/p` and column `c`'s U entries,
    /// unless that is the identity.
    fn write_u(&self, heads: &mut Vec<EtaHead>, entries: &mut Vec<(usize, f64)>) {
        for &(r, c, p) in self.pivots.iter().rev() {
            let start = entries.len();
            let mut e = self.u_head[c];
            while e != NIL {
                let (i, v, next) = self.u[e];
                entries.push((i, v));
                e = next;
            }
            let inv = 1.0 / p;
            if inv != 1.0 || entries.len() > start {
                heads.push(EtaHead { r, inv, end: entries.len() });
            }
        }
    }
}

/// A set of indices below a fixed bound, one bit each in 64-bit words,
/// popped lowest first.
#[derive(Default)]
struct MinSet {
    words: Vec<u64>,
    /// No word below this one holds a member.
    from: usize,
}

impl MinSet {
    /// Empty, for indices below `n`.
    fn reset(&mut self, n: usize) {
        refill(&mut self.words, n.div_ceil(64), 0);
        self.from = 0;
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
        self.from = self.from.min(i / 64);
    }

    /// Remove and return the smallest member.
    fn pop(&mut self) -> Option<usize> {
        while let Some(word) = self.words.get_mut(self.from) {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.from * 64 + bit);
            }
            self.from += 1;
        }
        None
    }
}

/// Intrusive doubly linked lists of indices by count, so the Markowitz
/// search reads the live rows (or columns) of one count in O(1) each.
/// The lists are built when the first search needs them; until then only
/// the counts are kept.
#[derive(Default)]
struct Buckets {
    count: Vec<usize>,
    /// Whether the lists are built and kept.
    linked: bool,
    /// First index of each count's list.
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
}

impl Buckets {
    /// Build the lists, of the indices `live` names.
    fn link_all(&mut self, live: &[bool]) {
        let n = self.count.len();
        refill(&mut self.head, n + 1, NIL);
        refill(&mut self.next, n, NIL);
        refill(&mut self.prev, n, NIL);
        self.linked = true;
        for x in (0..n).filter(|&x| live[x]) {
            self.link(x);
        }
    }

    /// Put `x` at the head of its count's list.
    fn link(&mut self, x: usize) {
        if !self.linked {
            return;
        }
        let h = self.head[self.count[x]];
        self.next[x] = h;
        self.prev[x] = NIL;
        if h != NIL {
            self.prev[h] = x;
        }
        self.head[self.count[x]] = x;
    }

    /// Take `x` out of its list; its count must be the one it was linked
    /// under.
    fn unlink(&mut self, x: usize) {
        if !self.linked {
            return;
        }
        let (p, n) = (self.prev[x], self.next[x]);
        if p == NIL {
            self.head[self.count[x]] = n;
        } else {
            self.next[p] = n;
        }
        if n != NIL {
            self.prev[n] = p;
        }
    }

    /// Move `x` to the list of count `n`.
    fn set(&mut self, x: usize, n: usize) {
        self.unlink(x);
        self.count[x] = n;
        self.link(x);
    }
}

/// Make `v` `n` copies of `x`, in the room it already has.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
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

    /// A dense reference of `Factor::refactor`'s rule, kept as its
    /// bitwise oracle: the basis is an `m x m` array, every step counts
    /// each row and column afresh and scans every entry for the pivot,
    /// and every pivot stores its L eta and its U eta, identity etas
    /// included.
    fn dense_refactor(f: &mut VecFile, cols: &[Vec<(usize, f64)>], basis: &mut [usize]) -> bool {
        let m = basis.len();
        let mut a = vec![vec![0.0f64; m]; m];
        for (k, &j) in basis.iter().enumerate() {
            for &(i, v) in &cols[j] {
                if v.abs() > DROP_TOL {
                    a[i][k] = v;
                }
            }
        }
        let (mut row_live, mut col_live) = (vec![true; m], vec![true; m]);
        let mut fresh = VecFile { etas: Vec::with_capacity(2 * m) };
        let mut u_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        let mut pivots = Vec::with_capacity(m);
        for _ in 0..m {
            let active = |i: usize, k: usize| row_live[i] && col_live[k] && a[i][k] != 0.0;
            let row_count: Vec<usize> =
                (0..m).map(|i| (0..m).filter(|&k| active(i, k)).count()).collect();
            let col_count: Vec<usize> =
                (0..m).map(|k| (0..m).filter(|&i| active(i, k)).count()).collect();
            let big: Vec<f64> = (0..m)
                .map(|k| {
                    THRESHOLD
                        * (0..m).filter(|&i| active(i, k)).fold(0.0, |b, i| a[i][k].abs().max(b))
                })
                .collect();
            // Every active entry above `PIVOT_TOL`, by row, then column.
            let candidates: Vec<(usize, usize)> = (0..m)
                .flat_map(|i| (0..m).map(move |k| (i, k)))
                .filter(|&(i, k)| active(i, k) && a[i][k].abs() > PIVOT_TOL)
                .collect();
            let pick = candidates
                .iter()
                .filter(|&&(_, k)| col_count[k] == 1)
                .min_by_key(|&&(_, k)| k)
                .or_else(|| candidates.iter().find(|&&(i, _)| row_count[i] == 1))
                .or_else(|| {
                    candidates
                        .iter()
                        .filter(|&&(i, k)| a[i][k].abs() >= big[k])
                        .min_by_key(|&&(i, k)| ((row_count[i] - 1) * (col_count[k] - 1), i, k))
                });
            let Some(&(r, c)) = pick else { return false };
            let p = a[r][c];
            let mult: Vec<(usize, f64)> = (0..m)
                .filter(|&i| i != r && active(i, c))
                .map(|i| (i, a[i][c] / p))
                .filter(|e| e.1.abs() > DROP_TOL)
                .collect();
            let row: Vec<usize> = (0..m).filter(|&k| k != c && active(r, k)).collect();
            for k in row {
                let u = a[r][k];
                u_cols[k].push((r, u));
                for &(i, l) in &mult {
                    let v = a[i][k] - l * u;
                    a[i][k] = if v.abs() > DROP_TOL { v } else { 0.0 };
                }
            }
            fresh.etas.push((r, 1.0, mult));
            row_live[r] = false;
            col_live[c] = false;
            pivots.push((r, c, p));
        }
        let mut new_basis = vec![usize::MAX; m];
        for &(r, c, p) in pivots.iter().rev() {
            fresh.etas.push((r, 1.0 / p, std::mem::take(&mut u_cols[c])));
            new_basis[r] = basis[c];
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

    /// A basis shaped like the pattern master's: covering rows `0..c`, a
    /// machine row `c` and an area row `c + 1`. Each structural column
    /// holds small multiplicities on one to five covering rows, one of
    /// them its own, a 1 on the machine row and its height (the
    /// multiplicities times real item sizes) on the area row; every
    /// covering row no structural column owns holds its unit slack.
    /// Basis columns come in shuffled order.
    fn pattern_basis(rng: &mut Rng, c: usize) -> (Vec<Vec<(usize, f64)>>, Vec<usize>) {
        let sizes: Vec<f64> = (0..c).map(|_| rng.f(0.2, 1.0)).collect();
        let owned = 3 * c / 4;
        let mut cols = Vec::with_capacity(c + 2);
        // Structural columns own covering rows 0..owned - 2; the last two
        // cover the machine and the area row.
        for own in 0..owned {
            let mut rows = vec![if own + 2 < owned { own } else { pick(rng, owned) }];
            for _ in 0..pick(rng, 5) {
                let i = pick(rng, c);
                if !rows.contains(&i) {
                    rows.push(i);
                }
            }
            rows.sort_unstable();
            let mut col: Vec<(usize, f64)> =
                rows.iter().map(|&i| (i, 1.0 + pick(rng, 3) as f64)).collect();
            let height = col.iter().map(|&(i, mult)| mult * sizes[i]).sum();
            col.push((c, 1.0));
            col.push((c + 1, height));
            cols.push(col);
        }
        for i in owned - 2..c {
            cols.push(vec![(i, 1.0)]);
        }
        let mut basis: Vec<usize> = (0..c + 2).collect();
        for i in (1..basis.len()).rev() {
            basis.swap(i, pick(rng, i + 1));
        }
        (cols, basis)
    }

    /// On pattern-shaped bases the rebuilt file stores at most 1.5 times
    /// the basis nonzeros (1.06 to 1.24 times on these): the Markowitz
    /// order leaves the two dense rows for last, so they fill no other
    /// column.
    #[test]
    fn pattern_bases_rebuild_without_fill() {
        let mut rebuilt = 0;
        for seed in 1..=60u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let c = 40 + pick(&mut rng, 160);
            let (cols, mut basis) = pattern_basis(&mut rng, c);
            let basis_nnz: usize = basis.iter().map(|&j| cols[j].len()).sum();
            let mut f = Factor::identity();
            if !f.refactor(by_col(&cols), &mut basis) {
                continue;
            }
            assert!(
                2 * f.nnz() <= 3 * basis_nnz,
                "seed {seed}: {} stored for {basis_nnz} basis nonzeros",
                f.nnz()
            );
            rebuilt += 1;
        }
        assert!(rebuilt >= 40, "only {rebuilt} pattern bases rebuilt");
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
    /// singular, and Markowitz ties go to the lowest row.
    #[test]
    fn pivot_tolerance_is_strict_and_ties_go_low() {
        let mut basis = vec![0, 1];
        let tiny = vec![vec![(0, PIVOT_TOL), (1, -PIVOT_TOL)], vec![(1, 1.0)]];
        assert!(!Factor::identity().refactor(by_col(&tiny), &mut basis));
        // Every entry has Markowitz count 1 and passes the threshold, and
        // column 0 lists row 1 first; row 0 must still win, with column 0.
        // Had row 1 won, column 1 would land on row 0 instead.
        let tied = vec![vec![(1, -2.0), (0, 2.0)], vec![(0, 1.0), (1, 3.0)]];
        let mut basis = vec![0, 1];
        assert!(Factor::identity().refactor(by_col(&tied), &mut basis));
        assert_eq!(basis, vec![0, 1]);
    }
}
