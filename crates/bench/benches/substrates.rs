//! Criterion micro-benchmarks of the substrates: simplex LP, MILP branch
//! and bound, the branch-and-bound node hand-off of a warm basis, a cold
//! pattern-LP solve, one basis rebuild, Dinic max-flow.

use bagsched_flow::{max_flow, FlowNetwork, NodeId};
use bagsched_milp::simplex::{solve_warm, solve_with_state};
use bagsched_milp::{solve_milp, LpStatus, MilpOptions, Model, Relation, VarId, WarmState};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// A random-ish dense LP with a known feasible region.
fn make_lp(vars: usize, cons: usize) -> Model {
    let mut m = Model::new();
    let vs: Vec<_> =
        (0..vars).map(|j| m.add_var(((j * 7 % 13) as f64 - 6.0) / 6.0, 0.0, 10.0)).collect();
    for i in 0..cons {
        let terms: Vec<_> = vs
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, (((i * 31 + j * 17) % 11) as f64 - 5.0) / 5.0))
            .collect();
        m.add_con(&terms, Relation::Le, 5.0 + (i % 7) as f64);
    }
    m
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    for &(vars, cons) in &[(20usize, 15usize), (60, 40), (150, 100)] {
        let model = make_lp(vars, cons);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{vars}x{cons}")),
            &model,
            |b, model| b.iter(|| black_box(model.solve_lp())),
        );
    }
    group.finish();
}

fn bench_milp(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp_bb");
    for &items in &[10usize, 16, 22] {
        // 0/1 knapsack.
        let mut m = Model::new();
        let vs: Vec<_> =
            (0..items).map(|j| m.add_int_var(-((j % 9 + 1) as f64), 0.0, 1.0)).collect();
        let terms: Vec<_> = vs.iter().enumerate().map(|(j, &v)| (v, (j % 5 + 1) as f64)).collect();
        m.add_con(&terms, Relation::Le, (items as f64) * 1.2);
        group.bench_with_input(BenchmarkId::from_parameter(items), &m, |b, m| {
            b.iter(|| black_box(solve_milp(m, &MilpOptions::default())))
        });
    }
    group.finish();
}

/// A covering LP shaped like the EPTAS pattern master: row `i < rows - 1`
/// asks for `2..=5` copies of job class `i`, each column is a machine
/// pattern holding 1-3 copies of up to three classes, and the last row
/// caps the machine count. Every column is `[0, inf)`.
fn pattern_lp(rows: usize, cols: usize) -> Model {
    let classes = rows - 1;
    let mut terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); rows];
    let mut m = Model::new();
    for p in 0..cols {
        let v = m.add_var(1.0 + (p % 7) as f64 * 0.01, 0.0, f64::INFINITY);
        let mut held = [p % classes, (p * 7 + 3) % classes, (p * 13 + 5) % classes];
        held.sort_unstable();
        for (k, &i) in held.iter().enumerate() {
            if k == 0 || held[k - 1] != i {
                terms[i].push((v, (1 + (p + k) % 3) as f64));
            }
        }
        terms[classes].push((v, 1.0));
    }
    for (i, row) in terms[..classes].iter().enumerate() {
        m.add_con(row, Relation::Ge, (2 + i % 4) as f64);
    }
    m.add_con(&terms[classes], Relation::Le, (2 * rows) as f64);
    m
}

/// The node hand-off of branch and bound: a parent's optimal basis
/// cloned for a child, and that clone re-solved warm after the
/// down-branch `x_j <= floor(v)` on the most fractional variable.
fn bench_warm_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_state");
    let model = pattern_lp(120, 400);
    let iter_limit = 100_000;
    let (lp, state) = solve_with_state(&model, iter_limit);
    assert_eq!(lp.status, LpStatus::Optimal, "the pattern LP must solve");
    let state = state.expect("an optimal solve returns its basis");
    let frac = |x: f64| 0.5 - (x.fract() - 0.5).abs();
    let j = (0..model.num_vars())
        .max_by(|&a, &b| frac(lp.x[a]).total_cmp(&frac(lp.x[b])))
        .expect("the LP has columns");
    let v = lp.x[j];
    assert!(v.fract() > 1e-6, "the pattern LP must have a fractional variable");
    let mut down = model.clone();
    down.set_bounds(VarId(j), 0.0, v.floor());
    group.bench_function(BenchmarkId::from_parameter("clone"), |b| {
        b.iter(|| black_box(state.clone()))
    });
    group.bench_function(BenchmarkId::from_parameter("clone_down_branch_solve"), |b| {
        b.iter(|| {
            let mut warm = Some(state.clone());
            let (lp, dual_pivots) = solve_warm(&down, iter_limit, &mut warm);
            assert!(dual_pivots.is_some(), "the down-branch must re-solve warm");
            black_box(lp)
        })
    });
    group.finish();
}

/// A cold solve of the same pattern LP: phase 1 over the artificials of
/// its covering rows, phase 2, and the eta-file rebuilds on the way.
fn bench_cold_pattern_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("cold_lp");
    let model = pattern_lp(120, 400);
    let iter_limit = 100_000;
    let (lp, _) = solve_with_state(&model, iter_limit);
    assert_eq!(lp.status, LpStatus::Optimal, "the pattern LP must solve");
    assert!(lp.refactorizations >= 2, "the cold solve must rebuild its eta file");
    group.bench_function(BenchmarkId::from_parameter("pattern_120x400"), |b| {
        b.iter(|| black_box(solve_with_state(&model, iter_limit)))
    });
    group.finish();
}

/// One rebuild of the basis factorization through the public API: the
/// pattern LP's optimal basis factorized afresh by
/// `WarmState::from_basis` (the model's LP form built, the basis
/// factorized once, its basic solution computed).
fn bench_refactor(c: &mut Criterion) {
    let mut group = c.benchmark_group("refactor");
    let model = pattern_lp(120, 400);
    let (lp, state) = solve_with_state(&model, 100_000);
    assert_eq!(lp.status, LpStatus::Optimal, "the pattern LP must solve");
    let basis = state.expect("an optimal solve returns its basis").basis();
    assert!(WarmState::from_basis(&model, &basis).is_some(), "the optimal basis must factorize");
    group.bench_function(BenchmarkId::from_parameter("pattern_120x400"), |b| {
        b.iter(|| black_box(WarmState::from_basis(&model, &basis)))
    });
    group.finish();
}

fn bench_dinic(c: &mut Criterion) {
    let mut group = c.benchmark_group("dinic");
    for &layers in &[10usize, 30, 60] {
        group.bench_with_input(BenchmarkId::from_parameter(layers), &layers, |b, &layers| {
            b.iter(|| {
                // Layered graph: s -> layer1 -> layer2 -> ... -> t, width 8.
                let width = 8;
                let mut g = FlowNetwork::new(2 + layers * width);
                let s = NodeId(0);
                let t = NodeId(1 + layers * width);
                for w in 0..width {
                    g.add_edge(s, NodeId(1 + w), (w as u64 % 5) + 1);
                    g.add_edge(NodeId(1 + (layers - 1) * width + w), t, (w as u64 % 4) + 1);
                }
                for l in 0..layers - 1 {
                    for a in 0..width {
                        for b2 in 0..width.min(3) {
                            g.add_edge(
                                NodeId(1 + l * width + a),
                                NodeId(1 + (l + 1) * width + (a + b2) % width),
                                ((a + b2) as u64 % 6) + 1,
                            );
                        }
                    }
                }
                black_box(max_flow(&mut g, s, t))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_simplex,
    bench_milp,
    bench_warm_state,
    bench_cold_pattern_lp,
    bench_refactor,
    bench_dinic
);
criterion_main!(benches);
