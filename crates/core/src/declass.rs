//! De-classing: mapping class-level pattern solutions back to concrete
//! bags (the inverse of [`crate::classes`] aggregation).
//!
//! The aggregated MILP decides how many machines run each class-keyed
//! pattern; what it deliberately forgets is *which* member bag backs each
//! class slot. De-classing reconstructs that assignment so the placement
//! phases ([`crate::assign_large`], [`crate::small`]) and the validator
//! run on ordinary per-bag patterns and never see aggregation at all.
//!
//! The slot→bag assignment must satisfy two exact constraints:
//!
//! * **one slot per bag per machine** — a machine may hold several slots
//!   of one class, but each needs a *distinct* member bag;
//! * **exact consumption** — across all machines, member bag `b` must
//!   receive exactly `count_b(size)` slots of each size (constraint (2)
//!   holds with equality, and `assign_large` pops job pools dry).
//!
//! Both are delivered by a proper `K`-edge-coloring (`K` = class size) of
//! a bipartite multigraph: machines on the left; on the right each size
//! is split into *subnodes* of exactly `K` slot instances. Machine
//! degrees are at most `K` (the per-pattern class cap), subnode degrees
//! exactly `K`, so König's theorem gives a proper `K`-coloring —
//! colors = member bags. Properness at machine nodes is the
//! one-slot-per-bag rule; every subnode seeing all `K` colors exactly
//! once makes the per-bag size totals come out exact. The coloring is
//! built constructively with Kempe-chain (alternating-path) repairs, in
//! deterministic edge order.
//!
//! Small jobs are then re-realized on the concrete patterns by the same
//! greedy the restricted MILP uses; if that fails the guess is reported
//! as inconclusive ([`GuessFailure::SmallPlacement`]) and the driver
//! raises it — exactly like every other budget-type failure.

use crate::classes::BagClasses;
use crate::classify::JobClass;
use crate::milp_model::{
    greedy_small_y, nonpriority_small_area, priority_small_pairs, ClassCtx, MilpOutcome,
};
use crate::pattern::{collect_symbols, Pattern, PatternSet, SlotBag};
use crate::report::{GuessFailure, Stats};
use crate::rounding::SizeExp;
use crate::transform::Transformed;
use std::collections::HashMap;

/// Expand a class-keyed solution into a concrete per-bag `(PatternSet,
/// MilpOutcome)` that the downstream placement phases consume unchanged.
///
/// With *coarse* classes ([`BagClasses::compute_coarse`]) the coloring
/// only realizes each member's per-size class **minimum**; the repair
/// pass (step 3b) re-places the surplus jobs, recording
/// [`Stats::repair_jobs_moved`] / [`Stats::repair_failures`]. Exact
/// classes have zero surplus, so the pass is a no-op there.
pub fn declass(
    trans: &Transformed,
    classes: &BagClasses,
    ps: &PatternSet,
    out: &MilpOutcome,
    stats: &mut Stats,
) -> Result<(PatternSet, MilpOutcome), GuessFailure> {
    let _span = bagsched_types::obs::Span::enter("declass");
    // ---- 1. Expand x into machines (assign_large's expansion order). ----
    let mut machine_agg: Vec<usize> = Vec::new();
    for (p, &count) in out.x.iter().enumerate() {
        if p == 0 {
            continue;
        }
        for _ in 0..count {
            machine_agg.push(p);
        }
    }

    // ---- 2. Per-machine symbol multisets, with surplus trimmed. ----
    // The aggregated MILP covers with `>=` (see `solve_restricted`),
    // so machines may carry more slots of a symbol than jobs exist.
    // Dropping a slot from a machine yields a sub-multiset of its
    // pattern — still a valid pattern (height only shrinks, the class
    // cap only loosens) — so trim the surplus here, walking machines in
    // reverse expansion order, until every symbol is covered exactly.
    let mut machine_syms: Vec<Vec<(usize, u16)>> =
        machine_agg.iter().map(|&p| ps.patterns[p].entries.clone()).collect();
    let mut covered = vec![0u64; ps.symbols.len()];
    for entries in &machine_syms {
        for &(s, mult) in entries {
            covered[s] += mult as u64;
        }
    }
    for (s, sym) in ps.symbols.iter().enumerate() {
        // An under-covering `x` (a tolerance artifact of the aggregated
        // MILP) is a per-guess failure, not a panic: the caller retries
        // the guess on the per-bag path.
        if covered[s] < sym.avail as u64 {
            return Err(GuessFailure::LargePlacement);
        }
        let mut surplus = covered[s] - sym.avail as u64;
        for entries in machine_syms.iter_mut().rev() {
            if surplus == 0 {
                break;
            }
            if let Some(pos) = entries.iter().position(|&(si, _)| si == s) {
                let take = surplus.min(entries[pos].1 as u64) as u16;
                entries[pos].1 -= take;
                surplus -= take as u64;
                if entries[pos].1 == 0 {
                    entries.remove(pos);
                }
            }
        }
        if surplus != 0 {
            return Err(GuessFailure::LargePlacement);
        }
    }

    // ---- 2b. Per class: collect slot instances per machine. ----
    let nclasses = classes.num_classes();
    // Per class, per machine index: the slot sizes, in symbol order.
    let mut slots: Vec<Vec<(usize, Vec<SizeExp>)>> = vec![Vec::new(); nclasses];
    for (mi, entries) in machine_syms.iter().enumerate() {
        for &(si, mult) in entries {
            if let SlotBag::Priority(rep) = ps.symbols[si].bag {
                let Some(c) = classes.of(rep) else {
                    return Err(GuessFailure::LargePlacement);
                };
                if slots[c].last().map(|&(m, _)| m) != Some(mi) {
                    slots[c].push((mi, Vec::new()));
                }
                if let Some((_, exps)) = slots[c].last_mut() {
                    for _ in 0..mult {
                        exps.push(ps.symbols[si].exp);
                    }
                }
            }
        }
    }

    // ---- 3. Color each class: slot -> member bag. ----
    // assigned[machine] collects (exp, concrete bag) pairs.
    let mut assigned: Vec<Vec<(SizeExp, bagsched_types::BagId)>> =
        vec![Vec::new(); machine_agg.len()];
    for (c, class_slots) in slots.iter().enumerate() {
        if class_slots.is_empty() {
            continue;
        }
        let k = classes.size(c);
        let Some(colors) = color_class(class_slots, k) else {
            // A machine carrying more slots of one class than the class
            // has members: the coloring premise is violated, the guess is
            // unplaceable as de-classed.
            return Err(GuessFailure::LargePlacement);
        };
        for ((mi, exps), cols) in class_slots.iter().zip(&colors) {
            for (&exp, &col) in exps.iter().zip(cols) {
                assigned[*mi].push((exp, classes.members[c][col]));
            }
        }
    }

    // ---- 3b. Repair: re-place each member bag's surplus jobs. ----
    // Coarse classes price against `K * min` slots per size
    // ([`crate::pattern::collect_symbols_classed`]), so after trimming the
    // coloring hands every member exactly the class minimum — a member's
    // jobs above the minimum hold no slot yet. A pattern extended by a
    // slot is still a pattern while the height bound and the
    // one-slot-per-bag rule hold (the mirror image of the surplus
    // trimming above), so place each surplus job greedily on the lowest
    // machine whose pattern does not touch its bag, opening idle
    // machines up to `m` when every busy one is full. Exact classes have
    // zero surplus and skip the pass; any unplaceable job fails the
    // guess (`LargePlacement`), never mis-schedules.
    let epsilon = trans.t.sqrt() - 1.0;
    let mut actual: HashMap<(bagsched_types::BagId, SizeExp), u32> = HashMap::new();
    for j in 0..trans.tinst.num_jobs() {
        if trans.tclass[j] == JobClass::Small {
            continue;
        }
        let b = trans.tinst.bag_of(bagsched_types::JobId(j as u32));
        if trans.is_priority_tbag[b.idx()] {
            *actual.entry((b, trans.texp[j])).or_insert(0) += 1;
        }
    }
    let mut placed: HashMap<(bagsched_types::BagId, SizeExp), u32> = HashMap::new();
    for slots in &assigned {
        for &(exp, b) in slots {
            *placed.entry((b, exp)).or_insert(0) += 1;
        }
    }
    let mut surplus: Vec<(f64, bagsched_types::BagId, SizeExp, u32)> = Vec::new();
    for (&(b, exp), &need) in &actual {
        let have = placed.get(&(b, exp)).copied().unwrap_or(0);
        if have > need {
            // More slots than the bag has jobs: the class-level
            // availability disagreed with the instance.
            stats.repair_failures += 1;
            return Err(GuessFailure::LargePlacement);
        }
        if have < need {
            surplus.push((crate::rounding::exp_size(exp, epsilon), b, exp, need - have));
        }
    }
    if !surplus.is_empty() {
        let _span = bagsched_types::obs::Span::enter("declass.repair");
        // Deterministic greedy: big jobs first, then bag id, then size
        // exponent, each onto the lowest (then lowest-indexed) machine.
        surplus.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut heights: Vec<f64> = machine_syms
            .iter()
            .map(|entries| entries.iter().map(|&(s, mult)| ps.symbols[s].size * mult as f64).sum())
            .collect();
        let mut bags_on: Vec<Vec<bagsched_types::BagId>> =
            assigned.iter().map(|slots| slots.iter().map(|&(_, b)| b).collect()).collect();
        let m = trans.tinst.num_machines();
        for (size, b, exp, count) in surplus {
            for _ in 0..count {
                let target = (0..machine_syms.len())
                    .filter(|&mi| !bags_on[mi].contains(&b))
                    .filter(|&mi| heights[mi] + size <= trans.t + 1e-9)
                    .min_by(|&x, &y| heights[x].total_cmp(&heights[y]).then(x.cmp(&y)));
                let mi = match target {
                    Some(mi) => mi,
                    // Constraint (1) is `<= m`: idle machines are free.
                    None if machine_syms.len() < m => {
                        machine_syms.push(Vec::new());
                        assigned.push(Vec::new());
                        bags_on.push(Vec::new());
                        heights.push(0.0);
                        machine_syms.len() - 1
                    }
                    None => {
                        stats.repair_failures += 1;
                        return Err(GuessFailure::LargePlacement);
                    }
                };
                if heights[mi] + size > trans.t + 1e-9 {
                    stats.repair_failures += 1;
                    return Err(GuessFailure::LargePlacement);
                }
                assigned[mi].push((exp, b));
                bags_on[mi].push(b);
                heights[mi] += size;
                stats.repair_jobs_moved += 1;
            }
        }
    }

    // ---- 4. Rebuild concrete per-bag patterns and multiplicities. ----
    let symbols = collect_symbols(trans);
    let mut sym_index: HashMap<(SizeExp, SlotBag), usize> = HashMap::new();
    for (s, sym) in symbols.iter().enumerate() {
        sym_index.insert((sym.exp, sym.bag), s);
    }
    let mut patterns: Vec<Pattern> = vec![Pattern { entries: Vec::new(), height: 0.0 }];
    let mut xs: Vec<u32> = vec![0];
    let mut index_of: HashMap<Vec<(usize, u16)>, usize> = HashMap::new();
    index_of.insert(Vec::new(), 0);
    for (mi, agg_entries) in machine_syms.iter().enumerate() {
        let mut entries: Vec<(usize, u16)> = Vec::new();
        for &(si, mult) in agg_entries {
            if ps.symbols[si].bag == SlotBag::X {
                let Some(&cs) = sym_index.get(&(ps.symbols[si].exp, SlotBag::X)) else {
                    return Err(GuessFailure::LargePlacement);
                };
                entries.push((cs, mult));
            }
        }
        for &(exp, bag) in &assigned[mi] {
            let Some(&cs) = sym_index.get(&(exp, SlotBag::Priority(bag))) else {
                return Err(GuessFailure::LargePlacement);
            };
            entries.push((cs, 1));
        }
        entries.sort_unstable();
        // A bag appearing twice on one machine would be a coloring bug —
        // the very property the Kempe construction guarantees.
        debug_assert!(
            entries
                .windows(2)
                .all(|w| w[0].0 != w[1].0 || !matches!(symbols[w[0].0].bag, SlotBag::Priority(_))),
            "de-classing duplicated a priority symbol on one machine"
        );
        let idx = if let Some(&i) = index_of.get(&entries) {
            i
        } else {
            let height = entries.iter().map(|&(s, c)| symbols[s].size * c as f64).sum();
            patterns.push(Pattern { entries: entries.clone(), height });
            xs.push(0);
            index_of.insert(entries, patterns.len() - 1);
            patterns.len() - 1
        };
        xs[idx] += 1;
    }

    // Exact-consumption check: the concrete covering must match every
    // per-bag availability (the coloring theorem guarantees it; a
    // violation here would crash `assign_large` much less legibly).
    debug_assert!(
        {
            let mut covered = vec![0u32; symbols.len()];
            for (p, pat) in patterns.iter().enumerate() {
                for &(s, mult) in &pat.entries {
                    covered[s] += xs[p] * mult as u32;
                }
            }
            covered.iter().zip(&symbols).all(|(&got, sym)| got == sym.avail)
        },
        "de-classed covering disagrees with symbol availability"
    );

    let psc = PatternSet::from_parts(symbols, patterns);

    // ---- 5. Re-realize the small jobs on the concrete patterns. ----
    let singles = BagClasses::singletons(trans);
    let pairs = priority_small_pairs(trans);
    let ctx = ClassCtx::new(&singles, &psc, &pairs);
    let w_nonprio = nonpriority_small_area(trans);
    let y = greedy_small_y(trans, &psc, &xs, &pairs, w_nonprio, &ctx)?;

    let outc = MilpOutcome { x: xs, y, pairs, nodes: out.nodes, lp_iterations: out.lp_iterations };
    Ok((psc, outc))
}

/// Proper `k`-edge-coloring of the machine × size-subnode multigraph of
/// one class (see the module docs): returns, parallel to the input, the
/// member-bag index per slot — `None` when a machine's class degree
/// exceeds `k` (the coloring premise; callers treat it as a per-guess
/// failure).
fn color_class(machine_slots: &[(usize, Vec<SizeExp>)], k: usize) -> Option<Vec<Vec<usize>>> {
    // Build edges: subnodes chunk each size's slot instances (in machine
    // order) into groups of exactly k.
    struct Edge {
        machine: usize, // local index into machine_slots
        subnode: usize,
        color: usize,
    }
    const NONE: usize = usize::MAX;
    let mut sub_of: HashMap<SizeExp, (usize, usize)> = HashMap::new(); // exp -> (open subnode, fill)
    let mut num_subnodes = 0usize;
    let mut edges: Vec<Edge> = Vec::new();
    let mut edge_slots: Vec<Vec<usize>> = Vec::with_capacity(machine_slots.len());
    for (local, (_, exps)) in machine_slots.iter().enumerate() {
        let mut ids = Vec::with_capacity(exps.len());
        for &exp in exps {
            let entry = sub_of.entry(exp).or_insert_with(|| {
                num_subnodes += 1;
                (num_subnodes - 1, 0)
            });
            if entry.1 == k {
                num_subnodes += 1;
                *entry = (num_subnodes - 1, 0);
            }
            entry.1 += 1;
            ids.push(edges.len());
            edges.push(Edge { machine: local, subnode: entry.0, color: NONE });
        }
        edge_slots.push(ids);
    }

    // uc[machine][color] / vc[subnode][color]: the edge holding the color.
    let mut uc = vec![vec![NONE; k]; machine_slots.len()];
    let mut vc = vec![vec![NONE; k]; num_subnodes];
    for e in 0..edges.len() {
        let (u, v) = (edges[e].machine, edges[e].subnode);
        let fu = (0..k).find(|&c| uc[u][c] == NONE)?;
        let fv = (0..k).find(|&c| vc[v][c] == NONE)?;
        if let Some(c) = (0..k).find(|&c| uc[u][c] == NONE && vc[v][c] == NONE) {
            edges[e].color = c;
            uc[u][c] = e;
            vc[v][c] = e;
            continue;
        }
        // Kempe chain: alpha free at u, beta free at v. The maximal
        // alpha/beta alternating path from v cannot reach u (bipartite
        // parity), so flipping it frees alpha at v.
        let (alpha, beta) = (fu, fv);
        let mut path: Vec<usize> = Vec::new();
        let mut cur_right = v;
        loop {
            let e1 = vc[cur_right][alpha];
            if e1 == NONE {
                break;
            }
            path.push(e1);
            let u1 = edges[e1].machine;
            let e2 = uc[u1][beta];
            if e2 == NONE {
                break;
            }
            path.push(e2);
            cur_right = edges[e2].subnode;
        }
        for &pe in &path {
            let (pu, pv, pc) = (edges[pe].machine, edges[pe].subnode, edges[pe].color);
            uc[pu][pc] = NONE;
            vc[pv][pc] = NONE;
        }
        for &pe in &path {
            let nc = if edges[pe].color == alpha { beta } else { alpha };
            edges[pe].color = nc;
            let (pu, pv) = (edges[pe].machine, edges[pe].subnode);
            uc[pu][nc] = pe;
            vc[pv][nc] = pe;
        }
        debug_assert_eq!(vc[v][alpha], NONE, "Kempe flip failed to free alpha at v");
        edges[e].color = alpha;
        uc[u][alpha] = e;
        vc[v][alpha] = e;
    }

    Some(
        edge_slots
            .into_iter()
            .map(|ids| ids.into_iter().map(|e| edges[e].color).collect())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::config::EptasConfig;
    use crate::milp_model::PatternSolve;
    use crate::priority::select_priority;
    use crate::report::Stats;
    use crate::rounding::scale_and_round;
    use crate::transform::transform;
    use bagsched_types::Instance;

    fn transformed(inst: &Instance, eps: f64) -> Transformed {
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, eps).unwrap();
        let c = classify(&r, inst.num_machines());
        let cfg = EptasConfig::with_epsilon(eps);
        let p = select_priority(inst, &r, &c, &cfg);
        transform(inst, &r, &c, &p)
    }

    /// The coloring invariants, checked directly on synthetic slot lists:
    /// per machine all bags distinct; per (size, bag) totals exactly the
    /// slot count divided by k.
    fn check_coloring(machine_slots: &[(usize, Vec<SizeExp>)], k: usize) {
        let colors = color_class(machine_slots, k).expect("premises hold: colorable");
        let mut per_bag_exp: HashMap<(usize, SizeExp), usize> = HashMap::new();
        let mut total_per_exp: HashMap<SizeExp, usize> = HashMap::new();
        for ((_, exps), cols) in machine_slots.iter().zip(&colors) {
            let mut seen = vec![false; k];
            for (&exp, &c) in exps.iter().zip(cols) {
                assert!(c < k, "color out of range");
                assert!(!seen[c], "bag used twice on one machine");
                seen[c] = true;
                *per_bag_exp.entry((c, exp)).or_insert(0) += 1;
                *total_per_exp.entry(exp).or_insert(0) += 1;
            }
        }
        for (&exp, &total) in &total_per_exp {
            assert_eq!(total % k, 0, "test data: size totals must be multiples of k");
            for bag in 0..k {
                assert_eq!(
                    per_bag_exp.get(&(bag, exp)).copied().unwrap_or(0),
                    total / k,
                    "per-bag totals must be exactly balanced at every size"
                );
            }
        }
    }

    #[test]
    fn coloring_balances_the_adversarial_interleaving() {
        // The case that breaks naive round-robin: two bags, two sizes,
        // every machine holding one slot of each size. A correct coloring
        // must alternate the (size, bag) pairing across machines.
        let a = SizeExp(0);
        let b = SizeExp(-1);
        let machines: Vec<(usize, Vec<SizeExp>)> = (0..4).map(|m| (m, vec![a, b])).collect();
        check_coloring(&machines, 2);
    }

    #[test]
    fn coloring_handles_ragged_degrees_and_multiplicity() {
        let a = SizeExp(0);
        let b = SizeExp(-1);
        let c = SizeExp(-2);
        // k = 3; machines with 1..3 slots, repeated sizes on one machine.
        // Size totals (a: 9, b: 6, c: 6) are multiples of k, as the
        // covering equality guarantees in production.
        let machines: Vec<(usize, Vec<SizeExp>)> = vec![
            (0, vec![a, a, b]),
            (1, vec![a, b, c]),
            (2, vec![a, b, c]),
            (3, vec![a, b, c]),
            (4, vec![a]),
            (5, vec![b]),
            (6, vec![b]),
        ];
        check_coloring(&machines, 3);
    }

    #[test]
    fn declass_produces_concrete_conflict_free_patterns() {
        // Six interchangeable single-job bags over three sizes… use one
        // size so they all land in one class of size 6.
        let jobs: Vec<(f64, u32)> = (0..6).map(|i| (0.9, i)).collect();
        let inst = Instance::new(&jobs, 3);
        let trans = transformed(&inst, 0.5);
        let mut cfg = EptasConfig::with_epsilon(0.5);
        // Aggregation engages above the per-bag budget; lower it so this
        // 6-bag instance takes the aggregated path (1 class <= budget).
        cfg.pricing_symbol_budget = 3;
        let mut stats = Stats::default();
        let sol = PatternSolve::new(&trans, &cfg).run(&mut stats).expect("feasible guess");
        let (psc, outc) = (sol.patterns, sol.outcome);
        // The returned set is concrete: every priority symbol names a
        // real bag with per-bag availability, fully covered by x.
        let mut covered = vec![0u32; psc.symbols.len()];
        for (p, pat) in psc.patterns.iter().enumerate() {
            let mut bags_on_pattern = Vec::new();
            for &(s, mult) in &pat.entries {
                covered[s] += outc.x[p] * mult as u32;
                if let SlotBag::Priority(bag) = psc.symbols[s].bag {
                    assert_eq!(mult, 1, "concrete priority slots have multiplicity 1");
                    assert!(!bags_on_pattern.contains(&bag), "bag doubled on a machine");
                    bags_on_pattern.push(bag);
                }
            }
        }
        for (s, sym) in psc.symbols.iter().enumerate() {
            assert_eq!(covered[s], sym.avail, "symbol {s} mis-covered after de-classing");
        }
        assert!(stats.bag_classes > 0);
        assert!(stats.symbols_after_aggregation > 0);
    }

    #[test]
    fn declass_is_identity_work_when_classes_are_singletons() {
        // Distinct profiles, so every class has one member: de-classing
        // the per-bag solution of the default configuration (the oracle)
        // must hand back the patterns it runs, machine for machine.
        let inst = Instance::new(&[(0.9, 0), (0.5, 1), (0.3, 2)], 3);
        let trans = transformed(&inst, 0.5);
        let cfg = EptasConfig::with_epsilon(0.5);
        let sol = PatternSolve::new(&trans, &cfg).run(&mut Stats::default()).unwrap();
        let singles = BagClasses::singletons(&trans);
        let mut stats = Stats::default();
        let (psc, outc) = declass(&trans, &singles, &sol.patterns, &sol.outcome, &mut stats)
            .expect("singleton classes de-class");
        // The non-empty patterns each run on a machine, with their counts.
        let used = |ps: &PatternSet, x: &[u32]| -> Vec<(Vec<(usize, u16)>, u32)> {
            (1..ps.patterns.len())
                .filter(|&p| x[p] > 0)
                .map(|p| (ps.patterns[p].entries.clone(), x[p]))
                .collect()
        };
        assert_eq!(psc.symbols, sol.patterns.symbols);
        assert_eq!(used(&psc, &outc.x), used(&sol.patterns, &sol.outcome.x));
        assert_eq!(stats.repair_jobs_moved, 0);
    }
}
