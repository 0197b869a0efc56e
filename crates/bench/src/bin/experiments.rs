//! Experiment harness CLI: regenerates every experiment table/figure, in
//! parallel, with machine-readable perf reports.
//!
//! ```text
//! experiments all [flags]           run everything
//! experiments <id>... [flags]       run selected experiments
//! experiments list                  list experiment ids
//!
//! flags:
//!   --quick             small grids (CI mode)
//!   --jobs N            worker threads (default: available parallelism)
//!   --solver-threads N  solver threads inside each EPTAS solve (default
//!                       1); placement only — results never depend on it
//!   --profile           record per-phase span profiles while cells run
//!                       and print one profile table per experiment to
//!                       stderr; profiles also land in the `phases` field
//!                       of `--json` reports (stdout stays untouched)
//!   --json DIR          write BENCH_<id>.json per experiment plus
//!                       BENCH_summary.json into DIR
//!   --compare FILE      gate against a baseline summary (exit 3 on a
//!                       regression past the threshold)
//!   --threshold X       slowdown factor for --compare (default 10.0)
//!   --assert-identical DIR
//!                       require this run's BENCH_*.json documents to be
//!                       byte-identical (after redacting wall_secs,
//!                       phase span times, and rendered time cells) to
//!                       the ones in DIR (exit 4 on any difference) —
//!                       the cross-thread determinism gate
//! ```
//!
//! Tables go to **stdout** and are byte-identical for any `--jobs` and
//! `--solver-threads` value; progress and the comparison report go to
//! **stderr**. Exit codes: `0` ok, `2` usage error, `3` perf regression,
//! `4` determinism violation (`--assert-identical`).

use bagsched_bench::{json, runner};
use std::path::{Path, PathBuf};
use std::process::exit;

struct Args {
    ids: Vec<String>,
    quick: bool,
    jobs: usize,
    solver_threads: usize,
    profile: bool,
    json_dir: Option<PathBuf>,
    compare: Option<PathBuf>,
    threshold: f64,
    assert_identical: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        ids: Vec::new(),
        quick: false,
        jobs: runner::default_jobs(),
        solver_threads: 1,
        profile: false,
        json_dir: None,
        compare: None,
        threshold: 10.0,
        assert_identical: None,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value_of =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--quick" => args.quick = true,
            "--profile" => args.profile = true,
            "--jobs" => {
                args.jobs = value_of("--jobs")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&j| j >= 1)
                    .ok_or("--jobs needs a positive integer")?;
            }
            "--solver-threads" => {
                args.solver_threads = value_of("--solver-threads")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&t| t >= 1)
                    .ok_or("--solver-threads needs a positive integer")?;
            }
            "--json" => args.json_dir = Some(PathBuf::from(value_of("--json")?)),
            "--assert-identical" => {
                args.assert_identical = Some(PathBuf::from(value_of("--assert-identical")?));
            }
            "--compare" => args.compare = Some(PathBuf::from(value_of("--compare")?)),
            "--threshold" => {
                args.threshold = value_of("--threshold")?
                    .parse::<f64>()
                    .ok()
                    .filter(|t| *t >= 1.0)
                    .ok_or("--threshold needs a number >= 1.0")?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            id => args.ids.push(id.to_string()),
        }
    }
    Ok(args)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: experiments [all|list|<id>...] [--quick] [--jobs N] [--solver-threads N] [--profile] [--json DIR] [--compare FILE] [--threshold X] [--assert-identical DIR]");
            exit(2);
        }
    };

    if args.ids.first().map(String::as_str) == Some("list") {
        for &id in bagsched_bench::experiments::ALL {
            println!("{id}");
        }
        return;
    }

    // Validate every positional id before resolving, so a typo next to
    // "all" still errors instead of silently running the built-in list.
    for id in &args.ids {
        if id != "all" && !bagsched_bench::experiments::ALL.contains(&id.as_str()) {
            eprintln!("unknown experiment '{id}'; try: experiments list");
            exit(2);
        }
    }
    let ids: Vec<&str> = if args.ids.is_empty() || args.ids.iter().any(|i| i == "all") {
        bagsched_bench::experiments::ALL.to_vec()
    } else {
        args.ids.iter().map(String::as_str).collect()
    };

    bagsched_bench::experiments::set_solver_threads(args.solver_threads);
    runner::set_profiling(args.profile);
    let ncells: usize = ids
        .iter()
        .map(|id| bagsched_bench::experiments::num_cells(id, args.quick).unwrap_or(1))
        .sum();
    eprintln!(
        "[running {} experiment(s) as {} cell(s), quick={}, jobs={}, solver-threads={}]",
        ids.len(),
        ncells,
        args.quick,
        args.jobs,
        args.solver_threads
    );
    let outcomes = runner::run_experiments(&ids, args.quick, args.jobs, |p| {
        if p.cells > 1 {
            eprintln!("[{} cell {}/{} done in {:.2}s]", p.id, p.cell + 1, p.cells, p.wall_secs);
        } else {
            eprintln!("[{} done in {:.2}s]", p.id, p.wall_secs);
        }
    });

    // Deterministic stdout: tables only, in input order.
    for o in &outcomes {
        o.table.print();
    }
    let total: f64 = outcomes.iter().map(|o| o.wall_secs).sum();
    eprintln!("[total cell time {total:.2}s across {ncells} cells]");

    if args.profile {
        for o in &outcomes {
            print_profile(o);
        }
    }

    if let Some(dir) = &args.json_dir {
        if let Err(e) = write_reports(dir, &outcomes, args.quick) {
            eprintln!("cannot write reports to {}: {e}", dir.display());
            exit(1);
        }
        eprintln!("[wrote {} BENCH_*.json files to {}]", outcomes.len() + 1, dir.display());
    }

    if let Some(ref_dir) = &args.assert_identical {
        match assert_identical(ref_dir, &outcomes, args.quick) {
            Ok(()) => eprintln!(
                "[determinism gate: {} documents byte-identical to {}]",
                outcomes.len() + 1,
                ref_dir.display()
            ),
            Err(diffs) => {
                for d in &diffs {
                    eprintln!("  NOT IDENTICAL {d}");
                }
                eprintln!(
                    "[determinism gate: FAILED — {} document(s) differ from {}]",
                    diffs.len(),
                    ref_dir.display()
                );
                exit(4);
            }
        }
    }

    if let Some(path) = &args.compare {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", path.display());
                exit(1);
            }
        };
        let mut baseline = match json::Baseline::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot parse baseline {}: {e}", path.display());
                exit(1);
            }
        };
        // A deliberate subset run only gates the selected experiments;
        // the missing-id coverage check is for full runs (CI).
        if !bagsched_bench::experiments::ALL.iter().all(|id| ids.contains(id)) {
            eprintln!("[subset run: gating only the selected experiments against the baseline]");
            baseline = baseline.restricted_to(&ids);
        }
        let current = json::Baseline::from_outcomes(&outcomes, args.quick);
        let cmp = json::compare(&current, &baseline, args.threshold);
        eprintln!("[compare vs {} at threshold {:.2}x]", path.display(), args.threshold);
        for line in &cmp.lines {
            eprintln!("  {line}");
        }
        for reg in &cmp.regressions {
            eprintln!("  REGRESSION {reg}");
        }
        if cmp.exit_code() == 0 {
            eprintln!("[perf gate: ok]");
        } else {
            eprintln!("[perf gate: FAILED with {} regression(s)]", cmp.regressions.len());
        }
        exit(cmp.exit_code());
    }
}

/// Print one per-phase profile table for an outcome to stderr: span
/// counts are deterministic, the time columns are wall-clock
/// measurements (total, self = total minus child spans, and the single
/// slowest occurrence).
fn print_profile(o: &runner::ExperimentOutcome) {
    if o.profile.is_empty() {
        eprintln!("[profile {}: no spans recorded]", o.id);
        return;
    }
    eprintln!("[profile {}]", o.id);
    eprintln!(
        "  {:<22} {:>9} {:>12} {:>12} {:>12}",
        "phase", "count", "total ms", "self ms", "max ms"
    );
    for p in &o.profile.phases {
        eprintln!(
            "  {:<22} {:>9} {:>12.3} {:>12.3} {:>12.3}",
            p.name,
            p.count,
            p.total_ns as f64 / 1e6,
            p.self_ns as f64 / 1e6,
            p.max_ns as f64 / 1e6
        );
    }
}

/// Compare this run's BENCH documents against the same-named files in
/// `ref_dir`, byte-for-byte after redacting every nondeterministic
/// field on both sides ([`json::redact_nondeterministic`]: `wall_secs`
/// measurements, `*_ns` phase timings, rendered `time` cells inside
/// table rows). Everything else is deterministic, so any difference
/// means the run was *not* a pure function of its inputs — the gate CI
/// uses to prove `--solver-threads` never changes results.
fn assert_identical(
    ref_dir: &Path,
    outcomes: &[runner::ExperimentOutcome],
    quick: bool,
) -> Result<(), Vec<String>> {
    let mut diffs = Vec::new();
    let mut check = |name: String, ours: &str| {
        let path = ref_dir.join(&name);
        let theirs = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                diffs.push(format!("{name}: cannot read reference {}: {e}", path.display()));
                return;
            }
        };
        let redact = json::redact_nondeterministic;
        match (redact(ours), redact(theirs.trim_end())) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => diffs.push(format!("{name}: deterministic content differs")),
            (Err(e), _) | (_, Err(e)) => diffs.push(format!("{name}: unreadable document: {e}")),
        }
    };
    for o in outcomes {
        let record = json::BenchRecord::from_outcome(o, quick);
        check(format!("BENCH_{}.json", o.id), &record.to_json());
    }
    let summary = json::Baseline::from_outcomes(outcomes, quick);
    check("BENCH_summary.json".into(), &summary.to_json());
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs)
    }
}

/// Write `BENCH_<id>.json` per outcome plus `BENCH_summary.json`.
fn write_reports(
    dir: &Path,
    outcomes: &[runner::ExperimentOutcome],
    quick: bool,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for o in outcomes {
        let record = json::BenchRecord::from_outcome(o, quick);
        std::fs::write(dir.join(format!("BENCH_{}.json", o.id)), record.to_json() + "\n")?;
    }
    let summary = json::Baseline::from_outcomes(outcomes, quick);
    std::fs::write(dir.join("BENCH_summary.json"), summary.to_json() + "\n")?;
    Ok(())
}
