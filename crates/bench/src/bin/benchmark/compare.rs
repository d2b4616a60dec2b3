//! `benchmark compare [--same] PARENT_DIR CHANGE_DIR`: judge two sets of
//! runs.
//!
//! Each directory holds the `--out` files of untraced runs (for example
//! ten runs of the parent commit and ten of the change, alternated).  For
//! every (workload, end-to-end metric) the command prints each side's
//! median and quartiles, how many run pairs the change won, and a verdict:
//!
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound;
//! * **unresolved** — otherwise, if either side's spread (quartile
//!   distance over median) is wider than the bound, unless every run of
//!   the change reads better than every run of the parent;
//! * **improved** — the change won at least nine tenths of the pairs and
//!   the medians differ by more than the parent's quartile distance;
//! * **unchanged** — everything else.
//!
//! Runs of one workload and seed within a set must report byte-identical
//! counters.  Between the sets, differing counters are reported but do
//! not fail the comparison: a change that improves an algorithm may well
//! do fewer rounds or analyses.  With `--same` (two sets of runs of one
//! commit) they fail it too.  The command exits non-zero on any regressed
//! or unresolved metric and on any failing counter difference.

use crate::stats::{median, quartiles};
use crate::{Better, CountersFile, Scale, TimingsFile, END_TO_END};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// The judgement of one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// `a` is better than `b` in direction `better`.
fn better_than(a: f64, b: f64, better: Better) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Spread of a sample: quartile distance over median.
fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Judge one metric.  `parent[i]` and `change[i]` are the i-th pair.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    let worse = match better {
        Better::Lower => (mc - mp) / mp,
        Better::Higher => (mp - mc) / mp,
    };
    if worse > bound {
        return Verdict::Regressed;
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better_than(c, p, better)));
    if spread(parent).max(spread(change)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better_than(c, p, better))
        .count();
    let [q1, _, q3] = quartiles(parent);
    if pairs > 0 && wins * 10 >= pairs * 9 && (mc - mp).abs() > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The untraced timings and the counters found in `dir`, in file-name
/// order.
fn load(dir: &Path) -> Result<(Vec<TimingsFile>, Vec<CountersFile>), String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    names.sort();
    let mut timings = Vec::new();
    let mut counters = Vec::new();
    for path in names {
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        let Some(name) = name else { continue };
        let read = || std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"));
        if name.ends_with(".timings.json") {
            let file: TimingsFile =
                serde_json::from_str(&read()?).map_err(|e| format!("{name}: {e}"))?;
            if !file.trace {
                timings.push(file);
            }
        } else if name.ends_with(".counters.json") && !name.contains("-trace-") {
            counters.push(serde_json::from_str(&read()?).map_err(|e| format!("{name}: {e}"))?);
        }
    }
    Ok((timings, counters))
}

/// The (workload, seed) of every counter file whose counters differ from
/// the first file of the same (workload, seed, scale).
fn counter_mismatches<'a>(files: impl IntoIterator<Item = &'a CountersFile>) -> Vec<String> {
    let mut first: BTreeMap<(String, u64, Scale), &CountersFile> = BTreeMap::new();
    let mut mismatches = Vec::new();
    for file in files {
        let key = (file.workload.clone(), file.seed, file.scale);
        let seen = first.entry(key).or_insert(file);
        if seen.counters != file.counters {
            mismatches.push(format!("{} seed {}", file.workload, file.seed));
        }
    }
    mismatches.dedup();
    mismatches
}

pub fn run(parent_dir: &Path, change_dir: &Path, same: bool) -> ExitCode {
    let loaded = load(parent_dir).and_then(|p| Ok((p, load(change_dir)?)));
    let ((parent, parent_counters), (change, change_counters)) = match loaded {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = crate::WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .filter(|w| {
            parent.iter().any(|f| f.workload == *w) && change.iter().any(|f| f.workload == *w)
        })
        .collect();
    if workloads.is_empty() {
        eprintln!("compare: no workload has untraced runs on both sides");
        return ExitCode::from(2);
    }

    println!(
        "{:<14} {:<12} {:>26} {:>26} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut failing = 0;
    for workload in workloads {
        let side = |files: &[TimingsFile], metric: &str| -> Vec<f64> {
            files
                .iter()
                .filter(|f| f.workload == workload)
                .filter_map(|f| f.metrics.get(metric).copied())
                .collect()
        };
        for def in &END_TO_END {
            let (p, c) = (side(&parent, def.name), side(&change, def.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let v = verdict(&p, &c, def.better, def.bound);
            let wins = p
                .iter()
                .zip(&c)
                .filter(|(&p, &c)| better_than(c, p, def.better))
                .count();
            let show = |s: &[f64]| {
                let [q1, q2, q3] = quartiles(s);
                format!("{q2:.4} [{q1:.4}, {q3:.4}]")
            };
            println!(
                "{:<14} {:<12} {:>26} {:>26} {:>3}/{:<3}  {:?}",
                workload,
                def.name,
                show(&p),
                show(&c),
                wins,
                p.len().min(c.len()),
                v
            );
            if matches!(v, Verdict::Regressed | Verdict::Unresolved) {
                failing += 1;
            }
        }
    }
    let unsteady: Vec<String> = [&parent_counters, &change_counters]
        .into_iter()
        .flat_map(counter_mismatches)
        .collect();
    for m in &unsteady {
        println!("counters do not repeat within one set: {m}");
    }
    let differ = counter_mismatches(parent_counters.iter().chain(&change_counters));
    for m in &differ {
        let note = if same {
            ""
        } else {
            " (allowed between commits)"
        };
        println!("counters differ between the sets: {m}{note}");
    }
    if failing == 0 && unsteady.is_empty() && (!same || differ.is_empty()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;

    #[test]
    fn a_steady_clear_win_is_an_improvement() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.0,
        ];
        let change: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        assert_eq!(verdict(&parent, &change, LOWER, 0.1), Verdict::Improved);
        // The same numbers read as throughput are a 10% loss: within an
        // 11% bound but every pair lost, so unchanged, not improved.
        assert_eq!(
            verdict(&parent, &change, Better::Higher, 0.11),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&parent, &change, Better::Higher, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn worse_by_more_than_the_bound_is_a_regression() {
        let parent = [100.0; 10];
        let change = [112.0; 10];
        assert_eq!(verdict(&parent, &change, LOWER, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&parent, &change, LOWER, 0.15), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = [
            80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0,
        ];
        let change = [
            81.0, 119.0, 91.0, 109.0, 99.0, 71.0, 129.0, 96.0, 104.0, 101.0,
        ];
        assert_eq!(verdict(&parent, &change, LOWER, 0.1), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let change = [60.0; 10];
        assert_eq!(verdict(&parent, &change, LOWER, 0.1), Verdict::Improved);
    }

    #[test]
    fn a_gain_inside_the_parents_spread_or_with_few_wins_is_unchanged() {
        let parent = [
            100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0,
        ];
        // Median 1% lower, inside the parent's quartile distance.
        let change: Vec<f64> = parent.iter().map(|v| v - 1.0).collect();
        assert_eq!(verdict(&parent, &change, LOWER, 0.1), Verdict::Unchanged);
        // A clear median gap but only 8 of 10 pairs won.
        let mut change: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        change[0] = 200.0;
        change[1] = 200.0;
        assert_eq!(verdict(&parent, &change, LOWER, 10.0), Verdict::Unchanged);
    }

    #[test]
    fn counters_must_repeat_per_workload_and_seed() {
        let file = |seed: u64, value: u64| CountersFile {
            workload: "analyze".into(),
            seed,
            scale: crate::Scale::Smoke,
            counters: [("rounds".to_string(), value)].into_iter().collect(),
        };
        let steady = [file(1, 5), file(2, 6), file(1, 5)];
        assert!(counter_mismatches(&steady).is_empty());
        assert_eq!(
            counter_mismatches(&[file(1, 5), file(2, 6), file(1, 7)]),
            vec!["analyze seed 1".to_string()]
        );
    }
}
