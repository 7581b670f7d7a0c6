//! `benchmark compare A.json B.json`: per workload and end-to-end metric,
//! both medians, how much B is worse, the bound, and a verdict.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    /// Within the bound, but a set's own windows range wider than the
    /// bound and B's do not all read better than A's: the runs cannot
    /// tell unchanged from changed.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a cell: a value and the range it was picked from.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

/// Share of A's median by which B is worse (negative when better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { b - a } else { a - b };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64) -> Verdict {
    let worse = worsening(a.value, b.value, lower_is_better);
    if worse > bound {
        return Verdict::Regression;
    }
    let width = |s: Side| (s.max - s.min) / s.value.abs().max(f64::MIN_POSITIVE);
    let b_all_better = if lower_is_better {
        b.max < a.min
    } else {
        b.min > a.max
    };
    if width(a).max(width(b)) > bound && !b_all_better {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// The runs of `set` with the given tracing, grouped by workload in
/// first-seen order: a set made with `--repeat N` holds N of each.
fn runs_by_workload(set: &Json, traced: bool) -> Vec<(&str, Vec<&Json>)> {
    let mut groups: Vec<(&str, Vec<&Json>)> = Vec::new();
    for run in set.get("runs").and_then(Json::as_array).unwrap_or(&[]) {
        if run.get("traced").and_then(Json::as_bool) != Some(traced) {
            continue;
        }
        let Some(name) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        match groups.iter_mut().find(|(n, _)| *n == name) {
            Some((_, runs)) => runs.push(run),
            None => groups.push((name, vec![run])),
        }
    }
    groups
}

/// One metric of one workload in one set. Several runs: their median
/// and their range. A single run: its value and its windows' range.
fn side(runs: &[&Json], metric: &str) -> Option<Side> {
    let field = |run: &Json, key: &str| run.get("end_to_end")?.get(metric)?.get(key)?.as_f64();
    if let [run] = runs {
        return Some(Side {
            value: field(run, "value")?,
            min: field(run, "min")?,
            max: field(run, "max")?,
        });
    }
    let values: Vec<f64> = runs
        .iter()
        .map(|run| field(run, "value"))
        .collect::<Option<_>>()?;
    let s = Summary::of(&values, true);
    Some(Side {
        value: s.median,
        min: s.min,
        max: s.max,
    })
}

/// Prints the comparison; `Ok(true)` when B holds every bound and fails
/// no larger a share of its operations than A.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let (groups_a, groups_b) = (runs_by_workload(a, false), runs_by_workload(b, false));
    if groups_a.is_empty() || groups_b.is_empty() {
        return Err("a result set holds no untraced run".to_string());
    }
    let mut regressions = 0usize;
    let mut unresolved = 0usize;
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    for (name, runs_a) in &groups_a {
        let Some((_, runs_b)) = groups_b.iter().find(|(n, _)| n == name) else {
            println!("{name:<22} missing from B");
            regressions += 1;
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(runs_a, m.name), side(runs_b, m.name)) else {
                println!("{name:<22} {:<18} missing from a set", m.name);
                regressions += 1;
                continue;
            };
            let lower = m.better == crate::catalog::Better::Lower;
            let v = verdict(sa, sb, lower, m.bound);
            regressions += usize::from(v == Verdict::Regression);
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{name:<22} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
                m.name,
                sa.value,
                sb.value,
                worsening(sa.value, sb.value, lower) * 100.0,
                m.bound * 100.0,
                v.label()
            );
        }
        // The worst run of each side speaks for it.
        let share = |runs: &[&Json]| {
            runs.iter()
                .map(|r| r.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0))
                .fold(0.0, f64::max)
        };
        let correct = |runs: &[&Json]| {
            runs.iter()
                .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
        };
        let failed_more = share(runs_b) > share(runs_a) || (correct(runs_a) && !correct(runs_b));
        regressions += usize::from(failed_more);
        println!(
            "{name:<22} {:<18} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
            "failed_share",
            share(runs_a),
            share(runs_b),
            "",
            "any",
            if failed_more { "REGRESSION" } else { "ok" }
        );
    }
    report_counts(a, b);
    println!("{regressions} regressions, {unresolved} unresolved cells");
    Ok(regressions == 0)
}

/// Counts the program makes should repeat exactly between two runs of
/// one commit on one seed; lists the ones that did not.
fn report_counts(a: &Json, b: &Json) {
    let (traced_a, traced_b) = (runs_by_workload(a, true), runs_by_workload(b, true));
    if traced_a.is_empty() || traced_b.is_empty() || a.get("seed") != b.get("seed") {
        return;
    }
    let mut differing = Vec::new();
    let mut compared = 0usize;
    for (name, runs_a) in &traced_a {
        let Some((_, runs_b)) = traced_b.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
            let read = |r: &Json| r.get("per_layer")?.get(m.name)?.get("value")?.as_f64();
            if let (Some(va), Some(vb)) = (read(runs_a[0]), read(runs_b[0])) {
                compared += 1;
                if va != vb {
                    differing.push(format!("{name} {}: {va} vs {vb}", m.name));
                }
            }
        }
    }
    println!("counts: {compared} compared, {} differ", differing.len());
    for line in differing {
        println!("  {line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, min: f64, max: f64) -> Side {
        Side { value, min, max }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 112.0, true) - 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 112.0, false) + 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, false) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn tight_disjoint_ranges_resolve_to_regression_improved_or_ok() {
        let a = side(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(a, side(112.0, 111.0, 113.0), true, 0.10),
            Verdict::Regression
        );
        assert_eq!(
            verdict(a, side(88.0, 87.0, 89.0), true, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(a, side(104.0, 103.0, 105.0), true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(a, side(88.0, 87.0, 89.0), false, 0.10),
            Verdict::Regression
        );
    }

    #[test]
    fn wide_ranges_turn_ok_into_unresolved_but_not_a_regression() {
        let wide_a = side(100.0, 100.0, 140.0);
        // Within the bound, ranges wider than it: cannot call it unchanged.
        assert_eq!(
            verdict(wide_a, side(105.0, 105.0, 150.0), true, 0.10),
            Verdict::Unresolved
        );
        // Past the bound it is a regression however wide the ranges are.
        assert_eq!(
            verdict(wide_a, side(113.0, 113.0, 160.0), true, 0.10),
            Verdict::Regression
        );
        // Every window of B reads better than every window of A.
        assert_eq!(
            verdict(wide_a, side(80.0, 80.0, 95.0), true, 0.10),
            Verdict::Improved
        );
        // Tight ranges that overlap stay a plain ok.
        assert_eq!(
            verdict(
                side(100.0, 98.0, 102.0),
                side(101.0, 99.0, 103.0),
                true,
                0.10
            ),
            Verdict::Ok
        );
    }
}
