//! `--compare A B`: a verdict per (end-to-end metric, workload) from the
//! bounds in the metric table. Each side is one results file or a
//! directory of results files (several runs of the same commit).

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{parse, Value};
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, spread_share};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound, so a move of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule of the metrics guide: `b` regressed when its median is worse
/// than `a`'s by more than the bound; where either side's quartile
/// distance (as a share of its median) exceeds the bound the pair is
/// unresolved unless every run of `b` reads better than every run of `a`;
/// an improvement must beat both the bound and `a`'s own spread.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let base = median(a);
    // Positive = worse, as a share of the parent's median.
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (median(b) - base) / base.abs();
    let spread = spread_share(a).max(spread_share(b));
    if spread > metric.bound {
        let worst_b = b.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
        let best_a = a.iter().map(|v| sign * v).fold(f64::MAX, f64::min);
        return if worst_b < best_a {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > metric.bound {
        Verdict::Regressed
    } else if -worse_by > metric.bound.max(spread_share(a)) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `values[(workload, metric)]` = that metric's value in every run of one side.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn add_run(doc: &Value, side: &mut Side) -> Result<(), String> {
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("no \"workloads\" object")?;
    for (workload, result) in workloads {
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("{workload}: no \"metrics\" object"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("{workload}.{name}: no numeric \"value\""))?;
            side.entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(())
}

fn read_side(path: &Path) -> Result<Side, String> {
    let mut files = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no .json results", path.display()));
    }
    let mut side = Side::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        add_run(&doc, &mut side).map_err(|e| format!("{}: {e}", file.display()))?;
    }
    Ok(side)
}

/// Print the verdict table; `Ok(false)` when anything regressed.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (read_side(a)?, read_side(b)?);
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let mut compared = 0;
    let mut regressed = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let v = verdict(m, va, vb);
            let (ma, mb) = (median(va), median(vb));
            println!(
                "{:<12} {:<26} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {} ({}+{} runs)",
                w.name,
                m.name,
                ma,
                mb,
                (mb - ma) / ma.abs() * 100.0,
                spread_share(va).max(spread_share(vb)) * 100.0,
                m.bound * 100.0,
                v.as_str(),
                va.len(),
                vb.len()
            );
            compared += 1;
            regressed += usize::from(v == Verdict::Regressed);
        }
    }
    if compared == 0 {
        return Err("the two sides share no (workload, end-to-end metric) pair".into());
    }
    println!("{compared} pairs compared, {regressed} regressed");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    const LOWER: EndToEnd = EndToEnd {
        name: "query_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn inside_the_bound_is_unchanged() {
        assert_eq!(
            verdict(&LOWER, &[100.0, 101.0, 99.0], &[105.0, 104.0, 106.0]),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&LOWER, &[100.0], &[95.0]), Verdict::Unchanged);
        assert_eq!(
            verdict(&HIGHER, &[100.0, 101.0, 99.0], &[95.0, 94.0, 96.0]),
            Verdict::Unchanged
        );
    }

    #[test]
    fn outside_the_bound_regresses_or_improves_by_direction() {
        assert_eq!(
            verdict(&LOWER, &[100.0, 101.0, 99.0], &[115.0, 114.0, 116.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&LOWER, &[100.0, 101.0, 99.0], &[85.0, 84.0, 86.0]),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&HIGHER, &[100.0, 101.0, 99.0], &[85.0, 84.0, 86.0]),
            Verdict::Regressed
        );
        assert_eq!(verdict(&HIGHER, &[100.0], &[120.0]), Verdict::Improved);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        // Quartile distance of A is 40% of its median: a 15% move is noise.
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(
            verdict(&LOWER, &noisy, &[115.0, 95.0, 135.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&LOWER, &noisy, &[100.0, 100.0, 100.0]),
            Verdict::Unresolved
        );
        // ...but every run of B beating every run of A still counts.
        assert_eq!(
            verdict(&LOWER, &noisy, &[60.0, 70.0, 65.0]),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&HIGHER, &noisy, &[130.0, 140.0, 150.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn runs_are_collected_per_workload_and_metric() {
        let run = |v: f64| {
            obj([(
                "workloads",
                obj([(
                    "hot_small",
                    obj([(
                        "metrics",
                        obj([("query_us_p50", obj([("value", v.into())]))]),
                    )]),
                )]),
            )])
        };
        let mut side = Side::new();
        add_run(&run(1.0), &mut side).unwrap();
        add_run(&run(2.0), &mut side).unwrap();
        assert_eq!(
            side[&("hot_small".to_string(), "query_us_p50".to_string())],
            vec![1.0, 2.0]
        );
        assert!(add_run(&obj([("x", 1.0.into())]), &mut side).is_err());
    }
}
