//! `wsqbench compare A.json B.json`: apply the recorded bounds to two
//! reports (A the parent, B the change), one verdict per (workload,
//! end-to-end metric). The tool the A/A acceptance check and CI use.

use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median_of};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound, so a change of
    /// the bound's size could hide in the noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B is worse (negative: better).
pub fn worsening(metric: &Metric, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median_of(a), median_of(b));
    if ma == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("only end-to-end metrics are judged");
    if iqr_share(a).max(iqr_share(b)) > bound {
        // Wide spread still resolves when every run of B beats every
        // run of A.
        let b_always_better = match metric.better {
            Better::Lower => max(b) < min(a),
            Better::Higher => min(b) > max(a),
        };
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(metric, a, b) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn values(report: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    report
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn failed(report: &Json, workload: &str) -> f64 {
    report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(Json::as_arr)
        .map_or(0.0, |runs| runs.iter().filter_map(Json::as_f64).sum())
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("report A has no workloads")?;
    let mut clean = true;
    for (workload, _) in workloads {
        println!("{workload}");
        if failed(b, workload) > failed(a, workload) {
            println!("  {:<34} regressed: more operations fail in B", "failed");
            clean = false;
        }
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (
                values(a, workload, metric.name),
                values(b, workload, metric.name),
            ) else {
                continue;
            };
            let verdict = judge(metric, &va, &vb);
            clean &= verdict != Verdict::Regressed;
            println!(
                "  {:<34} {:<10} A {:>12.4} B {:>12.4} {}  worse by {:+.1}% (bound {:.0}%, spread A {:.1}% B {:.1}%)",
                metric.name,
                verdict.as_str(),
                median_of(&va),
                median_of(&vb),
                metric.unit,
                worsening(metric, &va, &vb) * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                iqr_share(&va) * 100.0,
                iqr_share(&vb) * 100.0,
            );
        }
        // Per-layer metrics carry no bound; show them so a verdict above
        // can be traced to a layer.
        for metric in &PER_LAYER {
            let (Some(va), Some(vb)) = (
                values(a, workload, metric.name),
                values(b, workload, metric.name),
            ) else {
                continue;
            };
            let (ma, mb) = (median_of(&va), median_of(&vb));
            if ma != 0.0 || mb != 0.0 {
                println!(
                    "  {:<34} {:<10} A {:>12.4} B {:>12.4} {}",
                    metric.name, "info", ma, mb, metric.unit
                );
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> Metric {
        Metric {
            name: "m",
            unit: "ms",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let (p50, qps) = (&metric(Better::Lower), &metric(Better::Higher));
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        assert_eq!(judge(p50, &steady, &steady), Verdict::Ok);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(p50, &steady, &slower), Verdict::Regressed);
        assert_eq!(judge(p50, &slower, &steady), Verdict::Ok);
        // For a rate, lower is the regression.
        assert_eq!(judge(qps, &steady, &slower), Verdict::Ok);
        assert_eq!(judge(qps, &slower, &steady), Verdict::Regressed);
        assert!((worsening(qps, &slower, &steady) - (1.0 - 1.0 / 1.2)).abs() < 1e-9);
        // Inside the bound.
        let a_bit: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(p50, &steady, &a_bit), Verdict::Ok);
        // Noisy runs resolve nothing…
        let noisy = [80.0, 100.0, 130.0, 95.0, 120.0];
        assert_eq!(judge(p50, &noisy, &steady), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let fast = [50.0, 51.0, 52.0];
        assert_eq!(judge(p50, &noisy, &fast), Verdict::Ok);
    }
}
