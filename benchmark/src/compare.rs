//! `--compare A.json B.json`: every (workload, end-to-end metric) in its
//! own row, B as a ratio of base A, judged against the metric's bound.

use std::path::Path;

use crate::json::{self, Value};
use crate::stats::Summary;
use crate::workloads::{Better, Kind, END_TO_END, WORKLOADS};

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// The run-to-run spread of either side exceeds the bound: the data
    /// cannot say "unchanged".
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` under `bound` (a share of the base median).
pub fn judge(base: &Summary, new: &Summary, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => new.median - base.median,
        Better::Higher => base.median - new.median,
    };
    if worse_by > bound * base.median.abs() {
        Verdict::Worse
    } else if base.spread().max(new.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match v.get("schema").and_then(Value::str) {
        Some("nylon-ledger/1") => Ok(v),
        other => Err(format!("{}: not a ledger result file (schema {other:?})", path.display())),
    }
}

/// Prints the comparison; exit code 1 when any row is worse.
pub fn run(base_path: &Path, new_path: &Path) -> Result<i32, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let describe = |v: &Value| {
        format!(
            "commit {} seed {} reps {}",
            v.get("commit").and_then(Value::str).unwrap_or("?"),
            v.num_or_zero("seed"),
            v.num_or_zero("reps")
        )
    };
    println!("base A: {} ({})", base_path.display(), describe(&base));
    println!("new  B: {} ({})", new_path.display(), describe(&new));
    println!(
        "\n{:<24} {:<26} {:>12} {:>12} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B / A", "spread", "bound"
    );
    let mut worse = 0;
    for w in WORKLOADS {
        let (Some(a), Some(b)) =
            (base.path(&["workloads", w.name]), new.path(&["workloads", w.name]))
        else {
            continue;
        };
        for m in END_TO_END {
            let side = |v: &Value| v.path(&["end_to_end", m.name]).and_then(Summary::from_json);
            let (Some(sa), Some(sb)) = (side(a), side(b)) else { continue };
            let verdict = judge(&sa, &sb, m.better, m.bound);
            worse += i32::from(verdict == Verdict::Worse);
            println!(
                "{:<24} {:<26} {:>12.4} {:>12.4} {:>9.4} {:>7.1}% {:>7.1}%  {}",
                w.name,
                m.name,
                sa.median,
                sb.median,
                if sa.median != 0.0 { sb.median / sa.median } else { f64::NAN },
                sa.spread().max(sb.spread()) * 100.0,
                m.bound * 100.0,
                verdict.label()
            );
        }
        // Simulated statistics and counts repeat exactly for a seed: a
        // change that only makes the simulator faster leaves these alone.
        let replayable = !matches!(w.kind, Kind::Wire);
        if replayable && base.get("seed") == new.get("seed") {
            for key in ["sim_fingerprint", "attempted", "completed"] {
                let same = a.get(key) == b.get(key);
                println!(
                    "{:<24} {:<26} {}",
                    w.name,
                    key,
                    if same { "identical" } else { "DIFFERS (behaviour changed)" }
                );
            }
        }
    }
    Ok(i32::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Summary {
        Summary::of(&[v, v, v])
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(judge(&flat(1.0), &flat(1.05), Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&flat(1.0), &flat(1.2), Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&flat(1.0), &flat(0.5), Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&flat(100.0), &flat(98.0), Better::Higher, 0.01), Verdict::Worse);
        let noisy = Summary::of(&[0.8, 1.0, 1.3]);
        assert_eq!(judge(&noisy, &flat(1.0), Better::Lower, 0.10), Verdict::Unresolved);
    }
}
