//! `--compare BASE.json [CANDIDATE.json]`: per workload and end-to-end
//! metric, both medians, the ratio with its base, the pinned bound and a
//! verdict; per exact count, whether every run agrees. With one file, the
//! first half of its sets is the base and the second half the candidate,
//! which is the two-set check of one commit against itself.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{self, Summary};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// Run-to-run spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges a candidate median against a base median. `spread` is the larger
/// of the two sides' interquartile distance as a share of its median.
pub fn verdict(m: &MetricSpec, base: f64, candidate: f64, spread: f64) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let change = (candidate - base) / base.abs();
    let worsening = if m.higher_is_better { -change } else { change };
    if !worsening.is_finite() || spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One side of a comparison: for a `(workload, metric)`, the value each run
/// reported and how well each run's own samples pin that value down.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    own_uncertainty: BTreeMap<(String, String), Vec<f64>>,
    counts: BTreeMap<(String, String), Vec<(f64, bool)>>,
}

impl Side {
    fn add(&mut self, run: &Json) {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let traced = run.get("trace").and_then(Json::as_bool).unwrap_or(false);
        let key = |name: &String| (workload.to_string(), name.clone());
        if !traced {
            for (name, m) in run.get("metrics").map(Json::as_obj).unwrap_or_default() {
                let field = |k| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                let own = Summary {
                    n: field("n") as usize,
                    median: field("value"),
                    q1: field("q1"),
                    q3: field("q3"),
                };
                self.values.entry(key(name)).or_default().push(own.median);
                self.own_uncertainty
                    .entry(key(name))
                    .or_default()
                    .push(own.median_uncertainty());
            }
        }
        for (name, c) in run.get("counts").map(Json::as_obj).unwrap_or_default() {
            let value = c.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let stable = c
                .get("stable_within_run")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            self.counts
                .entry(key(name))
                .or_default()
                .push((value, stable));
        }
    }

    /// Median over runs, and the spread to judge by: between runs when
    /// there are enough of them for quartiles to mean something, otherwise
    /// the uncertainty the runs' own samples put on their medians (which
    /// knows nothing of drift between runs, so it understates).
    fn summary(&self, key: &(String, String)) -> Option<(f64, f64, usize)> {
        let values = self.values.get(key)?;
        let between = Summary::of(values);
        let spread = if between.n >= 4 {
            between.spread()
        } else {
            stats::median(&self.own_uncertainty[key])
        };
        Some((between.median, spread, between.n))
    }
}

fn runs_of(doc: &Json) -> Vec<&Json> {
    match doc.get("runs") {
        Some(runs) => runs.as_arr().iter().collect(),
        None => vec![doc],
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when nothing is worse and every exact
/// count agrees.
pub fn compare(spec: &Spec, base_path: &str, candidate_path: Option<&str>) -> Result<bool, String> {
    let base_doc = load(base_path)?;
    let (mut base, mut cand) = (Side::default(), Side::default());
    match candidate_path {
        Some(path) => {
            runs_of(&base_doc).into_iter().for_each(|r| base.add(r));
            runs_of(&load(path)?).into_iter().for_each(|r| cand.add(r));
        }
        None => {
            let set_of = |r: &Json| r.get("set").and_then(Json::as_f64).unwrap_or(1.0);
            let runs = runs_of(&base_doc);
            let sets = runs.iter().map(|r| set_of(r)).fold(1.0, f64::max);
            if sets < 2.0 {
                return Err(format!(
                    "{base_path} holds one set; give a second file or run with --sets 2"
                ));
            }
            for r in runs {
                if set_of(r) <= (sets / 2.0).floor() {
                    base.add(r)
                } else {
                    cand.add(r)
                }
            }
        }
    }

    println!(
        "{:<16} {:<14} {:>13} {:>13} {:>8} {:>7} {:>7} {:>3}  verdict",
        "workload", "metric", "base", "candidate", "ratio", "spread", "bound", "n"
    );
    let mut clean = true;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some((b, b_spread, b_n)), Some((c, c_spread, c_n))) =
                (base.summary(&key), cand.summary(&key))
            else {
                continue;
            };
            let spread = b_spread.max(c_spread);
            let v = verdict(m, b, c, spread);
            clean &= v != Verdict::Worse;
            println!(
                "{:<16} {:<14} {:>13.5} {:>13.5} {:>8.4} {:>7.4} {:>7.2} {:>3}  {}",
                workload,
                m.name,
                b,
                c,
                c / b,
                spread,
                m.bound.unwrap_or(0.0),
                b_n.min(c_n),
                v.name()
            );
        }
    }

    println!("\nexact counts (every run of both sides must agree):");
    let mut keys: Vec<_> = base.counts.keys().chain(cand.counts.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let all: Vec<(f64, bool)> = [&base, &cand]
            .iter()
            .flat_map(|s| s.counts.get(key).cloned().unwrap_or_default())
            .collect();
        let equal = all.iter().all(|&(v, _)| v == all[0].0);
        let stable = all.iter().all(|&(_, s)| s);
        let state = match (equal, stable) {
            (true, true) => "equal",
            // A count that already varies between rounds of one run (SSSP
            // relaxations race by design) is reported, not failed.
            (_, false) => "varies within a run",
            (false, true) => {
                clean = false;
                "DIFFERS"
            }
        };
        let shown: Vec<String> = all.iter().map(|(v, _)| format!("{v}")).collect();
        println!(
            "{:<16} {:<34} {:<20} {}",
            key.0,
            key.1,
            state,
            shown.join(" ")
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn lower_is_better_verdicts() {
        let m = metric(false, 0.10);
        assert_eq!(verdict(&m, 100.0, 105.0, 0.02), Verdict::Within);
        assert_eq!(verdict(&m, 100.0, 95.0, 0.02), Verdict::Within);
        assert_eq!(verdict(&m, 100.0, 111.0, 0.02), Verdict::Worse);
        assert_eq!(verdict(&m, 100.0, 85.0, 0.02), Verdict::Better);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let m = metric(true, 0.10);
        assert_eq!(verdict(&m, 100.0, 85.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(&m, 100.0, 115.0, 0.0), Verdict::Better);
        assert_eq!(verdict(&m, 100.0, 92.0, 0.0), Verdict::Within);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_whatever_the_medians_say() {
        let m = metric(false, 0.10);
        assert_eq!(verdict(&m, 100.0, 150.0, 0.11), Verdict::Unresolved);
        assert_eq!(verdict(&m, 100.0, 100.0, 0.11), Verdict::Unresolved);
        assert_eq!(verdict(&m, 0.0, 1.0, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn a_side_prefers_between_run_spread_once_it_has_four_runs() {
        let run = |value: f64| {
            Json::parse(&format!(
                "{{\"workload\": \"w\", \"trace\": false, \"metrics\": {{\"m\": \
                 {{\"value\": {value}, \"unit\": \"ms\", \"n\": 9, \"q1\": {}, \"q3\": {}}}}}}}",
                value * 0.5,
                value * 1.5
            ))
            .unwrap()
        };
        let key = ("w".to_string(), "m".to_string());
        let mut side = Side::default();
        side.add(&run(10.0));
        side.add(&run(10.2));
        // Two runs: their own samples, spread 1.0 over n = 9, give
        // 2 x 0.93 x 1.0 / 3.
        assert!((side.summary(&key).unwrap().1 - 0.62).abs() < 1e-12);
        side.add(&run(10.1));
        side.add(&run(10.3));
        let (median, spread, n) = side.summary(&key).unwrap();
        assert!((median - 10.15).abs() < 1e-12 && n == 4);
        assert!(spread < 0.05, "between-run spread, got {spread}");
    }
}
