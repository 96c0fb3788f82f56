//! `BENCHMARK.json`, compiled in: the one list of workload names, metric
//! names, units, directions and regression bounds. The binary reports
//! exactly the metrics listed there and `--compare` judges by its bounds.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
                .collect()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    MetricSpec {
                        name: text("name"),
                        unit: text("unit"),
                        higher_is_better: text("better") == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    }
                })
                .collect()
        };
        Spec {
            workloads: names("workloads"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(10.0),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_within_the_contract_limits() {
        let s = Spec::load();
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));
        assert!((1.0..=60.0).contains(&s.run_seconds) && s.run_seconds.fract() == 0.0);
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let mut seen = std::collections::BTreeSet::new();
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(seen.insert(m.name.clone()), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(s
            .end_to_end
            .iter()
            .all(|m| matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25)));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
