//! `BENCHMARK.json`, compiled in: the one list of workload and metric
//! names, units and regression bounds. The binary emits exactly the
//! metrics declared there, so the declaration and the program cannot
//! drift apart.

use crate::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks `{k}`"))
                    .to_owned()
            };
            MetricSpec {
                name: text("name"),
                unit: text("unit"),
                better: if text("better") == "higher" {
                    Better::Higher
                } else {
                    Better::Lower
                },
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

impl Spec {
    pub fn load() -> Spec {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }
}
