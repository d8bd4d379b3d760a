//! Every metric the benchmark reports, with its unit, read from the
//! `BENCHMARK.json` at the repository root: the file is the one list of
//! metric names, compiled into the binary.

use crate::stats::{valid_metric_name, valid_unit};
use foundation::json::Json;
use std::sync::OnceLock;

/// The benchmark definition the catalogue is read from.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
}

/// The two metric lists of `BENCHMARK.json`.
#[derive(Debug)]
pub struct Catalogue {
    /// Measured with tracing off (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Printed by the traced run (`--trace 1`). A layer the workload does
    /// not reach reads 0.
    pub per_layer: Vec<Metric>,
}

/// The catalogue, parsed and checked once.
pub fn get() -> Result<&'static Catalogue, String> {
    static CATALOGUE: OnceLock<Result<Catalogue, String>> = OnceLock::new();
    CATALOGUE
        .get_or_init(|| parse(BENCHMARK_JSON))
        .as_ref()
        .map_err(Clone::clone)
}

/// The per-layer metric called `name`, if there is one.
pub fn per_layer(name: &str) -> Option<&'static Metric> {
    get()
        .ok()?
        .per_layer
        .iter()
        .find(|metric| metric.name == name)
}

/// Read both lists from a benchmark definition and check every name and
/// unit against the report's alphabet, and that no name is used twice.
fn parse(text: &str) -> Result<Catalogue, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json does not parse: {e}"))?;
    let list = |key: &str| -> Result<Vec<Metric>, String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            return Err(format!("BENCHMARK.json lacks the list {key}"));
        };
        items
            .iter()
            .map(|item| {
                let field = |f: &str| {
                    item.get(f)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("a {key} entry has no string {f}"))
                };
                Ok(Metric {
                    name: field("name")?,
                    unit: field("unit")?,
                })
            })
            .collect()
    };
    let catalogue = Catalogue {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    };
    let mut seen = std::collections::BTreeSet::new();
    for metric in catalogue.end_to_end.iter().chain(&catalogue.per_layer) {
        if !valid_metric_name(&metric.name) || !valid_unit(&metric.unit) {
            return Err(format!(
                "metric {:?} has an invalid name or unit {:?}",
                metric.name, metric.unit
            ));
        }
        if !seen.insert(metric.name.as_str()) {
            return Err(format!("metric {} is listed twice", metric.name));
        }
    }
    Ok(catalogue)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_and_units_are_valid_and_unique() {
        let catalogue = get().expect("BENCHMARK.json is a valid catalogue");
        assert!(!catalogue.end_to_end.is_empty() && !catalogue.per_layer.is_empty());
        assert!(per_layer("stage.unattributed_s").is_some());
    }

    #[test]
    fn rejects_bad_and_repeated_names() {
        let doc = |e2e: &str| {
            format!(r#"{{"end_to_end": [{e2e}], "per_layer": [{{"name": "a.b_s", "unit": "s"}}]}}"#)
        };
        assert!(parse(&doc(r#"{"name": "wall_s", "unit": "s"}"#)).is_ok());
        for bad in [
            r#"{"name": "wall s", "unit": "s"}"#,
            r#"{"name": "_wall", "unit": "s"}"#,
            r#"{"name": "wall_s", "unit": ""}"#,
            r#"{"name": "a.b_s", "unit": "s"}"#,
            r#"{"name": "wall_s"}"#,
        ] {
            assert!(parse(&doc(bad)).is_err(), "{bad} must be rejected");
        }
    }
}
