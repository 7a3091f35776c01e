//! The result of one run: the benchmark's last stdout line, and the
//! richer line `--json` appends to a results file for `--compare`.

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sample counts, percentiles used, the load ladder and the like.
    pub detail: Json,
}

impl Record {
    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|m| {
            let v = Json::obj([("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.clone()))]);
            (m.name.clone(), v)
        }))
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
            ("detail", self.detail.clone()),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Record, String> {
        let num =
            |k: &str| doc.get(k).and_then(Json::as_f64).ok_or(format!("missing number `{k}`"));
        let flag =
            |k: &str| doc.get(k).and_then(Json::as_bool).ok_or(format!("missing bool `{k}`"));
        let Some(Json::Obj(pairs)) = doc.get("metrics") else {
            return Err("missing object `metrics`".into());
        };
        let metrics = pairs
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => {
                        Ok(Metric { name: name.clone(), value, unit: unit.to_string() })
                    }
                    _ => Err(format!("metric `{name}` needs a numeric value and a unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Record {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("missing `workload`")?
                .into(),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
            detail: doc.get("detail").cloned().unwrap_or(Json::Null),
        })
    }

    pub fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == metric).map(|m| m.value)
    }
}

/// Every record in a results file (one JSON object per line).
pub fn read_records(path: &std::path::Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            Json::parse(l)
                .and_then(|doc| Record::from_json(&doc))
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            workload: "serve_open".into(),
            seed: 42,
            seconds: 20.0,
            trace: false,
            correct: true,
            attempted: 123_456,
            failed: 0,
            metrics: vec![
                Metric { name: "setup_s".into(), value: 0.812_734_1, unit: "s".into() },
                Metric { name: "lat_p50_us".into(), value: 1.0 / 3.0, unit: "us".into() },
            ],
            detail: Json::obj([("ladder", Json::Arr(vec![Json::Num(3000.0)]))]),
        }
    }

    #[test]
    fn result_file_round_trips() {
        let r = sample();
        let back = Record::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.value("lat_p50_us").map(f64::to_bits), Some((1.0f64 / 3.0).to_bits()));

        let dir = std::env::temp_dir().join(format!("rvhpc-bench-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        let lines = format!("{}\n\n{}\n", r.to_json().render(), r.to_json().render());
        std::fs::write(&path, lines).unwrap();
        assert_eq!(read_records(&path).unwrap(), vec![r.clone(), r]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let doc = Json::parse(&sample().result_line()).unwrap();
        let Json::Obj(pairs) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.at(&["metrics", "setup_s", "unit"]).and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn malformed_records_are_refused() {
        assert!(Record::from_json(&Json::parse(r#"{"workload":"x"}"#).unwrap()).is_err());
        let mut doc = sample().to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "seed");
        }
        assert!(Record::from_json(&doc).unwrap_err().contains("seed"));
    }
}
