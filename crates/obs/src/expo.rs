//! Metrics exposition: the `rvhpc-metrics-v1` JSON document and
//! Prometheus-style text, plus the schema validator used by
//! `repro top --check` and CI.
//!
//! The JSON document is the machine-readable contract (consumed by
//! `repro top`, the loadgen poller, and the on-disk snapshot ring); the
//! Prometheus text is the interop face for standard scrapers. Both are
//! rendered from the same registry snapshot.

use crate::hist::{bucket_upper_bound, HistSnapshot};
use crate::window::WINDOWS_S;
use rvhpc_trace::json::Json;
use std::fmt::Write as _;

/// Schema tag carried by every metrics document.
pub const METRICS_SCHEMA: &str = "rvhpc-metrics-v1";

fn summary_fields(snap: &HistSnapshot) -> Vec<(&'static str, Json)> {
    vec![
        ("count", Json::Num(snap.count as f64)),
        ("mean_us", Json::Num(snap.mean_us())),
        ("max_us", Json::Num(snap.max_us())),
        ("p50_us", Json::Num(snap.quantile_us(0.50))),
        ("p90_us", Json::Num(snap.quantile_us(0.90))),
        ("p99_us", Json::Num(snap.quantile_us(0.99))),
        ("p999_us", Json::Num(snap.quantile_us(0.999))),
    ]
}

fn stage_json(stage: &crate::Stage, now_s: u64) -> Json {
    let cum = stage.hist.snapshot();
    let mut fields = summary_fields(&cum);
    let windows = WINDOWS_S
        .iter()
        .map(|&w| {
            let snap = stage.windows.merge_at(now_s, w);
            let mut inner = vec![
                ("count", Json::Num(snap.count as f64)),
                ("rate_rps", Json::Num(snap.count as f64 / w as f64)),
            ];
            inner.extend(summary_fields(&snap).into_iter().skip(1)); // drop duplicate count
            (format!("{w}s"), Json::obj(inner))
        })
        .collect::<Vec<_>>();
    fields.push(("windows", Json::Obj(windows)));
    Json::obj(fields)
}

fn slo_json(now_s: u64) -> Json {
    let slo = crate::slo();
    let (total, breaches, dropped) = slo.counters();
    let burn = if total == 0 { 0.0 } else { breaches as f64 / total as f64 };
    let windows = WINDOWS_S
        .iter()
        .map(|&w| {
            let (t, b) = slo.window_counts_at(now_s, w);
            let wburn = if t == 0 { 0.0 } else { b as f64 / t as f64 };
            (
                format!("{w}s"),
                Json::obj(vec![
                    ("total", Json::Num(t as f64)),
                    ("breaches", Json::Num(b as f64)),
                    ("burn_fraction", Json::Num(wburn)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("threshold_ms", Json::Num(slo.threshold_ms())),
        ("total", Json::Num(total as f64)),
        ("breaches", Json::Num(breaches as f64)),
        ("burn_fraction", Json::Num(burn)),
        ("captured", Json::Num(slo.captured_count() as f64)),
        ("dropped", Json::Num(dropped as f64)),
        ("windows", Json::Obj(windows)),
    ])
}

/// Render the whole registry as a `rvhpc-metrics-v1` document.
pub fn metrics_json() -> Json {
    let now_s = crate::now_s();
    let stages =
        crate::stages().into_iter().map(|(name, s)| (name.to_string(), stage_json(s, now_s)));
    let gauges =
        crate::gauges().into_iter().map(|(name, v)| (name.to_string(), Json::Num(v as f64)));
    let counters =
        crate::counters().into_iter().map(|(name, v)| (name.to_string(), Json::Num(v as f64)));
    Json::obj(vec![
        ("schema", Json::str(METRICS_SCHEMA)),
        ("uptime_s", Json::Num(crate::uptime_s())),
        ("stages", Json::Obj(stages.collect())),
        ("gauges", Json::Obj(gauges.collect())),
        ("counters", Json::Obj(counters.collect())),
        ("slo", slo_json(now_s)),
    ])
}

fn prom_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Render the registry as Prometheus exposition-format text. Histogram
/// buckets are emitted sparsely (only buckets that hold samples, plus
/// `+Inf`), which standard scrapers accept and keeps the payload small.
pub fn metrics_prometheus() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# HELP rvhpc_stage_us per-stage latency histogram (microseconds)");
    let _ = writeln!(out, "# TYPE rvhpc_stage_us histogram");
    for (name, stage) in crate::stages() {
        let snap = stage.hist.snapshot();
        let mut cum = 0u64;
        for (i, &c) in snap.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let le = bucket_upper_bound(i);
            if le.is_finite() {
                let _ =
                    writeln!(out, "rvhpc_stage_us_bucket{{stage=\"{name}\",le=\"{le}\"}} {cum}");
            }
        }
        let _ =
            writeln!(out, "rvhpc_stage_us_bucket{{stage=\"{name}\",le=\"+Inf\"}} {}", snap.count);
        let _ =
            writeln!(out, "rvhpc_stage_us_sum{{stage=\"{name}\"}} {}", snap.sum_ns as f64 / 1000.0);
        let _ = writeln!(out, "rvhpc_stage_us_count{{stage=\"{name}\"}} {}", snap.count);
    }
    let _ = writeln!(out, "# TYPE rvhpc_gauge gauge");
    for (name, v) in crate::gauges() {
        let _ = writeln!(out, "rvhpc_gauge{{name=\"{}\"}} {v}", prom_name(name));
    }
    let _ = writeln!(out, "# TYPE rvhpc_counter counter");
    for (name, v) in crate::counters() {
        let _ = writeln!(out, "rvhpc_counter{{name=\"{}\"}} {v}", prom_name(name));
    }
    let slo = crate::slo();
    let (total, breaches, dropped) = slo.counters();
    let _ = writeln!(out, "# TYPE rvhpc_slo_requests_total counter");
    let _ = writeln!(out, "rvhpc_slo_requests_total {total}");
    let _ = writeln!(out, "# TYPE rvhpc_slo_breaches_total counter");
    let _ = writeln!(out, "rvhpc_slo_breaches_total {breaches}");
    let _ = writeln!(out, "# TYPE rvhpc_slo_exemplars_dropped_total counter");
    let _ = writeln!(out, "rvhpc_slo_exemplars_dropped_total {dropped}");
    let _ = writeln!(out, "# TYPE rvhpc_slo_threshold_ms gauge");
    let _ = writeln!(out, "rvhpc_slo_threshold_ms {}", slo.threshold_ms());
    out
}

fn req_num(doc: &Json, path: &[&str]) -> Result<f64, String> {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key).ok_or_else(|| format!("missing `{}`", path.join(".")))?;
    }
    let n = cur.as_f64().ok_or_else(|| format!("`{}` is not a number", path.join(".")))?;
    if !n.is_finite() {
        return Err(format!("`{}` is not finite", path.join(".")));
    }
    Ok(n)
}

fn check_summary(name: &str, obj: &Json) -> Result<(), String> {
    let count = req_num(obj, &["count"])?;
    if count < 0.0 || count.fract() != 0.0 {
        return Err(format!("{name}: count must be a non-negative integer, got {count}"));
    }
    let mean = req_num(obj, &["mean_us"])?;
    let max = req_num(obj, &["max_us"])?;
    let p50 = req_num(obj, &["p50_us"])?;
    let p90 = req_num(obj, &["p90_us"])?;
    let p99 = req_num(obj, &["p99_us"])?;
    let p999 = req_num(obj, &["p999_us"])?;
    if !(p50 <= p90 && p90 <= p99 && p99 <= p999 && p999 <= max) {
        return Err(format!(
            "{name}: percentiles out of order (p50={p50} p90={p90} p99={p99} p999={p999} max={max})"
        ));
    }
    // Sample sums are rounded to nanoseconds, so allow a hair of slack.
    if mean > max + 1e-3 {
        return Err(format!("{name}: mean {mean} exceeds max {max}"));
    }
    if count == 0.0 && (max != 0.0 || p999 != 0.0) {
        return Err(format!("{name}: zero observations must report zero latencies"));
    }
    Ok(())
}

fn check_slo_block(name: &str, obj: &Json) -> Result<(), String> {
    let total = req_num(obj, &["total"])?;
    let breaches = req_num(obj, &["breaches"])?;
    let burn = req_num(obj, &["burn_fraction"])?;
    if breaches > total {
        return Err(format!("{name}: breaches {breaches} exceed total {total}"));
    }
    if !(0.0..=1.0).contains(&burn) {
        return Err(format!("{name}: burn_fraction {burn} outside [0,1]"));
    }
    let want = if total == 0.0 { 0.0 } else { breaches / total };
    if (burn - want).abs() > 1e-9 {
        return Err(format!("{name}: burn_fraction {burn} inconsistent with {breaches}/{total}"));
    }
    Ok(())
}

/// Validate a `rvhpc-metrics-v1` document. Returns the first problem
/// found. Callers that need the exit-2-vs-exit-1 split (`repro top
/// --check`) extract the `schema` tag themselves before calling this.
pub fn validate_metrics(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(METRICS_SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema `{other}`")),
        None => return Err("missing `schema` tag".to_string()),
    }
    let uptime = req_num(&doc, &["uptime_s"])?;
    if uptime < 0.0 {
        return Err(format!("uptime_s {uptime} is negative"));
    }
    let stages = match doc.get("stages") {
        Some(Json::Obj(pairs)) => pairs,
        _ => return Err("missing `stages` object".to_string()),
    };
    for (name, stage) in stages {
        check_summary(name, stage)?;
        let windows = match stage.get("windows") {
            Some(Json::Obj(pairs)) => pairs,
            _ => return Err(format!("{name}: missing `windows` object")),
        };
        for &w in &WINDOWS_S {
            let key = format!("{w}s");
            let win = windows
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("{name}: missing `{key}` window"))?;
            check_summary(&format!("{name}.{key}"), win)?;
            let count = req_num(win, &["count"])?;
            let rate = req_num(win, &["rate_rps"])?;
            if (rate - count / w as f64).abs() > 1e-9 {
                return Err(format!("{name}.{key}: rate_rps {rate} != count/{w}"));
            }
        }
    }
    match doc.get("gauges") {
        Some(Json::Obj(pairs)) => {
            for (name, v) in pairs {
                if !v.as_f64().is_some_and(f64::is_finite) {
                    return Err(format!("gauge `{name}` is not a finite number"));
                }
            }
        }
        _ => return Err("missing `gauges` object".to_string()),
    }
    // Optional: rings written before counters joined the registry lack it.
    match doc.get("counters") {
        None => {}
        Some(Json::Obj(pairs)) => {
            for (name, v) in pairs {
                if !v.as_f64().is_some_and(|n| n >= 0.0 && n.is_finite() && n.fract() == 0.0) {
                    return Err(format!("counter `{name}` is not a non-negative integer"));
                }
            }
        }
        Some(_) => return Err("`counters` is not an object".to_string()),
    }
    let slo = doc.get("slo").ok_or("missing `slo` block")?;
    let threshold = req_num(slo, &["threshold_ms"])?;
    if threshold < 0.0 {
        return Err(format!("slo.threshold_ms {threshold} is negative"));
    }
    check_slo_block("slo", slo)?;
    req_num(slo, &["captured"])?;
    req_num(slo, &["dropped"])?;
    let windows = match slo.get("windows") {
        Some(Json::Obj(pairs)) => pairs,
        _ => return Err("missing `slo.windows` object".to_string()),
    };
    for &w in &WINDOWS_S {
        let key = format!("{w}s");
        let win = windows
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("slo: missing `{key}` window"))?;
        check_slo_block(&format!("slo.{key}"), win)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_output_validates_and_carries_recorded_stages() {
        let s = crate::stage("test.expo.stage");
        for i in 0..50 {
            s.record_us(100.0 + i as f64);
        }
        crate::gauge!("test.expo.gauge", 3);
        crate::counter!("test.expo.counter", 4);
        let doc = metrics_json();
        validate_metrics(&doc.render()).expect("self-produced document validates");
        let stage = doc.get("stages").and_then(|s| s.get("test.expo.stage")).expect("stage");
        assert!(stage.get("count").and_then(Json::as_f64).unwrap() >= 50.0);
        assert!(stage.get("p99_us").and_then(Json::as_f64).unwrap() >= 100.0);
        assert_eq!(
            doc.get("gauges").unwrap().get("test.expo.gauge").and_then(Json::as_f64),
            Some(3.0)
        );
        let counter = doc.get("counters").and_then(|c| c.get("test.expo.counter"));
        assert!(counter.and_then(Json::as_f64).unwrap() >= 4.0);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(METRICS_SCHEMA));
    }

    #[test]
    fn prometheus_text_has_families_and_sparse_buckets() {
        let s = crate::stage("test.expo.prom");
        s.record_us(42.0);
        let text = metrics_prometheus();
        assert!(text.contains("# TYPE rvhpc_stage_us histogram"));
        assert!(text.contains("rvhpc_stage_us_bucket{stage=\"test.expo.prom\",le=\"+Inf\"} 1"));
        assert!(text.contains("rvhpc_stage_us_count{stage=\"test.expo.prom\"} 1"));
        assert!(text.contains("# TYPE rvhpc_gauge gauge"));
        assert!(text.contains("rvhpc_slo_requests_total"));
        crate::counter!("test.expo.prom_counter", 1);
        let text = metrics_prometheus();
        assert!(text.contains("# TYPE rvhpc_counter counter"));
        assert!(text.contains("rvhpc_counter{name=\"test_expo_prom_counter\"}"));
        // Sparse: exactly one finite bucket line for a single sample.
        let finite_buckets = text
            .lines()
            .filter(|l| {
                l.contains("stage=\"test.expo.prom\"") && l.contains("le=") && !l.contains("+Inf")
            })
            .count();
        assert_eq!(finite_buckets, 1);
    }

    #[test]
    fn validator_rejects_wrong_schema_and_broken_documents() {
        assert!(validate_metrics("not json").unwrap_err().contains("not valid JSON"));
        assert!(validate_metrics(r#"{"schema":"rvhpc-metrics-v999"}"#)
            .unwrap_err()
            .contains("unknown schema"));
        assert!(validate_metrics(r#"{"uptime_s":1}"#).unwrap_err().contains("schema"));
        // Right schema, missing everything else → invalid.
        assert!(validate_metrics(r#"{"schema":"rvhpc-metrics-v1"}"#).is_err());
        // Out-of-order percentiles are caught.
        crate::stage("test.expo.reject").record_us(9.0);
        let doc = metrics_json().render().replace("\"p999_us\":", "\"p999_us\":-1,\"x_us\":");
        assert!(validate_metrics(&doc).is_err());
    }

    /// The live document with its `counters` block replaced (`Some`) or
    /// removed (`None`).
    fn with_counters(counters: Option<Json>) -> String {
        let Json::Obj(mut pairs) = metrics_json() else { unreachable!("an object") };
        pairs.retain(|(k, _)| k != "counters");
        if let Some(c) = counters {
            pairs.push(("counters".to_string(), c));
        }
        Json::Obj(pairs).render()
    }

    #[test]
    fn validator_requires_counters_to_be_non_negative_integers() {
        let one = |v: Json| Some(Json::obj(vec![("test.expo.bad", v)]));
        let negative = validate_metrics(&with_counters(one(Json::Num(-1.0)))).unwrap_err();
        assert!(negative.contains("test.expo.bad"), "{negative}");
        assert!(validate_metrics(&with_counters(one(Json::Num(2.5)))).is_err(), "fractional");
        assert!(validate_metrics(&with_counters(one(Json::str("3")))).is_err(), "non-number");
        assert!(
            validate_metrics(&with_counters(Some(Json::Arr(vec![])))).is_err(),
            "not an object"
        );
        validate_metrics(&with_counters(one(Json::Num(0.0)))).expect("zero is a count");
    }

    #[test]
    fn validator_accepts_documents_written_before_counters() {
        let old = with_counters(None);
        assert!(!old.contains("\"counters\""));
        validate_metrics(&old).expect("a document without `counters` still validates");
    }
}
