//! Merging shard replies into one fleet view.
//!
//! The contract: a merged `metrics` reply is itself a valid
//! `rvhpc-metrics-v1` document (so `repro top --check` accepts it), and a
//! merged `stats` reply keeps the single-server shape (so the loadgen's
//! cache accounting works unchanged against a router).
//!
//! The merge rules preserve every invariant the validator enforces:
//! counts, breaches, gauges and counters sum; rates and burn fractions are
//! *recomputed* from the summed counts (never averaged, which would drift
//! past the validator's 1e-9 tolerance); means are count-weighted; and
//! quantiles take the elementwise max — the max of ordered tuples is
//! still ordered, and a fleet p99 reported as the worst shard p99 is the
//! conservative bound an operator wants.

use rvhpc_obs::WINDOWS_S;
use rvhpc_trace::json::Json;

fn get_num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Count-weighted mean over `(count, mean)` pairs.
fn weighted_mean(parts: &[(f64, f64)]) -> f64 {
    let total: f64 = parts.iter().map(|(c, _)| c).sum();
    if total == 0.0 {
        return 0.0;
    }
    parts.iter().map(|(c, m)| c * m).sum::<f64>() / total
}

/// Merge one summary block (count/mean/max/p50/p90/p99/p999). When the
/// summed count is zero every latency field is zero, matching the
/// validator's "zero observations report zero latencies" rule.
fn merge_summary(blocks: &[&Json]) -> Vec<(&'static str, Json)> {
    let count: f64 = blocks.iter().map(|b| get_num(b, "count")).sum();
    let maxed = |field: &str| {
        if count == 0.0 {
            0.0
        } else {
            blocks.iter().map(|b| get_num(b, field)).fold(0.0, f64::max)
        }
    };
    let mean = if count == 0.0 {
        0.0
    } else {
        weighted_mean(
            &blocks
                .iter()
                .map(|b| (get_num(b, "count"), get_num(b, "mean_us")))
                .collect::<Vec<_>>(),
        )
    };
    vec![
        ("count", Json::Num(count)),
        ("mean_us", Json::Num(mean)),
        ("max_us", Json::Num(maxed("max_us"))),
        ("p50_us", Json::Num(maxed("p50_us"))),
        ("p90_us", Json::Num(maxed("p90_us"))),
        ("p99_us", Json::Num(maxed("p99_us"))),
        ("p999_us", Json::Num(maxed("p999_us"))),
    ]
}

fn merge_stage(blocks: &[&Json]) -> Json {
    let mut fields = merge_summary(blocks);
    let windows = WINDOWS_S
        .iter()
        .map(|&w| {
            let key = format!("{w}s");
            let wins: Vec<&Json> =
                blocks.iter().filter_map(|b| b.get("windows")?.get(&key)).collect();
            let mut inner = merge_summary(&wins);
            let count = inner[0].1.as_f64().unwrap_or(0.0);
            // rate_rps sits right after count in the single-server shape.
            inner.insert(1, ("rate_rps", Json::Num(count / w as f64)));
            (key, Json::obj(inner))
        })
        .collect::<Vec<_>>();
    fields.push(("windows", Json::Obj(windows)));
    Json::obj(fields)
}

fn merge_slo_counts(blocks: &[&Json]) -> (f64, f64) {
    let total: f64 = blocks.iter().map(|b| get_num(b, "total")).sum();
    let breaches: f64 = blocks.iter().map(|b| get_num(b, "breaches")).sum();
    (total, breaches)
}

fn burn(total: f64, breaches: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        breaches / total
    }
}

/// The names in the documents' `block` objects, in first-seen order for
/// deterministic output.
fn union_names<'a>(docs: &'a [Json], block: &str) -> Vec<&'a String> {
    let mut names: Vec<&String> = Vec::new();
    for doc in docs {
        if let Some(Json::Obj(pairs)) = doc.get(block) {
            for (name, _) in pairs {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// Each name in the documents' `block` objects with its values summed:
/// how gauges and counters merge.
fn sum_by_name(docs: &[Json], block: &str) -> Json {
    let sums = union_names(docs, block).into_iter().map(|name| {
        let sum: f64 = docs.iter().filter_map(|d| d.get(block)?.get(name)?.as_f64()).sum();
        (name.clone(), Json::Num(sum))
    });
    Json::Obj(sums.collect())
}

/// Merge N shard `rvhpc-metrics-v1` documents into one fleet document.
/// The result validates under [`rvhpc_obs::validate_metrics`] whenever the
/// inputs do.
pub fn merge_metrics(docs: &[Json]) -> Json {
    let uptime = docs.iter().map(|d| get_num(d, "uptime_s")).fold(0.0, f64::max);
    let stages = union_names(docs, "stages")
        .into_iter()
        .map(|name| {
            let blocks: Vec<&Json> =
                docs.iter().filter_map(|d| d.get("stages")?.get(name)).collect();
            (name.clone(), merge_stage(&blocks))
        })
        .collect::<Vec<_>>();
    let slos: Vec<&Json> = docs.iter().filter_map(|d| d.get("slo")).collect();
    let threshold = slos.iter().map(|s| get_num(s, "threshold_ms")).fold(0.0, f64::max);
    let (total, breaches) = merge_slo_counts(&slos);
    let captured: f64 = slos.iter().map(|s| get_num(s, "captured")).sum();
    let dropped: f64 = slos.iter().map(|s| get_num(s, "dropped")).sum();
    let slo_windows = WINDOWS_S
        .iter()
        .map(|&w| {
            let key = format!("{w}s");
            let wins: Vec<&Json> =
                slos.iter().filter_map(|s| s.get("windows")?.get(&key)).collect();
            let (t, b) = merge_slo_counts(&wins);
            (
                key,
                Json::obj(vec![
                    ("total", Json::Num(t)),
                    ("breaches", Json::Num(b)),
                    ("burn_fraction", Json::Num(burn(t, b))),
                ]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("schema", Json::str(rvhpc_obs::METRICS_SCHEMA)),
        ("uptime_s", Json::Num(uptime)),
        ("stages", Json::Obj(stages)),
        ("gauges", sum_by_name(docs, "gauges")),
        ("counters", sum_by_name(docs, "counters")),
        (
            "slo",
            Json::obj(vec![
                ("threshold_ms", Json::Num(threshold)),
                ("total", Json::Num(total)),
                ("breaches", Json::Num(breaches)),
                ("burn_fraction", Json::Num(burn(total, breaches))),
                ("captured", Json::Num(captured)),
                ("dropped", Json::Num(dropped)),
                ("windows", Json::Obj(slo_windows)),
            ]),
        ),
    ])
}

/// Merge N shard `stats` results into the single-server shape plus a
/// `fleet` block. Numbers sum recursively, booleans OR, and every
/// `hit_rate` is recomputed from its own summed hits/misses so the merged
/// counters stay self-consistent.
pub fn merge_stats(results: &[Json], fleet: Json) -> Json {
    fn merge_values(values: &[&Json]) -> Json {
        match values.first() {
            Some(Json::Obj(_)) => {
                let mut keys: Vec<String> = Vec::new();
                for v in values {
                    if let Json::Obj(pairs) = v {
                        for (k, _) in pairs {
                            if !keys.contains(k) {
                                keys.push(k.clone());
                            }
                        }
                    }
                }
                let mut merged: Vec<(String, Json)> = keys
                    .into_iter()
                    .map(|k| {
                        let inner: Vec<&Json> = values.iter().filter_map(|v| v.get(&k)).collect();
                        (k, merge_values(&inner))
                    })
                    .collect();
                // Recompute any hit_rate from the summed hits/misses.
                let rate = {
                    let find = |key: &str| {
                        merged.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_f64())
                    };
                    match (find("hits"), find("misses")) {
                        (Some(h), Some(m)) if h + m > 0.0 => Some(h / (h + m)),
                        (Some(_), Some(_)) => Some(0.0),
                        _ => None,
                    }
                };
                if let Some(rate) = rate {
                    if let Some(slot) = merged.iter_mut().find(|(k, _)| k == "hit_rate") {
                        slot.1 = Json::Num(rate);
                    }
                }
                Json::Obj(merged)
            }
            Some(Json::Num(_)) => Json::Num(values.iter().filter_map(|v| v.as_f64()).sum::<f64>()),
            Some(Json::Bool(_)) => Json::Bool(values.iter().any(|v| matches!(v, Json::Bool(true)))),
            Some(other) => (*other).clone(),
            None => Json::Null,
        }
    }
    let refs: Vec<&Json> = results.iter().collect();
    let mut merged = merge_values(&refs);
    if let Json::Obj(pairs) = &mut merged {
        pairs.push(("fleet".to_string(), fleet));
    }
    merged
}

/// Merge N shard `slow_requests` results: counters sum, burn is
/// recomputed, exemplars are concatenated newest-first and truncated to
/// `limit`.
pub fn merge_slow(results: &[Json], limit: usize) -> Json {
    let refs: Vec<&Json> = results.iter().collect();
    let threshold = refs.iter().map(|r| get_num(r, "threshold_ms")).fold(0.0, f64::max);
    let (total, breaches) = merge_slo_counts(&refs);
    let captured: f64 = refs.iter().map(|r| get_num(r, "captured")).sum();
    let dropped: f64 = refs.iter().map(|r| get_num(r, "dropped")).sum();
    let mut requests: Vec<Json> = results
        .iter()
        .filter_map(|r| r.get("requests").and_then(Json::as_arr))
        .flat_map(|a| a.iter().cloned())
        .collect();
    // Newest first when exemplars carry a timestamp; stable otherwise.
    requests.sort_by(|a, b| {
        get_num(b, "at_s").partial_cmp(&get_num(a, "at_s")).unwrap_or(std::cmp::Ordering::Equal)
    });
    requests.truncate(limit);
    Json::obj(vec![
        ("threshold_ms", Json::Num(threshold)),
        ("total", Json::Num(total)),
        ("breaches", Json::Num(breaches)),
        ("burn_fraction", Json::Num(burn(total, breaches))),
        ("captured", Json::Num(captured)),
        ("dropped", Json::Num(dropped)),
        ("requests", Json::Arr(requests)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_metrics_document_validates() {
        // Two genuinely different registries are hard to fake in one
        // process, so merge the live document with itself and with an
        // empty-stage variant: sums double, quantiles stay, and the result
        // must still pass the real validator.
        let s = rvhpc_obs::stage("test.fleet.merge");
        for i in 0..100 {
            s.record_us(50.0 + i as f64);
        }
        rvhpc_obs::gauge!("test.fleet.gauge", 7);
        let doc = rvhpc_obs::metrics_json();
        let merged = merge_metrics(&[doc.clone(), doc.clone()]);
        rvhpc_obs::validate_metrics(&merged.render()).expect("merged doc validates");
        let stage = merged.get("stages").and_then(|s| s.get("test.fleet.merge")).unwrap();
        let single = doc.get("stages").and_then(|s| s.get("test.fleet.merge")).unwrap();
        assert_eq!(
            stage.get("count").and_then(Json::as_f64).unwrap(),
            2.0 * single.get("count").and_then(Json::as_f64).unwrap()
        );
        assert_eq!(
            stage.get("p99_us").and_then(Json::as_f64),
            single.get("p99_us").and_then(Json::as_f64),
            "elementwise max of identical docs is the doc itself"
        );
        assert_eq!(
            merged.get("gauges").and_then(|g| g.get("test.fleet.gauge")).and_then(Json::as_f64),
            Some(14.0)
        );
    }

    #[test]
    fn merged_metrics_sum_counters_by_name() {
        let doc = |counters: Vec<(&str, Json)>| {
            let Json::Obj(mut pairs) = rvhpc_obs::metrics_json() else { unreachable!() };
            pairs.retain(|(k, _)| k != "counters");
            pairs.push(("counters".to_string(), Json::obj(counters)));
            Json::Obj(pairs)
        };
        let a = doc(vec![("test.fleet.both", Json::Num(3.0)), ("test.fleet.a", Json::Num(1.0))]);
        let b = doc(vec![("test.fleet.both", Json::Num(4.0)), ("test.fleet.b", Json::Num(2.0))]);
        let merged = merge_metrics(&[a, b]);
        rvhpc_obs::validate_metrics(&merged.render()).expect("merged doc validates");
        let counters = merged.get("counters").expect("counters block");
        let get = |name| counters.get(name).and_then(Json::as_f64);
        assert_eq!(get("test.fleet.both"), Some(7.0));
        assert_eq!(get("test.fleet.a"), Some(1.0), "a name on one side only keeps its value");
        assert_eq!(get("test.fleet.b"), Some(2.0));
    }

    #[test]
    fn merged_stats_sum_counters_and_recompute_hit_rate() {
        let shard = |hits: f64, misses: f64, requests: f64| {
            Json::obj(vec![
                (
                    "server",
                    Json::obj(vec![
                        ("requests", Json::Num(requests)),
                        ("draining", Json::Bool(false)),
                    ]),
                ),
                (
                    "estimate_cache",
                    Json::obj(vec![
                        ("hits", Json::Num(hits)),
                        ("misses", Json::Num(misses)),
                        ("hit_rate", Json::Num(hits / (hits + misses))),
                    ]),
                ),
            ])
        };
        let merged = merge_stats(
            &[shard(90.0, 10.0, 100.0), shard(50.0, 50.0, 100.0)],
            Json::obj(vec![("shards", Json::Num(2.0))]),
        );
        let cache = merged.get("estimate_cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(140.0));
        assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(60.0));
        assert!((cache.get("hit_rate").and_then(Json::as_f64).unwrap() - 0.7).abs() < 1e-12);
        assert_eq!(
            merged.get("server").and_then(|s| s.get("requests")).and_then(Json::as_f64),
            Some(200.0)
        );
        assert_eq!(
            merged.get("fleet").and_then(|f| f.get("shards")).and_then(Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn merged_slow_requests_truncate_to_limit_newest_first() {
        let mk = |at: f64| {
            Json::obj(vec![
                ("threshold_ms", Json::Num(100.0)),
                ("total", Json::Num(10.0)),
                ("breaches", Json::Num(2.0)),
                ("captured", Json::Num(1.0)),
                ("dropped", Json::Num(0.0)),
                ("requests", Json::Arr(vec![Json::obj(vec![("at_s", Json::Num(at))])])),
            ])
        };
        let merged = merge_slow(&[mk(1.0), mk(3.0), mk(2.0)], 2);
        assert_eq!(merged.get("total").and_then(Json::as_f64), Some(30.0));
        assert!((merged.get("burn_fraction").and_then(Json::as_f64).unwrap() - 0.2).abs() < 1e-12);
        let reqs = merged.get("requests").and_then(Json::as_arr).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].get("at_s").and_then(Json::as_f64), Some(3.0));
    }
}
