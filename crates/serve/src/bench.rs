//! The `rvhpc-serve-bench-v1` artefact: a loadgen run rendered to JSON.
//!
//! Shape (documented in EXPERIMENTS.md; the validator below is the
//! machine-checkable spec):
//!
//! ```text
//! { "schema": "rvhpc-serve-bench-v1",
//!   "config":  { clients, mode, connections, rps, duration_s,
//!                requests_per_client, seed },
//!   "latency_us": { p50, p95, p99, mean, max },
//!   "throughput_rps": ...,
//!   "requests": { sent, ok, overloaded, deadline_exceeded,
//!                 shutting_down, protocol_errors },
//!   "reject_rate": ...,
//!   "cache": { hits, misses, hit_rate },
//!   "verified_bit_identical": true,
//!   "slo": { "target_ms", "achieved_p99_us", "breaches",
//!            "burn_fraction", "passed" },          // only with --slo-ms
//!   "metrics_polls": { "polls", "failures" } }     // only when polling
//! ```

use crate::loadgen::{LoadgenConfig, LoadgenReport};
use rvhpc_trace::json::Json;

/// Schema tag embedded in (and required of) every serve-bench artefact.
pub const SERVE_SCHEMA: &str = "rvhpc-serve-bench-v1";

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Render a loadgen run as the versioned artefact.
pub fn serve_artefact(cfg: &LoadgenConfig, report: &LoadgenReport) -> Json {
    let mut fields = vec![
        ("schema", Json::str(SERVE_SCHEMA)),
        (
            "config",
            Json::obj(vec![
                ("clients", num(report.clients as f64)),
                ("mode", Json::str(if report.open_loop { "open_loop" } else { "closed_loop" })),
                ("connections", num(report.connections as f64)),
                ("rps", num(cfg.rps)),
                ("duration_s", cfg.duration.map_or(Json::Null, |d| num(d.as_secs_f64()))),
                (
                    "requests_per_client",
                    cfg.requests_per_client.map_or(Json::Null, |n| num(n as f64)),
                ),
                ("seed", num(report.seed as f64)),
            ]),
        ),
        (
            "latency_us",
            Json::obj(vec![
                ("p50", num(report.p50_us)),
                ("p95", num(report.p95_us)),
                ("p99", num(report.p99_us)),
                ("mean", num(report.mean_us)),
                ("max", num(report.max_us)),
            ]),
        ),
        ("throughput_rps", num(report.throughput_rps)),
        (
            "requests",
            Json::obj(vec![
                ("sent", num(report.sent as f64)),
                ("ok", num(report.ok as f64)),
                ("overloaded", num(report.overloaded as f64)),
                ("deadline_exceeded", num(report.deadline_exceeded as f64)),
                ("shutting_down", num(report.shutting_down as f64)),
                ("protocol_errors", num(report.protocol_errors as f64)),
            ]),
        ),
        ("reject_rate", num(report.reject_rate)),
        (
            "cache",
            Json::obj(vec![
                ("hits", num(report.cache_hits as f64)),
                ("misses", num(report.cache_misses as f64)),
                ("hit_rate", num(report.cache_hit_rate)),
            ]),
        ),
        ("verified_bit_identical", Json::Bool(report.verified_bit_identical)),
        ("wall_seconds", num(report.wall_seconds)),
    ];
    if let Some(target_ms) = report.slo_target_ms {
        fields.push((
            "slo",
            Json::obj(vec![
                ("target_ms", num(target_ms)),
                ("achieved_p99_us", num(report.p99_us)),
                ("breaches", num(report.slo_breaches as f64)),
                ("burn_fraction", num(report.slo_burn)),
                ("passed", Json::Bool(report.slo_passed.unwrap_or(false))),
            ]),
        ));
    }
    if report.metrics_polls > 0 {
        fields.push((
            "metrics_polls",
            Json::obj(vec![
                ("polls", num(report.metrics_polls as f64)),
                ("failures", num(report.metrics_poll_failures as f64)),
            ]),
        ));
    }
    if report.shards.is_some() || !report.per_shard.is_empty() {
        fields.push((
            "fleet",
            Json::obj(vec![
                ("shards", report.shards.map_or(Json::Null, |n| num(n as f64))),
                (
                    "per_shard",
                    Json::Arr(
                        report
                            .per_shard
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("addr", Json::str(&s.addr)),
                                    ("reachable", Json::Bool(s.reachable)),
                                    ("requests", num(s.requests as f64)),
                                    (
                                        "cache",
                                        Json::obj(vec![
                                            ("hits", num(s.cache_hits as f64)),
                                            ("misses", num(s.cache_misses as f64)),
                                            ("hit_rate", num(s.cache_hit_rate)),
                                        ]),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    Json::obj(fields)
}

/// The field at `path` in `doc`, or an error naming the dotted path.
fn req_field<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key).ok_or_else(|| format!("missing field `{}`", path.join(".")))?;
    }
    Ok(cur)
}

/// The number at `path` in an artefact, for the artefact validators.
pub fn req_f64(doc: &Json, path: &[&str]) -> Result<f64, String> {
    let v = req_field(doc, path)?;
    v.as_f64().ok_or_else(|| format!("field `{}` is not a number", path.join(".")))
}

/// The boolean at `path` in an artefact.
pub fn req_bool(doc: &Json, path: &[&str]) -> Result<bool, String> {
    match req_field(doc, path)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("field `{}` is not a boolean", path.join("."))),
    }
}

/// The non-negative integer at `path` in an artefact.
pub fn req_count(doc: &Json, path: &[&str]) -> Result<u64, String> {
    let v = req_f64(doc, path)?;
    if v.is_finite() && v >= 0.0 && v.fract() == 0.0 {
        Ok(v as u64)
    } else {
        Err(format!("field `{}` is not a non-negative integer: {v}", path.join(".")))
    }
}

/// Validate a serve-bench artefact: schema tag, finite ordered latency
/// percentiles, sane rates, integer counters, and a cache hit rate
/// consistent with its own hit/miss counts.
pub fn validate_serve_artefact(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("artefact is not valid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field `schema`".to_string())?;
    if schema != SERVE_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{SERVE_SCHEMA}`"));
    }
    let p50 = req_f64(&doc, &["latency_us", "p50"])?;
    let p95 = req_f64(&doc, &["latency_us", "p95"])?;
    let p99 = req_f64(&doc, &["latency_us", "p99"])?;
    for (name, v) in [("p50", p50), ("p95", p95), ("p99", p99)] {
        if !v.is_finite() || v < 0.0 {
            return Err(format!("latency_us.{name} is not a finite non-negative number: {v}"));
        }
    }
    if !(p50 <= p95 && p95 <= p99) {
        return Err(format!("latency percentiles out of order: p50={p50} p95={p95} p99={p99}"));
    }
    let throughput = req_f64(&doc, &["throughput_rps"])?;
    if !throughput.is_finite() || throughput <= 0.0 {
        return Err(format!("throughput_rps must be finite and positive, got {throughput}"));
    }
    let reject = req_f64(&doc, &["reject_rate"])?;
    if !(0.0..=1.0).contains(&reject) {
        return Err(format!("reject_rate out of [0,1]: {reject}"));
    }
    let sent = req_count(&doc, &["requests", "sent"])?;
    let ok = req_count(&doc, &["requests", "ok"])?;
    for field in ["overloaded", "deadline_exceeded", "shutting_down", "protocol_errors"] {
        req_count(&doc, &["requests", field])?;
    }
    if ok > sent {
        return Err(format!("requests.ok ({ok}) exceeds requests.sent ({sent})"));
    }
    let hits = req_count(&doc, &["cache", "hits"])?;
    let misses = req_count(&doc, &["cache", "misses"])?;
    let hit_rate = req_f64(&doc, &["cache", "hit_rate"])?;
    let total = hits + misses;
    let expected = if total > 0 { hits as f64 / total as f64 } else { 0.0 };
    if (hit_rate - expected).abs() > 1e-9 {
        return Err(format!(
            "cache.hit_rate {hit_rate} inconsistent with hits={hits} misses={misses}"
        ));
    }
    match doc.get("verified_bit_identical") {
        Some(Json::Bool(_)) => {}
        _ => return Err("missing boolean field `verified_bit_identical`".to_string()),
    }
    // `config.mode`/`config.connections` arrived with the open-loop
    // reactor benchmark; older artefacts without them stay valid, but
    // when present they must be well-formed.
    if let Some(config) = doc.get("config") {
        if let Some(mode) = config.get("mode") {
            let Some(mode) = mode.as_str() else {
                return Err("config.mode must be a string".to_string());
            };
            if mode != "open_loop" && mode != "closed_loop" {
                return Err(format!(
                    "config.mode is `{mode}`, expected `open_loop` or `closed_loop`"
                ));
            }
            let conns = req_count(config, &["connections"])?;
            if conns == 0 {
                return Err("config.connections must be positive".to_string());
            }
        }
    }
    if let Some(slo) = doc.get("slo") {
        let target_ms = req_f64(slo, &["target_ms"])?;
        if !target_ms.is_finite() || target_ms <= 0.0 {
            return Err(format!("slo.target_ms must be finite and positive, got {target_ms}"));
        }
        let achieved = req_f64(slo, &["achieved_p99_us"])?;
        if (achieved - p99).abs() > 1e-9 {
            return Err(format!(
                "slo.achieved_p99_us ({achieved}) disagrees with latency_us.p99 ({p99})"
            ));
        }
        let breaches = req_count(slo, &["breaches"])?;
        if breaches > ok {
            return Err(format!("slo.breaches ({breaches}) exceeds requests.ok ({ok})"));
        }
        let burn = req_f64(slo, &["burn_fraction"])?;
        let expected_burn = if ok > 0 { breaches as f64 / ok as f64 } else { 0.0 };
        if (burn - expected_burn).abs() > 1e-9 {
            return Err(format!(
                "slo.burn_fraction {burn} inconsistent with breaches={breaches} ok={ok}"
            ));
        }
        let Some(Json::Bool(passed)) = slo.get("passed") else {
            return Err("missing boolean field `slo.passed`".to_string());
        };
        // The verdict must be derivable from the numbers next to it.
        let expected_passed = ok > 0 && achieved <= target_ms * 1000.0;
        if *passed != expected_passed {
            return Err(format!(
                "slo.passed is {passed} but p99={achieved}us vs target={target_ms}ms implies \
                 {expected_passed}"
            ));
        }
    }
    if let Some(polls) = doc.get("metrics_polls") {
        let n = req_count(polls, &["polls"])?;
        let failures = req_count(polls, &["failures"])?;
        if failures > n {
            return Err(format!("metrics_polls.failures ({failures}) exceeds polls ({n})"));
        }
    }
    if let Some(fleet) = doc.get("fleet") {
        validate_fleet_attribution(fleet)?;
    }
    Ok(())
}

/// Validate the optional `fleet` attribution block of a serve-bench
/// artefact (present when the run addressed a fleet router).
fn validate_fleet_attribution(fleet: &Json) -> Result<(), String> {
    if let Some(shards) = fleet.get("shards") {
        if !matches!(shards, Json::Null) {
            let n = req_count(fleet, &["shards"])?;
            if n == 0 {
                return Err("fleet.shards must be positive".to_string());
            }
        }
    }
    let Some(Json::Arr(entries)) = fleet.get("per_shard") else {
        return Err("missing array field `fleet.per_shard`".to_string());
    };
    for (i, entry) in entries.iter().enumerate() {
        if entry.get("addr").and_then(Json::as_str).is_none() {
            return Err(format!("fleet.per_shard[{i}].addr must be a string"));
        }
        let Some(Json::Bool(reachable)) = entry.get("reachable") else {
            return Err(format!("fleet.per_shard[{i}].reachable must be a boolean"));
        };
        let requests = req_count(entry, &["requests"])?;
        let hits = req_count(entry, &["cache", "hits"])?;
        let misses = req_count(entry, &["cache", "misses"])?;
        let hit_rate = req_f64(entry, &["cache", "hit_rate"])?;
        let total = hits + misses;
        let expected = if total > 0 { hits as f64 / total as f64 } else { 0.0 };
        if (hit_rate - expected).abs() > 1e-9 {
            return Err(format!(
                "fleet.per_shard[{i}].cache.hit_rate {hit_rate} inconsistent with \
                 hits={hits} misses={misses}"
            ));
        }
        if !reachable && (requests > 0 || total > 0) {
            return Err(format!("fleet.per_shard[{i}] is unreachable but has non-zero counters"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> LoadgenReport {
        LoadgenReport {
            clients: 4,
            open_loop: false,
            connections: 4,
            seed: 42,
            wall_seconds: 1.5,
            sent: 400,
            ok: 390,
            overloaded: 10,
            deadline_exceeded: 0,
            shutting_down: 0,
            protocol_errors: 0,
            p50_us: 120.0,
            p95_us: 450.0,
            p99_us: 900.0,
            mean_us: 160.0,
            max_us: 1200.0,
            throughput_rps: 260.0,
            reject_rate: 0.025,
            cache_hits: 300,
            cache_misses: 100,
            cache_hit_rate: 0.75,
            verified_bit_identical: true,
            probe_bad_ok: None,
            drained_clean: None,
            slo_target_ms: None,
            slo_breaches: 0,
            slo_burn: 0.0,
            slo_passed: None,
            metrics_polls: 0,
            metrics_poll_failures: 0,
            shards: None,
            per_shard: Vec::new(),
        }
    }

    #[test]
    fn artefact_round_trips_through_the_validator() {
        let text = serve_artefact(&LoadgenConfig::default(), &sample_report()).render();
        validate_serve_artefact(&text).expect("valid artefact");
    }

    #[test]
    fn wrong_schema_is_rejected_by_name() {
        let mut report = sample_report();
        report.protocol_errors = 0;
        let text = serve_artefact(&LoadgenConfig::default(), &report)
            .render()
            .replace(SERVE_SCHEMA, "rvhpc-serve-bench-v0");
        let err = validate_serve_artefact(&text).expect_err("schema mismatch");
        assert!(err.contains("schema is"), "{err}");
    }

    #[test]
    fn disordered_percentiles_and_bad_rates_are_rejected() {
        let mut report = sample_report();
        report.p95_us = 10.0; // below p50
        let text = serve_artefact(&LoadgenConfig::default(), &report).render();
        let err = validate_serve_artefact(&text).expect_err("percentile order");
        assert!(err.contains("out of order"), "{err}");

        let mut report = sample_report();
        report.cache_hit_rate = 0.2; // inconsistent with 300/400
        let text = serve_artefact(&LoadgenConfig::default(), &report).render();
        let err = validate_serve_artefact(&text).expect_err("hit rate");
        assert!(err.contains("inconsistent"), "{err}");

        let mut report = sample_report();
        report.throughput_rps = 0.0;
        let text = serve_artefact(&LoadgenConfig::default(), &report).render();
        let err = validate_serve_artefact(&text).expect_err("throughput");
        assert!(err.contains("throughput"), "{err}");
    }

    #[test]
    fn truncated_artefacts_fail_closed() {
        assert!(validate_serve_artefact("{not json").is_err());
        assert!(validate_serve_artefact(r#"{"schema":"rvhpc-serve-bench-v1"}"#).is_err());
    }

    /// A report gated on an SLO renders a consistent `slo` block and the
    /// validator rejects both a fudged burn fraction and a verdict that
    /// contradicts the numbers next to it.
    #[test]
    fn slo_block_is_rendered_and_enforced() {
        let mut report = sample_report();
        report.slo_target_ms = Some(1.0); // 1ms => p99 of 900us passes
        report.slo_breaches = 39;
        report.slo_burn = 39.0 / 390.0;
        report.slo_passed = Some(true);
        report.metrics_polls = 12;
        report.metrics_poll_failures = 0;
        let doc = serve_artefact(&LoadgenConfig::default(), &report);
        let text = doc.render();
        validate_serve_artefact(&text).expect("valid slo artefact");
        assert!(doc.get("slo").is_some() && doc.get("metrics_polls").is_some());

        let mut bad = report.clone();
        bad.slo_burn = 0.5;
        let err =
            validate_serve_artefact(&serve_artefact(&LoadgenConfig::default(), &bad).render())
                .expect_err("burn mismatch");
        assert!(err.contains("burn_fraction"), "{err}");

        let mut bad = report.clone();
        bad.slo_passed = Some(false); // contradicts p99 900us <= 1000us
        let err =
            validate_serve_artefact(&serve_artefact(&LoadgenConfig::default(), &bad).render())
                .expect_err("verdict mismatch");
        assert!(err.contains("slo.passed"), "{err}");

        // A report without a target renders no slo block at all.
        let text = serve_artefact(&LoadgenConfig::default(), &sample_report()).render();
        assert!(!text.contains("\"slo\""));
        validate_serve_artefact(&text).expect("slo block is optional");
    }

    #[test]
    fn mode_and_connections_are_rendered_and_enforced() {
        let mut report = sample_report();
        report.open_loop = true;
        report.connections = 2048;
        report.clients = 2048;
        let doc = serve_artefact(&LoadgenConfig::default(), &report);
        let config = doc.get("config").expect("config block");
        assert_eq!(config.get("mode").and_then(Json::as_str), Some("open_loop"));
        assert_eq!(config.get("connections").and_then(Json::as_f64), Some(2048.0));
        validate_serve_artefact(&doc.render()).expect("valid open-loop artefact");

        let text = doc.render().replace("open_loop", "half_open");
        let err = validate_serve_artefact(&text).expect_err("bad mode");
        assert!(err.contains("config.mode"), "{err}");

        let text = doc.render().replace("\"connections\":2048", "\"connections\":0");
        let err = validate_serve_artefact(&text).expect_err("zero connections");
        assert!(err.contains("connections"), "{err}");

        // Legacy artefacts without the mode key still validate.
        let text = serve_artefact(&LoadgenConfig::default(), &sample_report())
            .render()
            .replace("\"mode\":\"closed_loop\",", "")
            .replace("\"connections\":4,", "");
        validate_serve_artefact(&text).expect("legacy artefact stays valid");
    }

    #[test]
    fn fleet_attribution_block_is_rendered_and_enforced() {
        use crate::loadgen::ShardAttribution;
        let mut report = sample_report();
        report.shards = Some(3);
        report.per_shard = vec![
            ShardAttribution {
                addr: "127.0.0.1:7001".into(),
                reachable: true,
                requests: 120,
                cache_hits: 90,
                cache_misses: 30,
                cache_hit_rate: 0.75,
            },
            ShardAttribution {
                addr: "127.0.0.1:7002".into(),
                reachable: false,
                requests: 0,
                cache_hits: 0,
                cache_misses: 0,
                cache_hit_rate: 0.0,
            },
        ];
        let doc = serve_artefact(&LoadgenConfig::default(), &report);
        assert_eq!(
            doc.get("fleet").and_then(|f| f.get("shards")).and_then(Json::as_f64),
            Some(3.0)
        );
        validate_serve_artefact(&doc.render()).expect("valid fleet artefact");

        // A fudged per-shard hit rate is caught.
        let mut bad = report.clone();
        bad.per_shard[0].cache_hit_rate = 0.5;
        let err =
            validate_serve_artefact(&serve_artefact(&LoadgenConfig::default(), &bad).render())
                .expect_err("per-shard hit rate mismatch");
        assert!(err.contains("per_shard[0]"), "{err}");

        // An unreachable shard with non-zero counters is a contradiction.
        let mut bad = report.clone();
        bad.per_shard[1].requests = 5;
        let err =
            validate_serve_artefact(&serve_artefact(&LoadgenConfig::default(), &bad).render())
                .expect_err("unreachable with traffic");
        assert!(err.contains("unreachable"), "{err}");

        // Non-fleet reports render no fleet block at all.
        let text = serve_artefact(&LoadgenConfig::default(), &sample_report()).render();
        assert!(!text.contains("\"fleet\""));
    }
}
