//! Enforcing test for the `rvhpc-fleet-bench-v1` artefact.
//!
//! `FLEET_BENCH.json` is the record of the fleet scaling experiment
//! (3 shards, seeded loadgen, one shard killed and recovered); ci.sh
//! regenerates it with `repro fleet-bench --json FLEET_BENCH.json` and
//! runs this test again on the fresh file. This test re-validates it
//! against the schema validator and then enforces the acceptance bars:
//! hot disjoint per-shard caches (hit rates no worse than the
//! single-process warm rate, [`WARM_HIT_RATE`]), full bit-identity, and
//! a zero-failed-request shard-kill run.

use rvhpc_fleet::validate_fleet_artefact;
use rvhpc_trace::json::Json;
use std::path::PathBuf;

fn load_text(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must be at the repo root: {e}", name))
}

fn load_artefact(name: &str) -> Json {
    let text = load_text(name);
    Json::parse(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"))
}

/// The single-process warm estimate-cache hit rate: every lookup of a
/// repeated sweep is a hit, as the benchmark's `sweep_warm` workload
/// reports in `perfmodel.cache.hit_rate`.
const WARM_HIT_RATE: f64 = 1.0;

fn f(doc: &Json, path: &[&str]) -> f64 {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing field `{}`", path.join(".")));
    }
    cur.as_f64().unwrap_or_else(|| panic!("field `{}` is not a number", path.join(".")))
}

fn b(doc: &Json, path: &[&str]) -> bool {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing field `{}`", path.join(".")));
    }
    match cur {
        Json::Bool(v) => *v,
        other => panic!("field `{}` is not a boolean: {other:?}", path.join(".")),
    }
}

#[test]
fn checked_in_fleet_bench_artefact_meets_the_acceptance_bars() {
    let text = load_text("FLEET_BENCH.json");
    validate_fleet_artefact(&text)
        .expect("FLEET_BENCH.json validates against rvhpc-fleet-bench-v1");
    let doc = Json::parse(&text).expect("FLEET_BENCH.json parses");

    // The experiment must have run at a real fleet size.
    let shards = f(&doc, &["config", "shards"]);
    assert!(shards >= 3.0, "fleet-bench must run with at least 3 shards, got {shards}");

    // Warm phase primes every shard's cache: all requests succeed.
    assert_eq!(f(&doc, &["warm", "ok"]), f(&doc, &["warm", "requests"]));
    assert!(f(&doc, &["warm", "requests"]) > 0.0);

    // Measured phase: every request ok, no protocol errors, and every
    // reply bit-identical to the local model.
    let measured = doc.get("measured").expect("measured block");
    assert_eq!(f(measured, &["sent"]), f(measured, &["ok"]), "measured requests must all succeed");
    assert_eq!(f(measured, &["protocol_errors"]), 0.0);
    assert!(b(measured, &["verified_bit_identical"]), "measured phase must be bit-identical");

    // The whole point of consistent hashing: per-shard caches stay hot.
    let bar = WARM_HIT_RATE;
    let aggregate = f(measured, &["cache", "hit_rate"]);
    assert!(aggregate >= bar, "aggregate measured hit rate {aggregate} below the warm rate {bar}");
    let Some(Json::Arr(per_shard)) = measured.get("per_shard") else {
        panic!("measured.per_shard missing");
    };
    assert_eq!(per_shard.len(), shards as usize);
    for (i, shard) in per_shard.iter().enumerate() {
        assert!(b(shard, &["reachable"]), "measured shard {i} unreachable");
        assert!(f(shard, &["requests"]) > 0.0, "measured shard {i} saw no traffic");
        let rate = f(shard, &["cache", "hit_rate"]);
        assert!(rate >= bar, "shard {i} hit rate {rate} below the warm rate {bar}");
    }

    // Routing spreads the keyspace: every shard owns part of it.
    let Some(Json::Arr(distribution)) = doc.get("routing").and_then(|r| r.get("distribution"))
    else {
        panic!("routing.distribution missing");
    };
    assert_eq!(distribution.len(), shards as usize);
    for (i, n) in distribution.iter().enumerate() {
        assert!(n.as_f64().unwrap_or(0.0) > 0.0, "shard {i} owns no keys");
    }

    // Failover: the shard kill costs zero requests, replies stay
    // bit-identical, and the router observed both the death and the
    // recovery.
    let failover = doc.get("failover").expect("failover block");
    assert_eq!(f(failover, &["failed"]), 0.0, "shard kill must not fail any request");
    assert_eq!(f(failover, &["run", "sent"]), f(failover, &["run", "ok"]));
    assert!(b(failover, &["run", "verified_bit_identical"]), "failover replies diverged");
    assert!(f(failover, &["mark_downs"]) >= 1.0, "the kill was never observed");
    assert!(b(failover, &["recovered"]), "the killed shard never rejoined");

    // The cluster experiment rode through the same fleet, and the
    // served curves matched the direct library computation bit-for-bit.
    assert!(b(&doc, &["cluster", "served_matches_library"]));
    for mode in ["weak", "strong"] {
        let Some(Json::Arr(points)) = doc.get("cluster").and_then(|c| c.get(mode)) else {
            panic!("cluster.{mode} missing");
        };
        assert!(points.len() >= 3, "cluster.{mode} needs a real node ladder");
    }
}

#[test]
fn artefact_validator_is_actually_load_bearing() {
    // Corrupt the artefact in a few ways the validator must
    // catch, so a regressed validator cannot silently admit bad runs.
    let text = load_artefact("FLEET_BENCH.json").render();

    let tampered = text.replacen("rvhpc-fleet-bench-v1", "rvhpc-fleet-bench-v0", 1);
    let err = validate_fleet_artefact(&tampered).expect_err("wrong schema must be rejected");
    assert!(err.contains("schema"), "{err}");

    let tampered = text.replacen("\"recovered\":true", "\"recovered\":42", 1);
    assert_ne!(tampered, text, "fixture drift: recovered flag not found");
    validate_fleet_artefact(&tampered).expect_err("non-boolean recovered flag must be rejected");
}
