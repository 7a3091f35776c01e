//! rvhpc-fleet: a consistent-hash sharded serving fleet for `rvhpc-serve`.
//!
//! The fleet front-ends N independent `rvhpc-serve` shard processes with a
//! single line-delimited JSON endpoint speaking the exact same protocol.
//! Estimate-shaped requests are routed by a consistent-hash ring over the
//! estimate cache key (machine / kernel / canonical config), so each
//! shard's cache stays hot and disjoint; fleet-wide `stats`, `metrics`
//! and `slow_requests` are aggregated across shards into a single
//! document that still validates against the `rvhpc-metrics-v1` schema.
//!
//! Failure handling: the router's forwarding workers mark a shard down
//! the moment a forward fails and reroute to the ring successor (the reply bits are
//! the shard's reply verbatim, so bit-identity is preserved across the
//! reroute); a background prober revives shards after a cooldown.
//! `overloaded` replies are retried with bounded, deterministic jitter
//! before falling through to the successor.
//!
//! The [`fleetbench`] module drives the whole stack end to end — spawn
//! shards, warm their disjoint cache partitions, measure routing and
//! hit-rate distribution, SIGKILL a shard mid-run and verify zero failed
//! requests and zero bit divergence — and lands the result as a
//! versioned `rvhpc-fleet-bench-v1` artefact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleetbench;
pub mod health;
pub mod merge;
pub mod proc;
pub mod ring;
pub mod router;

pub use fleetbench::{
    fleet_artefact, run_fleet_bench, validate_fleet_artefact, FleetBenchConfig, FleetBenchReport,
    FLEET_SCHEMA,
};
pub use health::FleetState;
pub use merge::{merge_metrics, merge_slow, merge_stats};
pub use proc::{spawn_shard, ShardProc};
pub use ring::{ConsistentRing, VNODES_PER_SHARD};
pub use router::{routing_key, Router, RouterConfig};
