//! `rvhpc-serve` — a batched, backpressured query server over the
//! performance model, plus the load-generator harness that benchmarks it.
//!
//! The ROADMAP's north star is a system that answers *streams* of queries,
//! not a one-shot CLI. This crate is that serving layer, shaped like a
//! miniature inference stack:
//!
//! * **Transport** — a zero-dependency TCP server speaking line-delimited
//!   JSON (the workspace's own [`rvhpc_trace::json::Json`]); one request
//!   per line, one response per line, correlated by an echoed `id` field
//!   ([`protocol`]). Every connection lives on one epoll event loop that
//!   hands each framed line to a [`LineHandler`], so serving
//!   is Linux-only (see [`server`] for the thread shape). The fleet
//!   router runs the same reactor, with its forwards on a fixed
//!   [`Workers`] set.
//! * **Admission control** — a bounded queue in front of the model. When it
//!   is full the server answers immediately with an `overloaded` error and
//!   a `retry_after_ms` hint instead of queueing unboundedly or dropping
//!   the connection (the 429 pattern).
//! * **Batching** — a dedicated batcher thread coalesces estimate requests
//!   that arrive within a small window and hands them, as they came, to
//!   [`rvhpc_perfmodel::estimate_batch`]: the cached ones are answered
//!   under one cache lock and each distinct canonical miss is estimated
//!   once, on the batcher thread, so concurrent clients share the estimate
//!   cache.
//! * **Deadlines** — a request may carry `deadline_ms`; work whose deadline
//!   has already passed when its batch is assembled is answered with
//!   `deadline_exceeded` and never computed (admission-time cancellation).
//! * **Graceful drain** — a `shutdown` request (or SIGTERM, see
//!   [`signal`]) stops the listener, lets every admitted request finish,
//!   answers late arrivals with `shutting_down`, and then exits cleanly.
//! * **Observability** — always-on atomic counters surfaced by the `stats`
//!   op; five per-request stage histograms, queue-depth and in-flight
//!   gauges and the SLO tracker in the `rvhpc-obs` registry (the `metrics`
//!   op); per-batch and per-request `rvhpc-trace` spans when tracing is
//!   enabled.
//!
//! The companion [`loadgen`] module drives a server over real sockets from
//! N closed-loop clients, verifies every answer bit-identically against a
//! local [`rvhpc_perfmodel::estimate_cached`] call, and emits the
//! `rvhpc-serve-bench-v1` artefact ([`bench`](mod@bench)) so serving latency joins the
//! repository's benchmark trajectory.

#![deny(unsafe_code)] // except the SIGTERM shim in `signal` and the epoll shim in `epoll`
#![warn(missing_docs)]

pub mod bench;
pub(crate) mod conn;
#[cfg(target_os = "linux")]
pub(crate) mod epoll;
pub(crate) mod frame;
pub mod loadgen;
#[cfg(target_os = "linux")]
pub(crate) mod openloop;
pub mod protocol;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod server;
pub mod signal;
pub mod submit;
pub(crate) mod workers;

pub use conn::{spawn_reactor, ConnEvent, ConnPolicy, ConnWriter, LineHandler};
pub use frame::{Frame, LineConn};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use protocol::{ErrorKind, Request, MAX_LINE_BYTES, MAX_REPLY_BYTES};
pub use server::{BatcherPause, ServeConfig, Server, ServerStats};
pub use submit::{admit_kernel, KernelArtifact, Rejection, DEFAULT_MAX_FUEL, MAX_SUBMIT_INSTS};
pub use workers::Workers;
