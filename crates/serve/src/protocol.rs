//! The line-delimited JSON request/response protocol.
//!
//! Every request is one JSON object on one line. The only required field is
//! `op`; `id` (any JSON value) is echoed verbatim on the response so
//! clients can pipeline and correlate. Unknown fields are rejected — a
//! typo'd knob silently ignored would make a what-if query lie.
//!
//! ```text
//! {"id":1,"op":"estimate","machine":"sg2042","kernel":"Stream_TRIAD",
//!  "precision":"fp32","threads":32}
//! {"id":1,"ok":true,"op":"estimate","result":{"seconds":...,...}}
//! ```
//!
//! Responses are `{"id":...,"ok":true,"op":...,"result":{...}}` or
//! `{"id":...,"ok":false,"error":{"kind":...,"message":...}}`. Error kinds
//! are closed: `bad_request` (malformed line or unknown field/op/operand),
//! `overloaded` (admission queue full; carries `retry_after_ms`),
//! `deadline_exceeded` (the request's `deadline_ms` budget expired before
//! its batch ran), `shutting_down` (arrived after a drain began) and
//! `internal` (the server reached a state it should never be in; the
//! request was not served, the connection stays up).

use rvhpc_cluster::{NetworkKind, ScalingMode};
use rvhpc_compiler::VectorMode;
use rvhpc_kernels::{KernelClass, KernelName};
use rvhpc_machines::{MachineId, PlacementPolicy};
use rvhpc_perfmodel::{Precision, RunConfig, TimeEstimate};
use rvhpc_trace::json::{read_members, Json, JsonRef, JsonWriter};
use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

/// Hard cap on one request line; longer lines are answered with
/// `bad_request` rather than buffered without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Hard cap on one reply line a client reads. [`MAX_LINE_BYTES`] does not
/// bound replies: each echoes its request's `id`, and a rejected
/// `submit_kernel` lists every finding. The largest reply found is such a
/// rejection: a 64 KiB request of 3 442 `vfadd.vv` after a v0.7.1
/// `vsetvli x0,x0,e64,m8` draws 27 537 findings in 3.4 MB (next come
/// `slow_requests` and Prometheus `metrics` at 15 and 11 KB). The cap
/// leaves almost five times that; a longer reply is discarded as it
/// arrives and reported to the client as an error.
pub const MAX_REPLY_BYTES: usize = 16 * 1024 * 1024;

/// A line one byte over [`MAX_LINE_BYTES`]. A framer discards an
/// oversized line's bytes as they arrive, so a server hands this stand-in
/// to [`parse_request`] to give the same `bad_request` reply, count and
/// obs stages as for any too-long line (the message names only the limit,
/// never the offending length).
pub fn oversized_line() -> &'static str {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| "x".repeat(MAX_LINE_BYTES + 1))
}

/// `slow_requests` exemplars returned when the client sets no `limit`.
pub const DEFAULT_SLOW_LIMIT: usize = 16;

/// Largest node count a `cluster` request may ask for. The scaling model
/// is closed-form, but an absurd count is a config typo, not a cluster.
pub const MAX_CLUSTER_NODES: u32 = 65_536;

/// Most points one `cluster` request may evaluate, bounding inline work.
pub const MAX_CLUSTER_POINTS: usize = 32;

/// Node counts used when a `cluster` request sets no `nodes` list: the
/// power-of-four ladder the `rvhpc-cluster` test suite sweeps.
pub const DEFAULT_CLUSTER_NODES: [u32; 5] = [1, 2, 4, 16, 64];

/// The error taxonomy of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON, unknown op, unknown field, or an invalid operand.
    BadRequest,
    /// The admission queue is full; retry after the hinted delay.
    Overloaded,
    /// The request's deadline passed before it was executed.
    DeadlineExceeded,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// An invariant failed inside the server; the request was not served.
    Internal,
}

impl ErrorKind {
    /// Wire token of the kind.
    pub fn token(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A parsed, validated request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Estimate one `(machine, kernel, config)` triple (batched path).
    Estimate {
        /// Catalog machine.
        machine: MachineId,
        /// Kernel to estimate.
        kernel: KernelName,
        /// Full run configuration (defaults + overrides applied).
        cfg: RunConfig,
        /// Latency budget in milliseconds, if the client set one.
        deadline_ms: Option<u64>,
    },
    /// Component breakdown of one estimate (answered inline).
    Explain {
        /// Catalog machine.
        machine: MachineId,
        /// Kernel to explain.
        kernel: KernelName,
        /// Full run configuration.
        cfg: RunConfig,
    },
    /// One pass over the 64-kernel suite, optionally sliced to a class
    /// (answered inline; estimates still share the process-wide cache).
    Suite {
        /// Catalog machine.
        machine: MachineId,
        /// Full run configuration.
        cfg: RunConfig,
        /// Restrict to one kernel class, if set.
        class: Option<KernelClass>,
    },
    /// Run an admitted kernel artifact (`kernel` was a `k:` id). Answered
    /// inline; execution is deterministic, so replies are bit-identical.
    EstimateKernel {
        /// Content-hash artifact id (`k:<fnv64hex>`).
        id: String,
    },
    /// The stored `rvhpc-analysis-v1` report of an admitted kernel
    /// (`kernel` was a `k:` id).
    ExplainKernel {
        /// Content-hash artifact id (`k:<fnv64hex>`).
        id: String,
    },
    /// Estimate a catalog kernel on a *submitted* machine (`machine` was
    /// an `m:` id). Answered inline and never cached: submitted
    /// descriptors share no cache key space with the catalog.
    EstimateSubmitted {
        /// Content-hash machine id (`m:<fnv64hex>`).
        machine_ref: String,
        /// Kernel to estimate.
        kernel: KernelName,
        /// Full run configuration (RISC-V defaults + overrides).
        cfg: RunConfig,
    },
    /// Component breakdown on a submitted machine (`machine` was `m:`).
    ExplainSubmitted {
        /// Content-hash machine id (`m:<fnv64hex>`).
        machine_ref: String,
        /// Kernel to explain.
        kernel: KernelName,
        /// Full run configuration.
        cfg: RunConfig,
    },
    /// Submit RVV assembly through the lint-gated admission pipeline.
    SubmitKernel {
        /// The assembly text.
        asm: String,
        /// Raw `env` JSON (calling convention), if the client sent one.
        env: Option<String>,
    },
    /// Submit a machine descriptor (`rvhpc-machine-v1` JSON) through the
    /// descriptor lint; accepted machines become `m:` artifacts.
    SubmitMachine {
        /// The descriptor document, re-rendered to canonical text
        /// (recursively sorted keys) so the `m:` content hash is
        /// independent of client key order.
        descriptor: String,
    },
    /// Lint a machine descriptor: a catalog entry plus optional what-if
    /// overrides, checked by `rvhpc-analyze`'s descriptor lint.
    LintMachine {
        /// Base catalog machine the overrides are applied to.
        machine: MachineId,
        /// What-if clock override (GHz).
        clock_ghz: Option<f64>,
        /// What-if memory-controller-count override.
        memory_controllers: Option<usize>,
        /// What-if per-controller bandwidth override (GB/s).
        bw_per_controller_gbs: Option<f64>,
    },
    /// Project a weak/strong cluster scaling curve over a Hockney α–β
    /// interconnect preset (answered inline; the projection is pure f64,
    /// so replies are bit-identical to the library call).
    Cluster {
        /// Per-node machine.
        machine: MachineId,
        /// Kernel to scale.
        kernel: KernelName,
        /// Interconnect preset (matched by display label).
        network: NetworkKind,
        /// Weak (constant per-node work) or strong (constant global work).
        mode: ScalingMode,
        /// Element precision.
        precision: Precision,
        /// Strictly increasing node counts to evaluate.
        nodes: Vec<u32>,
    },
    /// Server + estimate-cache statistics snapshot.
    Stats,
    /// Live observability document: every `serve.*` stage histogram,
    /// window rates, gauges and SLO burn (answered inline).
    Metrics {
        /// `true` renders Prometheus-style text instead of the
        /// `rvhpc-metrics-v1` JSON document.
        prometheus: bool,
    },
    /// The tail-sampled SLO-breaching requests with per-stage breakdowns.
    SlowRequests {
        /// Most recent exemplars to return.
        limit: usize,
    },
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain.
    Shutdown,
}

impl Request {
    /// The op token (mirrors the request's `op` field).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Estimate { .. }
            | Request::EstimateKernel { .. }
            | Request::EstimateSubmitted { .. } => "estimate",
            Request::Explain { .. }
            | Request::ExplainKernel { .. }
            | Request::ExplainSubmitted { .. } => "explain",
            Request::Suite { .. } => "suite",
            Request::SubmitKernel { .. } => "submit_kernel",
            Request::SubmitMachine { .. } => "submit_machine",
            Request::LintMachine { .. } => "lint_machine",
            Request::Cluster { .. } => "cluster",
            Request::Stats => "stats",
            Request::Metrics { .. } => "metrics",
            Request::SlowRequests { .. } => "slow_requests",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Declares [`Field`] from one list of variants and their wire keys.
macro_rules! fields {
    ($( $variant:ident = $key:literal ),+ $(,)?) => {
        /// Every field a request line may carry, across all ops.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Field {
            $( $variant, )+
        }

        impl Field {
            const ALL: [Field; [$( $key ),+].len()] = [$( Field::$variant ),+];

            /// The field's key on the wire.
            fn name(self) -> &'static str {
                match self {
                    $( Field::$variant => $key, )+
                }
            }

            fn from_name(key: &str) -> Option<Field> {
                match key {
                    $( $key => Some(Field::$variant), )+
                    _ => None,
                }
            }
        }
    };
}

fields! {
    Id = "id",
    Op = "op",
    Machine = "machine",
    Kernel = "kernel",
    Precision = "precision",
    Threads = "threads",
    Vectorize = "vectorize",
    Mode = "mode",
    Placement = "placement",
    DeadlineMs = "deadline_ms",
    Class = "class",
    ClockGhz = "clock_ghz",
    MemoryControllers = "memory_controllers",
    BwPerControllerGbs = "bw_per_controller_gbs",
    Network = "network",
    Nodes = "nodes",
    Asm = "asm",
    Env = "env",
    Descriptor = "descriptor",
    Format = "format",
    Limit = "limit",
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Fields every op understands; used to reject unknown keys per op.
const COMMON_FIELDS: [Field; 2] = [Field::Id, Field::Op];

fn allowed_fields(op: &str) -> &'static [Field] {
    use Field::*;
    match op {
        "estimate" => {
            &[Machine, Kernel, Precision, Threads, Vectorize, Mode, Placement, DeadlineMs]
        }
        "explain" => &[Machine, Kernel, Precision, Threads, Vectorize, Mode, Placement],
        "suite" => &[Machine, Precision, Threads, Vectorize, Mode, Placement, Class],
        "lint_machine" => &[Machine, ClockGhz, MemoryControllers, BwPerControllerGbs],
        "cluster" => &[Machine, Kernel, Network, Mode, Precision, Nodes],
        "submit_kernel" => &[Asm, Env],
        "submit_machine" => &[Descriptor],
        "metrics" => &[Format],
        "slow_requests" => &[Limit],
        _ => &[],
    }
}

/// A request line's top-level members, read in place in one pass: the
/// first value of each known field and the first key that names none, each
/// with its place in the line. No tree is built, and a nested value stays
/// a span of the line until a request needs it whole.
struct Fields<'a> {
    first: [Option<(usize, JsonRef<'a>)>; Field::ALL.len()],
    stray: Option<(usize, Cow<'a, str>)>,
}

impl<'a> Fields<'a> {
    fn new() -> Self {
        Fields { first: [const { None }; Field::ALL.len()], stray: None }
    }

    /// Read `line`'s members. `Ok(false)`: valid JSON but not an object.
    fn read(&mut self, line: &'a str) -> Result<bool, String> {
        let mut at = 0;
        read_members(line, |key, value| {
            match Field::from_name(&key) {
                Some(field) => {
                    self.first[field as usize].get_or_insert((at, value));
                }
                None => {
                    self.stray.get_or_insert((at, key));
                }
            }
            at += 1;
        })
    }

    /// The first value of `field`; a later duplicate never overrides it.
    fn get(&self, field: Field) -> Option<&JsonRef<'a>> {
        self.first[field as usize].as_ref().map(|(_, v)| v)
    }

    /// The key of the first member, in line order, that `op` does not
    /// accept.
    fn first_unknown(&self, op: &str) -> Option<&str> {
        let allowed = allowed_fields(op);
        let stray = self.stray.as_ref().map(|(at, key)| (*at, &**key));
        Field::ALL
            .into_iter()
            .filter(|f| !COMMON_FIELDS.contains(f) && !allowed.contains(f))
            .filter_map(|f| self.first[f as usize].as_ref().map(|(at, _)| (*at, f.name())))
            .chain(stray)
            .min_by_key(|&(at, _)| at)
            .map(|(_, key)| key)
    }
}

/// Parse one request line. `Err` carries the `bad_request` message; the
/// echoed `id` (if the line parsed far enough to have one) is returned in
/// both arms so even a rejected request is answered with its own id.
///
/// The line is read in one pass into borrowed members, so an escape-free
/// estimate line allocates nothing. A syntax error anywhere in the line
/// still beats every field rule: no rule runs before the whole line has
/// been read.
pub fn parse_request(line: &str) -> (Json, Result<Request, String>) {
    if line.len() > MAX_LINE_BYTES {
        return (Json::Null, Err(format!("request line exceeds {MAX_LINE_BYTES} bytes")));
    }
    let mut doc = Fields::new();
    match doc.read(line) {
        Ok(true) => {}
        Ok(false) => return (Json::Null, Err("request must be a JSON object".to_string())),
        Err(e) => return (Json::Null, Err(format!("not valid JSON: {e}"))),
    }
    let id = doc.get(Field::Id).map_or(Json::Null, JsonRef::to_json);
    let Some(op) = doc.get(Field::Op).and_then(JsonRef::as_str) else {
        return (id, Err("missing string field `op`".to_string()));
    };
    if let Some(key) = doc.first_unknown(op) {
        return (id, Err(format!("unknown field `{key}` for op `{op}`")));
    }
    let parsed = match op {
        "estimate" => match artifact_route(&doc) {
            Some(ArtifactRoute::Kernel(id)) => {
                kernel_artifact_fields_ok(&doc).map(|()| Request::EstimateKernel { id })
            }
            Some(ArtifactRoute::Machine(machine_ref)) => submitted_kernel_cfg(&doc)
                .map(|(kernel, cfg)| Request::EstimateSubmitted { machine_ref, kernel, cfg }),
            None => machine_kernel_cfg(&doc).and_then(|(machine, kernel, cfg)| {
                let deadline_ms = match doc.get(Field::DeadlineMs) {
                    None => None,
                    Some(v) => Some(parse_count(v.as_f64(), v, "deadline_ms")?),
                };
                Ok(Request::Estimate { machine, kernel, cfg, deadline_ms })
            }),
        },
        "explain" => match artifact_route(&doc) {
            Some(ArtifactRoute::Kernel(id)) => {
                kernel_artifact_fields_ok(&doc).map(|()| Request::ExplainKernel { id })
            }
            Some(ArtifactRoute::Machine(machine_ref)) => submitted_kernel_cfg(&doc)
                .map(|(kernel, cfg)| Request::ExplainSubmitted { machine_ref, kernel, cfg }),
            None => machine_kernel_cfg(&doc).map(|(machine, kernel, cfg)| Request::Explain {
                machine,
                kernel,
                cfg,
            }),
        },
        "suite" => machine_cfg(&doc).and_then(|(machine, cfg)| {
            let class = match doc.get(Field::Class).map(|v| (v, v.as_str())) {
                None => None,
                Some((_, Some(label))) => Some(parse_class(label)?),
                Some((v, None)) => return Err(format!("`class` must be a string, got {v:?}")),
            };
            Ok(Request::Suite { machine, cfg, class })
        }),
        "submit_kernel" => {
            let Some(asm) = doc.get(Field::Asm).and_then(JsonRef::as_str) else {
                return (id, Err("missing string field `asm`".to_string()));
            };
            let env = match doc.get(Field::Env) {
                None | Some(JsonRef::Null) => None,
                // Re-render with sorted keys: the env parser owns
                // validation, and the canonical text feeds the content
                // hash so key order cannot split identical envs into
                // distinct `k:` ids.
                Some(v @ JsonRef::Obj(_)) => Some(v.to_json().canonical().render()),
                Some(v) => return (id, Err(format!("`env` must be an object, got {v:?}"))),
            };
            Ok(Request::SubmitKernel { asm: asm.to_string(), env })
        }
        "submit_machine" => match doc.get(Field::Descriptor) {
            // Sorted-key re-render: the rendered text is the content hash
            // input, so two semantically identical descriptors get the
            // same `m:` id regardless of client key order.
            Some(v @ JsonRef::Obj(_)) => {
                Ok(Request::SubmitMachine { descriptor: v.to_json().canonical().render() })
            }
            Some(v) => Err(format!("`descriptor` must be an object, got {v:?}")),
            None => Err("missing object field `descriptor`".to_string()),
        },
        "lint_machine" => parse_machine(&doc).and_then(|machine| {
            Ok(Request::LintMachine {
                machine,
                clock_ghz: parse_opt_pos_f64(&doc, Field::ClockGhz)?,
                memory_controllers: match doc.get(Field::MemoryControllers) {
                    None => None,
                    Some(v) => Some(parse_count(v.as_f64(), v, "memory_controllers")? as usize),
                },
                bw_per_controller_gbs: parse_opt_pos_f64(&doc, Field::BwPerControllerGbs)?,
            })
        }),
        "cluster" => parse_cluster(&doc),
        "stats" => Ok(Request::Stats),
        "metrics" => match doc.get(Field::Format).map(|v| (v, v.as_str())) {
            None | Some((_, Some("json"))) => Ok(Request::Metrics { prometheus: false }),
            Some((_, Some("prometheus"))) => Ok(Request::Metrics { prometheus: true }),
            Some((v, _)) => Err(format!("`format` must be \"json\" or \"prometheus\", got {v:?}")),
        },
        "slow_requests" => match doc.get(Field::Limit) {
            None => Ok(Request::SlowRequests { limit: DEFAULT_SLOW_LIMIT }),
            Some(v) => parse_count(v.as_f64(), v, "limit").and_then(|n| {
                if n == 0 {
                    Err("`limit` must be >= 1".to_string())
                } else {
                    Ok(Request::SlowRequests { limit: n as usize })
                }
            }),
        },
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op `{other}` (known: estimate, explain, suite, submit_kernel, \
             submit_machine, lint_machine, cluster, stats, metrics, slow_requests, \
             ping, shutdown)"
        )),
    };
    (id, parsed)
}

/// How an `estimate`/`explain` request addresses submitted artifacts.
enum ArtifactRoute {
    /// `kernel` is a `k:` content-hash id: run the admitted kernel.
    Kernel(String),
    /// `machine` is an `m:` content-hash id: use the submitted machine.
    Machine(String),
}

/// Detect artifact-id routing: a `k:`-prefixed `kernel` or an
/// `m:`-prefixed `machine`. `k:` wins — a kernel artifact carries its own
/// execution environment, so a machine reference would be meaningless.
fn artifact_route(doc: &Fields<'_>) -> Option<ArtifactRoute> {
    if let Some(kid) = doc.get(Field::Kernel).and_then(JsonRef::as_str) {
        if kid.starts_with("k:") {
            return Some(ArtifactRoute::Kernel(kid.to_string()));
        }
    }
    if let Some(mid) = doc.get(Field::Machine).and_then(JsonRef::as_str) {
        if mid.starts_with("m:") {
            return Some(ArtifactRoute::Machine(mid.to_string()));
        }
    }
    None
}

/// A `k:` artifact request names its whole execution (program + env +
/// fuel), so model knobs would be silently meaningless — reject them.
/// `deadline_ms` too: artifact runs are answered inline, never through the
/// deadline-checked batch queue, so accepting it would silently drop it.
fn kernel_artifact_fields_ok(doc: &Fields<'_>) -> Result<(), String> {
    for field in [
        Field::Machine,
        Field::Precision,
        Field::Threads,
        Field::Vectorize,
        Field::Mode,
        Field::Placement,
        Field::DeadlineMs,
    ] {
        if doc.get(field).is_some() {
            return Err(format!(
                "`{field}` does not apply to a kernel artifact: a `k:` id fixes the \
                 program, environment and fuel at admission"
            ));
        }
    }
    Ok(())
}

/// Kernel + run configuration for a submitted (`m:`) machine. Submitted
/// descriptors are RVV machines by construction, so the RISC-V paper-best
/// defaults apply.
fn submitted_kernel_cfg(doc: &Fields<'_>) -> Result<(KernelName, RunConfig), String> {
    let Some(label) = doc.get(Field::Kernel).and_then(JsonRef::as_str) else {
        return Err("missing string field `kernel`".to_string());
    };
    let kernel = KernelName::from_label(label)
        .ok_or_else(|| format!("unknown kernel `{label}`; labels are e.g. Basic_DAXPY"))?;
    Ok((kernel, cfg_from(doc, true)?))
}

/// Lint-style validation of a `cluster` request: every operand is checked
/// up front and the first problem is reported precisely, mirroring the
/// descriptor lint — a silently-coerced node list would make the scaling
/// curve lie.
fn parse_cluster(doc: &Fields<'_>) -> Result<Request, String> {
    let machine = parse_machine(doc)?;
    let Some(label) = doc.get(Field::Kernel).and_then(JsonRef::as_str) else {
        return Err("missing string field `kernel`".to_string());
    };
    let kernel = KernelName::from_label(label)
        .ok_or_else(|| format!("unknown kernel `{label}`; labels are e.g. Basic_DAXPY"))?;
    let network = match doc.get(Field::Network).map(|v| (v, v.as_str())) {
        Some((_, Some(name))) => NetworkKind::from_label(name).ok_or_else(|| {
            let known: Vec<&str> = NetworkKind::ALL.iter().map(|k| k.label()).collect();
            format!("unknown network `{name}`; known: {}", known.join(", "))
        })?,
        Some((v, None)) => return Err(format!("`network` must be a string, got {v:?}")),
        None => return Err("missing string field `network`".to_string()),
    };
    let mode = match doc.get(Field::Mode).map(|v| (v, v.as_str())) {
        Some((_, Some(token))) => ScalingMode::from_token(token)
            .ok_or_else(|| format!("`mode` must be \"weak\" or \"strong\", got `{token}`"))?,
        Some((v, None)) => return Err(format!("`mode` must be a string, got {v:?}")),
        None => return Err("missing string field `mode`".to_string()),
    };
    let precision = match doc.get(Field::Precision).map(|v| (v, v.as_str())) {
        None | Some((_, Some("fp64"))) => Precision::Fp64,
        Some((_, Some("fp32"))) => Precision::Fp32,
        Some((v, _)) => return Err(format!("`precision` must be \"fp32\" or \"fp64\", got {v:?}")),
    };
    let nodes = match doc.get(Field::Nodes).map(JsonRef::to_json) {
        None => DEFAULT_CLUSTER_NODES.to_vec(),
        Some(Json::Arr(items)) => {
            if items.is_empty() {
                return Err("`nodes` must not be empty".to_string());
            }
            if items.len() > MAX_CLUSTER_POINTS {
                return Err(format!("`nodes` capped at {MAX_CLUSTER_POINTS} points"));
            }
            let mut out = Vec::with_capacity(items.len());
            for v in &items {
                let n = parse_count(v.as_f64(), v, "nodes")?;
                if n == 0 || n > u64::from(MAX_CLUSTER_NODES) {
                    return Err(format!("`nodes` entries must be in 1..={MAX_CLUSTER_NODES}"));
                }
                if out.last().is_some_and(|&prev| n as u32 <= prev) {
                    return Err("`nodes` must be strictly increasing".to_string());
                }
                out.push(n as u32);
            }
            out
        }
        Some(v) => return Err(format!("`nodes` must be an array of integers, got {v:?}")),
    };
    Ok(Request::Cluster { machine, kernel, network, mode, precision, nodes })
}

fn parse_machine(doc: &Fields<'_>) -> Result<MachineId, String> {
    let Some(tok) = doc.get(Field::Machine).and_then(JsonRef::as_str) else {
        return Err("missing string field `machine`".to_string());
    };
    // Tokens fold with `to_lowercase`, which maps some non-ASCII letters
    // (U+212A KELVIN SIGN to `k`) into ASCII; an ASCII token, the usual
    // case, folds the same without building a string.
    let machine = if tok.is_ascii() {
        MachineId::CATALOG.into_iter().find(|m| m.token().eq_ignore_ascii_case(tok))
    } else {
        MachineId::from_token(&tok.to_lowercase())
    };
    machine.ok_or_else(|| format!("unknown machine `{tok}`; known: {}", machine_tokens()))
}

/// Every machine token the server accepts (catalog + what-if).
pub fn machine_tokens() -> String {
    MachineId::CATALOG.map(MachineId::token).join(", ")
}

fn parse_class(label: &str) -> Result<KernelClass, String> {
    KernelClass::ALL.into_iter().find(|c| c.label().eq_ignore_ascii_case(label)).ok_or_else(|| {
        let known: Vec<&str> = KernelClass::ALL.iter().map(|c| c.label()).collect();
        format!("unknown class `{label}`; known: {}", known.join(", "))
    })
}

/// `n`, the number value `v` holds if any, as a count: a non-negative
/// integer below 1e15.
fn parse_count(n: Option<f64>, v: &impl fmt::Debug, field: &str) -> Result<u64, String> {
    match n {
        Some(n) if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n < 1e15 => Ok(n as u64),
        _ => Err(format!("`{field}` must be a non-negative integer, got {v:?}")),
    }
}

fn parse_opt_pos_f64(doc: &Fields<'_>, field: Field) -> Result<Option<f64>, String> {
    match doc.get(field) {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(n) if n.is_finite() && n > 0.0 => Ok(Some(n)),
            _ => Err(format!("`{field}` must be a positive number, got {v:?}")),
        },
    }
}

fn machine_kernel_cfg(doc: &Fields<'_>) -> Result<(MachineId, KernelName, RunConfig), String> {
    let (machine, cfg) = machine_cfg(doc)?;
    let Some(label) = doc.get(Field::Kernel).and_then(JsonRef::as_str) else {
        return Err("missing string field `kernel`".to_string());
    };
    let kernel = KernelName::from_label(label)
        .ok_or_else(|| format!("unknown kernel `{label}`; labels are e.g. Basic_DAXPY"))?;
    Ok((machine, kernel, cfg))
}

/// Build the run configuration for a request: start from the machine's
/// paper-best default (the same rule the `repro explain` CLI applies) and
/// layer the optional `vectorize` / `mode` / `placement` overrides on top.
fn machine_cfg(doc: &Fields<'_>) -> Result<(MachineId, RunConfig), String> {
    let machine = parse_machine(doc)?;
    let cfg = cfg_from(doc, machine.is_riscv())?;
    Ok((machine, cfg))
}

/// The shared precision/threads/vectorize/mode/placement override logic.
fn cfg_from(doc: &Fields<'_>, is_riscv: bool) -> Result<RunConfig, String> {
    let precision = match doc.get(Field::Precision).map(|v| (v, v.as_str())) {
        None => Precision::Fp64,
        Some((_, Some("fp64"))) => Precision::Fp64,
        Some((_, Some("fp32"))) => Precision::Fp32,
        Some((v, _)) => return Err(format!("`precision` must be \"fp32\" or \"fp64\", got {v:?}")),
    };
    let threads = match doc.get(Field::Threads) {
        None => 1,
        Some(v) => match parse_count(v.as_f64(), v, "threads")? {
            0 => return Err("`threads` must be >= 1".to_string()),
            n => n as usize,
        },
    };
    let mut cfg = if is_riscv {
        RunConfig::sg2042_best(precision, threads)
    } else {
        RunConfig::x86(precision, threads)
    };
    match doc.get(Field::Vectorize) {
        None => {}
        Some(JsonRef::Bool(b)) => cfg.vectorize = *b,
        Some(v) => return Err(format!("`vectorize` must be a boolean, got {v:?}")),
    }
    match doc.get(Field::Mode).map(|v| (v, v.as_str())) {
        None => {}
        Some((_, Some("vls"))) => cfg.mode = VectorMode::Vls,
        Some((_, Some("vla"))) => cfg.mode = VectorMode::Vla,
        Some((v, _)) => return Err(format!("`mode` must be \"vls\" or \"vla\", got {v:?}")),
    }
    match doc.get(Field::Placement).map(|v| (v, v.as_str())) {
        None => {}
        Some((v, Some(label))) => {
            cfg.placement = PlacementPolicy::ALL
                .into_iter()
                .find(|p| p.label() == label)
                .ok_or_else(|| format!("unknown placement {v:?}; known: block, cyclic, cluster"))?;
        }
        Some((v, None)) => return Err(format!("`placement` must be a string, got {v:?}")),
    }
    Ok(cfg)
}

/// Render an ok response line (no trailing newline). The envelope streams
/// through one writer; only `result` is a tree.
pub fn ok_response(id: &Json, op: &'static str, result: Json) -> String {
    let mut w = JsonWriter::compact(256);
    w.open_object().key("id");
    id.write(&mut w);
    w.key("ok").bool(true).key("op").string(op).key("result");
    result.write(&mut w);
    w.close_object();
    w.finish()
}

/// Render an error response line (no trailing newline). `retry_after_ms`
/// is attached for [`ErrorKind::Overloaded`] backpressure hints.
pub fn error_response(
    id: &Json,
    kind: ErrorKind,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut w = JsonWriter::compact(128 + message.len());
    w.open_object().key("id");
    id.write(&mut w);
    w.key("ok").bool(false).key("error").open_object();
    w.key("kind").string(kind.token()).key("message").string(message);
    if let Some(ms) = retry_after_ms {
        w.key("retry_after_ms").number(ms as f64);
    }
    w.close_object().close_object();
    w.finish()
}

/// The JSON shape of a [`TimeEstimate`]. Its numbers round-trip bit for
/// bit, which the end-to-end bit-identity tests rely on:
/// [`JsonWriter::number`] prints the shortest digits that read back as
/// the same `f64` (byte for byte what std's `{}` prints, checked by the
/// `json::number` std-identity test in `rvhpc-trace`), and the lexer
/// reads every such text back with its bits (the same module's round-trip
/// test; `-0.0`, which prints as `0`, is the one value that does not).
pub fn estimate_json(est: &TimeEstimate) -> Json {
    Json::obj(vec![
        ("seconds", Json::Num(est.seconds)),
        ("compute_seconds", Json::Num(est.compute_seconds)),
        ("memory_seconds", Json::Num(est.memory_seconds)),
        ("overhead_seconds", Json::Num(est.overhead_seconds)),
        ("vector_path", Json::Bool(est.vector_path)),
    ])
}

/// The JSON shape of a `cluster` result: the request's resolved operands
/// echoed back, plus the curve as rendered by
/// [`rvhpc_cluster::curve_to_json`] (bit-exact round trip).
pub fn cluster_json(
    machine: MachineId,
    kernel: KernelName,
    network: NetworkKind,
    mode: ScalingMode,
    precision: Precision,
    points: &[rvhpc_cluster::ClusterPoint],
) -> Json {
    Json::obj(vec![
        ("machine", Json::str(machine.token())),
        ("kernel", Json::str(kernel.label())),
        ("network", Json::str(network.label())),
        ("mode", Json::str(mode.token())),
        ("precision", Json::str(if precision == Precision::Fp32 { "fp32" } else { "fp64" })),
        ("points", rvhpc_cluster::curve_to_json(points)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn must_parse(line: &str) -> Request {
        let (_, r) = parse_request(line);
        r.unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    fn must_fail(line: &str) -> String {
        let (_, r) = parse_request(line);
        r.expect_err("should be rejected")
    }

    #[test]
    fn estimate_defaults_and_overrides_parse() {
        let r = must_parse(
            r#"{"id":7,"op":"estimate","machine":"sg2042","kernel":"Stream_TRIAD",
               "precision":"fp32","threads":32,"mode":"vla","placement":"block",
               "vectorize":true,"deadline_ms":250}"#,
        );
        let Request::Estimate { machine, kernel, cfg, deadline_ms } = r else {
            panic!("wrong variant");
        };
        assert_eq!(machine, MachineId::Sg2042);
        assert_eq!(kernel, KernelName::STREAM_TRIAD);
        assert_eq!(cfg.threads, 32);
        assert_eq!(cfg.precision, Precision::Fp32);
        assert_eq!(cfg.mode, VectorMode::Vla);
        assert_eq!(cfg.placement, PlacementPolicy::Block);
        assert_eq!(deadline_ms, Some(250));
        // Defaults: fp64, 1 thread, machine-best config.
        let r = must_parse(r#"{"op":"estimate","machine":"amd-rome","kernel":"Basic_DAXPY"}"#);
        let Request::Estimate { cfg, deadline_ms: None, .. } = r else { panic!("wrong variant") };
        assert_eq!(cfg.precision, Precision::Fp64);
        assert_eq!(cfg.threads, 1);
    }

    #[test]
    fn ids_are_echoed_even_for_rejected_requests() {
        let (id, r) = parse_request(r#"{"id":"abc","op":"estimate","machine":"nope"}"#);
        assert_eq!(id, Json::str("abc"));
        assert!(r.unwrap_err().contains("unknown machine"));
    }

    #[test]
    fn malformed_and_unknown_inputs_are_bad_requests() {
        assert!(must_fail("not json at all").contains("not valid JSON"));
        assert!(must_fail("[1,2]").contains("must be a JSON object"));
        assert!(must_fail(r#"{"id":1}"#).contains("missing string field `op`"));
        assert!(must_fail(r#"{"op":"frobnicate"}"#).contains("unknown op"));
        assert!(must_fail(r#"{"op":"estimate","machine":"sg2042","kernel":"Nope_X"}"#)
            .contains("unknown kernel"));
        assert!(must_fail(
            r#"{"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","threads":0}"#
        )
        .contains(">= 1"));
        assert!(must_fail(r#"{"op":"ping","bogus":1}"#).contains("unknown field `bogus`"));
        assert!(must_fail(
            r#"{"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","mode":"mvl"}"#
        )
        .contains("`mode`"));
        let long = format!(r#"{{"op":"ping","id":"{}"}}"#, "x".repeat(MAX_LINE_BYTES));
        assert!(must_fail(&long).contains("exceeds"));
    }

    #[test]
    fn suite_class_slice_and_lint_overrides_parse() {
        let r = must_parse(r#"{"op":"suite","machine":"sg2042","class":"stream","threads":8}"#);
        let Request::Suite { class: Some(c), cfg, .. } = r else { panic!("wrong variant") };
        assert_eq!(c.label(), "stream");
        assert_eq!(cfg.threads, 8);
        let r = must_parse(
            r#"{"op":"lint_machine","machine":"sg2042","clock_ghz":2.5,"memory_controllers":8}"#,
        );
        let Request::LintMachine { clock_ghz, memory_controllers, bw_per_controller_gbs, .. } = r
        else {
            panic!("wrong variant");
        };
        assert_eq!(clock_ghz, Some(2.5));
        assert_eq!(memory_controllers, Some(8));
        assert_eq!(bw_per_controller_gbs, None);
        assert!(must_fail(r#"{"op":"lint_machine","machine":"sg2042","clock_ghz":-1}"#)
            .contains("positive"));
    }

    #[test]
    fn cluster_requests_parse_with_lint_style_validation() {
        let r = must_parse(
            r#"{"op":"cluster","machine":"sg2042","kernel":"Polybench_HEAT_3D","network":"ib-hdr",
               "mode":"strong","precision":"fp32","nodes":[1,2,4,8]}"#,
        );
        let Request::Cluster { machine, kernel, network, mode, precision, nodes } = r else {
            panic!("wrong variant");
        };
        assert_eq!(machine, MachineId::Sg2042);
        assert_eq!(kernel, KernelName::HEAT_3D);
        assert_eq!(network, NetworkKind::InfinibandHdr);
        assert_eq!(mode, ScalingMode::Strong);
        assert_eq!(precision, Precision::Fp32);
        assert_eq!(nodes, vec![1, 2, 4, 8]);
        // Defaults: fp64 and the ladder node list.
        let r = must_parse(
            r#"{"op":"cluster","machine":"sg2042","kernel":"Polybench_JACOBI_2D","network":"1GbE",
               "mode":"weak"}"#,
        );
        let Request::Cluster { precision, nodes, .. } = r else { panic!("wrong variant") };
        assert_eq!(precision, Precision::Fp64);
        assert_eq!(nodes, DEFAULT_CLUSTER_NODES.to_vec());
        // Lint-style rejections, each with a precise message.
        assert!(must_fail(
            r#"{"op":"cluster","machine":"sg2042","kernel":"Polybench_JACOBI_2D","mode":"weak"}"#
        )
        .contains("missing string field `network`"));
        assert!(must_fail(
            r#"{"op":"cluster","machine":"sg2042","kernel":"Polybench_JACOBI_2D","network":"token-ring",
                "mode":"weak"}"#
        )
        .contains("unknown network"));
        assert!(must_fail(
            r#"{"op":"cluster","machine":"sg2042","kernel":"Polybench_JACOBI_2D","network":"1GbE",
                "mode":"diagonal"}"#
        )
        .contains("weak"));
        assert!(must_fail(
            r#"{"op":"cluster","machine":"sg2042","kernel":"Polybench_JACOBI_2D","network":"1GbE",
                "mode":"weak","nodes":[]}"#
        )
        .contains("must not be empty"));
        assert!(must_fail(
            r#"{"op":"cluster","machine":"sg2042","kernel":"Polybench_JACOBI_2D","network":"1GbE",
                "mode":"weak","nodes":[4,2]}"#
        )
        .contains("strictly increasing"));
        assert!(must_fail(
            r#"{"op":"cluster","machine":"sg2042","kernel":"Polybench_JACOBI_2D","network":"1GbE",
                "mode":"weak","nodes":[0]}"#
        )
        .contains("1..="));
        assert!(must_fail(
            r#"{"op":"cluster","machine":"sg2042","kernel":"Polybench_JACOBI_2D","network":"1GbE",
                "mode":"weak","threads":4}"#
        )
        .contains("unknown field `threads`"));
    }

    #[test]
    fn sleep_is_rejected_and_shutdown_parses() {
        assert!(must_fail(r#"{"op":"sleep"}"#).starts_with("unknown op `sleep`"));
        assert!(must_fail(r#"{"op":"sleep","ms":50}"#).starts_with("unknown field `ms`"));
        assert!(matches!(must_parse(r#"{"op":"shutdown"}"#), Request::Shutdown));
        assert!(matches!(must_parse(r#"{"op":"ping","id":null}"#), Request::Ping));
    }

    #[test]
    fn metrics_and_slow_requests_parse_with_validation() {
        assert!(matches!(
            must_parse(r#"{"op":"metrics"}"#),
            Request::Metrics { prometheus: false }
        ));
        assert!(matches!(
            must_parse(r#"{"op":"metrics","format":"json"}"#),
            Request::Metrics { prometheus: false }
        ));
        assert!(matches!(
            must_parse(r#"{"op":"metrics","format":"prometheus"}"#),
            Request::Metrics { prometheus: true }
        ));
        assert!(must_fail(r#"{"op":"metrics","format":"xml"}"#).contains("`format`"));
        assert!(must_fail(r#"{"op":"metrics","limit":3}"#).contains("unknown field `limit`"));
        let r = must_parse(r#"{"op":"slow_requests"}"#);
        assert!(matches!(r, Request::SlowRequests { limit } if limit == DEFAULT_SLOW_LIMIT));
        assert!(matches!(
            must_parse(r#"{"op":"slow_requests","limit":3}"#),
            Request::SlowRequests { limit: 3 }
        ));
        assert!(must_fail(r#"{"op":"slow_requests","limit":0}"#).contains(">= 1"));
        assert!(must_fail(r#"{"op":"slow_requests","limit":-2}"#).contains("non-negative"));
    }

    #[test]
    fn submission_ops_parse_with_validation() {
        let r = must_parse(r#"{"op":"submit_kernel","asm":"    ret\n"}"#);
        let Request::SubmitKernel { asm, env: None } = r else { panic!("wrong variant") };
        assert_eq!(asm, "    ret\n");
        let r = must_parse(r#"{"op":"submit_kernel","asm":"ret","env":{"x":{"10":64}}}"#);
        let Request::SubmitKernel { env: Some(env), .. } = r else { panic!("wrong variant") };
        assert!(env.contains("\"10\""), "{env}");
        assert!(must_fail(r#"{"op":"submit_kernel"}"#).contains("`asm`"));
        assert!(must_fail(r#"{"op":"submit_kernel","asm":"ret","env":[1]}"#)
            .contains("`env` must be an object"));
        assert!(must_fail(r#"{"op":"submit_kernel","asm":"ret","fuel":9}"#)
            .contains("unknown field `fuel`"));
        let r = must_parse(r#"{"op":"submit_machine","descriptor":{"schema":"x"}}"#);
        assert!(matches!(r, Request::SubmitMachine { .. }));
        assert!(must_fail(r#"{"op":"submit_machine"}"#).contains("`descriptor`"));
        assert!(must_fail(r#"{"op":"submit_machine","descriptor":"text"}"#)
            .contains("must be an object"));
    }

    #[test]
    fn submission_content_hash_inputs_ignore_key_order() {
        // The re-rendered text feeds the FNV content hash, so two
        // semantically identical documents must render identically no
        // matter how the client ordered keys — otherwise "content
        // addressed" ids split into duplicates.
        let a = must_parse(
            r#"{"op":"submit_machine","descriptor":{"base":"sg2042","schema":"rvhpc-machine-v1","vector":{"width_bits":256,"family":"rvv10"}}}"#,
        );
        let b = must_parse(
            r#"{"op":"submit_machine","descriptor":{"schema":"rvhpc-machine-v1","vector":{"family":"rvv10","width_bits":256},"base":"sg2042"}}"#,
        );
        let (Request::SubmitMachine { descriptor: da }, Request::SubmitMachine { descriptor: db }) =
            (a, b)
        else {
            panic!("wrong variants");
        };
        assert_eq!(da, db);

        let a = must_parse(r#"{"op":"submit_kernel","asm":"ret","env":{"x":{"10":64},"f":[0]}}"#);
        let b = must_parse(r#"{"op":"submit_kernel","asm":"ret","env":{"f":[0],"x":{"10":64}}}"#);
        let (
            Request::SubmitKernel { env: Some(ea), .. },
            Request::SubmitKernel { env: Some(eb), .. },
        ) = (a, b)
        else {
            panic!("wrong variants");
        };
        assert_eq!(ea, eb);
    }

    #[test]
    fn artifact_ids_route_estimate_and_explain() {
        let r = must_parse(r#"{"op":"estimate","kernel":"k:0123456789abcdef"}"#);
        let Request::EstimateKernel { id } = r else { panic!("wrong variant") };
        assert_eq!(id, "k:0123456789abcdef");
        assert!(matches!(
            must_parse(r#"{"op":"explain","kernel":"k:00"}"#),
            Request::ExplainKernel { .. }
        ));
        // Model knobs are meaningless on a kernel artifact, and so is
        // `deadline_ms` (artifact runs never enter the deadline-checked
        // batch queue — it must not be silently dropped).
        assert!(must_fail(r#"{"op":"estimate","kernel":"k:00","machine":"sg2042"}"#)
            .contains("does not apply"));
        assert!(must_fail(r#"{"op":"estimate","kernel":"k:00","threads":4}"#)
            .contains("does not apply"));
        assert!(must_fail(r#"{"op":"estimate","kernel":"k:00","deadline_ms":250}"#)
            .contains("does not apply"));
        let r =
            must_parse(r#"{"op":"estimate","machine":"m:ff","kernel":"Basic_DAXPY","threads":8}"#);
        let Request::EstimateSubmitted { machine_ref, kernel, cfg } = r else {
            panic!("wrong variant");
        };
        assert_eq!(machine_ref, "m:ff");
        assert_eq!(kernel, KernelName::DAXPY);
        assert_eq!(cfg.threads, 8);
        assert!(matches!(
            must_parse(r#"{"op":"explain","machine":"m:ff","kernel":"Basic_DAXPY"}"#),
            Request::ExplainSubmitted { .. }
        ));
    }

    #[test]
    fn responses_render_and_parse_back() {
        let ok = ok_response(&Json::Num(3.0), "ping", Json::obj(vec![("pong", Json::Bool(true))]));
        let doc = Json::parse(&ok).expect("ok line parses");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("id").and_then(Json::as_f64), Some(3.0));
        let err = error_response(&Json::Null, ErrorKind::Overloaded, "queue full", Some(12));
        let doc = Json::parse(&err).expect("error line parses");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        let e = doc.get("error").expect("error object");
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(e.get("retry_after_ms").and_then(Json::as_f64), Some(12.0));
    }

    #[test]
    fn estimate_json_round_trips_bit_exactly() {
        let est = TimeEstimate {
            seconds: 0.123456789012345e-3,
            compute_seconds: 1.0 / 3.0,
            memory_seconds: 2.0_f64.sqrt() * 1e-9,
            overhead_seconds: 0.0,
            vector_path: true,
        };
        let line = estimate_json(&est).render();
        let doc = Json::parse(&line).expect("parses");
        for (field, want) in [
            ("seconds", est.seconds),
            ("compute_seconds", est.compute_seconds),
            ("memory_seconds", est.memory_seconds),
            ("overhead_seconds", est.overhead_seconds),
        ] {
            let got = doc.get(field).and_then(Json::as_f64).expect(field);
            assert_eq!(got.to_bits(), want.to_bits(), "{field}");
        }
    }
}
