//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                  # every artefact, markdown to stdout
//! repro fig1|fig2|...|fig7   # one figure
//! repro table1|...|table4    # one table
//! repro nextgen              # the conclusion's what-if machine
//! repro machines             # modelled machine inventory
//! repro kernel Basic_DAXPY   # one kernel's model view
//! repro explain <machine> <kernel> [fp32|fp64] [threads]
//!                            # component breakdown of one estimate
//! repro calibrate            # headline ratios vs the paper's quoted numbers
//! repro native [scale]       # run the real kernels on this host
//! repro verify [--seed N] [--cases M] [--inject <fault>] [--replay <file>]
//!                            # differential/metamorphic cross-checks
//! repro lint [--machine <m>] [--kernel <k>] [--asm <file>] [--env <file>]
//!            [--report] [--json] [--check <path>]
//!                            # static RVV dataflow + descriptor lint;
//!                            # --report adds inferred resource bounds
//!                            # (rvhpc-analysis-v1), --json wraps the run
//!                            # as rvhpc-lint-v1, --check validates one
//! repro bench [--quick] [--cache-dir <dir>] [--json <path>] [--check <path>]
//!                            # time every experiment through the shared
//!                            # sweep engine; write/validate BENCH JSON;
//!                            # --cache-dir persists estimates across runs
//! repro serve [--addr A] [--queue-cap N] [--batch-max N]
//!             [--batch-window-us U] [--port-file <path>]
//!             [--slo-ms MS] [--metrics-file <path>] [--scrape-every-ms MS]
//!             [--max-conns N] [--idle-timeout-ms MS]
//!             [--max-outbox-kb N] [--max-fuel N]
//!                            # serve estimate/explain/suite/lint queries
//!                            # over line-delimited JSON on TCP from one
//!                            # epoll event loop (Linux); drains on a
//!                            # `shutdown` request or SIGTERM
//! repro loadgen --addr A [--clients N] [--requests M] [--rps R]
//!               [--duration S] [--seed N] [--json <path>]
//!               [--probe-bad] [--shutdown] [--slo-ms MS]
//!               [--poll-metrics-ms MS] [--open-loop] [--connections N]
//!               [--shards N] [--target-list a:p,b:p,...]
//!                            # drive a running server with N closed-loop
//!                            # clients; write the SERVE-BENCH artefact;
//!                            # --shards/--target-list add fleet-router
//!                            # cross-checks and per-shard attribution
//! repro fleet --shards N [--addr A] [--port-file <path>]
//!             [--shards-file <path>] [--seed N]
//!             [--probe-every-ms MS] [--cooldown-ms MS]
//!                            # spawn N serve shards behind the
//!                            # consistent-hash router; respawn dead
//!                            # shards; drain on SIGTERM or `shutdown`
//! repro fleet-bench [--shards N] [--clients N] [--requests M]
//!                   [--seed N] [--kill-shard I] [--json <path>]
//!                   [--check <path>]
//!                            # the whole fleet experiment (warm, measure,
//!                            # kill + recover a shard, serve the cluster
//!                            # curves); write/validate FLEET-BENCH JSON
//! repro cluster --machine <m> --kernel <k> --network <net>
//!               --mode weak|strong [--precision fp32|fp64]
//!               [--nodes 1,2,...] [--serve ADDR] [--json]
//!                            # Hockney α–β cluster-scaling curves, from
//!                            # the library or bit-checked via a server
//! repro submit --addr A --asm <file> [--env <file>] [--estimate]
//!                            # submit one kernel through a running
//!                            # server's lint-gated admission pipeline;
//!                            # exit 0 accepted, 3 rejected, 2 usage
//! repro top <addr> [--interval-ms N] [--frames N] [--once] [--json]
//! repro top --check <path>
//!                            # live stage/SLO dashboard over a server's
//!                            # `metrics` op, or validate a saved
//!                            # rvhpc-metrics-v1 snapshot
//! repro help                 # this usage text
//!
//! repro --csv <artefact>     # CSV instead of markdown
//! repro --json <artefact>    # JSON
//! repro --chart <figure>     # ASCII bar chart (figures; tables fall back)
//! repro --trace <artefact>   # also write trace-<artefact>.json
//!                            # (chrome://tracing) + metrics to stderr
//! ```

use rvhpc::experiments::driver::{self, Artefact};
use rvhpc::experiments::{fig1, next_gen, x86};
use rvhpc::kernels::{KernelClass, KernelName};
use rvhpc::machines::{machine, MachineId};
use rvhpc::perfmodel::{Precision, RunConfig};
use std::env;
use std::io::Write as _;

const USAGE: &str = "usage: repro [--csv|--json|--chart] [--trace] <command>\n\
commands:\n  \
  all                     every artefact, markdown to stdout\n  \
  fig1..fig7              one figure\n  \
  table1..table4          one table\n  \
  nextgen                 the conclusion's what-if machine\n  \
  machines                modelled machine inventory\n  \
  kernel <label>          one kernel's model view (e.g. Basic_DAXPY)\n  \
  explain <machine> <kernel> [fp32|fp64] [threads]\n                          \
component breakdown of one estimate\n  \
  calibrate               headline ratios vs the paper's quoted numbers\n  \
  native [scale]          run the real kernels on this host\n  \
  verify [--seed N] [--cases M] [--inject <fault>] [--replay <file>]\n                          \
cross-check every redundant code path pair under\n                          \
seed-reproducible random inputs (RVV interpreter vs\n                          \
scalar reference, analytic vs trace cache model,\n                          \
parallel vs serial executors, perfmodel metamorphic\n                          \
properties); failures write a replayable artefact\n  \
  lint [--machine <m>] [--kernel <k>] [--asm <file>] [--env <file>]\n       \
[--report] [--json] [--check <path>]\n                          \
static dataflow lint over generated RVV programs\n                          \
(v1.0 and their v0.7.1 rollbacks) and machine\n                          \
descriptors; exits 3 when any finding is reported;\n                          \
--report adds inferred resource bounds\n                          \
(rvhpc-analysis-v1 reports), --env declares the\n                          \
calling convention for an --asm file, --json wraps\n                          \
the run as one rvhpc-lint-v1 document, --check\n                          \
validates a saved document (exit 1 invalid, exit 2\n                          \
unknown schema version or unreadable file)\n  \
  bench [--quick] [--cache-dir <dir>] [--json <path>] [--check <path>]\n                          \
time every experiment through the shared sweep\n                          \
engine and report wall time + estimate-cache hit\n                          \
rates; --cache-dir enables the persistent on-disk\n                          \
estimate store (warm starts across processes);\n                          \
--json writes the BENCH artefact, --check\n                          \
validates one (exit 1 invalid, exit 2 unknown\n                          \
schema version, quick-mode artefact, or unreadable\n                          \
file)\n  \
  serve [--addr <ip:port>] [--queue-cap N] [--batch-max N]\n        \
[--batch-window-us U] [--port-file <path>]\n        \
[--slo-ms MS] [--metrics-file <path>] [--scrape-every-ms MS]\n          \
[--max-conns N] [--idle-timeout-ms MS] [--max-outbox-kb N]\n          \
[--max-fuel N]\n                          \
serve estimate/explain/suite/submit_kernel/\n                          \
submit_machine/lint_machine queries over\n                          \
line-delimited JSON on TCP, with bounded\n                          \
admission, batched execution on the shared thread\n                          \
pool, and graceful drain on `shutdown` or SIGTERM;\n                          \
--slo-ms tail-samples slow requests, --metrics-file\n                          \
keeps a bounded on-disk metrics-snapshot ring;\n                          \
all connections share one epoll event loop\n                          \
(Linux) with --max-conns admission, idle\n                          \
disconnects, and bounded write buffering;\n                          \
--max-fuel caps the interpreter fuel any admitted\n                          \
kernel may be granted\n  \
  loadgen --addr <ip:port> [--clients N] [--requests M] [--rps R]\n          \
[--duration S] [--seed N] [--json <path>] [--probe-bad] [--shutdown]\n          \
[--slo-ms MS] [--poll-metrics-ms MS] [--open-loop] [--connections N]\n          \
[--shards N] [--target-list a:p,b:p,...]\n                          \
drive a running server with N closed-loop clients\n                          \
and verify replies bit-identically against the\n                          \
local model; --json writes the SERVE-BENCH\n                          \
artefact; --slo-ms gates the exit code on p99;\n                          \
--shards cross-checks a fleet router's shard\n                          \
count, --target-list records per-shard request\n                          \
and cache attribution in the artefact;\n                          \
exits 1 on any protocol error or SLO failure\n  \
  fleet --shards N [--addr <ip:port>] [--port-file <path>]\n        \
[--shards-file <path>] [--seed N] [--probe-every-ms MS]\n        \
[--cooldown-ms MS]\n                          \
spawn N serve shards behind one consistent-hash\n                          \
router address; per-shard estimate caches stay\n                          \
hot and disjoint; dead shards are respawned under\n                          \
the same ring identity; stats/metrics requests\n                          \
are aggregated fleet-wide; drains on SIGTERM or\n                          \
a `shutdown` request\n  \
  fleet-bench [--shards N] [--clients N] [--requests M] [--seed N]\n              \
[--kill-shard I] [--json <path>] [--check <path>]\n                          \
spawn a fleet, warm every shard's partition,\n                          \
measure routing + per-shard hit rates, SIGKILL\n                          \
one shard mid-run (requests must survive via the\n                          \
ring successor, bit-identically), respawn it, and\n                          \
serve the cluster scaling curves; --json writes\n                          \
the FLEET-BENCH artefact, --check validates one\n                          \
(exit 1 invalid, exit 2 unknown schema)\n  \
  cluster --machine <m> --kernel <k> --network <net> --mode weak|strong\n          \
[--precision fp32|fp64] [--nodes 1,2,...] [--serve <ip:port>] [--json]\n                          \
weak/strong-scaling curves over the Hockney\n                          \
\u{3b1}\u{2013}\u{3b2} interconnect models; --serve fetches the\n                          \
curve from a running server/fleet and requires\n                          \
bit-identity with the local library computation\n  \
  submit --addr <ip:port> --asm <file> [--env <file>] [--estimate]\n                          \
submit one RVV kernel to a running server's\n                          \
lint-gated admission pipeline (`submit_kernel`);\n                          \
prints the rvhpc-analysis-v1 admission report;\n                          \
--estimate also executes the admitted kernel\n                          \
twice and checks the replies are bit-identical;\n                          \
exit 0 accepted, 3 rejected, 2 usage/IO error\n  \
  top <addr> [--interval-ms N] [--frames N] [--once] [--json]\n                          \
live dashboard over a running server's `metrics`\n                          \
op: per-stage rates and percentiles, gauges, SLO\n                          \
burn; --once prints one frame, --json prints the\n                          \
raw rvhpc-metrics-v1 document\n  \
  top --check <path>      validate a saved metrics snapshot (exit 1\n                          \
invalid, exit 2 unknown schema or unreadable)\n  \
  help                    this text\n\
flags:\n  \
  --csv                   CSV instead of markdown\n  \
  --json                  JSON instead of markdown\n  \
  --chart                 ASCII bar chart (figures only)\n  \
  --trace                 record spans/counters, write trace-<cmd>.json,\n                          \
print the metrics table to stderr";

/// Output format for figures and tables, decided once from the flags.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    Markdown,
    Csv,
    Json,
    Chart,
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    // `verify` and `lint` take valued flags (--seed N, --asm <file>, ...)
    // that the global flag loop would reject, so they dispatch before flag
    // parsing.
    if args.first().map(String::as_str) == Some("verify") {
        verify(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("lint") {
        lint(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("bench") {
        bench(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("submit") {
        submit(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("loadgen") {
        loadgen(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fleet") {
        fleet(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fleet-bench") {
        fleet_bench(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("cluster") {
        cluster(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("top") {
        top(&args[1..]);
    }
    let mut format = Format::Markdown;
    let mut trace = false;
    let mut positional: Vec<&str> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--csv" => format = Format::Csv,
            "--json" => format = Format::Json,
            "--chart" => format = Format::Chart,
            "--trace" => trace = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            word => positional.push(word),
        }
    }
    let cmd = positional.first().copied().unwrap_or("all");

    if trace {
        rvhpc_trace::set_enabled(true);
        rvhpc_trace::take(); // start from a clean collector
    }

    run_command(cmd, &positional, format);

    if trace {
        rvhpc_trace::set_enabled(false);
        let data = rvhpc_trace::take();
        let counters = rvhpc_obs::counters();
        let path = format!("trace-{cmd}.json");
        let json = rvhpc_trace::chrome::export(&data, &counters);
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote {} span(s) to {path}", data.events.len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "| counter | value |\n|---|---:|");
        for (name, value) in counters {
            let _ = writeln!(err, "| {name} | {value} |");
        }
    }
}

fn run_command(cmd: &str, positional: &[&str], format: Format) {
    match cmd {
        // The driver's `nextgen` entry is FP64-only (the batch's shape);
        // the standalone command keeps showing both precisions.
        "nextgen" => {
            emit_fig(next_gen::run(Precision::Fp64), format);
            emit_fig(next_gen::run(Precision::Fp32), format);
        }
        "machines" => emit_table(rvhpc::inspect::machines_table(), format),
        "kernel" => {
            let label = positional.get(1).copied().unwrap_or_default();
            match KernelName::from_label(label) {
                Some(k) => emit_table(rvhpc::inspect::kernel_table(k), format),
                None => {
                    eprintln!(
                        "unknown kernel `{label}`; labels are e.g. Basic_DAXPY, Stream_TRIAD"
                    );
                    std::process::exit(2);
                }
            }
        }
        "explain" => explain(positional, format),
        "calibrate" => calibrate(),
        "native" => native(positional),
        // One batched pass through the shared sweep engine: later
        // experiments reuse earlier experiments' cached estimates.
        "all" => {
            for e in &driver::EXPERIMENTS {
                emit_artefact(e.run(), format);
            }
        }
        "help" | "--help" | "-h" => println!("{USAGE}"),
        // Any single figure/table resolves through the batch driver, so
        // `repro fig5` and the fig5 leg of `repro all` are the same code.
        other => match driver::find(other) {
            Some(e) => emit_artefact(e.run(), format),
            None => {
                eprintln!("unknown command `{other}`");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        },
    }
}

fn emit_artefact(a: Artefact, format: Format) {
    match a {
        Artefact::Figure(f) => emit_fig(f, format),
        Artefact::Table(t) => emit_table(t, format),
    }
}

fn emit_fig(fig: rvhpc::FigureReport, format: Format) {
    match format {
        Format::Json => println!("{}", fig.to_json()),
        Format::Chart => println!("{}", fig.to_ascii_chart()),
        Format::Csv => print!("{}", fig.to_csv()),
        Format::Markdown => println!("{}", fig.to_markdown()),
    }
}

fn emit_table(t: rvhpc::TableReport, format: Format) {
    match format {
        Format::Json => println!("{}", t.to_json()),
        Format::Csv => print!("{}", t.to_csv()),
        // Tables have no chart form; fall back to markdown.
        Format::Chart | Format::Markdown => println!("{}", t.to_markdown()),
    }
}

/// `repro explain <machine> <kernel> [fp32|fp64] [threads]` — attribute one
/// estimate to its components so calibration drift has somewhere to point.
fn explain(positional: &[&str], format: Format) {
    let (Some(machine_tok), Some(kernel_label)) = (positional.get(1), positional.get(2)) else {
        eprintln!("usage: repro explain <machine> <kernel> [fp32|fp64] [threads]");
        eprintln!("machines: {}", machine_tokens());
        std::process::exit(2);
    };
    let Some(id) = MachineId::from_token(&machine_tok.to_lowercase()) else {
        eprintln!("unknown machine `{machine_tok}`; known: {}", machine_tokens());
        std::process::exit(2);
    };
    let Some(kernel) = KernelName::from_label(kernel_label) else {
        eprintln!("unknown kernel `{kernel_label}`; labels are e.g. Basic_DAXPY, Stream_TRIAD");
        std::process::exit(2);
    };
    let precision = match positional.get(3).copied() {
        None | Some("fp64") => Precision::Fp64,
        Some("fp32") => Precision::Fp32,
        Some(other) => {
            eprintln!("unknown precision `{other}` (expected fp32 or fp64)");
            std::process::exit(2);
        }
    };
    let threads = match positional.get(4).map(|t| t.parse::<usize>()) {
        None => 1,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("threads must be a positive integer");
            std::process::exit(2);
        }
    };
    let cfg = if id.is_riscv() {
        RunConfig::sg2042_best(precision, threads)
    } else {
        RunConfig::x86(precision, threads)
    };
    let m = machine(id);
    let ex = rvhpc::perfmodel::explain(&m, kernel, &cfg);
    if format == Format::Json {
        println!("{}", ex.to_json().pretty());
    } else {
        print!("{}", ex.to_text());
    }
}

/// `repro verify` — run every differential/metamorphic oracle, or replay a
/// recorded failure artefact. Exits 0 when everything agrees.
fn verify(args: &[String]) -> ! {
    use rvhpc::verify::{artefact, replay_case, run_all, Fault, VerifyConfig, ORACLES};

    const VERIFY_USAGE: &str = "usage: repro verify [--seed N] [--cases M] \
                                [--inject none|reduction-op|drop-vsetvli] [--replay <file>]";
    let mut seed = rvhpc_quickprop::base_seed();
    let mut cases: u64 = 200;
    let mut inject = Fault::None;
    let mut replay: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{VERIFY_USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--seed" => {
                let v = value("--seed");
                seed = rvhpc_quickprop::parse_seed(&v).unwrap_or_else(|| {
                    eprintln!("cannot parse seed `{v}` (decimal or 0x-hex)");
                    std::process::exit(2);
                });
            }
            "--cases" => {
                let v = value("--cases");
                cases = v.parse().unwrap_or_else(|_| {
                    eprintln!("cannot parse case count `{v}`");
                    std::process::exit(2);
                });
            }
            "--inject" => {
                let v = value("--inject");
                inject = Fault::from_token(&v).unwrap_or_else(|| {
                    eprintln!("unknown fault `{v}` (known: none, reduction-op, drop-vsetvli)");
                    std::process::exit(2);
                });
            }
            "--replay" => replay = Some(value("--replay")),
            other => {
                eprintln!("unknown verify argument `{other}`\n{VERIFY_USAGE}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = replay {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let spec = artefact::parse_replay(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        });
        println!(
            "replaying {} case seed {:#x} (inject: {})",
            spec.oracle,
            spec.case_seed,
            spec.inject.label()
        );
        match replay_case(&spec.oracle, spec.case_seed, spec.inject) {
            Ok(()) => {
                println!("PASS — the recorded case no longer fails");
                std::process::exit(0);
            }
            Err(detail) => {
                println!("FAIL — {detail}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "verify: seed {seed:#x}, {cases} case(s) per oracle, inject: {} — oracles: {}",
        inject.label(),
        ORACLES.join(", ")
    );
    let cfg = VerifyConfig { seed, cases, inject };
    let reports = run_all(&cfg);
    let mut failed = false;
    for r in &reports {
        if r.passed() {
            println!("  PASS {:<22} {} case(s)", r.oracle, r.cases_run);
            continue;
        }
        failed = true;
        for f in &r.failures {
            println!("  FAIL {:<22} case {} (seed {:#x})", r.oracle, f.case_index, f.case_seed);
            println!("       {}", f.detail);
            println!("       minimized: {}", f.minimized);
            println!("       minimized: {}", f.minimized_detail);
            let path = format!("verify-failure-{}.json", r.oracle);
            match std::fs::write(&path, f.artefact.pretty()) {
                Ok(()) => println!("       artefact written to {path}"),
                Err(e) => eprintln!("       cannot write {path}: {e}"),
            }
            println!(
                "       replay: repro verify --replay {path}   (or --seed {:#x} --cases 1)",
                f.case_seed
            );
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// `repro lint` — run the static analyzer over every machine descriptor and
/// every generated RVV program (v1.0 and their v0.7.1 rollbacks), or over
/// one assembly file (`--asm`, optionally under an `--env` calling
/// convention). `--report` adds the inferred resource bounds as
/// `rvhpc-analysis-v1` reports; `--json` wraps the whole run as one
/// `rvhpc-lint-v1` document; `--check <path>` validates a saved document
/// instead of linting (exit 1 invalid, 2 unknown schema or unreadable —
/// the `bench --check` split). Lint runs exit 3 when any finding is
/// reported, 2 on usage/IO errors, 0 when everything is clean.
fn lint(args: &[String]) -> ! {
    use rvhpc::analyze::{
        analyze_program, analyze_report, lint_all_machines, lint_doc, lint_machine, parse_env,
        validate_lint, AnalysisReport, AnalysisSpec, KernelEnv, LINT_SCHEMA,
    };
    use rvhpc::analyze::{Diagnostic, Pass};
    use rvhpc::compiler::codegen::{generate, VectorMode, SUPPORTED};
    use rvhpc::rvv::{parse_program_with_lines, rollback, Dialect, RollbackError, Sew};
    use rvhpc_trace::json::Json;

    const LINT_USAGE: &str = "usage: repro lint [--machine <m>] [--kernel <label>] \
                              [--asm <file>] [--env <file>] [--report] [--json] \
                              [--check <path>]";
    // Element count for the generated sweep: a lane multiple for both SEWs,
    // large enough that every program takes its strip-mine back-edge.
    const SWEEP_N: usize = 96;

    let mut machine_filter: Option<MachineId> = None;
    let mut kernel_filter: Option<KernelName> = None;
    let mut asm: Option<String> = None;
    let mut env_path: Option<String> = None;
    let mut report = false;
    let mut json = false;
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{LINT_USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--machine" => {
                let v = value("--machine");
                machine_filter =
                    Some(MachineId::from_token(&v.to_lowercase()).unwrap_or_else(|| {
                        eprintln!("unknown machine `{v}`; known: {}", machine_tokens());
                        std::process::exit(2);
                    }));
            }
            "--kernel" => {
                let v = value("--kernel");
                let k = KernelName::from_label(&v).unwrap_or_else(|| {
                    eprintln!("unknown kernel `{v}`; labels are e.g. Basic_DAXPY, Stream_TRIAD");
                    std::process::exit(2);
                });
                if !SUPPORTED.contains(&k) {
                    eprintln!(
                        "kernel `{v}` has no RVV codegen; supported: {}",
                        SUPPORTED.map(|k| k.label()).join(", ")
                    );
                    std::process::exit(2);
                }
                kernel_filter = Some(k);
            }
            "--asm" => asm = Some(value("--asm")),
            "--env" => env_path = Some(value("--env")),
            "--report" => report = true,
            "--json" => json = true,
            "--check" => check_path = Some(value("--check")),
            other => {
                eprintln!("unknown lint argument `{other}`\n{LINT_USAGE}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        // Same failure split as `bench --check`: an unknown schema version
        // is a format disagreement (exit 2), a known-format document that
        // breaks its own invariants is invalid (exit 1).
        let embedded = Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("schema").and_then(|s| s.as_str().map(String::from)));
        match embedded.as_deref() {
            Some(s) if s == LINT_SCHEMA => {}
            Some(other) => {
                eprintln!("{path}: unknown schema version `{other}` (expected `{LINT_SCHEMA}`)");
                std::process::exit(2);
            }
            None => {
                eprintln!("{path}: no `schema` tag found (expected `{LINT_SCHEMA}`)");
                std::process::exit(2);
            }
        }
        match validate_lint(&text) {
            Ok(()) => {
                println!("{path}: valid {LINT_SCHEMA} document");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{path}: INVALID {LINT_SCHEMA} document — {e}");
                std::process::exit(1);
            }
        }
    }
    if env_path.is_some() && asm.is_none() {
        eprintln!("--env only applies to an --asm file\n{LINT_USAGE}");
        std::process::exit(2);
    }

    let mut findings: Vec<(String, Diagnostic)> = Vec::new();
    let mut reports: Vec<(String, AnalysisReport)> = Vec::new();
    let mut programs = 0usize;
    let mut descriptors = 0usize;

    if let Some(path) = &asm {
        // Lint one assembly file: try v1.0 first, then v0.7.1 (which also
        // turns on the dialect-legality pass). Without --env or --report
        // the permissive hand-written-fragment spec applies; with them the
        // declared (or default streaming) calling convention does, so the
        // run matches what `submit_kernel` admission would decide.
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let (program, map, dialect) = match parse_program_with_lines(&text, Dialect::V10) {
            Ok((p, m)) => (p, m, Dialect::V10),
            Err(e10) => match parse_program_with_lines(&text, Dialect::V071) {
                Ok((p, m)) => (p, m, Dialect::V071),
                Err(e071) => {
                    eprintln!(
                        "{path} parses as neither RVV dialect:\n  v1.0:   {e10}\n  v0.7.1: {e071}"
                    );
                    std::process::exit(2);
                }
            },
        };
        let spec = match &env_path {
            Some(env_file) => {
                let env_text = std::fs::read_to_string(env_file).unwrap_or_else(|e| {
                    eprintln!("cannot read {env_file}: {e}");
                    std::process::exit(2);
                });
                match parse_env(&env_text) {
                    Ok(env) => env.spec(),
                    Err(diags) => {
                        for d in &diags {
                            eprintln!("{env_file}: {d}");
                        }
                        std::process::exit(2);
                    }
                }
            }
            None if report => KernelEnv::default_streaming().spec(),
            None => AnalysisSpec::liberal(),
        };
        let spec = match dialect {
            Dialect::V071 => spec.v071(),
            Dialect::V10 => spec,
        };
        programs = 1;
        let ctx = format!("{path} ({dialect:?})");
        if report {
            let mut r = analyze_report(&program, &spec);
            r.findings = r.findings.into_iter().map(|d| d.with_lines(&map)).collect();
            findings.extend(r.findings.iter().cloned().map(|d| (ctx.clone(), d)));
            reports.push((ctx, r));
        } else {
            findings.extend(
                analyze_program(&program, &spec)
                    .into_iter()
                    .map(|d| (ctx.clone(), d.with_lines(&map))),
            );
        }
    } else {
        // Descriptor lint over the machine catalog.
        let diags = match machine_filter {
            Some(id) => {
                descriptors = 1;
                lint_machine(&machine(id))
            }
            None => {
                descriptors = MachineId::ALL.len() + 1; // + the what-if machine
                lint_all_machines()
            }
        };
        findings.extend(diags.into_iter().map(|d| ("catalog".to_string(), d)));

        // Dataflow lint over every generated program: the v1.0 output under
        // the codegen calling convention, and its v0.7.1 rollback under the
        // C920 legality rules. The only tolerated refusal is FP64 vector
        // arithmetic at e64 (the C920 genuinely cannot run it).
        let kernels: Vec<KernelName> =
            kernel_filter.map(|k| vec![k]).unwrap_or_else(|| SUPPORTED.to_vec());
        // With --report the same spec drives analyze_report, so the sweep
        // also yields per-program resource bounds.
        fn scan(
            findings: &mut Vec<(String, Diagnostic)>,
            reports: &mut Vec<(String, rvhpc::analyze::AnalysisReport)>,
            with_report: bool,
            ctx: String,
            program: &rvhpc::rvv::Program,
            spec: &AnalysisSpec,
        ) {
            use rvhpc::analyze::{analyze_program, analyze_report};
            if with_report {
                let r = analyze_report(program, spec);
                findings.extend(r.findings.iter().cloned().map(|d| (ctx.clone(), d)));
                reports.push((ctx, r));
            } else {
                findings
                    .extend(analyze_program(program, spec).into_iter().map(|d| (ctx.clone(), d)));
            }
        }
        for &kernel in &kernels {
            for sew in [Sew::E32, Sew::E64] {
                for mode in [VectorMode::Vla, VectorMode::Vls] {
                    let Some(program) = generate(kernel, mode, sew) else { continue };
                    let ctx = format!("{} {mode:?} {sew:?}", kernel.label());
                    programs += 1;
                    let spec = AnalysisSpec::streaming(sew, SWEEP_N);
                    scan(
                        &mut findings,
                        &mut reports,
                        report,
                        format!("{ctx} v1.0"),
                        &program,
                        &spec,
                    );
                    match rollback(&program) {
                        Ok(rolled) => {
                            programs += 1;
                            let spec = AnalysisSpec::streaming(sew, SWEEP_N).v071();
                            scan(
                                &mut findings,
                                &mut reports,
                                report,
                                format!("{ctx} v0.7.1 rollback"),
                                &rolled,
                                &spec,
                            );
                        }
                        Err(RollbackError::Fp64Vector { .. }) if sew == Sew::E64 => {}
                        Err(e) => findings.push((
                            format!("{ctx} rollback"),
                            Diagnostic::at(
                                Pass::DialectIllegal,
                                e.inst_index(),
                                format!("rollback refused: {e}"),
                            ),
                        )),
                    }
                }
            }
        }
    }

    if json {
        let doc = lint_doc(descriptors, programs, &findings, &reports);
        println!("{}", doc.pretty());
    } else {
        for (ctx, d) in &findings {
            println!("{ctx}: {d}");
        }
        let fmt_bound =
            |b: Option<u64>| b.map_or_else(|| "unbounded".to_string(), |n| n.to_string());
        for (ctx, r) in &reports {
            println!(
                "{ctx}: steps <= {}, mem bytes <= {}, peak vreg {} B, {}",
                fmt_bound(r.bounds.step_bound),
                fmt_bound(r.bounds.mem_bytes_bound),
                r.bounds.peak_vreg_bytes,
                if r.admissible() { "admissible" } else { "NOT admissible" }
            );
        }
    }
    eprintln!(
        "lint: {descriptors} machine descriptor(s), {programs} program(s) analysed, {} finding(s)",
        findings.len()
    );
    std::process::exit(if findings.is_empty() { 0 } else { 3 });
}

/// `repro bench` — time every experiment of the batch through the shared
/// sweep engine and report wall time plus estimate-cache traffic.
/// `--cache-dir <dir>` layers the persistent on-disk estimate store under
/// the in-memory cache so repeat runs start warm; `--json <path>` writes
/// the `rvhpc-bench-v1` artefact; `--check <path>` validates one as a
/// trajectory point instead of measuring (exit 1 when invalid, exit 2 on
/// an unknown schema version or a `quick: true` artefact).
fn bench(args: &[String]) -> ! {
    use rvhpc::experiments::driver::EXPERIMENTS;
    use rvhpc::perfmodel::cache;
    use rvhpc::perfmodel::persist;
    use rvhpc_bench::sweep::{
        artefact, validate_trajectory, wall_seconds_of, EngineInfo, ExperimentBench,
        TrajectoryError, SCHEMA,
    };

    const BENCH_USAGE: &str =
        "usage: repro bench [--quick] [--cache-dir <dir>] [--json <path>] [--check <path>]";
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{BENCH_USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json_path = Some(value("--json")),
            "--check" => check_path = Some(value("--check")),
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            other => {
                eprintln!("unknown bench argument `{other}`\n{BENCH_USAGE}");
                std::process::exit(2);
            }
        }
    }

    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        // An unknown schema version is a different failure class than a
        // malformed artefact of the right version: the former means the
        // producer and checker disagree about the format itself (exit 2),
        // the latter that a known-format artefact is broken (exit 1).
        let embedded = rvhpc_trace::json::Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("schema").and_then(|s| s.as_str().map(String::from)));
        match embedded.as_deref() {
            Some(s) if s == SCHEMA => {}
            Some(other) => {
                eprintln!("{path}: unknown schema version `{other}` (expected `{SCHEMA}`)");
                std::process::exit(2);
            }
            None => {
                eprintln!("{path}: no `schema` tag found (expected `{SCHEMA}`)");
                std::process::exit(2);
            }
        }
        // A `quick: true` artefact is well-formed but inadmissible as a
        // trajectory point, so it shares exit 2 with the unknown-schema
        // case; a broken known-format artefact stays exit 1.
        match validate_trajectory(&text, &names) {
            Ok(()) => {
                println!("{path}: valid {SCHEMA} artefact ({} experiment(s))", names.len());
                std::process::exit(0);
            }
            Err(e @ TrajectoryError::Quick) => {
                eprintln!("{path}: REFUSED as a trajectory point — {e}");
                std::process::exit(2);
            }
            Err(TrajectoryError::Invalid(e)) => {
                eprintln!("{path}: INVALID {SCHEMA} artefact — {e}");
                std::process::exit(1);
            }
        }
    }

    // The persistent estimate store makes warm starts cross-process: the
    // first bench against a fresh dir is the cold baseline, later runs
    // against the same dir replay estimates from disk.
    if let Some(dir) = cache_dir {
        persist::set_cache_dir(Some(std::path::PathBuf::from(dir)));
    }

    // One repetition in quick mode is the genuine cold→shared pass the
    // acceptance contract is about; full mode adds warm repetitions and
    // keeps the per-rep minimum as the wall time.
    let reps = if quick { 1 } else { 3 };
    let lanes = rvhpc::threads::global_team().n_threads();
    println!(
        "bench: {} experiment(s), {reps} rep(s) each, {lanes} lane(s), cache capacity {}\n",
        EXPERIMENTS.len(),
        cache::capacity()
    );
    println!("| experiment | wall [s] | cache hits | misses | evictions | hit rate |");
    println!("|---|---|---|---|---|---|");

    cache::clear();
    let run_start = cache::stats();
    let mut rows: Vec<ExperimentBench> = Vec::new();
    for e in &EXPERIMENTS {
        let before = cache::stats();
        let wall = wall_seconds_of(reps, || {
            let _ = e.run();
        });
        let d = cache::stats().since(&before);
        let row = ExperimentBench {
            name: e.name.to_string(),
            wall_seconds: wall,
            hits: d.hits,
            misses: d.misses,
            evictions: d.evictions,
        };
        println!(
            "| {} | {:.6} | {} | {} | {} | {:.3} |",
            row.name,
            row.wall_seconds,
            row.hits,
            row.misses,
            row.evictions,
            row.hit_rate()
        );
        rows.push(row);
    }
    let d = cache::stats().since(&run_start);
    let total = ExperimentBench {
        name: "total".to_string(),
        wall_seconds: rows.iter().map(|r| r.wall_seconds).sum(),
        hits: d.hits,
        misses: d.misses,
        evictions: d.evictions,
    };
    println!(
        "| **total** | {:.6} | {} | {} | {} | {:.3} |",
        total.wall_seconds,
        total.hits,
        total.misses,
        total.evictions,
        total.hit_rate()
    );

    if let Some(path) = json_path {
        let engine = EngineInfo { lanes, cache_capacity: cache::capacity() };
        let doc = artefact(quick, &engine, &rows, &total);
        let mut text = doc.pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    // Persist any estimates computed this run so the next process with the
    // same --cache-dir starts warm.
    persist::flush();
    std::process::exit(0);
}

/// `repro serve` — run the batched, backpressured query server until a
/// `shutdown` request or SIGTERM drains it. Prints the bound address on
/// stdout (and to `--port-file` if given) so scripts can use port 0.
fn serve(args: &[String]) -> ! {
    use rvhpc_serve::{ServeConfig, Server};
    use rvhpc_trace::json::Json;

    const SERVE_USAGE: &str = "usage: repro serve [--addr <ip:port>] [--queue-cap N] \
                               [--batch-max N] [--batch-window-us U] [--port-file <path>] \
                               [--slo-ms MS] [--metrics-file <path>] [--scrape-every-ms MS] \
                               [--max-conns N] [--idle-timeout-ms MS] \
                               [--max-outbox-kb N] [--max-fuel N]";
    let mut config = ServeConfig::default();
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{SERVE_USAGE}");
                std::process::exit(2);
            })
        };
        let parse_pos = |flag: &str, v: String| -> usize {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("{flag} must be a positive integer, got `{v}`");
                    std::process::exit(2);
                }
            }
        };
        match a.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--queue-cap" => config.queue_capacity = parse_pos("--queue-cap", value("--queue-cap")),
            "--batch-max" => config.batch_max = parse_pos("--batch-max", value("--batch-max")),
            "--batch-window-us" => {
                let us = parse_pos("--batch-window-us", value("--batch-window-us"));
                config.batch_window = std::time::Duration::from_micros(us as u64);
            }
            "--port-file" => port_file = Some(value("--port-file")),
            "--slo-ms" => {
                let v = value("--slo-ms");
                config.slo_ms = v.parse().unwrap_or_else(|_| {
                    eprintln!("--slo-ms: cannot parse `{v}`");
                    std::process::exit(2);
                });
            }
            "--metrics-file" => config.metrics_file = Some(value("--metrics-file")),
            "--scrape-every-ms" => {
                let ms = parse_pos("--scrape-every-ms", value("--scrape-every-ms"));
                config.scrape_every = std::time::Duration::from_millis(ms as u64);
            }
            "--max-conns" => config.max_conns = parse_pos("--max-conns", value("--max-conns")),
            "--idle-timeout-ms" => {
                // Unlike the other knobs, 0 is meaningful: it disables
                // the idle sweep entirely.
                let v = value("--idle-timeout-ms");
                let ms: u64 = v.parse().unwrap_or_else(|_| {
                    eprintln!("--idle-timeout-ms must be a non-negative integer, got `{v}`");
                    std::process::exit(2);
                });
                config.idle_timeout = std::time::Duration::from_millis(ms);
            }
            "--max-outbox-kb" => {
                let kb = parse_pos("--max-outbox-kb", value("--max-outbox-kb"));
                config.max_outbox_bytes = kb * 1024;
            }
            "--max-fuel" => {
                let v = value("--max-fuel");
                config.max_fuel = match v.parse::<u64>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--max-fuel must be a positive integer, got `{v}`");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unknown serve argument `{other}`\n{SERVE_USAGE}");
                std::process::exit(2);
            }
        }
    }

    rvhpc_serve::signal::install_sigterm_hook();
    let (slo_ms, scrape_every) = (config.slo_ms, config.scrape_every);
    let (queue_cap, batch_max, batch_window) =
        (config.queue_capacity, config.batch_max, config.batch_window);
    let max_conns = config.max_conns;
    let max_fuel = config.max_fuel;
    let metrics_file = config.metrics_file.clone();
    let server = Server::start(config).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        std::process::exit(1);
    });
    let addr = server.local_addr();
    // One machine-parseable banner line on stderr: everything a
    // supervisor needs to find and scrape this process.
    let banner = Json::obj(vec![
        ("event", Json::str("serve.start")),
        ("addr", Json::str(addr.to_string())),
        ("port", Json::Num(addr.port() as f64)),
        ("queue_cap", Json::Num(queue_cap as f64)),
        ("batch_max", Json::Num(batch_max as f64)),
        ("batch_window_us", Json::Num(batch_window.as_micros() as f64)),
        ("slo_ms", Json::Num(slo_ms)),
        ("metrics_file", metrics_file.as_deref().map_or(Json::Null, Json::str)),
        ("scrape_every_ms", Json::Num(scrape_every.as_millis() as f64)),
        ("max_conns", Json::Num(max_conns as f64)),
        ("max_fuel", Json::Num(max_fuel as f64)),
        ("pid", Json::Num(std::process::id() as f64)),
    ]);
    eprintln!("{}", banner.render());
    println!("rvhpc-serve listening on {addr}");
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{addr}\n")) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    server.join();
    eprintln!("rvhpc-serve drained cleanly");
    std::process::exit(0);
}

/// `repro submit` — submit one RVV kernel (and optional `env` calling
/// convention) to a running server's lint-gated `submit_kernel` pipeline
/// and print the admission verdict. `--estimate` additionally executes the
/// admitted kernel twice via the `estimate` op and checks the two replies
/// are bit-identical. Exit 0 when accepted, 3 when the gate rejects it,
/// 2 on usage/IO errors, 1 on protocol errors.
fn submit(args: &[String]) -> ! {
    use rvhpc_trace::json::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    const SUBMIT_USAGE: &str =
        "usage: repro submit --addr <ip:port> --asm <file> [--env <file>] [--estimate]";
    let mut addr: Option<String> = None;
    let mut asm_path: Option<String> = None;
    let mut env_path: Option<String> = None;
    let mut estimate = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{SUBMIT_USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--asm" => asm_path = Some(value("--asm")),
            "--env" => env_path = Some(value("--env")),
            "--estimate" => estimate = true,
            other => {
                eprintln!("unknown submit argument `{other}`\n{SUBMIT_USAGE}");
                std::process::exit(2);
            }
        }
    }
    let (Some(addr), Some(asm_path)) = (addr, asm_path) else {
        eprintln!("--addr and --asm are required\n{SUBMIT_USAGE}");
        std::process::exit(2);
    };
    let read_file = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let asm = read_file(&asm_path);
    let env_doc = env_path.map(|p| {
        let text = read_file(&p);
        match Json::parse(&text) {
            Ok(doc @ Json::Obj(_)) => doc,
            Ok(_) => {
                eprintln!("{p}: env must be a JSON object");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("{p}: not valid JSON: {e}");
                std::process::exit(2);
            }
        }
    });

    let stream = TcpStream::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(2);
    });
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
    let mut writer = stream.try_clone().unwrap_or_else(|e| {
        eprintln!("cannot clone connection: {e}");
        std::process::exit(2);
    });
    let mut reader = BufReader::new(stream);
    let mut ask = |doc: &Json, reader: &mut BufReader<TcpStream>| -> Json {
        let io_fail = |e: &dyn std::fmt::Display| -> ! {
            eprintln!("server at {addr} went away: {e}");
            std::process::exit(1);
        };
        let line = doc.render();
        if let Err(e) = writer.write_all(line.as_bytes()).and_then(|()| writer.write_all(b"\n")) {
            io_fail(&e);
        }
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => {}
            Ok(_) => io_fail(&"connection closed"),
            Err(e) => io_fail(&e),
        }
        let doc = Json::parse(reply.trim_end()).unwrap_or_else(|e| {
            eprintln!("unparseable reply from {addr}: {e}");
            std::process::exit(1);
        });
        if doc.get("ok") != Some(&Json::Bool(true)) {
            eprintln!("server refused the request: {}", doc.render());
            std::process::exit(1);
        }
        doc.get("result").cloned().unwrap_or(Json::Null)
    };

    let mut pairs = vec![("op", Json::str("submit_kernel")), ("asm", Json::str(asm))];
    if let Some(env) = env_doc {
        pairs.push(("env", env));
    }
    let verdict = ask(&Json::obj(pairs), &mut reader);
    match verdict.get("accepted") {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => {
            println!("{}", verdict.pretty());
            eprintln!(
                "REJECTED: {}",
                verdict.get("reason").and_then(Json::as_str).unwrap_or("unknown reason")
            );
            std::process::exit(3);
        }
        _ => {
            eprintln!("reply carries no `accepted` verdict: {}", verdict.render());
            std::process::exit(1);
        }
    }
    println!("{}", verdict.pretty());
    let Some(id) = verdict.get("id").and_then(Json::as_str).map(String::from) else {
        eprintln!("accepted reply carries no artifact id");
        std::process::exit(1);
    };
    eprintln!("ACCEPTED as {id}");

    if estimate {
        let req = Json::obj(vec![("op", Json::str("estimate")), ("kernel", Json::str(&id))]);
        let first = ask(&req, &mut reader);
        let second = ask(&req, &mut reader);
        if first.render() != second.render() {
            eprintln!(
                "estimate replies are not bit-identical:\n  {}\n  {}",
                first.render(),
                second.render()
            );
            std::process::exit(1);
        }
        println!("{}", first.pretty());
        eprintln!("estimate: two runs bit-identical");
    }
    std::process::exit(0);
}

/// `repro loadgen` — drive a running server with closed-loop clients and
/// verify every distinct reply bit-identically against the local model.
/// Exits 0 only on a clean run: zero protocol errors, bit-identity held,
/// and (when requested) the bad-line probe and drain behaved.
fn loadgen(args: &[String]) -> ! {
    use rvhpc_serve::bench::{serve_artefact, validate_serve_artefact};
    use rvhpc_serve::{run_loadgen, LoadgenConfig};

    const LOADGEN_USAGE: &str = "usage: repro loadgen --addr <ip:port> [--clients N] \
                                 [--requests M] [--rps R] [--duration S] [--seed N] \
                                 [--json <path>] [--probe-bad] [--shutdown] [--slo-ms MS] \
                                 [--poll-metrics-ms MS] [--open-loop] [--connections N] \
                                 [--shards N] [--target-list a:p,b:p,...]";
    let mut cfg = LoadgenConfig::default();
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{LOADGEN_USAGE}");
                std::process::exit(2);
            })
        };
        fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag}: cannot parse `{v}`");
                std::process::exit(2);
            })
        }
        match a.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--clients" => {
                cfg.clients = parse_num("--clients", &value("--clients"));
                if cfg.clients == 0 {
                    eprintln!("--clients must be >= 1");
                    std::process::exit(2);
                }
            }
            "--requests" => {
                cfg.requests_per_client = Some(parse_num("--requests", &value("--requests")));
            }
            "--rps" => cfg.rps = parse_num("--rps", &value("--rps")),
            "--duration" => {
                let secs: f64 = parse_num("--duration", &value("--duration"));
                cfg.duration = Some(std::time::Duration::from_secs_f64(secs));
                // A pure-duration run unless --requests also given.
                if !args.iter().any(|a| a == "--requests") {
                    cfg.requests_per_client = None;
                }
            }
            "--seed" => cfg.seed = parse_num("--seed", &value("--seed")),
            "--json" => json_path = Some(value("--json")),
            "--probe-bad" => cfg.probe_bad = true,
            "--shutdown" => cfg.shutdown_after = true,
            "--slo-ms" => {
                let ms: f64 = parse_num("--slo-ms", &value("--slo-ms"));
                if !ms.is_finite() || ms <= 0.0 {
                    eprintln!("--slo-ms must be a positive number of milliseconds");
                    std::process::exit(2);
                }
                cfg.slo_ms = Some(ms);
            }
            "--poll-metrics-ms" => {
                cfg.poll_metrics_ms =
                    Some(parse_num("--poll-metrics-ms", &value("--poll-metrics-ms")));
            }
            "--open-loop" => cfg.open_loop = true,
            "--connections" => {
                cfg.connections = parse_num("--connections", &value("--connections"));
                if cfg.connections == 0 {
                    eprintln!("--connections must be >= 1");
                    std::process::exit(2);
                }
            }
            "--shards" => {
                cfg.shards = Some(parse_num("--shards", &value("--shards")));
                if cfg.shards == Some(0) {
                    eprintln!("--shards must be >= 1");
                    std::process::exit(2);
                }
            }
            "--target-list" => {
                cfg.targets = value("--target-list")
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if cfg.targets.is_empty() {
                    eprintln!("--target-list needs at least one ip:port");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("unknown loadgen argument `{other}`\n{LOADGEN_USAGE}");
                std::process::exit(2);
            }
        }
    }
    if cfg.addr.is_empty() {
        eprintln!("--addr is required\n{LOADGEN_USAGE}");
        std::process::exit(2);
    }
    if cfg.open_loop && cfg.rps <= 0.0 {
        eprintln!("--open-loop needs a pacing rate: pass --rps R\n{LOADGEN_USAGE}");
        std::process::exit(2);
    }
    if cfg.open_loop && cfg.connections == 0 {
        eprintln!("--open-loop needs --connections N\n{LOADGEN_USAGE}");
        std::process::exit(2);
    }
    if !cfg.open_loop && cfg.connections != 0 {
        eprintln!("--connections only applies with --open-loop\n{LOADGEN_USAGE}");
        std::process::exit(2);
    }

    let report = run_loadgen(&cfg).unwrap_or_else(|e| {
        eprintln!("loadgen cannot reach {}: {e}", cfg.addr);
        std::process::exit(1);
    });

    println!(
        "loadgen: {} {}, {} sent, {} ok, {} overloaded, {} deadline, {} shutting-down, \
         {} protocol error(s) in {:.3}s",
        report.clients,
        if report.open_loop { "open-loop connection(s)" } else { "client(s)" },
        report.sent,
        report.ok,
        report.overloaded,
        report.deadline_exceeded,
        report.shutting_down,
        report.protocol_errors,
        report.wall_seconds
    );
    if report.ok > 0 {
        println!(
            "latency_us: p50 {:.0}  p95 {:.0}  p99 {:.0}  mean {:.0}  max {:.0}  \
             | throughput {:.1} req/s  reject rate {:.3}",
            report.p50_us,
            report.p95_us,
            report.p99_us,
            report.mean_us,
            report.max_us,
            report.throughput_rps,
            report.reject_rate
        );
    }
    println!(
        "cache: +{} hit(s), +{} miss(es), hit rate {:.3} | bit-identical: {}",
        report.cache_hits,
        report.cache_misses,
        report.cache_hit_rate,
        report.verified_bit_identical
    );
    if let Some(target) = report.slo_target_ms {
        println!(
            "slo: target {target}ms | p99 {:.0}us | {} breach(es), burn {:.4} | {}",
            report.p99_us,
            report.slo_breaches,
            report.slo_burn,
            if report.slo_passed == Some(true) { "PASS" } else { "FAIL" }
        );
    }
    if report.metrics_polls > 0 {
        println!(
            "metrics: {} poll(s), {} schema failure(s)",
            report.metrics_polls, report.metrics_poll_failures
        );
    }
    if let Some(shards) = report.shards {
        println!("fleet: {shards} shard(s)");
        for s in &report.per_shard {
            println!(
                "  shard {}: {} | +{} request(s), +{} hit(s), +{} miss(es), hit rate {:.3}",
                s.addr,
                if s.reachable { "reachable" } else { "UNREACHABLE" },
                s.requests,
                s.cache_hits,
                s.cache_misses,
                s.cache_hit_rate
            );
        }
    }
    if let Some(ok) = report.probe_bad_ok {
        println!("probe-bad: {}", if ok { "structured bad_request reply" } else { "FAILED" });
    }
    if let Some(ok) = report.drained_clean {
        println!("shutdown: {}", if ok { "acked and drained cleanly" } else { "FAILED" });
    }

    if let Some(path) = json_path {
        let doc = serve_artefact(&cfg, &report);
        let mut text = doc.pretty();
        text.push('\n');
        if let Err(e) = validate_serve_artefact(&text) {
            eprintln!("refusing to write an invalid artefact: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    let clean = report.protocol_errors == 0
        && report.verified_bit_identical
        && report.probe_bad_ok.unwrap_or(true)
        && report.drained_clean.unwrap_or(true)
        && report.slo_passed.unwrap_or(true);
    std::process::exit(if clean { 0 } else { 1 });
}

/// `repro fleet` — spawn N `rvhpc-serve` shard processes and front them
/// with the consistent-hash router on one address. The supervisor
/// respawns shards that die (under the same ring identity, so their key
/// range is unchanged) and drains everything on SIGTERM or a `shutdown`
/// request through the router.
fn fleet(args: &[String]) -> ! {
    use rvhpc_fleet::{spawn_shard, Router, RouterConfig};
    use rvhpc_trace::json::Json;

    const FLEET_USAGE: &str = "usage: repro fleet --shards N [--addr <ip:port>] \
                               [--port-file <path>] [--shards-file <path>] [--seed N] \
                               [--probe-every-ms MS] [--cooldown-ms MS]";
    let mut shards = 0usize;
    let mut config = RouterConfig::default();
    let mut port_file: Option<String> = None;
    let mut shards_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{FLEET_USAGE}");
                std::process::exit(2);
            })
        };
        fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag}: cannot parse `{v}`");
                std::process::exit(2);
            })
        }
        match a.as_str() {
            "--shards" => shards = parse_num("--shards", &value("--shards")),
            "--addr" => config.addr = value("--addr"),
            "--port-file" => port_file = Some(value("--port-file")),
            "--shards-file" => shards_file = Some(value("--shards-file")),
            "--seed" => config.seed = parse_num("--seed", &value("--seed")),
            "--probe-every-ms" => {
                let ms: u64 = parse_num("--probe-every-ms", &value("--probe-every-ms"));
                config.probe_every = std::time::Duration::from_millis(ms.max(1));
            }
            "--cooldown-ms" => {
                let ms: u64 = parse_num("--cooldown-ms", &value("--cooldown-ms"));
                config.cooldown = std::time::Duration::from_millis(ms);
            }
            other => {
                eprintln!("unknown fleet argument `{other}`\n{FLEET_USAGE}");
                std::process::exit(2);
            }
        }
    }
    if shards == 0 {
        eprintln!("--shards N (>= 1) is required\n{FLEET_USAGE}");
        std::process::exit(2);
    }

    rvhpc_serve::signal::install_sigterm_hook();
    let exe = env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own binary to spawn shards: {e}");
        std::process::exit(1);
    });
    let mut procs = Vec::new();
    for index in 0..shards {
        match spawn_shard(&exe, index, &[]) {
            Ok(p) => procs.push(p),
            Err(e) => {
                eprintln!("cannot spawn shard {index}: {e}");
                for p in &mut procs {
                    p.kill();
                }
                std::process::exit(1);
            }
        }
    }
    let addrs: Vec<String> = procs.iter().map(|p| p.addr.clone()).collect();
    let router = Router::start(config, addrs).unwrap_or_else(|e| {
        eprintln!("cannot start fleet router: {e}");
        for p in &mut procs {
            p.kill();
        }
        std::process::exit(1);
    });
    let addr = router.local_addr();
    let state = router.state();
    let banner = Json::obj(vec![
        ("event", Json::str("fleet.start")),
        ("addr", Json::str(addr.to_string())),
        ("shards", Json::Num(shards as f64)),
        ("pid", Json::Num(std::process::id() as f64)),
    ]);
    eprintln!("{}", banner.render());
    println!("rvhpc-fleet routing {shards} shard(s) on {addr}");
    for p in &procs {
        println!("  shard {}: pid {} on {}", p.index, p.pid(), p.addr);
    }
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{addr}\n")) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &shards_file {
        let lines: String =
            procs.iter().map(|p| format!("{} {} {}\n", p.index, p.pid(), p.addr)).collect();
        if let Err(e) = std::fs::write(path, lines) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    // Supervise: respawn any shard whose process died (keeping its ring
    // identity, so only its own key range rehashes) until a drain starts.
    while !rvhpc_serve::signal::sigterm_received() && !router.draining() {
        std::thread::sleep(std::time::Duration::from_millis(100));
        for p in &mut procs {
            if !p.is_alive() && !router.draining() {
                let index = p.index;
                match spawn_shard(&exe, index, &[]) {
                    Ok(fresh) => {
                        eprintln!(
                            "fleet: shard {index} died; respawned as pid {} on {}",
                            fresh.pid(),
                            fresh.addr
                        );
                        state.set_addr(index, fresh.addr.clone());
                        *p = fresh;
                    }
                    Err(e) => eprintln!("fleet: cannot respawn shard {index}: {e}"),
                }
            }
        }
    }

    // Drain: ask every live shard to shut down through the router (a
    // `shutdown` request already did this when `draining` tripped first),
    // then give them a grace period before reaping.
    if !router.draining() {
        use std::io::{BufRead, BufReader, Write};
        if let Ok(stream) = std::net::TcpStream::connect(addr) {
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut w = stream;
            let _ = w.write_all(b"{\"id\":0,\"op\":\"shutdown\"}\n");
            let mut ack = String::new();
            let _ = reader.read_line(&mut ack);
        }
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    for p in &mut procs {
        while p.is_alive() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        p.kill(); // no-op if already exited; reaps either way
    }
    router.shutdown();
    router.join();
    eprintln!("rvhpc-fleet drained cleanly");
    std::process::exit(0);
}

/// `repro fleet-bench` — run the whole fleet experiment (spawn shards,
/// warm, measure, kill one shard mid-run, respawn it, serve the cluster
/// scaling curves) and write/validate the `rvhpc-fleet-bench-v1`
/// artefact. `--check` follows the `bench --check` exit contract: 1 for
/// an invalid known-schema artefact, 2 for an unknown schema or
/// unreadable file.
fn fleet_bench(args: &[String]) -> ! {
    use rvhpc_fleet::{
        fleet_artefact, run_fleet_bench, validate_fleet_artefact, FleetBenchConfig, FLEET_SCHEMA,
    };
    use rvhpc_trace::json::Json;

    const FB_USAGE: &str = "usage: repro fleet-bench [--shards N] [--clients N] \
                            [--requests M] [--seed N] [--kill-shard I] [--json <path>] \
                            [--check <path>]";
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut overrides: Vec<(String, u64)> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{FB_USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--json" => json_path = Some(value("--json")),
            "--check" => check_path = Some(value("--check")),
            flag @ ("--shards" | "--clients" | "--requests" | "--seed" | "--kill-shard") => {
                let v = value(flag);
                let n: u64 = v.parse().unwrap_or_else(|_| {
                    eprintln!("{flag}: cannot parse `{v}`");
                    std::process::exit(2);
                });
                overrides.push((flag.to_string(), n));
            }
            other => {
                eprintln!("unknown fleet-bench argument `{other}`\n{FB_USAGE}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let embedded = Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("schema").and_then(|s| s.as_str().map(String::from)));
        match embedded.as_deref() {
            Some(s) if s == FLEET_SCHEMA => {}
            Some(other) => {
                eprintln!("{path}: unknown schema version `{other}` (expected `{FLEET_SCHEMA}`)");
                std::process::exit(2);
            }
            None => {
                eprintln!("{path}: no `schema` tag found (expected `{FLEET_SCHEMA}`)");
                std::process::exit(2);
            }
        }
        match validate_fleet_artefact(&text) {
            Ok(()) => {
                println!("{path}: valid {FLEET_SCHEMA} artefact");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                std::process::exit(1);
            }
        }
    }

    let exe = env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own binary to spawn shards: {e}");
        std::process::exit(1);
    });
    let mut cfg = FleetBenchConfig::new(exe);
    for (flag, n) in overrides {
        match flag.as_str() {
            "--shards" => cfg.shards = n as usize,
            "--clients" => cfg.clients = n as usize,
            "--requests" => cfg.requests_per_client = n as usize,
            "--seed" => cfg.seed = n,
            "--kill-shard" => cfg.kill_shard = n as usize,
            _ => unreachable!(),
        }
    }
    if cfg.shards < 2 || cfg.kill_shard >= cfg.shards || cfg.clients == 0 {
        eprintln!("need --shards >= 2, --clients >= 1, --kill-shard < --shards\n{FB_USAGE}");
        std::process::exit(2);
    }

    let report = run_fleet_bench(&cfg).unwrap_or_else(|e| {
        eprintln!("fleet-bench failed: {e}");
        std::process::exit(1);
    });
    println!(
        "fleet-bench: {} shard(s) | warm {}/{} ok in {:.3}s",
        report.shards, report.warm_ok, report.warm_requests, report.warm_seconds
    );
    println!(
        "measured: {} sent, {} ok, hit rate {:.3}, bit-identical {} | routed {:?}",
        report.measured.sent,
        report.measured.ok,
        report.measured.cache_hit_rate,
        report.measured.verified_bit_identical,
        report.routed_measured
    );
    for s in &report.measured.per_shard {
        println!(
            "  shard {}: +{} request(s), hit rate {:.3}",
            s.addr, s.requests, s.cache_hit_rate
        );
    }
    let f = &report.failover;
    println!(
        "failover: killed shard {} | {} sent, {} ok, {} failed, bit-identical {} | \
         {} mark-down(s), {} mark-up(s), recovered {}",
        f.killed_shard,
        f.report.sent,
        f.report.ok,
        f.report.sent - f.report.ok,
        f.report.verified_bit_identical,
        f.mark_downs,
        f.mark_ups,
        f.recovered
    );
    println!(
        "cluster: {} x {} over {} | served matches library: {}",
        report.cluster.machine.token(),
        report.cluster.kernel.label(),
        report.cluster.network.label(),
        report.cluster.served_matches_library
    );

    if let Some(path) = json_path {
        let doc = fleet_artefact(&cfg, &report);
        let mut text = doc.pretty();
        text.push('\n');
        if let Err(e) = validate_fleet_artefact(&text) {
            eprintln!("refusing to write an invalid artefact: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    let clean = report.warm_ok == report.warm_requests
        && report.measured.sent == report.measured.ok
        && report.measured.protocol_errors == 0
        && report.measured.verified_bit_identical
        && f.report.sent == f.report.ok
        && f.report.protocol_errors == 0
        && f.report.verified_bit_identical
        && f.mark_downs >= 1
        && f.recovered
        && report.cluster.served_matches_library;
    std::process::exit(if clean { 0 } else { 1 });
}

/// `repro cluster` — weak/strong-scaling curves over the Hockney α–β
/// interconnect models, either straight from the library or served by a
/// running `rvhpc-serve`/`repro fleet` endpoint via the `cluster` op
/// (`--serve ADDR`), which must agree with the library bit for bit.
fn cluster(args: &[String]) -> ! {
    use rvhpc::cluster::{curve_to_json, scaling_curve, ClusterPoint, NetworkKind, ScalingMode};
    use rvhpc_trace::json::Json;

    const CLUSTER_USAGE: &str = "usage: repro cluster --machine <m> --kernel <k> \
                                 --network <net> --mode weak|strong [--precision fp32|fp64] \
                                 [--nodes 1,2,4,...] [--serve <ip:port>] [--json]";
    let mut machine_tok: Option<String> = None;
    let mut kernel_lbl: Option<String> = None;
    let mut network_lbl: Option<String> = None;
    let mut mode_tok: Option<String> = None;
    let mut precision = Precision::Fp64;
    let mut nodes: Vec<u32> = vec![1, 2, 4, 16, 64];
    let mut serve_addr: Option<String> = None;
    let mut as_json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{CLUSTER_USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--machine" => machine_tok = Some(value("--machine")),
            "--kernel" => kernel_lbl = Some(value("--kernel")),
            "--network" => network_lbl = Some(value("--network")),
            "--mode" => mode_tok = Some(value("--mode")),
            "--precision" => {
                precision = match value("--precision").as_str() {
                    "fp32" => Precision::Fp32,
                    "fp64" => Precision::Fp64,
                    other => {
                        eprintln!("--precision must be fp32 or fp64, got `{other}`");
                        std::process::exit(2);
                    }
                };
            }
            "--nodes" => {
                nodes = value("--nodes")
                    .split(',')
                    .map(|s| {
                        s.trim().parse::<u32>().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                            eprintln!("--nodes: `{s}` is not a positive node count");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                if nodes.is_empty() || nodes.windows(2).any(|w| w[0] >= w[1]) {
                    eprintln!("--nodes must be a strictly increasing, non-empty list");
                    std::process::exit(2);
                }
            }
            "--serve" => serve_addr = Some(value("--serve")),
            "--json" => as_json = true,
            other => {
                eprintln!("unknown cluster argument `{other}`\n{CLUSTER_USAGE}");
                std::process::exit(2);
            }
        }
    }
    let (Some(machine_tok), Some(kernel_lbl), Some(network_lbl), Some(mode_tok)) =
        (machine_tok, kernel_lbl, network_lbl, mode_tok)
    else {
        eprintln!("--machine, --kernel, --network and --mode are required\n{CLUSTER_USAGE}");
        std::process::exit(2);
    };
    let Some(m) = MachineId::from_token(&machine_tok.to_lowercase()) else {
        eprintln!("unknown machine `{machine_tok}`");
        std::process::exit(2);
    };
    let Some(kernel) = KernelName::from_label(&kernel_lbl) else {
        eprintln!("unknown kernel `{kernel_lbl}`; labels are e.g. Basic_DAXPY, Stream_TRIAD");
        std::process::exit(2);
    };
    let Some(network) = NetworkKind::from_label(&network_lbl) else {
        let labels: Vec<&str> = NetworkKind::ALL.iter().map(|n| n.label()).collect();
        eprintln!("unknown network `{network_lbl}`; known: {}", labels.join(", "));
        std::process::exit(2);
    };
    let Some(mode) = ScalingMode::from_token(&mode_tok) else {
        eprintln!("--mode must be `weak` or `strong`, got `{mode_tok}`");
        std::process::exit(2);
    };

    let net = network.network();
    let local = scaling_curve(m, &net, kernel, mode, precision, &nodes);
    let points: Vec<ClusterPoint> = if let Some(addr) = serve_addr {
        use std::io::{BufRead, BufReader, Write};
        let request = Json::obj(vec![
            ("id", Json::Num(1.0)),
            ("op", Json::str("cluster")),
            ("machine", Json::str(m.token())),
            ("kernel", Json::str(kernel.label())),
            ("network", Json::str(network.label())),
            ("mode", Json::str(mode.token())),
            ("precision", Json::str(precision.label())),
            ("nodes", Json::Arr(nodes.iter().map(|&n| Json::Num(n as f64)).collect())),
        ])
        .render();
        let stream = std::net::TcpStream::connect(&addr).unwrap_or_else(|e| {
            eprintln!("cannot reach {addr}: {e}");
            std::process::exit(1);
        });
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut w = stream;
        let mut reply = String::new();
        let io_err = |e| {
            eprintln!("cluster request to {addr} failed: {e}");
            std::process::exit(1);
        };
        w.write_all(request.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| reader.read_line(&mut reply))
            .unwrap_or_else(io_err);
        let served = Json::parse(reply.trim())
            .ok()
            .and_then(|doc| {
                doc.get("result").and_then(|r| r.get("points")).map(|p| {
                    rvhpc::cluster::curve_from_json(p).unwrap_or_else(|e| {
                        eprintln!("served curve does not parse: {e}");
                        std::process::exit(1);
                    })
                })
            })
            .unwrap_or_else(|| {
                eprintln!("no result.points in reply: {}", reply.trim());
                std::process::exit(1);
            });
        // The fleet path must be a transparent wrapper around the model.
        let identical = served.len() == local.len()
            && served.iter().zip(&local).all(|(a, b)| {
                a.nodes == b.nodes
                    && a.seconds.to_bits() == b.seconds.to_bits()
                    && a.compute_seconds.to_bits() == b.compute_seconds.to_bits()
                    && a.comm_seconds.to_bits() == b.comm_seconds.to_bits()
                    && a.efficiency.to_bits() == b.efficiency.to_bits()
            });
        if !identical {
            eprintln!("served curve DIVERGES from the local library computation");
            std::process::exit(1);
        }
        served
    } else {
        local
    };

    if as_json {
        let doc = Json::obj(vec![
            ("machine", Json::str(m.token())),
            ("kernel", Json::str(kernel.label())),
            ("network", Json::str(network.label())),
            ("mode", Json::str(mode.token())),
            ("precision", Json::str(precision.label())),
            ("points", curve_to_json(&points)),
        ]);
        println!("{}", doc.pretty());
    } else {
        println!(
            "# {} scaling: {} x {} over {} ({})",
            mode.token(),
            m.token(),
            kernel.label(),
            network.label(),
            precision.label()
        );
        println!("| nodes | seconds | compute_s | comm_s | efficiency |");
        println!("|------:|--------:|----------:|-------:|-----------:|");
        for p in &points {
            println!(
                "| {} | {:.6e} | {:.6e} | {:.6e} | {:.4} |",
                p.nodes, p.seconds, p.compute_seconds, p.comm_seconds, p.efficiency
            );
        }
    }
    std::process::exit(0);
}

/// `repro top` — a live dashboard over a running server's `metrics` op
/// (per-stage rates and percentiles, gauges, SLO burn, recent slow
/// requests), or offline validation of a saved `rvhpc-metrics-v1`
/// snapshot via `--check` (exit 1 invalid, exit 2 unknown schema or
/// unreadable file — the same split `repro bench --check` uses).
fn top(args: &[String]) -> ! {
    use rvhpc_obs::METRICS_SCHEMA;
    use rvhpc_trace::json::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    const TOP_USAGE: &str = "usage: repro top <addr> [--interval-ms N] [--frames N] [--once] \
                             [--json]\n       repro top --check <path>";
    let mut addr: Option<String> = None;
    let mut interval = std::time::Duration::from_millis(1000);
    let mut frames: Option<u64> = None;
    let mut once = false;
    let mut json_out = false;
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{TOP_USAGE}");
                std::process::exit(2);
            })
        };
        let parse_pos = |flag: &str, v: String| -> u64 {
            match v.parse::<u64>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("{flag} must be a positive integer, got `{v}`");
                    std::process::exit(2);
                }
            }
        };
        match a.as_str() {
            "--check" => check_path = Some(value("--check")),
            "--interval-ms" => {
                interval = std::time::Duration::from_millis(parse_pos(
                    "--interval-ms",
                    value("--interval-ms"),
                ));
            }
            "--frames" => frames = Some(parse_pos("--frames", value("--frames"))),
            "--once" => once = true,
            "--json" => json_out = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown top argument `{flag}`\n{TOP_USAGE}");
                std::process::exit(2);
            }
            word => {
                if addr.replace(word.to_string()).is_some() {
                    eprintln!("more than one address given\n{TOP_USAGE}");
                    std::process::exit(2);
                }
            }
        }
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        // Same failure split as `bench --check`: a schema the checker
        // does not know is a format disagreement (exit 2), a known-format
        // document that breaks its own invariants is invalid (exit 1).
        let embedded = Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("schema").and_then(|s| s.as_str().map(String::from)));
        match embedded.as_deref() {
            Some(s) if s == METRICS_SCHEMA => {}
            Some(other) => {
                eprintln!("{path}: unknown schema version `{other}` (expected `{METRICS_SCHEMA}`)");
                std::process::exit(2);
            }
            None => {
                eprintln!("{path}: no `schema` tag found (expected `{METRICS_SCHEMA}`)");
                std::process::exit(2);
            }
        }
        match rvhpc_obs::validate_metrics(&text) {
            Ok(()) => {
                println!("{path}: valid {METRICS_SCHEMA} snapshot");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{path}: INVALID {METRICS_SCHEMA} snapshot — {e}");
                std::process::exit(1);
            }
        }
    }

    let Some(addr) = addr else {
        eprintln!("an address (or --check <path>) is required\n{TOP_USAGE}");
        std::process::exit(2);
    };
    if once {
        frames = Some(1);
    }
    let stream = TcpStream::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(10)));
    let mut writer = stream.try_clone().unwrap_or_else(|e| {
        eprintln!("cannot clone connection: {e}");
        std::process::exit(1);
    });
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str, reader: &mut BufReader<TcpStream>| -> Json {
        let io_fail = |e: &dyn std::fmt::Display| -> ! {
            eprintln!("server at {addr} went away: {e}");
            std::process::exit(1);
        };
        if let Err(e) = writer.write_all(line.as_bytes()).and_then(|()| writer.write_all(b"\n")) {
            io_fail(&e);
        }
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => {}
            Ok(_) => io_fail(&"connection closed"),
            Err(e) => io_fail(&e),
        }
        let doc = Json::parse(reply.trim_end()).unwrap_or_else(|e| {
            eprintln!("unparseable reply from {addr}: {e}");
            std::process::exit(1);
        });
        if doc.get("ok") != Some(&Json::Bool(true)) {
            eprintln!("server refused the request: {}", doc.render());
            std::process::exit(1);
        }
        doc.get("result").cloned().unwrap_or(Json::Null)
    };

    let mut frame = 0u64;
    loop {
        frame += 1;
        let metrics = ask(r#"{"op":"metrics"}"#, &mut reader);
        if let Err(e) = rvhpc_obs::validate_metrics(&metrics.render()) {
            eprintln!("server returned a schema-invalid metrics document: {e}");
            std::process::exit(1);
        }
        let slow = ask(r#"{"op":"slow_requests","limit":5}"#, &mut reader);
        if json_out {
            let mut text = metrics.pretty();
            text.push('\n');
            print!("{text}");
        } else {
            if frames != Some(1) {
                // Clear and re-home between live frames only.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_top_frame(&addr, frame, &metrics, &slow));
        }
        let _ = std::io::stdout().flush();
        if frames.is_some_and(|n| frame >= n) {
            break;
        }
        std::thread::sleep(interval);
    }
    std::process::exit(0);
}

/// Render one `repro top` dashboard frame from a validated metrics
/// document and a `slow_requests` result.
fn render_top_frame(
    addr: &str,
    frame: u64,
    metrics: &rvhpc_trace::json::Json,
    slow: &rvhpc_trace::json::Json,
) -> String {
    use rvhpc_trace::json::Json;
    use std::fmt::Write as _;

    let num = |doc: &Json, path: &[&str]| -> f64 {
        let mut cur = doc.clone();
        for key in path {
            cur = cur.get(key).cloned().unwrap_or(Json::Null);
        }
        cur.as_f64().unwrap_or(0.0)
    };
    let mut out = String::new();
    let uptime = num(metrics, &["uptime_s"]);
    let _ = writeln!(out, "rvhpc top — {addr} — uptime {uptime:.1}s — frame {frame}");
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>8} {:>9} {:>9} {:>9} {:>10}",
        "stage", "count", "1s rps", "p50 us", "p99 us", "p999 us", "max us"
    );
    if let Some(Json::Obj(stages)) = metrics.get("stages") {
        for (name, s) in stages {
            let _ = writeln!(
                out,
                "{:<22} {:>9} {:>8.1} {:>9.1} {:>9.1} {:>9.1} {:>10.1}",
                name,
                num(s, &["count"]) as u64,
                num(s, &["windows", "1s", "rate_rps"]),
                num(s, &["p50_us"]),
                num(s, &["p99_us"]),
                num(s, &["p999_us"]),
                num(s, &["max_us"]),
            );
        }
    }
    if let Some(Json::Obj(gauges)) = metrics.get("gauges") {
        let line = gauges
            .iter()
            .map(|(name, v)| format!("{name}={}", v.as_f64().unwrap_or(0.0)))
            .collect::<Vec<_>>()
            .join("  ");
        let _ = writeln!(out, "gauges: {line}");
    }
    let _ = writeln!(
        out,
        "slo: threshold {}ms | total {} | breaches {} | burn {:.4} | captured {} | dropped {} | \
         60s burn {:.4}",
        num(metrics, &["slo", "threshold_ms"]),
        num(metrics, &["slo", "total"]) as u64,
        num(metrics, &["slo", "breaches"]) as u64,
        num(metrics, &["slo", "burn_fraction"]),
        num(metrics, &["slo", "captured"]) as u64,
        num(metrics, &["slo", "dropped"]) as u64,
        num(metrics, &["slo", "windows", "60s", "burn_fraction"]),
    );
    if let Some(Json::Arr(reqs)) = slow.get("requests") {
        if !reqs.is_empty() {
            let _ = writeln!(out, "slow requests (most recent first):");
            for r in reqs {
                let stages = match r.get("stages") {
                    Some(Json::Obj(pairs)) => pairs
                        .iter()
                        .map(|(k, v)| format!("{k} {:.0}us", v.as_f64().unwrap_or(0.0)))
                        .collect::<Vec<_>>()
                        .join(", "),
                    _ => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  id={} op={} {:.1}ms [{stages}] {}",
                    r.get("id").and_then(Json::as_str).unwrap_or("?"),
                    r.get("op").and_then(Json::as_str).unwrap_or("?"),
                    num(r, &["total_us"]) / 1000.0,
                    r.get("detail").and_then(Json::as_str).unwrap_or(""),
                );
            }
        }
    }
    out
}

fn machine_tokens() -> String {
    MachineId::ALL
        .into_iter()
        .chain([MachineId::Sg2042NextGen])
        .map(MachineId::token)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Print the headline averages the paper quotes, next to its numbers, so
/// calibration drift is visible at a glance.
fn calibrate() {
    println!("## Headline ratios: paper vs model\n");

    // Section 3.1 / conclusions: C920 vs U74 (V2) single-core.
    for (p, lo, hi) in [(Precision::Fp64, 4.3, 6.5), (Precision::Fp32, 5.6, 11.8)] {
        let ratios = fig1::speedup_ratios(MachineId::Sg2042, p);
        let mut per_class: Vec<(KernelClass, f64)> = KernelClass::ALL
            .into_iter()
            .map(|c| {
                let ks: Vec<f64> =
                    ratios.iter().filter(|(k, _)| k.class() == c).map(|(_, &r)| r).collect();
                (c, ks.iter().sum::<f64>() / ks.len() as f64)
            })
            .collect();
        per_class.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let min = per_class.first().expect("classes").1;
        let max = per_class.last().expect("classes").1;
        println!(
            "SG2042 vs V2 {p:?}: paper class means {lo:.1}–{hi:.1}x | model {min:.1}–{max:.1}x"
        );
        for (c, v) in &per_class {
            println!("    {c:<10} {v:.1}x");
        }
    }

    // Conclusions: x86 vs SG2042 single core.
    println!("\nx86 vs SG2042 single core (paper: FP32 Rome 3x, Broadwell 4x, Icelake 4x, SNB 2x;");
    println!("                            FP64 Rome 4x, Broadwell 4x, Icelake 5x, SNB 1.2x)");
    for (fig, label) in [(x86::fig5(), "FP32"), (x86::fig4(), "FP64")] {
        print!("  {label}: ");
        for s in &fig.series {
            print!("{} {:+.1} | ", s.label, s.overall_mean());
        }
        println!();
    }

    // Conclusions: multithreaded.
    println!("\nx86 vs SG2042 multithreaded (paper: FP32 Rome 8x, Broadwell 6x, Icelake 6x;");
    println!("                              FP64 Rome 5x, Broadwell 4x, Icelake 8x; SNB loses)");
    for (fig, label) in [(x86::fig7(), "FP32"), (x86::fig6(), "FP64")] {
        print!("  {label}: ");
        for s in &fig.series {
            print!("{} {:+.1} | ", s.label, s.overall_mean());
        }
        println!();
    }
}

fn native(positional: &[&str]) {
    let scale: f64 = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.01);
    let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(4);
    println!("running the 64-kernel suite natively: scale={scale}, threads={threads}\n");
    println!("| kernel | class | size | s/rep | checksum |");
    println!("|---|---|---|---|---|");
    for t in rvhpc::native::run_suite(scale, threads, 3) {
        println!(
            "| {} | {} | {} | {:.6} | {:.6e} |",
            t.kernel, t.class, t.size, t.seconds_per_rep, t.checksum
        );
    }
}
