//! `repro` — regenerate every table and figure of the paper, and drive the
//! serving, fleet, lint and verification subsystems. `repro help` lists
//! every command and flag; each subcommand's flags are declared once, in
//! the tables of [`cli`].

mod cli;

use rvhpc::experiments::driver::{self, Artefact};
use rvhpc::experiments::next_gen;
use rvhpc::kernels::KernelName;
use rvhpc::machines::{catalog, MachineId};
use rvhpc::perfmodel::{Model, Precision, RunConfig};
use rvhpc_trace::json::Json;
use std::env;
use std::io::Write as _;
use std::time::Duration;

/// Output format for figures and tables, decided once from the flags.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    Markdown,
    Csv,
    Json,
    Chart,
}

fn main() {
    let argv: Vec<String> = env::args().skip(1).collect();
    let args = cli::parse(&argv);
    match args.spec.name {
        "verify" => verify(&args),
        "lint" => lint(&args),
        "serve" => serve(&args),
        "submit" => submit(&args),
        "loadgen" => loadgen(&args),
        "fleet" => fleet(&args),
        "fleet-bench" => fleet_bench(&args),
        "calibrate" => calibrate(&args),
        "cluster" => cluster(&args),
        "top" => top(&args),
        _ => artefacts(&args),
    }
}

/// The artefact commands: figures, tables and the model views.
fn artefacts(args: &cli::Args) {
    let format = match args.last_of(&["--csv", "--json", "--chart"]) {
        Some("--csv") => Format::Csv,
        Some("--json") => Format::Json,
        Some("--chart") => Format::Chart,
        _ => Format::Markdown,
    };
    let trace = args.has("--trace");
    let positional: Vec<&str> = args.operands.iter().map(String::as_str).collect();
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
        cli::write_file(&path, &rvhpc_trace::chrome::export(&data, &counters));
        eprintln!("wrote {} span(s) to {path}", data.events.len());
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
            emit_fig(next_gen::run(Model::paper(), Precision::Fp64), format);
            emit_fig(next_gen::run(Model::paper(), Precision::Fp32), format);
        }
        "machines" => emit_table(rvhpc::inspect::machines_table(), format),
        "kernel" => {
            let kernel = cli::kernel_arg(positional.get(1).copied().unwrap_or_default());
            emit_table(rvhpc::inspect::kernel_table(kernel), format);
        }
        "explain" => explain(positional, format),
        "native" => native(positional),
        // One batched pass through the shared sweep engine: later
        // experiments reuse earlier experiments' cached estimates.
        "all" => {
            for e in &driver::EXPERIMENTS {
                emit_artefact(e.run(), format);
            }
        }
        "help" | "-h" => println!("{}", cli::help()),
        // Any single figure/table resolves through the batch driver, so
        // `repro fig5` and the fig5 leg of `repro all` are the same code.
        other => match driver::find(other) {
            Some(e) => emit_artefact(e.run(), format),
            None => cli::bad_input(format!("unknown command `{other}`\n{}", cli::help())),
        },
    }
    // Persist the estimates computed since the last auto-flush, so the
    // next process with the same `RVHPC_CACHE_DIR` starts warm.
    rvhpc::perfmodel::persist::flush();
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
        cli::bad_input(format!(
            "usage: repro explain <machine> <kernel> [fp32|fp64] [threads]\nmachines: {}",
            cli::machine_tokens()
        ));
    };
    let id = cli::machine_arg(machine_tok);
    let kernel = cli::kernel_arg(kernel_label);
    let precision = match positional.get(3).copied() {
        None | Some("fp64") => Precision::Fp64,
        Some("fp32") => Precision::Fp32,
        Some(other) => {
            cli::bad_input(format!("unknown precision `{other}` (expected fp32 or fp64)"))
        }
    };
    let threads = match positional.get(4) {
        None => 1,
        Some(t) => cli::pos_int(t).map_or_else(
            || cli::bad_input(format!("threads must be a positive integer, got `{t}`")),
            |n| usize::try_from(n).unwrap_or(usize::MAX),
        ),
    };
    let cfg = if id.is_riscv() {
        RunConfig::sg2042_best(precision, threads)
    } else {
        RunConfig::x86(precision, threads)
    };
    let ex = rvhpc::perfmodel::explain(catalog(id), kernel, &cfg);
    if format == Format::Json {
        println!("{}", ex.to_json().pretty());
    } else {
        print!("{}", ex.to_text());
    }
}

/// `repro verify` — run every differential/metamorphic oracle, or replay a
/// recorded failure artefact. Exits 0 when everything agrees.
fn verify(args: &cli::Args) -> ! {
    use rvhpc::verify::{artefact, replay_case, run_all, Fault, VerifyConfig, ORACLES};

    if let Some(path) = args.text("--replay") {
        let spec = artefact::parse_replay(&cli::read_file(path))
            .unwrap_or_else(|e| cli::bad_input(format!("cannot parse {path}: {e}")));
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

    let seed = args.get("--seed").unwrap_or_else(rvhpc_quickprop::base_seed);
    let cases = args.get("--cases").unwrap_or(200);
    let inject = args.text("--inject").and_then(Fault::from_token).unwrap_or(Fault::None);
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
/// instead of linting. Lint runs exit 3 when any finding is reported.
fn lint(args: &cli::Args) -> ! {
    use rvhpc::analyze::{
        analyze_program, analyze_report, lint_all_machines, lint_doc, lint_machine, parse_env,
        validate_lint, AnalysisReport, AnalysisSpec, KernelEnv, LINT_SCHEMA,
    };
    use rvhpc::analyze::{Diagnostic, Pass};
    use rvhpc::compiler::codegen::{generate, VectorMode, SUPPORTED};
    use rvhpc::rvv::{parse_program_with_lines, rollback, Dialect, RollbackError, Sew};

    // Element count for the generated sweep: a lane multiple for both SEWs,
    // large enough that every program takes its strip-mine back-edge.
    const SWEEP_N: usize = 96;

    if let Some(path) = args.text("--check") {
        cli::check_document(path, LINT_SCHEMA, validate_lint);
    }
    let machine_filter = args.text("--machine").map(cli::machine_arg);
    let kernel_filter = args.text("--kernel").map(|v| {
        let k = cli::kernel_arg(v);
        if !SUPPORTED.contains(&k) {
            let supported = SUPPORTED.map(|k| k.label()).join(", ");
            cli::bad_input(format!("kernel `{v}` has no RVV codegen; supported: {supported}"));
        }
        k
    });
    let (asm, env_path) = (args.text("--asm"), args.text("--env"));
    let report = args.has("--report");
    if env_path.is_some() && asm.is_none() {
        args.usage_error("--env only applies to an --asm file");
    }

    let mut findings: Vec<(String, Diagnostic)> = Vec::new();
    let mut reports: Vec<(String, AnalysisReport)> = Vec::new();
    let mut programs = 0usize;
    let mut descriptors = 0usize;

    if let Some(path) = asm {
        // Lint one assembly file: try v1.0 first, then v0.7.1 (which also
        // turns on the dialect-legality pass). Without --env or --report
        // the permissive hand-written-fragment spec applies; with them the
        // declared (or default streaming) calling convention does, so the
        // run matches what `submit_kernel` admission would decide.
        let text = cli::read_file(path);
        let (program, map, dialect) = match parse_program_with_lines(&text, Dialect::V10) {
            Ok((p, m)) => (p, m, Dialect::V10),
            Err(e10) => match parse_program_with_lines(&text, Dialect::V071) {
                Ok((p, m)) => (p, m, Dialect::V071),
                Err(e071) => cli::bad_input(format!(
                    "{path} parses as neither RVV dialect:\n  v1.0:   {e10}\n  v0.7.1: {e071}"
                )),
            },
        };
        let spec = match env_path {
            Some(env_file) => match parse_env(&cli::read_file(env_file)) {
                Ok(env) => env.spec(),
                Err(diags) => {
                    for d in &diags {
                        eprintln!("{env_file}: {d}");
                    }
                    std::process::exit(2);
                }
            },
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
                lint_machine(catalog(id))
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

    if args.has("--json") {
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

/// `repro serve` — run the batched, backpressured query server until a
/// `shutdown` request or SIGTERM drains it. Prints the bound address on
/// stdout (and to `--port-file` if given) so scripts can use port 0.
fn serve(args: &cli::Args) -> ! {
    use rvhpc_serve::{ServeConfig, Server};

    let d = ServeConfig::default();
    let config = ServeConfig {
        addr: args.text("--addr").map_or(d.addr, String::from),
        queue_capacity: args.get("--queue-cap").unwrap_or(d.queue_capacity),
        batch_max: args.get("--batch-max").unwrap_or(d.batch_max),
        batch_window: args.get("--batch-window-us").map_or(d.batch_window, Duration::from_micros),
        slo_ms: args.get("--slo-ms").unwrap_or(d.slo_ms),
        metrics_file: args.text("--metrics-file").map(String::from).or(d.metrics_file),
        scrape_every: args.get("--scrape-every-ms").map_or(d.scrape_every, Duration::from_millis),
        max_conns: args.get("--max-conns").unwrap_or(d.max_conns),
        // Unlike the other knobs, 0 is meaningful: it disables the idle
        // sweep entirely.
        idle_timeout: args.get("--idle-timeout-ms").map_or(d.idle_timeout, Duration::from_millis),
        max_outbox_bytes: args
            .get("--max-outbox-kb")
            .map_or(d.max_outbox_bytes, |kb: usize| kb.saturating_mul(1024)),
        max_fuel: args.get("--max-fuel").unwrap_or(d.max_fuel),
    };

    rvhpc_serve::signal::install_sigterm_hook();
    let server = Server::start(config.clone())
        .unwrap_or_else(|e| cli::fail(format!("cannot start server: {e}")));
    let addr = server.local_addr();
    // One machine-parseable banner line on stderr: everything a
    // supervisor needs to find and scrape this process.
    let banner = Json::obj(vec![
        ("event", Json::str("serve.start")),
        ("addr", Json::str(addr.to_string())),
        ("port", Json::Num(addr.port() as f64)),
        ("queue_cap", Json::Num(config.queue_capacity as f64)),
        ("batch_max", Json::Num(config.batch_max as f64)),
        ("batch_window_us", Json::Num(config.batch_window.as_micros() as f64)),
        ("slo_ms", Json::Num(config.slo_ms)),
        ("metrics_file", config.metrics_file.as_deref().map_or(Json::Null, Json::str)),
        ("scrape_every_ms", Json::Num(config.scrape_every.as_millis() as f64)),
        ("max_conns", Json::Num(config.max_conns as f64)),
        ("max_fuel", Json::Num(config.max_fuel as f64)),
        ("pid", Json::Num(std::process::id() as f64)),
    ]);
    eprintln!("{}", banner.render());
    println!("rvhpc-serve listening on {addr}");
    if let Some(path) = args.text("--port-file") {
        cli::write_file(path, &format!("{addr}\n"));
    }
    server.join();
    // The drain answered every admitted request; persist what they
    // computed so a restart with the same `RVHPC_CACHE_DIR` starts warm.
    rvhpc::perfmodel::persist::flush();
    eprintln!("rvhpc-serve drained cleanly");
    std::process::exit(0);
}

/// `repro submit` — submit one RVV kernel (and optional `env` calling
/// convention) to a running server's lint-gated `submit_kernel` pipeline
/// and print the admission verdict. `--estimate` additionally executes the
/// admitted kernel twice via the `estimate` op and checks the two replies
/// are bit-identical. Exit 0 when accepted, 3 when the gate rejects it.
fn submit(args: &cli::Args) -> ! {
    let addr = args.text("--addr").unwrap_or_default();
    let asm = cli::read_file(args.text("--asm").unwrap_or_default());
    let env_doc = args.text("--env").map(|p| match Json::parse(&cli::read_file(p)) {
        Ok(doc @ Json::Obj(_)) => doc,
        Ok(_) => cli::bad_input(format!("{p}: env must be a JSON object")),
        Err(e) => cli::bad_input(format!("{p}: not valid JSON: {e}")),
    });

    let mut conn = cli::Conn::open(addr);
    let mut pairs = vec![("op", Json::str("submit_kernel")), ("asm", Json::str(asm))];
    if let Some(env) = env_doc {
        pairs.push(("env", env));
    }
    let verdict = conn.result(&Json::obj(pairs));
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
        _ => cli::fail(format!("reply carries no `accepted` verdict: {}", verdict.render())),
    }
    println!("{}", verdict.pretty());
    let Some(id) = verdict.get("id").and_then(Json::as_str).map(String::from) else {
        cli::fail("accepted reply carries no artifact id");
    };
    eprintln!("ACCEPTED as {id}");

    if args.has("--estimate") {
        let req = Json::obj(vec![("op", Json::str("estimate")), ("kernel", Json::str(&id))]);
        let first = conn.result(&req);
        let second = conn.result(&req);
        if first.render() != second.render() {
            cli::fail(format!(
                "estimate replies are not bit-identical:\n  {}\n  {}",
                first.render(),
                second.render()
            ));
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
fn loadgen(args: &cli::Args) -> ! {
    use rvhpc_serve::bench::{serve_artefact, validate_serve_artefact};
    use rvhpc_serve::{run_loadgen, LoadgenConfig};

    let d = LoadgenConfig::default();
    let cfg = LoadgenConfig {
        addr: args.text("--addr").unwrap_or_default().to_string(),
        clients: args.get("--clients").unwrap_or(d.clients),
        // A pure-duration run unless --requests is also given.
        requests_per_client: match args.get("--requests") {
            Some(n) => Some(n),
            None if args.has("--duration") => None,
            None => d.requests_per_client,
        },
        duration: args.get("--duration").map(Duration::from_secs_f64),
        rps: args.get("--rps").unwrap_or(d.rps),
        seed: args.get("--seed").unwrap_or(d.seed),
        probe_bad: args.has("--probe-bad"),
        shutdown_after: args.has("--shutdown"),
        slo_ms: args.get("--slo-ms"),
        poll_metrics_ms: args.get("--poll-metrics-ms"),
        open_loop: args.has("--open-loop"),
        connections: args.get("--connections").unwrap_or(d.connections),
        shards: args.get("--shards"),
        targets: args.text("--target-list").map_or(d.targets, |list| {
            let targets: Vec<String> = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect();
            if targets.is_empty() {
                args.usage_error("--target-list needs at least one ip:port");
            }
            targets
        }),
    };
    if cfg.open_loop && cfg.rps <= 0.0 {
        args.usage_error("--open-loop needs a pacing rate: pass --rps R");
    }
    if cfg.open_loop && cfg.connections == 0 {
        args.usage_error("--open-loop needs --connections N");
    }
    if !cfg.open_loop && cfg.connections != 0 {
        args.usage_error("--connections only applies with --open-loop");
    }

    let report = run_loadgen(&cfg)
        .unwrap_or_else(|e| cli::fail(format!("loadgen against {} failed: {e}", cfg.addr)));
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

    if let Some(path) = args.text("--json") {
        cli::write_artefact(path, &serve_artefact(&cfg, &report), validate_serve_artefact);
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
fn fleet(args: &cli::Args) -> ! {
    use rvhpc_fleet::{spawn_shard, Router, RouterConfig};

    let shards = args.get("--shards").unwrap_or_default();
    let d = RouterConfig::default();
    let config = RouterConfig {
        addr: args.text("--addr").map_or(d.addr, String::from),
        seed: args.get("--seed").unwrap_or(d.seed),
        ..d
    };

    rvhpc_serve::signal::install_sigterm_hook();
    let exe = env::current_exe()
        .unwrap_or_else(|e| cli::fail(format!("cannot locate own binary to spawn shards: {e}")));
    let mut procs = Vec::new();
    for index in 0..shards {
        match spawn_shard(&exe, index, &[]) {
            Ok(p) => procs.push(p),
            Err(e) => {
                for p in &mut procs {
                    p.kill();
                }
                cli::fail(format!("cannot spawn shard {index}: {e}"));
            }
        }
    }
    let addrs: Vec<String> = procs.iter().map(|p| p.addr.clone()).collect();
    let router = Router::start(config, addrs).unwrap_or_else(|e| {
        for p in &mut procs {
            p.kill();
        }
        cli::fail(format!("cannot start fleet router: {e}"))
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
    if let Some(path) = args.text("--port-file") {
        cli::write_file(path, &format!("{addr}\n"));
    }
    if let Some(path) = args.text("--shards-file") {
        let lines: String =
            procs.iter().map(|p| format!("{} {} {}\n", p.index, p.pid(), p.addr)).collect();
        cli::write_file(path, &lines);
    }

    // Supervise: respawn any shard whose process died (keeping its ring
    // identity, so only its own key range rehashes) until a drain starts.
    while !rvhpc_serve::signal::sigterm_received() && !router.draining() {
        std::thread::sleep(Duration::from_millis(100));
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
    // then give them a grace period before reaping. Best effort: any error
    // here only skips the request, since the reaping below still runs.
    if !router.draining() {
        if let Ok(mut conn) = rvhpc_serve::LineConn::connect(addr, Duration::from_secs(30)) {
            let _ = conn.exchange(r#"{"id":0,"op":"shutdown"}"#);
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    for p in &mut procs {
        while p.is_alive() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
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
/// artefact.
fn fleet_bench(args: &cli::Args) -> ! {
    use rvhpc_fleet::{
        fleet_artefact, run_fleet_bench, validate_fleet_artefact, FleetBenchConfig, FLEET_SCHEMA,
    };

    if let Some(path) = args.text("--check") {
        cli::check_document(path, FLEET_SCHEMA, validate_fleet_artefact);
    }
    let exe = env::current_exe()
        .unwrap_or_else(|e| cli::fail(format!("cannot locate own binary to spawn shards: {e}")));
    let d = FleetBenchConfig::new(exe);
    let cfg = FleetBenchConfig {
        shards: args.get("--shards").unwrap_or(d.shards),
        clients: args.get("--clients").unwrap_or(d.clients),
        requests_per_client: args.get("--requests").unwrap_or(d.requests_per_client),
        seed: args.get("--seed").unwrap_or(d.seed),
        kill_shard: args.get("--kill-shard").unwrap_or(d.kill_shard),
        ..d
    };
    if cfg.shards < 2 || cfg.kill_shard >= cfg.shards {
        args.usage_error("need --shards >= 2 and --kill-shard < --shards");
    }

    let report =
        run_fleet_bench(&cfg).unwrap_or_else(|e| cli::fail(format!("fleet-bench failed: {e}")));
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

    if let Some(path) = args.text("--json") {
        cli::write_artefact(path, &fleet_artefact(&cfg, &report), validate_fleet_artefact);
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
fn cluster(args: &cli::Args) -> ! {
    use rvhpc::cluster::{curve_from_json, curve_to_json, scaling_curve, NetworkKind, ScalingMode};

    let m = cli::machine_arg(args.text("--machine").unwrap_or_default());
    let kernel = cli::kernel_arg(args.text("--kernel").unwrap_or_default());
    let network_lbl = args.text("--network").unwrap_or_default();
    let Some(network) = NetworkKind::from_label(network_lbl) else {
        let labels: Vec<&str> = NetworkKind::ALL.iter().map(|n| n.label()).collect();
        cli::bad_input(format!("unknown network `{network_lbl}`; known: {}", labels.join(", ")));
    };
    let mode = args.text("--mode").and_then(ScalingMode::from_token).unwrap_or(ScalingMode::Weak);
    let precision =
        if args.text("--precision") == Some("fp32") { Precision::Fp32 } else { Precision::Fp64 };
    let nodes: Vec<u32> = match args.text("--nodes") {
        None => vec![1, 2, 4, 16, 64],
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim().parse::<u32>().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    cli::bad_input(format!("--nodes: `{s}` is not a positive node count"))
                })
            })
            .collect(),
    };
    if nodes.is_empty() || nodes.windows(2).any(|w| w[0] >= w[1]) {
        cli::bad_input("--nodes must be a strictly increasing, non-empty list");
    }

    let net = network.network();
    let local = scaling_curve(m, &net, kernel, mode, precision, &nodes);
    let points = match args.text("--serve") {
        None => local,
        Some(addr) => {
            let request = Json::obj(vec![
                ("id", Json::Num(1.0)),
                ("op", Json::str("cluster")),
                ("machine", Json::str(m.token())),
                ("kernel", Json::str(kernel.label())),
                ("network", Json::str(network.label())),
                ("mode", Json::str(mode.token())),
                ("precision", Json::str(precision.label())),
                ("nodes", Json::Arr(nodes.iter().map(|&n| Json::Num(n as f64)).collect())),
            ]);
            let result = cli::Conn::open(addr).result(&request);
            let Some(points) = result.get("points") else {
                cli::fail(format!("no result.points in reply: {}", result.render()));
            };
            let served = curve_from_json(points)
                .unwrap_or_else(|e| cli::fail(format!("served curve does not parse: {e}")));
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
                cli::fail("served curve DIVERGES from the local library computation");
            }
            served
        }
    };

    if args.has("--json") {
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
/// snapshot via `--check`.
fn top(args: &cli::Args) -> ! {
    if let Some(path) = args.text("--check") {
        cli::check_document(path, rvhpc_obs::METRICS_SCHEMA, rvhpc_obs::validate_metrics);
    }
    let addr = match args.operands.as_slice() {
        [addr] => addr,
        [] => args.usage_error("an address (or --check <path>) is required"),
        _ => args.usage_error("more than one address given"),
    };
    let frames = if args.has("--once") { Some(1) } else { args.get("--frames") };
    let interval = Duration::from_millis(args.get("--interval-ms").unwrap_or(1000));
    let mut conn = cli::Conn::open(addr);
    let metrics_req = Json::obj(vec![("op", Json::str("metrics"))]);
    let slow_req = Json::obj(vec![("op", Json::str("slow_requests")), ("limit", Json::Num(5.0))]);
    let mut frame = 0u64;
    loop {
        frame += 1;
        let metrics = conn.result(&metrics_req);
        if let Err(e) = rvhpc_obs::validate_metrics(&metrics.render()) {
            cli::fail(format!("server returned a schema-invalid metrics document: {e}"));
        }
        let slow = conn.result(&slow_req);
        if args.has("--json") {
            let mut text = metrics.pretty();
            text.push('\n');
            print!("{text}");
        } else {
            if frames != Some(1) {
                // Clear and re-home between live frames only.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_top_frame(addr, frame, &metrics, &slow));
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

/// Print every paper number next to the model's, with the total, and
/// every ordering the paper states: [`rvhpc::fidelity::score`], as
/// markdown or (`--json`) as the `rvhpc-fidelity-v1` document. `--check`
/// scores this build against a saved document instead.
fn calibrate(args: &cli::Args) {
    use rvhpc::fidelity;
    if let Some(path) = args.text("--check") {
        cli::check_document(path, fidelity::SCHEMA, no_fidelity_regression);
    }
    let score = fidelity::score(Model::paper());
    if args.has("--json") {
        println!("{}", score.to_json().pretty());
    } else {
        print!("{}", score.to_markdown());
    }
    rvhpc::perfmodel::persist::flush();
}

/// `Ok` when this build's score has no [`rvhpc::fidelity::Regression`]
/// against the pinned document `text`; the error lists them by id.
fn no_fidelity_regression(text: &str) -> Result<(), String> {
    let pinned = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let regressions = rvhpc::fidelity::score(Model::paper()).regressions(&pinned);
    if regressions.is_empty() {
        return Ok(());
    }
    let listed: Vec<String> = regressions.iter().map(ToString::to_string).collect();
    Err(format!("{} regression(s): {}", listed.len(), listed.join("; ")))
}

fn native(positional: &[&str]) {
    let scale = match positional.get(1) {
        None => 0.01,
        Some(s) => cli::pos_num(s).unwrap_or_else(|| {
            cli::bad_input(format!("scale must be a positive finite number, got `{s}`"))
        }),
    };
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
