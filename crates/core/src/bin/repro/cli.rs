//! The argument layer of `repro`. Every subcommand declares one [`Spec`]:
//! a table of flags, each with its value kind and help text. [`parse`]
//! builds from that table the unknown-flag, missing-value, required-flag
//! and range errors, and [`help`] builds `repro help` from the same rows.
//!
//! Every subcommand exits through one contract: 0 ok, 1 runtime failure or
//! invalid document ([`fail`]), 2 usage error, unknown schema or unreadable
//! file ([`bad_input`]), 3 findings or rejected.

use rvhpc::kernels::KernelName;
use rvhpc::machines::MachineId;
use rvhpc_serve::LineConn;
use rvhpc_trace::json::Json;
use std::fmt::{Display, Write as _};
use std::io::ErrorKind;
use std::time::Duration;

/// How a flag's value is read and range-checked. The `&str` is the value's
/// placeholder in usage and help text.
#[derive(Clone, Copy)]
enum Kind {
    /// No value: the flag's presence is the setting.
    Switch,
    /// Any string, such as a path or an address.
    Text(&'static str),
    /// An integer >= 1.
    Pos(&'static str),
    /// An integer >= 0.
    NonNeg(&'static str),
    /// A finite number > 0.
    PosNum(&'static str),
    /// A finite number >= 0.
    NonNegNum(&'static str),
    /// A finite number of seconds > 0 that fits a `Duration`.
    Seconds,
    /// A seed, decimal or 0x-hex.
    Seed,
    /// One of these words, matched case-insensitively.
    Words(&'static [&'static str]),
}

/// One row of a subcommand's flag table.
struct Flag {
    name: &'static str,
    kind: Kind,
    required: bool,
    help: &'static str,
}

const fn opt(name: &'static str, kind: Kind, help: &'static str) -> Flag {
    Flag { name, kind, required: false, help }
}

const fn req(name: &'static str, kind: Kind, help: &'static str) -> Flag {
    Flag { name, kind, required: true, help }
}

/// One subcommand: the word that selects it, the operands it takes besides
/// flags (empty for none), what it does, and its flag table.
pub struct Spec {
    pub name: &'static str,
    operands: &'static str,
    about: &'static str,
    flags: &'static [Flag],
}

use Kind::*;

/// The artefact commands (`all`, `fig1`, `explain`, ...) and the flags that
/// apply to them; selected when no other subcommand is named.
const ARTEFACTS: Spec = Spec {
    name: "",
    operands: "<command>",
    about: "",
    flags: &[
        opt("--csv", Switch, "CSV instead of markdown"),
        opt("--json", Switch, "JSON instead of markdown"),
        opt("--chart", Switch, "ASCII bar chart (figures only); the last format flag wins"),
        opt(
            "--trace",
            Switch,
            "record spans/counters, write trace-<cmd>.json, print the metrics table to stderr",
        ),
    ],
};

/// The artefact commands' help rows: they take operands, not flags.
const ARTEFACT_COMMANDS: &[(&str, &str)] = &[
    ("all", "every artefact, markdown to stdout"),
    ("fig1..fig7", "one figure"),
    ("table1..table4", "one table"),
    ("nextgen", "the conclusion's what-if machine"),
    ("machines", "modelled machine inventory"),
    ("kernel <label>", "one kernel's model view (e.g. Basic_DAXPY)"),
    ("explain <machine> <kernel> [fp32|fp64] [threads]", "component breakdown of one estimate"),
    ("calibrate", "headline ratios vs the paper's quoted numbers"),
    ("native [scale]", "run the real kernels on this host (scale > 0, default 0.01)"),
    ("help", "this text"),
];

/// Every subcommand with a flag table, in `repro help` order.
const COMMANDS: [&Spec; 9] = [
    &Spec {
        name: "verify",
        operands: "",
        about: "cross-check every redundant code path pair under seed-reproducible random inputs (RVV interpreter vs scalar reference, analytic vs trace cache model, parallel vs serial executors, perfmodel metamorphic properties); failures write a replayable artefact",
        flags: &[
            opt("--seed", Seed, "base seed (default: RVHPC_SEED, else the built-in seed)"),
            opt("--cases", NonNeg("M"), "cases per oracle (default 200)"),
            opt("--inject", Words(&["none", "reduction-op", "drop-vsetvli"]), "plant a known bug to prove the oracles catch it"),
            opt("--replay", Text("<file>"), "rerun the one case a failure artefact recorded"),
        ],
    },
    &Spec {
        name: "lint",
        operands: "",
        about: "static dataflow lint over generated RVV programs (v1.0 and their v0.7.1 rollbacks) and machine descriptors",
        flags: &[
            opt("--machine", Text("<m>"), "lint one machine descriptor only"),
            opt("--kernel", Text("<label>"), "lint one kernel's generated programs only"),
            opt("--asm", Text("<file>"), "lint one assembly file instead (v1.0, else v0.7.1)"),
            opt("--env", Text("<file>"), "calling convention for the --asm file"),
            opt("--report", Switch, "add inferred resource bounds (rvhpc-analysis-v1 reports)"),
            opt("--json", Switch, "print the run as one rvhpc-lint-v1 document"),
            opt("--check", Text("<path>"), "validate a saved rvhpc-lint-v1 document instead"),
        ],
    },
    &Spec {
        name: "serve",
        operands: "",
        about: "serve estimate, explain, suite, submit_kernel, submit_machine and lint_machine queries over line-delimited JSON on TCP from one epoll event loop (Linux), with bounded admission, batched execution on the server's own batcher thread, and graceful drain on `shutdown` or SIGTERM",
        flags: &[
            opt("--addr", Text("<ip:port>"), "listen address (port 0 picks a free one)"),
            opt("--queue-cap", Pos("N"), "admission queue capacity"),
            opt("--batch-max", Pos("N"), "most requests per batch"),
            opt("--batch-window-us", Pos("U"), "how long a batch collects requests"),
            opt("--port-file", Text("<path>"), "write the bound address here"),
            opt("--slo-ms", NonNegNum("MS"), "tail-sample requests slower than this"),
            opt("--metrics-file", Text("<path>"), "keep a bounded on-disk metrics-snapshot ring"),
            opt("--scrape-every-ms", Pos("MS"), "metrics-file snapshot period"),
            opt("--max-conns", Pos("N"), "connection admission cap"),
            opt("--idle-timeout-ms", NonNeg("MS"), "disconnect idle clients (0: never)"),
            opt("--max-outbox-kb", Pos("N"), "per-connection write buffer cap"),
            opt("--max-fuel", Pos("N"), "interpreter fuel ceiling for admitted kernels"),
        ],
    },
    &Spec {
        name: "submit",
        operands: "",
        about: "submit one RVV kernel to a running server's lint-gated admission pipeline (`submit_kernel`) and print the rvhpc-analysis-v1 admission report",
        flags: &[
            req("--addr", Text("<ip:port>"), "server address"),
            req("--asm", Text("<file>"), "the kernel's RVV assembly"),
            opt("--env", Text("<file>"), "its calling convention (a JSON object)"),
            opt("--estimate", Switch, "run the admitted kernel twice; the replies must be bit-identical"),
        ],
    },
    &Spec {
        name: "loadgen",
        operands: "",
        about: "drive a running server with N closed-loop clients and verify replies bit-identically against the local model",
        flags: &[
            req("--addr", Text("<ip:port>"), "server or fleet router address"),
            opt("--clients", Pos("N"), "closed-loop clients"),
            opt("--requests", NonNeg("M"), "requests per client"),
            opt("--rps", NonNegNum("R"), "aggregate pacing rate (0: unpaced)"),
            opt("--duration", Seconds, "stop after S seconds (without --requests: only then)"),
            opt("--seed", NonNeg("N"), "query-mix seed"),
            opt("--json", Text("<path>"), "write the SERVE-BENCH artefact"),
            opt("--probe-bad", Switch, "send one malformed line; expect a bad_request reply"),
            opt("--shutdown", Switch, "ask the server to drain after the run"),
            opt("--slo-ms", PosNum("MS"), "gate the exit code on p99"),
            opt("--poll-metrics-ms", NonNeg("MS"), "poll and schema-check the metrics op"),
            opt("--open-loop", Switch, "wall-clock-paced sends (needs --rps and --connections)"),
            opt("--connections", Pos("N"), "open-loop connections"),
            opt("--shards", Pos("N"), "cross-check a fleet router's shard count"),
            opt("--target-list", Text("a:p,b:p,..."), "record per-shard request and cache attribution"),
        ],
    },
    &Spec {
        name: "fleet",
        operands: "",
        about: "spawn N serve shards behind one consistent-hash router address; dead shards are respawned under the same ring identity; stats/metrics requests are aggregated fleet-wide; drains on SIGTERM or a `shutdown` request",
        flags: &[
            req("--shards", Pos("N"), "shard processes"),
            opt("--addr", Text("<ip:port>"), "router listen address"),
            opt("--port-file", Text("<path>"), "write the router address here"),
            opt("--shards-file", Text("<path>"), "write one `index pid addr` line per shard"),
            opt("--seed", NonNeg("N"), "seed for the router's retry jitter"),
        ],
    },
    &Spec {
        name: "fleet-bench",
        operands: "",
        about: "spawn a fleet, warm every shard's partition, measure routing and per-shard hit rates, SIGKILL one shard mid-run (requests must survive via the ring successor, bit-identically), respawn it, and serve the cluster scaling curves",
        flags: &[
            opt("--shards", Pos("N"), "shards (at least 2)"),
            opt("--clients", Pos("N"), "closed-loop clients"),
            opt("--requests", NonNeg("M"), "measured requests per client"),
            opt("--seed", NonNeg("N"), "query-mix and jitter seed"),
            opt("--kill-shard", NonNeg("I"), "the shard to SIGKILL (below --shards)"),
            opt("--json", Text("<path>"), "write the FLEET-BENCH artefact"),
            opt("--check", Text("<path>"), "validate a saved FLEET-BENCH artefact instead"),
        ],
    },
    &Spec {
        name: "cluster",
        operands: "",
        about: "weak/strong-scaling curves over the Hockney \u{3b1}\u{2013}\u{3b2} interconnect models",
        flags: &[
            req("--machine", Text("<m>"), "node machine"),
            req("--kernel", Text("<k>"), "kernel label"),
            req("--network", Text("<net>"), "interconnect"),
            req("--mode", Words(&["weak", "strong"]), "scaling mode"),
            opt("--precision", Words(&["fp32", "fp64"]), "precision (default fp64)"),
            opt("--nodes", Text("1,2,..."), "strictly increasing node counts"),
            opt("--serve", Text("<ip:port>"), "fetch the curve from a server or fleet; it must match the library bit for bit"),
            opt("--json", Switch, "JSON instead of markdown"),
        ],
    },
    &Spec {
        name: "top",
        operands: "<addr>",
        about: "live dashboard over a running server's `metrics` op: per-stage rates and percentiles, gauges, SLO burn",
        flags: &[
            opt("--interval-ms", Pos("N"), "time between frames"),
            opt("--frames", Pos("N"), "stop after N frames"),
            opt("--once", Switch, "print one frame"),
            opt("--json", Switch, "print the raw rvhpc-metrics-v1 document"),
            opt("--check", Text("<path>"), "validate a saved rvhpc-metrics-v1 snapshot instead"),
        ],
    },
];

const EXIT_CODES: &str = "exit codes:
  0  success
  1  runtime failure; loadgen exits 1 on any protocol error or SLO failure;
     --check: exit 1 invalid document
  2  usage error; --check: exit 2 unknown schema version or unreadable file
  3  lint exits 3 when any finding is reported; submit exits 3 when rejected
environment:
  RVHPC_CACHE_DIR=<dir>   persist estimates on disk so later runs (and
                          serve restarts) start warm";

/// A subcommand's parsed command line.
pub struct Args {
    pub spec: &'static Spec,
    /// Each given flag with its checked value (empty for a switch), in
    /// command-line order.
    values: Vec<(&'static str, String)>,
    pub operands: Vec<String>,
}

/// Pick the subcommand `argv[0]` names (the artefact commands when none
/// does) and parse the rest against its table. Exits 2 on a usage error.
pub fn parse(argv: &[String]) -> Args {
    let named = argv.first().and_then(|a| COMMANDS.into_iter().find(|s| s.name == a.as_str()));
    let (spec, rest) = match named {
        Some(spec) => (spec, &argv[1..]),
        None => (&ARTEFACTS, argv),
    };
    let mut args = Args { spec, values: Vec::new(), operands: Vec::new() };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let Some(flag) = spec.flags.iter().find(|f| f.name == a.as_str()) else {
            if a.starts_with("--") || spec.operands.is_empty() {
                let cmd = if spec.name.is_empty() { "repro" } else { spec.name };
                args.usage_error(format!("unknown {cmd} argument `{a}`"));
            }
            args.operands.push(a.clone());
            continue;
        };
        let value = match flag.kind {
            Switch => String::new(),
            kind => {
                let Some(v) = it.next() else {
                    args.usage_error(format!("{} needs a value", flag.name));
                };
                kind.read(flag.name, v).unwrap_or_else(|e| args.usage_error(e))
            }
        };
        args.values.push((flag.name, value));
    }
    if let Some(f) = spec.flags.iter().find(|f| f.required && !args.has(f.name)) {
        args.usage_error(format!("{} is required", f.name));
    }
    args
}

/// `v` as an integer >= 1.
pub fn pos_int(v: &str) -> Option<u64> {
    v.parse().ok().filter(|&n| n >= 1)
}

/// `v` as a finite number > 0.
pub fn pos_num(v: &str) -> Option<f64> {
    v.parse().ok().filter(|x: &f64| x.is_finite() && *x > 0.0)
}

impl Kind {
    /// Check `v` and return it in the form [`Args::get`] parses back:
    /// integers in decimal, words spelled as in the table.
    fn read(self, flag: &str, v: &str) -> Result<String, String> {
        let (checked, what) = match self {
            Switch | Text(_) => return Ok(v.to_string()),
            Pos(_) => (pos_int(v).map(|n| n.to_string()), "a positive integer".into()),
            NonNeg(_) => {
                (v.parse::<u64>().ok().map(|n| n.to_string()), "a non-negative integer".into())
            }
            PosNum(_) => (pos_num(v).map(|_| v.to_string()), "a positive finite number".into()),
            NonNegNum(_) => (
                v.parse().ok().filter(|x: &f64| x.is_finite() && *x >= 0.0).map(|_| v.to_string()),
                "a non-negative finite number".into(),
            ),
            Seconds => (
                pos_num(v).and_then(|s| Duration::try_from_secs_f64(s).ok()).map(|_| v.to_string()),
                "a positive finite number of seconds".into(),
            ),
            Seed => (
                rvhpc_quickprop::parse_seed(v).map(|n| n.to_string()),
                "a decimal or 0x-hex seed".into(),
            ),
            Words(words) => (
                words.iter().find(|w| w.eq_ignore_ascii_case(v)).map(|w| w.to_string()),
                format!("one of {}", words.join(", ")),
            ),
        };
        checked.ok_or_else(|| format!("{flag} must be {what}, got `{v}`"))
    }

    fn placeholder(self) -> String {
        match self {
            Switch => String::new(),
            Text(p) | Pos(p) | NonNeg(p) | PosNum(p) | NonNegNum(p) => format!(" {p}"),
            Seconds => " S".to_string(),
            Seed => " N".to_string(),
            Words(words) => format!(" {}", words.join("|")),
        }
    }
}

impl Spec {
    /// The one-line usage this subcommand prints on a usage error.
    fn usage(&self) -> String {
        let mut out = String::from("usage: repro");
        for part in [self.name, self.operands] {
            if !part.is_empty() {
                let _ = write!(out, " {part}");
            }
        }
        for f in self.flags {
            let (open, close) = if f.required { ("", "") } else { ("[", "]") };
            let _ = write!(out, " {open}{}{}{close}", f.name, f.kind.placeholder());
        }
        out
    }

    fn push_flag_rows(&self, out: &mut String) {
        for f in self.flags {
            let required = if f.required { " (required)" } else { "" };
            let head = format!("    {}{}", f.name, f.kind.placeholder());
            push_wrapped(out, &head, &format!("{}{required}", f.help));
        }
    }
}

/// Append `head` and then `text` word-wrapped in a column from 26 to 80.
fn push_wrapped(out: &mut String, head: &str, text: &str) {
    const COL: usize = 26;
    let mut line = format!("{head:<COL$}");
    if head.chars().count() >= COL - 1 {
        let _ = writeln!(out, "{head}");
        line = " ".repeat(COL);
    }
    for word in text.split_whitespace() {
        if line.chars().count() + word.chars().count() > 80 && !line.trim().is_empty() {
            let _ = writeln!(out, "{}", line.trim_end());
            line = " ".repeat(COL);
        }
        let _ = write!(line, "{word} ");
    }
    let _ = writeln!(out, "{}", line.trim_end());
}

/// The `repro help` text, built from the flag tables.
pub fn help() -> String {
    let mut out = format!("{}\ncommands:\n", ARTEFACTS.usage());
    for (cmd, about) in ARTEFACT_COMMANDS {
        push_wrapped(&mut out, &format!("  {cmd}"), about);
    }
    for spec in COMMANDS {
        let head = format!("  {} {}", spec.name, spec.operands);
        push_wrapped(&mut out, head.trim_end(), spec.about);
        spec.push_flag_rows(&mut out);
    }
    out.push_str("flags:\n");
    ARTEFACTS.push_flag_rows(&mut out);
    out.push_str(EXIT_CODES);
    out
}

impl Args {
    /// The flag's checked value, if it was given (empty for a switch).
    pub fn text(&self, name: &str) -> Option<&str> {
        assert!(
            self.spec.flags.iter().any(|f| f.name == name),
            "`{name}` is not in the `{}` flag table",
            self.spec.name
        );
        self.values.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The flag's checked value as a number: integer kinds parse as `u64`
    /// or `usize`, number kinds as `f64`.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.text(name)?.parse().ok()
    }

    /// Which of `names` was given last (for flags where the last one wins).
    pub fn last_of(&self, names: &[&str]) -> Option<&'static str> {
        self.values.iter().rev().map(|(n, _)| *n).find(|n| names.contains(n))
    }

    /// Print `msg` and this subcommand's usage line, then exit 2.
    pub fn usage_error(&self, msg: impl Display) -> ! {
        bad_input(format_args!("{msg}\n{}", self.spec.usage()))
    }
}

/// Print `msg` and exit 1: a runtime failure or an invalid document.
pub fn fail(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Print `msg` and exit 2: a usage error, an unknown schema or an
/// unreadable file.
pub fn bad_input(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Read a file named on the command line; exit 2 when it cannot be read.
pub fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| bad_input(format!("cannot read {path}: {e}")))
}

/// Write a file named on the command line; exit 1 when it cannot be written.
pub fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(format!("cannot write {path}: {e}"));
    }
}

/// Validate `doc` with `validate`, then write it to `path`; exit 1 rather
/// than write an invalid artefact.
pub fn write_artefact(path: &str, doc: &Json, validate: fn(&str) -> Result<(), String>) {
    let mut text = doc.pretty();
    text.push('\n');
    if let Err(e) = validate(&text) {
        fail(format!("refusing to write an invalid artefact: {e}"));
    }
    write_file(path, &text);
    eprintln!("wrote {path}");
}

/// `--check <path>`: exit 0 when the file is a valid `schema` document,
/// 1 when it carries that schema tag but `validate` rejects it, and 2 when
/// its schema tag is unknown or missing or the file cannot be read.
pub fn check_document(path: &str, schema: &str, validate: fn(&str) -> Result<(), String>) -> ! {
    let text = read_file(path);
    let embedded = Json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("schema").and_then(|s| s.as_str().map(String::from)));
    match embedded.as_deref() {
        Some(s) if s == schema => {}
        Some(other) => {
            bad_input(format!("{path}: unknown schema version `{other}` (expected `{schema}`)"))
        }
        None => bad_input(format!("{path}: no `schema` tag found (expected `{schema}`)")),
    }
    match validate(&text) {
        Ok(()) => {
            println!("{path}: valid {schema} document");
            std::process::exit(0)
        }
        Err(e) => fail(format!("{path}: INVALID {schema} document — {e}")),
    }
}

/// One line-delimited JSON connection to a server: each [`Conn::result`]
/// writes one request line and reads one reply line.
pub struct Conn {
    addr: String,
    conn: LineConn,
}

impl Conn {
    /// Connect to `addr`; exit 1 when it cannot be reached.
    pub fn open(addr: &str) -> Conn {
        let conn = LineConn::connect(addr, Duration::from_secs(30))
            .unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")));
        Conn { addr: addr.to_string(), conn }
    }

    /// Send `request` and return the reply's `result`. Exits 1 when the
    /// connection fails or closes, the reply does not parse, or the server
    /// does not answer `ok`.
    pub fn result(&mut self, request: &Json) -> Json {
        let addr = &self.addr;
        let doc = self.conn.request(&request.render()).unwrap_or_else(|e| match e.kind() {
            ErrorKind::InvalidData => fail(format!("bad reply from {addr}: {e}")),
            _ => fail(format!("server at {addr} went away: {e}")),
        });
        if doc.get("ok") != Some(&Json::Bool(true)) {
            fail(format!("server refused the request: {}", doc.render()));
        }
        doc.get("result").cloned().unwrap_or(Json::Null)
    }
}

/// Every machine token, for error messages.
pub fn machine_tokens() -> String {
    MachineId::CATALOG.map(MachineId::token).join(", ")
}

/// A machine named on the command line (case-insensitive); exit 2 naming
/// the known tokens when there is none by that name.
pub fn machine_arg(token: &str) -> MachineId {
    MachineId::from_token(&token.to_lowercase()).unwrap_or_else(|| {
        bad_input(format!("unknown machine `{token}`; known: {}", machine_tokens()))
    })
}

/// A kernel named on the command line; exit 2 when there is none by that
/// label.
pub fn kernel_arg(label: &str) -> KernelName {
    KernelName::from_label(label).unwrap_or_else(|| {
        bad_input(format!("unknown kernel `{label}`; labels are e.g. Basic_DAXPY, Stream_TRIAD"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flag names each `repro help` section lists, keyed by the
    /// section's first word (`flags:` for the artefact flags).
    fn help_sections() -> Vec<(String, Vec<String>)> {
        let mut sections: Vec<(String, Vec<String>)> = Vec::new();
        for line in help().lines() {
            let first = line.split_whitespace().next().unwrap_or("").to_string();
            if line.starts_with("    --") {
                sections.last_mut().expect("a section precedes its flags").1.push(first);
            } else if !line.starts_with("   ") {
                sections.push((first, Vec::new()));
            }
        }
        sections
    }

    #[test]
    fn help_sections_and_usage_lines_agree_with_the_tables() {
        let sections = help_sections();
        for spec in COMMANDS.into_iter().chain([&ARTEFACTS]) {
            let key = if spec.name.is_empty() { "flags:" } else { spec.name };
            let mut listed = sections.iter().filter(|(name, _)| name == key).map(|(_, f)| f);
            let (Some(listed), None) = (listed.next(), listed.next()) else {
                panic!("`{key}` needs exactly one help section");
            };
            let table: Vec<&str> = spec.flags.iter().map(|f| f.name).collect();
            assert_eq!(listed, &table, "`{key}`'s help section disagrees with its table");
            assert!(table.iter().enumerate().all(|(i, f)| !table[..i].contains(f)), "{key}");
            let usage = spec.usage();
            let named: Vec<&str> =
                usage.split([' ', '[', ']']).filter(|t| t.starts_with("--")).collect();
            assert_eq!(named, table, "`{key}`'s usage line disagrees with its table");
        }
    }

    /// Every word a `Words` row accepts resolves where its command reads it.
    #[test]
    fn word_rows_resolve_where_they_are_read() {
        let words = |cmd: &str, flag: &str| {
            let spec = COMMANDS.into_iter().find(|s| s.name == cmd).expect("a command");
            match spec.flags.iter().find(|f| f.name == flag).map(|f| f.kind) {
                Some(Words(words)) => words,
                _ => panic!("`{cmd} {flag}` is not a Words row"),
            }
        };
        for w in words("verify", "--inject") {
            assert!(rvhpc::verify::Fault::from_token(w).is_some(), "{w}");
        }
        for w in words("cluster", "--mode") {
            assert!(rvhpc::cluster::ScalingMode::from_token(w).is_some(), "{w}");
        }
    }

    #[test]
    fn kinds_reject_out_of_range_values() {
        for (kind, bad) in [
            (Pos("N"), "0"),
            (NonNeg("N"), "-1"),
            (PosNum("N"), "0"),
            (NonNegNum("R"), "-1"),
            (NonNegNum("R"), "inf"),
            (Seconds, "-1"),
            (Seconds, "nan"),
            (Seconds, "1e300"),
            (Seed, "zzz"),
            (Words(&["weak", "strong"]), "medium"),
        ] {
            assert!(kind.read("--f", bad).is_err(), "`{bad}` must be rejected");
        }
        assert_eq!(Words(&["weak"]).read("--f", "WEAK"), Ok("weak".to_string()));
        assert_eq!(Seed.read("--f", "0x10"), Ok("16".to_string()));
    }
}
