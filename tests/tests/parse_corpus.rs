//! The request parser, line for line: a seeded corpus of request lines,
//! valid and hostile, and the FNV-1a digest of what `parse_request` makes of
//! each — the echoed `id` as rendered and the `Debug` text of the result,
//! error message included. A change to how a line is read must leave the
//! digest as it is; a change to what the protocol accepts re-pins it on
//! purpose.
//!
//! The corpus covers every op and every estimate key dimension over the
//! catalog, and the hostile shapes a reader is most likely to get wrong:
//! `\u` escapes in keys and values, a machine token spelled with U+212A
//! KELVIN SIGN (which `to_lowercase` folds to `k`), duplicate keys, object
//! and array ids, wrong-typed fields, `1e2`/`-0`/`1.5` thread counts,
//! unknown fields ahead of a later syntax error, truncated lines, trailing
//! garbage and over-long lines.

use rvhpc_kernels::{KernelClass, KernelName};
use rvhpc_machines::{machine, MachineId, PlacementPolicy};
use rvhpc_quickprop::Gen;
use rvhpc_serve::protocol::{parse_request, MAX_LINE_BYTES};

/// Lines in the corpus.
const LINES: usize = 12_000;

/// The digest of the whole corpus, and how many of its lines parse.
const GOLDEN_DIGEST: u64 = 0xacf8_e059_8026_29e6;
const GOLDEN_OK: usize = 5300;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A JSON string literal for `s` (quotes and backslashes escaped only).
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `s` with one ASCII character, if it has any, written as a `\u` escape.
fn escape_one(g: &mut Gen, s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    let ascii: Vec<usize> =
        (0..chars.len()).filter(|&i| chars[i].is_ascii_alphanumeric()).collect();
    if ascii.is_empty() {
        return quoted(s);
    }
    let at = *g.choose(&ascii);
    let mut out = String::from("\"");
    for (i, c) in chars.iter().enumerate() {
        if i == at {
            out.push_str(&format!("\\u{:04x}", *c as u32));
        } else {
            out.push(*c);
        }
    }
    out.push('"');
    out
}

/// A string value: usually plain, sometimes with one `\u` escape.
fn string(g: &mut Gen, s: &str) -> String {
    if g.bool_with(0.1) {
        escape_one(g, s)
    } else {
        quoted(s)
    }
}

fn ws(g: &mut Gen) -> &'static str {
    const WS: [&str; 8] = ["", "", "", " ", " ", "\t", "\n ", "\r\n"];
    WS[g.usize_in(0..=WS.len() - 1)]
}

fn machine_value(g: &mut Gen) -> (Option<MachineId>, String) {
    match g.usize_in(0..=19) {
        0 => (
            None,
            (*g.choose(&["\"nope\"", "\"\"", "5", "null", "[\"sg2042\"]", "\"m:ff\""])).to_string(),
        ),
        1 => (Some(MachineId::IntelIcelake), "\"intel-icela\\u212Ae\"".to_string()),
        2 => (Some(MachineId::IntelIcelake), "\"intel-icela\u{212A}e\"".to_string()),
        3 => {
            let id = *g.choose(&MachineId::CATALOG);
            (Some(id), quoted(&id.token().to_uppercase()))
        }
        4 => (None, "\"m:0123456789abcdef\"".to_string()),
        _ => {
            let id = *g.choose(&MachineId::CATALOG);
            (Some(id), string(g, id.token()))
        }
    }
}

fn kernel_value(g: &mut Gen) -> String {
    match g.usize_in(0..=24) {
        0 => (*g.choose(&["\"Nope_X\"", "\"basic_daxpy\"", "7", "null", "\"\""])).to_string(),
        1 => (*g.choose(&["\"k:00\"", "\"k:0123456789abcdef\""])).to_string(),
        _ => {
            let k = *g.choose(&KernelName::ALL);
            string(g, k.label())
        }
    }
}

fn threads_value(g: &mut Gen, cores: usize) -> String {
    match g.usize_in(0..=9) {
        0 => (*g.choose(&[
            "1e2",
            "-0",
            "1.5",
            "0",
            "-1",
            "1E1",
            "4.0",
            "\"4\"",
            "true",
            "1e15",
            "99999999999999999",
            "null",
            "[4]",
            "{\"n\":4}",
            "0.0",
            "2e0",
            "-0.0",
        ]))
        .to_string(),
        _ => g.usize_in(1..=cores).to_string(),
    }
}

fn pick<'a>(g: &mut Gen, valid: &[&'a str], hostile: &[&'a str]) -> String {
    if g.bool_with(0.85) {
        let v = *g.choose(valid);
        if v.starts_with('"') && g.bool_with(0.1) {
            return escape_one(g, &v[1..v.len() - 1]);
        }
        v.to_string()
    } else {
        (*g.choose(hostile)).to_string()
    }
}

fn id_value(g: &mut Gen) -> Option<String> {
    Some(match g.usize_in(0..=13) {
        0 | 1 => return None,
        2..=5 => g.i64_in(-5..=100_000).to_string(),
        6 => {
            let n = g.u64_in(0..=999);
            string(g, &format!("req-{n}"))
        }
        7 => "null".to_string(),
        8 => (*g.choose(&["1.5", "-0", "1e3", "true", "false", "\"\\u00e9\\n\""])).to_string(),
        9 => "{\"b\":1,\"a\":[1,\"x\",null],\"b\":2}".to_string(),
        10 => "[1,[2,{\"k\":\"v\"}],\"\\u0041\"]".to_string(),
        11 => "{}".to_string(),
        12 => "[]".to_string(),
        _ => g.u64_in(0..=u64::from(u32::MAX)).to_string(),
    })
}

const ASM: [&str; 4] = [
    "\"    ret\\n\"",
    "\"loop:\\n    vsetvli x5, x10, e32, m1, ta, ma\\n    vle32.v v1, (x11)\\n    ret\\n\"",
    "\"vadd.vv v1, v2, v2\\n\\tret\"",
    "\"\\u0072et\"",
];

const PLACEMENTS: [&str; 3] = ["\"block\"", "\"cyclic\"", "\"cluster\""];

/// The members of one request of the given op, valid more often than not.
fn members(g: &mut Gen, op: &str) -> Vec<(String, String)> {
    let mut m: Vec<(String, String)> = Vec::new();
    let mut push = |k: &str, v: String| m.push((k.to_string(), v));
    let (mid, mval) = machine_value(g);
    let cores = mid.map_or(64, |id| machine(id).n_cores());
    let opt = |g: &mut Gen, p: f64| g.bool_with(p);
    match op {
        "estimate" | "explain" | "suite" => {
            push("machine", mval);
            if op != "suite" {
                push("kernel", kernel_value(g));
            } else if opt(g, 0.5) {
                let class = *g.choose(&KernelClass::ALL);
                push("class", pick(g, &[&quoted(class.label())], &["\"STREAM\"", "5", "\"nope\""]));
            }
            if opt(g, 0.6) {
                push("precision", pick(g, &["\"fp32\"", "\"fp64\""], &["32", "\"FP32\"", "null"]));
            }
            if opt(g, 0.8) {
                push("threads", threads_value(g, cores));
            }
            if opt(g, 0.4) {
                push("vectorize", pick(g, &["true", "false"], &["1", "\"yes\"", "null"]));
            }
            if opt(g, 0.4) {
                push("mode", pick(g, &["\"vls\"", "\"vla\""], &["\"mvl\"", "true"]));
            }
            if opt(g, 0.5) {
                let policy = g.choose(&PlacementPolicy::ALL).label();
                let valid = format!("\"{policy}\"");
                push("placement", pick(g, &[&valid, PLACEMENTS[0]], &["\"Block\"", "5", "null"]));
            }
            if op == "estimate" && opt(g, 0.3) {
                push("deadline_ms", pick(g, &["250", "1", "60000"], &["0", "-1", "1.5", "\"x\""]));
            }
        }
        "submit_kernel" => {
            if opt(g, 0.9) {
                push("asm", pick(g, &ASM, &["5", "null", "[\"ret\"]"]));
            }
            if opt(g, 0.5) {
                push(
                    "env",
                    pick(
                        g,
                        &["{\"x\":{\"10\":64},\"f\":[0]}", "{\"f\":[0],\"x\":{\"10\":64}}", "null"],
                        &["[1]", "\"x\"", "{\"x\":}"],
                    ),
                );
            }
        }
        "submit_machine" if opt(g, 0.9) => {
            push(
                "descriptor",
                pick(
                    g,
                    &[
                        "{\"schema\":\"rvhpc-machine-v1\",\"base\":\"sg2042\",\"vector\":{\"width_bits\":256,\"family\":\"rvv10\"}}",
                        "{\"base\":\"sg2042\",\"schema\":\"rvhpc-machine-v1\",\"vector\":{\"family\":\"rvv10\",\"width_bits\":256}}",
                        "{\"schema\":\"x\",\"k\":1,\"k\":2}",
                    ],
                    &["\"text\"", "[1,2]", "null"],
                ),
            );
        }
        "lint_machine" => {
            push("machine", mval);
            if opt(g, 0.5) {
                push("clock_ghz", pick(g, &["2.5", "1", "3.0e0"], &["-1", "0", "\"2\""]));
            }
            if opt(g, 0.5) {
                push("memory_controllers", pick(g, &["8", "1"], &["1.5", "-2", "true"]));
            }
            if opt(g, 0.3) {
                push("bw_per_controller_gbs", pick(g, &["25.6"], &["0", "null"]));
            }
        }
        "cluster" => {
            push("machine", mval);
            push("kernel", kernel_value(g));
            if opt(g, 0.9) {
                push(
                    "network",
                    pick(g, &["\"ib-hdr\"", "\"1GbE\"", "\"IB-HDR\""], &["\"token-ring\"", "3"]),
                );
            }
            if opt(g, 0.9) {
                push("mode", pick(g, &["\"weak\"", "\"strong\""], &["\"diagonal\"", "false"]));
            }
            if opt(g, 0.5) {
                push("precision", pick(g, &["\"fp32\"", "\"fp64\""], &["\"fp16\""]));
            }
            if opt(g, 0.6) {
                push(
                    "nodes",
                    pick(
                        g,
                        &["[1,2,4,8]", "[1]", "[ 2 , 16 ]"],
                        &["[]", "[4,2]", "[0]", "[1.5]", "{\"a\":1}", "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33]"],
                    ),
                );
            }
        }
        "metrics" if opt(g, 0.6) => {
            push("format", pick(g, &["\"json\"", "\"prometheus\""], &["\"xml\"", "1"]));
        }
        "slow_requests" if opt(g, 0.6) => {
            push("limit", pick(g, &["3", "16"], &["0", "-2", "\"x\""]));
        }
        _ => {}
    }
    m
}

/// One request line, before any hostile mutation.
fn request(g: &mut Gen) -> String {
    const OPS: [&str; 12] = [
        "estimate",
        "explain",
        "suite",
        "submit_kernel",
        "submit_machine",
        "lint_machine",
        "cluster",
        "stats",
        "metrics",
        "slow_requests",
        "ping",
        "shutdown",
    ];
    let op = if g.bool_with(0.45) { "estimate" } else { *g.choose(&OPS) };
    let mut m = members(g, op);
    match g.usize_in(0..=29) {
        0 => {}
        1 => m.push((
            "op".to_string(),
            (*g.choose(&["7", "null", "\"frobnicate\"", "\"sleep\""])).to_string(),
        )),
        2 => m.push(("\\u006fp".to_string(), quoted(op))),
        _ => m.push(("op".to_string(), string(g, op))),
    }
    if let Some(id) = id_value(g) {
        m.push(("id".to_string(), id));
    }
    if g.bool_with(0.08) {
        let at = g.usize_in(0..=m.len());
        m.insert(
            at,
            ((*g.choose(&["bogus", "b\\u006fgus", "fuel", "ms"])).to_string(), "1".to_string()),
        );
    }
    if g.bool_with(0.08) && !m.is_empty() {
        // A duplicate key: the first occurrence must win.
        let (k, _) = m[g.usize_in(0..=m.len() - 1)].clone();
        let v = (*g.choose(&["\"fp32\"", "4", "\"sg2042\"", "true", "\"estimate\""])).to_string();
        let at = g.usize_in(0..=m.len());
        m.insert(at, (k, v));
    }
    // Shuffle the member order.
    for i in (1..m.len()).rev() {
        m.swap(i, g.usize_in(0..=i));
    }
    let mut line = String::from("{");
    line.push_str(ws(g));
    for (i, (k, v)) in m.iter().enumerate() {
        if i > 0 {
            line.push(',');
            line.push_str(ws(g));
        }
        line.push('"');
        line.push_str(k);
        line.push('"');
        line.push_str(ws(g));
        line.push(':');
        line.push_str(ws(g));
        line.push_str(v);
        line.push_str(ws(g));
    }
    line.push('}');
    line
}

/// A request line, possibly damaged.
fn line(g: &mut Gen, n: usize) -> String {
    let mut line = request(g);
    if n % 997 == 0 {
        // Over-long: one byte past the limit, and well past it.
        let pad = MAX_LINE_BYTES + 1 + (n % 3) * 512;
        return format!("{{\"op\":\"ping\",\"id\":\"{}\"}}", "x".repeat(pad.saturating_sub(21)));
    }
    match g.usize_in(0..=19) {
        0 => {
            // Truncated at a char boundary.
            let mut at = g.usize_in(0..=line.len() - 1);
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            line.truncate(at);
        }
        1 => line.push_str(g.choose::<&str>(&["x", " 1", "}", "]", ",", "  ", " {}", "\n"])),
        2 => {
            // An unknown field, then a syntax error later in the line.
            line.pop();
            line.push_str(g.choose::<&str>(&[
                ",\"bogus\":1,\"zz\":}",
                ",\"bogus\":1,\"zz\" 1}",
                ",\"bogus\":[1,]}",
            ]));
        }
        3 => line = format!("[{line}]"),
        4 => {
            line = (*g.choose(&[
                "",
                " ",
                "null",
                "1",
                "\"op\"",
                "[1,2]",
                "not json at all",
                "{\"op\":\"ping\"",
                "{\"op\":\"ping\",}",
                "{\"op\" \"ping\"}",
                "{op:\"ping\"}",
                "{\"op\":\"p\\xng\"}",
                "{\"op\":\"p\\u00\"}",
                "{\"op\":\"p\\u00€\"}",
                "{\"op\":\"\\ud800\"}",
                "{\"op\":tru}",
                "{\"op\":\"ping\",\"id\":01}",
                "{\"op\":\"ping\",\"id\":-}",
                "{\"op\":\"ping\",\"id\":+1}",
                "{\"op\":\"ping\",\"id\":.5}",
                "{\"op\":\"ping\",\"id\":1.}",
                "{\"op\":\"ping\",\"id\":1e}",
                "{\"op\":\"ping\",\"id\":NaN}",
                "{\"op\":\"ping\",\"id\":\"\\uD83D\\uDE00\"}",
                "{\"op\":\"ping\",\"id\":[1,{\"a\":[}]}",
                "{\"op\":\"ping\",\"id\":\"é€𝄞\"}",
                "{\"op\":\"ping\"}}",
                "{\"op\":\"ping\"} {}",
                "{\"\":1,\"op\":\"ping\"}",
                "{\"op\":\"ping\",\"id\":\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\"}",
            ]))
            .to_string();
        }
        _ => {}
    }
    line
}

#[test]
fn parse_request_digest_is_pinned() {
    let mut g = Gen::new(0x7061_7273_655f_7271);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let (mut ok, mut syntax, mut unknown_field) = (0, 0, 0);
    for n in 0..LINES {
        let line = line(&mut g, n);
        let (id, result) = parse_request(&line);
        match &result {
            Ok(_) => ok += 1,
            Err(e) if e.starts_with("not valid JSON") => syntax += 1,
            Err(e) if e.starts_with("unknown field") => unknown_field += 1,
            Err(_) => {}
        }
        digest = fnv1a(digest, id.render().as_bytes());
        digest = fnv1a(digest, b"\n");
        digest = fnv1a(digest, format!("{result:?}").as_bytes());
        digest = fnv1a(digest, b"\n");
    }
    // The corpus reaches every kind of outcome.
    assert!(ok > LINES / 3, "{ok} lines parsed");
    assert!(syntax > LINES / 20, "{syntax} syntax errors");
    assert!(unknown_field > 50, "{unknown_field} unknown fields");
    assert_eq!((digest, ok), (GOLDEN_DIGEST, GOLDEN_OK), "digest {digest:#018x}, {ok} parsed");
}
