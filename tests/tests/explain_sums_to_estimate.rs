//! `explain` breaks down the number a client is served, not a neighbour
//! of it: for every estimate of a cold paper pass, the explanation's busy
//! time plus its overhead is, bit for bit, what the estimate cache serves;
//! and a live server's `explain` op reports the `seconds` its `estimate`
//! op answers for the same key. A test binary of its own, because the
//! estimate cache is process-wide.

#![cfg(target_os = "linux")]

use rvhpc::experiments::driver::EXPERIMENTS;
use rvhpc_kernels::KernelName;
use rvhpc_machines::{catalog, MachineId, PlacementPolicy};
use rvhpc_perfmodel::{cache, estimate_cached, explain, persist, Precision};
use rvhpc_quickprop::{base_seed, Gen};
use rvhpc_serve::{ServeConfig, Server};
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn every_estimate_of_a_cold_paper_pass_is_its_explanation_summed() {
    persist::set_cache_dir(None);
    cache::clear();
    let before = cache::stats();
    for e in &EXPERIMENTS {
        let _ = e.run();
    }
    let misses = cache::stats().since(&before).misses;
    let resident = cache::resident();
    if cache::capacity() as u64 >= misses {
        assert_eq!(resident.len() as u64, misses, "every miss of the pass is resident");
    }
    assert!(!resident.is_empty(), "the pass estimated something");
    for (id, cfg, kernel) in resident {
        let m = catalog(id);
        let ex = explain(m, kernel, &cfg);
        let summed = ex.busy_seconds() + ex.estimate.overhead_seconds;
        let served = estimate_cached(m, kernel, &cfg);
        assert_eq!(summed.to_bits(), served.seconds.to_bits(), "{id} {kernel} {cfg:?}");
        assert_eq!(ex.estimate.seconds.to_bits(), served.seconds.to_bits(), "{id} {kernel}");
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn ask(&mut self, line: &str) -> Json {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("reply readable");
        assert!(n > 0, "server closed the connection instead of replying");
        let reply = Json::parse(reply.trim_end()).expect("reply is valid JSON");
        reply.get("result").cloned().unwrap_or_else(|| panic!("{line}: {}", reply.render()))
    }
}

#[test]
fn the_served_explain_reports_the_served_estimate() {
    let server = Server::start(ServeConfig::default()).expect("server binds");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut conn = Conn { stream, reader };

    // The key whose `explain` once gave 0.010018… s against an `estimate`
    // of 0.010078… s, then a seeded set over every machine and kernel.
    let mut keys =
        vec![r#""machine":"sg2042","kernel":"Stream_TRIAD","precision":"fp32","threads":4"#
            .to_string()];
    let machines: Vec<MachineId> =
        MachineId::ALL.into_iter().chain([MachineId::Sg2042NextGen]).collect();
    let mut g = Gen::new(base_seed());
    for _ in 0..24 {
        keys.push(format!(
            r#""machine":"{}","kernel":"{}","precision":"{}","threads":{},"vectorize":{},"mode":"{}","placement":"{}""#,
            g.choose(&machines).token(),
            g.choose(&KernelName::ALL).label(),
            g.choose(&[Precision::Fp32, Precision::Fp64]).label(),
            g.usize_in(1..=128),
            g.bool_with(0.8),
            g.choose(&["vls", "vla"]),
            g.choose(&PlacementPolicy::ALL).label(),
        ));
    }
    for key in &keys {
        let estimate = conn.ask(&format!(r#"{{"op":"estimate",{key}}}"#));
        let explained = conn.ask(&format!(r#"{{"op":"explain",{key}}}"#));
        let number = |doc: &Json, field: &str| {
            doc.get(field).and_then(Json::as_f64).unwrap_or_else(|| panic!("{key}: `{field}`"))
        };
        let seconds = number(&estimate, "seconds");
        let breakdown = explained.get("estimate").expect("explain carries its estimate");
        assert_eq!(number(breakdown, "seconds").to_bits(), seconds.to_bits(), "{key}");
        let summed = number(&explained, "busy_seconds") + number(breakdown, "overhead_seconds");
        assert_eq!(summed.to_bits(), seconds.to_bits(), "{key}: busy + overhead");
    }

    server.shutdown();
    server.join();
}
