//! Chrome `chrome://tracing` / Perfetto exporter.
//!
//! Emits the JSON object form of the trace-event format: every collected
//! span becomes a complete ("X") event with microsecond timestamps, and
//! the caller's counter snapshot (the `rvhpc-obs` registry's, in
//! `repro --trace`) rides along as metadata so one artefact file carries
//! the whole picture.

use crate::json::Json;
use crate::TraceData;

/// Render collected spans, plus a `(name, value)` counter snapshot, as a
/// Chrome trace JSON document.
pub fn export(data: &TraceData, counters: &[(&str, u64)]) -> String {
    to_json(data, counters).pretty()
}

/// The Chrome trace document as a [`Json`] value (for tests and embedding).
pub fn to_json(data: &TraceData, counters: &[(&str, u64)]) -> Json {
    let mut events: Vec<Json> = data
        .events
        .iter()
        .map(|e| {
            let mut fields = vec![
                ("name".to_string(), Json::str(e.name)),
                ("cat".to_string(), Json::str(category(e.name))),
                ("ph".to_string(), Json::str("X")),
                ("ts".to_string(), Json::Num(e.start_us)),
                ("dur".to_string(), Json::Num(e.dur_us)),
                ("pid".to_string(), Json::Num(1.0)),
                ("tid".to_string(), Json::Num(e.tid as f64)),
            ];
            if !e.args.is_empty() {
                let args =
                    e.args.iter().map(|(k, v)| (k.to_string(), Json::str(v.clone()))).collect();
                fields.push(("args".to_string(), Json::Obj(args)));
            }
            Json::Obj(fields)
        })
        .collect();

    // Chrome sorts by ts anyway, but a monotonic artefact is easier to
    // diff and lets tests assert ordering directly.
    events.sort_by(|a, b| {
        let ts = |e: &Json| e.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
        ts(a).partial_cmp(&ts(b)).unwrap_or(std::cmp::Ordering::Equal)
    });

    let counters = counters.iter().map(|&(k, v)| (k.to_string(), Json::Num(v as f64))).collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "metadata",
            Json::obj(vec![("tool", Json::str("rvhpc-trace")), ("counters", Json::Obj(counters))]),
        ),
    ])
}

/// Trace category: the crate prefix of a dotted span name
/// (`perfmodel.estimate` → `perfmodel`).
fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanEvent;

    fn sample() -> TraceData {
        let mut data = TraceData::default();
        data.events.push(SpanEvent {
            name: "perfmodel.estimate",
            args: vec![("kernel", "STREAM_TRIAD".to_string())],
            tid: 1,
            start_us: 10.0,
            dur_us: 5.0,
        });
        data.events.push(SpanEvent {
            name: "cachesim.replay",
            args: vec![],
            tid: 2,
            start_us: 2.0,
            dur_us: 1.0,
        });
        data
    }

    #[test]
    fn export_is_valid_sorted_chrome_json() {
        let text = export(&sample(), &[("cachesim.l1.hits", 42)]);
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        assert_eq!(events.len(), 2);
        // Sorted by ts: cachesim.replay (ts=2) first.
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("cachesim.replay"));
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("perfmodel"));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("kernel")).and_then(Json::as_str),
            Some("STREAM_TRIAD")
        );
        let counters = doc.get("metadata").and_then(|m| m.get("counters")).expect("counters");
        assert_eq!(counters.get("cachesim.l1.hits").and_then(Json::as_f64), Some(42.0));
    }
}
