//! Every paper artefact, byte for byte: the FNV-1a digest of each
//! `EXPERIMENTS` entry's JSON, markdown and CSV rendering (and, for
//! figures, the ASCII chart) is pinned here. A change to how artefacts
//! are aggregated or rendered must leave every digest as it is; a change
//! to the model itself re-pins them on purpose.
//! A test binary of its own, so the estimate cache starts empty and the
//! pass runs cold, as `repro all` does.

use rvhpc::experiments::driver::{Artefact, EXPERIMENTS};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(experiment, rendering, digest)`, in `EXPERIMENTS` order.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("fig1", "json", 0x4ee62571c187bf61),
    ("fig1", "markdown", 0x127e37665de93399),
    ("fig1", "csv", 0x00b0e1b711c6be59),
    ("fig1", "chart", 0x260e44cb0842264a),
    ("table1", "json", 0xec3ea80f65473c10),
    ("table1", "markdown", 0x9122ee4338de2bce),
    ("table1", "csv", 0xafbe946715224758),
    ("table2", "json", 0x2e5072e8b8b3ec49),
    ("table2", "markdown", 0xeeb19b52f61b5c3f),
    ("table2", "csv", 0xb1be89becacf21c6),
    ("table3", "json", 0x86fa4130ce86ba27),
    ("table3", "markdown", 0x7b03d4f5fcdeb95b),
    ("table3", "csv", 0x1d8a293b23a8946e),
    ("fig2", "json", 0xf7a9cb536b66e65c),
    ("fig2", "markdown", 0x5495e8f4bc365d0a),
    ("fig2", "csv", 0x1c6f51f3aa0a379e),
    ("fig2", "chart", 0x53ddf01ab22a1dfd),
    ("fig3", "json", 0xe155d97e0c94054d),
    ("fig3", "markdown", 0xc2c17051c9bfaf99),
    ("fig3", "csv", 0x4955f0059adb0eb2),
    ("table4", "json", 0xe9a7ec8c495be7da),
    ("table4", "markdown", 0x75be09d0dee0ef68),
    ("table4", "csv", 0x49f0bd9847960d67),
    ("fig4", "json", 0xc2923762d1dbc90e),
    ("fig4", "markdown", 0x314e4725b0bc843f),
    ("fig4", "csv", 0x5fcb44aa274023db),
    ("fig4", "chart", 0xc08f7a45220dfbdb),
    ("fig5", "json", 0x3e48fe30b6b4ff63),
    ("fig5", "markdown", 0x5e6e3fb6471b58c0),
    ("fig5", "csv", 0xbb8c8db4bec9d6a3),
    ("fig5", "chart", 0x6818aea4ee20789a),
    ("fig6", "json", 0x7ded903935d4febe),
    ("fig6", "markdown", 0x40deef2052e0d15c),
    ("fig6", "csv", 0x3ba2c189c695c59e),
    ("fig6", "chart", 0x504b49ec3f3f8775),
    ("fig7", "json", 0x75eb57152e22242f),
    ("fig7", "markdown", 0x2baaa28e7ddbb493),
    ("fig7", "csv", 0xeb2be23a4bd2899f),
    ("fig7", "chart", 0x8d90044a16e13e3a),
    ("nextgen", "json", 0xb7b63d933057cc02),
    ("nextgen", "markdown", 0x75fb684e5fd95261),
    ("nextgen", "csv", 0x2a23fdd195e3aae7),
    ("nextgen", "chart", 0xbfa36b5ab76b38b3),
];

#[test]
fn every_artefact_rendering_matches_its_pinned_digest() {
    let mut actual = Vec::new();
    for e in &EXPERIMENTS {
        match e.run() {
            Artefact::Figure(f) => {
                actual.push((e.name, "json", fnv1a(f.to_json().as_bytes())));
                actual.push((e.name, "markdown", fnv1a(f.to_markdown().as_bytes())));
                actual.push((e.name, "csv", fnv1a(f.to_csv().as_bytes())));
                actual.push((e.name, "chart", fnv1a(f.to_ascii_chart().as_bytes())));
            }
            Artefact::Table(t) => {
                actual.push((e.name, "json", fnv1a(t.to_json().as_bytes())));
                actual.push((e.name, "markdown", fnv1a(t.to_markdown().as_bytes())));
                actual.push((e.name, "csv", fnv1a(t.to_csv().as_bytes())));
            }
        }
    }
    let listing: String = actual
        .iter()
        .map(|(name, what, digest)| format!("    ({name:?}, {what:?}, {digest:#018x}),\n"))
        .collect();
    assert!(
        actual.iter().copied().eq(GOLDEN.iter().copied()),
        "artefact digests moved; the current ones are:\n{listing}"
    );
}
