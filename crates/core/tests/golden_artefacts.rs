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
    ("fig1", "json", 0xcabcc7b2cd5dcb9e),
    ("fig1", "markdown", 0x599115d9b6639dc8),
    ("fig1", "csv", 0xdddaadccd5d5626f),
    ("fig1", "chart", 0x0be23dbb9a5dcf62),
    ("table1", "json", 0x826e5793dddaec08),
    ("table1", "markdown", 0x41b54e884c5b69c0),
    ("table1", "csv", 0xc89f6863b8522e22),
    ("table2", "json", 0xde9a657a9b483bbc),
    ("table2", "markdown", 0x5a9492501646ca62),
    ("table2", "csv", 0x3887b7bcec9a250b),
    ("table3", "json", 0xfc26dfedf62655a0),
    ("table3", "markdown", 0xebe0ca4e06651460),
    ("table3", "csv", 0x352351a24e246d11),
    ("fig2", "json", 0x6be8e9e9354a7129),
    ("fig2", "markdown", 0x07d5dfeb521894b9),
    ("fig2", "csv", 0xf58164710a4a44d5),
    ("fig2", "chart", 0x282d1b283b1b3254),
    ("fig3", "json", 0xe155d97e0c94054d),
    ("fig3", "markdown", 0xc2c17051c9bfaf99),
    ("fig3", "csv", 0x4955f0059adb0eb2),
    ("table4", "json", 0xe9a7ec8c495be7da),
    ("table4", "markdown", 0x75be09d0dee0ef68),
    ("table4", "csv", 0x49f0bd9847960d67),
    ("fig4", "json", 0x9c182c46e4f5fee8),
    ("fig4", "markdown", 0x23306749d7b44219),
    ("fig4", "csv", 0xa98fa0de77792efb),
    ("fig4", "chart", 0x6f0a92bf48813a19),
    ("fig5", "json", 0x58c43ff6fe0f502a),
    ("fig5", "markdown", 0xfbbca7a6fe121129),
    ("fig5", "csv", 0xf5a900396cf7123c),
    ("fig5", "chart", 0xf6de437fd122fb21),
    ("fig6", "json", 0x2f5afae23ab5e29d),
    ("fig6", "markdown", 0x99d0ad2aa0c3fe87),
    ("fig6", "csv", 0x0a8e36c10ef4beec),
    ("fig6", "chart", 0xd535916c6cdef9a0),
    ("fig7", "json", 0x0766eb65e952c510),
    ("fig7", "markdown", 0xd2ed156b1d5b01dc),
    ("fig7", "csv", 0xf5edbc23f540970c),
    ("fig7", "chart", 0x47635a9f7d7bac86),
    ("nextgen", "json", 0xc56830609d7cae4c),
    ("nextgen", "markdown", 0x22b58f0e61b00ef6),
    ("nextgen", "csv", 0x1d3738f2e7b0cd28),
    ("nextgen", "chart", 0xb0d221faf706d120),
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
