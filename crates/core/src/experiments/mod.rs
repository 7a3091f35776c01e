//! One module per paper table/figure; each regenerates its artefact from
//! the simulated machines.
//!
//! | Artefact | Module | Paper claim reproduced |
//! |---|---|---|
//! | Figure 1 | [`fig1`] | C920 4.3–6.5× the U74 at FP64, 5.6–11.8× at FP32 |
//! | Tables 1–3 | [`scaling`] | block < cyclic < cluster placement up to 32 threads |
//! | Figure 2 | [`fig2`] | FP32 vectorisation helps (esp. stream); FP64 does not |
//! | Figure 3 | [`fig3`] | Clang VLA/VLS vs GCC on selected Polybench kernels |
//! | Table 4  | [`x86`] | the x86 comparison inventory |
//! | Figures 4–7 | [`x86`] | x86 single-core / multithreaded comparisons |
//! | Extension | [`next_gen`] | the conclusion's next-gen wishlist as a what-if machine |
//!
//! [`driver`] enumerates the whole batch in presentation order so
//! `repro all`, the benchmark and CI iterate the same experiments.

pub mod driver;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod next_gen;
pub mod scaling;
pub mod x86;
