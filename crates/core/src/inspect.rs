//! Inspection views: the machine inventory and per-kernel deep dives that
//! back `repro machines` and `repro kernel <label>`.

use crate::report::{Fixed, TableReport};
use rvhpc_compiler::{compile, vec_status, Compiler, VectorMode};
use rvhpc_kernels::{workload, KernelName};
use rvhpc_machines::{catalog, MachineId};
use rvhpc_perfmodel::{estimate_averaged, sim_size, Precision, RunConfig};
use rvhpc_rvv::Sew;

/// The full machine inventory (paper machines plus the what-if part).
pub fn machines_table() -> TableReport {
    let ids = MachineId::CATALOG.into_iter();
    TableReport {
        id: "Machines".into(),
        title: "Modelled machine inventory".into(),
        headers: vec![
            "machine".into(),
            "part".into(),
            "clock".into(),
            "cores".into(),
            "NUMA regions".into(),
            "ctrl/region".into(),
            "L1D".into(),
            "L2".into(),
            "LLC".into(),
            "vector".into(),
            "fp64 vec".into(),
        ],
        rows: ids
            .map(|id| {
                let m = catalog(id);
                let kb = |b: usize| {
                    if b >= 1024 * 1024 {
                        format!("{}M", b / (1024 * 1024))
                    } else {
                        format!("{}K", b / 1024)
                    }
                };
                vec![
                    m.name.clone(),
                    m.part.clone(),
                    format!("{}GHz", Fixed::new(m.clock_ghz, 2)),
                    m.n_cores().to_string(),
                    m.topology.n_regions().to_string(),
                    m.topology.regions()[0].controllers.to_string(),
                    kb(m.cache_level(1).map_or(0, |c| c.size_bytes)),
                    kb(m.cache_level(2).map_or(0, |c| c.size_bytes)),
                    kb(m.last_level_cache().map_or(0, |c| c.size_bytes)),
                    m.vector.as_ref().map_or("-".into(), |v| format!("{}b", v.width_bits)),
                    m.vectorises_fp(64).to_string(),
                ]
            })
            .collect(),
    }
}

/// Everything the models know about one kernel: descriptor, compiler
/// verdicts, and simulated single-core times on every machine.
pub fn kernel_table(kernel: KernelName) -> TableReport {
    let w = workload(kernel, sim_size(kernel));
    let mut rows = vec![
        vec!["class".into(), kernel.class().to_string()],
        vec!["simulated size".into(), sim_size(kernel).to_string()],
        vec!["iterations/rep".into(), format!("{:.3e}", w.iterations)],
        vec!["flops/iter (cheap + expensive)".into(), format!("{} + {}", w.fp_ops, w.fp_expensive)],
        vec!["int ops/iter".into(), w.int_ops.to_string()],
        vec!["memory streams".into(), w.streams.len().to_string()],
        vec!["requested bytes/rep (fp64)".into(), format!("{:.3e}", w.requested_bytes(8))],
        vec!["arithmetic intensity (fp64)".into(), format!("{:.3}", w.arithmetic_intensity(8))],
        vec!["inherently vectorisable".into(), w.vec.vectorizable.to_string()],
        vec![
            "reduction / gather / int-data".into(),
            format!("{} / {} / {}", w.vec.reduction, w.vec.gather_scatter, w.vec.int_data),
        ],
    ];
    for compiler in [Compiler::XuanTieGcc, Compiler::Clang] {
        rows.push(vec![
            format!("{} verdict", compiler.label()),
            format!("{:?}", vec_status(compiler, kernel)),
        ]);
    }
    let c = compile(kernel, Compiler::XuanTieGcc, VectorMode::Vls, Sew::E64);
    rows.push(vec![
        "FP64 vector path on C920".into(),
        format!("{}{}", c.vector_path, c.note.map(|n| format!(" ({n})")).unwrap_or_default()),
    ]);
    for id in MachineId::ALL {
        let m = catalog(id);
        let cfg = if id.is_riscv() {
            RunConfig::sg2042_best(Precision::Fp64, 1)
        } else {
            RunConfig::x86(Precision::Fp64, 1)
        };
        let e = estimate_averaged(m, kernel, &cfg);
        rows.push(vec![
            format!("t(1 core, fp64) on {}", m.name),
            format!("{:.3} ms{}", e.seconds * 1e3, if e.vector_path { " (vec)" } else { "" }),
        ]);
    }
    TableReport {
        id: kernel.label().to_string(),
        title: format!("Model view of {kernel}"),
        headers: vec!["property".into(), "value".into()],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_table_lists_eight_machines() {
        let t = machines_table();
        assert_eq!(t.rows.len(), 8, "7 paper machines + the what-if part");
        assert!(t.rows.iter().any(|r| r[0].contains("next-gen")));
    }

    #[test]
    fn kernel_table_covers_every_kernel() {
        for k in [KernelName::DAXPY, KernelName::FLOYD_WARSHALL, KernelName::MEMSET] {
            let t = kernel_table(k);
            assert!(t.rows.len() > 15, "{k}");
            let flat = t.rows.concat().join(" ");
            assert!(flat.contains("Sophon SG2042"), "{k}");
        }
    }

    #[test]
    fn kernel_table_shows_the_fp64_refusal() {
        let t = kernel_table(KernelName::DAXPY);
        let flat = t.rows.concat().join(" ");
        assert!(flat.contains("false (C920 RVV v0.7.1 does not implement FP64"), "{flat}");
    }
}
