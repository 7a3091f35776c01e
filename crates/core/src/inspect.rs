//! Inspection views: the machine inventory and per-kernel deep dives that
//! back `repro machines` and `repro kernel <label>`.

use crate::report::{Cell, Fixed, TableReport};
use rvhpc_compiler::{compile, vec_status, Compiler, VectorMode};
use rvhpc_kernels::{workload, KernelName};
use rvhpc_machines::{catalog, MachineId};
use rvhpc_perfmodel::{estimate, sim_size, Precision, RunConfig};
use rvhpc_rvv::Sew;

/// The full machine inventory (paper machines plus the what-if part).
pub fn machines_table() -> TableReport {
    const HEADERS: [&str; 11] = [
        "machine",
        "part",
        "clock",
        "cores",
        "NUMA regions",
        "ctrl/region",
        "L1D",
        "L2",
        "LLC",
        "vector",
        "fp64 vec",
    ];
    let kb = |b: usize| {
        Cell::from(if b >= 1024 * 1024 {
            format!("{}M", b / (1024 * 1024))
        } else {
            format!("{}K", b / 1024)
        })
    };
    let mut cells = Vec::with_capacity(MachineId::CATALOG.len() * HEADERS.len());
    for id in MachineId::CATALOG {
        let m = catalog(id);
        cells.extend([
            Cell::from(m.name.as_str()),
            m.part.as_str().into(),
            format!("{}GHz", Fixed::new(m.clock_ghz, 2)).into(),
            m.n_cores().into(),
            m.topology.n_regions().into(),
            m.topology.regions()[0].controllers.into(),
            kb(m.cache_level(1).map_or(0, |c| c.size_bytes)),
            kb(m.cache_level(2).map_or(0, |c| c.size_bytes)),
            kb(m.last_level_cache().map_or(0, |c| c.size_bytes)),
            m.vector.as_ref().map_or("-".into(), |v| format!("{}b", v.width_bits).into()),
            if m.vectorises_fp(64) { "true" } else { "false" }.into(),
        ]);
    }
    TableReport {
        id: "Machines",
        title: "Modelled machine inventory".into(),
        headers: &HEADERS,
        cells,
    }
}

/// Everything the models know about one kernel: descriptor, compiler
/// verdicts, and simulated single-core times on every machine.
pub fn kernel_table(kernel: KernelName) -> TableReport {
    let w = workload(kernel, sim_size(kernel));
    let mut cells: Vec<Cell> = vec![
        "class".into(),
        kernel.class().label().into(),
        "simulated size".into(),
        sim_size(kernel).into(),
        "iterations/rep".into(),
        format!("{:.3e}", w.iterations).into(),
        "flops/iter (cheap + expensive)".into(),
        format!("{} + {}", w.fp_ops, w.fp_expensive).into(),
        "int ops/iter".into(),
        w.int_ops.to_string().into(),
        "memory streams".into(),
        w.streams.len().into(),
        "requested bytes/rep (fp64)".into(),
        format!("{:.3e}", w.requested_bytes(8)).into(),
        "arithmetic intensity (fp64)".into(),
        format!("{:.3}", w.arithmetic_intensity(8)).into(),
        "inherently vectorisable".into(),
        w.vec.vectorizable.to_string().into(),
        "reduction / gather / int-data".into(),
        format!("{} / {} / {}", w.vec.reduction, w.vec.gather_scatter, w.vec.int_data).into(),
    ];
    for compiler in [Compiler::XuanTieGcc, Compiler::Clang] {
        cells.push(format!("{} verdict", compiler.label()).into());
        cells.push(format!("{:?}", vec_status(compiler, kernel)).into());
    }
    let c = compile(kernel, Compiler::XuanTieGcc, VectorMode::Vls, Sew::E64);
    cells.push("FP64 vector path on C920".into());
    cells.push(
        format!("{}{}", c.vector_path, c.note.map(|n| format!(" ({n})")).unwrap_or_default())
            .into(),
    );
    for id in MachineId::ALL {
        let m = catalog(id);
        let cfg = if id.is_riscv() {
            RunConfig::sg2042_best(Precision::Fp64, 1)
        } else {
            RunConfig::x86(Precision::Fp64, 1)
        };
        let e = estimate(m, kernel, &cfg);
        cells.push(format!("t(1 core, fp64) on {}", m.name).into());
        cells.push(
            format!("{:.3} ms{}", e.seconds * 1e3, if e.vector_path { " (vec)" } else { "" })
                .into(),
        );
    }
    TableReport {
        id: kernel.label(),
        title: format!("Model view of {kernel}").into(),
        headers: &["property", "value"],
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_table_lists_eight_machines() {
        let t = machines_table();
        assert_eq!(t.rows().len(), 8, "7 paper machines + the what-if part");
        assert!(t.rows().any(|r| r[0].to_string().contains("next-gen")));
    }

    /// Every cell's text, space-separated.
    fn flat(t: &TableReport) -> String {
        t.cells.iter().map(Cell::to_string).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn kernel_table_covers_every_kernel() {
        for k in [KernelName::DAXPY, KernelName::FLOYD_WARSHALL, KernelName::MEMSET] {
            let t = kernel_table(k);
            assert!(t.rows().len() > 15, "{k}");
            assert!(flat(&t).contains("Sophon SG2042"), "{k}");
        }
    }

    #[test]
    fn kernel_table_shows_the_fp64_refusal() {
        let flat = flat(&kernel_table(KernelName::DAXPY));
        assert!(flat.contains("false (C920 RVV v0.7.1 does not implement FP64"), "{flat}");
    }
}
