//! The per-core compute-time model.

use crate::calibration::Calibration;
use rvhpc_compiler::VectorMode;
use rvhpc_kernels::Workload;
use rvhpc_machines::Machine;

/// Vector execution context resolved by the caller (compiler model +
/// hardware constraints).
#[derive(Debug, Clone, Copy)]
pub struct VectorCtx {
    /// Vector code actually executes.
    pub active: bool,
    /// Lanes at the run's element width (1 when inactive).
    pub lanes: u32,
    /// VLS or VLA.
    pub mode: VectorMode,
    /// Measured VLA/VLS instruction ratio from generated code, when the
    /// code generator covers the kernel (overrides the calibrated default).
    pub measured_vla_ratio: Option<f64>,
}

impl VectorCtx {
    /// Scalar execution.
    pub fn scalar() -> Self {
        VectorCtx { active: false, lanes: 1, mode: VectorMode::Vls, measured_vla_ratio: None }
    }
}

/// Cycles one core spends per loop iteration.
pub fn cycles_per_iteration(
    machine: &Machine,
    cal: &Calibration,
    w: &Workload,
    vec: &VectorCtx,
) -> f64 {
    let base_cheap = w.fp_ops / cal.scalar_flops_per_cycle + w.int_ops / cal.int_ops_per_cycle;
    let base_exp = w.fp_expensive * cal.expensive_op_cycles;

    if vec.active && vec.lanes > 1 {
        // Lane speedup on the cheap part, degraded by the kernel's own
        // vector efficiency and the machine's vector quality; gathers
        // retain only a fraction.
        let mut speedup = vec.lanes as f64 * cal.vector_efficiency * w.vec.efficiency;
        if w.vec.gather_scatter {
            speedup *= cal.gather_retention;
        }
        let speedup = speedup.max(1.0);
        // Expensive ops pipeline poorly in vector units; grant only half
        // the lane benefit.
        let exp_speedup = (vec.lanes as f64 * 0.5).max(1.0);
        // Divergence forces both branch arms through the vector unit.
        let divergence_cost = 1.0 + w.vec.divergence;
        // Loop control amortises over a strip.
        let loop_cyc = cal.loop_overhead_cycles / vec.lanes as f64;
        let mut cyc = (base_cheap / speedup + base_exp / exp_speedup) * divergence_cost + loop_cyc;
        if vec.mode == VectorMode::Vla {
            cyc *= vec.measured_vla_ratio.unwrap_or(cal.vla_overhead);
        }
        // Reductions add a final cross-lane reduce; amortised, tiny, but
        // short vectors pay relatively more — folded into efficiency.
        let _ = machine;
        cyc
    } else {
        // Scalar path: divergence costs a misprediction fraction.
        let divergence_cost = 1.0 + 0.3 * w.vec.divergence;
        (base_cheap + base_exp) * divergence_cost + cal.loop_overhead_cycles
    }
}

/// Seconds of compute for `iterations` loop iterations on one core.
pub fn compute_seconds(
    machine: &Machine,
    cal: &Calibration,
    w: &Workload,
    vec: &VectorCtx,
    iterations: f64,
) -> f64 {
    iterations * cycles_per_iteration(machine, cal, w, vec) / (machine.clock_ghz * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Model;
    use rvhpc_kernels::{workload, KernelName};
    use rvhpc_machines::{machine, MachineId};

    fn w(k: KernelName) -> Workload {
        workload(k, 1_000_000)
    }

    #[test]
    fn vector_path_is_faster_for_clean_loops() {
        let m = machine(MachineId::Sg2042);
        let cal = Model::paper().calibration_of(MachineId::Sg2042);
        let wl = w(KernelName::DAXPY);
        let scalar = cycles_per_iteration(&m, cal, &wl, &VectorCtx::scalar());
        let vec =
            VectorCtx { active: true, lanes: 4, mode: VectorMode::Vls, measured_vla_ratio: None };
        let vectored = cycles_per_iteration(&m, cal, &wl, &vec);
        assert!(vectored < scalar, "{vectored} !< {scalar}");
        assert!(vectored > scalar / 4.0, "speedup must stay below lane count");
    }

    #[test]
    fn vla_slower_than_vls() {
        let m = machine(MachineId::Sg2042);
        let cal = Model::paper().calibration_of(MachineId::Sg2042);
        let wl = w(KernelName::STREAM_TRIAD);
        let mk = |mode| VectorCtx { active: true, lanes: 4, mode, measured_vla_ratio: None };
        let vls = cycles_per_iteration(&m, cal, &wl, &mk(VectorMode::Vls));
        let vla = cycles_per_iteration(&m, cal, &wl, &mk(VectorMode::Vla));
        assert!(vla > vls);
    }

    #[test]
    fn measured_ratio_overrides_default() {
        let m = machine(MachineId::Sg2042);
        let cal = Model::paper().calibration_of(MachineId::Sg2042);
        let wl = w(KernelName::STREAM_TRIAD);
        let mk =
            |r| VectorCtx { active: true, lanes: 4, mode: VectorMode::Vla, measured_vla_ratio: r };
        let a = cycles_per_iteration(&m, cal, &wl, &mk(Some(1.5)));
        let b = cycles_per_iteration(&m, cal, &wl, &mk(None));
        assert!(a > b, "1.5 ratio must cost more than the {} default", cal.vla_overhead);
    }

    #[test]
    fn gather_kernels_gain_less_from_vectors() {
        let m = machine(MachineId::Sg2042);
        let cal = Model::paper().calibration_of(MachineId::Sg2042);
        let clean = w(KernelName::STREAM_ADD);
        let gather = w(KernelName::HALO_PACKING);
        let vec =
            VectorCtx { active: true, lanes: 4, mode: VectorMode::Vls, measured_vla_ratio: None };
        let clean_gain = cycles_per_iteration(&m, cal, &clean, &VectorCtx::scalar())
            / cycles_per_iteration(&m, cal, &clean, &vec);
        let gather_gain = cycles_per_iteration(&m, cal, &gather, &VectorCtx::scalar())
            / cycles_per_iteration(&m, cal, &gather, &vec);
        assert!(clean_gain > gather_gain);
    }

    #[test]
    fn expensive_ops_dominate_planckian() {
        let m = machine(MachineId::Sg2042);
        let cal = Model::paper().calibration_of(MachineId::Sg2042);
        let planck = cycles_per_iteration(&m, cal, &w(KernelName::PLANCKIAN), &VectorCtx::scalar());
        let triad =
            cycles_per_iteration(&m, cal, &w(KernelName::STREAM_TRIAD), &VectorCtx::scalar());
        assert!(planck > 5.0 * triad);
    }
}
