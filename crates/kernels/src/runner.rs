//! The executable-kernel trait and factory.

use crate::exec;
use crate::ids::KernelName;
use crate::real::Real;
use rvhpc_threads::Team;

/// An executable kernel instance at a fixed problem size.
///
/// Implementations hold their own arrays; [`KernelExec::reset`]
/// reinitialises them so repeated measurements start from identical state
/// (RAJAPerf re-initialises between variants the same way).
pub trait KernelExec<T: Real>: Send {
    /// Which kernel this is.
    fn name(&self) -> KernelName;
    /// Problem size this instance was built with.
    fn size(&self) -> usize;
    /// One repetition, work-shared across the team.
    fn run(&mut self, team: &Team);
    /// One repetition on the calling thread (reference implementation).
    fn run_serial(&mut self);
    /// Checksum of the kernel's outputs (for correctness comparison).
    fn checksum(&self) -> f64;
    /// Reinitialise all data to the post-construction state.
    fn reset(&mut self);
}

/// Construct an executable kernel by name.
///
/// ```
/// use rvhpc_kernels::{make_kernel, KernelName};
/// use rvhpc_threads::Team;
///
/// let team = Team::new(4);
/// let mut triad = make_kernel::<f64>(KernelName::STREAM_TRIAD, 10_000);
/// triad.run(&team);
/// assert!(triad.checksum().is_finite());
/// ```
pub fn make_kernel<T: Real>(name: KernelName, n: usize) -> Box<dyn KernelExec<T>> {
    let _span = rvhpc_trace::span!("kernels.make", kernel = name, n = n);
    rvhpc_obs::counter!("kernels.instantiated", 1);
    use KernelName::*;
    match name {
        // Stream
        STREAM_ADD => Box::new(exec::stream::Add::<T>::new(n)),
        STREAM_COPY => Box::new(exec::stream::Copy::<T>::new(n)),
        STREAM_DOT => Box::new(exec::stream::Dot::<T>::new(n)),
        STREAM_MUL => Box::new(exec::stream::Mul::<T>::new(n)),
        STREAM_TRIAD => Box::new(exec::stream::Triad::<T>::new(n)),
        // Algorithm
        MEMCPY => Box::new(exec::algorithm::Memcpy::<T>::new(n)),
        MEMSET => Box::new(exec::algorithm::Memset::<T>::new(n)),
        REDUCE_SUM => Box::new(exec::algorithm::ReduceSum::<T>::new(n)),
        SCAN => Box::new(exec::algorithm::Scan::<T>::new(n)),
        SORT => Box::new(exec::algorithm::Sort::<T>::new(n)),
        SORTPAIRS => Box::new(exec::algorithm::SortPairs::<T>::new(n)),
        // Basic
        DAXPY => Box::new(exec::basic::Daxpy::<T>::new(n)),
        DAXPY_ATOMIC => Box::new(exec::basic::DaxpyAtomic::<T>::new(n)),
        IF_QUAD => Box::new(exec::basic::IfQuad::<T>::new(n)),
        INDEXLIST => Box::new(exec::basic::IndexList::<T>::new(n)),
        INDEXLIST_3LOOP => Box::new(exec::basic::IndexList3Loop::<T>::new(n)),
        INIT3 => Box::new(exec::basic::Init3::<T>::new(n)),
        INIT_VIEW1D => Box::new(exec::basic::InitView1d::<T>::new(n)),
        INIT_VIEW1D_OFFSET => Box::new(exec::basic::InitView1dOffset::<T>::new(n)),
        MAT_MAT_SHARED => Box::new(exec::basic::MatMatShared::<T>::new(n)),
        MULADDSUB => Box::new(exec::basic::MulAddSub::<T>::new(n)),
        NESTED_INIT => Box::new(exec::basic::NestedInit::<T>::new(n)),
        PI_ATOMIC => Box::new(exec::basic::PiAtomic::<T>::new(n)),
        PI_REDUCE => Box::new(exec::basic::PiReduce::<T>::new(n)),
        REDUCE3_INT => Box::new(exec::basic::Reduce3Int::<T>::new(n)),
        REDUCE_STRUCT => Box::new(exec::basic::ReduceStruct::<T>::new(n)),
        TRAP_INT => Box::new(exec::basic::TrapInt::<T>::new(n)),
        // Lcals
        DIFF_PREDICT => Box::new(exec::lcals::DiffPredict::<T>::new(n)),
        EOS => Box::new(exec::lcals::Eos::<T>::new(n)),
        FIRST_DIFF => Box::new(exec::lcals::FirstDiff::<T>::new(n)),
        FIRST_MIN => Box::new(exec::lcals::FirstMin::<T>::new(n)),
        FIRST_SUM => Box::new(exec::lcals::FirstSum::<T>::new(n)),
        GEN_LIN_RECUR => Box::new(exec::lcals::GenLinRecur::<T>::new(n)),
        HYDRO_1D => Box::new(exec::lcals::Hydro1d::<T>::new(n)),
        HYDRO_2D => Box::new(exec::lcals::Hydro2d::<T>::new(n)),
        INT_PREDICT => Box::new(exec::lcals::IntPredict::<T>::new(n)),
        PLANCKIAN => Box::new(exec::lcals::Planckian::<T>::new(n)),
        TRIDIAG_ELIM => Box::new(exec::lcals::TridiagElim::<T>::new(n)),
        // Polybench
        P2MM => Box::new(exec::polybench::TwoMM::<T>::new(n)),
        P3MM => Box::new(exec::polybench::ThreeMM::<T>::new(n)),
        ADI => Box::new(exec::polybench::Adi::<T>::new(n)),
        ATAX => Box::new(exec::polybench::Atax::<T>::new(n)),
        FDTD_2D => Box::new(exec::polybench::Fdtd2d::<T>::new(n)),
        FLOYD_WARSHALL => Box::new(exec::polybench::FloydWarshall::<T>::new(n)),
        GEMM => Box::new(exec::polybench::Gemm::<T>::new(n)),
        GEMVER => Box::new(exec::polybench::Gemver::<T>::new(n)),
        GESUMMV => Box::new(exec::polybench::Gesummv::<T>::new(n)),
        HEAT_3D => Box::new(exec::polybench::Heat3d::<T>::new(n)),
        JACOBI_1D => Box::new(exec::polybench::Jacobi1d::<T>::new(n)),
        JACOBI_2D => Box::new(exec::polybench::Jacobi2d::<T>::new(n)),
        MVT => Box::new(exec::polybench::Mvt::<T>::new(n)),
        // Apps
        CONVECTION3DPA => Box::new(exec::apps::Convection3dpa::<T>::new(n)),
        DEL_DOT_VEC_2D => Box::new(exec::apps::DelDotVec2d::<T>::new(n)),
        DIFFUSION3DPA => Box::new(exec::apps::Diffusion3dpa::<T>::new(n)),
        ENERGY => Box::new(exec::apps::Energy::<T>::new(n)),
        FIR => Box::new(exec::apps::Fir::<T>::new(n)),
        HALO_PACKING => Box::new(exec::apps::HaloPacking::<T>::new(n)),
        LTIMES => Box::new(exec::apps::Ltimes::<T>::new(n, true)),
        LTIMES_NOVIEW => Box::new(exec::apps::Ltimes::<T>::new(n, false)),
        MASS3DPA => Box::new(exec::apps::Mass3dpa::<T>::new(n)),
        NODAL_ACCUMULATION_3D => Box::new(exec::apps::NodalAccumulation3d::<T>::new(n)),
        PRESSURE => Box::new(exec::apps::Pressure::<T>::new(n)),
        VOL3D => Box::new(exec::apps::Vol3d::<T>::new(n)),
        ZONAL_ACCUMULATION_3D => Box::new(exec::apps::ZonalAccumulation3d::<T>::new(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_threads::Team;

    /// Every kernel constructs, runs serially and in parallel at a small
    /// size, and the two agree on the checksum.
    #[test]
    fn all_kernels_parallel_matches_serial() {
        let team = Team::new(4);
        for name in KernelName::ALL {
            let n = 4096;
            let mut serial = make_kernel::<f64>(name, n);
            serial.run_serial();
            let expect = serial.checksum();

            let mut par = make_kernel::<f64>(name, n);
            par.run(&team);
            let got = par.checksum();

            let tol = expect.abs().max(1.0) * 1e-10;
            assert!((got - expect).abs() <= tol, "{name}: serial {expect} vs parallel {got}");
        }
    }

    /// Reset returns a kernel to its initial state: run → reset → run gives
    /// the same checksum as a single run.
    #[test]
    fn reset_restores_initial_state() {
        for name in KernelName::ALL {
            let n = 2048;
            let mut k = make_kernel::<f64>(name, n);
            k.run_serial();
            let first = k.checksum();
            k.reset();
            k.run_serial();
            let second = k.checksum();
            assert_eq!(first, second, "{name}");
        }
    }

    /// Every kernel survives awkward sizes: tiny, odd, and smaller than a
    /// typical team, serial and parallel agreeing throughout.
    #[test]
    fn all_kernels_handle_edge_sizes() {
        let team = Team::new(8); // more threads than some kernels have items
        for name in KernelName::ALL {
            for n in [64usize, 97, 130] {
                let mut serial = make_kernel::<f64>(name, n);
                serial.run_serial();
                let expect = serial.checksum();
                assert!(expect.is_finite(), "{name} n={n}");

                let mut par = make_kernel::<f64>(name, n);
                par.run(&team);
                let got = par.checksum();
                let tol = expect.abs().max(1.0) * 1e-9;
                assert!(
                    (got - expect).abs() <= tol,
                    "{name} n={n}: serial {expect} vs parallel {got}"
                );
            }
        }
    }

    /// FP32 runs produce checksums close to FP64 (the data patterns keep
    /// values well-conditioned).
    #[test]
    fn fp32_tracks_fp64() {
        for name in KernelName::ALL {
            let n = 2048;
            let mut k32 = make_kernel::<f32>(name, n);
            let mut k64 = make_kernel::<f64>(name, n);
            k32.run_serial();
            k64.run_serial();
            let (a, b) = (k32.checksum(), k64.checksum());
            let tol = b.abs().max(1.0) * 5e-3;
            assert!((a - b).abs() <= tol, "{name}: f32 {a} vs f64 {b}");
        }
    }
}
