//! Quickstart: run one kernel natively, then simulate it on every machine
//! in the paper.
//!
//! ```text
//! cargo run --release -p rvhpc-examples --bin quickstart
//! ```

use rvhpc::kernels::KernelName;
use rvhpc::machines::{machine, MachineId};
use rvhpc::native;
use rvhpc::perfmodel::{estimate, Precision, RunConfig};

fn main() {
    let kernel = KernelName::STREAM_TRIAD;

    // 1. The kernels really execute: run TRIAD on this host.
    println!("== native execution on this host ==");
    let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(4);
    let t = native::run_kernel(kernel, 1_000_000, threads, 3);
    println!(
        "{kernel}: {} elements, {threads} threads -> {:.3} ms/rep (checksum {:.6e})\n",
        t.size,
        t.seconds_per_rep * 1e3,
        t.checksum
    );

    // 2. The same kernel on the paper's simulated machines, single core.
    println!("== simulated single-core time on the paper's machines (FP64 / FP32) ==");
    for id in MachineId::ALL {
        let m = machine(id);
        let fp64 = estimate(&m, kernel, &RunConfig::sg2042_best(Precision::Fp64, 1));
        let fp32 = estimate(&m, kernel, &RunConfig::sg2042_best(Precision::Fp32, 1));
        println!(
            "{:<24} {:>9.2} ms {:>9.2} ms   {}",
            m.name,
            fp64.seconds * 1e3,
            fp32.seconds * 1e3,
            if fp32.vector_path { "(vectorised)" } else { "(scalar)" },
        );
    }

    // 3. Thread scaling on the SG2042 with the paper's best placement.
    println!("\n== SG2042 thread scaling (FP32, cluster-cyclic placement) ==");
    let sg = machine(MachineId::Sg2042);
    let t1 = estimate(&sg, kernel, &RunConfig::sg2042_best(Precision::Fp32, 1)).seconds;
    for threads in [1usize, 2, 4, 8, 16, 32, 64] {
        let e = estimate(&sg, kernel, &RunConfig::sg2042_best(Precision::Fp32, threads));
        println!(
            "{threads:>3} threads: {:>9.3} ms  speedup {:>5.2}  {}",
            e.seconds * 1e3,
            t1 / e.seconds,
            rvhpc_examples::bar(t1 / e.seconds, 16.0, 32),
        );
    }
}
