//! Placement study: reproduce the paper's Section 3.2 interactively —
//! block vs NUMA-cyclic vs cluster-cyclic thread placement on the SG2042.
//!
//! ```text
//! cargo run --release -p rvhpc-examples --bin placement_study [kernel-label]
//! ```

use rvhpc::compiler::VectorMode;
use rvhpc::kernels::{KernelClass, KernelName};
use rvhpc::machines::{machine, MachineId, PlacementPolicy};
use rvhpc::perfmodel::{estimate, Precision, RunConfig, Toolchain};

fn main() {
    let kernel = std::env::args()
        .nth(1)
        .and_then(|s| KernelName::from_label(&s))
        .unwrap_or(KernelName::STREAM_TRIAD);
    let sg = machine(MachineId::Sg2042);

    // Show where each policy puts the first 8 threads (the paper's worked
    // examples).
    println!("== thread -> core maps on the SG2042 (first 8 threads) ==");
    for policy in PlacementPolicy::ALL {
        let p = policy.map(&sg.topology, 8);
        println!("{:<8} {:?}", policy.label(), p.cores);
    }

    println!("\n== {kernel} (FP32, vectorised): speedup over 1 thread ==");
    println!("{:>8} {:>10} {:>10} {:>10}", "threads", "block", "cyclic", "cluster");
    let cfg = |policy, threads| RunConfig {
        precision: Precision::Fp32,
        vectorize: true,
        toolchain: Toolchain::XuanTieGcc,
        mode: VectorMode::Vls,
        placement: policy,
        threads,
    };
    let t1 = estimate(&sg, kernel, &cfg(PlacementPolicy::Block, 1)).seconds;
    for threads in [2usize, 4, 8, 16, 32, 64] {
        print!("{threads:>8}");
        for policy in PlacementPolicy::ALL {
            let e = estimate(&sg, kernel, &cfg(policy, threads));
            print!(" {:>10.2}", t1 / e.seconds);
        }
        println!();
    }

    // Class-level summary at 32 threads — the point where the paper found
    // placement matters most.
    println!("\n== class-mean speedup at 32 threads, by policy ==");
    println!("{:>10} {:>10} {:>10} {:>10}", "class", "block", "cyclic", "cluster");
    for class in KernelClass::ALL {
        print!("{:>10}", class.label());
        for policy in PlacementPolicy::ALL {
            let mut speedups = Vec::new();
            for k in KernelName::in_class(class) {
                let t1 = estimate(&sg, k, &cfg(policy, 1)).seconds;
                let tn = estimate(&sg, k, &cfg(policy, 32)).seconds;
                speedups.push(t1 / tn);
            }
            let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
            print!(" {:>10.2}", mean);
        }
        println!();
    }
    println!(
        "\nThe paper's finding: cyclic beats block (spreads over all four memory\n\
         controllers) and cluster-cyclic wins up to 32 threads (each thread keeps\n\
         a full 1 MB L2 share)."
    );
}
