//! Machine comparison: the paper's headline question — how does the SG2042
//! stack up against commodity RISC-V and server x86?
//!
//! ```text
//! cargo run --release -p rvhpc-examples --bin machine_compare [fp32|fp64]
//! ```

use rvhpc::kernels::{KernelClass, KernelName};
use rvhpc::machines::{machine, MachineId};
use rvhpc::perfmodel::{estimate, Precision, RunConfig};
use rvhpc::suite::times_faster;

fn main() {
    let precision = match std::env::args().nth(1).as_deref() {
        Some("fp64") => Precision::Fp64,
        _ => Precision::Fp32,
    };
    let sg = machine(MachineId::Sg2042);

    println!("== single-core class means vs SG2042, {} ==", precision.label());
    println!("(positive = times faster than the SG2042, the paper's Figures 4/5 convention)\n");
    print!("{:<12}", "class");
    let others: Vec<MachineId> =
        MachineId::ALL.into_iter().filter(|&id| id != MachineId::Sg2042).collect();
    for id in &others {
        print!("{:>18}", machine(*id).name.replace("StarFive ", "").replace("Intel ", "i-"));
    }
    println!();

    for class in KernelClass::ALL {
        print!("{:<12}", class.label());
        for id in &others {
            let m = machine(*id);
            let mut vals = Vec::new();
            for k in KernelName::in_class(class) {
                let base = estimate(&sg, k, &RunConfig::sg2042_best(precision, 1)).seconds;
                let cfg = if id.is_riscv() {
                    RunConfig::sg2042_best(precision, 1)
                } else {
                    RunConfig::x86(precision, 1)
                };
                let t = estimate(&m, k, &cfg).seconds;
                vals.push(times_faster(base, t));
            }
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            print!("{:>18.2}", mean);
        }
        println!();
    }

    println!(
        "\nReading: the C920 crushes the VisionFive boards (negative numbers), while\n\
         the modern server x86 parts stay ahead of the SG2042 — the paper's central\n\
         conclusion. Sandybridge (2012) is the crossover point."
    );
}
