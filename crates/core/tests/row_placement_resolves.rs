//! How often a sweep resolves a thread placement: once per suite row on
//! a cold cache, never on a warm one. A test binary of its own, because
//! the registry counters and the estimate cache are process-wide.

use rvhpc::experiments::driver::EXPERIMENTS;
use rvhpc::machines::{machine, MachineId};
use rvhpc::perfmodel::{cache, persist, Model, Precision, RunConfig};
use rvhpc::suite_times;

fn resolves() -> u64 {
    rvhpc_obs::counter("perfmodel.placement.resolve").load(std::sync::atomic::Ordering::Relaxed)
}

#[test]
fn cold_rows_resolve_once_and_warm_rows_never() {
    persist::set_cache_dir(None);
    cache::clear();

    let rows = [
        (MachineId::Sg2042, RunConfig::sg2042_best(Precision::Fp32, 16)),
        (MachineId::Sg2042, RunConfig::sg2042_best(Precision::Fp64, 64)),
        (MachineId::Sg2042, RunConfig::scalar_single(Precision::Fp32)),
        (MachineId::VisionFiveV2, RunConfig::sg2042_best(Precision::Fp32, 64)),
        (MachineId::Sg2042NextGen, RunConfig::sg2042_best(Precision::Fp64, 32)),
        (MachineId::AmdRome, RunConfig::x86(Precision::Fp64, 64)),
    ];
    for (id, cfg) in rows {
        let m = machine(id);
        let before = resolves();
        let cold = suite_times(Model::paper(), &m, &cfg);
        assert_eq!(resolves() - before, 1, "cold {id} {cfg:?}: one resolve per row");
        let before = resolves();
        let warm = suite_times(Model::paper(), &m, &cfg);
        assert_eq!(resolves() - before, 0, "warm {id} {cfg:?}: an all-hit row resolves nothing");
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.estimate.seconds.to_bits(), w.estimate.seconds.to_bits());
        }
    }

    // The whole paper batch: a cold pass resolves one placement per row
    // with a miss, a warm pass none. The cold misses are 48 whole suite
    // rows and Figure 3's two Clang rows of 12 kernels (its GCC row is
    // Table 1's single-thread row, which runs before it).
    cache::clear();
    let (before, misses_before) = (resolves(), cache::stats().misses);
    for e in &EXPERIMENTS {
        let _ = e.run();
    }
    let cold_resolves = resolves() - before;
    let misses = cache::stats().misses - misses_before;
    let before = resolves();
    for e in &EXPERIMENTS {
        let _ = e.run();
    }
    let warm_resolves = resolves() - before;
    eprintln!("cold pass: {misses} misses, {cold_resolves} resolves; warm: {warm_resolves}");
    assert_eq!(misses, 48 * 64 + 2 * 12, "48 suite rows and Figure 3's two Clang rows");
    assert_eq!(cold_resolves, 48 + 2, "one per row with a miss");
    assert_eq!(warm_resolves, 0, "a warm pass resolves nothing");
}
