//! A fleet-bench run of the current build, for the tests that check one.

use std::process::Command;
use std::sync::OnceLock;

/// The `rvhpc-fleet-bench-v1` document of one `repro fleet-bench --json`
/// run of this build (3 shards, seeded loadgen, one shard killed and
/// recovered), made once per test binary in a temporary directory.
pub fn fleet_bench_run() -> &'static str {
    static RUN: OnceLock<String> = OnceLock::new();
    RUN.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("rvhpc-fleet-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create a temporary directory");
        let path = dir.join("FLEET_BENCH.json");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("fleet-bench")
            .arg("--json")
            .arg(&path)
            .output()
            .expect("repro fleet-bench runs");
        assert!(
            out.status.success(),
            "repro fleet-bench failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&path).expect("fleet-bench wrote its artefact");
        let _ = std::fs::remove_dir_all(&dir);
        text
    })
}
