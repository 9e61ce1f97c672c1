//! `repro fleetd` refuses an invalid configuration instead of clamping it.

use std::process::Command;

#[test]
fn zero_shards_exits_2_with_the_reason() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fleetd", "--nodes", "64", "--shards", "0", "--ticks", "1"])
        .output()
        .expect("run repro");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("error: invalid fleetd configuration: shards must be at least 1"),
        "stderr: {stderr}"
    );
}
