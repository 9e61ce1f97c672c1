//! The committed `analysis-baseline.json` must exactly match what the
//! analysis reports on the current tree: no unrecorded findings (a
//! regression CI would reject), no stale keys (fixed findings must be
//! removed from the baseline via `--write-baseline`), and no enforced
//! findings, which no baseline can absorb.

use anubis_xtask::model::Workspace;
use anubis_xtask::passes::{run_analysis, AnalysisConfig};
use anubis_xtask::report::Baseline;
use std::fs;
use std::path::PathBuf;

#[test]
fn workspace_matches_committed_analysis_baseline() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let ws = Workspace::scan(&root).expect("scan workspace");
    let findings = run_analysis(&ws, &AnalysisConfig::default());
    let enforced: Vec<String> = findings
        .iter()
        .filter(|f| f.enforced)
        .map(ToString::to_string)
        .collect();
    assert!(
        enforced.is_empty(),
        "enforced findings:\n{}",
        enforced.join("\n")
    );
    let current = Baseline::from_findings(&findings);

    let text = fs::read_to_string(root.join("analysis-baseline.json")).expect("read baseline");
    let committed = Baseline::parse(&text).expect("parse baseline");

    let regressions = committed.regressions(&current);
    assert!(
        regressions.is_empty(),
        "unbaselined findings (rerun `cargo xtask analyze --write-baseline` \
         if deliberate): {regressions:#?}"
    );
    let stale = committed.stale(&current);
    assert!(
        stale.is_empty(),
        "stale baseline keys (rerun `cargo xtask analyze --write-baseline`): {stale:#?}"
    );
    assert_eq!(
        current.to_json(),
        committed.to_json(),
        "baseline file must be byte-regenerable from the current tree"
    );
}
