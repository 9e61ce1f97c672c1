//! Deterministic workspace file walker.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names the walk never descends into: build output, vendored
/// dependency stand-ins (which keep their own lint configuration), VCS
/// metadata, and test fixtures (which violate invariants on purpose).
const SKIPPED_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Whether a workspace-relative path is test code (under `tests/` or
/// `benches/`), which the analysis never scans.
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path.split('/').any(|c| c == "tests" || c == "benches")
}

/// Collects every `.rs` file under `root`, skipping [`SKIPPED_DIRS`],
/// returned as workspace-relative forward-slash paths in sorted order so
/// diagnostics are stable across platforms and runs.
pub fn rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if path.is_dir() {
                if !SKIPPED_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(relative) = path.strip_prefix(root) {
                    files.push(
                        relative
                            .components()
                            .map(|c| c.as_os_str().to_string_lossy())
                            .collect::<Vec<_>>()
                            .join("/"),
                    );
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_crate_and_skips_fixtures() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = rust_files(root).expect("walk xtask");
        assert!(files.contains(&"src/walk.rs".to_owned()));
        assert!(files.iter().all(|f| !f.contains("fixtures/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walker output must be sorted");
    }

    #[test]
    fn test_paths_are_recognized() {
        assert!(is_test_path("crates/hwsim/tests/integration.rs"));
        assert!(is_test_path("crates/bench/benches/micro.rs"));
        assert!(!is_test_path("crates/hwsim/src/node.rs"));
        assert!(!is_test_path("src/lib.rs"));
    }
}
