//! A004 — determinism escapes.
//!
//! Paper figures must reproduce bit-for-bit, so results may not depend on
//! std's randomized hash ordering. Wall-clock time is clippy's job (the
//! root `clippy.toml` bans `Instant`/`SystemTime` by type), and A006
//! traces every nondeterminism source interprocedurally; this pass keeps
//! the per-function hash check:
//!
//! - `hash-iteration`: a function that names `HashMap`/`HashSet` *and*
//!   iterates (`.iter()`, `.keys()`, `.values()`, `.drain()`,
//!   `.into_iter()`, or a `for` loop). Iteration order of std hash
//!   containers is randomized per process; anything it feeds into output
//!   is nondeterministic. (BTreeMap/BTreeSet are the sanctioned
//!   replacements.)

use super::Finding;
use crate::model::{CallKind, TokenKind, Workspace};

/// Method names that iterate a container.
const ITERATION_METHODS: &[&str] = &["iter", "keys", "values", "into_iter", "drain", "iter_mut"];

/// Runs the pass.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for item in ws.fns.iter().filter(|item| !item.in_test) {
        let file_path = &ws.files[item.file].path;

        // hash-iteration: the type must be named in this function and some
        // iteration evidence must exist.
        let mut hash_line = None;
        let mut iterates = false;
        for (i, token) in ws.body_tokens(item) {
            if token.kind == TokenKind::Ident
                && (token.text == "HashMap" || token.text == "HashSet")
            {
                hash_line.get_or_insert(ws.line_of(item, i));
            }
            if token.kind == TokenKind::Ident && token.text == "for" {
                iterates = true;
            }
        }
        let names_hash = hash_line.is_some()
            || item
                .params
                .iter()
                .any(|p| p.type_text.contains("HashMap") || p.type_text.contains("HashSet"));
        iterates = iterates
            || item.calls.iter().any(|c| {
                c.kind == CallKind::Method && ITERATION_METHODS.contains(&c.name.as_str())
            });
        if names_hash && iterates {
            findings.push(Finding {
                code: "A004",
                path: file_path.clone(),
                line: hash_line.unwrap_or(item.line),
                func: item.qual_name(),
                kind: "hash-iteration".to_owned(),
                message: format!(
                    "`{}` iterates a std hash container; iteration order is randomized per process — use BTreeMap/BTreeSet or sort before output",
                    item.qual_name()
                ),
                enforced: false,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;

    fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
        run(&Workspace::from_sources(files.iter().copied()))
    }

    #[test]
    fn hash_iteration_flagged() {
        let findings = analyze(&[(
            "crates/cluster/src/lib.rs",
            "use std::collections::HashMap;\n\
             pub fn dump(m: &HashMap<String, u32>) -> Vec<u32> { m.values().copied().collect() }\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "hash-iteration");
    }

    #[test]
    fn hash_lookup_without_iteration_not_flagged() {
        let findings = analyze(&[(
            "crates/cluster/src/lib.rs",
            "use std::collections::HashMap;\n\
             pub fn get(m: &HashMap<String, u32>, k: &str) -> Option<u32> { m.get(k).copied() }\n",
        )]);
        assert!(findings.is_empty());
    }
}
