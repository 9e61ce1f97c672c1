//! A009 — doc coverage.
//!
//! Every `src/` file must open with `//!` docs, and every plain-`pub`
//! item outside `#[cfg(test)]` (but `pub use`/`pub mod`) needs a `///` or
//! `#[doc …]` above it, through other attributes. Unlike rustc's
//! `missing_docs` this also covers packages outside the workspace
//! (`perfbench/`). Every finding is enforced.

use super::Finding;
use crate::mask::MaskedSource;
use crate::model::{Token, TokenKind, Workspace};
use crate::spans::in_test_span;

/// Keywords skipped when naming the item a `pub` line declares.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "async", "unsafe",
];

/// Runs the pass over every scanned `src/` file.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let in_src = |path: &str| path.starts_with("src/") || path.contains("/src/");
    for file in ws.files.iter().filter(|f| in_src(&f.path)) {
        // (line, item name, message) of every undocumented item.
        let mut missing = Vec::new();
        if !file.module_doc {
            missing.push((1, "<module>", "module lacks `//!` docs".to_owned()));
        }
        let tokens = &file.tokens;
        for (i, token) in tokens.iter().enumerate() {
            // A plain `pub` (not `pub(crate)`) opening its line.
            let Some(keyword) = tokens.get(i + 1).filter(|_| token.is("pub")) else {
                continue;
            };
            let line = file.masked.line_of(token.offset);
            let first_on_line = i == 0 || file.masked.line_of(tokens[i - 1].offset) < line;
            if first_on_line
                && !matches!(keyword.text.as_str(), "(" | "use" | "mod")
                && !in_test_span(&file.spans, line)
                && !documented(&file.masked, line)
            {
                let is_name = |t: &&Token| {
                    t.kind == TokenKind::Ident && !ITEM_KEYWORDS.contains(&t.text.as_str())
                };
                let name = tokens[i + 1..].iter().find(is_name).unwrap_or(keyword);
                let message = format!("public item `pub {}` lacks a doc comment", keyword.text);
                missing.push((line, name.text.as_str(), message));
            }
        }
        findings.extend(missing.into_iter().map(|(line, name, message)| Finding {
            code: "A009",
            path: file.path.clone(),
            line,
            func: name.to_owned(),
            kind: "doc-coverage".to_owned(),
            message,
            enforced: true,
        }));
    }
    findings
}

/// Whether a `///` line or `#[doc` attribute sits above 1-based `line`.
fn documented(masked: &MaskedSource, line: usize) -> bool {
    for above in (1..line).rev() {
        let text = String::from_utf8_lossy(masked.line(above));
        let candidate = text.trim();
        if !(candidate.starts_with("#[") || candidate.ends_with(")]")) {
            return masked.is_doc_line(above);
        }
        if candidate.contains("#[doc") {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(src: &str) -> Vec<usize> {
        run(&Workspace::from_sources([("crates/core/src/x.rs", src)]))
            .iter()
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn requires_module_and_item_docs() {
        let src =
            "use std::fmt;\n\npub struct Undocumented;\n\n/// Documented.\npub struct Fine;\n";
        assert_eq!(lines(src), vec![1, 3]);
    }

    #[test]
    fn sees_through_attributes_and_skips_reexports() {
        let src = "//! m\n/// Documented.\n#[derive(Debug)]\npub struct Fine;\npub use std::fmt;\n#[doc = \"d\"]\npub fn g() {}\n";
        assert!(lines(src).is_empty());
    }

    #[test]
    fn test_spans_and_restricted_visibility_are_exempt() {
        let src =
            "//! m\npub(crate) fn f() {}\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        assert!(lines(src).is_empty());
    }

    #[test]
    fn outer_docs_do_not_count_as_module_docs() {
        assert_eq!(lines("/// Item docs.\npub fn f() {}\n"), vec![1]);
        assert!(lines("// SPDX\n#![allow(dead_code)]\n//! m\n").is_empty());
    }

    #[test]
    fn findings_name_the_item_and_are_enforced() {
        let ws =
            Workspace::from_sources([("crates/core/src/x.rs", "//! m\n\npub const fn f() {}\n")]);
        let findings = run(&ws);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].func, "f");
        assert!(findings[0].enforced);
    }

    #[test]
    fn files_outside_src_are_out_of_scope() {
        let ws = Workspace::from_sources([("examples/demo.rs", "pub fn f() {}\n")]);
        assert!(run(&ws).is_empty());
    }
}
