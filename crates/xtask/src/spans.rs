//! `#[cfg(test)]` span detection.
//!
//! The analysis passes apply to production code only; anything compiled
//! exclusively under `cfg(test)` is exempt. This
//! module locates every `#[cfg(test)]` attribute in a masked source and
//! resolves the byte span of the item it gates (usually `mod tests { … }`)
//! by brace matching — safe because the input is masked, so no brace inside
//! a string or comment can confuse the count.

use crate::mask::MaskedSource;

/// An inclusive 1-based line range compiled only under `cfg(test)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestSpan {
    /// First line of the span (the attribute itself).
    pub start_line: usize,
    /// Last line of the span (the item's closing brace or semicolon).
    pub end_line: usize,
}

impl TestSpan {
    /// Whether 1-based `line` falls inside the span.
    pub fn contains(&self, line: usize) -> bool {
        (self.start_line..=self.end_line).contains(&line)
    }
}

const CFG_TEST: &[u8] = b"#[cfg(test)]";

/// Finds every `#[cfg(test)]`-gated item in `source` and returns the line
/// spans its checks must skip. Items whose braces never close (mid-edit
/// files) extend to the end of the file.
pub fn test_spans(source: &MaskedSource) -> Vec<TestSpan> {
    let bytes = &source.masked;
    let mut spans = Vec::new();
    let mut from = 0usize;
    while let Some(found) = find_from(bytes, CFG_TEST, from) {
        let start_line = source.line_of(found);
        let end = item_end(bytes, found + CFG_TEST.len());
        let end_line = source.line_of(end.min(bytes.len().saturating_sub(1)));
        spans.push(TestSpan {
            start_line,
            end_line,
        });
        from = end + 1;
    }
    spans
}

/// Whether 1-based `line` is inside any of `spans`.
pub fn in_test_span(spans: &[TestSpan], line: usize) -> bool {
    spans.iter().any(|span| span.contains(line))
}

/// First occurrence of `needle` in `haystack` at or after `from`.
fn find_from(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|window| window == needle)
        .map(|position| from + position)
}

/// Byte offset of the end of the item that starts after offset `p`:
/// skips whitespace and further attributes, then either the matching
/// closing brace of the item's block or the terminating semicolon.
fn item_end(bytes: &[u8], mut p: usize) -> usize {
    // Skip whitespace and any additional `#[…]` attributes.
    loop {
        while p < bytes.len() && bytes[p].is_ascii_whitespace() {
            p += 1;
        }
        if p + 1 < bytes.len() && bytes[p] == b'#' && bytes[p + 1] == b'[' {
            let mut depth = 0usize;
            while p < bytes.len() {
                match bytes[p] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            p += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                p += 1;
            }
        } else {
            break;
        }
    }
    // The item: ends at the first `;` seen before any `{`, or at the brace
    // that closes the first `{`.
    let mut depth = 0usize;
    while p < bytes.len() {
        match bytes[p] {
            b';' if depth == 0 => return p,
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return p;
                }
            }
            _ => {}
        }
        p += 1;
    }
    bytes.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::mask;

    #[test]
    fn finds_test_module_span() {
        let src = "pub fn real() {}\n\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let spans = test_spans(&mask(src));
        assert_eq!(
            spans,
            vec![TestSpan {
                start_line: 3,
                end_line: 6
            }]
        );
        assert!(in_test_span(&spans, 4));
        assert!(!in_test_span(&spans, 1));
    }

    #[test]
    fn handles_extra_attributes_and_items_without_braces() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nuse std::fmt::Debug;\nfn live() {}\n";
        let spans = test_spans(&mask(src));
        assert_eq!(
            spans,
            vec![TestSpan {
                start_line: 1,
                end_line: 3
            }]
        );
        assert!(!in_test_span(&spans, 4));
    }

    #[test]
    fn nested_braces_do_not_end_early() {
        let src = "#[cfg(test)]\nmod tests {\n    fn a() { if true { } }\n    fn b() {}\n}\nfn after() {}\n";
        let spans = test_spans(&mask(src));
        assert_eq!(
            spans,
            vec![TestSpan {
                start_line: 1,
                end_line: 5
            }]
        );
    }

    #[test]
    fn braces_inside_strings_are_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}\";\n}\nfn after() {}\n";
        let spans = test_spans(&mask(src));
        assert_eq!(
            spans,
            vec![TestSpan {
                start_line: 1,
                end_line: 4
            }]
        );
    }

    #[test]
    fn multiple_spans() {
        let src = "#[cfg(test)]\nmod a {}\nfn mid() {}\n#[cfg(test)]\nmod b {}\n";
        let spans = test_spans(&mask(src));
        assert_eq!(spans.len(), 2);
        assert!(!in_test_span(&spans, 3));
    }
}
