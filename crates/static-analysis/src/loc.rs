//! cloc-equivalent line classification.
//!
//! The paper's Figure 2 measures application size with `cloc` [29]: every
//! source line is classified as *code*, *comment*, or *blank*. This module
//! reimplements that classification for MiniLang's dialects, including the
//! awkward cases cloc handles — block comments spanning lines, code and
//! comment on the same line (counted as code), and comment markers inside
//! string literals (not comments).

use minilang::{Dialect, Module, Program};

/// Per-file or aggregated line counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocCounts {
    /// Lines containing at least one token of code.
    pub code: usize,
    /// Lines containing only comment text (and optional whitespace).
    pub comment: usize,
    /// Lines that are empty or whitespace-only.
    pub blank: usize,
}

impl LocCounts {
    /// Total physical lines.
    pub fn total(&self) -> usize {
        self.code + self.comment + self.blank
    }

    /// Code lines in thousands — the x-axis unit of the paper's Figure 2.
    pub fn kloc(&self) -> f64 {
        self.code as f64 / 1000.0
    }

    /// Comment-to-code ratio (0 when there is no code), one of the classic
    /// "code smell" inputs.
    pub fn comment_ratio(&self) -> f64 {
        if self.code == 0 {
            0.0
        } else {
            self.comment as f64 / self.code as f64
        }
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: LocCounts) {
        self.code += other.code;
        self.comment += other.comment;
        self.blank += other.blank;
    }
}

/// Classify every line of `source` under the given dialect's comment syntax.
///
/// The scan works on bytes: the comment markers and the quote are ASCII
/// (a marker is only compared where its first byte matches), and a
/// multi-byte character is stepped over whole, its width read off its
/// lead byte, everywhere outside string literals.
pub fn count_source(source: &str, dialect: Dialect) -> LocCounts {
    let line_intro = dialect.line_comment().as_bytes();
    let (block_open, block_close) = dialect.block_comment();
    let (block_open, block_close) = (block_open.as_bytes(), block_close.as_bytes());
    let mut counts = LocCounts::default();
    // Carried across lines: are we inside a block comment?
    let mut in_block = false;

    for line in source.lines() {
        let mut has_code = false;
        let mut has_comment = in_block && !line.trim().is_empty();
        let bytes = line.as_bytes();
        let mut i = 0;
        let mut in_string = false;

        while i < bytes.len() {
            let b = bytes[i];
            if in_block {
                has_comment = true;
                if b == block_close[0] && bytes[i..].starts_with(block_close) {
                    in_block = false;
                    i += block_close.len();
                } else {
                    i += utf8_width(b);
                }
                continue;
            }
            if in_string {
                has_code = true;
                if b == b'\\' && i + 1 < bytes.len() {
                    i += 2;
                } else {
                    if b == b'"' {
                        in_string = false;
                    }
                    i += 1;
                }
                continue;
            }
            // Outside both string and block comment.
            if b == line_intro[0] && bytes[i..].starts_with(line_intro) {
                has_comment = true;
                break; // rest of the line is comment
            }
            if b == block_open[0] && bytes[i..].starts_with(block_open) {
                has_comment = true;
                in_block = true;
                i += block_open.len();
                continue;
            }
            if b == b'"' {
                // NOTE: in the Python dialect the block-open `"""` is matched
                // above before this single-quote case fires.
                in_string = true;
                has_code = true;
                i += 1;
                continue;
            }
            if !b.is_ascii_whitespace() {
                has_code = true;
            }
            i += utf8_width(b);
        }

        if has_code {
            counts.code += 1;
        } else if has_comment {
            counts.comment += 1;
        } else {
            counts.blank += 1;
        }
    }
    counts
}

/// Byte width of the UTF-8 character whose first byte is `lead`.
fn utf8_width(lead: u8) -> usize {
    match lead {
        0xf0.. => 4,
        0xe0.. => 3,
        0xc0.. => 2,
        _ => 1,
    }
}

/// Count one module using its own dialect.
pub fn count_module(module: &Module) -> LocCounts {
    count_source(&module.source, module.dialect)
}

/// Aggregate counts across a whole program.
pub fn count_program(program: &Program) -> LocCounts {
    let mut total = LocCounts::default();
    for m in &program.modules {
        total.add(count_module(m));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_code_comment_blank() {
        let src = "let x: int = 1;\n// only comment\n\n   \nx = 2; // trailing\n";
        let c = count_source(src, Dialect::C);
        assert_eq!(
            c,
            LocCounts {
                code: 2,
                comment: 1,
                blank: 2
            }
        );
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn block_comment_spanning_lines() {
        let src = "a;\n/* one\n two\n three */\nb;\n";
        let c = count_source(src, Dialect::C);
        assert_eq!(
            c,
            LocCounts {
                code: 2,
                comment: 3,
                blank: 0
            }
        );
    }

    #[test]
    fn code_before_block_comment_counts_as_code() {
        let src = "a; /* comment\nstill comment */ b;\n";
        let c = count_source(src, Dialect::C);
        // Line 1 has code then comment → code; line 2 has comment then code → code.
        assert_eq!(
            c,
            LocCounts {
                code: 2,
                comment: 0,
                blank: 0
            }
        );
    }

    #[test]
    fn comment_marker_inside_string_is_code() {
        let src = "printf(\"// not a comment /* nope */\");\n";
        let c = count_source(src, Dialect::C);
        assert_eq!(
            c,
            LocCounts {
                code: 1,
                comment: 0,
                blank: 0
            }
        );
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let src = "printf(\"a\\\"// still string\");\n";
        let c = count_source(src, Dialect::C);
        assert_eq!(c.code, 1);
        assert_eq!(c.comment, 0);
    }

    #[test]
    fn python_dialect_hash_comments() {
        let src = "x = 1\n# comment\n\"\"\" block\nstill \"\"\"\ny = 2\n";
        let c = count_source(src, Dialect::Python);
        assert_eq!(
            c,
            LocCounts {
                code: 2,
                comment: 3,
                blank: 0
            }
        );
    }

    #[test]
    fn multibyte_characters_are_stepped_whole() {
        // Non-ASCII code, string contents, comment text and a lone
        // non-ASCII symbol.
        let src = "let é: str = \"ü // no\"; // ç\n/* ñ\n€ */\n  ∀\n";
        let c = count_source(src, Dialect::C);
        assert_eq!(
            c,
            LocCounts {
                code: 2,
                comment: 2,
                blank: 0
            }
        );
    }

    #[test]
    fn hash_is_not_comment_in_c() {
        let c = count_source("# not a c comment\n", Dialect::C);
        assert_eq!(c.code, 1);
    }

    #[test]
    fn blank_lines_inside_block_comment_are_comment_free() {
        // cloc counts whitespace-only lines inside block comments as blank?
        // cloc actually counts them as comment; we count truly-empty lines
        // inside a block comment as blank only when they contain nothing.
        let src = "/*\n\nx\n*/\n";
        let c = count_source(src, Dialect::C);
        assert_eq!(c.code, 0);
        assert_eq!(c.comment + c.blank, 4);
        assert_eq!(c.blank, 1);
    }

    #[test]
    fn totals_and_ratios() {
        let c = LocCounts {
            code: 200,
            comment: 50,
            blank: 10,
        };
        assert_eq!(c.total(), 260);
        assert!((c.kloc() - 0.2).abs() < 1e-12);
        assert!((c.comment_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(LocCounts::default().comment_ratio(), 0.0);
    }

    #[test]
    fn unterminated_block_comment_runs_to_eof() {
        let src = "a;\n/* unterminated\nmore\n";
        let c = count_source(src, Dialect::C);
        assert_eq!(
            c,
            LocCounts {
                code: 1,
                comment: 2,
                blank: 0
            }
        );
    }

    #[test]
    fn empty_source() {
        assert_eq!(count_source("", Dialect::C), LocCounts::default());
    }

    #[test]
    fn crlf_and_no_trailing_newline() {
        let c = count_source("a;\r\nb;", Dialect::C);
        assert_eq!(c.code, 2);
    }
}
