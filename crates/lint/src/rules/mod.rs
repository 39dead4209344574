//! The rule trait, registry, and token-matching helpers.
//!
//! Every rule has a stable id (`D1`…`D8`), a short name, and a
//! one-paragraph rationale; `replilint rules` prints the table. A rule
//! sees one file at a time through [`FileContext`] — code tokens,
//! comments, the `#[cfg(test)]` line ranges and the raw source text —
//! and appends [`Diagnostic`]s. Path scoping lives in [`Rule::applies`]
//! so a rule can skip whole files (D1–D3 only look inside the protected
//! crates' `src/`, D8 only at the paths its table bans names from).

mod determinism;
pub mod retired;
mod style;

use crate::cfgscan::{self, LineRanges};
use crate::diag::Diagnostic;
use crate::lexer::{Comment, Token, TokenKind};
use crate::policy::FileInfo;

/// Everything a rule may inspect about one file.
pub struct FileContext<'a> {
    pub info: &'a FileInfo,
    pub tokens: &'a [Token],
    pub comments: &'a [Comment],
    pub test_ranges: &'a LineRanges,
    /// The file's text as read, for rules that match raw text (D8).
    pub source: &'a str,
}

impl FileContext<'_> {
    /// True when `line` is inside a `#[cfg(test)]`/`#[test]` region.
    pub fn in_test(&self, line: u32) -> bool {
        cfgscan::in_ranges(self.test_ranges, line)
    }
}

/// One analyzer rule.
pub trait Rule {
    /// Stable id used in diagnostics and allow comments (`D1`).
    fn id(&self) -> &'static str;
    /// Short kebab-case name (`wall-clock`).
    fn name(&self) -> &'static str;
    /// One-line rationale shown by `replilint rules`.
    fn rationale(&self) -> &'static str;
    /// Path-level scope; files failing this are never lexed for the rule.
    fn applies(&self, info: &FileInfo) -> bool;
    /// Scans the file, appending diagnostics.
    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>);

    /// Builds a diagnostic anchored at `tok`.
    fn diag(&self, ctx: &FileContext<'_>, tok: &Token, message: String) -> Diagnostic {
        self.diag_at(&ctx.info.rel_path, tok.line, tok.col, message)
    }

    /// Builds a diagnostic anchored at `path:line:col`.
    fn diag_at(&self, path: &str, line: u32, col: u32, message: String) -> Diagnostic {
        Diagnostic {
            rule: self.id().to_string(),
            name: self.name().to_string(),
            path: path.to_string(),
            line,
            col,
            message,
        }
    }
}

/// All rules, in id order. The registry is the single source of truth:
/// the CLI, the allow resolver's known-id list, and the docs table all
/// derive from it.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(determinism::WallClock),
        Box::new(determinism::HashCollections),
        Box::new(determinism::RngDiscipline),
        Box::new(style::SafetyComment),
        Box::new(style::FloatCmpUnwrap),
        Box::new(style::PrintDiscipline),
        Box::new(determinism::FileIo),
        Box::new(retired::RetiredNames),
    ]
}

// ---- token-matching helpers shared by the rules ----

/// True when `tokens[i]` exists and is the identifier `name`.
pub(crate) fn ident_at(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens.get(i).map(|t| t.is_ident(name)).unwrap_or(false)
}

/// True when `tokens[i]` exists and is the punctuation `c`.
pub(crate) fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).map(|t| t.is_punct(c)).unwrap_or(false)
}

/// True when tokens `i..i+2` spell `::`.
pub(crate) fn path_sep_at(tokens: &[Token], i: usize) -> bool {
    punct_at(tokens, i, ':') && punct_at(tokens, i + 1, ':')
}

/// Index of the `)` matching the `(` at `open`, honoring nesting.
pub(crate) fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}
