//! Diagnostics and the machine-readable report.

use serde::Serialize;

/// One finding, anchored to a file:line:col span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// Stable rule id (`D1`…`D8`, or `A0` for malformed suppressions).
    pub rule: String,
    /// Short rule name, e.g. `wall-clock`.
    pub name: String,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line of the first offending token.
    pub line: u32,
    /// 1-based column of the first offending token.
    pub col: u32,
    pub message: String,
}

impl Diagnostic {
    /// The canonical single-line rendering, `path:line:col: ID name: msg`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {} [{}]: {}",
            self.path, self.line, self.col, self.rule, self.name, self.message
        )
    }
}

/// Deterministic ordering: path, then position, then rule id.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
}

/// The whole-workspace check result (what `--json` prints).
#[derive(Debug, Serialize)]
pub struct Report {
    /// True when no diagnostics were produced.
    pub clean: bool,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(path: &str, line: u32, col: u32, rule: &str) -> Diagnostic {
        Diagnostic {
            rule: rule.into(),
            name: "n".into(),
            path: path.into(),
            line,
            col,
            message: "m".into(),
        }
    }

    #[test]
    fn ordering_is_path_then_span_then_rule() {
        let mut v = vec![
            d("b.rs", 1, 1, "D1"),
            d("a.rs", 9, 1, "D2"),
            d("a.rs", 2, 5, "D6"),
            d("a.rs", 2, 5, "D2"),
        ];
        sort(&mut v);
        let order: Vec<_> = v
            .iter()
            .map(|x| (x.path.clone(), x.line, x.rule.clone()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".into(), 2, "D2".into()),
                ("a.rs".into(), 2, "D6".into()),
                ("a.rs".into(), 9, "D2".into()),
                ("b.rs".into(), 1, "D1".into()),
            ]
        );
    }

    #[test]
    fn render_is_grep_friendly() {
        assert_eq!(
            d("crates/sim/src/a.rs", 3, 7, "D1").render(),
            "crates/sim/src/a.rs:3:7: D1 [n]: m"
        );
    }
}
