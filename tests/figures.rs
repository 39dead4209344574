//! The `figures` descriptor table: coverage of the paper's evaluation,
//! and text goldens for the cheap artifacts.
//!
//! The goldens under `tests/golden/figures_<key>.txt` are the stdout of
//! the twenty per-artifact binaries this table replaced, captured at the
//! default seed in quick mode before they were deleted, so they pin the
//! renderers byte for byte. Regenerate after an *intentional* change
//! with `REPLIPRED_BLESS=1 cargo test --test figures`.

mod common;

use replipred::figures::{find, Kind, Options, Session, ARTIFACTS};

/// The artifacts cheap enough for a debug-build test: no simulation
/// grid behind them (`sens-certifier` runs five short cells).
const PINNED: [&str; 6] = [
    "table2",
    "table4",
    "sens-certifier",
    "sens-network-delay",
    "ablation-cw-fixed-point",
    "ablation-mva-exact-vs-approx",
];

#[test]
fn the_table_covers_the_papers_figures_and_tables_exactly_once() {
    let keys: Vec<&str> = ARTIFACTS.iter().map(|a| a.key).collect();
    for key in (6..=14)
        .map(|n| format!("fig{n}"))
        .chain((2..=5).map(|n| format!("table{n}")))
    {
        let count = keys.iter().filter(|k| **k == key).count();
        assert_eq!(count, 1, "{key} appears {count} times");
    }
    let mut unique = keys.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), keys.len(), "duplicate keys: {keys:?}");
    // The twelve regular artifacts are data; only the rest carry code.
    let bespoke = ARTIFACTS
        .iter()
        .filter(|a| matches!(a.kind, Kind::Bespoke(_)));
    assert_eq!(bespoke.count(), 8);
    for a in &ARTIFACTS {
        assert!(std::ptr::eq(find(a.key).unwrap(), a));
        // "Figure 6." / "Table 2." titles carry the paper's numbering.
        if let Some(n) = a.key.strip_prefix("fig") {
            assert!(a.title.starts_with(&format!("Figure {n}. ")), "{}", a.title);
        }
        if let Some(n) = a.key.strip_prefix("table") {
            assert!(a.title.starts_with(&format!("Table {n}. ")), "{}", a.title);
        }
    }
    assert!(find("fig5").is_none());
}

#[test]
fn cheap_artifacts_match_their_text_goldens() {
    // The goldens were captured at two workers: one worker here also
    // shows the output does not depend on the job count.
    let mut session = Session::new(Options::default());
    for key in PINNED {
        let text = session.render(find(key).expect("pinned key"));
        common::check_golden(&format!("figures_{key}.txt"), &text);
    }
}
