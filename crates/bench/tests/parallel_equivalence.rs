//! Parallel-vs-serial equivalence: the scenario runner must not change
//! figure output, only wall-clock time. Each figure is regenerated at
//! smoke scale with 1 thread and with several, and the resulting tables
//! must match cell-for-cell (and therefore byte-for-byte once rendered).
//!
//! The 1-thread table is also compared with the committed
//! `tests/golden/<fig>.smoke.csv`, so a change to any baseline's (or
//! HFetch's) time or hit ratio fails here. Re-bless intended changes with
//!
//! ```text
//! HFETCH_BLESS=1 cargo test -p hfetch-bench --test parallel_equivalence
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use bench_support::figures::{fig3b, fig4a, fig4b, fig5, fig6};
use bench_support::{BenchScale, Table};

fn golden_path(figure: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{figure}.smoke.csv"))
}

/// Checks the two tables agree, then pins the serial one to the golden CSV
/// of `figure` (or writes it under `HFETCH_BLESS=1`).
fn assert_identical(figure: &str, serial: Table, parallel: Table) {
    assert_eq!(serial, parallel, "table contents must not depend on thread count");
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.to_csv(), parallel.to_csv());

    let path = golden_path(figure);
    let got = serial.to_csv();
    if std::env::var("HFETCH_BLESS").as_deref() == Ok("1") {
        fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden table {} ({e}); bless it with \
             HFETCH_BLESS=1 cargo test -p hfetch-bench --test parallel_equivalence",
            path.display()
        )
    });
    assert!(
        got == want,
        "{figure} smoke table diverged from {}\n--- got\n{got}--- want\n{want}\
         if intended, re-bless with HFETCH_BLESS=1",
        path.display()
    );
}

#[test]
fn fig4a_output_is_thread_count_invariant() {
    assert_identical(
        "fig4a",
        fig4a::run_with_threads(BenchScale::Smoke, 1),
        fig4a::run_with_threads(BenchScale::Smoke, 4),
    );
}

#[test]
fn fig4b_output_is_thread_count_invariant() {
    assert_identical(
        "fig4b",
        fig4b::run_with_threads(BenchScale::Smoke, 1),
        fig4b::run_with_threads(BenchScale::Smoke, 8),
    );
}

#[test]
fn fig3b_output_is_thread_count_invariant() {
    assert_identical(
        "fig3b",
        fig3b::run_with_threads(BenchScale::Smoke, 1),
        fig3b::run_with_threads(BenchScale::Smoke, 3),
    );
}

#[test]
fn fig5_output_is_thread_count_invariant() {
    assert_identical(
        "fig5",
        fig5::run_with_threads(BenchScale::Smoke, 1),
        fig5::run_with_threads(BenchScale::Smoke, 4),
    );
}

#[test]
fn fig6_output_is_thread_count_invariant() {
    assert_identical(
        "fig6a",
        fig6::run_montage_with_threads(BenchScale::Smoke, 1),
        fig6::run_montage_with_threads(BenchScale::Smoke, 4),
    );
    assert_identical(
        "fig6b",
        fig6::run_wrf_with_threads(BenchScale::Smoke, 1),
        fig6::run_wrf_with_threads(BenchScale::Smoke, 4),
    );
}
