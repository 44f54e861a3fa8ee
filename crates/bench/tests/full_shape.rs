//! The paper's winner orderings at full scale (the paper's parameters):
//! Fig. 4(a) parallel < HFetch < serial < none, and Fig. 5's data-centric
//! HFetch ahead of the application-centric cache on the repetitive and
//! irregular patterns. Smoke tables are too small to show either ordering,
//! so the goldens cannot catch a change that loses one.
//!
//! Fig. 5's sequential and strided rows are the open deviations of
//! ROADMAP.md item 1 (the paper has data-centric winning them too); they
//! are named here and not asserted.

use bench_support::figures::{fig4a, fig5};
use bench_support::{BenchScale, Table};

/// The `column` cell of the row whose first cell is `row`, in seconds.
fn seconds(table: &Table, row: &str, column: &str) -> f64 {
    let col = table.columns.iter().position(|c| c == column).expect("column");
    let cells = table.rows.iter().find(|r| r[0] == row).expect("row");
    cells[col].parse().expect("seconds")
}

#[test]
fn fig4a_full_scale_orders_parallel_hfetch_serial_none() {
    let table = fig4a::run_with_threads(BenchScale::Full, 2);
    let time = |system| seconds(&table, system, "time (s)");
    let order = ["parallel", "hfetch", "serial", "none"];
    assert!(
        order.windows(2).all(|w| time(w[0]) < time(w[1])),
        "want {order:?} fastest first:\n{}",
        table.render()
    );
}

#[test]
fn fig5_full_scale_data_centric_wins_repetitive_and_irregular() {
    let table = fig5::run_with_threads(BenchScale::Full, 2);
    for pattern in ["repetitive", "irregular"] {
        let app = seconds(&table, pattern, "app-centric (s)");
        let data = seconds(&table, pattern, "data-centric (s)");
        assert!(data < app, "{pattern}: data-centric {data} s, app-centric {app} s:\n{}", table.render());
    }
}
