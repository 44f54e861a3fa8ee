//! The paper's winner orderings at full scale (the paper's parameters):
//! Fig. 4(a) parallel < HFetch < serial < none, Fig. 5's data-centric
//! HFetch ahead of the application-centric cache on the repetitive and
//! irregular patterns, and Fig. 6's HFetch ahead of Stacker and
//! KnowAc+profile end to end and never behind no prefetching. Smoke tables
//! are too small to show these orderings, so the goldens cannot catch a
//! change that loses one.
//!
//! Fig. 5's sequential and strided rows are the open deviations of
//! ROADMAP.md item 1 (the paper has data-centric winning them too); they
//! are named here and not asserted.

use bench_support::figures::{fig4a, fig5, fig6};
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

/// Each row's rank count with HFetch's seconds and `rival`'s.
fn hfetch_against(table: &Table, rival: &str) -> Vec<(u32, f64, f64)> {
    let row = |r: &Vec<String>| {
        (r[0].parse().expect("ranks"), seconds(table, &r[0], "hfetch (s)"), seconds(table, &r[0], rival))
    };
    table.rows.iter().map(row).collect()
}

/// From 640 ranks up, HFetch beats Stacker and KnowAc+profile end to end.
fn hfetch_best_from_640_ranks(table: &Table) {
    for rival in ["stacker (s)", "knowac+profile (s)"] {
        for (ranks, hfetch, other) in hfetch_against(table, rival) {
            assert!(
                ranks < 640 || hfetch < other,
                "{ranks} ranks: hfetch {hfetch} s, {rival} {other}:\n{}",
                table.render()
            );
        }
    }
}

#[test]
fn fig6a_full_scale_hfetch_never_trails_none_and_wins_from_640_ranks() {
    let table = fig6::run_montage_with_threads(BenchScale::Full, 2);
    for (ranks, hfetch, none) in hfetch_against(&table, "none (s)") {
        assert!(hfetch <= none, "{ranks} ranks: hfetch {hfetch} s, none {none} s:\n{}", table.render());
    }
    hfetch_best_from_640_ranks(&table);
}

#[test]
fn fig6b_full_scale_hfetch_ties_or_beats_none_and_wins_from_640_ranks() {
    let table = fig6::run_wrf_with_threads(BenchScale::Full, 2);
    // 320 ranks is a tie: hfetch 105.231 s against none's 105.225 s.
    for (ranks, hfetch, none) in hfetch_against(&table, "none (s)") {
        assert!(
            hfetch <= none * 1.001,
            "{ranks} ranks: hfetch {hfetch} s, none {none} s (a 0.1% tie allowed):\n{}",
            table.render()
        );
    }
    hfetch_best_from_640_ranks(&table);
}
