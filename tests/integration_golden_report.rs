//! The experiments report is deterministic: `experiments -- all` must print
//! exactly the checked-in `tests/golden/full_report.txt`. A refactor or an
//! optimisation that changes any figure, table or sweep verdict fails here.

use xchain_harness::experiments::full_report;

#[test]
fn full_report_matches_the_golden_file() {
    let expected = include_str!("golden/full_report.txt");
    let actual = full_report();
    if actual == expected {
        return;
    }
    let first_diff = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "the report differs from tests/golden/full_report.txt at line {}:\n  got:      {:?}\n  expected: {:?}",
        first_diff + 1,
        actual.lines().nth(first_diff),
        expected.lines().nth(first_diff),
    );
}
