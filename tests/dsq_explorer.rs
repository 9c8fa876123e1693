//! The DSQ example's output, pinned: `examples/dsq_explorer.rs` prints
//! what its `report` function renders, and this test runs that same
//! function against `tests/golden/dsq_explorer.txt`.

#[path = "../examples/dsq_explorer.rs"]
#[allow(dead_code)]
mod example;

#[test]
fn dsq_explorer_output_matches_its_golden() {
    let report = example::report().unwrap();
    assert_eq!(report, include_str!("golden/dsq_explorer.txt"));
}
