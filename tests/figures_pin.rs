//! Pins every published virtual-time figure: the Figures 2–4 and 6 tables,
//! the breakdown rows behind `BENCH_counter.json` and `BENCH_gridbox.json`,
//! and the signed counter run's Chrome trace. Each is held as
//! `(length, FNV-1a)` of its rendered text, so a change to how the figures
//! are run may move no byte of them.

use ogsa_grid::breakdown::{self, COUNTER_ITERATIONS};
use ogsa_grid::grid::{self, GridConfig};
use ogsa_grid::hello::{self, HelloConfig};
use ogsa_grid::report;
use ogsa_grid::security::SecurityPolicy;
use ogsa_grid::sim::rng::hash_str;
use ogsa_grid::telemetry::export::spans_to_chrome_trace;

fn pin(text: &str) -> (usize, u64) {
    (text.len(), hash_str(text))
}

fn counter(policy: SecurityPolicy) -> breakdown::BreakdownRun {
    breakdown::counter_breakdown(HelloConfig {
        policy,
        iterations: COUNTER_ITERATIONS,
    })
}

#[test]
fn hello_figures_are_pinned() {
    let got: Vec<_> = [
        SecurityPolicy::None,
        SecurityPolicy::Https,
        SecurityPolicy::X509Sign,
    ]
    .into_iter()
    .map(|policy| {
        let rows = hello::run(HelloConfig {
            policy,
            iterations: 12,
        });
        pin(&report::render_hello("Figure", &rows))
    })
    .collect();
    assert_eq!(
        got,
        [
            (440, 0x21ae_4d24_ebc6_3195),
            (440, 0x1b6f_96d1_012d_e367),
            (440, 0x1068_64a0_f1e0_a9cc),
        ]
    );
}

#[test]
fn grid_figure_is_pinned() {
    let rows = grid::run(GridConfig::default());
    assert_eq!(
        pin(&report::render_grid("Figure 6", &rows)),
        (403, 0xbeee_e425_bd7c_6bc4)
    );
}

#[test]
fn breakdown_rows_are_pinned() {
    let plain = counter(SecurityPolicy::None);
    let grid = breakdown::grid_breakdown(GridConfig {
        iterations: 3,
        ..GridConfig::default()
    });
    assert_eq!(
        [
            pin(&report::breakdown_rows_json(&plain.rows)),
            pin(&report::breakdown_rows_json(&grid.rows)),
        ],
        [
            (1_550, 0x4335_d0f5_8f72_ca9e),
            (2_138, 0xdb6d_f570_d55e_3a07)
        ]
    );
}

#[test]
fn signed_counter_rows_and_trace_are_pinned() {
    let signed = counter(SecurityPolicy::X509Sign);
    assert_eq!(
        [
            pin(&report::breakdown_rows_json(&signed.rows)),
            pin(&spans_to_chrome_trace(&signed.spans)),
        ],
        [
            (1_737, 0x5ec7_29ea_32a4_a15d),
            (217_714, 0x0776_5945_2c01_198b)
        ]
    );
}
