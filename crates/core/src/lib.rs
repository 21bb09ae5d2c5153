//! # ogsa-core
//!
//! The facade over the whole reproduction, plus the comparison harness that
//! regenerates every quantitative result in *"Alternative Software Stacks
//! for OGSA-based Grids"* (SC 2005):
//!
//! * [`comparison::cell`] — the one experiment runner: a stack × policy ×
//!   iteration count × scenario (the counter in one deployment, or the
//!   Figure 6 job flow) is deployed, warmed and driven once, and returns
//!   each operation's exact virtual time, messages, per-kind self time and
//!   spans. The figures, the breakdowns and the trace are reads of it:
//!   * [`comparison::hello`] — the "hello world" counter evaluation
//!     (Figures 2, 3, 4): five operations × two stacks × two deployments,
//!     under each of the three security policies.
//!   * [`comparison::grid`] — the Grid-in-a-Box evaluation (Figure 6): six
//!     operations × two stacks on a full VO deployment.
//!   * [`comparison::breakdown`] — every bar decomposed into db / security
//!     / wire / soap self time plus message counts, with the spans behind
//!     `BENCH_trace.json` and the paper's ordinal claims machine-checked.
//! * [`comparison::ablation`] — the mechanism experiments behind the
//!   paper's explanations: write-through cache, TLS session cache, TCP vs
//!   HTTP notification delivery, and demand-based broker message
//!   amplification.
//! * [`report`] — fixed-width tables shaped like the paper's figures, plus
//!   machine-checkable "shape" assertions (who wins, by what factor).
//!
//! Everything else re-exports the substrate and application crates so a
//! downstream user needs only this crate (or the `ogsa-grid` umbrella).

pub mod comparison;
pub mod report;

pub use ogsa_addressing as addressing;
pub use ogsa_container as container;
pub use ogsa_counter as counter;
pub use ogsa_eventing as eventing;
pub use ogsa_fanout as fanout;
pub use ogsa_gridbox as gridbox;
pub use ogsa_security as security;
pub use ogsa_serve as serve;
pub use ogsa_sim as sim;
pub use ogsa_soap as soap;
pub use ogsa_telemetry as telemetry;
pub use ogsa_transfer as transfer;
pub use ogsa_transport as transport;
pub use ogsa_wsn as wsn;
pub use ogsa_wsrf as wsrf;
pub use ogsa_xml as xml;
pub use ogsa_xmldb as xmldb;

pub use comparison::ablation;
pub use comparison::breakdown;
pub use comparison::grid;
pub use comparison::hello;
pub use comparison::throughput;
