//! # mtp-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation, except the
//! ones reproduced as scenario files under `scenarios/` and run by the
//! `mtp-scenario` crate's `scn` binary (Figure 5, the failure study and
//! the corruption study):
//!
//! | binary   | paper artefact | what it regenerates |
//! |----------|----------------|---------------------|
//! | `table1` | Table 1        | transport capability matrix |
//! | `fig2`   | Figure 2       | proxy buffering vs HOL blocking |
//! | `fig3`   | Figure 3       | one-message-per-flow congestion noise |
//! | `fig6`   | Figure 6       | load-/request-aware load balancing |
//! | `fig7`   | Figure 7       | per-entity isolation |
//! | `ablations` | §4 design discussion | pathlet granularity, header overhead, blob vs message |
//! | `leafspine` | extension of Figure 6 | load balancing on a 4×4 Clos |
//! | `sweep`  | Figure 5 robustness | path-alternation goodput across start phases |
//!
//! Each binary prints the series/rows the paper reports and writes a JSON
//! record under `results/`. Runs are deterministic: fixed seeds, shared
//! topology builders ([`topo`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endpoint;
pub mod fabric;
pub mod hotpath;
pub mod output;
pub mod parallel;
pub mod study;
pub mod topo;

pub use output::{write_json, ExperimentRecord};
