//! The chemcost serving benchmark: one command that builds the paper's
//! Aurora model from a seed, starts the real `chemcost serve` daemon at
//! its default flags, drives one closed-loop workload over loopback,
//! checks every answer against an in-process reference, and prints the
//! end-to-end metrics — or, traced, the per-layer ones. See `README.md`.

pub mod daemon;
pub mod drive;
pub mod layers;
pub mod oracle;
pub mod prom;
pub mod run;
pub mod stats;
pub mod wire;
pub mod workload;
