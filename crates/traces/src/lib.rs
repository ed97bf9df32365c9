//! Bandwidth-trace substrate: a synthetic stand-in for the UQ wireless
//! dataset.
//!
//! The paper trains Hecate on a real dataset: LTE and WiFi bandwidth
//! measured with iperf once per second for 500 s along a walking path at
//! The University of Queensland (June 2017). The experimenter starts
//! indoors (building 78) and finishes outdoors (building 50); WiFi is
//! strong indoors and degrades outdoors, LTE behaves complementarily
//! (Fig 5b).
//!
//! The real capture is not redistributable, so [`uq`] generates a
//! calibrated synthetic equivalent: two 1 Hz series of 500 samples with a
//! mid-trace regime switch, WiFi having the larger mean and variance.
//! Everything the paper's evaluation consumes — two nonstationary series
//! with path-dependent variance — is preserved; see DESIGN.md §4 for the
//! substitution rationale.

pub mod uq;

pub use uq::{UqDataset, UqSpec};
