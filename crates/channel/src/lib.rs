//! # bs-channel — RF propagation substrate for the Wi-Fi Backscatter reproduction
//!
//! The paper's evaluation runs over a physical 2.4 GHz indoor environment;
//! this crate is the simulated replacement (see DESIGN.md §2). It produces,
//! for every simulated Wi-Fi packet, the *true* complex channel between the
//! helper and each reader antenna at each OFDM subcarrier — including the
//! perturbation contributed by the backscatter tag in its current
//! reflect/absorb state. Measurement artifacts (CSI quantisation, RSSI
//! integration, spurious jumps) are layered on top by `bs-wifi`; analog
//! envelope detection at the tag by `bs-tag`.
//!
//! Modules:
//!
//! * [`geometry`] — 2-D positions, the Fig. 13 testbed locations, walls and
//!   line-of-sight tests.
//! * [`pathloss`] — free-space and log-distance path-loss models, dB/linear
//!   conversions.
//! * [`multipath`] — seeded tapped-delay-line small-scale fading with a
//!   Rician LOS component; evaluated as a frequency response across the
//!   OFDM band (the source of the paper's sub-channel diversity, Figs 4/5).
//! * [`fading`] — slow AR(1) temporal variation modelling environmental
//!   mobility; this is what the 400 ms moving-average conditioning removes.
//! * [`backscatter`] — the tag's two-state radar-cross-section model and the
//!   cascaded helper→tag→reader scattered path.
//! * [`noise`] — thermal noise floor.
//! * [`scene`] — ties everything together: a [`scene::Scene`] yields
//!   per-packet [`scene::ChannelSnapshot`]s.
//! * [`faults`] — deterministic seeded fault injection (outages, loss,
//!   sensor degradation, clock drift, interference bursts) layered as
//!   decorators over the traffic and scene generators.
//! * [`calib`] — the documented physical constants that anchor the
//!   simulation to the paper's operating points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backscatter;
pub mod calib;
pub mod fading;
pub mod faults;
pub mod geometry;
pub mod multipath;
pub mod noise;
pub mod pathloss;
pub mod scene;

pub use backscatter::TagState;
pub use faults::{Fault, FaultEvents, FaultPlan};
pub use geometry::Point;
pub use scene::{ChannelSnapshot, InterferenceConfig, Scene, SceneConfig};
