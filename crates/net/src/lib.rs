//! `bs-net` — the connectivity layer over the Wi-Fi Backscatter link.
//!
//! The paper promises *internet connectivity* for RF-powered devices;
//! the layers below this crate deliver one short frame per query. This
//! crate closes the gap with five pieces:
//!
//! * [`seg`] — segmentation/reassembly: arbitrary byte messages split
//!   into CRC-protected, sequence-numbered [`seg::Segment`]s and
//!   reassembled exactly, whatever the loss, duplication or reordering
//!   on the way;
//! * [`arq`] — a sliding-window ARQ transport: polls grant the tag
//!   burst windows, a cumulative + selective [`WindowAck`] rides the
//!   downlink, no-progress rounds back off through the link stack's
//!   [`RetryPolicy`] with seeded jitter, and the whole transfer is a
//!   deterministic function of its seeds;
//! * [`fec`] — forward error correction under the ARQ: an in-repo
//!   GF(256) Reed-Solomon coder applied across segment groups, so a
//!   window reconstructs lost segments from parity instead of paying a
//!   retransmission round trip — the difference between limping and
//!   living when the helper traffic goes heavy-tailed (enable with
//!   [`arq::TransportConfig::with_fec`], pick the rate from measured
//!   traffic with [`fec::FecConfig::for_traffic`]);
//! * [`gateway`] — N tags behind one reader: singulation via the
//!   existing inventory, deficit-round-robin service, per-tag rate
//!   adaptation, all on one simulated clock;
//! * [`fleet`] — deployment scale: hundreds of gateways and 10⁵–10⁶
//!   tags in a sharded discrete-event engine with inter-gateway
//!   interference and tag handoff, byte-identical for any worker
//!   count.
//!
//! The transport runs over any [`linkmodel::SegmentLink`]; use
//! [`linkmodel::SimLink`] for fast seeded sweeps (the `net` bench
//! figure, and with [`linkmodel::SimLink::from_traffic`] the wild
//! helper traffic of the `fec` figure) and [`linkmodel::PhyLink`] to
//! drive the full PHY simulation.
//!
//! ```
//! use bs_net::prelude::*;
//!
//! let message: Vec<u8> = (0..300u32).map(|i| (i % 256) as u8).collect();
//! let plan = FaultPlan::preset("loss", 0.5, 7).unwrap();
//! let mut link = SimLink::new(plan, 42);
//! let t = run_transfer(&message, TransportConfig::default(), &mut link);
//! assert!(t.complete);
//! assert_eq!(t.delivered, Some(message));
//! ```
//!
//! [`WindowAck`]: wifi_backscatter::protocol::WindowAck
//! [`RetryPolicy`]: wifi_backscatter::protocol::RetryPolicy

#![forbid(unsafe_code)]

pub mod arq;
pub mod fec;
pub mod fleet;
pub mod gateway;
pub mod linkmodel;
pub mod prelude;
pub mod seg;
