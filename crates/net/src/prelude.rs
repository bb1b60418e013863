//! The blessed public surface of the connectivity layer.
//!
//! ```
//! use bs_net::prelude::*;
//! ```
//!
//! Everything a gateway application or experiment normally touches:
//! transfer/gateway entry points and their recorder-threading `*_with`
//! variants, the fleet simulator, the configs, the link models, the FEC
//! layer, and the wire types.
//! Re-exports of the handful of core types a transport caller always
//! needs ([`FaultPlan`], [`RetryPolicy`], [`WindowAck`])
//! ride along, as do the traffic-measurement types the FEC rate rule
//! consumes ([`WildTraffic`], [`RateEstimator`], [`TrafficStats`]), so
//! one import line suffices.
//!
//! The list is pinned by [`NET_PRELUDE_MANIFEST`] and guarded by the
//! same `api_snapshot` drift gate as the core prelude (golden fixture
//! `tests/golden/prelude_api.txt`, reblessed with `GOLDEN_BLESS=1`).

pub use crate::arq::{
    run_transfer, run_transfer_with, RoundOutcome, Transfer, TransportConfig, TransportSession,
};
pub use crate::fec::{FecConfig, FecError, GroupCoder, ReedSolomon, RepairOutcome};
pub use crate::fleet::{
    run_fleet, FleetConfig, FleetEnergyConfig, FleetError, FleetRun, TagRecord,
    MAX_TAGS_PER_GATEWAY,
};
pub use crate::gateway::{
    run_gateway, run_gateway_with, GatewayConfig, GatewayError, GatewayRun, PollingPolicy,
    TagEnergyOutcome, TagOutcome, TagProfile,
};
pub use crate::linkmodel::{PhyLink, SegmentFate, SegmentLink, SimLink};
pub use crate::seg::{segment_message, Accept, Reassembler, Segment, SegmentError};
pub use bs_channel::faults::FaultPlan;
pub use bs_wifi::traffic::{RateEstimator, TrafficStats, WildTraffic};
pub use wifi_backscatter::protocol::{RetryPolicy, WindowAck};

/// The names this prelude exports, sorted — compared against the golden
/// fixture by the `api_snapshot` drift gate. Keep in lockstep with the
/// `pub use` lines above.
pub const NET_PRELUDE_MANIFEST: &[&str] = &[
    "Accept",
    "FaultPlan",
    "FecConfig",
    "FecError",
    "FleetConfig",
    "FleetEnergyConfig",
    "FleetError",
    "FleetRun",
    "GatewayConfig",
    "GatewayError",
    "GatewayRun",
    "GroupCoder",
    "MAX_TAGS_PER_GATEWAY",
    "PhyLink",
    "PollingPolicy",
    "RateEstimator",
    "Reassembler",
    "ReedSolomon",
    "RepairOutcome",
    "RetryPolicy",
    "RoundOutcome",
    "Segment",
    "SegmentError",
    "SegmentFate",
    "SegmentLink",
    "SimLink",
    "TagEnergyOutcome",
    "TagOutcome",
    "TagProfile",
    "TagRecord",
    "TrafficStats",
    "Transfer",
    "TransportConfig",
    "TransportSession",
    "WildTraffic",
    "WindowAck",
    "run_fleet",
    "run_gateway",
    "run_gateway_with",
    "run_transfer",
    "run_transfer_with",
    "segment_message",
];

#[cfg(test)]
mod tests {
    use super::NET_PRELUDE_MANIFEST;

    #[test]
    fn manifest_is_sorted_and_unique() {
        for w in NET_PRELUDE_MANIFEST.windows(2) {
            assert!(w[0] < w[1], "manifest out of order near {:?}", w);
        }
    }

    #[test]
    fn prelude_names_resolve() {
        use super::*;
        let _ = TransportConfig::default();
        let _ = GatewayConfig::default();
        let _ = FleetEnergyConfig::default();
        let _ = PollingPolicy::default();
        let _ = SimLink::new(FaultPlan::none(), 1);
        let _ = FecConfig::fixed(8, 2);
        let _ = ReedSolomon::new(12, 8);
        let _ = WildTraffic::wild();
        let _ = RateEstimator::new();
        let _: fn(&[u8], TransportConfig, &mut dyn SegmentLink) -> Transfer = run_transfer;
    }
}
