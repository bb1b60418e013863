//! The blessed public surface, importable in one line.
//!
//! ```
//! use wifi_backscatter::prelude::*;
//! ```
//!
//! Everything an application or experiment normally touches is here: the
//! end-to-end `run_*` entry points and their recorder-threading `*_with`
//! variants, the builder-style configs, the session [`Reader`], the
//! unified [`Error`] and the observability types. Lower-level mechanisms (modulators, channel scenes, MAC
//! internals) stay behind their module paths on purpose.
//!
//! The re-export list is pinned by [`PRELUDE_MANIFEST`] and guarded by the
//! `api_snapshot` test: adding or removing a name here is an API change
//! and must update the manifest (and the golden fixture) in the same
//! commit.

pub use crate::error::{EncodeError, Error, ProtocolError, SessionError, TraceError};
pub use crate::link::{
    capture_uplink, capture_uplink_with, DegradationReport, DownlinkConfig, DownlinkRun,
    LinkConfig, Measurement, UplinkCapture, UplinkRun,
};
pub use crate::longrange::{LongRangeConfig, LongRangeDecoder, LongRangeOutput};
pub use crate::multitag::{
    run_inventory, run_inventory_with, InventoryConfig, InventoryResult, InventoryTag,
};
pub use crate::phy::{
    run_downlink_ber, run_downlink_ber_with, run_downlink_frame, run_downlink_frame_with,
    run_uplink, run_uplink_with, PhyCapabilities, PhyConfig,
};
pub use crate::protocol::{
    select_bit_rate, Ack, Query, RetryPolicy, WindowAck, SUPPORTED_RATES_BPS,
};
pub use crate::series::SeriesBundle;
pub use crate::session::{QueryOutcome, Reader, ReaderConfig};
pub use crate::uplink::{Combining, DecodeOutput, UplinkDecoder, UplinkDecoderConfig};
pub use bs_channel::faults::{FaultEvents, FaultPlan};
pub use bs_dsp::bits::BerCounter;
pub use bs_dsp::obs::{MemRecorder, NullRecorder, ObsReport, Recorder, Span};
pub use bs_dsp::SimRng;
pub use bs_tag::energy::{Capacitor, CapacitorConfig, EnergyConfig, EnergyPolicy, EnergyState};
pub use bs_tag::frame::{DownlinkFrame, UplinkFrame};

/// The names this prelude exports, sorted — the contract the
/// `api_snapshot` drift gate compares against its golden fixture. Keep in
/// lockstep with the `pub use` lines above.
pub const PRELUDE_MANIFEST: &[&str] = &[
    "Ack",
    "BerCounter",
    "Capacitor",
    "CapacitorConfig",
    "Combining",
    "DecodeOutput",
    "DegradationReport",
    "DownlinkConfig",
    "DownlinkFrame",
    "DownlinkRun",
    "EncodeError",
    "EnergyConfig",
    "EnergyPolicy",
    "EnergyState",
    "Error",
    "FaultEvents",
    "FaultPlan",
    "InventoryConfig",
    "InventoryResult",
    "InventoryTag",
    "LinkConfig",
    "LongRangeConfig",
    "LongRangeDecoder",
    "LongRangeOutput",
    "Measurement",
    "MemRecorder",
    "NullRecorder",
    "ObsReport",
    "PhyCapabilities",
    "PhyConfig",
    "ProtocolError",
    "Query",
    "QueryOutcome",
    "Reader",
    "ReaderConfig",
    "Recorder",
    "RetryPolicy",
    "SUPPORTED_RATES_BPS",
    "SeriesBundle",
    "SessionError",
    "SimRng",
    "Span",
    "TraceError",
    "UplinkCapture",
    "UplinkDecoder",
    "UplinkDecoderConfig",
    "UplinkFrame",
    "UplinkRun",
    "WindowAck",
    "capture_uplink",
    "capture_uplink_with",
    "run_downlink_ber",
    "run_downlink_ber_with",
    "run_downlink_frame",
    "run_downlink_frame_with",
    "run_inventory",
    "run_inventory_with",
    "run_uplink",
    "run_uplink_with",
    "select_bit_rate",
];

#[cfg(test)]
mod tests {
    use super::PRELUDE_MANIFEST;

    #[test]
    fn manifest_is_sorted_and_unique() {
        for w in PRELUDE_MANIFEST.windows(2) {
            assert!(w[0] < w[1], "manifest out of order near {:?}", w);
        }
    }

    #[test]
    fn prelude_names_resolve() {
        // Compile-time check that the headline names exist via the glob.
        use super::*;
        let _ = LinkConfig::fig10(0.3, 100, 5, 1);
        let _ = ReaderConfig::default();
        let _ = Capacitor::new(CapacitorConfig::default());
        let _ = EnergyConfig::always_powered();
        let _: fn(&LinkConfig) -> UplinkRun = run_uplink;
        let _ = NullRecorder;
    }
}
