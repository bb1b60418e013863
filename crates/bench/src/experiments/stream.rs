//! The `stream` figure: streaming-decode equivalence and resident-set
//! evidence.
//!
//! Each point captures one fig-10 uplink frame, decodes it batch
//! ([`UplinkDecoder::decode`]) and again after pushing its packets into
//! a fresh [`SeriesBundle`] in `chunk`-packet bursts (then `decode`), and
//! reports whether the two outputs are bit-for-bit identical together
//! with the live bundle's resident packets. The comparison is pure
//! decode output — no wall-clock numbers — so the
//! figure stays byte-identical under any `--jobs` count (the wall-clock
//! side of the streaming story lives in the `decoder_micro` bench smoke,
//! which writes `BENCH_decode.json`).

use wifi_backscatter::link::{capture_uplink, LinkConfig, Measurement};
use wifi_backscatter::series::SeriesBundle;
use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};

/// One measured point of the `stream` figure.
pub struct StreamPoint {
    /// Packets in the captured frame (also what the live bundle buffers,
    /// so `peak_resident == packets` when nothing is rejected).
    pub packets: u64,
    /// Packets resident in the live bundle when the frame closes; it
    /// never evicts, so this is also its high-water mark.
    pub peak_resident: u64,
    /// Streaming and batch decode agreed bit for bit (the tentpole
    /// contract; a `false` here is a decoder bug).
    pub identical: bool,
    /// The batch decode found a frame at all.
    pub detected: bool,
    /// Payload bits that decoded wrong or unresolved, against the
    /// transmitted payload.
    pub bit_errors: u64,
}

/// Captures one close-range fig-10 frame and decodes it both ways,
/// pushing the packets in `chunk`-packet bursts (`chunk = 0` means the
/// whole capture arrives as one burst). The seed
/// arithmetic is keyed on the measurement only — every chunk size of a
/// measurement decodes the *same* capture, so the table rows differ only
/// in burst size — and any scheduling of the points reproduces the
/// serial sweep bit for bit.
pub fn stream_point(measurement: Measurement, chunk: usize, seed: u64) -> StreamPoint {
    let kind = match measurement {
        Measurement::Csi => 1u64,
        Measurement::Rssi => 2u64,
    };
    let mut cfg = LinkConfig::fig10(0.15, 100, 10, seed + kind * 1009);
    cfg.measurement = measurement;
    let capture = capture_uplink(&cfg);
    let dcfg = match measurement {
        Measurement::Csi => UplinkDecoderConfig::csi(100, cfg.payload.len()),
        Measurement::Rssi => UplinkDecoderConfig::rssi(100, cfg.payload.len()),
    };
    let dec = UplinkDecoder::new(dcfg);

    let batch = dec.decode(&capture.bundle, capture.start_us);

    let whole = &capture.bundle;
    let mut live = SeriesBundle::new(whole.channels());
    let packets = whole.packets();
    let step = if chunk == 0 { packets.max(1) } else { chunk };
    for at in (0..packets).step_by(step) {
        for p in at..(at + step).min(packets) {
            let row: Vec<f64> = (0..whole.channels()).map(|c| whole.channel(c)[p]).collect();
            live.push(whole.t_us()[p], &row)
                .expect("a capture's packets ascend");
        }
    }
    let peak_resident = live.packets() as u64;
    let streamed = dec.decode(&live, capture.start_us);

    let identical = streamed == batch;
    let detected = batch.is_some();
    let bit_errors = match &batch {
        Some(out) => cfg
            .payload
            .iter()
            .zip(&out.bits)
            .filter(|&(&sent, got)| *got != Some(sent))
            .count() as u64,
        None => cfg.payload.len() as u64,
    };
    StreamPoint {
        packets: packets as u64,
        peak_resident,
        identical,
        detected,
        bit_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_point_is_identical_and_deterministic() {
        let a = stream_point(Measurement::Csi, 64, 7);
        assert!(a.identical);
        assert!(a.detected);
        assert_eq!(a.peak_resident, a.packets);
        let b = stream_point(Measurement::Csi, 64, 7);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.bit_errors, b.bit_errors);
    }

    #[test]
    fn stream_point_chunk_size_does_not_change_the_outcome() {
        let one = stream_point(Measurement::Rssi, 1, 7);
        assert!(one.identical, "per-packet streaming must match batch");
        let whole = stream_point(Measurement::Rssi, 0, 7);
        assert!(whole.identical, "whole-capture feed must match batch");
        // Same measurement → same capture, whatever the burst size.
        assert_eq!(one.packets, whole.packets);
        assert_eq!(one.bit_errors, whole.bit_errors);
    }
}
