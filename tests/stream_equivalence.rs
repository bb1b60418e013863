//! Streaming-vs-batch equivalence on the golden decode workloads.
//!
//! Live packets reach the decoders through a [`SeriesAccumulator`]:
//! feed, `into_bundle()`, then `decode`. That path promises the exact
//! batch output — not approximately, bit for bit and ulp for ulp —
//! whatever the feeding granularity. The golden fixtures under
//! `tests/golden/` pin the batch decoder's behaviour; this suite pins
//! the streaming path to it on the same three operating points
//! (CSI/MRC, RSSI/best-single, long-range coded), fed one packet at a
//! time, in ragged bursts, and as one whole capture, plus the
//! straight-line `decode_reference` as the third witness on the
//! plain-mode points.

use bs_dsp::codes::OrthogonalPair;
use wifi_backscatter::link::{capture_uplink, LinkConfig, Measurement, UplinkCapture};
use wifi_backscatter::longrange::{LongRangeConfig, LongRangeDecoder};
use wifi_backscatter::series::{SeriesAccumulator, SeriesBundle};
use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};

/// The golden 16-bit payload (`golden_decode.rs` uses the same one).
fn golden_payload() -> Vec<bool> {
    (0..16).map(|i| (i * 5) % 3 == 0).collect()
}

/// The golden close-range capture: fig-10 at 10 cm, 100 bps, 10
/// packets per bit, seed 77.
fn golden_capture(measurement: Measurement) -> (LinkConfig, UplinkCapture) {
    let mut cfg = LinkConfig::fig10(0.1, 100, 10, 77);
    cfg.measurement = measurement;
    cfg.payload = golden_payload();
    let capture = capture_uplink(&cfg);
    (cfg, capture)
}

/// A sub-bundle of packets `[at, end)`, the shape a burst arrives in.
fn burst(bundle: &SeriesBundle, at: usize, end: usize) -> SeriesBundle {
    SeriesBundle {
        t_us: bundle.t_us[at..end].to_vec(),
        series: bundle.series.iter().map(|s| s[at..end].to_vec()).collect(),
    }
}

/// Feeds `bundle` into a fresh accumulator in bursts whose sizes cycle
/// through `sizes`, then returns the bundle it collected.
fn accumulate_in_bursts(bundle: &SeriesBundle, sizes: &[usize]) -> SeriesBundle {
    let mut acc = SeriesAccumulator::new(bundle.channels());
    let mut at = 0usize;
    for &size in sizes.iter().cycle() {
        if at == bundle.packets() {
            break;
        }
        let end = at.saturating_add(size).min(bundle.packets());
        let accepted = acc.feed(&burst(bundle, at, end)).accepted;
        assert_eq!(accepted, end - at, "unbounded accumulator must accept the burst");
        at = end;
    }
    acc.into_bundle()
}

/// CSI and RSSI: per-packet, ragged-burst and whole-capture streaming
/// all land on the batch output, which matches `decode_reference`.
#[test]
fn plain_mode_streaming_matches_batch_and_reference_on_golden_workloads() {
    for measurement in [Measurement::Csi, Measurement::Rssi] {
        let (cfg, capture) = golden_capture(measurement);
        let dcfg = match measurement {
            Measurement::Csi => UplinkDecoderConfig::csi(100, cfg.payload.len()),
            Measurement::Rssi => UplinkDecoderConfig::rssi(100, cfg.payload.len()),
        };
        let dec = UplinkDecoder::new(dcfg);

        let batch = dec.decode(&capture.bundle, capture.start_us);
        assert!(batch.is_some(), "golden workload must decode ({measurement:?})");
        assert_eq!(
            batch,
            dec.decode_reference(&capture.bundle, capture.start_us),
            "batch decode drifted from the reference ({measurement:?})"
        );

        // One packet at a time, through the narrow feed_packet door.
        let mut by_packet = SeriesAccumulator::new(capture.bundle.channels());
        for (i, &t) in capture.bundle.t_us.iter().enumerate() {
            let row: Vec<f64> = capture.bundle.series.iter().map(|s| s[i]).collect();
            assert!(by_packet.feed_packet(t, &row).any());
        }
        assert_eq!(by_packet.packets(), capture.bundle.packets());
        let by_packet = dec.decode(&by_packet.into_bundle(), capture.start_us);
        assert_eq!(by_packet, batch, "per-packet streaming ({measurement:?})");

        // Ragged bursts and the whole capture in one call.
        for sizes in [&[1usize, 7, 64][..], &[usize::MAX][..]] {
            let streamed = accumulate_in_bursts(&capture.bundle, sizes);
            let streamed = dec.decode(&streamed, capture.start_us);
            assert_eq!(streamed, batch, "burst sizes {sizes:?} ({measurement:?})");
        }
    }
}

/// Long-range coded mode: the golden 1 m, length-8-code point decodes
/// identically batch and streamed.
#[test]
fn long_range_streaming_matches_batch_on_golden_workload() {
    let mut cfg = LinkConfig::fig10(1.0, 200, 10, 78);
    cfg.measurement = Measurement::Csi;
    cfg.payload = golden_payload()[..8].to_vec();
    cfg.code_length = 8;
    let capture = capture_uplink(&cfg);
    let dec = LongRangeDecoder::new(LongRangeConfig {
        chip_duration_us: capture.chip_us,
        code: OrthogonalPair::new(cfg.code_length),
        payload_bits: cfg.payload.len(),
        conditioning_window_us: 400_000,
        top_channels: 10,
    });

    let batch = dec.decode(&capture.bundle, capture.start_us);
    assert!(batch.is_some(), "golden long-range workload must decode");

    for sizes in [&[1usize][..], &[3, 17, 128][..], &[usize::MAX][..]] {
        let streamed = dec.decode(&accumulate_in_bursts(&capture.bundle, sizes), capture.start_us);
        assert_eq!(streamed, batch, "long-range burst sizes {sizes:?}");
    }
}

/// Backpressure on the golden workload: a bounded accumulator accepts
/// exactly its capacity and collects exactly that prefix, so decoding it
/// is a batch decode of the prefix.
#[test]
fn bounded_streaming_decodes_the_accepted_prefix_exactly() {
    let (_, capture) = golden_capture(Measurement::Csi);
    let cap = capture.bundle.packets() / 2;

    let mut bounded = SeriesAccumulator::with_capacity(capture.bundle.channels(), cap);
    let consumed = bounded.feed(&capture.bundle);
    assert_eq!(consumed.accepted, cap, "accumulator must stop at its capacity");
    assert!(!bounded.feed(&capture.bundle).any(), "full: explicit backpressure");
    assert_eq!(bounded.packets(), cap);

    assert_eq!(
        bounded.into_bundle(),
        burst(&capture.bundle, 0, cap),
        "bounded accumulator kept something other than the accepted prefix"
    );
}
