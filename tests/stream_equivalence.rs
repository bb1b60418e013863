//! Streaming-vs-batch equivalence on the golden decode workloads.
//!
//! Live packets reach the decoders through [`SeriesBundle::push`]: push
//! each packet as it arrives, then `decode`. That path promises the
//! exact batch output — not approximately, bit for bit and ulp for ulp —
//! whatever the arrival granularity. The golden fixtures under
//! `tests/golden/` pin the batch decoder's behaviour; this suite pins
//! the streaming path to it on the same three operating points
//! (CSI/MRC, RSSI/best-single, long-range coded), fed one packet at a
//! time, in ragged bursts, and as one whole capture, plus the
//! straight-line `decode_reference` as the third witness on the
//! plain-mode points.

use bs_dsp::codes::OrthogonalPair;
use wifi_backscatter::link::{capture_uplink, LinkConfig, Measurement, UplinkCapture};
use wifi_backscatter::longrange::{LongRangeConfig, LongRangeDecoder};
use wifi_backscatter::series::SeriesBundle;
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

/// Pushes `bundle`'s packets into a fresh live bundle in bursts whose
/// sizes cycle through `sizes`, then returns the bundle it collected.
fn accumulate_in_bursts(bundle: &SeriesBundle, sizes: &[usize]) -> SeriesBundle {
    let mut live = SeriesBundle::new(bundle.channels());
    let mut at = 0usize;
    for &size in sizes.iter().cycle() {
        if at == bundle.packets() {
            break;
        }
        let end = at.saturating_add(size).min(bundle.packets());
        for p in at..end {
            let row: Vec<f64> = (0..bundle.channels())
                .map(|c| bundle.channel(c)[p])
                .collect();
            live.push(bundle.t_us()[p], &row)
                .expect("a capture's packets ascend");
        }
        at = end;
    }
    live
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
        assert!(
            batch.is_some(),
            "golden workload must decode ({measurement:?})"
        );
        assert_eq!(
            batch,
            dec.decode_reference(&capture.bundle, capture.start_us),
            "batch decode drifted from the reference ({measurement:?})"
        );

        // One packet at a time, ragged bursts, and the whole capture as
        // one burst.
        for sizes in [&[1usize][..], &[1, 7, 64][..], &[usize::MAX][..]] {
            let streamed = accumulate_in_bursts(&capture.bundle, sizes);
            assert_eq!(
                streamed, capture.bundle,
                "burst sizes {sizes:?} ({measurement:?})"
            );
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
        let streamed = dec.decode(
            &accumulate_in_bursts(&capture.bundle, sizes),
            capture.start_us,
        );
        assert_eq!(streamed, batch, "long-range burst sizes {sizes:?}");
    }
}
