//! Micro-benchmarks of the streaming decode path: the chunked kernels
//! in `bs_dsp::stream`, the `SeriesAccumulator` feed path, and the full
//! streaming session against the batch decoder.
//!
//! Run with `--json <path>` for the stream smoke bench instead: it
//! builds the same dense fig-10 workload as the decode smoke, proves the
//! streaming session (feed per packet, feed in bursts, then `finish()`)
//! bit-identical to both the batch decoder and the straight-line
//! reference, checks the session buffers exactly one frame, and measures
//! per-packet throughput of feed+finish against the reference decoder on
//! the alignment-search-dominated configuration. Writes the evidence to
//! `<path>` (see `scripts/check.sh --bench-smoke`). Exits non-zero if an
//! equivalence, residency, pass-count or throughput gate fails.

use bs_bench::microbench::{measure_ns, Group};
use bs_bench::object;
use bs_bench::report::{json_path, BenchReport, Verdict};
use bs_dsp::SimRng;
use std::process::ExitCode;
use wifi_backscatter::series::{SeriesAccumulator, SeriesBundle};
use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig, UplinkStream};

/// A 30-channel synthetic bundle with fig-10-like timing.
fn synth_bundle(seed: u64) -> SeriesBundle {
    let mut rng = SimRng::new(seed).stream("stream-bench-bundle");
    let t_us: Vec<u64> = (0..3000u64).map(|i| i * 333).collect();
    let series: Vec<Vec<f64>> = (0..30)
        .map(|_| t_us.iter().map(|_| 9.0 + rng.gaussian(0.0, 0.5)).collect())
        .collect();
    SeriesBundle { t_us, series }
}

/// One packet of `bundle` as a cross-channel row, for `feed_packet`.
fn packet_row(bundle: &SeriesBundle, i: usize) -> Vec<f64> {
    bundle.series.iter().map(|s| s[i]).collect()
}

/// Feeds `bundle` into `stream` in `chunk`-packet bursts.
fn feed_chunked(stream: &mut UplinkStream, bundle: &SeriesBundle, chunk: usize) {
    let packets = bundle.packets();
    let mut at = 0usize;
    while at < packets {
        let end = (at + chunk).min(packets);
        let burst = SeriesBundle {
            t_us: bundle.t_us[at..end].to_vec(),
            series: bundle.series.iter().map(|s| s[at..end].to_vec()).collect(),
        };
        let consumed = stream.feed(&burst);
        assert_eq!(consumed.accepted, end - at, "unbounded session must accept");
        at = end;
    }
}

/// The stream smoke bench behind `--json <path>` (wired into
/// `scripts/check.sh --bench-smoke`).
///
/// Gates (a `Fail` exits non-zero):
/// 1. identity — per-packet streaming, 64-packet-burst streaming, the
///    batch decoder and `decode_reference` all agree bit for bit at
///    search_bits 2 and 8;
/// 2. one-frame residency — the session's peak resident window is
///    exactly the frame's packet count (the O(1)-per-tag-session claim:
///    a session holds one bounded frame, nothing more);
/// 3. fewer passes — `finish()` rides the slot-indexed decoder, so its
///    alignment search must touch fewer packet-stream-equivalents than
///    the reference's candidates × channels scans (machine-independent
///    backstop for gate 4);
/// 4. throughput — feed+finish moves ≥ 2× the packets per second of
///    `decode_reference` at search_bits = 8, the
///    alignment-search-dominated configuration. A ratio of two
///    same-process measurements, and the indexed decode underneath runs
///    ~5× here, so the 2× floor has wide margin on any host.
fn smoke() -> BenchReport {
    use bs_dsp::obs::MemRecorder;
    use wifi_backscatter::link::{capture_uplink, LinkConfig, Measurement};

    // The decode smoke's dense fig-10 point: 30 packets per bit at
    // 100 bps, where the alignment search dominates the decode.
    let mut cfg = LinkConfig::fig10(0.5, 100, 30, 4242);
    cfg.measurement = Measurement::Csi;
    let capture = capture_uplink(&cfg);
    let packets = capture.bundle.packets() as u64;
    let channels = capture.bundle.channels() as u64;
    let payload_bits = cfg.payload.len();
    let mk = |sb: u32| {
        UplinkDecoder::new(UplinkDecoderConfig::csi(100, payload_bits).with_search_bits(sb))
    };

    // Gate 1: identity at both ends of the candidate range, for both
    // feeding granularities.
    let mut peak_resident = 0u64;
    let mut gate_identical = true;
    for sb in [2u32, 8] {
        let dec = mk(sb);
        let reference = dec.decode_reference(&capture.bundle, capture.start_us);
        let batch = dec.decode(&capture.bundle, capture.start_us);
        assert!(
            reference.is_some(),
            "smoke workload must decode (reference path found no frame)"
        );

        let mut by_packet = dec.stream(capture.bundle.channels(), capture.start_us);
        for (i, &t) in capture.bundle.t_us.iter().enumerate() {
            let consumed = by_packet.feed_packet(t, &packet_row(&capture.bundle, i));
            assert!(consumed.any(), "unbounded session must accept packet {i}");
        }
        peak_resident = by_packet.peak_resident() as u64;
        let by_packet = by_packet.finish();

        let mut by_burst = dec.stream(capture.bundle.channels(), capture.start_us);
        feed_chunked(&mut by_burst, &capture.bundle, 64);
        let by_burst = by_burst.finish();

        gate_identical &= by_packet == batch && by_burst == batch && batch == reference;
    }

    // Gate 2: one-frame residency.
    let gate_resident = peak_resident == packets;

    // Gate 3: pass-count backstop, from the decoder's own
    // instrumentation (same normalisation as the decode smoke).
    let dec = mk(8);
    let mut rec = MemRecorder::new();
    let mut stream = dec.stream(capture.bundle.channels(), capture.start_us);
    stream.feed(&capture.bundle);
    stream.finish_with(&mut rec);
    let align_items: u64 = rec.report().spans_for("uplink.align").map(|s| s.items).sum();
    let stream_passes = align_items.div_ceil(packets);
    let reference_passes = (4 * 8 + 1) * channels; // ±2·search_bits half-bit steps
    let gate_passes = stream_passes < reference_passes;

    // Gate 4: per-packet throughput at search_bits = 8. The streaming
    // side is the whole session — open, feed the capture, finish — so
    // the accumulator copy is priced in.
    let ref_ns = measure_ns(7, 1, || dec.decode_reference(&capture.bundle, capture.start_us));
    let stream_ns = measure_ns(7, 1, || {
        let mut s = dec.stream(capture.bundle.channels(), capture.start_us);
        s.feed(&capture.bundle);
        s.finish()
    });
    let ref_ns_pkt = ref_ns / packets as f64;
    let stream_ns_pkt = stream_ns / packets as f64;
    let speedup = ref_ns / stream_ns.max(1.0);
    let gate_throughput = speedup >= 2.0;

    let mut report = BenchReport::new("stream_decode");
    report.field("workload", object! {
        "figure": "fig10-dense", "tag_reader_m": 0.5, "bit_rate_bps": 100u64, "pkts_per_bit": 30u64,
        "seed": 4242u64, "packets": packets, "channels": channels, "payload_bits": payload_bits,
    });
    report.field("peak_resident_packets", peak_resident);
    report.field("resident_note", "one frame per session; stream_bounded rejects beyond it");
    report.field("per_packet", object! {
        "reference_ns": ref_ns_pkt, "stream_ns": stream_ns_pkt,
        "reference_pkts_per_s": 1e9 / ref_ns_pkt.max(1e-9),
        "stream_pkts_per_s": 1e9 / stream_ns_pkt.max(1e-9),
    });
    report.field("speedup", speedup);
    report.field("speedup_note", "reference/stream feed+finish at search_bits=8");
    report.field("align_search", object! {
        "stream_passes": stream_passes, "reference_passes": reference_passes,
    });
    for (gate, ok, reason) in [
        ("streaming_identical_to_batch_and_reference", gate_identical, "a decode path differs"),
        ("peak_resident_is_one_frame", gate_resident, "session holds more or less than one frame"),
        ("stream_fewer_passes_than_reference", gate_passes, "passes not below the reference"),
        ("throughput_ge_2x", gate_throughput, "under 2x the reference"),
    ] {
        report.gate(gate, Verdict::check(ok, reason));
    }
    println!(
        "BENCH_stream: sb=8 reference {:.1} ms vs stream feed+finish {:.1} ms \
         ({speedup:.1}x; {stream_ns_pkt:.0} ns/pkt vs {ref_ns_pkt:.0} ns/pkt)",
        ref_ns / 1e6,
        stream_ns / 1e6,
    );
    report
}

fn main() -> ExitCode {
    if let Some(path) = json_path("stream") {
        return smoke().finish(&path);
    }

    let g = Group::new("stream_micro");

    {
        let mut rng = SimRng::new(1).stream("stream-bench-axpy");
        let xs: Vec<f64> = (0..4096).map(|_| rng.gaussian(0.0, 1.0)).collect();
        let mut acc = vec![0.0f64; 4096];
        g.bench("axpy_4096", 20, 50, || {
            bs_dsp::stream::axpy(&mut acc, 0.37, &xs)
        });
        let ys: Vec<f64> = (0..4096).map(|_| rng.gaussian(0.0, 1.0)).collect();
        g.bench("subtract_scale_4096", 20, 50, || {
            bs_dsp::stream::scale_div(&bs_dsp::stream::subtract(&xs, &ys), 7.0)
        });
    }

    let bundle = synth_bundle(2);
    g.bench("accumulator_feed_3000pkt_30ch", 20, 5, || {
        let mut acc = SeriesAccumulator::new(bundle.channels());
        acc.feed(&bundle);
        acc.packets()
    });
    g.bench("accumulator_feed_packet_3000pkt_30ch", 10, 2, || {
        let mut acc = SeriesAccumulator::new(bundle.channels());
        for i in 0..bundle.packets() {
            acc.feed_packet(bundle.t_us[i], &packet_row(&bundle, i));
        }
        acc.packets()
    });

    let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 90));
    g.bench("stream_feed_finish_30ch_3000pkt", 10, 1, || {
        let mut s = dec.stream(bundle.channels(), 0);
        s.feed(&bundle);
        s.finish()
    });
    g.bench("batch_decode_30ch_3000pkt", 10, 1, || dec.decode(&bundle, 0));
    ExitCode::SUCCESS
}
