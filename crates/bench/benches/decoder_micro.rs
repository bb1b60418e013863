//! Micro-benchmarks of the paper's core algorithms, isolated from the
//! simulation substrate: signal conditioning, preamble correlation,
//! majority slicing, the full MRC decoder (slot-indexed vs the
//! straight-line reference) on a synthetic bundle, the chunked kernels
//! and `SeriesBundle::push`, the analog receiver circuit, and the DCF
//! MAC.
//!
//! Run with `--json <path>` for the decode smoke bench instead: it
//! builds a dense fig-10 workload, proves the slot-indexed decoder
//! bit-identical to the reference at two search widths, measures both,
//! verifies the alignment search is O(packets) rather than
//! O(candidates × packets), and writes the evidence to `<path>` (see
//! `scripts/check.sh --bench-smoke`). Exits non-zero if a gate fails.

use bs_bench::microbench::{measure_ns, Group};
use bs_bench::object;
use bs_bench::report::{json_path, BenchReport, Verdict};
use bs_dsp::codes::BARKER13;
use bs_dsp::SimRng;
use std::process::ExitCode;
use wifi_backscatter::series::{SlotIndex, CONDITIONING_WINDOW_US};
use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};
use wifi_backscatter::SeriesBundle;

/// A 90-channel synthetic bundle mirroring a 3000-packet CSI capture.
fn synth_bundle(seed: u64) -> SeriesBundle {
    let mut rng = SimRng::new(seed).stream("bench-bundle");
    let t_us: Vec<u64> = (0..3000u64).map(|i| i * 333).collect();
    let bits: Vec<bool> = (0..116).map(|i| i % 3 == 0).collect();
    let series: Vec<Vec<f64>> = (0..90)
        .map(|c| {
            let good = c < 12;
            t_us.iter()
                .map(|&t| {
                    let slot = (t / 10_000) as usize;
                    let level = if good {
                        match bits.get(slot) {
                            Some(&true) => 0.4,
                            Some(&false) => -0.4,
                            None => 0.0,
                        }
                    } else {
                        0.0
                    };
                    9.0 + level + rng.gaussian(0.0, 0.5)
                })
                .collect()
        })
        .collect();
    SeriesBundle::from_columns(t_us, series).expect("synthetic columns are well formed")
}

/// `bundle` rebuilt the live way: every packet pushed on arrival.
fn pushed(bundle: &SeriesBundle) -> SeriesBundle {
    let mut live = SeriesBundle::new(bundle.channels());
    for (p, &t) in bundle.t_us().iter().enumerate() {
        let row: Vec<f64> = (0..bundle.channels())
            .map(|c| bundle.channel(c)[p])
            .collect();
        live.push(t, &row).expect("packets ascend");
    }
    live
}

/// The decode smoke bench behind `--json <path>` (wired into
/// `scripts/check.sh --bench-smoke`).
///
/// `decode` conditions a clone of the bundle into a fresh slot index and
/// runs the indexed path, so its timing is the indexed path's.
/// Gates (a `Fail` exits non-zero; EXPERIMENTS.md tables the schema):
/// 1. `indexed_identical_to_reference` — bit for bit at search_bits 2
///    and 8;
/// 2. `indexed_fewer_passes_than_reference` — fewer
///    packet-stream-equivalents than the reference's candidates ×
///    channels full scans, at search_bits 2 and 8 (the
///    machine-independent backstop for gate 4);
/// 3. `align_work_flat_in_candidates` — search_bits 2 → 8 (9 → 33
///    candidates) grows align-span work by < 1.5×, as a search that
///    re-scanned per candidate would not;
/// 4. `throughput_ge_2x` — reference ÷ `decode` wall time ≥ 2 at
///    search_bits 8, a same-process ratio (≈4× measured), so the floor
///    holds on any host. The 3× target is recorded, not gated.
fn smoke() -> BenchReport {
    use bs_dsp::obs::MemRecorder;
    use wifi_backscatter::link::{capture_uplink, LinkConfig, Measurement};

    // Dense fig-10 point: 30 packets per bit at 100 bps makes the
    // per-candidate stream scans of the reference decoder expensive
    // enough that the asymptotics dominate constant factors.
    let mut cfg = LinkConfig::fig10(0.5, 100, 30, 4242);
    cfg.measurement = Measurement::Csi;
    let capture = capture_uplink(&cfg);
    let packets = capture.bundle.packets() as u64;
    let channels = capture.bundle.channels() as u64;
    let payload_bits = cfg.payload.len();
    let mk = |sb: u32| {
        UplinkDecoder::new(UplinkDecoderConfig::csi(100, payload_bits).with_search_bits(sb))
    };

    // Identity at both ends of the candidate range.
    let mut gate_identical = true;
    for sb in [2u32, 8] {
        let dec = mk(sb);
        let reference = dec.decode_reference(&capture.bundle, capture.start_us);
        assert!(
            reference.is_some(),
            "smoke workload must decode (reference found no frame)"
        );
        gate_identical &= reference == dec.decode(&capture.bundle, capture.start_us);
    }

    // Time both paths at both ends of the candidate range. At
    // search_bits = 2 the shared stages (conditioning, combining,
    // slicing) dilute the search; search_bits = 8 is the
    // alignment-search-dominated configuration the speedup target and
    // the throughput gate are about.
    let time_pair = |sb: u32| {
        let d = mk(sb);
        let r = measure_ns(7, 1, || {
            d.decode_reference(&capture.bundle, capture.start_us)
        });
        let i = measure_ns(7, 1, || d.decode(&capture.bundle, capture.start_us));
        (r, i)
    };
    let (ref_ns_sb2, idx_ns_sb2) = time_pair(2);
    let (ref_ns_sb8, idx_ns_sb8) = time_pair(8);
    let speedup_sb2 = ref_ns_sb2 / idx_ns_sb2.max(1.0);
    let speedup = ref_ns_sb8 / idx_ns_sb8.max(1.0);
    let gate_throughput = speedup >= 2.0;

    // Align-span items = packets scanned into slot statistics + slots
    // read back, straight from the decoder's own instrumentation.
    let align_items = |sb: u32| -> u64 {
        let mut rec = MemRecorder::new();
        let half = capture.bundle.half_window(CONDITIONING_WINDOW_US);
        let mut index = SlotIndex::new(capture.bundle.clone(), half);
        mk(sb)
            .decode_indexed(&mut index, capture.start_us, &mut rec)
            .expect("the index is conditioned with the decoder's window");
        rec.report()
            .spans_for("uplink.align")
            .map(|s| s.items)
            .sum()
    };
    let candidates = |sb: u64| 4 * sb + 1; // ±2·search_bits half-bit steps
    let items_sb2 = align_items(2);
    let items_sb8 = align_items(8);
    // Normalise to "full per-channel passes over the packet stream".
    // The reference alignment search does one such pass per candidate
    // per channel (its slot_means scans every packet); the indexed
    // search builds each phase class's statistics once.
    let indexed_passes_sb2 = items_sb2.div_ceil(packets);
    let indexed_passes_sb8 = items_sb8.div_ceil(packets);
    let reference_passes_sb2 = candidates(2) * channels;
    let reference_passes_sb8 = candidates(8) * channels;

    let gate_fewer =
        indexed_passes_sb2 < reference_passes_sb2 && indexed_passes_sb8 < reference_passes_sb8;
    let gate_flat = (items_sb8 as f64) < 1.5 * (items_sb2 as f64);

    let search = |sb: u64, ref_ns: f64, idx_ns: f64, items: u64, idx: u64, rf: u64| {
        object! {
            "candidates": candidates(sb), "reference_ns": ref_ns, "indexed_ns": idx_ns,
            "speedup": ref_ns / idx_ns.max(1.0), "align_items": items,
            "indexed_stream_passes": idx, "reference_stream_passes": rf,
        }
    };
    let mut report = BenchReport::new("decode");
    report.field("workload", object! {
        "figure": "fig10-dense", "tag_reader_m": 0.5, "bit_rate_bps": 100u64, "pkts_per_bit": 30u64,
        "seed": 4242u64, "packets": packets, "channels": channels, "payload_bits": payload_bits,
    });
    report.field("speedup", speedup);
    report.field("speedup_target", 3.0);
    report.field(
        "speedup_note",
        "reference/indexed at search_bits=8; gated at 2x, 3x is evidence",
    );
    report.field("align_search", object! {
        "search_bits_2":
            search(2, ref_ns_sb2, idx_ns_sb2, items_sb2, indexed_passes_sb2, reference_passes_sb2),
        "search_bits_8":
            search(8, ref_ns_sb8, idx_ns_sb8, items_sb8, indexed_passes_sb8, reference_passes_sb8),
    });
    for (gate, ok, reason) in [
        (
            "indexed_identical_to_reference",
            gate_identical,
            "indexed decode differs",
        ),
        (
            "indexed_fewer_passes_than_reference",
            gate_fewer,
            "passes not below the reference",
        ),
        (
            "align_work_flat_in_candidates",
            gate_flat,
            "align work grows with the candidate count",
        ),
        (
            "throughput_ge_2x",
            gate_throughput,
            "under 2x the reference",
        ),
    ] {
        report.gate(gate, Verdict::check(ok, reason));
    }
    println!(
        "BENCH_decode: sb=2 reference {:.1} ms vs indexed {:.1} ms ({speedup_sb2:.1}x); \
         sb=8 reference {:.1} ms vs indexed {:.1} ms ({speedup:.1}x, gate 2x, target 3x)",
        ref_ns_sb2 / 1e6,
        idx_ns_sb2 / 1e6,
        ref_ns_sb8 / 1e6,
        idx_ns_sb8 / 1e6
    );
    report
}

fn main() -> ExitCode {
    if let Some(path) = json_path("decode") {
        return smoke().finish(&path);
    }

    let g = Group::new("decoder_micro");

    let bundle = synth_bundle(1);
    g.bench("condition_3000_samples", 20, 10, || {
        bs_dsp::filter::condition(bundle.channel(0), 600)
    });

    let mut rng = SimRng::new(2).stream("bench-corr");
    let signal: Vec<f64> = (0..3000).map(|_| rng.gaussian(0.0, 1.0)).collect();
    g.bench("sliding_correlation_barker13", 20, 10, || {
        bs_dsp::correlate::sliding(&signal, &BARKER13)
    });

    let xs: Vec<f64> = (0..4096).map(|_| rng.gaussian(0.0, 1.0)).collect();
    let ys: Vec<f64> = (0..4096).map(|_| rng.gaussian(0.0, 1.0)).collect();
    let mut acc = vec![0.0f64; 4096];
    g.bench("axpy_4096", 20, 50, || {
        bs_dsp::kernels::axpy(&mut acc, 0.37, &xs)
    });
    g.bench("subtract_scale_4096", 20, 50, || {
        bs_dsp::kernels::scale_div(&bs_dsp::kernels::subtract(&xs, &ys), 7.0)
    });

    let bundle = synth_bundle(3);
    let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 90));
    g.bench("mrc_decode_90ch_3000pkt", 10, 2, || dec.decode(&bundle, 0));
    g.bench("reference_decode_90ch_3000pkt", 10, 2, || {
        dec.decode_reference(&bundle, 0)
    });

    g.bench("push_3000pkt_90ch", 10, 2, || pushed(&bundle).packets());

    {
        use bs_tag::envelope::{EnvelopeConfig, EnvelopeModel};
        use bs_tag::receiver::{CircuitConfig, ReceiverCircuit};
        let cfg = EnvelopeConfig::default();
        let mut env = EnvelopeModel::new(cfg, SimRng::new(4).stream("bench-env"));
        let trace = env.trace(100_000, |i| {
            if (i / 50) % 2 == 0 {
                cfg.noise_mw * 50.0
            } else {
                0.0
            }
        });
        g.bench("receiver_circuit_100k_samples", 10, 2, || {
            let mut circuit = ReceiverCircuit::new(CircuitConfig::default());
            circuit.run(&trace)
        });
    }

    {
        use bs_wifi::mac::{Medium, Station};
        g.bench("dcf_mac_1s_3_stations", 10, 1, || {
            let rng = SimRng::new(5);
            let stations: Vec<Station> = (0..3)
                .map(|i| {
                    let mut r = rng.stream("bench-mac").substream(i);
                    Station::data(
                        bs_wifi::traffic::poisson(800.0, 1_000_000, &mut r),
                        1000,
                        54.0,
                    )
                })
                .collect();
            let mut medium = Medium::with_seed(6);
            medium.simulate(&stations, 1_000_000)
        });
    }
    ExitCode::SUCCESS
}
