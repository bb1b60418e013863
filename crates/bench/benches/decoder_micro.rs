//! The decode smoke bench: it builds a dense fig-10 workload, proves
//! the slot-indexed decoder bit-identical to the straight-line reference
//! at two search widths, measures both, and verifies the alignment
//! search is O(packets) rather than O(candidates × packets).
//!
//! With `--json [path]` it writes its evidence to `path` (default
//! `BENCH_decode.json`; see `scripts/check.sh --bench-smoke`); without,
//! it only prints its gates. Exits non-zero if a gate fails.

use bs_bench::microbench::measure_ns;
use bs_bench::object;
use bs_bench::report::{json_path, BenchReport, Verdict};
use std::process::ExitCode;
use wifi_backscatter::series::{SlotIndex, CONDITIONING_WINDOW_US};
use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};

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
    smoke().finish(json_path("decode").as_deref())
}
