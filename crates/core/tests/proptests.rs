//! Property-based tests for the core decoders and protocol,
//! driven by the deterministic in-repo [`bs_dsp::testkit`] generator.

use bs_dsp::testkit::check;
use bs_tag::frame::UplinkFrame;
use wifi_backscatter::error::SeriesError;
use wifi_backscatter::longrange::{LongRangeConfig, LongRangeDecoder};
use wifi_backscatter::multitag::{run_inventory, InventoryConfig, InventoryTag};
use wifi_backscatter::protocol::{select_bit_rate, Query, SUPPORTED_RATES_BPS};
use wifi_backscatter::series::{SeriesBundle, SlotIndex};
use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};

/// Builds a clean synthetic bundle carrying `payload` on every channel.
fn clean_bundle(payload: &[bool], channels: usize, amp: f64) -> SeriesBundle {
    let frame = UplinkFrame::new(payload.to_vec());
    let bits = frame.to_bits();
    let bit_us = 10_000u64;
    let gap = 500u64;
    let total = bits.len() as u64 * bit_us + 100_000;
    let t_us: Vec<u64> = (0..).map(|i| i * gap).take_while(|&t| t < total).collect();
    let series: Vec<Vec<f64>> = (0..channels)
        .map(|c| {
            let pol = if c % 2 == 0 { 1.0 } else { -1.0 };
            t_us.iter()
                .map(|&t| {
                    let slot = (t / bit_us) as usize;
                    let lv = match bits.get(slot) {
                        Some(&true) => amp * pol,
                        Some(&false) => -amp * pol,
                        None => 0.0,
                    };
                    // Deterministic dither so conditioning has variance to
                    // estimate.
                    10.0 + lv + 0.01 * ((t % 7) as f64 - 3.0)
                })
                .collect()
        })
        .collect();
    SeriesBundle::from_columns(t_us, series).unwrap()
}

/// Any payload decodes from a clean bundle — the decoder pipeline is
/// payload-agnostic.
#[test]
fn decoder_recovers_arbitrary_payloads() {
    check("decoder-recovers-payloads", 24, |g| {
        let payload = g.vec_bool(4, 48);
        let bundle = clean_bundle(&payload, 8, 0.5);
        let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, payload.len()));
        let out = dec.decode(&bundle, 0).expect("clean bundle must decode");
        let got: Option<Vec<bool>> = out.bits.into_iter().collect();
        assert_eq!(got, Some(payload));
    });
}

/// Decoding is a pure function of the bundle.
#[test]
fn decode_is_deterministic() {
    check("decode-deterministic", 24, |g| {
        let payload = g.vec_bool(4, 32);
        let bundle = clean_bundle(&payload, 6, 0.4);
        let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, payload.len()));
        let a = dec.decode(&bundle, 0);
        let b = dec.decode(&bundle, 0);
        assert_eq!(a, b);
    });
}

/// Queries round-trip for any field values (within supported rates).
#[test]
fn query_roundtrip() {
    check("query-roundtrip", 256, |g| {
        let q = Query {
            tag_address: g.u8(),
            payload_bits: g.usize_in(1, 1024) as u16,
            bit_rate_bps: SUPPORTED_RATES_BPS[g.usize_in(0, 4)],
            code_length: g.usize_in(1, 512) as u16,
        };
        assert_eq!(Query::from_frame(&q.to_frame().unwrap()), Some(q));
    });
}

/// Rate selection is monotone in load and always supported.
#[test]
fn rate_selection_monotone() {
    check("rate-selection-monotone", 256, |g| {
        let load1 = g.f64_in(10.0, 10_000.0);
        let load2 = g.f64_in(10.0, 10_000.0);
        let m = g.usize_in(1, 40) as u32;
        let (lo, hi) = if load1 <= load2 {
            (load1, load2)
        } else {
            (load2, load1)
        };
        let r_lo = select_bit_rate(lo, m, 0.8);
        let r_hi = select_bit_rate(hi, m, 0.8);
        assert!(r_lo <= r_hi);
        assert!(SUPPORTED_RATES_BPS.contains(&r_lo));
        assert!(SUPPORTED_RATES_BPS.contains(&r_hi));
    });
}

/// Builds an arbitrary — often degenerate — bundle: few (possibly zero)
/// channels and packets, irregular timestamps with duplicates and long
/// dead-air gaps, and adversarial value modes (constant zero-variance
/// series, ±`f64::MAX` alternation, all-NaN, near-zero variance).
fn degenerate_bundle(g: &mut bs_dsp::testkit::Gen) -> SeriesBundle {
    let channels = g.usize_in(0, 5);
    let packets = g.usize_in(0, 60);
    let mut t = 0u64;
    let t_us: Vec<u64> = (0..packets)
        .map(|_| {
            t += match g.usize_in(0, 3) {
                0 => 0, // duplicate timestamp
                1 => g.usize_in(1, 900) as u64,
                2 => g.usize_in(1_000, 40_000) as u64,
                _ => g.usize_in(100_000, 400_000) as u64, // dead air
            };
            t
        })
        .collect();
    let mode = g.usize_in(0, 4);
    let series: Vec<Vec<f64>> = (0..channels)
        .map(|c| {
            (0..packets)
                .map(|p| match mode {
                    0 => 7.25, // constant: zero variance everywhere
                    1 => {
                        if p % 2 == 0 {
                            f64::MAX
                        } else {
                            -f64::MAX
                        }
                    }
                    2 => f64::NAN,
                    3 => (c + p) as f64 * 1e-300, // vanishing variance
                    _ => ((p * 37 + c * 11) % 13) as f64 - 6.0,
                })
                .collect()
        })
        .collect();
    SeriesBundle::from_columns(t_us, series).unwrap()
}

/// Neither decoder panics on degenerate input: empty and single-packet
/// bundles, constant series, NaN-poisoned channels, zero-variance
/// slots, sparse gaps. They may (and usually do) return `None` — they
/// must never unwind.
#[test]
fn decoders_never_panic_on_degenerate_bundles() {
    let uplink =
        |payload_bits: usize| UplinkDecoder::new(UplinkDecoderConfig::csi(100, payload_bits));
    let longrange =
        |payload_bits: usize| LongRangeDecoder::new(LongRangeConfig::new(4, 1_000, payload_bits));
    // Pinned edge cases first: zero packets, zero channels, one
    // NaN-valued packet.
    for bundle in [
        SeriesBundle::new(0),
        SeriesBundle::from_columns(vec![0, 10], vec![]).unwrap(),
        SeriesBundle::from_columns(vec![0], vec![vec![f64::NAN]]).unwrap(),
    ] {
        let _ = uplink(4).decode(&bundle, 0);
        let _ = longrange(4).decode(&bundle, 0);
    }
    check("decoders-no-panic-degenerate", 64, |g| {
        let bundle = degenerate_bundle(g);
        let hint = g.usize_in(0, 200_000) as u64;
        let _ = uplink(g.usize_in(1, 12)).decode(&bundle, hint);
        let _ = longrange(g.usize_in(1, 6)).decode(&bundle, hint);
    });
}

/// A malformed bundle cannot be built. Over random timestamps and
/// columns with injected backwards steps, short or long columns and zero
/// channels: `from_columns` is rejected exactly when the input is
/// malformed; and pushing the rows one at a time refuses the same packet
/// with the same error and stores nothing, or builds the same bundle.
#[test]
fn series_bundle_rejects_exactly_the_malformed_inputs() {
    check("series-bundle-invariant", 256, |g| {
        let channels = g.usize_in(0, 4);
        let packets = g.usize_in(0, 12);
        let mut t = 100u64;
        let mut t_us: Vec<u64> = (0..packets)
            .map(|_| {
                t += g.usize_in(0, 3) as u64 * 10; // ties included
                t
            })
            .collect();
        let mut series: Vec<Vec<f64>> = (0..channels)
            .map(|_| g.vec_f64(-1e3, 1e3, packets, packets + 1))
            .collect();
        if packets >= 2 && g.usize_in(0, 3) == 0 {
            let p = g.usize_in(1, packets);
            t_us[p] = t_us[p - 1] - 1;
        }
        if channels > 0 && g.usize_in(0, 3) == 0 {
            let c = g.usize_in(0, channels);
            if g.bool() {
                series[c].pop();
            } else {
                series[c].push(0.5);
            }
        }
        let malformed =
            t_us.windows(2).any(|w| w[1] < w[0]) || series.iter().any(|s| s.len() != packets);

        let by_columns = SeriesBundle::from_columns(t_us.clone(), series.clone());
        assert_eq!(by_columns.is_err(), malformed, "case {}", g.case());

        let mut by_rows = SeriesBundle::new(channels);
        let mut refused = None;
        for (p, &t) in t_us.iter().enumerate() {
            let row: Vec<f64> = series.iter().filter_map(|s| s.get(p).copied()).collect();
            let before = by_rows.clone();
            if let Err(e) = by_rows.push(t, &row) {
                assert_eq!(by_rows, before, "a refused packet is not stored");
                refused = Some(e);
                break;
            }
        }
        match (by_columns, refused) {
            (Ok(bundle), None) => assert_eq!(bundle, by_rows),
            (Err(e), Some(r)) => assert_eq!(e, r),
            // No row can carry a value past the end of the time axis.
            (Err(SeriesError::Width { packet }), None) => {
                assert_eq!(packet, packets);
                assert!(series.iter().any(|s| s.len() > packets));
            }
            (columns, rows) => panic!("doors disagree: {columns:?} vs {rows:?}"),
        }
    });
}

/// The slot-indexed decode path is bit-identical to the straight-line
/// reference on arbitrary noise bundles — whether or not a frame is
/// actually present (`PartialEq` on the outputs compares every f64).
#[test]
fn indexed_decode_matches_reference_on_random_bundles() {
    check("indexed-matches-reference", 32, |g| {
        let channels = g.usize_in(1, 6);
        let packets = g.usize_in(1, 400);
        let mut t = 0u64;
        let t_us: Vec<u64> = (0..packets)
            .map(|_| {
                t += g.usize_in(1, 2_000) as u64;
                t
            })
            .collect();
        let series: Vec<Vec<f64>> = (0..channels)
            .map(|_| (0..packets).map(|_| 9.0 + g.f64_in(-5.0, 5.0)).collect())
            .collect();
        let bundle = SeriesBundle::from_columns(t_us, series).unwrap();
        let hint = g.usize_in(0, 50_000) as u64;

        let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(1_000, g.usize_in(1, 8)));
        assert_eq!(
            dec.decode_reference(&bundle, hint),
            dec.decode(&bundle, hint)
        );

        let lr = LongRangeDecoder::new(LongRangeConfig::new(4, 10_000, g.usize_in(1, 4)));
        assert_eq!(lr.decode_reference(&bundle, hint), lr.decode(&bundle, hint));
    });
}

/// One query to a [`SlotIndex`]: a channel and a slot window, asking for
/// the slot means or the residual variance.
#[derive(Debug, Clone, Copy)]
struct SlotQuery {
    channel: usize,
    start_us: u64,
    width_us: u64,
    n_slots: usize,
    means: bool,
}

/// A [`SlotQuery`]'s answer, every f64 as its bits.
#[derive(Debug, PartialEq)]
enum SlotAnswer {
    Means(Option<Vec<u64>>),
    Variance(u64),
}

/// Asks `index` the query, reading slot means into `buf`.
fn ask(index: &mut SlotIndex, q: SlotQuery, buf: &mut Vec<f64>) -> SlotAnswer {
    if q.means {
        let means = index.slot_means(q.channel, q.start_us, q.width_us, q.n_slots, buf);
        SlotAnswer::Means(means.map(|m| m.iter().map(|x| x.to_bits()).collect()))
    } else {
        let var = index.residual_variance(q.channel, q.start_us, q.width_us, q.n_slots);
        SlotAnswer::Variance(var.to_bits())
    }
}

/// A shared slot index answers a random sequence of window queries —
/// below, above and around earlier windows on the same slot phase, at
/// mixed widths, some after a pre-sizing `ensure_grid`, every slot-mean
/// query through one reused buffer — exactly as a fresh index answers
/// each query alone. Its in-place conditioned channels are, bit for bit,
/// what the copying `condition` returns.
#[test]
fn shared_slot_index_matches_a_fresh_index_per_query() {
    check("slot-index-shared-vs-fresh", 64, |g| {
        let channels = g.usize_in(1, 4);
        let packets = g.usize_in(1, 300);
        let mut t = g.usize_in(0, 5_000) as u64;
        let t_us: Vec<u64> = (0..packets)
            .map(|_| {
                t += g.usize_in(1, 600) as u64;
                t
            })
            .collect();
        let series: Vec<Vec<f64>> = (0..channels)
            .map(|_| (0..packets).map(|_| 9.0 + g.f64_in(-5.0, 5.0)).collect())
            .collect();
        let bundle = SeriesBundle::from_columns(t_us, series).unwrap();
        let half = g.usize_in(0, 12);
        let widths = [g.usize_in(200, 3_000) as u64, g.usize_in(200, 3_000) as u64];
        let mut shared = SlotIndex::new(bundle.clone(), half);
        for c in 0..channels {
            let want: Vec<u64> = bs_dsp::filter::condition(bundle.channel(c), half)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let got: Vec<u64> = shared
                .conditioned()
                .channel(c)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(got, want, "case {} channel {c}", g.case());
        }
        let mut buf = Vec::new();
        let mut prev: Option<SlotQuery> = None;
        for step in 0..g.usize_in(1, 16) {
            let n_slots = g.usize_in(1, 30);
            let mut q = SlotQuery {
                channel: g.usize_in(0, channels),
                start_us: g.usize_in(0, 80_000) as u64,
                width_us: widths[g.usize_in(0, 2)],
                n_slots,
                means: g.bool(),
            };
            if let Some(p) = prev.filter(|_| g.usize_in(0, 4) > 0) {
                // Same width and slot phase as the previous window, moved
                // below it, above it or out around both of its ends.
                q.width_us = p.width_us;
                let shift = p.width_us * g.usize_in(1, 25) as u64;
                q.start_us = match g.usize_in(0, 3) {
                    0 => p.start_us.saturating_sub(shift),
                    1 => p.start_us + shift,
                    _ => {
                        q.n_slots = p.n_slots + 2 * (shift / p.width_us) as usize;
                        p.start_us.saturating_sub(shift)
                    }
                };
            }
            if g.usize_in(0, 4) == 0 {
                let end = q.start_us + g.usize_in(0, 40) as u64 * q.width_us;
                shared.ensure_grid(q.width_us, q.start_us, end);
            }
            let got = ask(&mut shared, q, &mut buf);
            let want = ask(
                &mut SlotIndex::new(bundle.clone(), half),
                q,
                &mut Vec::new(),
            );
            assert_eq!(got, want, "case {} step {step}: {q:?}", g.case());
            prev = Some(q);
        }
    });
}

/// Inventory always identifies every tag (distinct addresses, default
/// config) and never reports duplicates or ghosts.
#[test]
fn inventory_is_complete_and_sound() {
    check("inventory-complete-sound", 24, |g| {
        let n = g.usize_in(1, 40);
        let seed = g.case() ^ 0x1171;
        let tags: Vec<InventoryTag> = (0..n).map(|i| InventoryTag::new(i as u8)).collect();
        let mut rng = bs_dsp::SimRng::new(seed).stream("prop-inventory");
        let r = run_inventory(&tags, InventoryConfig::default(), &mut rng);
        assert!(r.complete(&tags), "missed tags (n={n})");
        let mut ids = r.identified.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicates reported");
        assert!(r.identified.iter().all(|a| (*a as usize) < n), "ghost tag");
    });
}

/// Acks and window ACKs round-trip for any field values, and each
/// parser rejects the other's frames.
#[test]
fn ack_and_window_ack_roundtrip() {
    use wifi_backscatter::protocol::{Ack, WindowAck};
    check("ack-window-ack-roundtrip", 256, |g| {
        let ack = Ack {
            tag_address: g.u8(),
        };
        let wa = WindowAck {
            tag_address: g.u8(),
            msg_id: g.u8(),
            cumulative: ((u16::from(g.u8())) << 8) | u16::from(g.u8()),
            sack: u32::from_be_bytes([g.u8(), g.u8(), g.u8(), g.u8()]),
        };
        let ack_frame = ack.to_frame();
        let wa_frame = wa.to_frame();
        assert_eq!(Ack::from_frame(&ack_frame), Some(ack));
        assert_eq!(WindowAck::from_frame(&wa_frame), Some(wa));

        // Cross-parsing must fail on the opcode, not mis-decode.
        assert_eq!(Ack::from_frame(&wa_frame), None);
        assert_eq!(WindowAck::from_frame(&ack_frame), None);
    });
}

/// `Query::to_frame` is total: every bit rate yields `Ok` or the
/// `UnsupportedRate` error — never a panic.
#[test]
fn query_to_frame_is_total_over_rates() {
    use wifi_backscatter::error::ProtocolError;
    check("query-to-frame-total", 256, |g| {
        let bps = u64::from_be_bytes([
            g.u8(),
            g.u8(),
            g.u8(),
            g.u8(),
            g.u8(),
            g.u8(),
            g.u8(),
            g.u8(),
        ]);
        let q = Query {
            tag_address: g.u8(),
            payload_bits: g.usize_in(1, 1024) as u16,
            bit_rate_bps: bps,
            code_length: g.usize_in(1, 512) as u16,
        };
        match q.to_frame() {
            Ok(f) => {
                assert!(SUPPORTED_RATES_BPS.contains(&bps));
                assert_eq!(Query::from_frame(&f), Some(q));
            }
            Err(ProtocolError::UnsupportedRate { bps: got }) => {
                assert_eq!(got, bps);
                assert!(!SUPPORTED_RATES_BPS.contains(&bps));
            }
        }
    });
}

/// Every protocol parser is total over arbitrary frame payloads and
/// bit-flipped/truncated frame bodies — garbage in, `None`/`Err` out,
/// never a panic.
#[test]
fn protocol_parsers_never_panic_on_corrupt_frames() {
    use bs_tag::frame::DownlinkFrame;
    use wifi_backscatter::protocol::{Ack, WindowAck};
    check("protocol-parsers-total", 512, |g| {
        // Arbitrary payload bytes wrapped in a well-formed frame.
        let f = DownlinkFrame::new(g.vec_u8(0, 16));
        let _ = Query::from_frame(&f);
        let _ = Ack::from_frame(&f);
        let _ = WindowAck::from_frame(&f);

        // A real frame's body bits, truncated and bit-flipped.
        let q = Query {
            tag_address: g.u8(),
            payload_bits: g.usize_in(1, 1024) as u16,
            bit_rate_bps: SUPPORTED_RATES_BPS[g.usize_in(0, SUPPORTED_RATES_BPS.len())],
            code_length: g.usize_in(1, 512) as u16,
        };
        let bits = q.to_frame().unwrap().to_bits();
        let body = &bits[16..]; // receiver strips the preamble
        let cut = g.usize_in(0, body.len() + 1);
        let _ = DownlinkFrame::from_body_bits(&body[..cut]);
        let mut flipped = body.to_vec();
        let i = g.usize_in(0, flipped.len());
        flipped[i] = !flipped[i];
        if let Ok(frame) = DownlinkFrame::from_body_bits(&flipped) {
            let _ = Query::from_frame(&frame);
            let _ = Ack::from_frame(&frame);
            let _ = WindowAck::from_frame(&frame);
        }
    });
}

/// Segment headers round-trip for arbitrary fields, whether the payload
/// borrows (a sender's view of its message) or owns; truncations and
/// single-bit flips are always rejected without panicking.
#[test]
fn segment_header_roundtrip_and_corruption() {
    use bs_net::prelude::Segment;
    use std::borrow::Cow;
    check("segment-roundtrip-fuzz", 256, |g| {
        let total = g.usize_in(1, 600) as u16;
        let message = g.vec_u8(0, 32);
        let seg = Segment {
            msg_id: g.u8(),
            seq: g.usize_in(0, total as usize) as u16,
            total,
            payload: if g.bool() {
                Cow::Borrowed(&message[..])
            } else {
                Cow::Owned(message.clone())
            },
        };
        let bytes = seg.to_bytes();
        let parsed = Segment::from_bytes(&bytes);
        assert_eq!(parsed, Ok(seg.clone()));
        assert!(
            matches!(
                parsed,
                Ok(Segment {
                    payload: Cow::Borrowed(_),
                    ..
                })
            ),
            "from_bytes borrows the received bytes"
        );
        assert_eq!(Segment::from_bits(&seg.to_bits()), Ok(seg.clone()));

        let bits = seg.to_bits();
        let cut = g.usize_in(0, bits.len());
        assert!(Segment::from_bits(&bits[..cut]).is_err());
        let mut flipped = bits;
        let i = g.usize_in(0, flipped.len());
        flipped[i] = !flipped[i];
        assert!(
            Segment::from_bits(&flipped).is_err(),
            "flip at {i} accepted"
        );

        // Arbitrary byte soup never panics either.
        let _ = Segment::from_bytes(&g.vec_u8(0, 64));
    });
}
