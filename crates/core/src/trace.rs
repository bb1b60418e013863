//! Capture traces: save and load [`SeriesBundle`]s as plain text.
//!
//! The paper's workflow separates *capture* (the CSI tool logging packets
//! on the reader) from *decoding* (offline processing). This module gives
//! the reproduction the same split: a [`SeriesBundle`] serialises to a
//! simple line-oriented text format that survives a round trip exactly, so
//! captures can be archived, diffed, and re-decoded later — no serde
//! dependency needed for a numeric table.
//!
//! v1 format:
//!
//! ```text
//! # wifi-backscatter capture v1
//! # channels=<n> packets=<m>
//! <t_us> <ch0> <ch1> ... <chN-1>
//! ...
//! ```
//!
//! v2 adds optional observability sidecars — `#obs` comment lines carrying
//! the spans/counters/gauges an armed [`Recorder`](bs_dsp::obs::Recorder)
//! collected during the capture, so a profile travels with its trace:
//!
//! ```text
//! # wifi-backscatter capture v2
//! # channels=<n> packets=<m>
//! #obs span <stage> <start_us> <end_us> <items>
//! #obs counter <name> <value>
//! #obs gauge <name> <value>
//! <t_us> <ch0> <ch1> ... <chN-1>
//! ```
//!
//! The `# channels=` line, when it precedes the data, fixes the row
//! width; without it the first data row does. Every row goes through
//! [`SeriesBundle::push`], so a row of another width is a
//! [`BadLine`](crate::error::TraceError::BadLine) and a timestamp that runs
//! backwards is [`UnsortedTimestamps`](crate::error::TraceError::UnsortedTimestamps).
//!
//! Because v1 parsers skip every `#` line, a v2 body is *forward
//! compatible* with v1 tooling except for the header; [`load`] (and
//! [`from_text`]) auto-detect both versions, so archived v1 captures keep
//! parsing unchanged.

use crate::error::{self as err, SeriesError};
use crate::series::SeriesBundle;
use bs_dsp::obs::{ObsReport, Span};
use std::fmt::Write as _;

/// The header magic of the v1 capture format.
pub const MAGIC: &str = "# wifi-backscatter capture v1";

/// The header magic of the v2 capture format (adds `#obs` sidecars).
pub const MAGIC_V2: &str = "# wifi-backscatter capture v2";

/// A capture parsed by the auto-detecting [`load`]: the sample bundle plus
/// any observability sidecars the file carried.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedCapture {
    /// The time/series table.
    pub bundle: SeriesBundle,
    /// Observability sidecars (`None` for v1 files and v2 files without
    /// `#obs` lines).
    pub obs: Option<ObsReport>,
    /// Format version parsed (1 or 2).
    pub version: u8,
}

/// Serialises a bundle to the v1 capture text format.
pub fn to_text(bundle: &SeriesBundle) -> String {
    let mut out = header(MAGIC, bundle);
    write_body(&mut out, bundle);
    out
}

/// Serialises a bundle plus an observability report to the v2 format.
///
/// The report's spans, counters and gauges become `#obs` sidecar lines in
/// deterministic order (spans as recorded, maps sorted), so the output is
/// byte-stable for a given run.
pub fn to_text_v2(bundle: &SeriesBundle, obs: &ObsReport) -> String {
    let mut out = header(MAGIC_V2, bundle);
    for s in &obs.spans {
        let _ = writeln!(
            out,
            "#obs span {} {} {} {}",
            s.stage, s.start_us, s.end_us, s.items
        );
    }
    for (k, v) in &obs.counters {
        let _ = writeln!(out, "#obs counter {k} {v}");
    }
    for (k, v) in &obs.gauges {
        // {:?} round-trips f64 exactly.
        let _ = writeln!(out, "#obs gauge {k} {v:?}");
    }
    write_body(&mut out, bundle);
    out
}

/// Header + one preallocation for the whole file.
fn header(magic: &str, bundle: &SeriesBundle) -> String {
    // ~25 bytes per value in scientific notation plus the timestamp column.
    let per_line = 12 + 25 * bundle.channels();
    let mut out = String::with_capacity(magic.len() + 40 + per_line * bundle.packets());
    out.push_str(magic);
    out.push('\n');
    let _ = writeln!(
        out,
        "# channels={} packets={}",
        bundle.channels(),
        bundle.packets()
    );
    out
}

/// Appends the numeric table shared by both versions.
fn write_body(out: &mut String, bundle: &SeriesBundle) {
    for (p, &t) in bundle.t_us().iter().enumerate() {
        let _ = write!(out, "{t}");
        for c in 0..bundle.channels() {
            // 17 significant digits: f64 round-trips exactly.
            let _ = write!(out, " {:.17e}", bundle.channel(c)[p]);
        }
        out.push('\n');
    }
}

/// Parses a capture (v1 or v2, auto-detected) back into a bundle,
/// discarding any v2 sidecars. Use [`load`] to keep them.
pub fn from_text(text: &str) -> Result<SeriesBundle, err::TraceError> {
    load(text).map(|c| c.bundle)
}

/// Auto-detecting loader: parses v1 and v2 captures, returning the bundle
/// together with any `#obs` sidecars a v2 file carried.
pub fn load(text: &str) -> Result<LoadedCapture, err::TraceError> {
    let mut lines = text.lines().enumerate();
    let version = match lines.next() {
        Some((_, l)) if l.trim() == MAGIC => 1,
        Some((_, l)) if l.trim() == MAGIC_V2 => 2,
        _ => return Err(err::TraceError::BadHeader),
    };

    let mut obs: Option<ObsReport> = None;
    let mut bundle: Option<SeriesBundle> = None;
    for (i, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("#obs ") {
            // v1 files treat #obs as a plain comment; v2 files parse it.
            if version >= 2 {
                parse_obs_line(rest, i + 1, obs.get_or_insert_with(ObsReport::new))?;
            }
            continue;
        }
        if bundle.is_none() {
            if let Some(channels) = declared_channels(line) {
                bundle = Some(SeriesBundle::new(channels));
                continue;
            }
        }
        if line.starts_with('#') {
            continue;
        }
        let bad_line = err::TraceError::BadLine { line: i + 1 };
        let mut fields = line.split_whitespace();
        let t: u64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or(bad_line.clone())?;
        let values: Vec<f64> = fields
            .map(str::parse::<f64>)
            .collect::<Result<_, _>>()
            .map_err(|_| bad_line.clone())?;
        let bundle = bundle.get_or_insert_with(|| SeriesBundle::new(values.len()));
        bundle.push(t, &values).map_err(|e| match e {
            SeriesError::Backwards { .. } => err::TraceError::UnsortedTimestamps { line: i + 1 },
            SeriesError::Width { .. } => bad_line,
        })?;
    }
    Ok(LoadedCapture {
        bundle: bundle.unwrap_or_else(|| SeriesBundle::new(0)),
        obs,
        version,
    })
}

/// The channel count a `# channels=<n> packets=<m>` header line declares.
fn declared_channels(line: &str) -> Option<usize> {
    line.strip_prefix("# channels=")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Parses one `#obs` sidecar payload (the part after the `#obs ` prefix).
fn parse_obs_line(rest: &str, line: usize, obs: &mut ObsReport) -> Result<(), err::TraceError> {
    let bad = err::TraceError::BadObsLine { line };
    let mut f = rest.split_whitespace();
    match f.next() {
        Some("span") => {
            let stage = f.next().ok_or(bad.clone())?;
            let start_us: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad.clone())?;
            let end_us: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad.clone())?;
            let items: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad.clone())?;
            if f.next().is_some() {
                return Err(bad);
            }
            obs.spans.push(Span {
                stage: stage.to_string(),
                start_us,
                end_us,
                items,
            });
        }
        Some("counter") => {
            let name = f.next().ok_or(bad.clone())?;
            let value: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad.clone())?;
            if f.next().is_some() {
                return Err(bad);
            }
            *obs.counters.entry(name.to_string()).or_insert(0) += value;
        }
        Some("gauge") => {
            let name = f.next().ok_or(bad.clone())?;
            let value: f64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad.clone())?;
            if f.next().is_some() {
                return Err(bad);
            }
            obs.gauges.insert(name.to_string(), value);
        }
        _ => return Err(bad),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TraceError;

    fn bundle() -> SeriesBundle {
        SeriesBundle::from_columns(
            vec![0, 333, 666, 1000],
            vec![
                vec![1.0, 2.5, -0.125, 1e-9],
                vec![9.75, 9.5, 10.0, std::f64::consts::PI],
            ],
        )
        .unwrap()
    }

    fn report() -> ObsReport {
        use bs_dsp::obs::{MemRecorder, Recorder};
        let mut rec = MemRecorder::new();
        rec.span("uplink.capture", 0, 1000, 4);
        rec.span("uplink.slice", 600, 1000, 2);
        rec.add("uplink.packets-binned", 4);
        rec.add("uplink.erasures", 1);
        rec.gauge("uplink.mrc-weight-entropy", 0.625);
        rec.gauge("uplink.preamble-score", -3.5e-2);
        rec.into_report()
    }

    #[test]
    fn roundtrip_is_exact() {
        let b = bundle();
        let text = to_text(&b);
        let back = from_text(&text).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn v2_roundtrip_preserves_bundle_and_obs() {
        let b = bundle();
        let r = report();
        let text = to_text_v2(&b, &r);
        let cap = load(&text).unwrap();
        assert_eq!(cap.version, 2);
        assert_eq!(cap.bundle, b);
        assert_eq!(cap.obs.as_ref(), Some(&r));
        // from_text still works on v2, discarding the sidecars.
        assert_eq!(from_text(&text).unwrap(), b);
    }

    #[test]
    fn v1_load_reports_version_and_no_obs() {
        let cap = load(&to_text(&bundle())).unwrap();
        assert_eq!(cap.version, 1);
        assert!(cap.obs.is_none());
    }

    #[test]
    fn v1_parser_tolerates_obs_lines_as_comments() {
        // A v2 body pasted under a v1 header: sidecars are plain comments.
        let text = format!("{MAGIC}\n#obs span x 0 1 1\n0 1.0\n10 2.0\n");
        let cap = load(&text).unwrap();
        assert_eq!(cap.version, 1);
        assert!(cap.obs.is_none());
        assert_eq!(cap.bundle.packets(), 2);
    }

    #[test]
    fn v2_empty_report_roundtrips_as_none() {
        let text = to_text_v2(&bundle(), &ObsReport::new());
        let cap = load(&text).unwrap();
        assert_eq!(cap.version, 2);
        assert!(cap.obs.is_none());
    }

    #[test]
    fn malformed_obs_line_rejected_in_v2() {
        let text = format!("{MAGIC_V2}\n#obs span onlythree 0 1\n0 1.0\n");
        assert_eq!(load(&text), Err(TraceError::BadObsLine { line: 2 }));
        let text = format!("{MAGIC_V2}\n#obs widget w 1\n0 1.0\n");
        assert_eq!(load(&text), Err(TraceError::BadObsLine { line: 2 }));
        let text = format!("{MAGIC_V2}\n#obs counter c nan-ish\n0 1.0\n");
        assert_eq!(load(&text), Err(TraceError::BadObsLine { line: 2 }));
    }

    #[test]
    fn empty_bundle_roundtrips() {
        for channels in [0, 3] {
            let b = SeriesBundle::new(channels);
            assert_eq!(from_text(&to_text(&b)).unwrap(), b);
        }
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(from_text("0 1.0 2.0\n"), Err(TraceError::BadHeader));
        assert_eq!(from_text(""), Err(TraceError::BadHeader));
    }

    #[test]
    fn malformed_line_rejected() {
        let text = format!("{MAGIC}\n0 1.0\nnot-a-number 2.0\n");
        assert_eq!(from_text(&text), Err(TraceError::BadLine { line: 3 }));
    }

    #[test]
    fn inconsistent_width_rejected() {
        let text = format!("{MAGIC}\n0 1.0 2.0\n10 1.0\n");
        assert_eq!(from_text(&text), Err(TraceError::BadLine { line: 3 }));
        // The header's declared width binds the first row too.
        let text = format!("{MAGIC}\n# channels=2 packets=1\n0 1.0\n");
        assert_eq!(from_text(&text), Err(TraceError::BadLine { line: 3 }));
    }

    #[test]
    fn empty_first_row_fixes_zero_width() {
        // Regression: a first row with no values used to leave the width
        // open, so a wider second row loaded as a ragged bundle whose
        // `to_text` panicked.
        let text = format!("{MAGIC}\n0\n10 1.0 2.0\n");
        assert_eq!(from_text(&text), Err(TraceError::BadLine { line: 3 }));
    }

    #[test]
    fn backwards_time_rejected() {
        let text = format!("{MAGIC}\n100 1.0\n50 2.0\n");
        assert_eq!(
            from_text(&text),
            Err(TraceError::UnsortedTimestamps { line: 3 })
        );
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = format!("{MAGIC}\n# a comment\n\n0 1.0\n# more\n10 2.0\n");
        let b = from_text(&text).unwrap();
        assert_eq!(b.packets(), 2);
        assert_eq!(b.channel(0), &[1.0, 2.0]);
    }

    #[test]
    fn real_capture_decodes_after_roundtrip() {
        // Capture a real simulated exchange, serialise, re-load, decode.
        use crate::link::{capture_uplink, LinkConfig};
        use crate::uplink::{UplinkDecoder, UplinkDecoderConfig};
        let mut cfg = LinkConfig::fig10(0.10, 100, 30, 77);
        cfg.payload = (0..16).map(|i| i % 2 == 0).collect();
        let cap = capture_uplink(&cfg);
        let restored = from_text(&to_text(&cap.bundle)).unwrap();
        assert_eq!(restored, cap.bundle);
        let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 16));
        let out = dec.decode(&restored, cap.start_us).expect("no detection");
        assert_eq!(out.frame.unwrap().payload, cfg.payload);
    }

    #[test]
    fn error_display() {
        assert!(TraceError::BadHeader.to_string().contains("header"));
        assert!(TraceError::BadLine { line: 7 }.to_string().contains('7'));
        assert!(TraceError::BadObsLine { line: 9 }.to_string().contains('9'));
    }
}
