//! Capture traces: save and load [`SeriesBundle`]s as plain text.
//!
//! The paper's workflow separates *capture* (the CSI tool logging packets
//! on the reader) from *decoding* (offline processing). This module gives
//! the reproduction the same split: a [`SeriesBundle`] serialises to a
//! simple line-oriented text format that survives a round trip exactly, so
//! captures can be archived, diffed, and re-decoded later — no serde
//! dependency needed for a numeric table.
//!
//! The format:
//!
//! ```text
//! # wifi-backscatter capture v1
//! # channels=<n> packets=<m>
//! <t_us> <ch0> <ch1> ... <chN-1>
//! ...
//! ```
//!
//! The header line must come first; any other first line, the former v2
//! header included, is [`BadHeader`](crate::error::TraceError::BadHeader).
//! Every other line starting with `#` is a comment, and blank lines are skipped. The `# channels=` line,
//! when it precedes the data, fixes the row width; without it the first
//! data row does. Every row goes through [`SeriesBundle::push`], so a row
//! of another width is a [`BadLine`](crate::error::TraceError::BadLine)
//! and a timestamp that runs backwards is
//! [`UnsortedTimestamps`](crate::error::TraceError::UnsortedTimestamps).

use crate::error::{self as err, SeriesError};
use crate::series::SeriesBundle;
use std::fmt::Write as _;

/// The header magic of the capture format.
pub const MAGIC: &str = "# wifi-backscatter capture v1";

/// Serialises a bundle to the capture text format.
pub fn to_text(bundle: &SeriesBundle) -> String {
    // ~25 bytes per value in scientific notation plus the timestamp column.
    let per_line = 12 + 25 * bundle.channels();
    let mut out = String::with_capacity(MAGIC.len() + 40 + per_line * bundle.packets());
    out.push_str(MAGIC);
    out.push('\n');
    let _ = writeln!(
        out,
        "# channels={} packets={}",
        bundle.channels(),
        bundle.packets()
    );
    for (p, &t) in bundle.t_us().iter().enumerate() {
        let _ = write!(out, "{t}");
        for c in 0..bundle.channels() {
            // 17 significant digits: f64 round-trips exactly.
            let _ = write!(out, " {:.17e}", bundle.channel(c)[p]);
        }
        out.push('\n');
    }
    out
}

/// Parses a capture back into a bundle.
pub fn from_text(text: &str) -> Result<SeriesBundle, err::TraceError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == MAGIC => {}
        _ => return Err(err::TraceError::BadHeader),
    }

    let mut bundle: Option<SeriesBundle> = None;
    for (i, line) in lines {
        let line = line.trim();
        if line.is_empty() {
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
    Ok(bundle.unwrap_or_else(|| SeriesBundle::new(0)))
}

/// The channel count a `# channels=<n> packets=<m>` header line declares.
fn declared_channels(line: &str) -> Option<usize> {
    line.strip_prefix("# channels=")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
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

    #[test]
    fn roundtrip_is_exact() {
        let b = bundle();
        let text = to_text(&b);
        let back = from_text(&text).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn v1_parser_tolerates_obs_lines_as_comments() {
        // `#obs` lines are comments like any other `#` line.
        let text = format!("{MAGIC}\n#obs span x 0 1 1\n0 1.0\n#obs counter c 1\n10 2.0\n");
        let b = from_text(&text).unwrap();
        assert_eq!(b.packets(), 2);
        assert_eq!(b.channel(0), &[1.0, 2.0]);
    }

    #[test]
    fn archived_v2_text_is_rejected() {
        // The former v2 format: its header, `#obs` sidecars, data rows.
        let text = "# wifi-backscatter capture v2\n\
                    # channels=1 packets=2\n\
                    #obs span uplink.slice 0 10 2\n\
                    #obs counter uplink.erasures 1\n\
                    #obs gauge uplink.preamble-score 0.5\n\
                    0 1.0\n\
                    10 2.0\n";
        assert_eq!(from_text(text), Err(TraceError::BadHeader));
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
    }
}
