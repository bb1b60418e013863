//! Structured run records and their JSON-lines serialization.
//!
//! Every harness job produces one [`RunRecord`]: which figure it belongs
//! to, the point configuration it measured, the master seed, how long it
//! took, how much work it simulated, and its headline metrics. Records
//! are what `--json <dir>` persists (one JSON object per line), and what
//! the table renderer consumes.
//!
//! Serialization is hand-rolled: the workspace is deliberately
//! dependency-free (see the workspace `Cargo.toml`), so there is no serde.
//! The schema is flat and documented in EXPERIMENTS.md.

use bs_dsp::obs::json_str;

/// The result of one harness job, before scheduling metadata is attached.
///
/// Jobs return their rendered table lines *and* their numeric metrics so
/// the renderer never recomputes anything — the table a parallel run
/// prints is assembled purely from these per-job outputs, in job order,
/// which is what makes the output independent of worker count.
#[derive(Debug, Clone, Default)]
pub struct JobOutput {
    /// Fully formatted table lines for this point (no trailing newline).
    pub lines: Vec<String>,
    /// Headline metrics as `(name, value)` pairs, e.g. `("ber", 1.2e-3)`.
    pub metrics: Vec<(String, f64)>,
    /// Work simulated, in the figure's natural unit (helper packets for
    /// uplink figures, bits for downlink BER, MAC bursts for Fig. 18,
    /// SNR snapshots for Fig. 19). Zero when no meaningful count exists.
    pub work_items: u64,
    /// Pre-serialised `DegradationReport` JSON from fault-aware runs
    /// (`wifi_backscatter::link::DegradationReport::to_json`); `None` for
    /// figures that inject no faults, keeping their records byte-stable.
    pub degradation: Option<String>,
    /// Pre-serialised `ObsReport` JSON (`bs_dsp::obs::ObsReport::to_json`)
    /// from jobs that ran with an armed recorder; `None` everywhere else,
    /// so records from unprofiled figures stay byte-stable.
    pub obs: Option<String>,
}

/// One completed experiment run: a [`JobOutput`] plus the scheduling
/// metadata the harness attached (figure id, label, seed, job index,
/// wall-clock time).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Figure id, e.g. `"fig10"`.
    pub fig: String,
    /// Index of the output section this record's lines belong to.
    pub section: usize,
    /// Human-readable point configuration, e.g. `"csi d=5cm ppb=3"`.
    pub label: String,
    /// Master seed the job derived its per-run seeds from.
    pub seed: u64,
    /// Position in the serial job order; tables are assembled in this
    /// order regardless of which worker finished first.
    pub job_index: usize,
    /// Wall-clock seconds the job took. The only non-deterministic field;
    /// it appears in JSON records but never in rendered tables.
    pub wall_s: f64,
    /// Work simulated (see [`JobOutput::work_items`]).
    pub work_items: u64,
    /// Headline metrics as `(name, value)` pairs.
    pub metrics: Vec<(String, f64)>,
    /// Rendered table lines for this point.
    pub lines: Vec<String>,
    /// Degradation-report JSON (see [`JobOutput::degradation`]).
    pub degradation: Option<String>,
    /// Observability-report JSON (see [`JobOutput::obs`]).
    pub obs: Option<String>,
}

impl RunRecord {
    /// Serializes the record as one JSON object on a single line
    /// (JSON-lines convention). Metric names become keys of the nested
    /// `"metrics"` object; table lines are not included (they are
    /// presentation, not data).
    pub fn to_json_line(&self) -> String {
        let mut metrics = String::from("{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            metrics.push_str(&format!("{}:{}", json_str(k), json_number(*v)));
        }
        metrics.push('}');
        // The degradation report is already JSON (built by the link
        // layer); splice it in verbatim, and only when present so
        // fault-free figures' records stay byte-identical to before.
        let degradation = match &self.degradation {
            Some(d) => format!(",\"degradation\":{d}"),
            None => String::new(),
        };
        // Same deal for the observability report: it is deterministic JSON
        // built by `ObsReport::to_json`, present only when the job armed a
        // recorder.
        let obs = match &self.obs {
            Some(o) => format!(",\"obs\":{o}"),
            None => String::new(),
        };
        format!(
            "{{\"fig\":{},\"label\":{},\"seed\":{},\"job_index\":{},\
             \"wall_s\":{},\"work_items\":{},\"metrics\":{}{}{}}}",
            json_str(&self.fig),
            json_str(&self.label),
            self.seed,
            self.job_index,
            json_number(self.wall_s),
            self.work_items,
            metrics,
            degradation,
            obs,
        )
    }
}

/// Formats an `f64` as a JSON number. JSON has no NaN/Infinity; those
/// (which never occur in practice — BERs and goodputs are finite) map to
/// `null`.
pub(crate) fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a decimal
        // point or exponent, which keeps the value a JSON number.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord {
        RunRecord {
            fig: "fig10".into(),
            section: 0,
            label: "csi d=5cm ppb=3".into(),
            seed: 20140817,
            job_index: 4,
            wall_s: 0.25,
            work_items: 2700,
            metrics: vec![("ber".into(), 1.5e-3)],
            lines: vec!["5  3  1.50e-3".into()],
            degradation: None,
            obs: None,
        }
    }

    #[test]
    fn json_line_is_one_line_and_has_all_fields() {
        let line = record().to_json_line();
        assert!(!line.contains('\n'));
        for needle in [
            "\"fig\":\"fig10\"",
            "\"label\":\"csi d=5cm ppb=3\"",
            "\"seed\":20140817",
            "\"job_index\":4",
            "\"work_items\":2700",
            "\"metrics\":{\"ber\":0.0015}",
        ] {
            assert!(line.contains(needle), "{needle} missing from {line}");
        }
    }

    #[test]
    fn degradation_json_is_spliced_only_when_present() {
        let mut r = record();
        assert!(!r.to_json_line().contains("degradation"));
        r.degradation = Some("{\"faults_fired\":[\"packet-loss\"]}".to_string());
        let line = r.to_json_line();
        assert!(
            line.contains(",\"degradation\":{\"faults_fired\":[\"packet-loss\"]}}"),
            "{line}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn obs_json_is_spliced_only_when_present() {
        let mut r = record();
        assert!(!r.to_json_line().contains("\"obs\""));
        r.obs = Some("{\"spans\":[],\"counters\":{\"uplink.decode-attempts\":1}}".to_string());
        let line = r.to_json_line();
        assert!(
            line.contains(",\"obs\":{\"spans\":[],\"counters\":{\"uplink.decode-attempts\":1}}}"),
            "{line}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("tab\there"), "\"tab\\there\"");
    }

    #[test]
    fn json_numbers_round_trip_and_reject_nan() {
        assert_eq!(json_number(0.0015), "0.0015");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }
}
