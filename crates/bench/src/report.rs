//! The one writer of the smoke benches' `BENCH_*.json` evidence files.
//!
//! A smoke bench (`cargo bench -p bs-bench --bench <name> -- --json
//! [path]`) fills a [`BenchReport`] with named fields and gates, each
//! gate a [`Verdict`]: `Pass`, `Fail(reason)` or `Skipped(reason)`. A
//! skipped gate is written as `"skipped: <reason>"`, never as a pass.

use crate::harness::record::json_number;
use bs_dsp::obs::json_str;
use bs_dsp::par::available_jobs;
use std::fmt;
use std::path::Path;
use std::process::ExitCode;

/// One value of a bench report.
#[derive(Debug, Clone)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A count, written without a decimal point.
    Int(u64),
    /// A measurement; non-finite values are written as `null`.
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    List(Vec<Value>),
    /// An object whose members keep their insertion order.
    Object(Vec<(String, Value)>),
}

/// Builds a [`Value::Object`] from `"name": value` pairs, in the order
/// given; each value is anything with an `Into<Value>` impl.
///
/// ```
/// use bs_bench::report::Value;
/// let v = bs_bench::object! { "seed": 7u64, "ratio": 1.5, "mode": "wild" };
/// assert!(matches!(&v, Value::Object(m) if m.len() == 3 && m[2].0 == "mode"));
/// ```
#[macro_export]
macro_rules! object {
    ($($name:literal: $value:expr),* $(,)?) => {
        $crate::report::Value::Object(vec![
            $(($name.to_string(), $crate::report::Value::from($value))),*
        ])
    };
}

macro_rules! value_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v.into())
            }
        }
    )*};
}
value_from!(bool => Bool, u32 => Int, u64 => Int, f64 => Num, &str => Str, String => Str);

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

/// The outcome of one bench gate.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The gate's condition held.
    Pass,
    /// The gate's condition failed; the run exits non-zero.
    Fail(String),
    /// The gate did not run on this host, and why.
    Skipped(String),
}

impl Verdict {
    /// `Pass` when `ok`, otherwise `Fail(reason)`.
    pub fn check(ok: bool, reason: impl Into<String>) -> Verdict {
        if ok {
            Verdict::Pass
        } else {
            Verdict::Fail(reason.into())
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pass => f.write_str("pass"),
            Verdict::Fail(reason) => write!(f, "fail: {reason}"),
            Verdict::Skipped(reason) => write!(f, "skipped: {reason}"),
        }
    }
}

/// The evidence of one smoke-bench run: fields, then gates.
#[derive(Debug)]
pub struct BenchReport {
    fields: Vec<(String, Value)>,
    gates: Vec<(String, Verdict)>,
}

impl BenchReport {
    /// Starts a report for `bench`, recording the bench name and the
    /// host's core count as its first two fields.
    pub fn new(bench: &str) -> Self {
        BenchReport {
            fields: vec![
                ("bench".into(), bench.into()),
                ("host_cores".into(), available_jobs().into()),
            ],
            gates: Vec::new(),
        }
    }

    /// Appends a field.
    pub fn field(&mut self, name: &str, value: impl Into<Value>) {
        self.fields.push((name.to_string(), value.into()));
    }

    /// Appends a gate.
    pub fn gate(&mut self, name: &str, verdict: Verdict) {
        self.gates.push((name.to_string(), verdict));
    }

    /// The report as pretty-printed JSON: fields in insertion order,
    /// then a `gates` object mapping each gate to its verdict string.
    pub fn to_json(&self) -> String {
        let gates = self
            .gates
            .iter()
            .map(|(name, v)| (name.clone(), v.to_string().into()));
        let mut members = self.fields.clone();
        members.push(("gates".into(), Value::Object(gates.collect())));
        render(&Value::Object(members), 0, false) + "\n"
    }

    /// Writes the report to `path`, then prints one line per gate.
    /// Returns failure if the write failed or any gate is `Fail`.
    pub fn finish(&self, path: &str) -> ExitCode {
        let label = Path::new(path)
            .file_stem()
            .map_or(path.into(), |s| s.to_string_lossy());
        let written = std::fs::write(path, self.to_json());
        match &written {
            Ok(()) => println!("{label}: wrote {path}"),
            Err(e) => eprintln!("{label}: fail: writing {path}: {e}"),
        }
        for (name, verdict) in &self.gates {
            println!("{label}: {name}: {verdict}");
        }
        if written.is_ok()
            && !self
                .gates
                .iter()
                .any(|(_, v)| matches!(v, Verdict::Fail(_)))
        {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// The evidence path of a smoke run: `Some` when the bench was started
/// with `--json`, holding the argument after it or `BENCH_<name>.json`.
/// A relative path is taken from the workspace root, not from the
/// package directory cargo runs a bench in. `None` means plain micro
/// mode.
pub fn json_path(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    json_path_from(&args, name)
}

/// [`json_path`] over the given command line.
fn json_path_from(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == "--json")?;
    let file = args
        .get(i + 1)
        .cloned()
        .unwrap_or_else(|| format!("BENCH_{name}.json"));
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bs-bench sits two directories below the workspace root");
    Some(root.join(file).to_string_lossy().into_owned())
}

/// Renders `v` at nesting depth `indent`. Objects and arrays put one
/// member per line, except that an array of scalars, and an array
/// member whose own members are all scalars (a table row), stay on one
/// line.
fn render(v: &Value, indent: usize, in_list: bool) -> String {
    let (open, close, members): (char, char, Vec<(Option<&str>, &Value)>) = match v {
        Value::Bool(b) => return b.to_string(),
        Value::Int(n) => return n.to_string(),
        Value::Num(x) => return json_number(*x),
        Value::Str(s) => return json_str(s),
        Value::List(items) => ('[', ']', items.iter().map(|m| (None, m)).collect()),
        Value::Object(fields) => (
            '{',
            '}',
            fields.iter().map(|(k, m)| (Some(k.as_str()), m)).collect(),
        ),
    };
    let is_list = open == '[';
    let flat = members
        .iter()
        .all(|(_, m)| !matches!(m, Value::List(_) | Value::Object(_)));
    let items: Vec<String> = members
        .iter()
        .map(|(name, m)| {
            let key = name.map_or(String::new(), |n| json_str(n) + ": ");
            key + &render(m, indent + 1, is_list)
        })
        .collect();
    if items.is_empty() || flat && (in_list || is_list) {
        format!("{open}{}{close}", items.join(", "))
    } else {
        let pad = "  ".repeat(indent);
        format!(
            "{open}\n{pad}  {}\n{pad}{close}",
            items.join(&format!(",\n{pad}  "))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finishes `report` into a file unique to `test` (parallel tests
    /// never share one) and returns the status and the file's text.
    fn finish_to_file(report: &BenchReport, test: &str) -> (ExitCode, String) {
        let file = format!("bs_bench_{}_{test}.json", std::process::id());
        let path = std::env::temp_dir().join(file);
        let status = report.finish(path.to_str().expect("utf-8 temp path"));
        let written = std::fs::read_to_string(&path).expect("report file written");
        std::fs::remove_file(&path).expect("remove scratch file");
        (status, written)
    }

    #[test]
    fn fail_gate_fails_the_run_but_still_writes_the_file() {
        let mut report = BenchReport::new("unit");
        report.gate("holds", Verdict::Pass);
        report.gate("breaks", Verdict::Fail("3 of 10 mismatched".into()));
        let (status, written) = finish_to_file(&report, "fail");
        assert_eq!(status, ExitCode::FAILURE);
        assert!(
            written.contains("\"breaks\": \"fail: 3 of 10 mismatched\""),
            "{written}"
        );
        assert!(written.contains("\"holds\": \"pass\""), "{written}");
    }

    #[test]
    fn skipped_gate_passes_the_run_but_never_serialises_as_a_pass() {
        let mut report = BenchReport::new("unit");
        report.gate(
            "scaling",
            Verdict::Skipped("host has 2 core(s), gate needs 4".into()),
        );
        let (status, written) = finish_to_file(&report, "skipped");
        assert_eq!(status, ExitCode::SUCCESS);
        let gates = &written[written.find("\"gates\"").expect("gates object")..];
        assert!(gates.contains("\"scaling\": \"skipped: host has 2 core(s), gate needs 4\""));
        assert!(
            !gates.contains("pass") && !gates.contains("true"),
            "{gates}"
        );
    }

    #[test]
    fn reasons_and_strings_are_escaped() {
        let mut report = BenchReport::new("unit");
        report.field("note", "a \"quoted\" C:\\path");
        report.gate("g", Verdict::Fail("line one\nsaid \"no\" \\ twice".into()));
        let json = report.to_json();
        assert!(
            json.contains(r#""note": "a \"quoted\" C:\\path""#),
            "{json}"
        );
        assert!(
            json.contains(r#""g": "fail: line one\nsaid \"no\" \\ twice""#),
            "{json}"
        );
    }

    #[test]
    fn fields_keep_insertion_order_before_gates() {
        let mut report = BenchReport::new("unit");
        report.field("zeta", 1u64);
        report.gate("g", Verdict::Pass);
        report.field("alpha", 2u64);
        report.field("mid", crate::object! { "z": 1u64, "a": 2u64 });
        let json = report.to_json();
        let at = |key: &str| json.find(&format!("\"{key}\"")).expect(key);
        let order = [
            "bench",
            "host_cores",
            "zeta",
            "alpha",
            "mid",
            "z",
            "a",
            "gates",
            "g",
        ];
        assert!(order.windows(2).all(|w| at(w[0]) < at(w[1])), "{json}");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut report = BenchReport::new("unit");
        report.field("nan", f64::NAN);
        report.field("inf", f64::NEG_INFINITY);
        report.field("ratio", 1.5);
        let json = report.to_json();
        assert!(
            json.contains("\"nan\": null,\n  \"inf\": null,\n  \"ratio\": 1.5"),
            "{json}"
        );
    }

    #[test]
    fn objects_nest_and_table_rows_stay_on_one_line() {
        let mut report = BenchReport::new("unit");
        report.field("workload", crate::object! { "seed": 7u64 });
        report.field("rows", vec![crate::object! { "jobs": 1u64, "ok": true }]);
        report.field("digests", vec!["00ff", "0aff"]);
        let expected = r#"{
  "bench": "unit",
  "host_cores": CORES,
  "workload": {
    "seed": 7
  },
  "rows": [
    {"jobs": 1, "ok": true}
  ],
  "digests": ["00ff", "0aff"],
  "gates": {}
}
"#;
        assert_eq!(
            report.to_json(),
            expected.replace("CORES", &available_jobs().to_string())
        );
    }

    #[test]
    fn json_paths_resolve_against_the_workspace_root() {
        let line = |args: &[&str]| -> Vec<String> { args.iter().map(|a| a.to_string()).collect() };
        assert_eq!(
            json_path_from(&line(&["fec_micro", "--bench"]), "fec"),
            None
        );
        for (args, file) in [
            (&["fec_micro", "--json"][..], "BENCH_fec.json"),
            (
                &["fec_micro", "--bench", "--json", "BENCH_x.json"][..],
                "BENCH_x.json",
            ),
        ] {
            let path = json_path_from(&line(args), "fec").expect("--json given");
            let path = Path::new(&path);
            assert_eq!(path.file_name().and_then(|f| f.to_str()), Some(file));
            let dir = path.parent().expect("a directory");
            assert!(
                dir.join("Cargo.lock").is_file(),
                "{path:?} is not at the root"
            );
        }
        let absolute = std::env::temp_dir().join("BENCH_fec.json");
        let absolute = absolute.to_str().expect("utf-8 temp path");
        let args = line(&["fec_micro", "--json", absolute]);
        assert_eq!(json_path_from(&args, "fec").as_deref(), Some(absolute));
    }
}
