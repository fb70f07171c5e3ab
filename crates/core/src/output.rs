//! Structured report output: a typed value model with deterministic,
//! dependency-free serializers.
//!
//! Every reproduction artifact (paper tables, figures, sweeps, region
//! checks) is built as a [`Report`] — an ordered list of notes, key/value
//! blocks, [`Table`]s and [`Series`] — and rendered through one of four
//! serializers: canonical JSON ([`Report::to_json`]), RFC-4180-style CSV
//! ([`Report::to_csv`]), aligned text ([`Report::to_text`]) and markdown
//! tables ([`Table::to_markdown`]). The JSON form is the regression
//! currency: CI replays every report and byte-compares it against the
//! committed corpus under `tests/golden/`.
//!
//! # Determinism guarantees (DESIGN.md §6)
//!
//! * **Stable order** — objects serialize their keys in declaration
//!   order, items in insertion order; nothing is hash-ordered.
//! * **Canonical floats** — finite values use Rust's shortest
//!   round-trip `Display` form ([`fmt_f64`]), which is
//!   platform-independent and loses no bits; a report differs only when
//!   a computed number differs.
//! * **Non-finite policy** — JSON has no NaN/Infinity literals, so
//!   non-finite floats serialize as the JSON *strings* `"NaN"`,
//!   `"Infinity"` and `"-Infinity"`; CSV and text use the same spellings
//!   unquoted.
//! * **Escaping** — JSON strings escape `"`, `\` and all control
//!   characters (`\n`/`\r`/`\t` short forms, `\u00XX` otherwise); CSV
//!   fields containing a comma, quote or newline are quoted with internal
//!   quotes doubled.
//!
//! # Examples
//!
//! ```
//! use redeval::output::{Report, Table, Value};
//!
//! let mut table = Table::new("coa", ["design", "coa"]);
//! table.add_row(vec![Value::from("1+2+2+1"), Value::from(0.99707)]);
//! let mut report = Report::new("demo", "Demo report");
//! report.table(table);
//! assert!(report.to_json().contains("\"rows\""));
//! assert!(report.to_csv().contains("1+2+2+1,0.99707"));
//! ```

use std::fmt::Write as _;

/// Identifies the schema of serialized reports (bumped on breaking
/// changes to the JSON/CSV shape).
pub const SCHEMA: &str = "redeval-report/1";

/// Appends [`fmt_f64`]`(x)` to `out` without an intermediate `String`:
/// the bare spelling, unquoted even when `x` is not finite.
pub(crate) fn push_f64(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "Infinity" } else { "-Infinity" });
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Appends `x` to `out` as a JSON value: Rust's shortest round-trip
/// `Display` form when finite, else the JSON *string* `"NaN"`,
/// `"Infinity"` or `"-Infinity"` (JSON has no literals for them).
///
/// # Examples
///
/// ```
/// use redeval::output::push_json_f64;
/// let mut out = String::from("[");
/// push_json_f64(&mut out, 0.99707);
/// out.push_str(", ");
/// push_json_f64(&mut out, f64::NAN);
/// out.push(']');
/// assert_eq!(out, "[0.99707, \"NaN\"]");
/// ```
pub fn push_json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        push_f64(out, x);
    } else {
        out.push('"');
        push_f64(out, x);
        out.push('"');
    }
}

/// Formats a float canonically: shortest round-trip representation for
/// finite values (Rust `Display`), `NaN` / `Infinity` / `-Infinity`
/// otherwise. Every serializer spells floats this way (JSON writers
/// through [`push_json_f64`]).
pub fn fmt_f64(x: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, x);
    out
}

/// Human-oriented float formatting for the text renderer: at most six
/// decimal places, trailing zeros trimmed. (JSON and CSV keep full
/// precision via [`fmt_f64`].)
fn fmt_f64_text(x: f64) -> String {
    if !x.is_finite() {
        return fmt_f64(x);
    }
    let s = format!("{x:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// Appends `s` escaped for a JSON string literal, without the quotes:
/// `"`, `\` and control characters are escaped (`\n`/`\r`/`\t` short
/// forms, `\u00XX` otherwise), and every run between them is copied
/// with one `push_str`. This is the only JSON escaping in the crate.
fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends `s` to `out` as a quoted JSON string (see [`json_escape`] for
/// the escaping rules).
///
/// # Examples
///
/// ```
/// use redeval::output::push_json_str;
/// let mut out = String::new();
/// push_json_str(&mut out, "a\"b\nc");
/// assert_eq!(out, r#""a\"b\nc""#);
/// ```
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Escapes a string for inclusion inside a JSON string literal (without
/// the surrounding quotes): `"`, `\` and all control characters
/// (`\n`/`\r`/`\t` short forms, `\u00XX` otherwise); everything else,
/// non-ASCII included, passes through.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends `value`'s `Display` form to `out` as a quoted JSON string,
/// escaping as it is written (no intermediate `String`).
pub(crate) fn push_json_display(out: &mut String, value: &impl std::fmt::Display) {
    struct Escaping<'a>(&'a mut String);
    impl std::fmt::Write for Escaping<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            push_escaped(self.0, s);
            Ok(())
        }
    }
    out.push('"');
    let _ = write!(Escaping(out), "{value}");
    out.push('"');
}

/// Appends `items` to `out` separated by `", "`, each through `push`.
pub(crate) fn push_joined<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push(out, item);
    }
}

/// Longest run of characters [`snippet`] keeps from an untrusted string.
pub const SNIPPET_MAX: usize = 48;

/// Caps and sanitizes an untrusted string for embedding in an error
/// message: at most [`SNIPPET_MAX`] characters (a trailing `…` marks the
/// cut), with quotes, backslashes and control characters escaped.
///
/// Every error path that quotes user-supplied text back (scenario field
/// values, JSON object keys, patch-policy spellings) must route it
/// through here, so a hostile or oversized input — a megabyte request
/// body, a key full of newlines — can never be echoed at full length or
/// corrupt a log line / structured error body.
///
/// # Examples
///
/// ```
/// use redeval::output::snippet;
/// assert_eq!(snippet("ecommerce"), "ecommerce");
/// assert_eq!(snippet("a\nb"), "a\\nb");
/// assert_eq!(snippet(&"x".repeat(100)), format!("{}…", "x".repeat(48)));
/// ```
pub fn snippet(s: &str) -> String {
    let mut kept: String = s.chars().take(SNIPPET_MAX).collect();
    let truncated = s.chars().nth(SNIPPET_MAX).is_some();
    kept = json_escape(&kept);
    if truncated {
        kept.push('…');
    }
    kept
}

/// The canonical byte string a content-addressed result cache hashes: a
/// compact JSON object `{"kind": KIND, "params": PARAMS, "body": BODY}`
/// where `params` renders through [`Json::to_compact`] and
/// `canonical_body` must already be canonical JSON text (it is embedded
/// verbatim). Two requests produce the same bytes **iff** kind, params
/// and canonical body all agree — the content-address contract of
/// `redeval-server`'s result cache (DESIGN.md §9).
///
/// # Examples
///
/// ```
/// use redeval::output::{cache_key_bytes, Json};
/// let key = cache_key_bytes("eval", &Json::Null, "{\"a\": 1}");
/// assert_eq!(
///     String::from_utf8(key).unwrap(),
///     "{\"kind\": \"eval\", \"params\": null, \"body\": {\"a\": 1}}"
/// );
/// ```
pub fn cache_key_bytes(kind: &str, params: &Json, canonical_body: &str) -> Vec<u8> {
    let mut out = String::with_capacity(canonical_body.len() + 64);
    out.push_str("{\"kind\": ");
    push_json_str(&mut out, kind);
    out.push_str(", \"params\": ");
    params.push_compact(&mut out);
    out.push_str(", \"body\": ");
    out.push_str(canonical_body);
    out.push('}');
    out.into_bytes()
}

/// Quotes a CSV field when needed (contains comma, quote, CR or LF),
/// doubling internal quotes; returns other fields unchanged.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// One scalar cell of a [`Table`] or key/value block.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / not applicable.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (counts, indices).
    Int(i64),
    /// Float, serialized canonically (see [`fmt_f64`]).
    Num(f64),
    /// String.
    Str(String),
}

impl Value {
    /// Appends this value's JSON fragment (no surrounding whitespace).
    fn push_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(x) => push_json_f64(out, *x),
            Value::Str(s) => push_json_str(out, s),
        }
    }

    /// CSV field for this value (already quoted where required).
    fn to_csv(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Num(x) => fmt_f64(*x),
            Value::Str(s) => csv_field(s),
        }
    }

    /// Text-renderer form (floats shortened for readability).
    fn to_text(&self) -> String {
        match self {
            Value::Null => "-".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Num(x) => fmt_f64_text(*x),
            Value::Str(s) => s.clone(),
        }
    }

    /// Whether the text renderer right-aligns this value.
    fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Num(_))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i64::try_from(i).expect("count fits in i64"))
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// A named, rectangular table: the workhorse of every report.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Machine-oriented table name (unique within a report).
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; every row has exactly `columns.len()` cells.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table with the given name and column headers.
    pub fn new<C: Into<String>>(
        name: impl Into<String>,
        columns: impl IntoIterator<Item = C>,
    ) -> Self {
        Table {
            name: name.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count does not match the column count — a
    /// report-construction bug, not an input condition.
    pub fn add_row(&mut self, cells: Vec<Value>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "table `{}`: row arity {} != {} columns",
            self.name,
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// CSV rendering: a header row then one line per row, `\n`-terminated.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| csv_field(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(Value::to_csv).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Aligned-text rendering: numeric columns right-aligned, the rest
    /// left-aligned, two spaces between columns.
    pub fn to_text(&self) -> String {
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_text).collect())
            .collect();
        let numeric: Vec<bool> = (0..self.columns.len())
            .map(|c| {
                !self.rows.is_empty()
                    && self
                        .rows
                        .iter()
                        .all(|r| r[c].is_numeric() || r[c] == Value::Null)
            })
            .collect();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| {
                cells
                    .iter()
                    .map(|r| r[c].chars().count())
                    .chain(std::iter::once(self.columns[c].chars().count()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        let render = |out: &mut String, fields: &[String]| {
            let mut line = String::new();
            for (c, f) in fields.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                let pad = " ".repeat(widths[c].saturating_sub(f.chars().count()));
                if numeric[c] {
                    line.push_str(&pad);
                    line.push_str(f);
                } else {
                    line.push_str(f);
                    if c + 1 < fields.len() {
                        line.push_str(&pad);
                    }
                }
            }
            out.push_str(line.trim_end());
            out.push('\n');
        };
        render(&mut out, &self.columns);
        for row in &cells {
            render(&mut out, row);
        }
        out
    }

    /// Markdown rendering: a pipe table with numeric columns
    /// right-aligned (`---:`).
    pub fn to_markdown(&self) -> String {
        let numeric: Vec<bool> = (0..self.columns.len())
            .map(|c| {
                !self.rows.is_empty()
                    && self
                        .rows
                        .iter()
                        .all(|r| r[c].is_numeric() || r[c] == Value::Null)
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            numeric
                .iter()
                .map(|&n| if n { "---:" } else { "---" })
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "| {} |",
                row.iter()
                    .map(Value::to_text)
                    .collect::<Vec<_>>()
                    .join(" | ")
            );
        }
        out
    }
}

/// A named numeric series over a labelled index — sweep results, radar
/// axes, transients.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Machine-oriented series name (unique within a report).
    pub name: String,
    /// Index labels, one per value.
    pub index: Vec<String>,
    /// The values.
    pub values: Vec<f64>,
}

impl Series {
    /// A series from parallel index/value lists.
    ///
    /// # Panics
    ///
    /// Panics when the lists disagree in length.
    pub fn new(name: impl Into<String>, index: Vec<String>, values: Vec<f64>) -> Self {
        assert_eq!(index.len(), values.len(), "series index/value mismatch");
        Series {
            name: name.into(),
            index,
            values,
        }
    }
}

/// One element of a [`Report`], kept in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// Free-text commentary (one paragraph).
    Note(String),
    /// Ordered key/value facts.
    Keys(Vec<(String, Value)>),
    /// A table.
    Table(Table),
    /// A numeric series.
    Series(Series),
}

/// A complete reproduction artifact: title, status flag and an ordered
/// list of [`Item`]s, serializable as JSON, CSV or text.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Machine name — the CLI subcommand and golden-file stem.
    pub name: String,
    /// Human title.
    pub title: String,
    /// Whether every embedded consistency check passed (e.g. the region
    /// analyses matching the paper). Serialized, so a regression flips
    /// the golden even if no number is printed.
    pub ok: bool,
    /// The content, in insertion order.
    pub items: Vec<Item>,
}

impl Report {
    /// An empty, `ok` report.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            name: name.into(),
            title: title.into(),
            ok: true,
            items: Vec::new(),
        }
    }

    /// Appends a note paragraph.
    pub fn note(&mut self, text: impl Into<String>) {
        self.items.push(Item::Note(text.into()));
    }

    /// Appends an ordered key/value block.
    pub fn keys<K: Into<String>, V: Into<Value>>(
        &mut self,
        entries: impl IntoIterator<Item = (K, V)>,
    ) {
        self.items.push(Item::Keys(
            entries
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        ));
    }

    /// Appends a table.
    pub fn table(&mut self, table: Table) {
        self.items.push(Item::Table(table));
    }

    /// Appends a series.
    pub fn series(&mut self, series: Series) {
        self.items.push(Item::Series(series));
    }

    /// Records a consistency-check outcome: the report stays `ok` only
    /// while every check passes.
    pub fn check(&mut self, passed: bool) {
        self.ok &= passed;
    }

    /// Canonical JSON: two-space indent, one table row per line, keys in
    /// declaration order. Byte-identical across runs and thread counts
    /// for deterministic report builders (the golden-corpus contract).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": ");
        push_json_str(&mut out, SCHEMA);
        out.push_str(",\n  \"report\": ");
        push_json_str(&mut out, &self.name);
        out.push_str(",\n  \"title\": ");
        push_json_str(&mut out, &self.title);
        out.push_str(if self.ok {
            ",\n  \"ok\": true,\n  \"items\": ["
        } else {
            ",\n  \"ok\": false,\n  \"items\": ["
        });
        for (i, item) in self.items.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            match item {
                Item::Note(text) => {
                    out.push_str("{\"kind\": \"note\", \"text\": ");
                    push_json_str(&mut out, text);
                    out.push('}');
                }
                Item::Keys(entries) => {
                    out.push_str("{\"kind\": \"keys\", \"entries\": {");
                    push_joined(&mut out, entries, |out, (k, v)| {
                        push_json_str(out, k);
                        out.push_str(": ");
                        v.push_json(out);
                    });
                    out.push_str("}}");
                }
                Item::Table(t) => {
                    out.push_str("{\"kind\": \"table\", \"name\": ");
                    push_json_str(&mut out, &t.name);
                    out.push_str(", \"columns\": [");
                    push_joined(&mut out, &t.columns, |out, c| push_json_str(out, c));
                    out.push_str("], \"rows\": [");
                    for (j, row) in t.rows.iter().enumerate() {
                        out.push_str(if j == 0 { "\n      [" } else { ",\n      [" });
                        push_joined(&mut out, row, |out, v| v.push_json(out));
                        out.push(']');
                    }
                    out.push_str(if t.rows.is_empty() { "]}" } else { "\n    ]}" });
                }
                Item::Series(s) => {
                    out.push_str("{\"kind\": \"series\", \"name\": ");
                    push_json_str(&mut out, &s.name);
                    out.push_str(", \"index\": [");
                    push_joined(&mut out, &s.index, |out, l| push_json_str(out, l));
                    out.push_str("], \"values\": [");
                    push_joined(&mut out, &s.values, |out, &v| push_json_f64(out, v));
                    out.push_str("]}");
                }
            }
        }
        out.push_str(if self.items.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }

    /// CSV rendering: data items (tables and series) as CSV blocks
    /// separated by blank lines, each preceded by `# <kind>,<name>`
    /// comment lines; notes and keys become `#`-prefixed comment rows so
    /// the data keeps full context.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {},{}", SCHEMA, csv_field(&self.name));
        let _ = writeln!(out, "# title,{}", csv_field(&self.title));
        let _ = writeln!(out, "# ok,{}", self.ok);
        for item in &self.items {
            match item {
                Item::Note(text) => {
                    let _ = writeln!(out, "# note,{}", csv_field(&text.replace('\n', " ")));
                }
                Item::Keys(entries) => {
                    for (k, v) in entries {
                        let _ = writeln!(out, "# key,{},{}", csv_field(k), v.to_csv());
                    }
                }
                Item::Table(t) => {
                    out.push('\n');
                    let _ = writeln!(out, "# table,{}", csv_field(&t.name));
                    out.push_str(&t.to_csv());
                }
                Item::Series(s) => {
                    out.push('\n');
                    let _ = writeln!(out, "# series,{}", csv_field(&s.name));
                    out.push_str("index,value\n");
                    for (l, v) in s.index.iter().zip(&s.values) {
                        let _ = writeln!(out, "{},{}", csv_field(l), fmt_f64(*v));
                    }
                }
            }
        }
        out
    }

    /// Human-oriented text rendering (what `redeval` prints by default).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== {} ====", self.title);
        for item in &self.items {
            out.push('\n');
            match item {
                Item::Note(text) => {
                    let _ = writeln!(out, "{text}");
                }
                Item::Keys(entries) => {
                    let width = entries
                        .iter()
                        .map(|(k, _)| k.chars().count())
                        .max()
                        .unwrap_or(0);
                    for (k, v) in entries {
                        let _ = writeln!(out, "{k:<width$}  {}", v.to_text());
                    }
                }
                Item::Table(t) => {
                    let _ = writeln!(out, "-- {} --", t.name);
                    out.push_str(&t.to_text());
                }
                Item::Series(s) => {
                    let _ = writeln!(out, "-- {} --", s.name);
                    let width = s.index.iter().map(|l| l.chars().count()).max().unwrap_or(0);
                    for (l, v) in s.index.iter().zip(&s.values) {
                        let _ = writeln!(out, "{l:<width$}  {}", fmt_f64_text(*v));
                    }
                }
            }
        }
        if !self.ok {
            out.push('\n');
            out.push_str("CONSISTENCY CHECK FAILED — see the report above.\n");
        }
        out
    }
}

/// A parsed JSON value — the read-side counterpart of the canonical
/// serializers above.
///
/// Objects keep their keys in **document order** (no hash maps), so a
/// value parsed from canonical output and re-serialized canonically is
/// byte-identical; this is what makes `parse ∘ serialize` round-trips
/// testable at the byte level. Numbers are `f64` (JSON's only numeric
/// type); [`parse_json`] uses Rust's grisu-exact `str::parse::<f64>`,
/// which is the exact inverse of [`fmt_f64`]'s shortest-round-trip form,
/// so no bits are lost in either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys in document order, duplicates rejected at parse.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Looks a key up in an object (first match; duplicates cannot occur
    /// in parsed values).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact (single-line) canonical rendering: keys in stored order,
    /// numbers via [`push_json_f64`], strings via [`push_json_str`].
    /// Non-finite numbers become the usual policy strings, mirroring the
    /// report serializer.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.push_compact(&mut out);
        out
    }

    /// Appends the [`to_compact`](Self::to_compact) rendering to `out`.
    fn push_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => push_json_f64(out, *x),
            Json::Str(s) => push_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                push_joined(out, items, |out, item| item.push_compact(out));
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                push_joined(out, entries, |out, (k, v)| {
                    push_json_str(out, k);
                    out.push_str(": ");
                    v.push_compact(out);
                });
                out.push('}');
            }
        }
    }
}

/// A JSON syntax error with its 1-based source position.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting [`parse_json`] accepts. Recursive descent
/// uses the call stack, so hostile input (`[[[[…`) must hit a parse
/// error long before it can hit a stack overflow; 128 levels is far
/// beyond any legitimate report or scenario document.
pub const JSON_MAX_DEPTH: usize = 128;

/// Parses a complete JSON document into a [`Json`] value.
///
/// Strict RFC-8259 syntax plus three deliberate properties:
///
/// * object keys stay in document order and **duplicate keys are an
///   error** (silent last-wins would make round-trip equality lie);
/// * exactly one top-level value; trailing non-whitespace is an error;
/// * container nesting is capped at [`JSON_MAX_DEPTH`], so adversarial
///   input fails with a [`JsonError`] instead of exhausting the stack.
///
/// # Errors
///
/// Returns a [`JsonError`] with 1-based line/column on malformed input.
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut p = JsonParser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after the top-level value"));
    }
    Ok(value)
}

struct JsonParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting, capped at [`JSON_MAX_DEPTH`].
    depth: usize,
}

impl JsonParser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else if (b & 0xC0) != 0x80 {
                // Count characters, not bytes: UTF-8 continuation bytes
                // are zero-width, so the column matches what an editor
                // shows even after non-ASCII text (titles with dashes,
                // accented names, …).
                col += 1;
            }
        }
        JsonError {
            line,
            col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs a container parser one nesting level deeper, erroring out at
    /// [`JSON_MAX_DEPTH`] before the call stack can overflow.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth >= JSON_MAX_DEPTH {
            return Err(self.err(format!(
                "containers nested deeper than {JSON_MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{}`", snippet(&key))));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece. All three are ASCII, so the run ends on
            // a char boundary of the (valid UTF-8) input.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    return Err(self.err("unescaped control character in string"));
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (and a following low surrogate
    /// pair when needed); leaves `pos` after the last consumed digit + 1.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hex4 = |p: &mut Self| -> Result<u32, JsonError> {
            let end = p.pos + 4;
            if end > p.bytes.len() {
                return Err(p.err("truncated \\u escape"));
            }
            // Exactly 4HEXDIG (RFC 8259): check byte-wise rather than via
            // from_str_radix, which would also accept a leading `+`.
            let mut v: u32 = 0;
            for &b in &p.bytes[p.pos..end] {
                let digit = (b as char)
                    .to_digit(16)
                    .ok_or_else(|| p.err("invalid \\u escape"))?;
                v = (v << 4) | digit;
            }
            p.pos = end;
            Ok(v)
        };
        let hi = hex4(self)?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = hex4(self)?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            } else {
                return Err(self.err("unpaired high surrogate"));
            }
        } else if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode scalar"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a non-zero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        // `str::parse::<f64>` saturates overflowing literals (1e999) to
        // infinity instead of failing; reject those explicitly so the
        // value model stays finite-canonical (non-finite numbers only
        // ever *serialize*, as policy strings).
        let x: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !x.is_finite() {
            return Err(self.err("number out of range for a finite f64"));
        }
        Ok(Json::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting_is_canonical() {
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(1.0), "1");
        assert_eq!(fmt_f64(-0.0), "-0");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(f64::INFINITY), "Infinity");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Infinity");
        // Shortest round-trip: parsing the output recovers the bits.
        for x in [0.99707, 1.0 / 3.0, 6.02e23, 5e-324] {
            assert_eq!(fmt_f64(x).parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("é ∑"), "é ∑"); // non-ASCII passes through
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn non_finite_floats_serialize_as_strings_in_json() {
        let mut t = Table::new("t", ["x"]);
        t.add_row(vec![Value::from(f64::NAN)]);
        t.add_row(vec![Value::from(f64::INFINITY)]);
        let mut r = Report::new("n", "non-finite");
        r.table(t);
        let json = r.to_json();
        assert!(json.contains("[\"NaN\"]"));
        assert!(json.contains("[\"Infinity\"]"));
        // The output stays machine-parseable: balanced quotes, no bare NaN.
        assert!(!json.contains(": NaN"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", ["a", "b"]);
        t.add_row(vec![Value::from(1)]);
    }

    #[test]
    fn json_shape_and_key_order() {
        let mut r = Report::new("demo", "Demo");
        r.keys([("threads", Value::from(2)), ("label", Value::from("x,y"))]);
        let mut t = Table::new("data", ["design", "coa"]);
        t.add_row(vec![Value::from("a"), Value::from(0.5)]);
        r.table(t);
        r.series(Series::new("s", vec!["p".into()], vec![1.5]));
        r.note("done");
        let json = r.to_json();
        let schema_at = json.find("\"schema\"").unwrap();
        let report_at = json.find("\"report\"").unwrap();
        let items_at = json.find("\"items\"").unwrap();
        assert!(schema_at < report_at && report_at < items_at);
        assert!(json.contains("\"entries\": {\"threads\": 2, \"label\": \"x,y\"}"));
        assert!(json.contains("\"columns\": [\"design\", \"coa\"]"));
        assert!(json.contains("[\"a\", 0.5]"));
        assert!(json.contains("\"values\": [1.5]"));
        assert!(json.contains("{\"kind\": \"note\", \"text\": \"done\"}"));
        // Serialization is a pure function of the value.
        assert_eq!(json, r.to_json());
    }

    #[test]
    fn csv_blocks_carry_tables_and_series() {
        let mut r = Report::new("demo", "Demo, with comma");
        let mut t = Table::new("data", ["design", "coa"]);
        t.add_row(vec![Value::from("a,b"), Value::from(0.25)]);
        r.table(t);
        r.series(Series::new("s", vec!["p0".into()], vec![2.0]));
        let csv = r.to_csv();
        assert!(csv.starts_with(&format!("# {SCHEMA},demo\n")));
        assert!(csv.contains("# title,\"Demo, with comma\""));
        assert!(csv.contains("# table,data\ndesign,coa\n\"a,b\",0.25\n"));
        assert!(csv.contains("# series,s\nindex,value\np0,2\n"));
    }

    #[test]
    fn text_aligns_numeric_columns_right() {
        let mut t = Table::new("t", ["name", "n"]);
        t.add_row(vec![Value::from("a"), Value::from(7)]);
        t.add_row(vec![Value::from("bbbb"), Value::from(123)]);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "a       7");
        assert_eq!(lines[2], "bbbb  123");
    }

    #[test]
    fn markdown_marks_numeric_columns() {
        let mut t = Table::new("t", ["name", "n"]);
        t.add_row(vec![Value::from("a"), Value::from(1.25)]);
        let md = t.to_markdown();
        assert!(md.contains("| name | n |"));
        assert!(md.contains("|---|---:|"));
        assert!(md.contains("| a | 1.25 |"));
    }

    #[test]
    fn failed_check_flips_ok_and_text_flags_it() {
        let mut r = Report::new("r", "R");
        r.check(true);
        assert!(r.ok);
        r.check(false);
        r.check(true); // a later pass cannot un-fail the report
        assert!(!r.ok);
        assert!(r.to_json().contains("\"ok\": false"));
        assert!(r.to_text().contains("CONSISTENCY CHECK FAILED"));
    }

    #[test]
    fn empty_report_serializes() {
        let r = Report::new("e", "Empty");
        assert!(r.to_json().ends_with("\"items\": []\n}\n"));
        assert_eq!(r.to_text(), "==== Empty ====\n");
    }

    #[test]
    fn parser_accepts_scalars_and_containers() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("false").unwrap(), Json::Bool(false));
        assert_eq!(parse_json("\"hi\"").unwrap(), Json::Str("hi".into()));
        assert_eq!(parse_json("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse_json("-0.5e2").unwrap(), Json::Num(-50.0));
        assert_eq!(
            parse_json("[1, [2], {}]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj(vec![]),
            ])
        );
        let obj = parse_json("{\"a\": 1, \"b\": [true, null]}").unwrap();
        assert_eq!(obj.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            obj.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(obj.get("c").is_none());
    }

    #[test]
    fn parser_decodes_escapes_and_unicode() {
        assert_eq!(
            parse_json(r#""a\"b\\c\n\tA""#).unwrap(),
            Json::Str("a\"b\\c\n\tA".into())
        );
        // Surrogate pair (😀) and raw non-ASCII pass through.
        assert_eq!(parse_json(r#""😀 é""#).unwrap(), Json::Str("😀 é".into()));
        assert!(parse_json(r#""\ud83d""#).is_err()); // unpaired high
        assert!(parse_json(r#""\udc00""#).is_err()); // unpaired low
        assert!(parse_json("\"a\nb\"").is_err()); // raw control char
                                                  // Exactly 4HEXDIG: from_str_radix-style signs are not hex digits.
        assert!(parse_json(r#""\u+041""#).is_err());
        assert!(parse_json(r#""\u 041""#).is_err());
        assert!(parse_json(r#""\ud83d\u+e00""#).is_err()); // low half too
        assert_eq!(parse_json(r#""A""#).unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn parser_rejects_malformed_documents_with_positions() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "01",
            "1.",
            "1e",
            "--1",
            "[1] extra",
            "{\"a\":1,\"a\":2}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        let e = parse_json("{\n  \"a\": ?\n}").unwrap_err();
        assert_eq!((e.line, e.col), (2, 8));
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn parser_copies_runs_around_escapes_and_multibyte_text() {
        // Multi-byte UTF-8 directly before and after every kind of stop:
        // `\"`, `\\`, `\u` (BMP and surrogate pair), short escapes and
        // the closing quote.
        for (text, want) in [
            (r#""é\"ü""#, "é\"ü"),
            (r#""😀\\∑""#, "😀\\∑"),
            (r#""∑\u00e9😀""#, "∑é😀"),
            (r#""é\ud83d\ude00ü""#, "é😀ü"),
            (r#""\"é\\""#, "\"é\\"),
            (r#""😀\n∑\/é""#, "😀\n∑/é"),
            (r#""é""#, "é"),
            (r#""""#, ""),
        ] {
            assert_eq!(parse_json(text).unwrap(), Json::Str(want.into()), "{text}");
        }
    }

    #[test]
    fn parser_rejects_every_raw_control_byte_at_its_position() {
        for b in 0u8..0x20 {
            let c = char::from(b);
            let e = parse_json(&format!("{{\"é\": \"ab{c}cd\"}}")).unwrap_err();
            assert_eq!(
                (e.line, e.col, e.message.as_str()),
                (1, 10, "unescaped control character in string"),
                "byte {b:#04x}"
            );
            let e = parse_json(&format!("[\n  \"∑{c}\"]")).unwrap_err();
            assert_eq!(
                (e.line, e.col, e.message.as_str()),
                (2, 5, "unescaped control character in string"),
                "byte {b:#04x}"
            );
        }
    }

    #[test]
    fn parser_round_trips_a_megabyte_string_without_escapes() {
        let unit = "redundancy é∑😀 ";
        let big = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(big.len() >= 1 << 20);
        let text = format!("\"{big}\"");
        assert_eq!(parse_json(&text).unwrap(), Json::Str(big.clone()));
        assert_eq!(Json::Str(big).to_compact(), text);
    }

    #[test]
    fn parser_still_rejects_duplicate_keys_after_the_key() {
        let e = parse_json("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert_eq!(
            (e.line, e.col, e.message.as_str()),
            (1, 13, "duplicate key `a`")
        );
    }

    #[test]
    fn parser_preserves_object_key_order() {
        let obj = parse_json("{\"z\": 1, \"a\": 2, \"m\": 3}").unwrap();
        let keys: Vec<&str> = obj
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn parser_bounds_nesting_depth_instead_of_overflowing_the_stack() {
        // Hostile nesting must produce a JsonError, never a stack
        // overflow (which aborts the whole process).
        let deep_ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&deep_ok).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(200_000), "]".repeat(200_000));
        let e = parse_json(&too_deep).unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
        // Mixed containers count the same.
        let mixed = "{\"a\": ".repeat(JSON_MAX_DEPTH + 1);
        assert!(parse_json(&mixed).unwrap_err().message.contains("nested"));
        // Depth resets between siblings: wide is fine.
        let wide = format!("[{}1]", "[1], ".repeat(10_000));
        assert!(parse_json(&wide).is_ok());
    }

    #[test]
    fn parser_rejects_overflowing_number_literals() {
        // `str::parse::<f64>` saturates 1e999 to infinity; the value
        // model is finite-canonical, so that must be a parse error, not
        // a silent Json::Num(inf).
        for bad in ["1e999", "-1e999", "123456789e999999"] {
            let e = parse_json(bad).unwrap_err();
            assert!(e.message.contains("out of range"), "{bad}: {e}");
        }
        // Subnormal underflow to zero is fine (still finite).
        assert_eq!(parse_json("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn parser_error_columns_count_characters_not_bytes() {
        // 'é' is two bytes but one column; the reported position must
        // match what an editor shows.
        let e = parse_json("{\"é\": ?}").unwrap_err();
        assert_eq!((e.line, e.col), (1, 7));
        // Same shape with an ASCII key lands on the same column.
        let a = parse_json("{\"e\": ?}").unwrap_err();
        assert_eq!(a.col, e.col);
    }

    #[test]
    fn parser_numbers_are_bit_exact_inverse_of_fmt_f64() {
        for x in [0.99707, 1.0 / 3.0, 6.02e23, 5e-324, -0.0, 720.0] {
            let parsed = parse_json(&fmt_f64(x)).unwrap();
            assert_eq!(parsed.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn parser_round_trips_report_json() {
        // The parser must accept everything the canonical serializer
        // emits, and compact re-serialization must round-trip again.
        let mut r = Report::new("demo", "Demo \"quoted\", with comma");
        r.keys([("threads", Value::from(2)), ("label", Value::from("x,y"))]);
        let mut t = Table::new("data", ["design", "coa"]);
        t.add_row(vec![Value::from("a"), Value::from(0.99707)]);
        t.add_row(vec![Value::Null, Value::from(f64::NAN)]);
        r.table(t);
        r.series(Series::new("s", vec!["p".into()], vec![1.5]));
        let parsed = parse_json(&r.to_json()).unwrap();
        assert_eq!(parsed.get("report").and_then(Json::as_str), Some("demo"));
        let again = parse_json(&parsed.to_compact()).unwrap();
        assert_eq!(parsed, again);
    }

    #[test]
    fn snippet_caps_escapes_and_passes_short_strings_through() {
        assert_eq!(snippet(""), "");
        assert_eq!(snippet("tiers[2].count"), "tiers[2].count");
        assert_eq!(snippet("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        // Exactly SNIPPET_MAX chars: kept whole, no ellipsis.
        let exact = "y".repeat(SNIPPET_MAX);
        assert_eq!(snippet(&exact), exact);
        // One char over: capped with a visible cut marker.
        let over = "y".repeat(SNIPPET_MAX + 1);
        assert_eq!(snippet(&over), format!("{exact}…"));
        // A hostile megabyte collapses to a bounded message fragment.
        let huge = "Z".repeat(1 << 20);
        assert!(snippet(&huge).chars().count() <= SNIPPET_MAX + 1);
        // Character-based, not byte-based: multi-byte input never splits.
        let accents = "é".repeat(SNIPPET_MAX + 5);
        assert_eq!(snippet(&accents), format!("{}…", "é".repeat(SNIPPET_MAX)));
    }

    #[test]
    fn duplicate_key_errors_cap_the_echoed_key() {
        let key = "k".repeat(5000);
        let doc = format!("{{\"{key}\": 1, \"{key}\": 2}}");
        let e = parse_json(&doc).unwrap_err();
        assert!(e.message.contains("duplicate key"));
        assert!(e.message.len() < 200, "echoed {} bytes", e.message.len());
        assert!(e.message.contains('…'));
    }

    #[test]
    fn cache_key_bytes_separate_kind_params_and_body() {
        let params = Json::Obj(vec![("max_redundancy".into(), Json::Num(3.0))]);
        let a = cache_key_bytes("sweep", &params, "{\"x\": 1}");
        let b = cache_key_bytes("eval", &params, "{\"x\": 1}");
        let c = cache_key_bytes("sweep", &Json::Null, "{\"x\": 1}");
        let d = cache_key_bytes("sweep", &params, "{\"x\": 2}");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Same inputs, same bytes — the function is pure.
        assert_eq!(a, cache_key_bytes("sweep", &params, "{\"x\": 1}"));
    }

    #[test]
    fn compact_rendering_is_canonical() {
        let v = Json::Obj(vec![
            ("b".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("a".into(), Json::Str("x\"y".into())),
        ]);
        assert_eq!(v.to_compact(), "{\"b\": [1, null], \"a\": \"x\\\"y\"}");
    }
}
