//! Plain-text table rendering with paper-vs-simulated comparison support.

use obs::json;

/// A rendered experiment result: title, column headers, string cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id, e.g. "T3" or "F4".
    pub id: String,
    /// Human title, e.g. "Single node HPCG performance".
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row as long as `headers`).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (shape checks, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Render as a GitHub-flavoured markdown table (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out.push('\n');
        for n in &self.notes {
            out.push_str(&format!("*{n}*\n\n"));
        }
        out
    }
}

fn json_str_array(items: &[String], indent: &str) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let body = items
        .iter()
        .map(|s| format!("{indent}  \"{}\"", json::escape(s)))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{body}\n{indent}]")
}

impl Table {
    /// Serialise the table to pretty-printed JSON with a stable key order.
    ///
    /// This is the table serialisation seam: the `conform` crate snapshots
    /// every experiment table through it and diffs reruns against the
    /// versioned goldens. `extra` key/value pairs (already-rendered JSON values) are
    /// appended verbatim after the table fields — the conformance harness
    /// uses this to embed per-column tolerance bands in the golden files.
    pub fn to_json(&self, extra: &[(&str, String)]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"id\": \"{}\",\n", json::escape(&self.id)));
        out.push_str(&format!(
            "  \"title\": \"{}\",\n",
            json::escape(&self.title)
        ));
        out.push_str(&format!(
            "  \"headers\": {},\n",
            json_str_array(&self.headers, "  ")
        ));
        let rows = if self.rows.is_empty() {
            "[]".to_string()
        } else {
            let body = self
                .rows
                .iter()
                .map(|r| format!("    {}", json_str_array(r, "    ")))
                .collect::<Vec<_>>()
                .join(",\n");
            format!("[\n{body}\n  ]")
        };
        out.push_str(&format!("  \"rows\": {rows},\n"));
        out.push_str(&format!(
            "  \"notes\": {}",
            json_str_array(&self.notes, "  ")
        ));
        for (k, v) in extra {
            out.push_str(&format!(",\n  \"{}\": {v}", json::escape(k)));
        }
        out.push_str("\n}\n");
        out
    }
}

/// Format a (paper, simulated) pair with their ratio, e.g. `38.26 / 36.90
/// (0.96x)`.
pub fn pair(paper: f64, simulated: f64) -> String {
    if paper == 0.0 {
        return format!("- / {simulated:.2}");
    }
    format!("{paper:.2} / {simulated:.2} ({:.2}x)", simulated / paper)
}

/// Format seconds adaptively.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T0", "demo", &["sys", "value"]);
        t.push_row(vec!["A64FX".into(), "38.26".into()]);
        t.push_row(vec!["ARCHER".into(), "15.65".into()]);
        t.note("shape holds");
        let s = t.render();
        assert!(s.contains("A64FX"));
        assert!(s.contains("note: shape holds"));
        // Both value cells end at the same column.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn markdown_has_separator() {
        let mut t = Table::new("T1", "x", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.render_markdown();
        assert!(md.contains("|---|---|"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new("T1", "x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn pair_formats_ratio() {
        let p = pair(10.0, 12.0);
        assert!(p.contains("1.20x"), "{p}");
        assert!(pair(0.0, 5.0).starts_with("- /"));
    }

    #[test]
    fn to_json_round_trips_structure_and_escapes() {
        let mut t = Table::new("T3", "quote \" and \\ back", &["sys", "val"]);
        t.push_row(vec!["A64FX".into(), "38.26 / 36.90 (0.96x)".into()]);
        t.note("line\nbreak");
        let j = t.to_json(&[("tolerance", "{\"default\": 0.02}".to_string())]);
        assert!(j.contains("\"id\": \"T3\""));
        assert!(j.contains("quote \\\" and \\\\ back"));
        assert!(j.contains("line\\nbreak"));
        assert!(j.contains("\"tolerance\": {\"default\": 0.02}"));
        // Each structural key appears exactly once.
        for key in ["\"headers\"", "\"rows\"", "\"notes\""] {
            assert_eq!(j.matches(key).count(), 1, "{key}");
        }
    }

    #[test]
    fn secs_adapts() {
        assert_eq!(secs(1234.5), "1234");
        assert_eq!(secs(3.456), "3.46");
        assert_eq!(secs(0.069), "0.069");
    }
}
