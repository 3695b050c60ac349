//! Golden snapshots of every paper table with per-metric tolerance bands.
//!
//! Each experiment table `core::experiments` emits is versioned as a JSON
//! file under `crates/conform/goldens/`. A conformance run regenerates the
//! tables and diffs them cell by cell against the snapshots: text must
//! match exactly, numbers must stay inside the column's tolerance band
//! (which is written into the golden file itself, so the bands are
//! reviewed with the snapshot they govern). The one sanctioned way to move
//! a golden is `cargo run -p conform -- --bless` plus a human reading the
//! resulting diff in review.

use crate::json::{self, Value};
use a64fx_core::experiments;
use a64fx_core::Table;
use std::path::{Path, PathBuf};

/// Directory holding the golden snapshot files.
pub fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// The relative tolerance band of each column of a table.
///
/// Spec tables (T1 node specs, T2 toolchains, T8 rank counts) are pure
/// configuration and must match exactly. For measurement tables the first
/// column is the row label (system, core count, node count) and must match
/// exactly; every metric column gets a 2% relative band — wide enough for
/// benign model recalibration, far tighter than any real drift in the
/// paper comparison (the `pair` cells carry paper/simulated/ratio, so a
/// drifting simulation moves two of the three numbers).
pub fn column_tolerances(t: &Table) -> Vec<f64> {
    const METRIC_REL_TOL: f64 = 0.02;
    let exact_table = matches!(t.id.to_ascii_lowercase().as_str(), "t1" | "t2" | "t8");
    t.headers
        .iter()
        .enumerate()
        .map(|(i, _)| {
            if exact_table || i == 0 {
                0.0
            } else {
                METRIC_REL_TOL
            }
        })
        .collect()
}

/// Serialise a table plus its tolerance bands as a golden document.
pub fn golden_json(t: &Table) -> String {
    let tols = column_tolerances(t)
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(", ");
    t.to_json(&[(
        "tolerance",
        format!("{{\"kind\": \"relative\", \"columns\": [{tols}]}}"),
    )])
}

/// Split a rendered cell into a skeleton (numbers replaced by `#`) and the
/// numeric tokens, in order. `"38.26 / 36.90 (0.96x)"` becomes
/// `("# / # (#x)", [38.26, 36.90, 0.96])`.
pub fn split_cell(s: &str) -> (String, Vec<f64>) {
    let b = s.as_bytes();
    let mut skeleton = String::new();
    let mut numbers = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        let starts_number = c.is_ascii_digit()
            || (c == b'-'
                && b.get(i + 1).is_some_and(u8::is_ascii_digit)
                && (i == 0 || !b[i - 1].is_ascii_alphanumeric()));
        if starts_number {
            let start = i;
            if c == b'-' {
                i += 1;
            }
            let mut seen_dot = false;
            while i < b.len() && (b[i].is_ascii_digit() || (b[i] == b'.' && !seen_dot)) {
                seen_dot |= b[i] == b'.';
                i += 1;
            }
            // A trailing '.' is punctuation, not part of the number.
            if b[i - 1] == b'.' {
                i -= 1;
            }
            let tok = &s[start..i];
            numbers.push(tok.parse::<f64>().expect("lexed token parses"));
            skeleton.push('#');
        } else {
            // Copy one UTF-8 scalar.
            let ch = s[i..].chars().next().unwrap();
            skeleton.push(ch);
            i += ch.len_utf8();
        }
    }
    (skeleton, numbers)
}

fn push_diff(diffs: &mut Vec<String>, id: &str, what: &str) {
    diffs.push(format!("{id}: {what}"));
}

/// Diff one regenerated table against its parsed golden document. Returns
/// human-readable mismatch lines (empty when conformant).
pub fn compare_table(current: &Table, golden: &Value) -> Vec<String> {
    let mut diffs = Vec::new();
    let id = &current.id;
    let g_str = |key: &str| -> Option<&str> { golden.get(key)?.as_str() };
    if g_str("id") != Some(id.as_str()) {
        push_diff(
            &mut diffs,
            id,
            &format!("golden id is {:?}", g_str("id").unwrap_or("<missing>")),
        );
        return diffs;
    }
    if g_str("title") != Some(current.title.as_str()) {
        push_diff(
            &mut diffs,
            id,
            &format!(
                "title changed\n  golden:  {:?}\n  current: {:?}",
                g_str("title").unwrap_or("<missing>"),
                current.title
            ),
        );
    }
    let headers: Vec<&str> = match golden.get("headers").and_then(Value::as_str_vec) {
        Some(h) => h,
        None => {
            push_diff(&mut diffs, id, "golden has no headers array");
            return diffs;
        }
    };
    if headers
        != current
            .headers
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
    {
        push_diff(
            &mut diffs,
            id,
            &format!(
                "headers changed\n  golden:  {headers:?}\n  current: {:?}",
                current.headers
            ),
        );
        return diffs; // column-aligned comparison is meaningless now
    }
    // Tolerance bands come from the golden file (versioned with the data);
    // fall back to the current policy if an old golden lacks them.
    let tols: Vec<f64> = golden
        .get("tolerance")
        .and_then(|t| t.get("columns"))
        .and_then(Value::as_arr)
        .map(|cols| cols.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect())
        .unwrap_or_else(|| column_tolerances(current));
    let empty = Vec::new();
    let g_rows = golden.get("rows").and_then(Value::as_arr).unwrap_or(&empty);
    if g_rows.len() != current.rows.len() {
        push_diff(
            &mut diffs,
            id,
            &format!(
                "row count changed: golden {} vs current {}",
                g_rows.len(),
                current.rows.len()
            ),
        );
    }
    for (r, (g_row, c_row)) in g_rows.iter().zip(&current.rows).enumerate() {
        let g_cells = match g_row.as_str_vec() {
            Some(c) => c,
            None => {
                push_diff(&mut diffs, id, &format!("golden row {r} is not strings"));
                continue;
            }
        };
        for (c, (g_cell, c_cell)) in g_cells.iter().zip(c_row).enumerate() {
            let tol = tols.get(c).copied().unwrap_or(0.0);
            diffs.extend(compare_cell(
                id,
                &headers
                    .get(c)
                    .map_or_else(|| c.to_string(), |h| h.to_string()),
                r,
                g_cell,
                c_cell,
                tol,
            ));
        }
    }
    let g_notes = golden
        .get("notes")
        .and_then(Value::as_str_vec)
        .unwrap_or_default();
    if g_notes != current.notes.iter().map(String::as_str).collect::<Vec<_>>() {
        push_diff(
            &mut diffs,
            id,
            &format!(
                "notes changed\n  golden:  {g_notes:?}\n  current: {:?}",
                current.notes
            ),
        );
    }
    diffs
}

/// Diff one cell under a relative tolerance band.
fn compare_cell(
    id: &str,
    column: &str,
    row: usize,
    golden: &str,
    current: &str,
    tol: f64,
) -> Vec<String> {
    if golden == current {
        return Vec::new();
    }
    let at = format!("row {row}, column '{column}'");
    let (g_skel, g_nums) = split_cell(golden);
    let (c_skel, c_nums) = split_cell(current);
    if g_skel != c_skel || g_nums.len() != c_nums.len() {
        return vec![format!(
            "{id}: {at}: cell structure changed\n  golden:  {golden:?}\n  current: {current:?}"
        )];
    }
    let mut diffs = Vec::new();
    for (k, (g, c)) in g_nums.iter().zip(&c_nums).enumerate() {
        let within = if tol == 0.0 {
            g == c
        } else {
            (g - c).abs() <= tol * g.abs().max(1e-12)
        };
        if !within {
            let drift = if *g != 0.0 {
                format!("{:+.2}%", (c - g) / g * 100.0)
            } else {
                format!("{c} from zero")
            };
            diffs.push(format!(
                "{id}: {at}: value #{k} left its tolerance band\n  golden:  {golden:?}\n  current: {current:?}\n  {g} -> {c} ({drift}), allowed ±{:.1}%",
                tol * 100.0
            ));
        }
    }
    diffs
}

/// Outcome of a golden-suite run.
pub struct GoldenReport {
    /// Human-readable mismatch lines, empty when conformant.
    pub diffs: Vec<String>,
    /// Tables checked.
    pub checked: usize,
}

/// Regenerate every experiment table and diff it against its golden.
pub fn check_all() -> GoldenReport {
    let dir = goldens_dir();
    let mut diffs = Vec::new();
    let tables = experiments::run_all();
    for t in &tables {
        let path = dir.join(format!("{}.json", t.id.to_ascii_lowercase()));
        if !path.is_file() {
            diffs.push(format!(
                "{}: no golden at {} — run `cargo run -p conform -- --bless` and review the new file",
                t.id,
                path.display()
            ));
            continue;
        }
        // parse_file reports "<path>: byte <n>: <problem>" for malformed or
        // truncated goldens — a corrupted snapshot is a diagnosis, not a panic.
        match json::parse_file(&path) {
            Err(e) => diffs.push(format!("{}: golden is not valid JSON: {e}", t.id)),
            Ok(v) => diffs.extend(compare_table(t, &v)),
        }
    }
    // Goldens with no matching experiment are stale, not harmless.
    if let Ok(entries) = std::fs::read_dir(&dir) {
        let known: Vec<String> = tables
            .iter()
            .map(|t| format!("{}.json", t.id.to_ascii_lowercase()))
            .collect();
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            // `obs_*.json` files are the observability suite's pinned
            // metric snapshots, not experiment tables.
            if name.ends_with(".json") && !name.starts_with("obs_") && !known.contains(&name) {
                diffs.push(format!(
                    "stale golden {name}: no experiment emits this table any more"
                ));
            }
        }
    }
    GoldenReport {
        diffs,
        checked: tables.len(),
    }
}

/// Rewrite every golden from the current run. Returns the files written,
/// flagged with whether they changed.
///
/// # Errors
/// Returns the I/O error message if a file cannot be written.
pub fn bless_all() -> Result<Vec<(String, bool)>, String> {
    let dir = goldens_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut written = Vec::new();
    for t in experiments::run_all() {
        let path = dir.join(format!("{}.json", t.id.to_ascii_lowercase()));
        let new = golden_json(&t);
        let changed = !std::fs::read_to_string(&path).is_ok_and(|old| old == new);
        std::fs::write(&path, &new).map_err(|e| format!("{}: {e}", path.display()))?;
        written.push((t.id.clone(), changed));
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_cell_lexes_pair_cells() {
        let (skel, nums) = split_cell("38.26 / 36.90 (0.96x)");
        assert_eq!(skel, "# / # (#x)");
        assert_eq!(nums, vec![38.26, 36.90, 0.96]);
        let (skel, nums) = split_cell("- / 5.00");
        assert_eq!(skel, "- / #");
        assert_eq!(nums, vec![5.0]);
        let (skel, nums) = split_cell("96×1");
        assert_eq!(skel, "#×#");
        assert_eq!(nums, vec![96.0, 1.0]);
        let (skel, nums) = split_cell("-2.5 then -x");
        assert_eq!(skel, "# then -x");
        assert_eq!(nums, vec![-2.5]);
        assert_eq!(split_cell("no numbers."), ("no numbers.".into(), vec![]));
        // A sentence-ending period after a number stays punctuation.
        let (skel, nums) = split_cell("ends with 7.");
        assert_eq!(skel, "ends with #.");
        assert_eq!(nums, vec![7.0]);
    }

    #[test]
    fn round_trips_core_table_json() {
        let mut t = Table::new("T9", "demo — dash", &["sys", "val"]);
        t.push_row(vec!["A64FX".into(), "38.26 / 36.90 (0.96x)".into()]);
        t.note("a \"quoted\" note");
        let v = json::parse(&t.to_json(&[("tolerances", "[0, 0.02]".into())])).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("T9"));
        assert_eq!(v.get("title").unwrap().as_str(), Some("demo — dash"));
        assert_eq!(
            v.get("notes").unwrap().as_str_vec().unwrap(),
            vec!["a \"quoted\" note"]
        );
        let tols = v.get("tolerances").unwrap().as_arr().unwrap();
        assert_eq!(tols[1].as_f64(), Some(0.02));
    }

    fn demo_table() -> Table {
        let mut t = Table::new("T3", "demo", &["System", "GFLOP/s"]);
        t.push_row(vec!["A64FX".into(), "38.26 / 36.90 (0.96x)".into()]);
        t.note("shape holds");
        t
    }

    #[test]
    fn identical_table_conforms() {
        let t = demo_table();
        let golden = json::parse(&golden_json(&t)).unwrap();
        assert!(compare_table(&t, &golden).is_empty());
    }

    #[test]
    fn drift_within_band_passes_beyond_band_fails() {
        let t = demo_table();
        let golden = json::parse(&golden_json(&t)).unwrap();
        // 1% drift on a 2% column: fine.
        let mut near = t.clone();
        near.rows[0][1] = "38.26 / 37.25 (0.97x)".into();
        assert!(compare_table(&near, &golden).is_empty());
        // 10% drift: both the value and the derived ratio are flagged,
        // with readable messages.
        let mut far = t.clone();
        far.rows[0][1] = "38.26 / 33.00 (0.86x)".into();
        let diffs = compare_table(&far, &golden);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].contains("tolerance band"), "{}", diffs[0]);
        assert!(diffs[0].contains("36.9 -> 33"), "{}", diffs[0]);
    }

    #[test]
    fn label_columns_are_exact() {
        let t = demo_table();
        let golden = json::parse(&golden_json(&t)).unwrap();
        let mut renamed = t.clone();
        renamed.rows[0][0] = "A64FX2".into();
        assert!(!compare_table(&renamed, &golden).is_empty());
    }

    #[test]
    fn structural_changes_are_flagged() {
        let t = demo_table();
        let golden = json::parse(&golden_json(&t)).unwrap();
        let mut extra = t.clone();
        extra.push_row(vec!["X".into(), "1.00 / 1.00 (1.00x)".into()]);
        assert!(compare_table(&extra, &golden)
            .iter()
            .any(|d| d.contains("row count")));
        let mut cell = t.clone();
        cell.rows[0][1] = "36.90".into();
        assert!(compare_table(&cell, &golden)
            .iter()
            .any(|d| d.contains("structure changed")));
        let mut note = t;
        note.notes[0] = "different".into();
        assert!(compare_table(&note, &golden)
            .iter()
            .any(|d| d.contains("notes changed")));
    }

    #[test]
    fn spec_tables_get_exact_bands_metric_tables_get_relative() {
        let mut spec = Table::new("T1", "specs", &["System", "Cores"]);
        spec.push_row(vec!["A64FX".into(), "48".into()]);
        assert_eq!(column_tolerances(&spec), vec![0.0, 0.0]);
        assert_eq!(column_tolerances(&demo_table()), vec![0.0, 0.02]);
    }
}
