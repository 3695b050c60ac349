//! Correctness checks. Every operation a workload attempts gets one
//! verdict; the benchmark reports failed operations over attempted ones.
//! Checks run outside the timed region.

use std::collections::BTreeMap;

use a64fx_core::Table;
use conform::json::Value;

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Reasons for the first failures (capped, for the log).
    pub reasons: Vec<String>,
}

impl Checks {
    /// Record one operation; `why` explains a failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why());
            }
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The conform crate's golden tables, parsed once, keyed by lowercase id.
pub struct Goldens(BTreeMap<String, Value>);

impl Goldens {
    /// Parse every table golden the conform crate ships.
    ///
    /// # Errors
    /// Returns the parse error of the first malformed or unreadable file.
    pub fn load() -> Result<Self, String> {
        let dir = conform::golden::goldens_dir();
        let mut map = BTreeMap::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // obs_*.json are metric snapshots, not tables.
            if let Some(id) = name
                .strip_suffix(".json")
                .filter(|_| !name.starts_with("obs_"))
            {
                map.insert(id.to_string(), conform::json::parse_file(&path)?);
            }
        }
        Ok(Goldens(map))
    }

    /// The golden document for table `id`.
    pub fn get(&self, id: &str) -> Option<&Value> {
        self.0.get(&id.to_ascii_lowercase())
    }

    /// Check `table` against its golden within the golden's tolerance
    /// bands, as one operation.
    pub fn check(&self, table: &Table, checks: &mut Checks) {
        let diffs = match self.get(&table.id) {
            Some(g) => conform::golden::compare_table(table, g),
            None => vec![format!("{}: no golden", table.id)],
        };
        checks.op(diffs.is_empty(), || diffs.join("; "));
    }
}
