//! Named counters and mechanical run-to-run comparison.

use crate::json::{self, JsonWriter};
use std::collections::BTreeMap;
use std::fmt;

/// An immutable, serialisable set of named counters at one moment —
/// what `beri_sim::Machine::metrics` and `cheri_os::Kernel::metrics`
/// export from the per-struct counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
}

impl Snapshot {
    /// Value of counter `name` (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Inserts/overwrites a counter (used by exporters).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Per-counter deltas from `self` (the "before"/"a" run) to `other`
    /// (the "after"/"b" run), covering the union of names.
    ///
    /// Counters are monotone, so a regression (`b < a`) means the
    /// counter was reset between the snapshots rather than that work
    /// was undone. Instead of reporting a nonsense negative delta (or
    /// panicking on unsigned underflow, as a naive `b - a` would), the
    /// delta saturates to 0 and the row is flagged in
    /// [`SnapshotDiff::warnings`].
    #[must_use]
    pub fn diff(&self, other: &Snapshot) -> SnapshotDiff {
        let mut names: Vec<&String> = self.counters.keys().collect();
        for k in other.counters.keys() {
            if !self.counters.contains_key(k) {
                names.push(k);
            }
        }
        names.sort();
        let mut warnings = Vec::new();
        let entries = names
            .into_iter()
            .map(|name| {
                let a = self.counter(name);
                let b = other.counter(name);
                let delta = if b >= a {
                    i128::from(b - a)
                } else {
                    warnings.push(format!(
                        "counter `{name}` regressed ({a} -> {b}); \
                         saturating delta to 0 (reset between snapshots?)"
                    ));
                    0
                };
                (name.clone(), a, b, delta)
            })
            .collect();
        SnapshotDiff { entries, warnings }
    }

    /// Serialises as one JSON object: `{"counters":{..}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counters = JsonWriter::object();
        for (k, v) in &self.counters {
            counters.u64_field(k, *v);
        }
        let mut w = JsonWriter::object();
        w.raw_field("counters", &counters.close());
        w.close()
    }

    /// Parses the output of [`Snapshot::to_json`]. Other top-level keys
    /// are ignored, so snapshots saved with a `"histograms"` object by
    /// older builds still load (their counters only).
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let v = json::parse(text)?;
        let obj = v.as_obj().ok_or("snapshot must be an object")?;
        let mut snap = Snapshot::default();
        if let Some(counters) = obj.get("counters") {
            for (k, v) in counters.as_obj().ok_or("counters must be an object")? {
                snap.counters.insert(k.clone(), v.as_u64().ok_or("counter must be a u64")?);
            }
        }
        Ok(snap)
    }

    /// Renders an aligned human-readable table of all counters.
    #[must_use]
    pub fn render_table(&self) -> String {
        let width = self.counters.keys().map(String::len).max().unwrap_or(8).max(8);
        let mut out = String::new();
        out.push_str(&format!("{:<width$}  {:>16}\n", "counter", "value"));
        out.push_str(&format!("{:-<width$}  {:->16}\n", "", ""));
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<width$}  {v:>16}\n"));
        }
        out
    }
}

/// The result of diffing two snapshots: `(name, a, b, b - a)` rows,
/// with the delta saturated to 0 (and a warning recorded) when a
/// counter regressed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotDiff {
    entries: Vec<(String, u64, u64, i128)>,
    warnings: Vec<String>,
}

impl SnapshotDiff {
    /// All rows in name order.
    #[must_use]
    pub fn entries(&self) -> &[(String, u64, u64, i128)] {
        &self.entries
    }

    /// Rows whose delta is nonzero.
    pub fn changed(&self) -> impl Iterator<Item = &(String, u64, u64, i128)> {
        self.entries.iter().filter(|e| e.3 != 0)
    }

    /// One message per counter whose value regressed between the
    /// snapshots (delta saturated to 0).
    #[must_use]
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }
}

impl fmt::Display for SnapshotDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.entries.iter().map(|e| e.0.len()).max().unwrap_or(8).max(8);
        writeln!(f, "{:<width$}  {:>16}  {:>16}  {:>17}", "counter", "a", "b", "delta")?;
        for (name, a, b, d) in &self.entries {
            writeln!(f, "{name:<width$}  {a:>16}  {b:>16}  {d:>+17}")?;
        }
        for w in &self.warnings {
            writeln!(f, "warning: {w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_covers_union_of_names() {
        let mut a = Snapshot::default();
        a.set_counter("only_a", 3);
        let mut b = Snapshot::default();
        b.set_counter("only_b", 4);
        let d = a.diff(&b);
        assert_eq!(d.entries().len(), 2);
        // "only_a" went 3 -> 0: a regression, saturated to 0.
        assert_eq!(d.entries()[0], ("only_a".into(), 3, 0, 0));
        assert_eq!(d.entries()[1], ("only_b".into(), 0, 4, 4));
        assert_eq!(d.changed().count(), 1);
        assert_eq!(d.warnings().len(), 1);
        assert!(d.warnings()[0].contains("only_a"), "warning names the counter");
    }

    #[test]
    fn diff_saturates_regressed_counters_with_warning() {
        let mut a = Snapshot::default();
        a.set_counter("cycles", 1_000);
        a.set_counter("instructions", 500);
        let mut b = Snapshot::default();
        b.set_counter("cycles", 250); // counter was reset mid-window
        b.set_counter("instructions", 900);
        let d = a.diff(&b);
        assert_eq!(d.entries()[0], ("cycles".into(), 1_000, 250, 0));
        assert_eq!(d.entries()[1], ("instructions".into(), 500, 900, 400));
        assert_eq!(d.warnings().len(), 1);
        assert!(d.warnings()[0].contains("cycles"));
        assert!(format!("{d}").contains("warning:"), "Display surfaces the warning");
    }
}
