//! Prometheus text exposition: rendering a [`TelemSnapshot`] and
//! parsing one back with the format invariants checked.
//!
//! [`render_exposition`] emits the version-0.0.4 text format: a
//! `# TYPE` line per family, families in name order within each kind
//! (counters, then gauges, then histograms), histogram families as
//! cumulative `_bucket{le="..."}` lines ending in `le="+Inf"` plus
//! `_sum` and `_count`. Everything is integer-valued and ordering is
//! fully determined by the snapshot, so two scrapes of an unchanged
//! registry are byte-identical — the golden test's contract.
//!
//! [`parse_exposition`] is a *validating* parser: it rejects bad metric
//! names, samples with no preceding `# TYPE`, non-monotone cumulative
//! bucket counts, and `+Inf` buckets that disagree with `_count`. It is
//! what the metrics tests and the `servemon` dashboard both consume, so
//! a malformed exposition fails loudly in CI rather than rendering as
//! nonsense.

use crate::registry::{HistSnapshot, TelemSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders a snapshot as Prometheus text exposition (see module docs).
#[must_use]
pub fn render_exposition(snap: &TelemSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in snap.counters() {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in snap.gauges() {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, hist) in snap.histograms() {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (i, c) in hist.nonzero_buckets() {
            cum += c;
            // Bucket i covers [lo, hi); its inclusive upper bound is
            // hi - 1. The final log2 bucket (i = 64) has no finite
            // upper bound and folds into +Inf below.
            if i < 64 {
                let le = HistSnapshot::bucket_range(i).1 - 1;
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
            }
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{name}_sum {}", hist.sum());
        let _ = writeln!(out, "{name}_count {}", hist.count());
    }
    out
}

/// One parsed histogram family: cumulative `(le, count)` buckets in
/// exposition order, plus `_sum` and `_count`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PromHist {
    /// Cumulative buckets; the last is always `("+Inf", count)`.
    pub buckets: Vec<(String, u64)>,
    /// Value of the `_sum` sample.
    pub sum: u64,
    /// Value of the `_count` sample.
    pub count: u64,
}

/// A parsed and validated exposition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Exposition {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, PromHist>,
}

impl Exposition {
    /// Value of counter `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of gauge `name`, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Histogram family `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&PromHist> {
        self.hists.get(name)
    }

    /// All counters in name order.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges in name order.
    #[must_use]
    pub fn gauges(&self) -> &BTreeMap<String, u64> {
        &self.gauges
    }

    /// All histogram families in name order.
    #[must_use]
    pub fn histograms(&self) -> &BTreeMap<String, PromHist> {
        &self.hists
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    (first.is_ascii_alphabetic() || first == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(line_no: usize, s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("line {line_no}: non-u64 sample value `{s}`"))
}

/// Parses and validates a text exposition (see module docs).
///
/// # Errors
///
/// Describes the first violation found, with its line number.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Counter,
        Gauge,
        Histogram,
    }
    let mut types: BTreeMap<String, Kind> = BTreeMap::new();
    let mut exp = Exposition::default();

    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() != Some("TYPE") {
                return Err(format!("line {line_no}: only `# TYPE` comments are allowed"));
            }
            let name = parts.next().ok_or(format!("line {line_no}: TYPE without a name"))?;
            if !valid_name(name) {
                return Err(format!("line {line_no}: bad metric name `{name}`"));
            }
            let kind = match parts.next() {
                Some("counter") => Kind::Counter,
                Some("gauge") => Kind::Gauge,
                Some("histogram") => Kind::Histogram,
                other => {
                    return Err(format!("line {line_no}: bad metric kind {other:?}"));
                }
            };
            if types.insert(name.to_string(), kind).is_some() {
                return Err(format!("line {line_no}: duplicate TYPE for `{name}`"));
            }
            if kind == Kind::Histogram {
                exp.hists.insert(name.to_string(), PromHist::default());
            }
            continue;
        }

        let (sample, value) =
            line.rsplit_once(' ').ok_or(format!("line {line_no}: sample line without a value"))?;
        let value = parse_value(line_no, value)?;
        let (name, labels) = match sample.split_once('{') {
            Some((n, rest)) => {
                let labels =
                    rest.strip_suffix('}').ok_or(format!("line {line_no}: unclosed label set"))?;
                (n, Some(labels))
            }
            None => (sample, None),
        };
        if !valid_name(name) {
            return Err(format!("line {line_no}: bad metric name `{name}`"));
        }

        // Histogram samples reference their family by suffix.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| name.strip_suffix(suf).map(|base| (base, *suf)))
            .filter(|(base, _)| matches!(types.get(*base), Some(Kind::Histogram)));
        if let Some((base, suffix)) = family {
            let hist = exp.hists.get_mut(base).expect("typed histogram has an entry");
            match suffix {
                "_bucket" => {
                    let labels = labels.ok_or(format!("line {line_no}: _bucket without labels"))?;
                    let le = labels
                        .strip_prefix("le=\"")
                        .and_then(|l| l.strip_suffix('"'))
                        .ok_or(format!("line {line_no}: _bucket without an le label"))?;
                    if le != "+Inf" && le.parse::<u64>().is_err() {
                        return Err(format!("line {line_no}: bad le value `{le}`"));
                    }
                    if let Some((_, prev)) = hist.buckets.last() {
                        if value < *prev {
                            return Err(format!(
                                "line {line_no}: cumulative bucket count regressed \
                                 ({prev} -> {value}) in `{base}`"
                            ));
                        }
                    }
                    hist.buckets.push((le.to_string(), value));
                }
                "_sum" => hist.sum = value,
                _ => hist.count = value,
            }
            continue;
        }

        if labels.is_some() {
            return Err(format!("line {line_no}: unexpected labels on `{name}`"));
        }
        match types.get(name) {
            Some(Kind::Counter) => {
                exp.counters.insert(name.to_string(), value);
            }
            Some(Kind::Gauge) => {
                exp.gauges.insert(name.to_string(), value);
            }
            Some(Kind::Histogram) => {
                return Err(format!("line {line_no}: bare sample for histogram family `{name}`"));
            }
            None => {
                return Err(format!("line {line_no}: sample `{name}` with no preceding TYPE"));
            }
        }
    }

    for (name, hist) in &exp.hists {
        match hist.buckets.last() {
            Some((le, cum)) if le == "+Inf" => {
                if *cum != hist.count {
                    return Err(format!(
                        "histogram `{name}`: +Inf bucket {cum} != _count {}",
                        hist.count
                    ));
                }
            }
            Some(_) => {
                return Err(format!("histogram `{name}`: last bucket is not +Inf"));
            }
            None => return Err(format!("histogram `{name}`: no _bucket samples")),
        }
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TelemRegistry;

    fn sample_registry() -> TelemRegistry {
        let reg = TelemRegistry::new(true);
        reg.batch(|b| {
            b.add("serve_jobs_total", 4);
            b.add("serve_cache_hits_total", 1);
            b.set_gauge("serve_queue_depth", 2);
            for v in [3, 900, 901, 70_000] {
                b.record("serve_job_latency_us", v);
            }
        });
        reg
    }

    #[test]
    fn render_parse_roundtrip_preserves_every_value() {
        let snap = sample_registry().snapshot();
        let text = render_exposition(&snap);
        let exp = parse_exposition(&text).unwrap();
        assert_eq!(exp.counter("serve_jobs_total"), Some(4));
        assert_eq!(exp.counter("serve_cache_hits_total"), Some(1));
        assert_eq!(exp.gauge("serve_queue_depth"), Some(2));
        let h = exp.histogram("serve_job_latency_us").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 3 + 900 + 901 + 70_000);
        assert_eq!(h.buckets.last().unwrap(), &("+Inf".to_string(), 4));
        // Cumulative and monotone: 3 → [2,4) le=3; 900/901 → [512,1024)
        // le=1023; 70000 → [65536,131072) le=131071.
        assert_eq!(
            h.buckets,
            vec![
                ("3".to_string(), 1),
                ("1023".to_string(), 3),
                ("131071".to_string(), 4),
                ("+Inf".to_string(), 4),
            ]
        );
    }

    #[test]
    fn rendering_is_deterministic_across_scrapes() {
        let reg = sample_registry();
        let a = render_exposition(&reg.snapshot());
        let b = render_exposition(&reg.snapshot());
        assert_eq!(a, b, "idle scrapes must be byte-identical");
    }

    #[test]
    fn parser_rejects_malformed_expositions() {
        let cases: &[(&str, &str)] = &[
            ("x 1\n", "no preceding TYPE"),
            ("# TYPE 9bad counter\n9bad 1\n", "bad metric name"),
            ("# TYPE x counter\nx one\n", "non-u64"),
            ("# TYPE x widget\nx 1\n", "bad metric kind"),
            ("# HELP x something\n", "only `# TYPE`"),
            ("# TYPE x counter\n# TYPE x counter\nx 1\n", "duplicate TYPE"),
            ("# TYPE x counter\nx{le=\"1\"} 1\n", "unexpected labels"),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                 h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
                "regressed",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n",
                "+Inf bucket 4 != _count 5",
            ),
            ("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "not +Inf"),
            ("# TYPE h histogram\nh_sum 0\nh_count 0\n", "no _bucket"),
        ];
        for (text, want) in cases {
            let err = parse_exposition(text).unwrap_err();
            assert!(err.contains(want), "for {text:?}: got `{err}`, want `{want}`");
        }
    }

    #[test]
    fn empty_exposition_parses_to_empty() {
        assert_eq!(parse_exposition("").unwrap(), Exposition::default());
    }
}
