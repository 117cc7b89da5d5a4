//! The telemetry registry: named u64 counters, gauges, and log2-bucket
//! streaming histograms behind one short critical section.
//!
//! Every mutation takes one uncontended mutex for a few map operations —
//! nanoseconds, at per-request rate, which is what "lock-cheap" means
//! here (contrast the guest-side tracing fast path, which runs per
//! retired instruction and therefore cannot afford even this). The
//! payoff for the single lock is *consistency*: [`TelemRegistry::batch`]
//! updates several metrics in one critical section and
//! [`TelemRegistry::snapshot`] reads everything in one, so invariants
//! like "the latency histogram has exactly as many observations as the
//! jobs counter" hold in every scrape, not just at quiescence.
//!
//! Histograms use log2 bucketing ([`HistSnapshot::bucket_of`]: bucket
//! 0 holds zeros, bucket *k* the range `[2^(k-1), 2^k)`) plus an exact
//! running maximum, from which [`HistSnapshot`] derives nearest-rank
//! percentiles: the `ceil(p·N/100)` rank is resolved to its bucket
//! exactly, the reported upper bound is tightened by the exact max, and
//! the percentile tests pin both against a fully sorted reference.

use cheri_trace::json::{self, Json, JsonWriter};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One log2-bucket streaming histogram with exact count, saturating
/// sum, and exact maximum. This is both the accumulation state inside
/// the registry and the per-histogram payload of a [`TelemSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot { buckets: [0; 65], count: 0, sum: 0, max: 0 }
    }
}

impl HistSnapshot {
    /// Bucket index for `v`.
    #[must_use]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive-exclusive value range covered by bucket `i`.
    #[must_use]
    pub fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1u64 << (i - 1), (1u64 << (i - 1)).saturating_mul(2))
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Non-empty buckets as `(index, count)` pairs in index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c != 0).map(|(i, &c)| (i, c))
    }

    /// The half-open `[lo, hi)` bucket range containing the
    /// `ceil(pct·N/100)` nearest-rank observation (`pct` in 1..=100).
    /// Returns `(0, 0)` for an empty histogram.
    #[must_use]
    pub fn quantile_bounds(&self, pct: u64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = (pct * self.count).div_ceil(100).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.nonzero_buckets() {
            cum += c;
            if cum >= rank {
                return Self::bucket_range(i);
            }
        }
        Self::bucket_range(64)
    }

    /// Inclusive upper bound on the `ceil(pct·N/100)` nearest-rank
    /// observation: the bucket's top, tightened by the exact maximum
    /// when the rank falls in the histogram's final nonzero bucket.
    /// `quantile_upper(100)` is the exact max.
    #[must_use]
    pub fn quantile_upper(&self, pct: u64) -> u64 {
        let (lo, hi) = self.quantile_bounds(pct);
        if hi == 0 {
            return 0;
        }
        if self.max >= lo && self.max < hi {
            self.max
        } else {
            hi.saturating_sub(1)
        }
    }

    fn to_json_raw(&self) -> String {
        let mut w = JsonWriter::object();
        w.u64_field("count", self.count);
        w.u64_field("sum", self.sum);
        w.u64_field("max", self.max);
        let buckets: Vec<String> =
            self.nonzero_buckets().map(|(i, c)| format!("[{i},{c}]")).collect();
        w.raw_field("buckets", &format!("[{}]", buckets.join(",")));
        w.close()
    }

    fn from_json(v: &Json) -> Result<HistSnapshot, String> {
        let obj = v.as_obj().ok_or("histogram must be an object")?;
        let mut h = HistSnapshot {
            buckets: [0; 65],
            count: obj.get("count").and_then(Json::as_u64).ok_or("missing count")?,
            sum: obj.get("sum").and_then(Json::as_u64).ok_or("missing sum")?,
            max: obj.get("max").and_then(Json::as_u64).ok_or("missing max")?,
        };
        let mut total = 0u64;
        for pair in obj.get("buckets").and_then(Json::as_arr).ok_or("missing buckets")? {
            let pair = pair.as_arr().ok_or("bucket must be [index,count]")?;
            let [i, c] = pair else { return Err("bucket must be a pair".into()) };
            let i = i.as_u64().ok_or("bad bucket index")? as usize;
            let c = c.as_u64().ok_or("bad bucket count")?;
            *h.buckets.get_mut(i).ok_or("bucket index out of range")? = c;
            total += c;
        }
        if total != h.count {
            return Err(format!("bucket total {total} != count {}", h.count));
        }
        Ok(h)
    }
}

/// A consistent, name-ordered copy of the registry at one moment: every
/// counter, gauge, and histogram, read under a single lock.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistSnapshot>,
}

impl TelemSnapshot {
    /// Value of counter `name` (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of gauge `name` (0 if absent).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any observation was ever recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
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

    /// All histograms in name order.
    #[must_use]
    pub fn histograms(&self) -> &BTreeMap<String, HistSnapshot> {
        &self.hists
    }

    /// Serialises as one JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{..}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counters = JsonWriter::object();
        for (k, v) in &self.counters {
            counters.u64_field(k, *v);
        }
        let mut gauges = JsonWriter::object();
        for (k, v) in &self.gauges {
            gauges.u64_field(k, *v);
        }
        let mut hists = JsonWriter::object();
        for (k, h) in &self.hists {
            hists.raw_field(k, &h.to_json_raw());
        }
        let mut w = JsonWriter::object();
        w.raw_field("counters", &counters.close());
        w.raw_field("gauges", &gauges.close());
        w.raw_field("histograms", &hists.close());
        w.close()
    }

    /// Parses the output of [`TelemSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the first malformation found.
    pub fn from_json(text: &str) -> Result<TelemSnapshot, String> {
        let v = json::parse(text)?;
        let obj = v.as_obj().ok_or("telem snapshot must be an object")?;
        let mut snap = TelemSnapshot::default();
        if let Some(counters) = obj.get("counters") {
            for (k, v) in counters.as_obj().ok_or("counters must be an object")? {
                snap.counters.insert(k.clone(), v.as_u64().ok_or("counter must be a u64")?);
            }
        }
        if let Some(gauges) = obj.get("gauges") {
            for (k, v) in gauges.as_obj().ok_or("gauges must be an object")? {
                snap.gauges.insert(k.clone(), v.as_u64().ok_or("gauge must be a u64")?);
            }
        }
        if let Some(hists) = obj.get("histograms") {
            for (k, v) in hists.as_obj().ok_or("histograms must be an object")? {
                snap.hists.insert(k.clone(), HistSnapshot::from_json(v)?);
            }
        }
        Ok(snap)
    }
}

#[derive(Default)]
struct Data {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, HistSnapshot>,
}

/// A batch of updates applied under one registry lock — the tool for
/// the "histogram count equals its counter in every scrape" invariant.
pub struct TelemBatch<'a> {
    data: &'a mut Data,
}

impl TelemBatch<'_> {
    /// Adds `delta` to counter `name`.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.data.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets gauge `name` to an absolute value.
    pub fn set_gauge(&mut self, name: &'static str, value: u64) {
        self.data.gauges.insert(name, value);
    }

    /// Raises gauge `name` to `value` if it is higher — a running
    /// maximum (e.g. the exact max observation of a histogram, which
    /// the bucketed exposition cannot carry).
    pub fn gauge_max(&mut self, name: &'static str, value: u64) {
        let g = self.data.gauges.entry(name).or_insert(0);
        *g = (*g).max(value);
    }

    /// Records one observation into histogram `name`.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.data.hists.entry(name).or_default().record(value);
    }
}

/// The registry: all service metrics behind one mutex, with no-op
/// operation when constructed disabled (the detached half of the
/// telemetry-overhead A/B).
pub struct TelemRegistry {
    data: Mutex<Data>,
    enabled: bool,
}

impl TelemRegistry {
    /// A fresh registry; `enabled = false` turns every operation into a
    /// no-op and every snapshot into the empty snapshot.
    #[must_use]
    pub fn new(enabled: bool) -> TelemRegistry {
        TelemRegistry { data: Mutex::new(Data::default()), enabled }
    }

    /// Whether this registry records anything at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Applies several updates in one critical section, so no scrape
    /// can observe a state between them.
    pub fn batch(&self, f: impl FnOnce(&mut TelemBatch)) {
        if !self.enabled {
            return;
        }
        if let Ok(mut data) = self.data.lock() {
            f(&mut TelemBatch { data: &mut data });
        }
    }

    /// Adds `delta` to counter `name`.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.batch(|b| b.add(name, delta));
    }

    /// Sets gauge `name` to an absolute value.
    pub fn set_gauge(&self, name: &'static str, value: u64) {
        self.batch(|b| b.set_gauge(name, value));
    }

    /// Records one observation into histogram `name`.
    pub fn record(&self, name: &'static str, value: u64) {
        self.batch(|b| b.record(name, value));
    }

    /// Current value of counter `name` (0 if never touched or the
    /// registry is disabled).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.data.lock().map_or(0, |d| d.counters.get(name).copied().unwrap_or(0))
    }

    /// A consistent snapshot of every metric, read under one lock.
    #[must_use]
    pub fn snapshot(&self) -> TelemSnapshot {
        let Ok(data) = self.data.lock() else { return TelemSnapshot::default() };
        TelemSnapshot {
            counters: data.counters.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            gauges: data.gauges.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            hists: data.hists.iter().map(|(&k, v)| (k.to_string(), v.clone())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the quantile derivation is pinned against: fully
    /// sorted values, `ceil(p·N/100)` nearest-rank.
    fn sorted_nearest_rank(sorted: &[u64], pct: u64) -> u64 {
        let rank = (pct * sorted.len() as u64).div_ceil(100).clamp(1, sorted.len() as u64);
        sorted[rank as usize - 1]
    }

    #[test]
    fn log2_buckets() {
        assert_eq!(HistSnapshot::bucket_of(0), 0);
        assert_eq!(HistSnapshot::bucket_of(1), 1);
        assert_eq!(HistSnapshot::bucket_of(2), 2);
        assert_eq!(HistSnapshot::bucket_of(3), 2);
        assert_eq!(HistSnapshot::bucket_of(4), 3);
        assert_eq!(HistSnapshot::bucket_of(1023), 10);
        assert_eq!(HistSnapshot::bucket_of(1024), 11);
        assert_eq!(HistSnapshot::bucket_of(u64::MAX), 64);
        for v in [0u64, 1, 2, 3, 7, 8, 100, 1 << 40] {
            let (lo, hi) = HistSnapshot::bucket_range(HistSnapshot::bucket_of(v));
            assert!(v >= lo && (v < hi || hi < lo), "{v} not in [{lo},{hi})");
        }
    }

    #[test]
    fn quantiles_bracket_the_sorted_reference() {
        // A deliberately lumpy distribution spanning many buckets.
        let mut values: Vec<u64> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..1000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push(match i % 4 {
                0 => x % 100,
                1 => x % 10_000,
                2 => x % 1_000_000,
                _ => x % 50,
            });
        }
        let mut h = HistSnapshot::default();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for pct in [1, 10, 50, 90, 95, 99, 100] {
            let truth = sorted_nearest_rank(&sorted, pct);
            let (lo, hi) = h.quantile_bounds(pct);
            assert!(truth >= lo && truth < hi, "p{pct}: {truth} not in [{lo},{hi})");
            assert!(h.quantile_upper(pct) >= truth, "p{pct}: upper bound below truth");
            assert!(h.quantile_upper(pct) < hi, "p{pct}: upper bound outside bucket");
        }
        assert_eq!(h.quantile_upper(100), *sorted.last().unwrap(), "p100 is the exact max");
        assert_eq!(h.max(), *sorted.last().unwrap());
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), values.iter().sum::<u64>());
    }

    #[test]
    fn quantiles_on_tiny_histograms() {
        let mut h = HistSnapshot::default();
        assert_eq!(h.quantile_bounds(50), (0, 0), "empty histogram");
        assert_eq!(h.quantile_upper(50), 0);
        h.record(7);
        // One observation: every percentile is its bucket, upper is
        // exactly 7 (the max tightens the [4,8) bucket).
        for pct in [1, 50, 100] {
            assert_eq!(h.quantile_bounds(pct), (4, 8));
            assert_eq!(h.quantile_upper(pct), 7);
        }
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let reg = TelemRegistry::new(true);
        reg.add("jobs_total", 3);
        reg.set_gauge("queue_depth", 2);
        for v in [0, 1, 30, 30, 31, 120, 1 << 20] {
            reg.record("latency_us", v);
        }
        let snap = reg.snapshot();
        let back = TelemSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("jobs_total"), 3);
        assert_eq!(back.gauge("queue_depth"), 2);
        assert_eq!(back.histogram("latency_us").unwrap().count(), 7);
        assert_eq!(back.histogram("latency_us").unwrap().max(), 1 << 20);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = TelemRegistry::new(false);
        reg.add("jobs_total", 1);
        reg.record("latency_us", 10);
        reg.set_gauge("queue_depth", 5);
        assert_eq!(reg.counter("jobs_total"), 0);
        assert_eq!(reg.snapshot(), TelemSnapshot::default());
    }

    #[test]
    fn batch_is_atomic_with_respect_to_snapshots() {
        // A writer hammers (counter, histogram) pairs in one batch; a
        // reader snapshots concurrently and must never see them differ.
        let reg = std::sync::Arc::new(TelemRegistry::new(true));
        let writer = {
            let reg = reg.clone();
            std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    reg.batch(|b| {
                        b.add("jobs_total", 1);
                        b.record("latency_us", i % 1000);
                    });
                }
            })
        };
        for _ in 0..200 {
            let snap = reg.snapshot();
            let hist = snap.histogram("latency_us").map_or(0, HistSnapshot::count);
            assert_eq!(snap.counter("jobs_total"), hist, "scrape saw a torn update");
        }
        writer.join().unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("jobs_total"), 5_000);
        assert_eq!(snap.histogram("latency_us").unwrap().count(), 5_000);
    }
}
