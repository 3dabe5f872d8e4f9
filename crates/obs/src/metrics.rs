//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! A registry is one vector of `(name, label set)` series, sorted by key,
//! behind one mutex — every update is a short critical section, and the
//! parallel runners never contend on it anyway: each work item writes into
//! a private per-segment registry ([`crate::record_segment`]) that is
//! merged into its parent at the join. Merging is associative and
//! commutative (counters and histogram buckets add, gauges take the
//! maximum), so the aggregate is independent of worker scheduling.
//!
//! Updates take the metric name and labels borrowed. The labels are sorted
//! in a small stack array and the series is found by binary search over
//! the stored keys, comparing `&str`s, so an update of an existing series
//! allocates nothing; only a series' first touch builds its owned key.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::sync::{Mutex, MutexGuard};

/// Default histogram bounds: powers of two from 1 to 2²⁰, plus the
/// implicit `+Inf` bucket. Wide enough for latency steps, retry depths,
/// round sizes and per-round comparison counts alike.
pub const DEFAULT_BUCKETS: [u64; 21] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288, 1048576,
];

/// A fixed-bucket histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, ascending.
    bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; one extra slot for `+Inf`.
    buckets: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram bucket layouts differ for the same metric name"
        );
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Total of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Cumulative bucket counts paired with their rendered `le` bound,
    /// Prometheus-style: ascending bounds, final bucket `+Inf`.
    pub fn cumulative_buckets(&self) -> Vec<BucketCount> {
        let mut running = 0;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, c) in self.buckets.iter().enumerate() {
            running += c;
            let le = match self.bounds.get(i) {
                Some(b) => b.to_string(),
                None => "+Inf".to_string(),
            };
            out.push(BucketCount { le, count: running });
        }
        out
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    /// Sorted by label name, so a label set has one canonical key.
    labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Orders this key against a borrowed `name` and sorted `labels`
    /// exactly as the derived `Ord` orders owned keys.
    fn cmp_borrowed(&self, name: &str, labels: &[(&str, &str)]) -> Ordering {
        self.name.as_str().cmp(name).then_with(|| {
            self.labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .cmp(labels.iter().copied())
        })
    }
}

/// Label sets up to this size are sorted on the stack; larger ones (none
/// in this workspace) spill to the heap.
const INLINE_LABELS: usize = 8;

#[derive(Debug, Clone, PartialEq)]
enum MetricCell {
    Counter(u64),
    Gauge(i64),
    Histogram(Histogram),
}

impl MetricCell {
    fn type_name(&self) -> &'static str {
        match self {
            MetricCell::Counter(_) => "counter",
            MetricCell::Gauge(_) => "gauge",
            MetricCell::Histogram(_) => "histogram",
        }
    }
}

/// The series of a registry, sorted by key.
type Series = Vec<(MetricKey, MetricCell)>;

/// A registry of named metrics. See the module docs for the concurrency
/// and merge model.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Series>,
}

impl Clone for MetricsRegistry {
    fn clone(&self) -> Self {
        MetricsRegistry {
            inner: Mutex::new(self.lock().clone()),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Series> {
        self.inner.lock().expect("metrics registry lock poisoned")
    }

    /// Applies `update` to the cell of `name{labels}`, inserting `init()`
    /// first if the series is new. Allocates only on that first touch.
    fn update(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> MetricCell,
        update: impl FnOnce(&mut MetricCell),
    ) {
        let mut inline = [("", ""); INLINE_LABELS];
        let mut spilled = Vec::new();
        let sorted = if labels.len() <= INLINE_LABELS {
            let sorted = &mut inline[..labels.len()];
            sorted.copy_from_slice(labels);
            sorted
        } else {
            spilled.extend_from_slice(labels);
            &mut spilled[..]
        };
        sorted.sort_unstable();
        let mut series = self.lock();
        let idx = match series.binary_search_by(|(key, _)| key.cmp_borrowed(name, sorted)) {
            Ok(idx) => idx,
            Err(idx) => {
                let key = MetricKey {
                    name: name.to_string(),
                    labels: sorted
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect(),
                };
                series.insert(idx, (key, init()));
                idx
            }
        };
        update(&mut series[idx].1);
    }

    /// Adds `v` to the monotonic counter `name{labels}` (creating it at
    /// zero first).
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` already holds a different metric type.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.update(
            name,
            labels,
            || MetricCell::Counter(0),
            |cell| match cell {
                MetricCell::Counter(c) => *c += v,
                other => panic!("metric {name} is a {}, not a counter", other.type_name()),
            },
        );
    }

    /// Raises the high-watermark gauge `name{labels}` to `v` if `v`
    /// exceeds its current value.
    ///
    /// Gauges here keep the *maximum* value ever set — that is what makes
    /// merging per-worker registries order-independent. A last-write-wins
    /// gauge cannot be aggregated deterministically across threads.
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` already holds a different metric type.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: i64) {
        self.update(
            name,
            labels,
            || MetricCell::Gauge(i64::MIN),
            |cell| match cell {
                MetricCell::Gauge(g) => *g = (*g).max(v),
                other => panic!("metric {name} is a {}, not a gauge", other.type_name()),
            },
        );
    }

    /// Records `value` into the histogram `name{labels}` with the
    /// [`DEFAULT_BUCKETS`] layout.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.observe_with(name, labels, &DEFAULT_BUCKETS, value);
    }

    /// Records `value` into the histogram `name{labels}` with an explicit
    /// bucket layout. Every observation of one metric name must use the
    /// same layout.
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` already holds a different metric type or a
    /// different bucket layout.
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64], value: u64) {
        self.update(
            name,
            labels,
            || MetricCell::Histogram(Histogram::new(bounds)),
            |cell| match cell {
                MetricCell::Histogram(h) => {
                    assert_eq!(h.bounds, bounds, "bucket layouts differ for {name}");
                    h.observe(value);
                }
                other => panic!("metric {name} is a {}, not a histogram", other.type_name()),
            },
        );
    }

    /// Merges `other` into `self`: counters and histogram buckets add,
    /// gauges keep the maximum. Associative and commutative, so the result
    /// of folding any number of per-worker registries is independent of
    /// fold order.
    ///
    /// # Panics
    ///
    /// Panics if the two registries disagree on a metric's type or bucket
    /// layout.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        let theirs = other.lock().clone();
        let mut mine = self.lock();
        for (key, cell) in theirs {
            match mine.binary_search_by(|(k, _)| k.cmp(&key)) {
                Err(idx) => mine.insert(idx, (key, cell)),
                Ok(idx) => match (&mut mine[idx].1, cell) {
                    (MetricCell::Counter(a), MetricCell::Counter(b)) => *a += b,
                    (MetricCell::Gauge(a), MetricCell::Gauge(b)) => *a = (*a).max(b),
                    (MetricCell::Histogram(a), MetricCell::Histogram(b)) => a.merge(&b),
                    (a, b) => panic!(
                        "merge type mismatch for {}: {} vs {}",
                        key.name,
                        a.type_name(),
                        b.type_name()
                    ),
                },
            }
        }
    }

    /// True when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A sorted, serializable snapshot of every metric — the input of the
    /// exposition writers ([`crate::render_prometheus`] /
    /// [`crate::render_json`]) and the `metrics` section of the bench
    /// report. Ordering is by `(name, labels)`, so two equal registries
    /// snapshot byte-identically.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        self.lock()
            .iter()
            .map(|(key, cell)| MetricSample {
                name: key.name.clone(),
                labels: key
                    .labels
                    .iter()
                    .map(|(k, v)| LabelPair {
                        name: k.clone(),
                        value: v.clone(),
                    })
                    .collect(),
                value: match cell {
                    MetricCell::Counter(c) => SampleValue::Counter { value: *c },
                    MetricCell::Gauge(g) => SampleValue::Gauge { value: *g },
                    MetricCell::Histogram(h) => SampleValue::Histogram {
                        buckets: h.cumulative_buckets(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                },
            })
            .collect()
    }
}

/// One `name=value` label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelPair {
    /// Label name.
    pub name: String,
    /// Label value.
    pub value: String,
}

/// One cumulative histogram bucket: observations `<= le`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// The bucket's inclusive upper bound (`"+Inf"` for the last).
    pub le: String,
    /// Cumulative count of observations at or below `le`.
    pub count: u64,
}

/// The value of one snapshotted metric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SampleValue {
    /// Monotonic counter.
    Counter {
        /// Current total.
        value: u64,
    },
    /// High-watermark gauge.
    Gauge {
        /// Largest value ever set.
        value: i64,
    },
    /// Fixed-bucket histogram.
    Histogram {
        /// Cumulative buckets, ascending, ending at `+Inf`.
        buckets: Vec<BucketCount>,
        /// Total of observed values.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// One metric at one label set, snapshotted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Labels, sorted by name.
    pub labels: Vec<LabelPair>,
    /// The metric's value.
    pub value: SampleValue,
}

impl MetricSample {
    /// The Prometheus type keyword for this sample.
    pub fn type_name(&self) -> &'static str {
        match self.value {
            SampleValue::Counter { .. } => "counter",
            SampleValue::Gauge { .. } => "gauge",
            SampleValue::Histogram { .. } => "histogram",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let r = MetricsRegistry::new();
        r.counter_add("b_total", &[], 1);
        r.counter_add("a_total", &[("class", "naive")], 2);
        r.counter_add("a_total", &[("class", "naive")], 3);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "a_total");
        assert_eq!(snap[0].value, SampleValue::Counter { value: 5 });
        assert_eq!(snap[1].name, "b_total");
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = MetricsRegistry::new();
        r.counter_add("x", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("x", &[("b", "2"), ("a", "1")], 1);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].value, SampleValue::Counter { value: 2 });
    }

    #[test]
    fn gauges_keep_the_high_watermark() {
        let r = MetricsRegistry::new();
        r.gauge_set("depth", &[], 5);
        r.gauge_set("depth", &[], 3);
        assert_eq!(r.snapshot()[0].value, SampleValue::Gauge { value: 5 });
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let r = MetricsRegistry::new();
        for v in [1, 2, 3, 5_000_000] {
            r.observe("h", &[], v);
        }
        let SampleValue::Histogram {
            buckets,
            sum,
            count,
        } = r.snapshot()[0].value.clone()
        else {
            panic!("histogram expected");
        };
        assert_eq!(sum, 5_000_006);
        assert_eq!(count, 4);
        assert_eq!(buckets.first().unwrap().le, "1");
        assert_eq!(buckets.first().unwrap().count, 1);
        assert_eq!(buckets.last().unwrap().le, "+Inf");
        assert_eq!(buckets.last().unwrap().count, 4);
        // value 2 lands in le=2; value 3 in le=4.
        assert_eq!(buckets[1].count, 2);
        assert_eq!(buckets[2].count, 3);
    }

    #[test]
    fn merge_adds_counters_and_buckets_and_maxes_gauges() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter_add("c", &[], 1);
        b.counter_add("c", &[], 2);
        a.gauge_set("g", &[], 7);
        b.gauge_set("g", &[], 4);
        a.observe("h", &[], 1);
        b.observe("h", &[], 100);
        b.counter_add("only_b", &[], 9);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap[0].value, SampleValue::Counter { value: 3 });
        assert_eq!(snap[1].value, SampleValue::Gauge { value: 7 });
        let SampleValue::Histogram { count, .. } = snap[2].value else {
            panic!()
        };
        assert_eq!(count, 2);
        assert_eq!(snap[3].value, SampleValue::Counter { value: 9 });
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let r = MetricsRegistry::new();
        r.gauge_set("m", &[], 1);
        r.counter_add("m", &[], 1);
    }

    #[test]
    fn samples_serialize_to_json() {
        let r = MetricsRegistry::new();
        r.counter_add("c_total", &[("k", "v")], 3);
        let json = serde_json::to_string(&r.snapshot()).unwrap();
        assert!(json.contains("c_total"), "{json}");
        assert!(json.contains("Counter"), "{json}");
    }
}
