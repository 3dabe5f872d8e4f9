//! Differential test of the interned metrics store against the registry
//! it replaced.
//!
//! The reference below is the earlier design kept verbatim: one sorted
//! vector of `(name, labels)` series per registry, found by binary search
//! with borrowed `&str` compares. Random sequences of counter, gauge and
//! histogram updates, over a small name pool with labels passed in
//! permuted orders, go through handles and string calls on one side and
//! through the reference on the other. The operations are split into
//! segments that are captured with `record_segment` and replayed in a
//! random order; both expositions must come out byte-equal.

use crowd_obs::{
    install_recorder, record_segment, render_json, render_prometheus, replay, BucketCount,
    CounterId, GaugeId, HistogramId, LabelPair, MetricSample, Recorder, SampleValue,
    DEFAULT_BUCKETS,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The registry this crate used before series were interned, verbatim
/// apart from returning the crate's public sample types.
mod reference {
    use super::{BucketCount, LabelPair, MetricSample, SampleValue};
    use std::cmp::Ordering;
    use std::sync::{Mutex, MutexGuard};

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Histogram {
        bounds: Vec<u64>,
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
        labels: Vec<(String, String)>,
    }

    impl MetricKey {
        fn cmp_borrowed(&self, name: &str, labels: &[(&str, &str)]) -> Ordering {
            self.name.as_str().cmp(name).then_with(|| {
                self.labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .cmp(labels.iter().copied())
            })
        }
    }

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

    type Series = Vec<(MetricKey, MetricCell)>;

    #[derive(Debug, Default)]
    pub struct MetricsRegistry {
        inner: Mutex<Series>,
    }

    impl MetricsRegistry {
        pub fn new() -> Self {
            Self::default()
        }

        fn lock(&self) -> MutexGuard<'_, Series> {
            self.inner.lock().expect("metrics registry lock poisoned")
        }

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

        pub fn observe_with(
            &self,
            name: &str,
            labels: &[(&str, &str)],
            bounds: &[u64],
            value: u64,
        ) {
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
                            sum: h.sum,
                            count: h.count,
                        },
                    },
                })
                .collect()
        }
    }
}

/// A custom layout for the one non-default histogram in the pool.
const CUSTOM_BUCKETS: [u64; 4] = [1, 10, 100, 1000];

/// Label dimensions and their values; an operation picks a subset.
const LABEL_POOL: [(&str, [&str; 3]); 3] = [
    ("class", ["naive", "expert", "naive"]),
    ("kind", ["timeout", "retry", "abandon"]),
    ("tenant", ["t0", "t1", "t12"]),
];

/// One decoded update. Names fix the type (and layout), so the stream
/// never conflicts; the label set and its order vary freely.
#[derive(Debug, Clone)]
struct Op {
    kind: u8,
    name: &'static str,
    labels: Vec<(&'static str, &'static str)>,
    value: u64,
    by_handle: bool,
}

fn decode(code: u64) -> Op {
    let mut bits = code;
    let mut take = |n: u64| {
        let v = bits % n;
        bits /= n;
        v
    };
    let kind = take(4) as u8;
    let name = match (kind, take(2)) {
        (0, 0) => "diff_a_total",
        (0, _) => "diff_b_total",
        (1, 0) => "diff_depth",
        (1, _) => "diff_width",
        (2, 0) => "diff_steps",
        (2, _) => "diff_sizes",
        _ => "diff_custom",
    };
    let mut labels: Vec<(&str, &str)> = Vec::new();
    for (label, values) in LABEL_POOL {
        if take(2) == 1 {
            labels.push((label, values[take(3) as usize]));
        }
    }
    // Permute the label order: the series must not depend on it.
    for i in (1..labels.len()).rev() {
        labels.swap(i, take(i as u64 + 1) as usize);
    }
    let by_handle = take(2) == 1;
    let value = match take(3) {
        0 => take(4),
        1 => take(5000),
        _ => take(4_000_000),
    };
    Op {
        kind,
        name,
        labels,
        value,
        by_handle,
    }
}

/// Applies `op` to the recorders installed on this thread.
fn apply(op: &Op) {
    let (name, labels, v) = (op.name, op.labels.as_slice(), op.value);
    match (op.kind, op.by_handle) {
        (0, true) => CounterId::new(name, labels).add(v),
        (0, false) => crowd_obs::counter_add(name, labels, v),
        (1, true) => GaugeId::new(name, labels).set(v as i64 - 2_000_000),
        (1, false) => crowd_obs::gauge_set(name, labels, v as i64 - 2_000_000),
        (2, true) => HistogramId::new(name, labels).observe(v),
        (2, false) => crowd_obs::observe(name, labels, v),
        (_, true) => HistogramId::with_buckets(name, labels, &CUSTOM_BUCKETS).observe(v),
        (_, false) => {
            for rec in crowd_obs::current_recorders() {
                rec.metrics().observe_with(name, labels, &CUSTOM_BUCKETS, v);
            }
        }
    }
}

/// Applies `op` to the reference registry.
fn apply_reference(reg: &reference::MetricsRegistry, op: &Op) {
    let (name, labels, v) = (op.name, op.labels.as_slice(), op.value);
    match op.kind {
        0 => reg.counter_add(name, labels, v),
        1 => reg.gauge_set(name, labels, v as i64 - 2_000_000),
        2 => reg.observe_with(name, labels, &DEFAULT_BUCKETS, v),
        _ => reg.observe_with(name, labels, &CUSTOM_BUCKETS, v),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interned_store_renders_like_the_sorted_vector_registry(
        codes in prop::collection::vec(any::<u64>(), 0..120),
        cuts in prop::collection::vec(any::<u64>(), 0..6),
        order_seed in any::<u64>(),
    ) {
        let ops: Vec<Op> = codes.iter().map(|&c| decode(c)).collect();
        // Segment boundaries at the cut points, then a shuffled replay
        // order (xorshift64*, no rand dependency).
        let mut bounds: Vec<usize> = cuts.iter().map(|c| (*c as usize) % (ops.len() + 1)).collect();
        bounds.extend([0, ops.len()]);
        bounds.sort_unstable();
        let segments: Vec<&[Op]> = bounds.windows(2).map(|w| &ops[w[0]..w[1]]).collect();
        let mut order: Vec<usize> = (0..segments.len()).collect();
        let mut state = order_seed | 1;
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state as usize) % (i + 1));
        }

        let recorder = Arc::new(Recorder::new());
        let expected = reference::MetricsRegistry::new();
        {
            let _g = install_recorder(recorder.clone());
            let captured: Vec<_> = segments
                .iter()
                .map(|seg| record_segment(|| seg.iter().for_each(apply)).1)
                .collect();
            let mut captured: Vec<_> = captured.into_iter().map(Some).collect();
            for &i in &order {
                replay(captured[i].take().expect("each segment replays once"));
                let part = reference::MetricsRegistry::new();
                segments[i].iter().for_each(|op| apply_reference(&part, op));
                expected.merge_from(&part);
            }
        }

        let (got, want) = (recorder.metrics().snapshot(), expected.snapshot());
        prop_assert_eq!(render_prometheus(&got), render_prometheus(&want));
        prop_assert_eq!(render_json(&got), render_json(&want));
    }
}
