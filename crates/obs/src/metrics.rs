//! The metrics store: counters, gauges and fixed-bucket histograms.
//!
//! Each `(name, sorted labels)` series is interned once per process into
//! a dense series id, and the interner records the series' type and, for
//! a histogram, its bucket layout. A [`MetricsRegistry`] is only the
//! cells, one slot per id, behind one mutex. Hot call sites register
//! their series up front and hold typed handles ([`CounterId`],
//! [`GaugeId`], [`HistogramId`]), so an update is one indexed write: no
//! label sort, no string compare, no layout check, and no allocation
//! after the series' first touch. The string API
//! ([`MetricsRegistry::counter_add`], `gauge_set`, `observe`,
//! `observe_with`) resolves through the same interner into the same
//! cells. The rule: a site that runs per judgment, unit, job or tick
//! holds handles, and per-judgment values are batched per job or pair
//! ([`HistogramId::observe_each`]); per-round, per-checkpoint and
//! per-experiment sites may pass strings.
//!
//! Updates made through the recorder stack ([`crate::install_recorder`])
//! do not lock a registry. They land in the writing thread's own cells,
//! which only that thread touches, and reach the installed recorders'
//! registries at the thread's next flush point (see
//! [`crate::Recorder`]): one lock per recorder per flush, which adds the
//! touched cells in and then zeroes them in place so the next update
//! allocates nothing. The registry's own lock is taken at flushes,
//! merges, snapshots and direct string updates.
//!
//! A type or layout conflict panics once, at registration, and outside
//! any registry lock, so a caught conflict leaves every registry usable.
//! Ids never reach an output: [`MetricsRegistry::snapshot`] sorts the
//! touched series by key.
//!
//! The parallel runners never contend on a registry: each work item
//! writes into a private per-segment registry ([`crate::record_segment`])
//! that is merged into its parent at the join. Merging is associative and
//! commutative (counters and histogram buckets add, gauges take the
//! maximum), so the aggregate is independent of worker scheduling, and a
//! flush that adds a thread's cells in is a merge like any other.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, RwLock};

/// Default histogram bounds: powers of two from 1 to 2²⁰, plus the
/// implicit `+Inf` bucket. Wide enough for latency steps, retry depths,
/// round sizes and per-round comparison counts alike. Bound `i` is `2^i`,
/// so a histogram of this layout finds a value's bucket in closed form
/// instead of searching the bounds.
pub const DEFAULT_BUCKETS: [u64; 21] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288, 1048576,
];

/// The bucket of `value` in the [`DEFAULT_BUCKETS`] layout: the first
/// bound `2^i ≥ value`, so `ceil(log2 value)`, 0 for `value ≤ 1` and the
/// `+Inf` slot past `2²⁰`.
fn default_bucket(value: u64) -> usize {
    let bits = u64::BITS - value.saturating_sub(1).leading_zeros();
    (bits as usize).min(DEFAULT_BUCKETS.len())
}

/// A fixed-bucket histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, ascending; the
    /// layout interned with the series.
    bounds: &'static [u64],
    /// True when `bounds` is [`DEFAULT_BUCKETS`], whose buckets are found
    /// by [`default_bucket`].
    default_layout: bool,
    /// Per-bucket (non-cumulative) counts; one extra slot for `+Inf`.
    buckets: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            default_layout: bounds == DEFAULT_BUCKETS,
            buckets: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let bucket = if self.default_layout {
            default_bucket(value)
        } else {
            self.bounds.partition_point(|&b| b < value)
        };
        self.buckets[bucket] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Adds `other`'s observations. Both sides belong to one series, so
    /// they share its interned layout.
    fn merge(&mut self, other: &Histogram) {
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
    fn is(&self, name: &str, sorted: &[(&str, &str)]) -> bool {
        self.name == name
            && self.labels.len() == sorted.len()
            && self
                .labels
                .iter()
                .zip(sorted)
                .all(|((k, v), (bk, bv))| k == bk && v == bv)
    }
}

/// Hashes the name and sorted labels a word at a time. Each field's last
/// word carries its length, so field boundaries cannot shift and borrowed
/// and owned keys hash alike. The hash only picks the chain to search:
/// [`Interner::find`] still compares the keys.
fn key_hash(name: &str, sorted: &[(&str, &str)]) -> u64 {
    fn eat(hash: &mut u64, field: &str) {
        let mut mix = |word: u64| {
            *hash = (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        };
        let mut chunks = field.as_bytes().chunks_exact(8);
        for chunk in &mut chunks {
            mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        mix(u64::from_le_bytes(tail) ^ ((field.len() as u64) << 56));
    }
    let mut hash = 0;
    eat(&mut hash, name);
    for (k, v) in sorted {
        eat(&mut hash, k);
        eat(&mut hash, v);
    }
    hash
}

/// Label sets up to this size are sorted on the stack; larger ones (none
/// in this workspace) spill to the heap.
const INLINE_LABELS: usize = 8;

/// A series' metric type, fixed when it is first registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind<'a> {
    Counter,
    Gauge,
    Histogram(&'a [u64]),
}

impl Kind<'_> {
    fn type_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram(_) => "histogram",
        }
    }
}

/// The process-wide index of one `(name, sorted labels)` series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeriesId(u32);

/// Every series this process has registered, in registration order.
struct Interner {
    /// Each series' key and kind, indexed by id.
    series: Vec<(MetricKey, Kind<'static>)>,
    /// Series ids by [`key_hash`], one chain per hash.
    by_hash: BTreeMap<u64, Vec<u32>>,
    /// Bucket layouts other than [`DEFAULT_BUCKETS`], leaked once each so
    /// histograms and handles can share them.
    layouts: Vec<&'static [u64]>,
}

static INTERNER: RwLock<Interner> = RwLock::new(Interner {
    series: Vec::new(),
    by_hash: BTreeMap::new(),
    layouts: Vec::new(),
});

impl Interner {
    /// The id and kind of `name{sorted}`, if registered.
    fn find(&self, hash: u64, name: &str, sorted: &[(&str, &str)]) -> Option<(u32, Kind<'static>)> {
        let chain = self.by_hash.get(&hash)?;
        chain.iter().find_map(|&id| {
            let (key, kind) = &self.series[id as usize];
            key.is(name, sorted).then_some((id, *kind))
        })
    }

    fn static_layout(&mut self, bounds: &[u64]) -> &'static [u64] {
        if bounds == DEFAULT_BUCKETS {
            return &DEFAULT_BUCKETS;
        }
        if let Some(layout) = self.layouts.iter().find(|l| **l == bounds) {
            return layout;
        }
        let layout: &'static [u64] = Box::leak(bounds.into());
        self.layouts.push(layout);
        layout
    }
}

/// Finds or registers the series `name{labels}` as a `kind` and returns
/// its id with the registered kind (a histogram's layout is the interned
/// copy).
///
/// # Panics
///
/// Panics, holding no lock, if the series is registered as another type
/// or with another bucket layout.
fn intern(name: &str, labels: &[(&str, &str)], kind: Kind<'_>) -> (SeriesId, Kind<'static>) {
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
    let hash = key_hash(name, sorted);
    let found = INTERNER
        .read()
        .expect("metric interner poisoned")
        .find(hash, name, sorted);
    let (id, registered) = found.unwrap_or_else(|| {
        // Checked before the write lock, so a bad layout cannot poison it.
        if let Kind::Histogram(bounds) = kind {
            assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "bucket bounds must ascend for {name}"
            );
        }
        let mut interner = INTERNER.write().expect("metric interner poisoned");
        if let Some(found) = interner.find(hash, name, sorted) {
            return found;
        }
        let registered = match kind {
            Kind::Counter => Kind::Counter,
            Kind::Gauge => Kind::Gauge,
            Kind::Histogram(bounds) => Kind::Histogram(interner.static_layout(bounds)),
        };
        let id = u32::try_from(interner.series.len()).expect("fewer than 2^32 series");
        let key = MetricKey {
            name: name.to_string(),
            labels: sorted
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        interner.series.push((key, registered));
        interner.by_hash.entry(hash).or_default().push(id);
        (id, registered)
    });
    match (kind, registered) {
        (Kind::Histogram(want), Kind::Histogram(have)) => {
            assert_eq!(have, want, "bucket layouts differ for {name}");
        }
        (want, have) if want != have => {
            panic!(
                "metric {name} is a {}, not a {}",
                have.type_name(),
                want.type_name()
            );
        }
        _ => {}
    }
    (SeriesId(id), registered)
}

/// A pre-registered counter series: updating through it skips the label
/// sort and the series lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(SeriesId);

/// A pre-registered high-watermark gauge series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(SeriesId);

/// A pre-registered histogram series, carrying its interned bucket
/// layout so an observe needs no layout check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId {
    series: SeriesId,
    bounds: &'static [u64],
}

impl CounterId {
    /// Registers the counter `name{labels}` (in any label order), or finds
    /// it if it already exists. Registering touches no registry, so the
    /// series appears in no snapshot until it is updated.
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` is registered as a different metric type.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        CounterId(intern(name, labels, Kind::Counter).0)
    }
}

impl GaugeId {
    /// Registers the gauge `name{labels}`; see [`CounterId::new`].
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` is registered as a different metric type.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        GaugeId(intern(name, labels, Kind::Gauge).0)
    }
}

impl HistogramId {
    /// Registers the histogram `name{labels}` with the [`DEFAULT_BUCKETS`]
    /// layout; see [`CounterId::new`].
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` is registered as a different metric type
    /// or with a different bucket layout.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        Self::with_buckets(name, labels, &DEFAULT_BUCKETS)
    }

    /// Registers the histogram `name{labels}` with an explicit, ascending
    /// bucket layout. Every registration of one series must use the same
    /// layout.
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` is registered as a different metric type
    /// or with a different bucket layout.
    pub fn with_buckets(name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Self {
        match intern(name, labels, Kind::Histogram(bounds)) {
            (series, Kind::Histogram(bounds)) => HistogramId { series, bounds },
            _ => unreachable!("intern checks the kind"),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum MetricCell {
    Counter(u64),
    Gauge(i64),
    Histogram(Histogram),
}

impl MetricCell {
    fn counter(&mut self) -> &mut u64 {
        match self {
            MetricCell::Counter(c) => c,
            _ => unreachable!("{KIND_FIXED}"),
        }
    }

    fn gauge(&mut self) -> &mut i64 {
        match self {
            MetricCell::Gauge(g) => g,
            _ => unreachable!("{KIND_FIXED}"),
        }
    }

    fn histogram(&mut self) -> &mut Histogram {
        match self {
            MetricCell::Histogram(h) => h,
            _ => unreachable!("{KIND_FIXED}"),
        }
    }

    /// Returns the cell to its first-touch value, keeping its allocation.
    fn reset(&mut self) {
        match self {
            MetricCell::Counter(c) => *c = 0,
            MetricCell::Gauge(g) => *g = i64::MIN,
            MetricCell::Histogram(h) => {
                h.buckets.fill(0);
                h.sum = 0;
                h.count = 0;
            }
        }
    }

    fn merge(&mut self, other: &MetricCell) {
        match (self, other) {
            (MetricCell::Counter(a), MetricCell::Counter(b)) => *a += b,
            (MetricCell::Gauge(a), MetricCell::Gauge(b)) => *a = (*a).max(*b),
            (MetricCell::Histogram(a), MetricCell::Histogram(b)) => a.merge(b),
            _ => unreachable!("{KIND_FIXED}"),
        }
    }
}

const KIND_FIXED: &str = "a series' type is fixed when it is registered";

/// A registry's cells, indexed by series id; `None` for series it has
/// never touched.
type Cells = Vec<Option<MetricCell>>;

/// The slot of `series`, grown into `slots` if it is past the end.
fn cell_slot<T>(slots: &mut Vec<Option<T>>, series: SeriesId) -> &mut Option<T> {
    let idx = series.0 as usize;
    if idx >= slots.len() {
        slots.resize_with(idx + 1, || None);
    }
    &mut slots[idx]
}

/// The cell of `series`, created with `init()` on its first touch.
fn cell(cells: &mut Cells, series: SeriesId, init: impl FnOnce() -> MetricCell) -> &mut MetricCell {
    cell_slot(cells, series).get_or_insert_with(init)
}

fn counter_init() -> MetricCell {
    MetricCell::Counter(0)
}

fn gauge_init() -> MetricCell {
    MetricCell::Gauge(i64::MIN)
}

/// One thread's cell of one series, and whether it changed since the
/// thread's last flush point.
struct LocalSlot {
    cell: MetricCell,
    touched: bool,
}

/// A thread's metric updates since its last flush point: plain cells that
/// the thread alone writes, with no lock. A flush adds the touched cells
/// into every installed recorder's registry ([`MetricsRegistry::absorb`])
/// and then [`reset`](LocalCells::reset)s them in place, so a series
/// updated again allocates nothing.
pub(crate) struct LocalCells {
    slots: Vec<Option<LocalSlot>>,
    /// Series touched since the last flush, each once.
    touched: Vec<SeriesId>,
}

impl LocalCells {
    pub(crate) const fn new() -> Self {
        LocalCells {
            slots: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// True when nothing changed since the last reset.
    pub(crate) fn is_clean(&self) -> bool {
        self.touched.is_empty()
    }

    /// The cell of `series`, marked touched.
    fn touch(&mut self, series: SeriesId, init: impl FnOnce() -> MetricCell) -> &mut MetricCell {
        let slot = cell_slot(&mut self.slots, series).get_or_insert_with(|| LocalSlot {
            cell: init(),
            touched: false,
        });
        if !slot.touched {
            slot.touched = true;
            self.touched.push(series);
        }
        &mut slot.cell
    }

    pub(crate) fn add(&mut self, id: CounterId, v: u64) {
        *self.touch(id.0, counter_init).counter() += v;
    }

    pub(crate) fn raise(&mut self, id: GaugeId, v: i64) {
        let g = self.touch(id.0, gauge_init).gauge();
        *g = (*g).max(v);
    }

    /// Records every value of `values`; an empty slice touches nothing,
    /// like a loop of single observes that never runs.
    pub(crate) fn record_each(&mut self, id: HistogramId, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        let init = || MetricCell::Histogram(Histogram::new(id.bounds));
        let h = self.touch(id.series, init).histogram();
        values.iter().for_each(|&v| h.observe(v));
    }

    /// Zeroes every touched cell in place and forgets the touches.
    pub(crate) fn reset(&mut self) {
        for series in self.touched.drain(..) {
            let slot = self.slots[series.0 as usize]
                .as_mut()
                .expect("a touched series has a slot");
            slot.cell.reset();
            slot.touched = false;
        }
    }
}

/// A registry of metric cells. See the module docs for the series,
/// concurrency and merge model.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    cells: Mutex<Cells>,
}

impl Clone for MetricsRegistry {
    fn clone(&self) -> Self {
        MetricsRegistry {
            cells: Mutex::new(self.lock().clone()),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Cells> {
        self.cells.lock().expect("metrics registry lock poisoned")
    }

    /// Moves every cell out into a new registry, leaving this one empty.
    pub(crate) fn take(&self) -> MetricsRegistry {
        MetricsRegistry {
            cells: Mutex::new(std::mem::take(&mut *self.lock())),
        }
    }

    /// Adds `v` to the counter behind `id` (creating it at zero first).
    fn add(&self, id: CounterId, v: u64) {
        *cell(&mut self.lock(), id.0, counter_init).counter() += v;
    }

    /// Raises the high-watermark gauge behind `id` to `v` if `v` exceeds
    /// its current value (see [`MetricsRegistry::gauge_set`]).
    fn raise(&self, id: GaugeId, v: i64) {
        let mut cells = self.lock();
        let g = cell(&mut cells, id.0, gauge_init).gauge();
        *g = (*g).max(v);
    }

    /// Records `value` into the histogram behind `id`.
    fn record(&self, id: HistogramId, value: u64) {
        let init = || MetricCell::Histogram(Histogram::new(id.bounds));
        cell(&mut self.lock(), id.series, init)
            .histogram()
            .observe(value);
    }

    /// Adds every touched cell of `local` into this registry.
    pub(crate) fn absorb(&self, local: &LocalCells) {
        let mut cells = self.lock();
        for &series in &local.touched {
            let theirs = &local.slots[series.0 as usize]
                .as_ref()
                .expect("a touched series has a slot")
                .cell;
            match cell_slot(&mut cells, series) {
                Some(mine) => mine.merge(theirs),
                slot => *slot = Some(theirs.clone()),
            }
        }
    }

    /// Adds `v` to the monotonic counter `name{labels}` (creating it at
    /// zero first).
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` is registered as a different metric type.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.add(CounterId::new(name, labels), v);
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
    /// Panics if `name{labels}` is registered as a different metric type.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: i64) {
        self.raise(GaugeId::new(name, labels), v);
    }

    /// Records `value` into the histogram `name{labels}` with the
    /// [`DEFAULT_BUCKETS`] layout.
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` is registered as a different metric type
    /// or with a different bucket layout.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.record(HistogramId::new(name, labels), value);
    }

    /// Records `value` into the histogram `name{labels}` with an explicit
    /// bucket layout. Every observation of one series must use the same
    /// layout.
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` is registered as a different metric type
    /// or with a different bucket layout.
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64], value: u64) {
        self.record(HistogramId::with_buckets(name, labels, bounds), value);
    }

    /// Merges `other` into `self`: counters and histogram buckets add,
    /// gauges keep the maximum. Associative and commutative, so the result
    /// of folding any number of per-worker registries is independent of
    /// fold order. Merging a registry into itself doubles its counters and
    /// histograms.
    ///
    /// Holds both registries' locks; two registries must not be merged
    /// into each other concurrently.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        if std::ptr::eq(self, other) {
            let copy = self.clone();
            return self.merge_from(&copy);
        }
        let theirs = other.lock();
        let mut mine = self.lock();
        if mine.len() < theirs.len() {
            mine.resize_with(theirs.len(), || None);
        }
        for (slot, cell) in mine.iter_mut().zip(theirs.iter()) {
            if let Some(cell) = cell {
                match slot {
                    Some(mine) => mine.merge(cell),
                    None => *slot = Some(cell.clone()),
                }
            }
        }
    }

    /// True when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.lock().iter().all(Option::is_none)
    }

    /// A sorted, serializable snapshot of every touched metric — the
    /// input of the exposition writers ([`crate::render_prometheus`] /
    /// [`crate::render_json`]) and the `metrics` section of the bench
    /// report. Ordering is by `(name, labels)`, never by id, so two equal
    /// registries snapshot byte-identically whatever order their series
    /// were registered in.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let cells = self.lock();
        let interner = INTERNER.read().expect("metric interner poisoned");
        let mut touched: Vec<(&MetricKey, &MetricCell)> = cells
            .iter()
            .enumerate()
            .filter_map(|(id, cell)| Some((&interner.series[id].0, cell.as_ref()?)))
            .collect();
        touched.sort_unstable_by(|a, b| a.0.cmp(b.0));
        touched
            .into_iter()
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

    /// The bucket the bounds search picks for `value`.
    fn searched_bucket(value: u64) -> usize {
        DEFAULT_BUCKETS.partition_point(|&b| b < value)
    }

    #[test]
    fn the_closed_form_bucket_equals_the_bounds_search() {
        for v in 0..=(1u64 << 21) + 2 {
            assert_eq!(default_bucket(v), searched_bucket(v), "value {v}");
        }
        for k in 1..64 {
            for v in [(1u64 << k) - 1, 1 << k, (1 << k) + 1] {
                assert_eq!(default_bucket(v), searched_bucket(v), "value {v}");
            }
        }
        assert_eq!(default_bucket(u64::MAX), DEFAULT_BUCKETS.len());
        assert_eq!(searched_bucket(u64::MAX), DEFAULT_BUCKETS.len());
    }

    #[test]
    fn only_the_default_layout_takes_the_closed_form() {
        let default = Histogram::new(&DEFAULT_BUCKETS);
        let custom = Histogram::new(&[1, 3, 9]);
        assert!(default.default_layout);
        assert!(!custom.default_layout);
        let mut h = custom;
        for v in [0, 1, 2, 3, 4, 9, 10] {
            h.observe(v);
        }
        assert_eq!(h.buckets, vec![2, 2, 2, 1]);
    }

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
    fn a_caught_type_conflict_leaves_the_registry_usable() {
        let r = MetricsRegistry::new();
        r.gauge_set("conflicted", &[], 4);
        let caught = std::panic::catch_unwind(|| r.counter_add("conflicted", &[], 1));
        let message = caught.expect_err("a gauge is not a counter");
        let message = message.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(message, "metric conflicted is a gauge, not a counter");
        r.gauge_set("conflicted", &[], 9);
        r.counter_add("conflict_free_total", &[], 2);
        let snap = r.snapshot();
        assert_eq!(snap[0].value, SampleValue::Counter { value: 2 });
        assert_eq!(snap[1].value, SampleValue::Gauge { value: 9 });
    }

    #[test]
    #[should_panic(expected = "bucket layouts differ for layout_conflict")]
    fn layout_conflicts_panic_at_registration() {
        let _ = HistogramId::with_buckets("layout_conflict", &[], &[1, 2, 3]);
        let _ = HistogramId::new("layout_conflict", &[]);
    }

    #[test]
    #[should_panic(expected = "bucket bounds must ascend for unordered")]
    fn unordered_bucket_layouts_are_refused() {
        let _ = HistogramId::with_buckets("unordered", &[], &[1, 5, 5]);
    }

    #[test]
    fn handles_and_strings_reach_the_same_cells() {
        let r = MetricsRegistry::new();
        let counter = CounterId::new("shared_total", &[("b", "2"), ("a", "1")]);
        r.add(counter, 1);
        r.counter_add("shared_total", &[("a", "1"), ("b", "2")], 2);
        let hist = HistogramId::with_buckets("shared_hist", &[], &[10, 20]);
        r.record(hist, 15);
        r.observe_with("shared_hist", &[], &[10, 20], 25);
        let gauge = GaugeId::new("shared_depth", &[]);
        r.raise(gauge, 3);
        r.gauge_set("shared_depth", &[], -1);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].value, SampleValue::Gauge { value: 3 });
        let SampleValue::Histogram { buckets, .. } = &snap[1].value else {
            panic!("histogram expected");
        };
        let counts: Vec<u64> = buckets.iter().map(|b| b.count).collect();
        assert_eq!(counts, [0, 1, 2]);
        assert_eq!(snap[2].value, SampleValue::Counter { value: 3 });
    }

    #[test]
    fn merging_a_registry_into_itself_doubles_it() {
        let r = MetricsRegistry::new();
        r.counter_add("self_total", &[], 3);
        r.gauge_set("self_depth", &[], 5);
        r.observe("self_hist", &[], 7);
        r.merge_from(&r);
        let snap = r.snapshot();
        assert_eq!(snap[0].value, SampleValue::Gauge { value: 5 });
        let SampleValue::Histogram { count, sum, .. } = snap[1].value else {
            panic!("histogram expected");
        };
        assert_eq!((count, sum), (2, 14));
        assert_eq!(snap[2].value, SampleValue::Counter { value: 6 });
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
