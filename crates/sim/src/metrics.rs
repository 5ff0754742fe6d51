//! A tiny labelled-metrics registry: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Every series is keyed by `(name, labels)` where labels are a small
//! `&[(key, value)]` slice canonicalised to `k=v,k=v` (in the order the
//! instrumentation passes them — call sites use a fixed order, so equal
//! label sets always canonicalise equally). Series are stored as
//! name → labels → cell, and the labels are canonicalised into one
//! reused scratch buffer, so an update that hits an existing series
//! allocates nothing. [`Metrics::snapshot`] and the JSON export order
//! series by their rendered `name{labels}` key, so two runs under the
//! same seed serialise byte-identically.
//!
//! Counter cells are shared atomics: [`Metrics::counter_handle`]
//! resolves a series once and returns a [`Counter`] that a hot caller
//! bumps with no lock and no lookup.
//!
//! Histograms combine fixed bucket bounds (cumulative-style counts:
//! bucket `i` counts observations `<= bounds[i]`, with one overflow
//! bucket) with an [`OnlineStats`] for exact mean/min/max.
//!
//! Determinism: updating a metric never reads the clock, sleeps, or
//! draws randomness. A disabled registry ([`Metrics::disabled`]) drops
//! every update before building the canonical key.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::executor::lock;
use crate::stats::OnlineStats;
use crate::time::SimDuration;

/// Default histogram bucket bounds, in seconds: spans provisioning-phase
/// scales from milliseconds to minutes.
pub const DEFAULT_BUCKETS: &[f64] = &[0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0];

/// Writes the canonical `k=v,k=v` form of `labels` into `out`.
fn canon_into(out: &mut String, labels: &[(&str, &str)]) {
    out.clear();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
}

/// One fixed-bucket histogram series.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Upper bounds, ascending; observations land in the first bucket
    /// whose bound is `>= x`, or the overflow slot.
    pub bounds: Vec<f64>,
    /// `bounds.len() + 1` counts (last is overflow).
    pub counts: Vec<u64>,
    /// Exact running stats over all observations.
    pub stats: OnlineStats,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            stats: OnlineStats::new(),
        }
    }

    fn observe(&mut self, x: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.stats.push(x);
    }
}

/// A resolved counter series: bumping it takes no lock and does no
/// lookup. Handles from a disabled registry are detached and drop every
/// update.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `delta` to the series.
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increments the series by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The series' current value (0 for a detached handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// name → canonical labels → cell.
type Series<V> = BTreeMap<String, BTreeMap<String, V>>;

/// Applies `f` to the cell `name{labels}`, creating it with `make` on
/// first use. Only a miss allocates (the two owned keys).
fn with_cell<V, R>(
    map: &mut Series<V>,
    name: &str,
    labels: &str,
    make: impl FnOnce() -> V,
    f: impl FnOnce(&mut V) -> R,
) -> R {
    if let Some(cell) = map.get_mut(name).and_then(|by| by.get_mut(labels)) {
        return f(cell);
    }
    let by_labels = map.entry(name.to_string()).or_default();
    f(by_labels.entry(labels.to_string()).or_insert_with(make))
}

fn get_cell<'m, V>(map: &'m Series<V>, name: &str, labels: &str) -> Option<&'m V> {
    map.get(name).and_then(|by| by.get(labels))
}

#[derive(Default)]
struct Registry {
    counters: Series<Arc<AtomicU64>>,
    gauges: Series<f64>,
    histograms: Series<Histogram>,
    /// Reused canonical-label buffer.
    scratch: String,
}

#[derive(Default)]
struct MetricsInner {
    enabled: bool,
    registry: Mutex<Registry>,
}

/// A shared, clonable metrics registry.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

impl Metrics {
    /// Creates an enabled registry.
    pub fn new() -> Self {
        Metrics {
            inner: Arc::new(MetricsInner {
                enabled: true,
                registry: Mutex::default(),
            }),
        }
    }

    /// Creates a registry that drops every update.
    pub fn disabled() -> Self {
        Metrics::default()
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Runs `f` on the registry with `labels` canonicalised into its
    /// reused scratch buffer.
    fn with_key<R>(&self, labels: &[(&str, &str)], f: impl FnOnce(&mut Registry, &str) -> R) -> R {
        let mut reg = lock(&self.inner.registry);
        let mut key = std::mem::take(&mut reg.scratch);
        canon_into(&mut key, labels);
        let out = f(&mut reg, &key);
        reg.scratch = key;
        out
    }

    /// Resolves the counter `name{labels}` to a handle that bumps it
    /// with no lookup. Resolving creates the series (reading 0), so it
    /// appears in [`Metrics::snapshot`] from then on.
    pub fn counter_handle(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        if !self.inner.enabled {
            return Counter::default();
        }
        self.with_key(labels, |reg, key| {
            Counter(Some(with_cell(
                &mut reg.counters,
                name,
                key,
                Default::default,
                |c| Arc::clone(c),
            )))
        })
    }

    /// Adds `delta` to the counter `name{labels}`.
    pub fn add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.counter_handle(name, labels).add(delta);
    }

    /// Increments the counter `name{labels}` by one.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.add(name, labels, 1);
    }

    /// Sets the gauge `name{labels}`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if !self.inner.enabled {
            return;
        }
        self.with_key(labels, |reg, key| {
            with_cell(&mut reg.gauges, name, key, || value, |g| *g = value);
        });
    }

    /// Observes `x` into the histogram `name{labels}` with
    /// [`DEFAULT_BUCKETS`] bounds (set on first observation).
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], x: f64) {
        self.observe_with(name, labels, x, DEFAULT_BUCKETS);
    }

    /// Observes a duration (as seconds) into a histogram.
    pub fn observe_duration(&self, name: &str, labels: &[(&str, &str)], d: SimDuration) {
        self.observe(name, labels, d.as_secs_f64());
    }

    /// [`Metrics::observe`] with explicit bucket bounds (used only when
    /// the series is created).
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], x: f64, bounds: &[f64]) {
        if !self.inner.enabled {
            return;
        }
        self.with_key(labels, |reg, key| {
            with_cell(
                &mut reg.histograms,
                name,
                key,
                || Histogram::new(bounds),
                |h| h.observe(x),
            );
        });
    }

    /// Reads a counter; missing series read as 0.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.with_key(labels, |reg, key| {
            get_cell(&reg.counters, name, key).map_or(0, |c| c.load(Ordering::Relaxed))
        })
    }

    /// Sum of a counter across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        lock(&self.inner.registry)
            .counters
            .get(name)
            .map_or(0, |by| by.values().map(|c| c.load(Ordering::Relaxed)).sum())
    }

    /// Reads a gauge, if set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.with_key(labels, |reg, key| get_cell(&reg.gauges, name, key).copied())
    }

    /// Reads a histogram series, if any observations landed.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        self.with_key(labels, |reg, key| {
            get_cell(&reg.histograms, name, key).cloned()
        })
    }

    /// A stable point-in-time copy of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        fn flatten<V, W>(map: &Series<V>, read: impl Fn(&V) -> W) -> BTreeMap<String, W> {
            map.iter()
                .flat_map(|(n, by)| by.iter().map(move |(l, v)| (series_key(n, l), v)))
                .map(|(k, v)| (k, read(v)))
                .collect()
        }
        let reg = lock(&self.inner.registry);
        MetricsSnapshot {
            counters: flatten(&reg.counters, |c| c.load(Ordering::Relaxed)),
            gauges: flatten(&reg.gauges, |g| *g),
            histograms: flatten(&reg.histograms, Histogram::clone),
        }
    }

    /// Shorthand: `snapshot().to_json()`.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

fn series_key(name: &str, labels: &str) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    }
}

/// Point-in-time copy of a [`Metrics`] registry, ordered and
/// deterministically serialisable.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `name{k=v,...}` → count.
    pub counters: BTreeMap<String, u64>,
    /// `name{k=v,...}` → value.
    pub gauges: BTreeMap<String, f64>,
    /// `name{k=v,...}` → histogram.
    pub histograms: BTreeMap<String, Histogram>,
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` gives the shortest round-trippable form, deterministic
        // across runs and platforms.
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

impl MetricsSnapshot {
    /// Serialises the snapshot as JSON with fully deterministic key
    /// order (hand-rolled — the workspace builds offline, no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_json_string(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_json_string(&mut out, k);
            out.push_str(": ");
            push_f64(&mut out, *v);
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_json_string(&mut out, k);
            out.push_str(": {\"count\": ");
            let _ = write!(out, "{}", h.stats.count());
            out.push_str(", \"mean\": ");
            push_f64(
                &mut out,
                if h.stats.count() > 0 {
                    h.stats.mean()
                } else {
                    0.0
                },
            );
            out.push_str(", \"min\": ");
            push_f64(
                &mut out,
                if h.stats.count() > 0 {
                    h.stats.min()
                } else {
                    0.0
                },
            );
            out.push_str(", \"max\": ");
            push_f64(
                &mut out,
                if h.stats.count() > 0 {
                    h.stats.max()
                } else {
                    0.0
                },
            );
            out.push_str(", \"bounds\": [");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_f64(&mut out, *b);
            }
            out.push_str("], \"counts\": [");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = Metrics::new();
        m.inc("retry_attempts", &[("op", "bmc.power"), ("target", "n1")]);
        m.inc("retry_attempts", &[("op", "bmc.power"), ("target", "n1")]);
        m.inc("retry_attempts", &[("op", "bmc.power"), ("target", "n2")]);
        assert_eq!(
            m.counter("retry_attempts", &[("op", "bmc.power"), ("target", "n1")]),
            2
        );
        assert_eq!(
            m.counter("retry_attempts", &[("op", "bmc.power"), ("target", "n2")]),
            1
        );
        assert_eq!(m.counter_total("retry_attempts"), 3);
        assert_eq!(
            m.counter("retry_attempts", &[("op", "x"), ("target", "n1")]),
            0
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = Metrics::disabled();
        m.inc("c", &[]);
        m.set_gauge("g", &[], 1.0);
        m.observe("h", &[], 0.5);
        let snap = m.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let m = Metrics::new();
        for x in [0.05, 0.05, 2.0, 1000.0] {
            m.observe_with("t", &[], x, &[0.1, 1.0, 10.0]);
        }
        let h = m.histogram("t", &[]).unwrap();
        assert_eq!(h.counts, vec![2, 0, 1, 1]);
        assert_eq!(h.stats.count(), 4);
        assert_eq!(h.stats.max(), 1000.0);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let build = || {
            let m = Metrics::new();
            m.inc("b_counter", &[("op", "z")]);
            m.inc("a_counter", &[]);
            m.set_gauge("free", &[], 3.0);
            m.observe_duration("phase", &[("phase", "post")], SimDuration::from_secs(90));
            m.to_json()
        };
        let a = build();
        assert_eq!(a, build());
        let ai = a.find("a_counter").unwrap();
        let bi = a.find("b_counter").unwrap();
        assert!(ai < bi, "keys sorted");
        assert!(a.contains("\"phase{phase=post}\""));
        assert!(a.contains("\"count\": 1"));
    }

    #[test]
    fn json_bytes_are_golden_for_a_scrambled_registry() {
        let m = Metrics::new();
        m.observe_with("lat", &[("op", "b")], 2.0, &[1.0, 10.0]);
        m.set_gauge("z_gauge", &[], 1.5);
        m.inc("reads", &[("target", "img-b")]);
        let handle = m.counter_handle("reads", &[("target", "img-a")]);
        m.inc("req", &[("op", "x")]);
        m.add("a_total", &[], 7);
        m.set_gauge("free", &[("pool", "x")], 3.0);
        m.observe_with("lat", &[("op", "a")], 0.5, &[1.0, 10.0]);
        handle.add(4);
        m.inc("req_total", &[]);
        m.inc("reads", &[("target", "img-b")]);
        m.observe_with("lat", &[("op", "b")], 20.0, &[1.0, 10.0]);
        handle.inc();
        m.set_gauge("z_gauge", &[], 2.5);
        assert_eq!(handle.get(), 5);
        assert_eq!(m.counter("reads", &[("target", "img-a")]), 5);
        assert_eq!(m.counter_total("reads"), 7);
        // `req_total` sorts before `req{op=x}` (`_` < `{`): the export
        // orders by rendered key, not by name then labels.
        let golden = r#"{
  "counters": {
    "a_total": 7,
    "reads{target=img-a}": 5,
    "reads{target=img-b}": 2,
    "req_total": 1,
    "req{op=x}": 1
  },
  "gauges": {
    "free{pool=x}": 3.0,
    "z_gauge": 2.5
  },
  "histograms": {
    "lat{op=a}": {"count": 1, "mean": 0.5, "min": 0.5, "max": 0.5, "bounds": [1.0, 10.0], "counts": [1, 0, 0]},
    "lat{op=b}": {"count": 2, "mean": 11.0, "min": 2.0, "max": 20.0, "bounds": [1.0, 10.0], "counts": [0, 1, 1]}
  }
}"#;
        assert_eq!(m.to_json(), golden);
    }

    #[test]
    fn handles_from_a_disabled_registry_are_detached() {
        let m = Metrics::disabled();
        let h = m.counter_handle("c", &[("target", "t")]);
        h.add(3);
        assert_eq!(h.get(), 0);
        assert!(m.snapshot().counters.is_empty());
    }

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let m = Metrics::new();
        let j = m.to_json();
        assert!(j.contains("\"counters\": {}"));
        assert!(j.contains("\"gauges\": {}"));
        assert!(j.contains("\"histograms\": {}"));
    }
}
