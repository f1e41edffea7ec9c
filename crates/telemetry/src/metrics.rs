//! A small metrics registry: counters, gauge values and wall-clock
//! timers, threaded through the acquire → extract → gather → lint →
//! replay pipeline.
//!
//! Keys are dotted strings (`"gather.retries"`, `"replay.ops"`); the
//! registry is a cheap clonable handle, so every pipeline stage can hold
//! one without plumbing mutable references around. The JSON rendering
//! ([`Metrics::to_json`]) deliberately excludes wall-clock timers so
//! that identical replays produce byte-identical metrics files; the
//! text table ([`Metrics::render_text`]) shows them for humans.

use simkern::observer::{Observer, OpRecord};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tit_core::json::{obj, Json};

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    values: BTreeMap<String, f64>,
    timers: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
}

/// Handle to a metrics registry. Clones share the same underlying state.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<Inner>>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `by` to the counter `key` (created at zero).
    pub fn incr(&self, key: &str, by: u64) {
        // panics: mutex poisoned only if another thread already panicked
        let mut g = self.inner.lock().unwrap();
        *g.counters.entry(key.to_owned()).or_insert(0) += by;
    }

    /// Sets the gauge value `key`.
    pub fn set_value(&self, key: &str, v: f64) {
        // panics: mutex poisoned only if another thread already panicked
        self.inner.lock().unwrap().values.insert(key.to_owned(), v);
    }

    /// Sets the gauge `key` to `v` — the level-style alias of
    /// [`Metrics::set_value`] (a gauge reports a *current level*, where
    /// a counter only ever goes up). Gauges render in the `"values"`
    /// section of [`Metrics::to_json`] in deterministic sorted-key
    /// order.
    pub fn gauge_set(&self, key: &str, v: f64) {
        self.set_value(key, v);
    }

    /// Adds `delta` (possibly negative) to the gauge `key`, created at
    /// zero. This is what counters cannot express: a queue-depth or
    /// in-flight gauge moves both ways — `gauge_add(+1)` on entry,
    /// `gauge_add(-1)` on exit — and its instantaneous level is the
    /// value reported.
    pub fn gauge_add(&self, key: &str, delta: f64) {
        // panics: mutex poisoned only if another thread already panicked
        let mut g = self.inner.lock().unwrap();
        *g.values.entry(key.to_owned()).or_insert(0.0) += delta;
    }

    /// Adds `seconds` to the wall-clock timer `key` (created at zero).
    pub fn observe_wall(&self, key: &str, seconds: f64) {
        // panics: mutex poisoned only if another thread already panicked
        let mut g = self.inner.lock().unwrap();
        *g.timers.entry(key.to_owned()).or_insert(0.0) += seconds;
    }

    /// Runs `f`, accumulating its wall-clock duration into the timer
    /// `key`, and returns its result.
    pub fn time<T>(&self, key: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.observe_wall(key, t0.elapsed().as_secs_f64());
        out
    }

    /// Current value of the counter `key` (0 when absent).
    #[must_use]
    pub fn counter(&self, key: &str) -> u64 {
        // panics: mutex poisoned only if another thread already panicked
        self.inner.lock().unwrap().counters.get(key).copied().unwrap_or(0)
    }

    /// Current gauge value `key`, if set.
    #[must_use]
    pub fn value(&self, key: &str) -> Option<f64> {
        // panics: mutex poisoned only if another thread already panicked
        self.inner.lock().unwrap().values.get(key).copied()
    }

    /// Sets the free-form note `key` — a short deterministic string such
    /// as a per-rank degradation reason. Notes render in the `"notes"`
    /// section of [`Metrics::to_json`].
    pub fn set_note(&self, key: &str, text: &str) {
        // panics: mutex poisoned only if another thread already panicked
        self.inner.lock().unwrap().notes.insert(key.to_owned(), text.to_owned());
    }

    /// Current note `key`, if set.
    #[must_use]
    pub fn note(&self, key: &str) -> Option<String> {
        // panics: mutex poisoned only if another thread already panicked
        self.inner.lock().unwrap().notes.get(key).cloned()
    }

    /// Accumulated wall-clock seconds in timer `key` (0 when absent).
    #[must_use]
    pub fn wall(&self, key: &str) -> f64 {
        // panics: mutex poisoned only if another thread already panicked
        self.inner.lock().unwrap().timers.get(key).copied().unwrap_or(0.0)
    }

    /// An [`Observer`] that feeds this registry from an engine run:
    /// every completed operation bumps `{prefix}.ops`, actor lifecycle
    /// events bump `{prefix}.actors_started` / `{prefix}.actors_ended`,
    /// and the engine-end event sets the gauge
    /// `{prefix}.simulated_time`.
    #[must_use]
    pub fn observer(&self, prefix: &str) -> Box<dyn Observer> {
        Box::new(MetricsObserver { metrics: self.clone(), prefix: prefix.to_owned() })
    }

    /// Counters, gauge values and notes as one `titobs-metrics-v1`
    /// object: keys sorted, **no wall-clock timers**. This is the value
    /// [`Metrics::to_json`] renders and the serve `metrics` op embeds.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        fn section<V: Clone + Into<Json>>(m: &BTreeMap<String, V>) -> Json {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), v.clone().into())).collect())
        }
        // panics: mutex poisoned only if another thread already panicked
        let g = self.inner.lock().unwrap();
        obj(vec![
            ("schema", "titobs-metrics-v1".into()),
            ("counters", section(&g.counters)),
            ("values", section(&g.values)),
            ("notes", section(&g.notes)),
        ])
    }

    /// Serialises [`Metrics::to_json_value`] as one deterministic JSON
    /// line: identical runs produce byte-identical output. See
    /// `DESIGN.md` §5d for the schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!("{}\n", self.to_json_value())
    }

    /// Renders everything (counters, values, wall timers) as an aligned
    /// text table.
    #[must_use]
    pub fn render_text(&self) -> String {
        // panics: mutex poisoned only if another thread already panicked
        let g = self.inner.lock().unwrap();
        let mut out = String::new();
        for (k, v) in &g.counters {
            out.push_str(&format!("{k:<32} {v}\n"));
        }
        for (k, v) in &g.values {
            out.push_str(&format!("{k:<32} {v}\n"));
        }
        for (k, v) in &g.timers {
            out.push_str(&format!("{k:<32} {v:.6}s (wall)\n"));
        }
        for (k, v) in &g.notes {
            out.push_str(&format!("{k:<32} {v}\n"));
        }
        out
    }
}

struct MetricsObserver {
    metrics: Metrics,
    prefix: String,
}

impl Observer for MetricsObserver {
    fn record(&mut self, _rec: OpRecord) {
        self.metrics.incr(&format!("{}.ops", self.prefix), 1);
    }

    fn actor_started(&mut self, _actor: usize, _time: f64) {
        self.metrics.incr(&format!("{}.actors_started", self.prefix), 1);
    }

    fn actor_ended(&mut self, _actor: usize, _time: f64) {
        self.metrics.incr(&format!("{}.actors_ended", self.prefix), 1);
    }

    fn engine_ended(&mut self, time: f64) {
        self.metrics.set_value(&format!("{}.simulated_time", self.prefix), time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_values_and_timers_accumulate() {
        let m = Metrics::new();
        m.incr("a.x", 2);
        m.incr("a.x", 3);
        m.set_value("a.t", 1.25);
        m.observe_wall("a.wall", 0.5);
        let out = m.time("a.wall", || 7);
        assert_eq!(out, 7);
        assert_eq!(m.counter("a.x"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.value("a.t"), Some(1.25));
        assert!(m.wall("a.wall") >= 0.5);
    }

    #[test]
    fn observer_feeds_registry() {
        let m = Metrics::new();
        let mut obs = m.observer("replay");
        obs.actor_started(0, 0.0);
        obs.actor_started(1, 0.0);
        obs.record(OpRecord { actor: 0, tag: 3, start: 0.0, end: 1.0, volume: 8.0 });
        obs.record(OpRecord { actor: 1, tag: 3, start: 0.0, end: 1.0, volume: 8.0 });
        obs.actor_ended(0, 1.0);
        obs.actor_ended(1, 1.0);
        obs.engine_ended(1.0);
        assert_eq!(m.counter("replay.ops"), 2);
        assert_eq!(m.counter("replay.actors_started"), 2);
        assert_eq!(m.counter("replay.actors_ended"), 2);
        assert_eq!(m.value("replay.simulated_time"), Some(1.0));
    }

    #[test]
    fn json_is_deterministic_and_excludes_timers() {
        let m = Metrics::new();
        m.incr("b.count", 1);
        m.incr("a.count", 2);
        m.set_value("z.gauge", 0.5);
        m.observe_wall("wall.secs", 123.0);
        let a = m.to_json();
        let b = m.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\":\"titobs-metrics-v1\""));
        // sorted keys: a.count before b.count
        assert!(a.find("a.count").unwrap() < a.find("b.count").unwrap());
        assert!(!a.contains("wall.secs"));
        assert!(m.render_text().contains("wall.secs"));
        assert_eq!(a.lines().count(), 1, "one compact line: {a}");
    }

    #[test]
    fn gauges_move_both_ways_and_render_deterministically() {
        let m = Metrics::new();
        // A queue-depth gauge rises and falls; counters cannot do this.
        m.gauge_add("serve.queue_depth", 1.0);
        m.gauge_add("serve.queue_depth", 1.0);
        m.gauge_add("serve.queue_depth", -1.0);
        assert_eq!(m.value("serve.queue_depth"), Some(1.0));
        m.gauge_set("serve.in_flight", 3.0);
        m.gauge_add("serve.in_flight", -2.0);
        assert_eq!(m.value("serve.in_flight"), Some(1.0));
        // gauge_set overwrites, gauge_add accumulates from zero.
        m.gauge_set("serve.queue_depth", 0.0);
        assert_eq!(m.value("serve.queue_depth"), Some(0.0));
        m.gauge_add("fresh", -2.5);
        assert_eq!(m.value("fresh"), Some(-2.5));
        // Deterministic rendering: gauges land in "values", keys sorted.
        let a = m.to_json();
        assert_eq!(a, m.to_json());
        assert!(a.contains("\"serve.in_flight\":1"));
        assert!(
            a.find("\"fresh\"").unwrap() < a.find("\"serve.in_flight\"").unwrap(),
            "values must render in sorted key order: {a}"
        );
        assert!(
            a.find("\"serve.in_flight\"").unwrap() < a.find("\"serve.queue_depth\"").unwrap(),
            "values must render in sorted key order: {a}"
        );
    }

    #[test]
    fn notes_render_escaped_in_json() {
        let m = Metrics::new();
        m.set_note("degraded.rank0", "missing-file: SG_process0.trace");
        m.set_note("weird", "a\"b\\c\nd");
        assert_eq!(m.note("degraded.rank0").as_deref(), Some("missing-file: SG_process0.trace"));
        assert_eq!(m.note("absent"), None);
        let j = m.to_json();
        assert!(j.contains("\"notes\":{"));
        assert!(j.contains("\"degraded.rank0\":\"missing-file: SG_process0.trace\""));
        assert!(j.contains("\"weird\":\"a\\\"b\\\\c\\nd\""));
        assert!(j.ends_with("}}\n"));
        assert!(m.render_text().contains("degraded.rank0"));
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.incr("shared", 1);
        assert_eq!(m.counter("shared"), 1);
        assert!(m.render_text().contains("shared"));
    }
}
