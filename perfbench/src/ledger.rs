//! Host-time ledger of one shard world, filled from outside the library.
//!
//! The benchmark never edits library code: it times calls *into* public
//! functions. Two kinds of interval are recorded, both in seconds since
//! the ledger was made:
//!
//! - **leaf** intervals — one per synchronous service-trait call, or one
//!   per poll of an async one (a future's time between polls belongs to
//!   whatever else the executor ran, not to the call);
//! - **parent** intervals — calls such as `Cloud::build` or one reconcile
//!   tick, whose self time is their length minus the part of it covered
//!   by leaf intervals ([`stats::self_time`]).
//!
//! A shard world runs on one pool thread from start to finish, so a
//! ledger sees one thread's timeline and its intervals never interleave
//! with another thread's.

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Instant;

use bolted_core::BoxFuture;
use bolted_sim::lock;

use crate::stats;

/// Time and call count of one named layer operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Host seconds (self time, for parents).
    pub secs: f64,
    /// Calls made.
    pub calls: u64,
}

impl Totals {
    fn add(&mut self, other: Totals) {
        self.secs += other.secs;
        self.calls += other.calls;
    }
}

#[derive(Default)]
struct State {
    leaf_ops: BTreeMap<&'static str, Totals>,
    leaves: Vec<(f64, f64)>,
    parents: BTreeMap<&'static str, Vec<(f64, f64)>>,
    counts: BTreeMap<&'static str, u64>,
}

/// One shard's recorder. Shared by the timing decorators of every
/// tenant in the shard, hence `Arc` + `Mutex` (the service traits are
/// `Send + Sync`); the lock is never contended.
pub struct Ledger {
    origin: Instant,
    state: Mutex<State>,
}

impl Ledger {
    /// A fresh ledger whose clock starts now.
    pub fn new() -> Arc<Ledger> {
        Arc::new(Ledger {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    /// Seconds since the ledger was made.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn record_leaf(&self, name: &'static str, start: f64, end: f64, new_call: bool) {
        let mut st = lock(&self.state);
        let t = st.leaf_ops.entry(name).or_default();
        t.secs += end - start;
        t.calls += u64::from(new_call);
        st.leaves.push((start, end));
    }

    /// Times one synchronous leaf call.
    pub fn leaf<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record_leaf(name, start, self.now(), true);
        out
    }

    /// Wraps an async leaf call so that each poll is timed; the call is
    /// counted once, at its first poll.
    pub fn leaf_async<'a, T: 'a>(
        self: &Arc<Self>,
        name: &'static str,
        inner: BoxFuture<'a, T>,
    ) -> BoxFuture<'a, T> {
        Box::pin(PollTimed {
            inner,
            ledger: self.clone(),
            name,
            polled: false,
        })
    }

    /// Records a parent interval that started at `start` (from
    /// [`Ledger::now`]) and ends now.
    pub fn parent_since(&self, name: &'static str, start: f64) {
        let end = self.now();
        lock(&self.state)
            .parents
            .entry(name)
            .or_default()
            .push((start, end));
    }

    /// Times one synchronous parent call.
    pub fn parent<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.parent_since(name, start);
        out
    }

    /// Adds `n` to a named event counter.
    pub fn count(&self, name: &'static str, n: u64) {
        *lock(&self.state).counts.entry(name).or_default() += n;
    }

    /// Reduces the recorded intervals to per-layer totals: leaves as
    /// recorded, parents as self time.
    pub fn summary(&self) -> Summary {
        let st = lock(&self.state);
        let parents = st
            .parents
            .iter()
            .map(|(&name, iv)| {
                let totals = Totals {
                    secs: stats::self_time(iv, &st.leaves),
                    calls: iv.len() as u64,
                };
                let inclusive = iv.iter().map(|(s, e)| e - s).sum();
                (name, (totals, inclusive))
            })
            .collect();
        Summary {
            leaves: st.leaf_ops.clone(),
            parents,
            counts: st.counts.clone(),
        }
    }
}

/// Per-layer totals of one or more shards.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Leaf operations (service-trait calls).
    pub leaves: BTreeMap<&'static str, Totals>,
    /// Parent layers: (self time and calls, inclusive seconds).
    pub parents: BTreeMap<&'static str, (Totals, f64)>,
    /// Event counters.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Summary {
    /// Folds another shard's summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        for (&k, &v) in &other.leaves {
            self.leaves.entry(k).or_default().add(v);
        }
        for (&k, &(t, inclusive)) in &other.parents {
            let e = self.parents.entry(k).or_default();
            e.0.add(t);
            e.1 += inclusive;
        }
        for (&k, &v) in &other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }

    /// A leaf's totals (zero when never called).
    pub fn leaf(&self, name: &str) -> Totals {
        self.leaves.get(name).copied().unwrap_or_default()
    }

    /// A parent's self-time totals (zero when never entered).
    pub fn parent(&self, name: &str) -> Totals {
        self.parents.get(name).map(|p| p.0).unwrap_or_default()
    }

    /// A parent's inclusive seconds.
    pub fn inclusive(&self, name: &str) -> f64 {
        self.parents.get(name).map_or(0.0, |p| p.1)
    }

    /// A counter's value (zero when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Seconds attributed to some layer: every leaf plus every parent's
    /// self time. Disjoint by construction, so the sum never counts an
    /// instant twice.
    pub fn attributed_secs(&self) -> f64 {
        let leaves: f64 = self.leaves.values().map(|t| t.secs).sum();
        let parents: f64 = self.parents.values().map(|p| p.0.secs).sum();
        leaves + parents
    }
}

struct PollTimed<'a, T> {
    inner: BoxFuture<'a, T>,
    ledger: Arc<Ledger>,
    name: &'static str,
    polled: bool,
}

impl<T> Future for PollTimed<'_, T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let this = &mut *self;
        let start = this.ledger.now();
        let out = this.inner.as_mut().poll(cx);
        this.ledger
            .record_leaf(this.name, start, this.ledger.now(), !this.polled);
        this.polled = true;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_self_time_excludes_nested_leaves() {
        let ledger = Ledger::new();
        ledger.parent("outer", || {
            ledger.leaf("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let s = ledger.summary();
        let inner = s.leaf("inner");
        let outer = s.parent("outer");
        assert_eq!((inner.calls, outer.calls), (1, 1));
        assert!(inner.secs >= 0.020, "{inner:?}");
        assert!(outer.secs >= 0.010 && outer.secs < 0.020, "{outer:?}");
        let total = s.inclusive("outer");
        assert!((s.attributed_secs() - total).abs() < 1e-9);
    }

    #[test]
    fn async_leaf_counts_one_call_over_many_polls() {
        let sim = bolted_sim::Sim::new();
        let ledger = Ledger::new();
        let fut = {
            let sim = sim.clone();
            ledger.leaf_async(
                "sleepy",
                Box::pin(async move {
                    for _ in 0..3 {
                        sim.sleep(bolted_sim::SimDuration::from_secs_f64(1.0)).await;
                    }
                    7
                }),
            )
        };
        assert_eq!(sim.block_on(fut), 7);
        assert_eq!(ledger.summary().leaf("sleepy").calls, 1);
    }
}
