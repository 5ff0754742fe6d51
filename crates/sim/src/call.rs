//! The single instrumented call path shared by every service boundary.
//!
//! Fault injection, op counters, retry accounting and span windows used
//! to be hand-threaded through each call site — the BMC adapter, the
//! switch management plane, the iSCSI gateway and the Keylime verifier
//! each carried their own `Arc<Mutex<Faults>>`/`Metrics` pair plus the
//! same install/clone/consult boilerplate. This module folds that
//! plumbing into two small shared handles:
//!
//! * [`OpGate`] sits on the *service* side of a boundary. It owns the
//!   late-installable fault + metrics handles and applies the canonical
//!   per-attempt discipline: count the attempt, then consult the fault
//!   plan.
//! * [`CallEnv`] sits on the *orchestration* side (a tenant script, the
//!   verifier). It bundles the clock with fault/span/metrics handles and
//!   runs the one retry loop ([`CallEnv::call`]) so retried service calls
//!   are uniformly counted and backed off, and phase spans open and close
//!   in one place.
//!
//! Both are cheap to clone and use double indirection (`Arc<Mutex<…>>`)
//! so a handle installed *after* a component was cloned into its
//! consumers is still seen by every clone. With nothing installed, both
//! are free: no RNG draws, no allocation, no timers.

use std::future::Future;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::executor::lock;
use crate::executor::Sim;
use crate::fault::{plan_epoch, FaultDecision, FaultInjected, Faults};
use crate::metrics::Metrics;
use crate::retry::{with_timeout, RetryError, RetryPolicy};
use crate::rng::Rng;
use crate::span::{SpanId, Spans};
use crate::time::SimTime;

struct GateInner {
    faults: Faults,
    metrics: Metrics,
}

struct GateShared {
    slots: Mutex<GateInner>,
    /// `plan_epoch << 1 | armed`: whether the installed fault plan had
    /// rules, as of that plan epoch. [`OpGate::pass`] trusts it with no
    /// lock while the epoch still matches.
    armed: AtomicU64,
    /// Bumped by every [`OpGate::set_metrics`], so callers that cached
    /// counter handles know to re-resolve them.
    metrics_epoch: AtomicU64,
}

/// The service-side half of the instrumented call path: one handle per
/// gated component, replacing its hand-rolled fault + metrics pair.
///
/// `OpGate` is sim-free so components that must not depend on virtual
/// time (HIL, the minimal TCB) can still count through it; only
/// [`OpGate::pass`] — the async latency-injecting gate — takes a [`Sim`].
#[derive(Clone)]
pub struct OpGate {
    inner: Arc<GateShared>,
}

impl OpGate {
    /// A gate with nothing installed: counts nowhere, injects nothing.
    pub fn disabled() -> Self {
        OpGate {
            inner: Arc::new(GateShared {
                slots: Mutex::new(GateInner {
                    faults: Faults::disabled(),
                    metrics: Metrics::disabled(),
                }),
                armed: AtomicU64::new(plan_epoch() << 1),
                metrics_epoch: AtomicU64::new(0),
            }),
        }
    }

    /// A gate with fault and metrics handles installed up front.
    pub fn with(faults: &Faults, metrics: &Metrics) -> Self {
        let gate = Self::disabled();
        gate.set_faults(faults);
        gate.set_metrics(metrics);
        gate
    }

    /// Installs a fault-injection handle; every clone of this gate
    /// (including ones taken before this call) consults it.
    pub fn set_faults(&self, faults: &Faults) {
        let mut slots = lock(&self.inner.slots);
        slots.faults = faults.clone();
        self.refresh_armed(&slots);
    }

    /// Attaches a metrics registry; every clone of this gate sees it.
    pub fn set_metrics(&self, metrics: &Metrics) {
        lock(&self.inner.slots).metrics = metrics.clone();
        self.inner.metrics_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// The installed fault handle (a cheap shared clone).
    pub fn faults(&self) -> Faults {
        lock(&self.inner.slots).faults.clone()
    }

    /// The installed metrics registry (a cheap shared clone).
    pub fn metrics(&self) -> Metrics {
        lock(&self.inner.slots).metrics.clone()
    }

    /// How many times a registry has been installed. A caller that
    /// caches counter handles resolved from [`OpGate::metrics_at_epoch`]
    /// re-resolves them when this no longer matches.
    pub fn metrics_epoch(&self) -> u64 {
        self.inner.metrics_epoch.load(Ordering::SeqCst)
    }

    /// The installed registry together with the epoch it belongs to.
    pub fn metrics_at_epoch(&self) -> (Metrics, u64) {
        let slots = lock(&self.inner.slots);
        (slots.metrics.clone(), self.metrics_epoch())
    }

    /// Re-reads whether the installed plan has rules. The epoch is read
    /// before the plan, so a concurrent install leaves a stale epoch
    /// behind and the next [`OpGate::pass`] checks again.
    fn refresh_armed(&self, slots: &GateInner) -> bool {
        let epoch = plan_epoch();
        let armed = slots.faults.enabled();
        self.inner
            .armed
            .store(epoch << 1 | u64::from(armed), Ordering::SeqCst);
        armed
    }

    /// True when counting or injecting would observe anything. Sync call
    /// sites that must build a target string per call check this first so
    /// the disabled path allocates nothing.
    pub fn is_live(&self) -> bool {
        let inner = lock(&self.inner.slots);
        inner.faults.enabled() || inner.metrics.is_enabled()
    }

    /// One attempt of a synchronous operation: bumps
    /// `counter{target=..}`, then consults the fault plan. `Delay`
    /// degrades to `Allow` — a synchronous request/response cannot
    /// stretch virtual time — so only `Fail` is observable.
    pub fn tap(&self, counter: &str, op: &str, target: &str) -> Result<(), FaultInjected> {
        let (faults, metrics) = {
            let inner = lock(&self.inner.slots);
            (inner.faults.clone(), inner.metrics.clone())
        };
        metrics.inc(counter, &[("target", target)]);
        if faults.enabled() && faults.decide(op, target) == FaultDecision::Fail {
            return Err(FaultInjected {
                op: op.to_string(),
                target: target.to_string(),
            });
        }
        Ok(())
    }

    /// One attempt of an asynchronous operation: consults the fault
    /// plan, sleeping out injected latency spikes. Counting is left to
    /// the caller — async paths count completed work, not attempts.
    ///
    /// With an empty plan this takes no lock and clones no handle: the
    /// gate trusts its cached emptiness until a plan is installed
    /// somewhere (the plan epoch moves).
    pub async fn pass(&self, sim: &Sim, op: &str, target: &str) -> Result<(), FaultInjected> {
        let cached = self.inner.armed.load(Ordering::SeqCst);
        if cached & 1 == 0 && cached >> 1 == plan_epoch() {
            return Ok(());
        }
        let faults = {
            let slots = lock(&self.inner.slots);
            if !self.refresh_armed(&slots) {
                return Ok(());
            }
            slots.faults.clone()
        };
        faults.gate(sim, op, target).await
    }

    /// Bumps `counter{key=value}` in the installed registry.
    pub fn count(&self, counter: &str, key: &str, value: &str) {
        self.metrics().inc(counter, &[(key, value)]);
    }
}

struct EnvInner {
    faults: Faults,
    spans: Spans,
    metrics: Metrics,
}

/// An open phase window: the span plus its start time, returned by
/// [`CallEnv::open_phase`] and consumed by [`CallEnv::close_phase`].
///
/// Dropping the handle without closing it leaves the span open — which
/// is the *intended* error-path behaviour: the enclosing root span's
/// close pops it, recording exactly where the run stopped.
#[derive(Debug, Clone, Copy)]
pub struct PhaseHandle {
    /// The open span.
    pub span: SpanId,
    /// When the phase started.
    pub started: SimTime,
}

/// The orchestration-side half of the instrumented call path: the clock
/// plus fault/span/metrics handles, behind one install point.
#[derive(Clone)]
pub struct CallEnv {
    sim: Sim,
    inner: Arc<Mutex<EnvInner>>,
}

impl CallEnv {
    /// An environment with nothing installed (spans and metrics are
    /// no-ops, the fault plan is empty).
    pub fn new(sim: &Sim) -> Self {
        CallEnv {
            sim: sim.clone(),
            inner: Arc::new(Mutex::new(EnvInner {
                faults: Faults::disabled(),
                spans: Spans::disabled(),
                metrics: Metrics::disabled(),
            })),
        }
    }

    /// The simulation this environment runs on.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Installs a fault-injection handle (seen by every clone).
    pub fn set_faults(&self, faults: &Faults) {
        lock(&self.inner).faults = faults.clone();
    }

    /// Installs span + metrics recorders (seen by every clone).
    pub fn set_observability(&self, spans: &Spans, metrics: &Metrics) {
        let mut inner = lock(&self.inner);
        inner.spans = spans.clone();
        inner.metrics = metrics.clone();
    }

    /// The installed fault handle (a cheap shared clone).
    pub fn faults(&self) -> Faults {
        lock(&self.inner).faults.clone()
    }

    /// The installed span recorder (a cheap shared clone).
    pub fn spans(&self) -> Spans {
        lock(&self.inner).spans.clone()
    }

    /// The installed metrics registry (a cheap shared clone).
    pub fn metrics(&self) -> Metrics {
        lock(&self.inner).metrics.clone()
    }

    /// Runs `op` under `policy`, retrying only errors `is_transient`
    /// accepts, with every re-attempt counted as
    /// `retry_attempts{op,target}`. This is the uniform envelope for
    /// retried service calls: same backoff, same jitter, same counters,
    /// regardless of which service sits behind `op`.
    ///
    /// `op` is called once per attempt and must return a fresh future
    /// each time. The counter is bumped, and jitter drawn from `rng`,
    /// only when the loop actually goes around again, so a first-try
    /// success costs no counter row, no RNG draw, no sleep and no handle
    /// clone.
    pub async fn call<T, E, F, Fut, P>(
        &self,
        policy: &RetryPolicy,
        rng: &mut Rng,
        op_name: &str,
        target: &str,
        mut op: F,
        is_transient: P,
    ) -> Result<T, RetryError<E>>
    where
        F: FnMut() -> Fut,
        Fut: Future<Output = Result<T, E>>,
        P: Fn(&E) -> bool,
    {
        let max = policy.max_attempts.max(1);
        let mut failures = 0u32;
        loop {
            let attempts = failures + 1;
            let outcome = match policy.timeout {
                Some(limit) => with_timeout(&self.sim, limit, op()).await,
                None => Some(op().await),
            };
            match outcome {
                Some(Ok(v)) => return Ok(v),
                Some(Err(error)) if !is_transient(&error) => {
                    return Err(RetryError::Fatal { attempts, error });
                }
                Some(Err(last)) if attempts >= max => {
                    return Err(RetryError::Exhausted { attempts, last });
                }
                None if attempts >= max => return Err(RetryError::TimedOut { attempts }),
                _ => {}
            }
            self.metrics()
                .inc("retry_attempts", &[("op", op_name), ("target", target)]);
            let mut backoff = policy.backoff_for(failures);
            if policy.jitter_cv > 0.0 {
                backoff = backoff.mul_f64(rng.jitter(policy.jitter_cv));
            }
            if !backoff.is_zero() {
                self.sim.sleep(backoff).await;
            }
            failures += 1;
        }
    }

    /// Opens a phase span under `category` and records its start time.
    pub fn open_phase(
        &self,
        category: &'static str,
        name: &'static str,
        target: &str,
    ) -> PhaseHandle {
        let started = self.sim.now();
        let span = self.spans().begin(&self.sim, category, name, target);
        PhaseHandle { span, started }
    }

    /// Closes a phase span and feeds `histogram{phase=<name>}` with its
    /// duration. Call only on success — error paths drop the handle so
    /// the open span marks where the run stopped.
    pub fn close_phase(&self, handle: PhaseHandle, histogram: &str, name: &str) {
        self.spans().end(&self.sim, handle.span);
        self.metrics().observe_duration(
            histogram,
            &[("phase", name)],
            self.sim.now().since(handle.started),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ops, FaultPlan, FaultSpec};

    #[test]
    fn disabled_gate_counts_nothing_and_allows_everything() {
        let gate = OpGate::disabled();
        assert!(!gate.is_live());
        assert!(gate.tap("ops", ops::BMC_POWER, "m1").is_ok());
    }

    #[test]
    fn tap_counts_before_the_fault_decision() {
        let metrics = Metrics::new();
        let faults = Faults::new(FaultPlan::seeded(1).with_target(
            ops::BMC_POWER,
            "m1",
            FaultSpec::permanent(),
        ));
        let gate = OpGate::with(&faults, &metrics);
        assert!(gate.is_live());
        let err = gate.tap("bmc_power_ops", ops::BMC_POWER, "m1").unwrap_err();
        assert_eq!(err.op, ops::BMC_POWER);
        // The attempt was counted even though it failed.
        assert_eq!(metrics.counter("bmc_power_ops", &[("target", "m1")]), 1);
    }

    #[test]
    fn pass_sees_a_plan_installed_after_the_gate_cached_emptiness() {
        let sim = Sim::new();
        let faults = Faults::new(FaultPlan::none());
        let gate = OpGate::with(&faults, &Metrics::disabled());
        let pass = |gate: &OpGate| {
            let (sim2, gate) = (sim.clone(), gate.clone());
            sim.block_on(async move { gate.pass(&sim2, ops::STORAGE_READ, "img").await })
        };
        assert!(pass(&gate).is_ok(), "empty plan: the cached fast path");
        faults.install(FaultPlan::seeded(1).with(ops::STORAGE_READ, FaultSpec::permanent()));
        assert!(pass(&gate).is_err(), "install moved the plan epoch");
        faults.install(FaultPlan::none());
        assert!(pass(&gate).is_ok());
        assert_eq!(faults.total_injected(), 0, "install resets the tallies");
    }

    #[test]
    fn late_install_reaches_existing_clones() {
        let gate = OpGate::disabled();
        let taken_early = gate.clone();
        let metrics = Metrics::new();
        gate.set_metrics(&metrics);
        taken_early.count("hil_ops", "op", "allocate");
        assert_eq!(metrics.counter("hil_ops", &[("op", "allocate")]), 1);
    }

    #[test]
    fn phase_window_records_span_and_histogram_on_close() {
        let sim = Sim::new();
        let env = CallEnv::new(&sim);
        let spans = Spans::new();
        let metrics = Metrics::new();
        env.set_observability(&spans, &metrics);
        let handle = env.open_phase("tenant", "firmware", "m1");
        env.close_phase(handle, "provision_phase_seconds", "firmware");
        let record = spans.find("firmware", "m1").expect("span recorded");
        assert!(record.end.is_some());
        assert_eq!(
            metrics
                .histogram("provision_phase_seconds", &[("phase", "firmware")])
                .map(|h| h.stats.count()),
            Some(1)
        );
    }
}
