//! The traced run: a replica of each library shard runner, built only
//! from public functions, with the tenants' services behind timing
//! decorators and every step timed into a per-shard [`Ledger`].
//!
//! The replica must do exactly what the library's runner does, or its
//! numbers describe some other program. So after timing, each shard's
//! output is compared with the untraced run of the same spec: a fleet
//! shard's rendered spans, metrics JSON, counts and virtual time; a
//! reconcile shard's run totals and digest (which folds in its spans,
//! metrics and invariant checks). Any difference fails the run.

use std::collections::BTreeMap;

use bolted_core::{
    run_sharded, AttestationMode, Cloud, FleetSpec, OpBudget, ProvisionedNode, ReconcileFleetSpec,
    TenantReconciler,
};
use bolted_crypto::sha256::{sha256, Digest};
use bolted_sim::{Sim, SimDuration};

use crate::ledger::{Ledger, Summary};
use crate::timed::timed_tenant;
use crate::workload::{create_golden, Report, Spec};

/// Counters read from one shard world's own metrics after its run.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldCounters {
    /// Recorded spans.
    pub spans: u64,
    /// Retry re-attempts (`retry_attempts`).
    pub retries: u64,
    /// Injected faults (`faults_injected`).
    pub faults: u64,
    /// Queue entries deferred (`queue_deferred`).
    pub queue_deferred: u64,
    /// Queue entries dropped (`queue_dropped`).
    pub queue_dropped: u64,
    /// Client reads served by the iSCSI gateway (`storage_read_ops`).
    pub storage_reads: u64,
    /// Provision attempts (`provision_outcomes`).
    pub provisions: u64,
    /// Machines built, each with a fresh TPM endorsement key.
    pub eks: u64,
    /// Virtual seconds the shard ran.
    pub virtual_s: f64,
}

impl WorldCounters {
    fn read(cloud: &Cloud, sim: &Sim) -> WorldCounters {
        let m = &cloud.metrics;
        WorldCounters {
            spans: cloud.spans.len() as u64,
            retries: m.counter_total("retry_attempts"),
            faults: m.counter_total("faults_injected"),
            queue_deferred: m.counter_total("queue_deferred"),
            queue_dropped: m.counter_total("queue_dropped"),
            storage_reads: m.counter_total("storage_read_ops"),
            provisions: m.counter_total("provision_outcomes"),
            eks: cloud.nodes().len() as u64,
            virtual_s: sim.now().as_secs_f64(),
        }
    }

    fn add(&mut self, o: &WorldCounters) {
        self.spans += o.spans;
        self.retries += o.retries;
        self.faults += o.faults;
        self.queue_deferred += o.queue_deferred;
        self.queue_dropped += o.queue_dropped;
        self.storage_reads += o.storage_reads;
        self.provisions += o.provisions;
        self.eks += o.eks;
        self.virtual_s += o.virtual_s;
    }
}

/// Reconcile tick totals summed over every `TenantReconciler::tick`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickTotals {
    /// Plan entries the diffs produced.
    pub planned: u64,
    /// Plan entries deferred to a later tick.
    pub deferred: u64,
    /// Operations executed.
    pub executed: u64,
}

/// What a shard's replica must reproduce of the untraced run.
enum Fidelity {
    Fleet {
        ok: usize,
        failed: usize,
        sim_seconds: f64,
        spans: String,
        metrics: String,
    },
    Reconcile {
        measurements: BTreeMap<String, f64>,
        digest: Digest,
    },
}

struct ShardTrace {
    job_s: f64,
    summary: Summary,
    counters: WorldCounters,
    ticks: TickTotals,
    fidelity: Fidelity,
}

/// The merged result of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Host seconds of the whole sharded run.
    pub wall_s: f64,
    /// Host seconds of each shard job, in shard order.
    pub shard_s: Vec<f64>,
    /// Per-layer totals over all shards.
    pub summary: Summary,
    /// World counters over all shards.
    pub counters: WorldCounters,
    /// Reconcile tick totals over all shards.
    pub ticks: TickTotals,
}

/// Runs the traced replica of `spec` on `workers` threads and checks it
/// against `untraced`, the same spec's run through the public entry
/// point. Only the sharded run itself is inside `wall_s`.
pub fn run(spec: &Spec, workers: usize, untraced: &Report) -> Result<Traced, String> {
    let start = std::time::Instant::now();
    let shards = run_sharded(spec.shards(), workers, |shard| match spec {
        Spec::Fleet(s) => fleet_shard(spec, s, shard),
        Spec::Reconcile(s) => reconcile_shard(spec, s, shard),
    });
    let wall_s = start.elapsed().as_secs_f64();
    let shards = shards.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut out = Traced {
        wall_s,
        ..Traced::default()
    };
    for (i, t) in shards.iter().enumerate() {
        check_fidelity(i, &t.fidelity, untraced)?;
        out.shard_s.push(t.job_s);
        out.summary.merge(&t.summary);
        out.counters.add(&t.counters);
        out.ticks.planned += t.ticks.planned;
        out.ticks.deferred += t.ticks.deferred;
        out.ticks.executed += t.ticks.executed;
    }
    Ok(out)
}

fn check_fidelity(shard: usize, got: &Fidelity, untraced: &Report) -> Result<(), String> {
    let diverged = |what: &str| {
        Err(format!(
            "traced shard {shard}: {what} differs from the untraced run"
        ))
    };
    match (got, untraced) {
        (
            Fidelity::Fleet {
                ok,
                failed,
                sim_seconds,
                spans,
                metrics,
            },
            Report::Fleet(r),
        ) => {
            let Some(want) = r.shards.get(shard) else {
                return diverged("shard count");
            };
            if (*ok, *failed) != (want.ok, want.failed) {
                return diverged("outcome count");
            }
            if sim_seconds.to_bits() != want.sim_seconds.to_bits() {
                return diverged("virtual time");
            }
            if *spans != want.spans {
                return diverged("span tree");
            }
            if *metrics != want.metrics {
                return diverged("metrics snapshot");
            }
            Ok(())
        }
        (
            Fidelity::Reconcile {
                measurements,
                digest,
            },
            Report::Reconcile(r),
        ) => {
            let Some(want) = r.shards.get(shard) else {
                return diverged("shard count");
            };
            if *measurements != want.measurements {
                return diverged("run totals");
            }
            if *digest != want.digest {
                return diverged("shard digest");
            }
            Ok(())
        }
        _ => diverged("workload kind"),
    }
}

/// Replica of the library's fleet shard runner (`run_shard`).
fn fleet_shard(spec: &Spec, s: &FleetSpec, shard: usize) -> Result<ShardTrace, String> {
    let ledger = Ledger::new();
    let sim = Sim::new();
    let cloud = ledger.parent("core.cloud_build", || {
        Cloud::build(&sim, spec.cloud_config(shard))
    });
    let golden = ledger.parent("bmi.create_golden", || create_golden(&cloud))?;
    let tenant = timed_tenant(&cloud, "charlie", &ledger).map_err(|e| e.to_string())?;
    let nodes = cloud.nodes();
    let profile = s.profile.clone();
    let start = ledger.now();
    let report = sim.block_on({
        let tenant = tenant.clone();
        async move {
            tenant
                .provision_fleet_report(&nodes, &profile, golden)
                .await
        }
    });
    ledger.parent_since("core.provision", start);
    let (spans, metrics) = ledger.parent("sim.render", || {
        (cloud.spans.render(), cloud.metrics.to_json())
    });
    let counters = WorldCounters::read(&cloud, &sim);
    let fidelity = Fidelity::Fleet {
        ok: report.succeeded.len(),
        failed: report.failed.len(),
        sim_seconds: sim.now().as_secs_f64(),
        spans,
        metrics,
    };
    ledger.parent("core.teardown", || drop((report, tenant, cloud, sim)));
    Ok(ShardTrace {
        job_s: ledger.now(),
        summary: ledger.summary(),
        counters,
        ticks: TickTotals::default(),
        fidelity,
    })
}

/// Running totals of one shard's epoch loop, as the library keeps them.
#[derive(Default)]
struct Tally {
    ticks: u64,
    planned: u64,
    deferred: u64,
    executed: u64,
    provisioned: u64,
    failed: u64,
    released: u64,
    networks: u64,
    attested: u64,
}

/// Replica of the library's reconcile shard runner
/// (`run_reconcile_shard`).
fn reconcile_shard(
    spec: &Spec,
    s: &ReconcileFleetSpec,
    shard: usize,
) -> Result<ShardTrace, String> {
    let ledger = Ledger::new();
    let sim = Sim::new();
    let cloud = ledger.parent("core.cloud_build", || {
        Cloud::build(&sim, spec.cloud_config(shard))
    });
    let golden = ledger.parent("bmi.create_golden", || create_golden(&cloud))?;
    let mut recs = Vec::new();
    for (t, project) in spec.tenant_names().iter().enumerate() {
        let tenant = timed_tenant(&cloud, project, &ledger).map_err(|e| e.to_string())?;
        recs.push(TenantReconciler::new(
            tenant,
            golden,
            s.desired_for(shard, t, 0),
            &s.config,
        ));
    }

    let loop_spec = s.clone();
    let loop_cloud = cloud.clone();
    let loop_ledger = ledger.clone();
    let (recs, tally, violations, converged_epochs) = sim.block_on(async move {
        let ledger = loop_ledger;
        let mut recs = recs;
        let mut tally = Tally::default();
        let mut violations: Vec<String> = Vec::new();
        let mut converged_epochs = 0usize;
        for epoch in 0..loop_spec.epochs {
            for (t, rec) in recs.iter_mut().enumerate() {
                rec.set_desired(loop_spec.desired_for(shard, t, epoch));
            }
            let mut epoch_ticks = 0usize;
            loop {
                let mut budget = OpBudget::new(loop_spec.shard_ops_per_tick);
                for rec in recs.iter_mut() {
                    let attests = rec.desired().profile.attestation != AttestationMode::None;
                    // Ticks run one at a time on this shard's executor, so
                    // the host interval of a tick holds that tick and the
                    // provision tasks it spawned, nothing else.
                    let start = ledger.now();
                    let tr = rec.tick(&mut budget).await;
                    ledger.parent_since("core.reconcile.tick", start);
                    tally.planned += tr.planned as u64;
                    tally.deferred += tr.deferred as u64;
                    tally.executed += tr.executed as u64;
                    tally.provisioned += tr.provisioned as u64;
                    tally.failed += tr.provision_failed as u64;
                    tally.released += tr.released as u64;
                    tally.networks += tr.networks_created as u64;
                    if attests {
                        tally.attested += tr.provisioned as u64;
                    }
                }
                tally.ticks += 1;
                epoch_ticks += 1;
                if recs.iter().all(|r| r.is_converged()) {
                    converged_epochs += 1;
                    break;
                }
                if epoch_ticks >= loop_spec.max_ticks_per_epoch {
                    break;
                }
                loop_cloud
                    .sim
                    .sleep(SimDuration::from_secs_f64(loop_spec.tick_interval_secs))
                    .await;
            }
            let found = ledger.parent("core.reconcile.invariants", || {
                epoch_invariants(&loop_cloud, &recs, epoch, tally.attested)
            });
            violations.extend(found);
        }
        (recs, tally, violations, converged_epochs)
    });

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let dropped: u64 = recs.iter().map(|r| r.queue_stats().dropped).sum();
    m.insert("ticks".into(), tally.ticks as f64);
    m.insert("planned".into(), tally.planned as f64);
    m.insert("deferred".into(), tally.deferred as f64);
    m.insert("dropped".into(), dropped as f64);
    m.insert("provision_ok".into(), tally.provisioned as f64);
    m.insert("provision_failed".into(), tally.failed as f64);
    m.insert("released".into(), tally.released as f64);
    m.insert("networks_created".into(), tally.networks as f64);
    m.insert("converged_epochs".into(), converged_epochs as f64);
    m.insert("violations".into(), violations.len() as f64);
    m.insert("sim_seconds".into(), sim.now().as_secs_f64());
    ledger.parent("core.teardown", || drop(recs));

    let digest = ledger.parent("sim.render", || {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(shard as u64).to_le_bytes());
        for (name, value) in &m {
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&value.to_le_bytes());
        }
        for v in &violations {
            buf.extend_from_slice(v.as_bytes());
        }
        buf.extend_from_slice(cloud.spans.render().as_bytes());
        buf.extend_from_slice(cloud.metrics.to_json().as_bytes());
        sha256(&buf)
    });
    let counters = WorldCounters::read(&cloud, &sim);
    ledger.parent("core.teardown", || drop((cloud, sim)));
    Ok(ShardTrace {
        job_s: ledger.now(),
        summary: ledger.summary(),
        counters,
        ticks: TickTotals {
            planned: tally.planned,
            deferred: tally.deferred,
            executed: tally.executed,
        },
        fidelity: Fidelity::Reconcile {
            measurements: m,
            digest,
        },
    })
}

/// Replica of the library's epoch-boundary isolation checks.
fn epoch_invariants(
    cloud: &Cloud,
    recs: &[TenantReconciler],
    epoch: usize,
    attested_provisions: u64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, a) in recs.iter().enumerate() {
        for b in recs.iter().skip(i + 1) {
            let leaks = cross_paths(cloud, a.holdings(), b.holdings());
            if leaks > 0 {
                violations.push(format!(
                    "epoch {epoch}: {leaks} cross-tenant fabric paths between {} and {}",
                    a.tenant().project,
                    b.tenant().project
                ));
            }
        }
    }
    let rejected = cloud.rejected_pool().len();
    if rejected > 0 {
        violations.push(format!(
            "epoch {epoch}: {rejected} nodes quarantined — infrastructure faults must abandon, not reject"
        ));
    }
    let releases = cloud.metrics.counter_total("key_releases");
    if releases != attested_provisions {
        violations.push(format!(
            "epoch {epoch}: {releases} key releases vs {attested_provisions} attested provisions"
        ));
    }
    for rec in recs {
        for p in rec.holdings() {
            let flips = cloud.metrics.counter(
                "quote_verdicts",
                &[("target", &p.report.node), ("outcome", "failed")],
            );
            if flips > 0 {
                violations.push(format!(
                    "epoch {epoch}: {flips} failed quote verdicts on held node {}",
                    p.report.node
                ));
            }
        }
    }
    violations
}

fn cross_paths(cloud: &Cloud, a: &[ProvisionedNode], b: &[ProvisionedNode]) -> u64 {
    let mut leaks = 0u64;
    for va in a {
        for vb in b {
            let (Ok(ha), Ok(hb)) = (cloud.hil.node_host(va.node), cloud.hil.node_host(vb.node))
            else {
                continue;
            };
            if cloud.fabric.path(ha, hb).is_ok() {
                leaks += 1;
            }
        }
    }
    leaks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scale, Workload};

    #[test]
    fn tiny_traced_runs_reproduce_the_untraced_outputs() {
        for w in Workload::ALL {
            let spec = w.spec(Scale::Tiny, w.default_seed());
            let untraced = spec.run(2).expect("untraced");
            let traced = run(&spec, 2, &untraced).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(traced.shard_s.len(), spec.shards());
            assert!(traced.summary.parent("core.cloud_build").calls > 0);
            let attested = traced.summary.leaf("keylime.register").calls;
            match w {
                Workload::FleetUnattested => assert_eq!(attested, 0),
                _ => assert!(attested > 0, "{}", w.name()),
            }
        }
    }

    #[test]
    fn a_drifted_replica_is_caught() {
        // The untraced run injects no faults; the replica rebuilds the
        // flaky-BMC plan. Exactly the drift the digest check exists for.
        let spec = Workload::ReconcileChurn.spec(Scale::Tiny, 1);
        let Spec::Reconcile(mut quiet) = spec.clone() else {
            unreachable!("reconcile workload has a reconcile spec");
        };
        quiet.inject_faults = false;
        let untraced = Spec::Reconcile(quiet).run(2).expect("untraced");
        let err = run(&spec, 2, &untraced).expect_err("a different fault plan must diverge");
        assert!(err.contains("differs"), "{err}");
    }
}
