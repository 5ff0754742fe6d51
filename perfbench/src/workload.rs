//! The benchmark's workloads: what each runs, why it was chosen, how its
//! worlds are stood up, and what makes its output correct.

use bolted_core::{
    provision_fleet_parallel, reconcile_fleet_parallel, run_sharded, Cloud, CloudConfig,
    FleetRunReport, FleetSpec, ReconcileFleetSpec, ReconcileRunReport, SecurityProfile, Tenant,
};
use bolted_firmware::KernelImage;
use bolted_sim::fault::{mix_seed, ops};
use bolted_sim::{FaultPlan, FaultSpec, Sim};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sharded one-shot scale-up under the Charlie profile.
    FleetAttested,
    /// The same fleet shape under the Alice profile.
    FleetUnattested,
    /// Desired-state tenants under seeded churn and flaky BMCs.
    ReconcileChurn,
}

/// How big a run is: the benchmark's size, or a tiny one for the
/// self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size the benchmark measures.
    Bench,
    /// Seconds-long smoke size for `cargo test`.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FleetAttested,
        Workload::FleetUnattested,
        Workload::ReconcileChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetAttested => "fleet-attested",
            Workload::FleetUnattested => "fleet-unattested",
            Workload::ReconcileChurn => "reconcile-churn",
        }
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            // Every node pays an EK keygen at build and an AIK keygen,
            // a registrar round and a quote round at provision: the
            // mechanism workload for crypto, tpm and keylime.
            Workload::FleetAttested => {
                "Charlie fleet scale-up: every node pays EK and AIK keygen, registration and a quote round"
            }
            // No AIK, no Keylime, no LUKS or IPsec: provisioning is the
            // storage boot-read loop, the executor, HIL, BMI and
            // firmware. An attestation-only change should move nothing
            // here.
            Workload::FleetUnattested => {
                "same fleet shape under Alice: bypasses attestation, leaving boot I/O, executor, HIL, BMI and firmware"
            }
            // Releases, retries, bounded queues and token buckets run
            // beside provisions, and injected BMC faults make some
            // provisions fail by design.
            Workload::ReconcileChurn => {
                "reconciler under seeded churn and flaky BMCs: releases, retries, queues and rate limits beside provisions"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given: the matching `bolted-bench`
    /// bin's seed.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::FleetAttested | Workload::FleetUnattested => 0xF1EE7,
            Workload::ReconcileChurn => 0xAD5E_0007,
        }
    }

    /// Independent shard worlds per run; pool size never exceeds it.
    pub fn shards(self, scale: Scale) -> usize {
        self.spec(scale, 0).shards()
    }

    /// The workload's input, derived from `seed` alone.
    pub fn spec(self, scale: Scale, seed: u64) -> Spec {
        let fleet = |profile: SecurityProfile| {
            let (shards, nodes) = match scale {
                Scale::Bench => (8, 16),
                Scale::Tiny => (2, 3),
            };
            Spec::Fleet(FleetSpec {
                shards,
                nodes_per_shard: nodes,
                extra_nodes: 0,
                seed,
                profile,
            })
        };
        match self {
            Workload::FleetAttested => fleet(SecurityProfile::charlie()),
            Workload::FleetUnattested => fleet(SecurityProfile::alice()),
            Workload::ReconcileChurn => Spec::Reconcile(match scale {
                Scale::Bench => ReconcileFleetSpec::new(4, 40, 4, 3, seed),
                Scale::Tiny => ReconcileFleetSpec::new(2, 12, 2, 2, seed),
            }),
        }
    }
}

/// One run's input.
#[derive(Debug, Clone)]
pub enum Spec {
    /// A one-shot fleet scale-up.
    Fleet(FleetSpec),
    /// A churn reconcile run.
    Reconcile(ReconcileFleetSpec),
}

/// One run's output through the library's public entry point.
pub enum Report {
    /// From [`provision_fleet_parallel`].
    Fleet(FleetRunReport),
    /// From [`reconcile_fleet_parallel`].
    Reconcile(ReconcileRunReport),
}

/// What one untraced run did, in the units the end-to-end metrics use.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Provision attempts that succeeded.
    pub provisioned: u64,
    /// Provision attempts that failed (abandoned back to Free).
    pub provision_failed: u64,
    /// Nodes released back to the free pool.
    pub released: u64,
    /// Benchmark-level operations: nodes asked for (fleet) or shard
    /// epochs to converge (reconcile).
    pub ops: u64,
    /// Benchmark-level operations that did not complete.
    pub ops_failed: u64,
    /// Virtual seconds summed over shards (a behaviour check only).
    pub virtual_s: f64,
    /// Run digest (hex).
    pub digest: String,
}

impl Outcome {
    /// Completed node state changes: provisions plus releases.
    pub fn changes(&self) -> u64 {
        self.provisioned + self.released
    }
}

impl Report {
    /// Reduces a report to its outcome.
    pub fn outcome(&self) -> Outcome {
        match self {
            Report::Fleet(r) => Outcome {
                provisioned: r.ok() as u64,
                provision_failed: r.failed() as u64,
                released: 0,
                ops: (r.ok() + r.failed()) as u64,
                ops_failed: r.failed() as u64,
                virtual_s: r.shards.iter().map(|s| s.sim_seconds).sum(),
                digest: r.digest().to_hex(),
            },
            Report::Reconcile(r) => {
                let epochs = (r.epochs * r.shards.len()) as u64;
                let converged = r.total("converged_epochs") as u64;
                Outcome {
                    provisioned: r.total("provision_ok") as u64,
                    provision_failed: r.total("provision_failed") as u64,
                    released: r.total("released") as u64,
                    ops: epochs,
                    ops_failed: epochs.saturating_sub(converged),
                    virtual_s: r.total("sim_seconds"),
                    digest: r.digest().to_hex(),
                }
            }
        }
    }

    /// The workload's correctness checks on one run. Fleet: every node
    /// provisions. Reconcile: every epoch converges with no isolation
    /// violation and nothing dropped, and the injected faults really
    /// forced abandon-and-recover.
    pub fn check(&self, spec: &Spec) -> Result<(), String> {
        match (self, spec) {
            (Report::Fleet(r), Spec::Fleet(s)) => {
                if r.ok() != s.total_nodes() || r.failed() != 0 {
                    return Err(format!(
                        "fleet provisioned {} of {} nodes ({} failed)",
                        r.ok(),
                        s.total_nodes(),
                        r.failed()
                    ));
                }
                Ok(())
            }
            (Report::Reconcile(r), Spec::Reconcile(_)) => {
                if !r.converged() {
                    return Err(format!(
                        "reconcile converged {} of {} shard epochs",
                        r.total("converged_epochs"),
                        r.epochs * r.shards.len()
                    ));
                }
                let violations = r.violations();
                if let Some(v) = violations.first() {
                    return Err(format!("{} violations, first: {v}", violations.len()));
                }
                if r.total("dropped") != 0.0 {
                    return Err(format!("{} queued ops dropped", r.total("dropped")));
                }
                if r.total("provision_failed") == 0.0 {
                    return Err("no provision failed: fault recovery was not exercised".into());
                }
                Ok(())
            }
            _ => Err("report does not match its spec".into()),
        }
    }
}

impl Spec {
    /// Runs the spec through the library's public entry point.
    pub fn run(&self, workers: usize) -> Result<Report, String> {
        match self {
            Spec::Fleet(s) => provision_fleet_parallel(s, workers)
                .map(Report::Fleet)
                .map_err(|e| format!("fleet run failed: {e}")),
            Spec::Reconcile(s) => reconcile_fleet_parallel(s, workers)
                .map(Report::Reconcile)
                .map_err(|e| format!("reconcile run failed: {e}")),
        }
    }

    /// Stands up every shard world of the spec — `Cloud::build`, the
    /// golden image and the tenants, exactly as the run itself does —
    /// across `workers` threads, and drops them. Returns the shards'
    /// node counts (the EKs built).
    pub fn stand_up(&self, workers: usize) -> Result<usize, String> {
        let worlds = run_sharded(self.shards(), workers, |shard| {
            let sim = Sim::new();
            let cloud = Cloud::build(&sim, self.cloud_config(shard));
            create_golden(&cloud)?;
            for name in self.tenant_names() {
                Tenant::new(&cloud, &name).map_err(|e| format!("tenant setup failed: {e}"))?;
            }
            Ok(cloud.nodes().len())
        });
        worlds.into_iter().sum()
    }

    /// Shard worlds in the run.
    pub fn shards(&self) -> usize {
        match self {
            Spec::Fleet(s) => s.shards,
            Spec::Reconcile(s) => s.shards,
        }
    }

    /// The shard's cloud, configured as the library's shard runner
    /// configures it.
    pub fn cloud_config(&self, shard: usize) -> CloudConfig {
        let idx = shard.to_string();
        match self {
            Spec::Fleet(s) => CloudConfig {
                nodes: s.shard_nodes(shard),
                seed: mix_seed(s.seed, &["fleet-shard", &idx]),
                ..CloudConfig::default()
            },
            Spec::Reconcile(s) => CloudConfig {
                nodes: s.nodes_per_shard,
                seed: mix_seed(s.seed, &["reconcile-shard", &idx]),
                faults: reconcile_fault_plan(s, shard),
                ..CloudConfig::default()
            },
        }
    }

    /// Projects of the shard's tenants, as the shard runner names them.
    pub fn tenant_names(&self) -> Vec<String> {
        match self {
            Spec::Fleet(_) => vec!["charlie".into()],
            Spec::Reconcile(s) => (0..s.tenants_per_shard)
                .map(|t| format!("tenant-{t:02}"))
                .collect(),
        }
    }
}

/// The golden image every shard runner provisions from.
pub fn create_golden(cloud: &Cloud) -> Result<bolted_storage::ImageId, String> {
    let kernel = KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz+initrd");
    cloud
        .bmi
        .create_golden("fedora28", 8 << 30, 7, &kernel, "")
        .map_err(|e| format!("golden image failed: {e}"))
}

/// The reconcile shard's fault plan, rebuilt from the public
/// [`FaultPlan`] API (the library's own `fault_plan` is private): flaky BMC
/// power on two fixed node names. If the library's plan drifts from
/// this one, the traced run's digest check fails.
pub fn reconcile_fault_plan(spec: &ReconcileFleetSpec, shard: usize) -> FaultPlan {
    if !spec.inject_faults {
        return FaultPlan::none();
    }
    let seed = mix_seed(spec.seed, &["reconcile-faults", &shard.to_string()]);
    FaultPlan::seeded(seed)
        .with_target(ops::BMC_POWER, "m620-03", FaultSpec::flaky(6))
        .with_target(ops::BMC_POWER, "m620-07", FaultSpec::flaky(6))
}

/// The input seed of repetition `rep` of a run seeded `seed`: the seed
/// itself first, then values mixed from it, so a run averages over
/// several inputs and the same seed always gives the same sequence.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    if rep == 0 {
        seed
    } else {
        mix_seed(seed, &["perfbench-rep", &rep.to_string()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_whys_fit_one_line() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn tiny_runs_pass_their_checks_and_repeat_byte_identically() {
        for w in Workload::ALL {
            let spec = w.spec(Scale::Tiny, w.default_seed());
            let a = spec.run(2).expect("tiny run");
            a.check(&spec)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let b = spec.run(1).expect("tiny rerun");
            assert_eq!(a.outcome().digest, b.outcome().digest, "{}", w.name());
            let built = spec.stand_up(2).expect("stand up");
            assert!(built > 0);
        }
    }

    #[test]
    fn checks_hold_on_a_second_seed() {
        for w in Workload::ALL {
            let spec = w.spec(Scale::Tiny, rep_seed(w.default_seed(), 1));
            let r = spec.run(2).expect("tiny run");
            r.check(&spec)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }

    #[test]
    fn rep_seeds_start_at_the_seed_and_differ() {
        assert_eq!(rep_seed(7, 0), 7);
        assert_ne!(rep_seed(7, 1), rep_seed(7, 2));
        assert_eq!(rep_seed(7, 3), rep_seed(7, 3));
    }
}
