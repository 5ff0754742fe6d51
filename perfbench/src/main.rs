//! Host-time benchmark of the bolted workspace.
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `fleet-attested`, `fleet-unattested`, `reconcile-churn`
//! (see [`workload::Workload::why`]). Every time is host wall-clock
//! time; the simulator's virtual-time outputs are checked, never timed.
//!
//! `--trace 0` measures the end-to-end metrics. It runs the workload
//! through the library's public entry points (`provision_fleet_parallel`,
//! `reconcile_fleet_parallel`) in repetitions until `--seconds` have
//! passed; repetition `r` runs the input of [`workload::rep_seed`]`(seed,
//! r)`, and each time is the median over repetitions. Before timing,
//! one run of repetition 0's input warms the process, gives the
//! reference digest that repetition 0 must reproduce, and gives
//! `peak_rss_mb` (the fresh process's peak over that one run). Before
//! each repetition its shard worlds are stood up once on their own,
//! timed for `setup_s`.
//!
//! `--trace 1` measures the per-layer metrics. Each repetition runs
//! repetition 0's input through the public entry point, then again
//! through the traced replica ([`traced`]), which must reproduce it
//! exactly; the repetition with the median traced wall time is
//! reported whole, so its layer times add up. Unit costs of RSA keygen
//! and of one iSCSI boot read are timed directly beside every
//! repetition, averaged over the run, and multiplied by the reported
//! repetition's counts (`*.est_s`, estimates).
//!
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `attempted` counts benchmark-level operations over all timed
//! repetitions — nodes asked for (fleet) or shard epochs to converge
//! (reconcile) — and `failed` those that did not complete.

mod ledger;
mod stats;
mod timed;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bolted_core::{Cloud, CloudConfig, SecurityProfile};
use bolted_crypto::{generate_keypair, XorShiftSource};
use bolted_sim::fault::mix_seed;
use bolted_sim::Sim;

use timed::{AGENT_STARTS, LEAF_OPS, TRUSTED};
use workload::{create_golden, rep_seed, Outcome, Scale, Workload};

/// Most pool workers a run uses. Never more than the host's cores
/// either: a pool larger than the core count only timeshares.
const MAX_WORKERS: usize = 2;
/// Fewest timed repetitions of a `--trace 0` run, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;
/// Keys generated per traced repetition to time one 512-bit RSA keygen.
const KEYGENS_PER_REP: usize = 16;
/// Fresh boot volumes read per traced repetition to time one iSCSI
/// boot read.
const READ_PASSES_PER_REP: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: bad value {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The benchmark's result line, plus the failures that make it
/// incorrect.
#[derive(Default)]
struct ResultLine {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl ResultLine {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty() && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; a zero base already maps
            // to 0 before this point, so this never fires in practice.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let cores = bolted_sim::max_workers();
    let workers = cores
        .min(MAX_WORKERS)
        .min(args.workload.shards(Scale::Bench));
    println!(
        "perfbench workload={} ({}) seed={} seconds={} trace={} cores={cores} workers={workers}",
        args.workload.name(),
        args.workload.why(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        run_traced(&args, cores, workers)
    } else {
        run_end_to_end(&args, workers)
    };
    match outcome {
        Ok(result) => {
            for e in &result.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            println!("{}", result.to_json());
            if !result.errors.is_empty() || result.failed != 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs repetition 0's input once, untimed by the clock: warms the
/// allocator and code paths, and returns the outcome (digest, virtual
/// time) that repetition 0 must reproduce together with the run's peak
/// resident memory in MiB. The process is fresh at this point, so the
/// peak is not inflated by heap that earlier repetitions left behind.
fn warm_up(args: &Args, workers: usize, res: &mut ResultLine) -> Result<(Outcome, f64), String> {
    let spec = args.workload.spec(Scale::Bench, rep_seed(args.seed, 0));
    rss::reset_peak()?;
    let report = spec.run(workers)?;
    let peak = rss::peak_mb()?;
    if let Err(e) = report.check(&spec) {
        res.errors.push(format!("warm-up: {e}"));
    }
    Ok((report.outcome(), peak))
}

fn run_end_to_end(args: &Args, workers: usize) -> Result<ResultLine, String> {
    let mut res = ResultLine::default();
    let (reference, peak_rss_mb) = warm_up(args, workers, &mut res)?;

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut walls, mut rates, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut provisioned, mut provision_failed) = (0u64, 0u64);
    let mut rep = 0;
    while rep < MIN_REPS || started.elapsed() < budget {
        let spec = args.workload.spec(Scale::Bench, rep_seed(args.seed, rep));
        // Set-up is sampled beside every repetition, not in one burst,
        // so slow and fast spells of the host fall on both alike.
        let start = Instant::now();
        spec.stand_up(workers)?;
        setup.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let report = spec.run(workers)?;
        let wall = start.elapsed().as_secs_f64();
        if let Err(e) = report.check(&spec) {
            res.errors.push(format!("repetition {rep}: {e}"));
        }
        let o = report.outcome();
        if rep == 0 && o.digest != reference.digest {
            res.errors.push(format!(
                "repetition 0 digest {} differs from the warm-up run's {}",
                o.digest, reference.digest
            ));
        }
        res.attempted += o.ops;
        res.failed += o.ops_failed;
        provisioned += o.provisioned;
        provision_failed += o.provision_failed;
        eprintln!(
            "rep {rep}: wall_s={wall:.4} setup_s={:.4} changes={}",
            setup.last().copied().unwrap_or_default(),
            o.changes(),
        );
        walls.push(wall);
        rates.push(o.changes() as f64 / wall);
        rep += 1;
    }

    let [q1, q2, q3] = stats::quartiles(&walls);
    println!(
        "reps={rep} digest0={} virtual_s0={} wall_s quartiles={q1:.4}/{q2:.4}/{q3:.4}",
        reference.digest, reference.virtual_s
    );
    res.metric("wall_s", stats::median(&walls), "s");
    res.metric("nodes_per_s", stats::median(&rates), "1/s");
    res.metric("setup_s", stats::median(&setup), "s");
    res.metric("peak_rss_mb", peak_rss_mb, "MiB");
    let attempts = provisioned + provision_failed;
    res.metric(
        "success_share",
        if attempts == 0 {
            0.0
        } else {
            provisioned as f64 / attempts as f64
        },
        "ratio",
    );
    Ok(res)
}

fn run_traced(args: &Args, cores: usize, workers: usize) -> Result<ResultLine, String> {
    let mut res = ResultLine::default();
    let (reference, _) = warm_up(args, workers, &mut res)?;

    // Every repetition runs repetition 0's input, so the per-layer
    // counts repeat exactly for a seed and only the times vary.
    let spec = args.workload.spec(Scale::Bench, rep_seed(args.seed, 0));
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut samples: Vec<(f64, traced::Traced)> = Vec::new();
    let (mut keygen, mut read) = (UnitCost::default(), UnitCost::default());
    let mut rep = 0;
    while rep < 1 || started.elapsed() < budget {
        // Unit costs are sampled beside every repetition, so they see the
        // same spells of host speed as the runs they are multiplied into.
        keygen.add(keygen_probe(args.seed, rep));
        read.add(read_probe(args.workload, rep)?);
        let start = Instant::now();
        let report = spec.run(workers)?;
        let untraced_wall = start.elapsed().as_secs_f64();
        if let Err(e) = report.check(&spec) {
            res.errors.push(format!("repetition {rep}: {e}"));
        }
        let o = report.outcome();
        if o.digest != reference.digest {
            res.errors.push(format!(
                "repetition {rep} digest {} differs from the warm-up run's {}",
                o.digest, reference.digest
            ));
        }
        res.attempted += o.ops;
        res.failed += o.ops_failed;
        match traced::run(&spec, workers, &report) {
            Ok(t) => samples.push((untraced_wall, t)),
            Err(e) => res.errors.push(format!("repetition {rep}: {e}")),
        }
        rep += 1;
    }
    let walls: Vec<f64> = samples.iter().map(|(_, t)| t.wall_s).collect();
    let Some((untraced_wall, t)) = samples.get(stats::median_index(&walls)) else {
        return Ok(res);
    };
    println!(
        "reps={rep} digest={} reported=median traced wall {:.4}s (untraced {untraced_wall:.4}s)",
        reference.digest, t.wall_s
    );
    layer_metrics(
        &mut res,
        t,
        *untraced_wall,
        cores,
        workers,
        keygen.mean_secs(),
        read.mean_secs(),
    );
    Ok(res)
}

/// Fills the per-layer metrics from one traced repetition.
fn layer_metrics(
    res: &mut ResultLine,
    t: &traced::Traced,
    untraced_wall: f64,
    cores: usize,
    workers: usize,
    keygen_s: f64,
    read_s: f64,
) {
    let s = &t.summary;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    res.metric("host.cores", cores as f64, "count");
    res.metric("sim.pool.workers", workers as f64, "count");
    res.metric("trace.wall_s", t.wall_s, "s");
    res.metric("trace.untraced_wall_s", untraced_wall, "s");
    res.metric("trace.overhead_s", t.wall_s - untraced_wall, "s");

    for name in ["core.cloud_build", "bmi.create_golden", "core.tenant_setup"] {
        let p = s.parent(name);
        res.metric(format!("{name}.s"), p.secs, "s");
        res.metric(format!("{name}.calls"), p.calls as f64, "count");
    }
    res.metric(
        "core.provision.self_s",
        s.parent("core.provision").secs,
        "s",
    );
    res.metric(
        "core.provision.calls",
        t.counters.provisions as f64,
        "count",
    );
    let tick = s.parent("core.reconcile.tick");
    res.metric(
        "core.reconcile.tick_s",
        s.inclusive("core.reconcile.tick"),
        "s",
    );
    res.metric("core.reconcile.self_s", tick.secs, "s");
    res.metric("core.reconcile.ticks", tick.calls as f64, "count");
    res.metric("core.reconcile.planned", t.ticks.planned as f64, "count");
    res.metric("core.reconcile.deferred", t.ticks.deferred as f64, "count");
    res.metric(
        "core.reconcile.useful_ratio",
        ratio(t.ticks.executed as f64, t.ticks.planned as f64),
        "ratio",
    );
    res.metric(
        "core.reconcile.invariants.s",
        s.parent("core.reconcile.invariants").secs,
        "s",
    );
    res.metric("core.teardown.s", s.parent("core.teardown").secs, "s");
    res.metric("sim.render.s", s.parent("sim.render").secs, "s");

    for op in LEAF_OPS {
        let l = s.leaf(op);
        res.metric(format!("{op}.s"), l.secs, "s");
        res.metric(format!("{op}.calls"), l.calls as f64, "count");
    }
    res.metric(
        "keylime.trusted_ratio",
        ratio(
            s.counter(TRUSTED) as f64,
            s.leaf("keylime.attest_once").calls as f64,
        ),
        "ratio",
    );

    let keygens = t.counters.eks + s.counter(AGENT_STARTS);
    res.metric("crypto.rsa_keygen_512.us", keygen_s * 1e6, "us");
    res.metric("tpm.keygen.count", keygens as f64, "count");
    res.metric("crypto.rsa_keygen.est_s", keygens as f64 * keygen_s, "s");
    res.metric("storage.read_ops", t.counters.storage_reads as f64, "count");
    res.metric("storage.read_timed.us", read_s * 1e6, "us");
    res.metric(
        "storage.read.est_s",
        t.counters.storage_reads as f64 * read_s,
        "s",
    );

    res.metric("sim.retry.attempts", t.counters.retries as f64, "count");
    res.metric("sim.fault.injected", t.counters.faults as f64, "count");
    res.metric(
        "sim.queue.deferred",
        t.counters.queue_deferred as f64,
        "count",
    );
    res.metric(
        "sim.queue.dropped",
        t.counters.queue_dropped as f64,
        "count",
    );

    // Worker-seconds: the pool had `workers` threads for `wall_s`; each
    // was busy for the shard jobs it ran and idle for the rest.
    let capacity = t.wall_s * workers as f64;
    let busy: f64 = t.shard_s.iter().sum();
    let idle = capacity - busy;
    res.metric("sim.pool.busy_share", ratio(busy, capacity), "ratio");
    res.metric("sim.pool.idle_s", idle, "s");
    res.metric("sim.shard_s.p50", stats::median(&t.shard_s), "s");
    res.metric(
        "sim.shard_s.max",
        t.shard_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    res.metric("sim.spans.count", t.counters.spans as f64, "count");
    res.metric("sim.virtual_s", t.counters.virtual_s, "s");
    // What no layer claims: worker-seconds minus every layer's self
    // time and the pool's idle time, as a share of worker-seconds.
    res.metric(
        "layers.residual_share",
        ratio(capacity - s.attributed_secs() - idle, capacity),
        "ratio",
    );
}

/// Host time of a number of like operations.
#[derive(Default, Clone, Copy)]
struct UnitCost {
    secs: f64,
    ops: u64,
}

impl UnitCost {
    fn add(&mut self, other: UnitCost) {
        self.secs += other.secs;
        self.ops += other.ops;
    }

    fn mean_secs(self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.secs / self.ops as f64
        }
    }
}

/// Times [`KEYGENS_PER_REP`] 512-bit RSA keypair generations (the TPM
/// key size every shard cloud uses) from keys drawn from the seed.
fn keygen_probe(seed: u64, rep: usize) -> UnitCost {
    let bits = CloudConfig::default().tpm_key_bits;
    let start = Instant::now();
    for i in 0..KEYGENS_PER_REP {
        let key_seed = mix_seed(
            seed,
            &["perfbench-keygen", &rep.to_string(), &i.to_string()],
        );
        black_box(generate_keypair(
            black_box(bits),
            &mut XorShiftSource::new(key_seed),
        ));
    }
    UnitCost {
        secs: start.elapsed().as_secs_f64(),
        ops: KEYGENS_PER_REP as u64,
    }
}

/// Times `IscsiTarget::read_timed` calls as the boot loop makes them: a
/// fresh clone of the golden image per pass, read start to end in the
/// calibrated request size over the workload's transport.
fn read_probe(w: Workload, rep: usize) -> Result<UnitCost, String> {
    let profile = match w {
        Workload::FleetUnattested => SecurityProfile::alice(),
        Workload::FleetAttested | Workload::ReconcileChurn => SecurityProfile::charlie(),
    };
    let sim = Sim::new();
    let cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes: 1,
            ..CloudConfig::default()
        },
    );
    let golden = create_golden(&cloud)?;
    let (total, req) = (cloud.calib.boot_touched_bytes, cloud.calib.boot_io_request);
    let mut cost = UnitCost::default();
    for pass in 0..READ_PASSES_PER_REP {
        let image = cloud
            .bmi
            .clone_for_server(golden, &format!("read-probe-{rep}-{pass}"))
            .map_err(|e| format!("read probe clone: {e}"))?;
        let target = cloud
            .bmi
            .boot_target(image, profile.storage_transport(), profile.read_ahead);
        let start = Instant::now();
        cost.ops += sim.block_on(async move {
            let mut n = 0u64;
            let mut off = 0u64;
            while off < total {
                let len = req.min(total - off);
                let _ = target.read_timed(off, len).await;
                off += len;
                n += 1;
            }
            n
        });
        cost.secs += start.elapsed().as_secs_f64();
    }
    Ok(cost)
}

/// Peak resident memory of this process, per repetition.
mod rss {
    /// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
    pub fn reset_peak() -> Result<(), String> {
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("cannot reset peak RSS via /proc/self/clear_refs: {e}"))
    }

    /// `VmHWM` in MiB.
    pub fn peak_mb() -> Result<f64, String> {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut r = ResultLine {
            attempted: 3,
            ..ResultLine::default()
        };
        r.metric("wall_s", 1.25, "s");
        r.metric("bad", f64::NAN, "s");
        let line = r.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"bad\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        r.errors.push("x".into());
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_readable_and_resettable() {
        rss::reset_peak().expect("reset");
        assert!(rss::peak_mb().expect("VmHWM") > 0.0);
    }

    #[test]
    fn unit_costs_are_positive() {
        let keygen = keygen_probe(1, 0);
        assert_eq!(keygen.ops, KEYGENS_PER_REP as u64);
        assert!(keygen.mean_secs() > 0.0);
        let read = read_probe(Workload::FleetUnattested, 0).expect("read probe");
        assert!(read.ops > 0 && read.mean_secs() > 0.0);
        assert_eq!(UnitCost::default().mean_secs(), 0.0);
    }
}
