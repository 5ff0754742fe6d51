//! Adversarial-scenario artifact: the hostile-coexistence exit gate.
//!
//! Runs the six paper scenarios ([`bolted_core::paper_scenarios`]) at
//! pool worker counts 1, 2 and 4, checks that every isolation invariant
//! and degradation bound holds, and that the run fingerprint — every
//! measurement, span tree, metrics snapshot and check verdict — is
//! byte-identical across worker counts.
//!
//! ```text
//! cargo run --release -p bolted-bench --bin scenarios [-- --smoke]
//! ```
//!
//! Writes `results/scenarios.json` (host cores, wall time per pool size,
//! per-scenario verdicts, measurements and victim-vs-baseline
//! degradation ratios) when run from the repo root, and echoes the same
//! JSON to stdout. `--smoke` runs the smoke-scale worlds as a pass/fail
//! verify gate and never writes the file — a gate must not clobber the
//! committed full-scale artifact.

use std::fmt::Write as _;
use std::time::Instant;

use bolted_bench::determinism::{
    require_byte_identical, smoke_flag, speedup_json, speedup_label, speedup_vs_1, write_artifact,
    DeterminismSweep,
};
use bolted_core::{paper_scenarios, ScenarioScale};
use bolted_crypto::sha256::sha256;
use bolted_sim::run_scenarios;

fn main() {
    let smoke = smoke_flag();
    let scale = if smoke {
        ScenarioScale::Smoke
    } else {
        ScenarioScale::Full
    };

    let cores = bolted_sim::max_workers();
    let mut sweep = DeterminismSweep::new();
    let mut report = None;
    // (workers, wall seconds, speedup over 1 worker) per pool size.
    let mut runs: Vec<(usize, f64, Option<f64>)> = Vec::new();
    for &workers in &[1usize, 2, 4] {
        let t0 = Instant::now();
        let run = run_scenarios(paper_scenarios(scale), workers);
        let wall = t0.elapsed().as_secs_f64();
        let wall_1 = runs.first().map_or(wall, |r| r.1);
        let speedup = speedup_vs_1(workers, cores, wall_1, wall);
        let fp = run.fingerprint();
        eprintln!(
            "workers={workers} scenarios={} passed={} wall={wall:.2}s speedup={} digest={}",
            run.outcomes.len(),
            run.passed(),
            speedup_label(speedup),
            &sha256(fp.as_bytes()).to_hex()[..12],
        );
        sweep.observe(&fp);
        runs.push((workers, wall, speedup));
        report = Some(run);
    }
    let Some(report) = report else {
        eprintln!("no scenario runs executed");
        std::process::exit(1);
    };

    for outcome in &report.outcomes {
        let verdict = if outcome.passed() { "PASS" } else { "FAIL" };
        eprintln!("[{verdict}] {}: {}", outcome.name, outcome.description);
        for check in outcome.checks.iter().filter(|c| !c.passed) {
            eprintln!("       violated: {}", check.detail);
        }
    }

    let digest = sha256(sweep.fingerprint().as_bytes()).to_hex();
    let byte_identical = sweep.byte_identical();
    let mut timing = format!("  \"cores\": {cores},\n  \"runs\": [\n");
    for (i, (workers, wall, speedup)) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(
            timing,
            "    {{\"workers\": {workers}, \"wall_seconds\": {wall:.3}, \"speedup_vs_1\": {}}}{comma}",
            speedup_json(*speedup),
        );
    }
    timing.push_str("  ],\n");
    let json = {
        let body = report.to_json();
        // Wrap the harness JSON with the run-level identity fields the
        // artifact consumers key on.
        let inner = body
            .strip_prefix("{\n")
            .and_then(|rest| rest.strip_suffix("}\n"))
            .unwrap_or(&body);
        format!(
            "{{\n  \"bench\": \"scenarios\",\n  \"mode\": \"{}\",\n  \"passed\": {},\n  \
             \"byte_identical\": {byte_identical},\n  \"fingerprint_sha256\": \"{digest}\",\n{timing}{inner}}}\n",
            if smoke { "smoke" } else { "full" },
            report.passed(),
        )
    };
    print!("{json}");

    write_artifact(smoke, "results/scenarios.json", &json);
    require_byte_identical(&sweep, "scenario fingerprint");
    if !report.passed() {
        eprintln!("FAIL: scenarios violated bounds: {:?}", report.failures());
        std::process::exit(1);
    }
}
