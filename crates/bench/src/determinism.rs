//! Shared harness plumbing for the determinism bench bins.
//!
//! Every worker-sweep bin (`fleet`, `scenarios`, `reconcile`) follows
//! the same protocol: parse `--smoke`, run the same spec at several pool
//! worker counts, compare a run fingerprint across the sweep, write the
//! committed artifact only on a full run, and exit nonzero on
//! divergence. Each also times every pool size and reports a speedup
//! only for pool sizes the host's cores can run at once. This module is
//! that protocol, written once — the bins keep only their spec, their
//! measurements and their JSON shape.

use std::process::exit;

/// True when the process was invoked with `--smoke`: run the toy-sized
/// gate variant and never touch the committed artifact.
pub fn smoke_flag() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Accumulates one fingerprint per worker-count run and tracks whether
/// they all agreed.
#[derive(Debug, Default)]
pub struct DeterminismSweep {
    fingerprint: Option<String>,
    byte_identical: bool,
}

impl DeterminismSweep {
    /// An empty sweep (vacuously byte-identical).
    pub fn new() -> DeterminismSweep {
        DeterminismSweep {
            fingerprint: None,
            byte_identical: true,
        }
    }

    /// Records one run's fingerprint; returns whether it matched the
    /// first run's (the first observation always matches).
    pub fn observe(&mut self, fingerprint: &str) -> bool {
        match &self.fingerprint {
            None => {
                self.fingerprint = Some(fingerprint.to_string());
                true
            }
            Some(first) if first == fingerprint => true,
            Some(_) => {
                self.byte_identical = false;
                false
            }
        }
    }

    /// Whether every observed fingerprint agreed with the first.
    pub fn byte_identical(&self) -> bool {
        self.byte_identical
    }

    /// The first run's fingerprint, empty before any observation.
    pub fn fingerprint(&self) -> &str {
        self.fingerprint.as_deref().unwrap_or("")
    }
}

/// Wall-clock speedup of one run over the sweep's 1-worker run. `None`
/// when the pool has more workers than the host has `cores`: the extra
/// threads only timeshare, so such a run shows digest stability and
/// says nothing about scaling.
pub fn speedup_vs_1(workers: usize, cores: usize, wall_1: f64, wall: f64) -> Option<f64> {
    (workers <= cores).then_some(wall_1 / wall)
}

/// Console form of [`speedup_vs_1`]: `1.95x`, or `n/a (cores < workers)`.
pub fn speedup_label(speedup: Option<f64>) -> String {
    speedup.map_or("n/a (cores < workers)".to_string(), |s| format!("{s:.2}x"))
}

/// JSON form of [`speedup_vs_1`]: `1.95`, or `null`.
pub fn speedup_json(speedup: Option<f64>) -> String {
    speedup.map_or("null".to_string(), |s| format!("{s:.2}"))
}

/// Writes the committed artifact on a full run; smoke mode is a
/// pass/fail gate and must never clobber the committed file with a
/// toy-sized snapshot. Exits nonzero when the write fails.
pub fn write_artifact(smoke: bool, path: &str, json: &str) {
    if smoke {
        return;
    }
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
        exit(1);
    }
}

/// Exits nonzero when the sweep diverged. `what` names the fingerprint
/// in the failure message (e.g. "run digest").
pub fn require_byte_identical(sweep: &DeterminismSweep, what: &str) {
    if !sweep.byte_identical() {
        eprintln!("FAIL: {what} changed with worker count — determinism broken");
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_tracks_divergence() {
        let mut s = DeterminismSweep::new();
        assert!(s.byte_identical());
        assert!(s.observe("abc"));
        assert!(s.observe("abc"));
        assert!(s.byte_identical());
        assert!(!s.observe("xyz"));
        assert!(!s.byte_identical());
        assert_eq!(s.fingerprint(), "abc");
    }

    #[test]
    fn speedup_is_withheld_beyond_the_core_count() {
        let s = speedup_vs_1(2, 2, 10.0, 5.0);
        assert_eq!(s, Some(2.0));
        assert_eq!(speedup_label(s), "2.00x");
        assert_eq!(speedup_json(s), "2.00");
        let over = speedup_vs_1(4, 2, 10.0, 5.0);
        assert_eq!(over, None);
        assert_eq!(speedup_label(over), "n/a (cores < workers)");
        assert_eq!(speedup_json(over), "null");
    }
}
