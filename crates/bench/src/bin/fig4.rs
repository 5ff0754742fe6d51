//! Figure 4: provisioning time of one server, with phase breakdown.
//!
//! Columns: Foreman (stateful baseline), then Bolted with UEFI and
//! LinuxBoot firmware under three trust scenarios — no attestation
//! (Alice), attestation (Bob), full attestation + LUKS + IPsec (Charlie).

use bolted_bench::{banner, f, print_table};
use bolted_core::{
    foreman_provision, Cloud, CloudConfig, ProvisionReport, SecurityProfile, Tenant, World,
};
use bolted_firmware::FirmwareKind;
use bolted_sim::Sim;

fn provision(firmware: FirmwareKind, profile: SecurityProfile) -> ProvisionReport {
    let World { sim, cloud, golden } = World::build(CloudConfig {
        nodes: 1,
        firmware,
        ..CloudConfig::default()
    })
    .expect("golden");
    let tenant = Tenant::new(&cloud, "tenant").expect("tenant");
    let node = cloud.nodes()[0];
    sim.block_on(async move { tenant.provision(node, &profile, golden).await })
        .expect("provisions")
        .report
}

fn foreman() -> ProvisionReport {
    let sim = Sim::new();
    let cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes: 1,
            firmware: FirmwareKind::Uefi,
            ..CloudConfig::default()
        },
    );
    let node = cloud.nodes()[0];
    sim.block_on({
        let cloud = cloud.clone();
        async move { foreman_provision(&cloud, "lab", node).await }
    })
    .expect("provisions")
}

fn main() {
    banner(
        "Provisioning time of one server",
        "Figure 4 (paper: Foreman ~11 min; Bolted LinuxBoot <3 min unattested, <4 min attested; attestation ≈ +25%)",
    );
    let mut reports: Vec<(String, ProvisionReport)> = Vec::new();
    reports.push(("foreman".into(), foreman()));
    for fw in [FirmwareKind::Uefi, FirmwareKind::LinuxBoot] {
        for profile in [
            SecurityProfile::alice(),
            SecurityProfile::bob(),
            SecurityProfile::charlie(),
        ] {
            let profile = if fw == FirmwareKind::Uefi {
                profile.on_uefi()
            } else {
                profile
            };
            let label = format!(
                "{}/{}",
                if fw == FirmwareKind::Uefi {
                    "uefi"
                } else {
                    "linuxboot"
                },
                match profile.name.split('-').next().unwrap_or("") {
                    "alice" => "no-attest",
                    "bob" => "attested",
                    _ => "full",
                }
            );
            reports.push((label, provision(fw, profile)));
        }
    }

    // Phase-by-phase table.
    let mut phase_names: Vec<String> = Vec::new();
    for (_, r) in &reports {
        for (p, _) in &r.phases {
            if !phase_names.contains(p) {
                phase_names.push(p.clone());
            }
        }
    }
    let mut rows = Vec::new();
    for name in &phase_names {
        let mut row = vec![name.clone()];
        for (_, r) in &reports {
            row.push(
                r.phase(name)
                    .map(|d| f(d.as_secs_f64(), 1))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        rows.push(row);
    }
    let mut total_row = vec!["TOTAL".to_string()];
    for (_, r) in &reports {
        total_row.push(f(r.total().as_secs_f64(), 1));
    }
    rows.push(total_row);
    let headers: Vec<&str> = std::iter::once("phase (s)")
        .chain(reports.iter().map(|(l, _)| l.as_str()))
        .collect();
    print_table(&headers, &rows);

    let alice = reports
        .iter()
        .find(|(l, _)| l == "linuxboot/no-attest")
        .expect("present");
    let bob = reports
        .iter()
        .find(|(l, _)| l == "linuxboot/attested")
        .expect("present");
    let foreman_total = reports[0].1.total().as_secs_f64();
    let uefi_full = reports
        .iter()
        .find(|(l, _)| l == "uefi/full")
        .expect("present");
    println!(
        "attestation overhead (LinuxBoot): +{:.0}%",
        (bob.1.total().as_secs_f64() / alice.1.total().as_secs_f64() - 1.0) * 100.0
    );
    println!(
        "Bolted UEFI full vs Foreman: {:.1}x faster",
        foreman_total / uefi_full.1.total().as_secs_f64()
    );
}
