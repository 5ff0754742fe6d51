//! Timing decorators around the four service traits, plugged in through
//! [`Tenant::with_backend`]. Each forwards to the real backend and
//! records the call in the shard's [`Ledger`]; none changes an argument,
//! a result or the order of calls, which the traced run proves by
//! reproducing the untraced run's spans and metrics byte for byte.

use std::collections::HashSet;
use std::sync::Arc;

use bolted_bmi::BmiError;
use bolted_core::{
    AttestationService, BootService, BoxFuture, Cloud, IsolationService, KeylimeAttestation,
    ProvisionError, ProvisioningService, Services, Tenant, TenantEnv,
};
use bolted_crypto::rsa::PublicKey;
use bolted_crypto::sha256::Digest;
use bolted_crypto::RandomSource;
use bolted_firmware::{FirmwareImage, FirmwareKind, KernelImage, Machine, MachineError};
use bolted_hil::{HilError, NetworkId, NodeId, NodeMetadata};
use bolted_keylime::{Agent, AttestOutcome, ImaWhitelist, KeyShare, RegisterError, VerifierConfig};
use bolted_storage::{ImageId, IscsiTarget, Transport};

use crate::ledger::Ledger;

/// Every leaf operation the decorators record, by layer. The benchmark
/// reports each one, called or not, so the metric set never depends on
/// the workload.
pub const LEAF_OPS: &[&str] = &[
    "hil.node_name",
    "hil.node_metadata",
    "hil.create_network",
    "hil.allocate_node",
    "hil.free_node",
    "hil.connect_node",
    "hil.detach_node",
    "hil.power_cycle",
    "hil.power_off",
    "hil.quarantine",
    "hil.free_nodes",
    "keylime.register",
    "keylime.registered_ek",
    "keylime.enroll",
    "keylime.attest_once",
    "keylime.stop",
    "bmi.clone_for_server",
    "bmi.extract_boot_info",
    "bmi.boot_target",
    "bmi.release",
    "firmware.machine",
    "firmware.good_firmware",
    "firmware.run_firmware",
    "firmware.measure_download",
    "firmware.kexec",
    "firmware.scrub",
];

/// Counter: quote rounds that came back trusted.
pub const TRUSTED: &str = "keylime.attest_once.trusted";
/// Counter: Keylime agents started. Each start creates one AIK in the
/// node's TPM; the orchestrator measures the agent binary immediately
/// before starting it, so that measurement is where the count is taken.
pub const AGENT_STARTS: &str = "tpm.aik_created";

/// The name under which the orchestrator measures the agent binary.
const AGENT_ARTIFACT: &str = "keylime-agent";

struct Timed<S: ?Sized> {
    inner: Arc<S>,
    ledger: Arc<Ledger>,
}

impl IsolationService for Timed<dyn IsolationService> {
    fn node_name(&self, node: NodeId) -> Result<String, HilError> {
        self.ledger
            .leaf("hil.node_name", || self.inner.node_name(node))
    }
    fn node_metadata(&self, node: NodeId) -> Result<NodeMetadata, HilError> {
        self.ledger
            .leaf("hil.node_metadata", || self.inner.node_metadata(node))
    }
    fn create_network(&self, project: &str, name: String) -> Result<NetworkId, HilError> {
        self.ledger.leaf("hil.create_network", || {
            self.inner.create_network(project, name)
        })
    }
    fn allocate_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.ledger.leaf("hil.allocate_node", || {
            self.inner.allocate_node(project, node)
        })
    }
    fn free_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.ledger
            .leaf("hil.free_node", || self.inner.free_node(project, node))
    }
    fn connect_node(&self, project: &str, node: NodeId, net: NetworkId) -> Result<(), HilError> {
        self.ledger.leaf("hil.connect_node", || {
            self.inner.connect_node(project, node, net)
        })
    }
    fn detach_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.ledger
            .leaf("hil.detach_node", || self.inner.detach_node(project, node))
    }
    fn power_cycle(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.ledger
            .leaf("hil.power_cycle", || self.inner.power_cycle(project, node))
    }
    fn power_off(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.ledger
            .leaf("hil.power_off", || self.inner.power_off(project, node))
    }
    fn quarantine(&self, node: NodeId) {
        self.ledger
            .leaf("hil.quarantine", || self.inner.quarantine(node));
    }
    fn free_nodes(&self) -> Vec<NodeId> {
        self.ledger
            .leaf("hil.free_nodes", || self.inner.free_nodes())
    }
}

impl AttestationService for Timed<dyn AttestationService> {
    fn register<'a>(
        &'a self,
        agent: &'a Agent,
        rng: &'a mut dyn RandomSource,
    ) -> BoxFuture<'a, Result<(), RegisterError>> {
        self.ledger
            .leaf_async("keylime.register", self.inner.register(agent, rng))
    }
    fn registered_ek(&self, agent_id: &str) -> Option<PublicKey> {
        self.ledger.leaf("keylime.registered_ek", || {
            self.inner.registered_ek(agent_id)
        })
    }
    fn enroll(
        &self,
        agent: &Agent,
        boot_whitelist: HashSet<Digest>,
        ima_whitelist: ImaWhitelist,
        v_share: Option<KeyShare>,
        sealed_payload: Vec<u8>,
        payload_wire_bytes: u64,
    ) {
        self.ledger.leaf("keylime.enroll", || {
            self.inner.enroll(
                agent,
                boot_whitelist,
                ima_whitelist,
                v_share,
                sealed_payload,
                payload_wire_bytes,
            )
        });
    }
    fn attest_once<'a>(
        &'a self,
        node_id: &'a str,
        continuous: bool,
    ) -> BoxFuture<'a, AttestOutcome> {
        let timed = self.ledger.leaf_async(
            "keylime.attest_once",
            self.inner.attest_once(node_id, continuous),
        );
        let ledger = self.ledger.clone();
        Box::pin(async move {
            let outcome = timed.await;
            if matches!(outcome, AttestOutcome::Trusted) {
                ledger.count(TRUSTED, 1);
            }
            outcome
        })
    }
    fn stop(&self, node_id: &str) {
        self.ledger
            .leaf("keylime.stop", || self.inner.stop(node_id));
    }
}

impl ProvisioningService for Timed<dyn ProvisioningService> {
    fn clone_for_server(&self, golden: ImageId, server_name: &str) -> Result<ImageId, BmiError> {
        self.ledger.leaf("bmi.clone_for_server", || {
            self.inner.clone_for_server(golden, server_name)
        })
    }
    fn extract_boot_info(&self, image: ImageId) -> Result<(KernelImage, String), BmiError> {
        self.ledger.leaf("bmi.extract_boot_info", || {
            self.inner.extract_boot_info(image)
        })
    }
    fn boot_target(&self, image: ImageId, transport: Transport, read_ahead: u64) -> IscsiTarget {
        self.ledger.leaf("bmi.boot_target", || {
            self.inner.boot_target(image, transport, read_ahead)
        })
    }
    fn release(&self, image: ImageId, keep: bool) -> Result<(), BmiError> {
        self.ledger
            .leaf("bmi.release", || self.inner.release(image, keep))
    }
}

impl BootService for Timed<dyn BootService> {
    fn machine(&self, node: NodeId) -> Machine {
        self.ledger
            .leaf("firmware.machine", || self.inner.machine(node))
    }
    fn good_firmware(&self, kind: FirmwareKind) -> FirmwareImage {
        self.ledger
            .leaf("firmware.good_firmware", || self.inner.good_firmware(kind))
    }
    fn run_firmware<'a>(
        &'a self,
        machine: &'a Machine,
    ) -> BoxFuture<'a, Result<FirmwareKind, MachineError>> {
        self.ledger
            .leaf_async("firmware.run_firmware", self.inner.run_firmware(machine))
    }
    fn measure_download(
        &self,
        machine: &Machine,
        name: &str,
        digest: Digest,
    ) -> Result<(), MachineError> {
        if name == AGENT_ARTIFACT {
            self.ledger.count(AGENT_STARTS, 1);
        }
        self.ledger.leaf("firmware.measure_download", || {
            self.inner.measure_download(machine, name, digest)
        })
    }
    fn kexec(
        &self,
        machine: &Machine,
        kernel: KernelImage,
        tenant: &str,
    ) -> Result<(), MachineError> {
        self.ledger.leaf("firmware.kexec", || {
            self.inner.kexec(machine, kernel, tenant)
        })
    }
    fn scrub(&self, machine: &Machine) {
        self.ledger
            .leaf("firmware.scrub", || self.inner.scrub(machine));
    }
}

/// A tenant wired exactly as [`Tenant::new`] wires one — cloud-backed
/// isolation, provisioning and boot, a default-configured Keylime pair —
/// with every service behind a timing decorator. The construction
/// itself is recorded as the `core.tenant_setup` parent.
pub fn timed_tenant(
    cloud: &Cloud,
    project: &str,
    ledger: &Arc<Ledger>,
) -> Result<Tenant, ProvisionError> {
    ledger.parent("core.tenant_setup", || {
        let attestation = KeylimeAttestation::new(cloud, VerifierConfig::default());
        let verifier = attestation.verifier().clone();
        let backend = Services::of_cloud(cloud, Arc::new(attestation));
        let services = Services {
            isolation: Arc::new(Timed {
                inner: backend.isolation,
                ledger: ledger.clone(),
            }),
            attestation: Arc::new(Timed {
                inner: backend.attestation,
                ledger: ledger.clone(),
            }),
            provisioning: Arc::new(Timed {
                inner: backend.provisioning,
                ledger: ledger.clone(),
            }),
            boot: Arc::new(Timed {
                inner: backend.boot,
                ledger: ledger.clone(),
            }),
        };
        Tenant::with_backend(project, TenantEnv::of_cloud(cloud), services, verifier)
    })
}
