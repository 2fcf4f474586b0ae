//! End-to-end MVTEE deployments: the offline tooling phase (§5.1) plus the
//! online monitor/variant runtime (§5.2).
//!
//! [`DeploymentBuilder`] is the public entry point. It drives:
//!
//! 1. **Offline**: random-balanced partitioning, multi-level variant
//!    generation, per-variant key creation and sealing of `{second-stage
//!    manifest, variant bundle}` payloads — the artifacts a real
//!    deployment would bake into container images.
//! 2. **Online**: the untrusted orchestrator (simulated inline) places
//!    variant TEEs loaded only with the public init-variant; the monitor
//!    attests each one (Fig 6), releases the variant keys, verifies the
//!    one-time second-stage manifest installation, binds the variants, and
//!    wires the encrypted data plane.
//!
//! The resulting [`Deployment`] serves [`Deployment::infer`] (sequential)
//! and [`Deployment::infer_stream`] (pipelined) and supports partial/full
//! variant updates.

use crate::config::{MvxConfig, PartitionMvx, ResponsePolicy, RESULT_TIMEOUT};
use crate::events::{EventLog, MonitorEvent};
use crate::messages::encode;
use crate::link::ResponsePort;
use crate::pipeline::{
    spawn_monitor, MonitorHandle, Reply, StageJob, StagePolicy, StageRuntime,
};
use crate::provision::Provisioner;
use crate::recovery::{spawn_recovery_manager, RecoveryContext, RecoveryRequest};
use crate::transcript::TranscriptLog;
use crate::variant_host::{HostFaults, SealedVariantPayload};
use crate::worker::VariantPlacement;
use crate::{MvxError, Result};
use mvtee_codec::Bytes;
use mvtee_crypto::random_array;
use mvtee_crypto::sha256::sha256;
use mvtee_diversify::spec::spread_specs;
use mvtee_telemetry::trace::TraceCtx;
use mvtee_tensor::metrics::Metric;
use mvtee_diversify::{VariantGenerator, VariantId, VariantSpec};
use mvtee_faults::{flip_weight_bits, BitFlipFault, FaultDescriptor, LivenessFault, NetFault};
use mvtee_graph::zoo::Model;
use mvtee_graph::{Graph, ValueId};
use mvtee_partition::{PartitionPool, PartitionSet, Partitioner, PoolConfig};
use mvtee_registry::Registry;
use mvtee_runtime::{EngineConfig, EngineKind, KernelStrategy};
use mvtee_tee::{
    AttestationReport, CodeIdentity, Enclave, Manifest, Platform, ProtectedFs, TeeKind,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A partial override of one variant's spec (builder-level control used
/// by experiments: defender hardening, ASLR seeds, engine swaps).
#[derive(Debug, Clone, Default)]
pub struct SpecPatch {
    /// Replace the engine configuration, the variant's intra-op thread
    /// count included.
    pub engine: Option<EngineConfig>,
    /// Replace the hardening capability list.
    pub hardening: Option<Vec<String>>,
    /// Replace the ASLR seed.
    pub aslr_seed: Option<u64>,
    /// Replace the graph-transform list.
    pub transforms: Option<Vec<mvtee_diversify::TransformKind>>,
    /// Replace this variant's GEMM-family kernel strategy (applied after
    /// any engine swap, so it composes with `engine`). Unlike thread
    /// counts, different strategies round differently — a panel mixing
    /// them must opt into a tolerance via
    /// `DeploymentBuilder::checkpoint_metric`.
    pub kernel_strategy: Option<KernelStrategy>,
}

impl SpecPatch {
    /// A patch that only swaps the engine configuration.
    pub fn engine(engine: EngineConfig) -> Self {
        SpecPatch { engine: Some(engine), ..Default::default() }
    }

    /// A patch that only pins the GEMM-family kernel strategy.
    pub fn kernel(strategy: KernelStrategy) -> Self {
        SpecPatch { kernel_strategy: Some(strategy), ..Default::default() }
    }

    /// Applies the patch to a spec.
    pub fn apply(&self, spec: &mut VariantSpec) {
        if let Some(e) = &self.engine {
            spec.engine = e.clone();
        }
        if let Some(h) = &self.hardening {
            spec.hardening = h.clone();
        }
        if let Some(a) = self.aslr_seed {
            spec.aslr_seed = a;
        }
        if let Some(t) = &self.transforms {
            spec.transforms = t.clone();
        }
        if let Some(ks) = self.kernel_strategy {
            spec.engine.kernel_strategy = ks;
        }
    }
}

/// One variant's offline artifacts.
#[derive(Clone)]
pub struct VariantArtifact {
    /// The full spec (monitor-side knowledge).
    pub spec: VariantSpec,
    /// Sealed payload as placed on host storage.
    pub sealed: ([u8; 16], Vec<u8>),
    /// Host path of the sealed payload.
    pub bundle_path: String,
    /// The variant-specific key-derivation key (released after
    /// attestation).
    pub variant_key: [u8; 32],
    /// Expected hash of the second-stage manifest.
    pub expected_manifest_hash: [u8; 32],
    /// First-stage (public) manifest.
    pub init_manifest: Manifest,
}

/// All artifacts produced by the offline tool for one deployment.
pub struct OfflinePhase {
    /// Model graph (with weights).
    pub graph: Graph,
    /// The chosen partition set.
    pub partition_set: PartitionSet,
    /// Extracted per-stage subgraphs.
    pub subgraphs: Vec<Graph>,
    /// Artifacts per partition, per variant.
    pub artifacts: Vec<Vec<VariantArtifact>>,
    /// The public init-variant "binary".
    pub init_code: Vec<u8>,
}

/// Partition sets the offline phase selected, by `(partitions,
/// partition_seed)`. The replicas of one pool share the model, so one
/// selection serves every replica that asks for the same pair.
type PartitionPlans = HashMap<(usize, u64), PartitionSet>;

impl OfflinePhase {
    /// Runs the offline phase: partitioning, variant generation, sealing.
    ///
    /// # Errors
    ///
    /// Propagates partitioning and variant-generation failures.
    pub fn run(
        graph: &Graph,
        config: &MvxConfig,
        variant_seed: u64,
        overrides: &HashMap<(usize, usize), SpecPatch>,
    ) -> Result<Self> {
        Self::run_with_options(graph, config, variant_seed, overrides, None, &HashMap::new())
    }

    /// [`OfflinePhase::run`] with two options. With a `pool`, the partition
    /// set is selected from that pre-established [`PartitionPool`] ("the
    /// variants are dynamically initialized from the pre-established
    /// variant pool", §3.1): it must contain a set with `config.partitions`
    /// stages, and selection is randomized by `config.partition_seed`.
    /// `weight_faults` seals weight bit-flip faults into selected variants'
    /// payloads, the fault-injection path of the campaign engine: a
    /// `(partition, variant) → BitFlipFault` entry corrupts that one
    /// variant's subgraph copy *before* variant generation, modelling a
    /// Rowhammer/Terminal-Brain-Damage flip in one TEE's sealed model
    /// memory; all other variants seal the clean subgraph.
    ///
    /// # Errors
    ///
    /// Fails when the pool lacks a matching set, plus all
    /// [`OfflinePhase::run`] failure modes.
    pub fn run_with_options(
        graph: &Graph,
        config: &MvxConfig,
        variant_seed: u64,
        overrides: &HashMap<(usize, usize), SpecPatch>,
        pool: Option<&PartitionPool>,
        weight_faults: &HashMap<(usize, usize), BitFlipFault>,
    ) -> Result<Self> {
        let mut plans = PartitionPlans::new();
        Self::run_planned(graph, config, variant_seed, overrides, pool, weight_faults, &mut plans)
    }

    /// [`OfflinePhase::run_with_options`] that takes a pool-less partition
    /// set from `plans` when they hold one for this `(partitions,
    /// partition_seed)`, and records the one it selects there otherwise.
    fn run_planned(
        graph: &Graph,
        config: &MvxConfig,
        variant_seed: u64,
        overrides: &HashMap<(usize, usize), SpecPatch>,
        pool: Option<&PartitionPool>,
        weight_faults: &HashMap<(usize, usize), BitFlipFault>,
        plans: &mut PartitionPlans,
    ) -> Result<Self> {
        config.validate()?;
        let set = if let Some(pool) = pool {
            pool.select_random(config.partitions, config.partition_seed)
                .cloned()
                .ok_or_else(|| {
                    MvxError::InvalidConfig(format!(
                        "partition pool has no {}-stage set",
                        config.partitions
                    ))
                })?
        } else {
            match plans.entry((config.partitions, config.partition_seed)) {
                Entry::Occupied(planned) => planned.get().clone(),
                Entry::Vacant(slot) => {
                    mvtee_telemetry::counter("core.offline.partition_plans").inc();
                    let set =
                        select_partition_set(graph, config.partitions, config.partition_seed)?;
                    slot.insert(set).clone()
                }
            }
        };
        set.verify(graph)?;
        let subgraphs = set.extract_subgraphs(graph)?;
        let generator = VariantGenerator::new(variant_seed);
        let init_code = b"mvtee init-variant binary v1.0".to_vec();

        let mut artifacts = Vec::with_capacity(config.partitions);
        for (p, claim) in config.claims.iter().enumerate() {
            let specs = build_specs(p, claim, variant_seed, overrides);
            let mut row = Vec::with_capacity(specs.len());
            for (v, spec) in specs.into_iter().enumerate() {
                let faulted: Option<Graph> = weight_faults.get(&(p, v)).map(|fault| {
                    let mut g = subgraphs[p].clone();
                    let _ = flip_weight_bits(&mut g, fault.strategy, fault.count, fault.seed);
                    g
                });
                row.push(seal_artifact(
                    &init_code,
                    faulted.as_ref().unwrap_or(&subgraphs[p]),
                    &generator,
                    p,
                    &spec,
                    format!("/enc/p{p}/v{v}"),
                    &format!("p{p}-v{v}"),
                )?);
            }
            artifacts.push(row);
        }
        Ok(OfflinePhase {
            graph: graph.clone(),
            partition_set: set,
            subgraphs,
            artifacts,
            init_code,
        })
    }
}

/// Selects (or trivially constructs, for one partition) a random-balanced
/// partition set — the canonical selection shared by the deployment and
/// the benchmark harness.
pub fn select_partition_set(
    graph: &Graph,
    partitions: usize,
    seed: u64,
) -> Result<PartitionSet> {
    if partitions == 1 {
        let all: Vec<mvtee_graph::NodeId> = graph.nodes().iter().map(|n| n.id).collect();
        return Ok(PartitionSet::from_groups(graph, vec![all], seed)?);
    }
    Ok(Partitioner::new(partitions).partition_best_of(graph, seed, 4)?)
}

/// Seals one variant's payload (second-stage manifest + bundle) under a
/// fresh variant key and assembles its artifact — the single construction
/// path used by the offline phase, partial updates, key rotation and the
/// recovery manager.
pub(crate) fn seal_artifact(
    init_code: &[u8],
    subgraph: &Graph,
    generator: &VariantGenerator,
    partition: usize,
    spec: &VariantSpec,
    bundle_path: String,
    manifest_tag: &str,
) -> Result<VariantArtifact> {
    let bundle = generator.materialize(subgraph, partition, spec)?;
    let mut second = Manifest::main_variant(format!("variant-{manifest_tag}"));
    second.encrypt_file(bundle_path.clone());
    let payload =
        SealedVariantPayload { manifest: second.clone(), bundle: Bytes(bundle.to_bytes()) };
    let payload_bytes = encode(&payload)?;
    let variant_key: [u8; 32] = random_array();
    let mut sealer = ProtectedFs::new();
    sealer.write(&variant_key, &bundle_path, &payload_bytes);
    let sealed = sealer.export(&bundle_path).expect("just written");
    let mut init_manifest = Manifest::init_variant(format!("init-{manifest_tag}"));
    init_manifest.trust_file("/bin/init-variant", init_code);
    init_manifest.encrypt_file(bundle_path.clone());
    Ok(VariantArtifact {
        spec: spec.clone(),
        sealed,
        bundle_path,
        variant_key,
        expected_manifest_hash: second.hash(),
        init_manifest,
    })
}

/// Builds the variant specs for one partition claim — the canonical
/// construction shared by the deployment and the benchmark harness.
pub fn build_specs(
    partition: usize,
    claim: &PartitionMvx,
    seed: u64,
    overrides: &HashMap<(usize, usize), SpecPatch>,
) -> Vec<VariantSpec> {
    let mut specs = if claim.replicated {
        (0..claim.variants)
            .map(|v| VariantSpec::replicated((partition * 1000 + v) as u64, EngineKind::OrtLike))
            .collect::<Vec<_>>()
    } else {
        let mut s = spread_specs(claim.variants, seed.wrapping_add(partition as u64 * 0x77));
        for (v, spec) in s.iter_mut().enumerate() {
            spec.id = VariantId((partition * 1000 + v) as u64);
        }
        s
    };
    for (v, spec) in specs.iter_mut().enumerate() {
        if let Some(patch) = overrides.get(&(partition, v)) {
            patch.apply(spec);
        }
    }
    specs
}

/// A bound variant's registry entry (anti-fork secure binding, §6.5).
#[derive(Debug, Clone)]
pub struct BindingRecord {
    /// Deployment generation (incremented on every update/relaunch; the
    /// anti-fork uniqueness check applies within one generation).
    pub generation: u64,
    /// Partition index.
    pub partition: usize,
    /// Variant index.
    pub variant: usize,
    /// Assigned variant id.
    pub variant_id: u64,
    /// Post-exec measurement from install evidence.
    pub measurement: [u8; 32],
}

/// A simulated fault and, for the per-variant families, the
/// `(partition, variant)` it strikes.
type PlacedFault = (FaultDescriptor, Option<(usize, usize)>);

/// The host and wire faults the variant at `at` launches with: every
/// platform-wide fault plus the per-variant ones placed there (`None`:
/// the platform-wide ones alone — what a replacement inherits).
fn faults_at(faults: &[PlacedFault], at: Option<(usize, usize)>) -> (HostFaults, Option<NetFault>) {
    let mut host = HostFaults::default();
    let mut net = None;
    for (fault, placed) in faults {
        match fault {
            FaultDescriptor::Cve(attack) => host.attack = Some(*attack),
            FaultDescriptor::BlasFault(frameflip) => host.frameflip = Some(frameflip.clone()),
            _ if *placed != at => {}
            FaultDescriptor::Stall(stall) => host.liveness = Some(LivenessFault::Stall(*stall)),
            FaultDescriptor::Channel(chan) => host.liveness = Some(LivenessFault::Channel(*chan)),
            FaultDescriptor::Net(fault) => net = Some(*fault),
            // Sealed into the payload offline, not a launch-time fault.
            FaultDescriptor::WeightBitFlip(_) => {}
        }
    }
    (host, net)
}

/// Builder for [`Deployment`].
#[derive(Clone)]
pub struct DeploymentBuilder {
    model: Model,
    config: MvxConfig,
    variant_seed: u64,
    overrides: HashMap<(usize, usize), SpecPatch>,
    faults: Vec<PlacedFault>,
    pool_config: Option<PoolConfig>,
    placements: HashMap<(usize, usize), VariantPlacement>,
    worker_bin: Option<PathBuf>,
}

impl DeploymentBuilder {
    /// Cold-starts a builder from the model registry: resolves `key`
    /// (the tenant routing name), unseals and verifies the bundle
    /// (digest + graph fingerprint), and warms the session
    /// [`EngineCache`](mvtee_runtime::EngineCache) / `PackedGemm` path so
    /// the first inference doesn't pay graph preparation on the critical
    /// path. Bundles the registry's LRU evicted on the way are
    /// dropped from the engine cache too — an evicted model is cold
    /// everywhere, sealed and in-memory alike.
    ///
    /// Telemetry: `registry.coldstart.warm` / `registry.coldstart.cold`
    /// count whether a prepared engine already existed for the model;
    /// `registry.coldstart.checkout_ns` times unseal + verification +
    /// warmup.
    ///
    /// # Errors
    ///
    /// [`MvxError::Registry`] when the key is unknown, the bundle was
    /// evicted, or verification fails; [`MvxError::Runtime`] if warmup
    /// preparation fails.
    pub fn from_registry(registry: &Mutex<Registry>, key: &str) -> Result<DeploymentBuilder> {
        let timer = mvtee_telemetry::histogram("registry.coldstart.checkout_ns").start();
        let (model, evicted) = {
            let mut reg = registry.lock().expect("registry lock");
            let model = reg.checkout_named(key)?;
            (model, reg.drain_evictions())
        };
        let cache = mvtee_runtime::session_cache();
        for fp in evicted {
            cache.evict(fp);
        }
        let fingerprint = mvtee_registry::key_for(&model);
        if cache.contains(fingerprint) {
            mvtee_telemetry::counter("registry.coldstart.warm").inc();
        } else {
            mvtee_telemetry::counter("registry.coldstart.cold").inc();
        }
        // Warm the default-engine path: preparation packs GEMM weights, so
        // same-config variants of the deployment hit a hot cache at build
        // time.
        let engine = mvtee_runtime::Engine::new(EngineConfig::of_kind(EngineKind::OrtLike));
        cache.prepare(&engine, &model.graph)?;
        timer.finish();
        Ok(DeploymentBuilder::new(model))
    }

    fn new(model: Model) -> Self {
        DeploymentBuilder {
            model,
            config: MvxConfig::fast_path(2),
            variant_seed: 0xd1ce,
            overrides: HashMap::new(),
            faults: Vec::new(),
            pool_config: None,
            placements: HashMap::new(),
            worker_bin: None,
        }
    }

    /// Sets the partition count (claims reset to single-variant).
    pub fn partitions(mut self, n: usize) -> Self {
        self.config.partitions = n;
        self.config.claims = vec![PartitionMvx::single(); n];
        self
    }

    /// Replaces the entire configuration.
    pub fn config(mut self, config: MvxConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables replicated MVX on a partition.
    pub fn mvx_on_partition(mut self, partition: usize, variants: usize) -> Self {
        if partition < self.config.claims.len() {
            self.config.claims[partition] = PartitionMvx::replicated(variants);
        }
        self
    }

    /// Overrides the consistency metric of one partition's checkpoint —
    /// e.g. relaxing a replicated claim whose members were re-engined
    /// into a heterogeneous panel via [`Self::engine_override`].
    pub fn checkpoint_metric(mut self, partition: usize, metric: Metric) -> Self {
        if partition < self.config.claims.len() {
            self.config.claims[partition].metric = metric;
        }
        self
    }

    /// Enables diversified MVX on a partition.
    pub fn diversified_mvx(mut self, partition: usize, variants: usize) -> Self {
        if partition < self.config.claims.len() {
            self.config.claims[partition] = PartitionMvx::diversified(variants);
        }
        self
    }

    /// Overrides one variant's engine configuration.
    pub fn engine_override(mut self, partition: usize, variant: usize, engine: EngineConfig) -> Self {
        self.overrides.insert((partition, variant), SpecPatch::engine(engine));
        self
    }

    /// Applies a full spec patch to one variant (hardening, ASLR seed,
    /// transforms, engine).
    pub fn spec_patch(mut self, partition: usize, variant: usize, patch: SpecPatch) -> Self {
        self.overrides.insert((partition, variant), patch);
        self
    }

    /// Sets the execution mode.
    pub fn exec_mode(mut self, exec: crate::config::ExecMode) -> Self {
        self.config.exec = exec;
        self
    }

    /// Sets the path mode.
    pub fn path_mode(mut self, path: crate::config::PathMode) -> Self {
        self.config.path = path;
        self
    }

    /// Sets the voting policy.
    pub fn voting(mut self, voting: crate::config::VotingPolicy) -> Self {
        self.config.voting = voting;
        self
    }

    /// Sets the response policy.
    pub fn response(mut self, response: ResponsePolicy) -> Self {
        self.config.response = response;
        self
    }

    /// Toggles data-plane encryption (Fig 10 baseline).
    pub fn encrypt(mut self, encrypt: bool) -> Self {
        self.config.encrypt = encrypt;
        self
    }

    /// Sets the partition-selection seed.
    pub fn partition_seed(mut self, seed: u64) -> Self {
        self.config.partition_seed = seed;
        self
    }

    /// Sets the variant-generation seed.
    pub fn variant_seed(mut self, seed: u64) -> Self {
        self.variant_seed = seed;
        self
    }

    /// Injects one simulated fault. The per-variant families strike the
    /// `(partition, variant)` named by `at`: weight bit flips are sealed
    /// into that variant's payload (see
    /// [`OfflinePhase::run_with_options`]); a stall or lossy channel hits
    /// its host (the straggler-watchdog and recovery exercise path); a
    /// wire fault hits the *network between* monitor and variant, so it
    /// is legal for both placements — in-process it wraps the variant's
    /// response transport, out-of-process the whole worker connection
    /// (heartbeat frames exempt from one-shot faults). Host and wire
    /// faults are transient: replacements provisioned by the recovery
    /// manager start clean. The platform-wide families (a CVE exploit, a
    /// FrameFlip) are on every variant host and take `at: None`. A fault
    /// whose family and `at` disagree fails [`build`](Self::build); a
    /// later fault of the same family at the same place replaces an
    /// earlier one.
    pub fn fault(mut self, fault: FaultDescriptor, at: Option<(usize, usize)>) -> Self {
        self.faults.push((fault, at));
        self
    }

    /// Places one variant out-of-process: it runs as a spawned
    /// `mvtee-variantd` OS process connected over multiplexed loopback
    /// TCP instead of an in-process thread. Bootstrap, encryption and the
    /// wire format are identical either way (the distributed-MVX
    /// conformance property).
    pub fn out_of_process(mut self, partition: usize, variant: usize) -> Self {
        self.placements.insert((partition, variant), VariantPlacement::OutOfProcess);
        self
    }

    /// Overrides the `mvtee-variantd` binary path for out-of-process
    /// variants (defaults to the `MVTEE_VARIANTD` environment variable,
    /// then a search next to the current executable).
    pub fn worker_binary(mut self, path: impl Into<PathBuf>) -> Self {
        self.worker_bin = Some(path.into());
        self
    }

    /// Builds the offline partition-set pool first and selects from it
    /// (full updates then reshuffle within the pool, as in §4.3). The pool
    /// config's targets must include the deployment's partition count.
    pub fn partition_pool(mut self, pool_config: PoolConfig) -> Self {
        self.pool_config = Some(pool_config);
        self
    }

    /// Runs the offline phase and brings the deployment online.
    ///
    /// # Errors
    ///
    /// Propagates offline-phase and bootstrap failures.
    pub fn build(self) -> Result<Deployment> {
        self.build_planned(&mut PartitionPlans::new())
    }

    /// [`build`](Self::build), taking its partition set from `plans` when
    /// they already hold one for its configuration.
    fn build_planned(self, plans: &mut PartitionPlans) -> Result<Deployment> {
        let mut weight_faults = HashMap::new();
        for (fault, at) in &self.faults {
            if fault.platform_wide() == at.is_some() {
                return Err(MvxError::InvalidConfig(format!(
                    "fault {fault} is {}",
                    if at.is_some() {
                        "platform-wide and takes no (partition, variant)"
                    } else {
                        "per-variant and needs a (partition, variant)"
                    }
                )));
            }
            if let (FaultDescriptor::WeightBitFlip(flip), Some(at)) = (fault, at) {
                weight_faults.insert(*at, *flip);
            }
        }
        let pool = match &self.pool_config {
            Some(cfg) => Some(
                PartitionPool::build(&self.model.graph, cfg, self.config.partition_seed)
                    .map_err(MvxError::from)?,
            ),
            None => None,
        };
        let offline = OfflinePhase::run_planned(
            &self.model.graph,
            &self.config,
            self.variant_seed,
            &self.overrides,
            pool.as_ref(),
            &weight_faults,
            plans,
        )?;
        let provisioner = Provisioner::new(
            Platform::new(),
            offline.init_code.clone(),
            &self.config,
            self.placements,
            self.worker_bin,
        );
        Deployment::bring_online(self.model, self.config, offline, self.faults, provisioner, pool)
    }

    /// The variant seed replica `r` of a pool built from `base` uses —
    /// a deterministic golden-ratio stride, so a whole replica pool is
    /// reproducible from one base seed (replica 0 keeps the base seed).
    pub fn replica_variant_seed(base: u64, replica: usize) -> u64 {
        base.wrapping_add((replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Builds `n` independently diversified deployments of this
    /// configuration — the replica pool a serving frontend drives.
    ///
    /// Each replica's variant seed is derived deterministically from the
    /// base seed ([`DeploymentBuilder::replica_variant_seed`]), so the
    /// whole pool reproduces from a single `--seed`. The partition seed
    /// is deliberately **shared** across replicas: a common partition
    /// set keeps replica outputs bit-identical for replicated claims
    /// (partition boundaries reassociate float reductions, so different
    /// sets drift in the last bits) and lets replicas of the same
    /// engine config reuse the warm session [`EngineCache`] instead of
    /// re-preparing every subgraph per replica. The set is selected once
    /// for the whole pool (`core.offline.partition_plans` counts
    /// selections).
    ///
    /// [`EngineCache`]: mvtee_runtime::EngineCache
    ///
    /// # Errors
    ///
    /// Rejects `n == 0`; propagates any replica's build failure.
    pub fn build_many(self, n: usize) -> Result<Vec<Deployment>> {
        self.build_many_with(n, |_, b| b)
    }

    /// [`DeploymentBuilder::build_many`] with a per-replica hook applied
    /// after seed derivation — the fault-injection path of the serving
    /// experiments (e.g. a liveness fault sealed into one replica only).
    /// The hook keeps the model; a replica it moves to another partition
    /// count or seed, or onto a partition pool, selects its own set.
    ///
    /// # Errors
    ///
    /// Rejects `n == 0`; propagates any replica's build failure.
    pub fn build_many_with(
        self,
        n: usize,
        customize: impl Fn(usize, DeploymentBuilder) -> DeploymentBuilder,
    ) -> Result<Vec<Deployment>> {
        if n == 0 {
            return Err(MvxError::InvalidConfig("a replica pool needs at least one replica".into()));
        }
        let base_seed = self.variant_seed;
        let mut plans = PartitionPlans::new();
        let mut replicas = Vec::with_capacity(n);
        for r in 0..n {
            let b = self.clone().variant_seed(Self::replica_variant_seed(base_seed, r));
            replicas.push(customize(r, b).build_planned(&mut plans)?);
        }
        Ok(replicas)
    }
}

/// A live MVTEE deployment.
pub struct Deployment {
    model: Model,
    config: MvxConfig,
    offline: OfflinePhase,
    monitor: Enclave,
    /// The running generation's bring-up state (platform, bindings, event
    /// log, hosts), shared with the recovery manager.
    provisioner: Arc<Provisioner>,
    pipeline: Option<MonitorHandle>,
    next_batch: u64,
    input_value: ValueId,
    output_value: ValueId,
    faults: Vec<PlacedFault>,
    pool: Option<PartitionPool>,
    recovery_manager: Option<JoinHandle<()>>,
    transcript: TranscriptLog,
}

/// Per-stream timing statistics (used by the benchmark harness).
#[derive(Debug, Clone)]
pub struct StreamStats {
    /// Per-batch results (output tensor or failure description).
    pub outputs: Vec<std::result::Result<mvtee_tensor::Tensor, String>>,
    /// Wall-clock duration of the whole stream.
    pub total: Duration,
    /// Per-batch latency (submission → completion).
    pub latencies: Vec<Duration>,
}

/// A batch's output, or the reason a checkpoint halted it.
type Output = std::result::Result<mvtee_tensor::Tensor, String>;

impl StreamStats {
    /// Throughput in batches per second.
    pub fn throughput(&self) -> f64 {
        if self.total.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.outputs.len() as f64 / self.total.as_secs_f64()
    }

    /// Mean latency in seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.iter().map(Duration::as_secs_f64).sum::<f64>()
            / self.latencies.len() as f64
    }

    /// Number of failed batches.
    pub fn failures(&self) -> usize {
        self.outputs.iter().filter(|o| o.is_err()).count()
    }
}

impl Deployment {
    /// Starts building a deployment for a zoo model.
    pub fn builder(model: Model) -> DeploymentBuilder {
        DeploymentBuilder::new(model)
    }

    fn bring_online(
        model: Model,
        config: MvxConfig,
        offline: OfflinePhase,
        faults: Vec<PlacedFault>,
        provisioner: Provisioner,
        pool: Option<PartitionPool>,
    ) -> Result<Deployment> {
        let monitor = Enclave::launch(
            TeeKind::Sgx,
            CodeIdentity::from_content("mvtee-monitor", "1.0", b"mvtee monitor binary v1.0"),
            Manifest::main_variant("monitor"),
            provisioner.platform.clone(),
        );
        // The public infer API is single-input/single-output; reject other
        // interfaces up front instead of silently using the first values.
        if offline.graph.inputs().len() != 1 || offline.graph.outputs().len() != 1 {
            return Err(MvxError::InvalidConfig(format!(
                "deployment requires a single-input/single-output model, got {}/{}",
                offline.graph.inputs().len(),
                offline.graph.outputs().len()
            )));
        }
        let input_value = offline.graph.inputs()[0];
        let output_value = offline.graph.outputs()[0];

        let mut deployment = Deployment {
            model,
            config,
            offline,
            monitor,
            provisioner: Arc::new(provisioner),
            pipeline: None,
            next_batch: 0,
            input_value,
            output_value,
            faults,
            pool,
            recovery_manager: None,
            transcript: TranscriptLog::new(),
        };
        deployment.launch_all()?;
        Ok(deployment)
    }

    /// Brings every variant TEE up and wires the pipeline.
    fn launch_all(&mut self) -> Result<()> {
        let mut runtimes = Vec::with_capacity(self.config.partitions);
        let mut metrics = Vec::with_capacity(self.config.partitions);
        // Values needed downstream of each stage: the model's outputs and
        // every later stage's inputs.
        let mut needed_after = vec![HashSet::new(); self.config.partitions];
        let mut needed: HashSet<ValueId> = self.offline.graph.outputs().iter().copied().collect();
        for p in (0..self.config.partitions).rev() {
            needed_after[p] = needed.clone();
            needed.extend(&self.offline.partition_set.stages[p].inputs);
        }

        // Every variant answers straight into the monitor's inbox.
        let (inbox, responses) = channel();
        // The recovery manager (when enabled) gets what only recovery needs
        // on top of the shared provisioner, the inbox replacements rejoin
        // through, and a request channel; every stage gets a sender so
        // quarantines turn into re-provisioning requests, and the manager
        // exits once the last is dropped.
        let mut recovery = None;
        if self.config.recovery.enabled {
            let (tx, rx) = channel::<RecoveryRequest>();
            let ctx = RecoveryContext {
                provisioner: Arc::clone(&self.provisioner),
                subgraphs: self.offline.subgraphs.clone(),
                specs: self.variant_specs(),
                metrics: self.config.claims.iter().map(|c| c.metric).collect(),
                policy: self.config.recovery,
                inbox: inbox.clone(),
                platform_faults: faults_at(&self.faults, None).0,
            };
            self.recovery_manager = Some(spawn_recovery_manager(ctx, rx));
            recovery = Some(tx);
        }

        for (p, claim) in self.config.claims.iter().enumerate() {
            let stage = &self.offline.partition_set.stages[p];
            let mut links = Vec::with_capacity(claim.variants);
            for (v, artifact) in self.offline.artifacts[p].iter().enumerate() {
                let (faults, netfault) = faults_at(&self.faults, Some((p, v)));
                let port = ResponsePort::new(inbox.clone(), (p, v), 0);
                let launch = |_: &mut _, _: &mut _| Ok(());
                links.push(self.provisioner.bring_up((p, v), artifact, faults, netfault, port, launch)?);
            }
            runtimes.push(StageRuntime {
                partition: p,
                links,
                inputs: stage.inputs.clone(),
                outputs: stage.outputs.clone(),
                needed_downstream: needed_after[p].clone(),
                slow: self.config.slow_path(p),
                recovery: recovery.clone(),
                transcript: self.transcript.clone(),
            });
            metrics.push(claim.metric);
        }
        let policy = StagePolicy::from_config(&self.config);
        let events = self.provisioner.events.clone();
        self.pipeline = Some(spawn_monitor(runtimes, policy, metrics, events, (inbox, responses)));
        Ok(())
    }

    /// The deployed model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The audit event log.
    pub fn events(&self) -> &EventLog {
        &self.provisioner.events
    }

    /// The Merkle-chainable checkpoint transcript: one entry per voted
    /// verdict, shared with every stage.
    pub fn transcript(&self) -> &TranscriptLog {
        &self.transcript
    }

    /// Healed: the slot quarantined at `quarantined_at_batch` was recovered
    /// *and* a later checkpoint of its partition passed with all `panel`
    /// members agreeing.
    pub fn healed_after(
        &self,
        partition: usize,
        variant: usize,
        quarantined_at_batch: u64,
        panel: usize,
    ) -> bool {
        self.events().recoveries().contains(&(partition, variant))
            && self.transcript.passes().iter().any(|&(p, batch, agreeing)| {
                p == partition && batch > quarantined_at_batch && agreeing == panel
            })
    }

    /// The active configuration.
    pub fn config(&self) -> &MvxConfig {
        &self.config
    }

    /// The chosen partition set.
    pub fn partition_set(&self) -> &PartitionSet {
        &self.offline.partition_set
    }

    /// Every variant's spec, per partition — the monitor-side knowledge
    /// a replica-pool orchestrator uses to prove pool reproducibility.
    pub fn variant_specs(&self) -> Vec<Vec<VariantSpec>> {
        self.offline
            .artifacts
            .iter()
            .map(|row| row.iter().map(|a| a.spec.clone()).collect())
            .collect()
    }

    /// Current secure bindings (a snapshot — the recovery manager appends
    /// concurrently while the pipeline runs).
    pub fn bindings(&self) -> Vec<BindingRecord> {
        self.provisioner.bindings()
    }

    /// Process ids of the out-of-process variant hosts, keyed by
    /// `(partition, variant)` — empty for an all-in-process deployment.
    pub fn worker_pids(&self) -> Vec<((usize, usize), u32)> {
        self.provisioner.worker_pids()
    }

    /// Kills the out-of-process host of `(partition, variant)` — the
    /// crash-fault injection of the distributed experiments. The monitor
    /// observes the connection loss as a variant crash, quarantines the
    /// variant, and (with recovery enabled) heals by respawning and
    /// re-attesting a replacement worker. Returns `false` when the
    /// variant is in-process or unknown.
    pub fn kill_worker(&mut self, partition: usize, variant: usize) -> bool {
        self.provisioner.kill_worker(partition, variant)
    }

    /// Model-owner attestation of the monitor TEE (step ② of Fig 6): a
    /// hardware-signed report binding the caller's nonce.
    pub fn attest_monitor(&self, nonce: &[u8]) -> AttestationReport {
        self.monitor.report(&sha256(nonce))
    }

    /// Verifies a monitor report produced by [`Deployment::attest_monitor`]
    /// (the model-owner side).
    ///
    /// # Errors
    ///
    /// Returns an attestation error on any mismatch.
    pub fn verify_monitor_report(&self, report: &AttestationReport, nonce: &[u8]) -> Result<()> {
        mvtee_tee::verify_report(
            &self.provisioner.platform,
            report,
            Some(self.monitor.measurement()),
            &sha256(nonce),
        )?;
        Ok(())
    }

    /// Hands one batch to the first stage and returns its batch id.
    /// Blocks only while the first stage's queue is full. The last stage
    /// calls `reply` with the batch's output or the reason a checkpoint
    /// halted it — on its own thread, exactly once — and every batch
    /// handed in is answered before an update, key rotation or shutdown
    /// retires its generation. A batch the pipeline loses drops `reply`
    /// uncalled; so does a refused submission. `trace` is the span the
    /// pipeline's spans chain to (e.g. a serving request's root);
    /// [`TraceCtx::NONE`] gets a deterministic per-batch root.
    ///
    /// # Errors
    ///
    /// The deployment is shut down, or its pipeline stopped.
    pub fn submit(
        &mut self,
        input: mvtee_tensor::Tensor,
        trace: TraceCtx,
        reply: impl FnOnce(std::result::Result<mvtee_tensor::Tensor, String>) + Send + 'static,
    ) -> Result<u64> {
        let pipeline = self.running()?;
        let batch = self.next_batch;
        let trace = if trace.is_none() { TraceCtx::for_batch(batch) } else { trace };
        let output = self.output_value;
        let reply: Reply = Box::new(move |env| {
            reply(env.and_then(|mut env| {
                env.remove(&output)
                    .ok_or_else(|| "model output missing from final environment".to_string())
            }))
        });
        let env = HashMap::from([(self.input_value, input)]);
        let job = StageJob { batch, env, poisoned: None, trace, reply };
        if !pipeline.submit(job) {
            return Err(MvxError::Transport("pipeline input closed".into()));
        }
        self.next_batch += 1;
        Ok(batch)
    }

    /// [`Deployment::submit`] with the answer delivered to the returned
    /// one-shot channel.
    fn submit_awaited(&mut self, input: mvtee_tensor::Tensor) -> Result<Receiver<Output>> {
        let (tx, rx) = sync_channel(1);
        self.submit(input, TraceCtx::NONE, move |output| {
            let _ = tx.send(output);
        })?;
        Ok(rx)
    }

    fn running(&self) -> Result<&MonitorHandle> {
        self.pipeline.as_ref().ok_or_else(|| MvxError::BadState("deployment is shut down".into()))
    }

    /// Sequential inference: the batch traverses all stages before the
    /// call returns.
    ///
    /// # Errors
    ///
    /// Returns [`MvxError::DivergenceHalt`] (or a crash error) when a
    /// checkpoint halted this batch.
    pub fn infer(&mut self, input: &mvtee_tensor::Tensor) -> Result<mvtee_tensor::Tensor> {
        let answer = self.submit_awaited(input.clone())?;
        await_output(&answer)?
            .map_err(|detail| MvxError::DivergenceHalt { partition: usize::MAX, detail })
    }

    /// Pipelined inference over a stream of batches: all batches are
    /// submitted up front so stages overlap.
    ///
    /// # Errors
    ///
    /// Fails only on infrastructure loss; per-batch failures are reported
    /// inside [`StreamStats::outputs`].
    pub fn infer_stream(&mut self, inputs: &[mvtee_tensor::Tensor]) -> Result<StreamStats> {
        self.stream(inputs, inputs.len())
    }

    /// Sequential inference over a stream (each batch completes before the
    /// next is submitted) with the same statistics envelope.
    ///
    /// # Errors
    ///
    /// Fails only on infrastructure loss.
    pub fn infer_sequential(&mut self, inputs: &[mvtee_tensor::Tensor]) -> Result<StreamStats> {
        self.stream(inputs, 1)
    }

    /// Streams `inputs` with at most `window` batches in flight.
    fn stream(&mut self, inputs: &[mvtee_tensor::Tensor], window: usize) -> Result<StreamStats> {
        let start = Instant::now();
        let mut pending = inputs.iter();
        let mut in_flight = VecDeque::new();
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut latencies = Vec::with_capacity(inputs.len());
        while outputs.len() < inputs.len() {
            while in_flight.len() < window {
                let Some(input) = pending.next() else { break };
                in_flight.push_back((Instant::now(), self.submit_awaited(input.clone())?));
            }
            let (submitted, answer) = in_flight.pop_front().expect("a batch is in flight");
            outputs.push(await_output(&answer)?);
            latencies.push(submitted.elapsed());
        }
        Ok(StreamStats { outputs, total: start.elapsed(), latencies })
    }

    /// Partial variant update (§4.3): replaces the variants of one
    /// partition with a fresh claim, re-attesting and re-binding; bindings
    /// are appended, never rewritten.
    ///
    /// # Errors
    ///
    /// Propagates bootstrap failures; the deployment is rebuilt.
    pub fn partial_update(&mut self, partition: usize, claim: PartitionMvx) -> Result<()> {
        if partition >= self.config.partitions {
            return Err(MvxError::InvalidConfig(format!(
                "partition {partition} out of range"
            )));
        }
        self.stop_pipeline();
        // Regenerate artifacts for the updated partition only (fresh keys,
        // fresh variant ids per the no-TEE-reuse policy). Nothing is
        // committed until regeneration fully succeeds.
        // Seed diversification from the update generation, not the
        // (workload-dependent) batch counter.
        let next_generation = self.provisioner.generation + 1;
        let fresh_seed = next_generation.wrapping_mul(0x9e37_79b9);
        let overrides = HashMap::new();
        let generator = VariantGenerator::new(fresh_seed);
        let specs = build_specs(partition, &claim, fresh_seed, &overrides);
        let mut row = Vec::with_capacity(specs.len());
        for (v, mut spec) in specs.into_iter().enumerate() {
            // Generation-scoped ids: unique across updates and partitions.
            spec.id = VariantId(next_generation * 1_000_000 + (partition * 1000 + v) as u64);
            row.push(seal_artifact(
                &self.offline.init_code,
                &self.offline.subgraphs[partition],
                &generator,
                partition,
                &spec,
                format!("/enc/p{partition}/v{v}/u{fresh_seed}"),
                &format!("p{partition}-v{v}-updated"),
            )?);
        }
        self.config.claims[partition] = claim.clone();
        self.offline.artifacts[partition] = row;
        self.provisioner.events.record(MonitorEvent::BindingUpdated {
            partition,
            description: format!("partial update to {} variants", claim.variants),
        });
        self.launch_all()
    }

    /// Full variant update: reshuffles the partition set (new seed) and
    /// reconstructs every binding.
    ///
    /// # Errors
    ///
    /// Propagates offline-phase and bootstrap failures.
    pub fn full_update(&mut self, new_partition_seed: u64) -> Result<()> {
        self.stop_pipeline();
        self.config.partition_seed = new_partition_seed;
        let overrides = HashMap::new();
        self.offline = OfflinePhase::run_with_options(
            &self.offline.graph,
            &self.config,
            new_partition_seed ^ 0xfeed,
            &overrides,
            self.pool.as_ref(),
            &HashMap::new(),
        )?;
        self.provisioner.events.record(MonitorEvent::BindingUpdated {
            partition: usize::MAX,
            description: "full update".into(),
        });
        self.launch_all()
    }

    /// Rotates every variant-specific key (§6.5's proactive key rotation):
    /// re-seals each variant payload under a fresh key-derivation key and
    /// re-bootstraps the deployment (no TEE reuse).
    ///
    /// # Errors
    ///
    /// Propagates re-sealing and bootstrap failures.
    pub fn rotate_keys(&mut self) -> Result<()> {
        self.stop_pipeline();
        for row in &mut self.offline.artifacts {
            for artifact in row {
                let mut old = ProtectedFs::new();
                old.import(
                    &artifact.bundle_path,
                    artifact.sealed.0,
                    artifact.sealed.1.clone(),
                );
                let plain = old.read(&artifact.variant_key, &artifact.bundle_path)?;
                // Re-seal the same plaintext under a fresh key (the payload
                // and manifests are unchanged; only the key rotates).
                let new_key: [u8; 32] = random_array();
                let mut sealer = ProtectedFs::new();
                sealer.write(&new_key, &artifact.bundle_path, &plain);
                artifact.sealed = sealer.export(&artifact.bundle_path).expect("just written");
                artifact.variant_key = new_key;
            }
        }
        self.provisioner.events.record(MonitorEvent::BindingUpdated {
            partition: usize::MAX,
            description: "proactive key rotation".into(),
        });
        self.launch_all()
    }

    /// Tears the running generation down and readies the next one. The
    /// monitor answers every batch already handed in before it stops.
    fn stop_pipeline(&mut self) {
        self.provisioner.retire();
        // The runtimes and the inbox are kept until the manager has exited
        // — an in-flight recovery still sends its rejoin there — but
        // without their recovery senders, so the manager's request channel
        // drains closed.
        let mut stopped = self.pipeline.take().and_then(|pipeline| pipeline.stop().ok());
        for runtime in stopped.iter_mut().flat_map(|(runtimes, _)| runtimes) {
            runtime.recovery = None;
        }
        if let Some(manager) = self.recovery_manager.take() {
            let _ = manager.join();
        }
        // Dropping the inbox drops a rejoin the monitor never consumed, and
        // with it the replacement's request link: the replacement exits.
        // Dropping a runtime drops its links: variants exit on
        // Shutdown/link loss.
        drop(stopped);
        self.provisioner.join_hosts();
        self.provisioner = Arc::new(self.provisioner.successor());
    }

    /// Shuts the deployment down, joining every thread.
    pub fn shutdown(&mut self) {
        self.stop_pipeline();
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.stop_pipeline();
    }
}

/// Waits for one batch's answer. A batch the pipeline dropped unanswered
/// disconnects its channel and fails at once.
fn await_output(answer: &Receiver<Output>) -> Result<Output> {
    answer.recv_timeout(RESULT_TIMEOUT).map_err(|e| {
        MvxError::Transport(match e {
            RecvTimeoutError::Timeout => "no answer within the result timeout".into(),
            RecvTimeoutError::Disconnected => "pipeline dropped the batch unanswered".into(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExecMode, PathMode, VotingPolicy};
    use mvtee_crypto::channel::Role;
    use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
    use mvtee_tensor::Tensor;

    fn model() -> Model {
        zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 77).unwrap()
    }

    fn test_input() -> Tensor {
        let n = 3 * 32 * 32;
        Tensor::from_vec(
            (0..n).map(|i| ((i % 61) as f32 - 30.0) / 30.0).collect(),
            &[1, 3, 32, 32],
        )
        .unwrap()
    }

    fn reference_output(m: &Model, input: &Tensor) -> Tensor {
        use mvtee_runtime::{Engine, EngineConfig, EngineKind};
        Engine::new(EngineConfig::of_kind(EngineKind::OrtLike))
            .prepare(&m.graph)
            .unwrap()
            .run(std::slice::from_ref(input))
            .unwrap()
            .remove(0)
    }

    #[test]
    fn registry_cold_start_matches_in_memory_deployment_bit_for_bit() {
        use mvtee_registry::{upload_model, RegistryConfig};
        let m = model();
        let input = test_input();

        // Reference: the existing in-memory path.
        let mut reference = Deployment::builder(m.clone()).partitions(2).build().unwrap();
        let expected = reference.infer(&input).unwrap();
        reference.shutdown();

        // Provision the same model through the registry's attested lane.
        let registry = Arc::new(Mutex::new(Registry::new(random_array(), RegistryConfig::default())));
        let (tenant, server) = mvtee_crypto::channel::memory_pair();
        let hs_t = mvtee_crypto::channel::Handshake::from_pre_shared(b"cold-start-test", Role::Initiator);
        let hs_s = mvtee_crypto::channel::Handshake::from_pre_shared(b"cold-start-test", Role::Responder);
        let reg = Arc::clone(&registry);
        let srv = std::thread::spawn(move || {
            let mut chan = mvtee_crypto::channel::SecureChannel::new(server, &hs_s, 4);
            mvtee_registry::serve_provisioning(&reg, &mut chan)
        });
        let mut chan = mvtee_crypto::channel::SecureChannel::new(tenant, &hs_t, 4);
        upload_model(&mut chan, &m, "tenant/mnasnet").unwrap();
        mvtee_registry::end_session(&mut chan).unwrap();
        srv.join().unwrap().unwrap();

        // Cold-start from the registry: byte-identical output.
        let mut cold = DeploymentBuilder::from_registry(&registry, "tenant/mnasnet")
            .unwrap()
            .partitions(2)
            .build()
            .unwrap();
        let got = cold.infer(&input).unwrap();
        assert_eq!(got, expected, "cold-started deployment diverged from the in-memory reference");
        cold.shutdown();

        assert!(matches!(
            DeploymentBuilder::from_registry(&registry, "nobody/unknown"),
            Err(MvxError::Registry(_))
        ));
    }

    /// `partitions(n)` resets the claims and nothing else. Every other
    /// field is set off-default and the whole structs are compared, so a
    /// field added later cannot be silently reset.
    #[test]
    fn partitions_resets_the_claims_and_nothing_else() {
        use crate::config::{DegradationPolicy, RecoveryPolicy, SupervisionPolicy};
        let cfg = MvxConfig {
            partitions: 2,
            partition_seed: 0xabc,
            claims: vec![PartitionMvx::replicated(3), PartitionMvx::diversified(2)],
            path: PathMode::ForceSlow,
            exec: ExecMode::AsyncCrossValidation,
            voting: VotingPolicy::Majority,
            response: ResponsePolicy::ContinueWithMajority,
            encrypt: false,
            checkpoint_deadline_ms: 300,
            degradation: DegradationPolicy::Strict,
            recovery: RecoveryPolicy { enabled: true, crash_loop_budget: 4 },
            supervision: SupervisionPolicy {
                enabled: true,
                heartbeat_interval_ms: 7,
                miss_budget: 9,
                reconnect: true,
            },
        };
        let fast = MvxConfig::fast_path(2);
        assert!(
            cfg.path != fast.path
                && cfg.exec != fast.exec
                && cfg.voting != fast.voting
                && cfg.response != fast.response
                && cfg.encrypt != fast.encrypt
                && cfg.degradation != fast.degradation
                && cfg.recovery != fast.recovery
                && cfg.supervision != fast.supervision,
            "every field must be off-default"
        );
        let got = Deployment::builder(model()).config(cfg.clone()).partitions(3).config;
        let expected = MvxConfig { partitions: 3, claims: vec![PartitionMvx::single(); 3], ..cfg };
        assert_eq!(got, expected);
    }

    #[test]
    fn fast_path_deployment_matches_reference() {
        let m = model();
        let input = test_input();
        let expected = reference_output(&m, &input);
        let mut d = Deployment::builder(m).partitions(3).build().unwrap();
        let out = d.infer(&input).unwrap();
        assert!(
            mvtee_tensor::metrics::allclose(&out, &expected, 1e-3, 1e-4),
            "max diff {}",
            mvtee_tensor::metrics::max_abs_diff(&out, &expected)
        );
        assert_eq!(d.bindings().len(), 3);
        d.shutdown();
    }

    #[test]
    fn replicated_mvx_agrees() {
        let m = model();
        let input = test_input();
        let expected = reference_output(&m, &input);
        let mut d = Deployment::builder(m)
            .partitions(3)
            .mvx_on_partition(1, 3)
            .build()
            .unwrap();
        let out = d.infer(&input).unwrap();
        assert!(mvtee_tensor::metrics::allclose(&out, &expected, 1e-3, 1e-4));
        assert_eq!(d.events().detection_count(), 0, "no divergence expected");
        assert_eq!(d.bindings().len(), 5);
        d.shutdown();
    }

    #[test]
    fn pipelined_stream_preserves_order_and_results() {
        let m = model();
        let inputs: Vec<Tensor> = (0..6)
            .map(|i| {
                let mut t = test_input();
                t.data_mut()[0] = i as f32;
                t
            })
            .collect();
        let mut d = Deployment::builder(m).partitions(3).build().unwrap();
        let seq = d.infer_sequential(&inputs).unwrap();
        let pipe = d.infer_stream(&inputs).unwrap();
        assert_eq!(seq.failures(), 0);
        assert_eq!(pipe.failures(), 0);
        for (a, b) in seq.outputs.iter().zip(pipe.outputs.iter()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert!(mvtee_tensor::metrics::allclose(a, b, 1e-4, 1e-5));
        }
        d.shutdown();
    }

    #[test]
    fn monitor_attestation_round_trip() {
        let m = model();
        let mut d = Deployment::builder(m).partitions(2).build().unwrap();
        let report = d.attest_monitor(b"owner-nonce");
        d.verify_monitor_report(&report, b"owner-nonce").unwrap();
        assert!(d.verify_monitor_report(&report, b"wrong-nonce").is_err());
        d.shutdown();
    }

    #[test]
    fn diversified_mvx_with_relaxed_metric_agrees() {
        let m = model();
        let input = test_input();
        let mut d = Deployment::builder(m)
            .partitions(3)
            .diversified_mvx(1, 3)
            .build()
            .unwrap();
        let out = d.infer(&input).unwrap();
        assert_eq!(out.dims()[0], 1);
        assert_eq!(
            d.events().detection_count(),
            0,
            "benign diversified variants must agree under the relaxed metric: {:?}",
            d.events().events()
        );
        d.shutdown();
    }

    #[test]
    fn async_mode_executes() {
        let m = model();
        let input = test_input();
        let mut d = Deployment::builder(m)
            .partitions(3)
            .mvx_on_partition(1, 3)
            .exec_mode(ExecMode::AsyncCrossValidation)
            .voting(VotingPolicy::Majority)
            .build()
            .unwrap();
        let stats = d.infer_stream(&[input.clone(), input.clone(), input]).unwrap();
        assert_eq!(stats.failures(), 0);
        assert_eq!(d.events().detection_count(), 0);
        d.shutdown();
    }

    #[test]
    fn unencrypted_baseline_works() {
        let m = model();
        let input = test_input();
        let expected = reference_output(&m, &input);
        let mut d = Deployment::builder(m)
            .partitions(2)
            .encrypt(false)
            .build()
            .unwrap();
        let out = d.infer(&input).unwrap();
        assert!(mvtee_tensor::metrics::allclose(&out, &expected, 1e-3, 1e-4));
        d.shutdown();
    }

    #[test]
    fn force_slow_path_single_variants() {
        let m = model();
        let input = test_input();
        let mut d = Deployment::builder(m)
            .partitions(3)
            .path_mode(PathMode::ForceSlow)
            .build()
            .unwrap();
        let out = d.infer(&input).unwrap();
        assert!(out.data().iter().all(|v| v.is_finite()));
        d.shutdown();
    }

    #[test]
    fn partial_update_rebinds() {
        let m = model();
        let input = test_input();
        let mut d = Deployment::builder(m).partitions(2).build().unwrap();
        let before = d.infer(&input).unwrap();
        let bound_before = d.bindings().len();
        d.partial_update(1, PartitionMvx::replicated(2)).unwrap();
        let after = d.infer(&input).unwrap();
        assert!(mvtee_tensor::metrics::allclose(&before, &after, 1e-3, 1e-4));
        assert!(d.bindings().len() > bound_before, "bindings are append-only");
        let updates = d.events().events().into_iter();
        let updated = |e: &MonitorEvent| matches!(e, MonitorEvent::BindingUpdated { .. });
        assert_eq!(updates.filter(updated).count(), 1);
        d.shutdown();
    }

    #[test]
    fn full_update_reshuffles() {
        let m = model();
        let input = test_input();
        let mut d = Deployment::builder(m).partitions(3).build().unwrap();
        let before = d.infer(&input).unwrap();
        let old_stages = d.partition_set().stages.clone();
        d.full_update(0xabcdef).unwrap();
        let after = d.infer(&input).unwrap();
        assert!(mvtee_tensor::metrics::allclose(&before, &after, 1e-3, 1e-4));
        assert_ne!(&old_stages, &d.partition_set().stages, "partition set reshuffled");
        d.shutdown();
    }

    /// A stop answers what it was handed: 40 batches submitted and then,
    /// at once, an update, a key rotation or a shutdown all come back
    /// exactly once, `Ok` and bit-equal to a fresh deployment's `infer`,
    /// however many stages they were spread over. A batch submitted after
    /// an update is answered by the new generation; none after shutdown.
    #[test]
    fn a_stop_answers_every_batch_it_was_handed() {
        const BATCHES: usize = 40;
        let inputs: Vec<Tensor> = (0..BATCHES)
            .map(|i| {
                let mut t = test_input();
                t.data_mut()[0] = i as f32;
                t
            })
            .collect();
        for partitions in [2, 3, 6] {
            let builder = Deployment::builder(model()).partitions(partitions);
            let mut fresh = builder.clone().build().unwrap();
            let expected: Vec<Tensor> = inputs.iter().map(|x| fresh.infer(x).unwrap()).collect();
            fresh.shutdown();
            type Stop = fn(&mut Deployment);
            let stops: [(&str, Stop); 4] = [
                ("rotate_keys", |d| d.rotate_keys().unwrap()),
                ("partial_update", |d| d.partial_update(1, PartitionMvx::single()).unwrap()),
                ("full_update", |d| d.full_update(0xabcdef).unwrap()),
                ("shutdown", Deployment::shutdown),
            ];
            for (stop, run_stop) in stops {
                let mut d = builder.clone().build().unwrap();
                let (tx, answers) = channel();
                for (i, input) in inputs.iter().enumerate() {
                    let tx = tx.clone();
                    d.submit(input.clone(), TraceCtx::NONE, move |out| tx.send((i, out)).unwrap())
                        .unwrap();
                }
                drop(tx);
                run_stop(&mut d);
                let answered: Vec<(usize, Output)> =
                    std::iter::from_fn(|| answers.try_recv().ok()).collect();
                assert_eq!(answered.len(), BATCHES, "{partitions} partitions, {stop}");
                for (n, (i, out)) in answered.into_iter().enumerate() {
                    assert_eq!(i, n, "{partitions} partitions, {stop}: answered out of order");
                    let out = out.unwrap_or_else(|e| panic!("{partitions}/{stop}: batch {i}: {e}"));
                    assert_eq!(out, expected[i], "{partitions} partitions, {stop}: batch {i}");
                }
                if stop == "shutdown" {
                    assert!(d.submit(test_input(), TraceCtx::NONE, |_| {}).is_err());
                } else {
                    assert!(d.infer(&inputs[0]).is_ok(), "{partitions}/{stop}: new generation");
                    d.shutdown();
                }
            }
        }
    }

    #[test]
    fn single_partition_full_model() {
        let m = model();
        let input = test_input();
        let expected = reference_output(&m, &input);
        let mut d = Deployment::builder(m).partitions(1).build().unwrap();
        let out = d.infer(&input).unwrap();
        assert!(mvtee_tensor::metrics::allclose(&out, &expected, 1e-3, 1e-4));
        d.shutdown();
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;
    use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
    use mvtee_tensor::Tensor;

    #[test]
    fn pool_backed_deployment_selects_and_reshuffles() {
        let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 99).unwrap();
        let input = Tensor::ones(&[1, 3, 32, 32]);
        let pool_cfg = PoolConfig { targets: vec![3], sets_per_target: 3, runs_per_set: 1 };
        let mut d = Deployment::builder(model)
            .partitions(3)
            .partition_pool(pool_cfg)
            .build()
            .unwrap();
        let before = d.infer(&input).unwrap();
        let first_set = d.partition_set().clone();
        // Full updates reshuffle within the pool; with 3 pooled sets a few
        // seeds are enough to land on a different one.
        let mut reshuffled = false;
        for seed in 0..8u64 {
            d.full_update(seed).unwrap();
            if d.partition_set().stages != first_set.stages {
                reshuffled = true;
                break;
            }
        }
        assert!(reshuffled, "full update never reshuffled within the pool");
        let after = d.infer(&input).unwrap();
        assert!(mvtee_tensor::metrics::allclose(&before, &after, 1e-3, 1e-4));
        d.shutdown();
    }

    #[test]
    fn pool_without_matching_target_fails_clearly() {
        let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 99).unwrap();
        let pool_cfg = PoolConfig { targets: vec![4], sets_per_target: 1, runs_per_set: 1 };
        let result = Deployment::builder(model)
            .partitions(3)
            .partition_pool(pool_cfg)
            .build();
        match result {
            Err(MvxError::InvalidConfig(msg)) => assert!(msg.contains("pool")),
            Err(other) => panic!("unexpected error kind: {other}"),
            Ok(_) => panic!("build must fail without a matching pooled set"),
        }
    }
}

#[cfg(test)]
mod rotation_tests {
    use super::*;
    use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
    use mvtee_tensor::Tensor;

    #[test]
    fn key_rotation_preserves_service_and_changes_keys() {
        let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 71).unwrap();
        let input = Tensor::ones(&[1, 3, 32, 32]);
        let mut d = Deployment::builder(model).partitions(2).build().unwrap();
        let before = d.infer(&input).unwrap();
        let old_keys: Vec<[u8; 32]> = d
            .offline
            .artifacts
            .iter()
            .flatten()
            .map(|a| a.variant_key)
            .collect();
        d.rotate_keys().unwrap();
        let new_keys: Vec<[u8; 32]> = d
            .offline
            .artifacts
            .iter()
            .flatten()
            .map(|a| a.variant_key)
            .collect();
        assert!(old_keys.iter().zip(new_keys.iter()).all(|(a, b)| a != b));
        let after = d.infer(&input).unwrap();
        assert!(mvtee_tensor::metrics::allclose(&before, &after, 1e-4, 1e-5));
        let rotated = |e: &MonitorEvent| match e {
            MonitorEvent::BindingUpdated { description, .. } => description.contains("key rotation"),
            _ => false,
        };
        assert!(d.events().events().iter().any(rotated));
        d.shutdown();
    }
}
