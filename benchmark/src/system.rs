//! Set-up: what a tenant does before the first request is answered. The model
//! is uploaded through `mvtee-registry`'s provisioning lane, checked out by
//! `DeploymentBuilder::from_registry`, built into a replica pool and put
//! behind a `ServeFrontend`; the set-up ends with the first response.

use crate::chain::Chain;
use crate::span;
use crate::spec::{Workload, PARTITION_SEED, VARIANT_SEED};
use mvtee::deployment::DeploymentBuilder;
use mvtee::transcript::{verify_transcript, TranscriptLog};
use mvtee_crypto::channel::{memory_pair, FrameTransport, Handshake, Role, SecureChannel};
use mvtee_crypto::mux::{split, LANE_PROVISION};
use mvtee_diversify::VariantSpec;
use mvtee_graph::zoo::{self, Model};
use mvtee_partition::PartitionSet;
use mvtee_registry::{
    encode_model, end_session, serve_provisioning, upload_model, Registry, RegistryConfig,
};
use mvtee_serve::{ReplicaPool, RequestOutcome, ServeConfig, ServeFrontend, ServeHandle};
use mvtee_tensor::metrics::Metric;
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Distinct inputs the load generators cycle through.
pub const INPUT_PERIOD: usize = 8;
/// Name the model is served under.
pub const MODEL_KEY: &str = "tenant-0/model";
const TENANTS: [&str; 4] = ["tenant-0", "tenant-1", "tenant-2", "tenant-3"];

/// The tenant a request index is submitted under.
pub fn tenant(index: usize) -> &'static str {
    TENANTS[index % TENANTS.len()]
}

/// Everything a run derives from `--seed`: the program under test receives
/// only these tensors and this model.
pub struct Inputs {
    pub seed: u64,
    pub model: Model,
    pub inputs: Vec<Tensor>,
    /// Plaintext size of the encoded model, bytes.
    pub blob_bytes: usize,
    /// Where this benchmark's own worker binary was built.
    pub worker_binary: PathBuf,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64, worker_binary: PathBuf) -> Result<Inputs, String> {
        let model = zoo::build(w.model, w.profile, seed).map_err(|e| e.to_string())?;
        let n = model.input_shape.num_elements();
        let inputs = (0..INPUT_PERIOD as u64)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7e_57ed ^ (i << 32));
                let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                Tensor::from_vec(data, model.input_shape.dims()).map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        let blob_bytes = encode_model(&model).map_err(|e| e.to_string())?.0.len();
        Ok(Inputs {
            seed,
            model,
            inputs,
            blob_bytes,
            worker_binary,
        })
    }
}

/// Seconds each part of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    pub upload_s: f64,
    pub checkout_s: f64,
    pub build_s: f64,
    pub first_response_s: f64,
    pub total_s: f64,
}

/// A serving system brought up by [`set_up`].
pub struct System {
    pub frontend: ServeFrontend,
    pub handle: ServeHandle,
    pub transcripts: Vec<TranscriptLog>,
    pub worker_pids: Vec<u32>,
    pub partition_set: PartitionSet,
    pub specs: Vec<Vec<VariantSpec>>,
    pub timing: SetupTiming,
    /// The answer to the set-up's own first request (input 0).
    pub first_output: Tensor,
}

/// Worker processes alive right now, for the emergency exit paths.
static LIVE_WORKERS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Kills every worker process a set-up spawned and has not yet torn down.
/// Only the panic hook and the watchdog call this; the normal path joins
/// workers through `ServeFrontend::shutdown`.
pub fn kill_live_workers() {
    let pids: Vec<String> = match LIVE_WORKERS.lock() {
        Ok(pids) => pids.iter().map(u32::to_string).collect(),
        Err(poisoned) => poisoned.into_inner().iter().map(u32::to_string).collect(),
    };
    if !pids.is_empty() {
        let _ = std::process::Command::new("kill")
            .arg("-9")
            .args(&pids)
            .status();
    }
}

/// Uploads `model` over the provisioning lane of a multiplexed connection
/// whose two ends are `wire_tenant` and `wire_registry`, a provisioning
/// server answering on the registry's end; returns the seconds `upload_model`
/// took.
pub fn upload_over<T: FrameTransport + Sync + 'static>(
    registry: &Arc<Mutex<Registry>>,
    wire_tenant: T,
    wire_registry: T,
    model: &Model,
) -> Result<f64, String> {
    let psk = b"benchmark-provisioning";
    let mut tenant = SecureChannel::new(
        split(wire_tenant, &[LANE_PROVISION]).remove(0),
        &Handshake::from_pre_shared(psk, Role::Initiator),
        u32::from(LANE_PROVISION),
    );
    let mut server = SecureChannel::new(
        split(wire_registry, &[LANE_PROVISION]).remove(0),
        &Handshake::from_pre_shared(psk, Role::Responder),
        u32::from(LANE_PROVISION),
    );
    let reg = Arc::clone(registry);
    let server_thread = std::thread::spawn(move || serve_provisioning(&reg, &mut server));
    let started = Instant::now();
    let outcome = span::within("registry.upload_model", || {
        upload_model(&mut tenant, model, MODEL_KEY)
    });
    let upload_s = started.elapsed().as_secs_f64();
    let _ = end_session(&mut tenant);
    drop(tenant);
    let served = server_thread
        .join()
        .map_err(|_| "provisioning server panicked".to_string())?;
    outcome.map_err(|e| format!("upload failed: {e}"))?;
    served.map_err(|e| format!("provisioning server failed: {e}"))?;
    Ok(upload_s)
}

/// [`upload_over`] an in-memory wire, multiplexed exactly as a worker
/// connection is.
pub fn upload(registry: &Arc<Mutex<Registry>>, model: &Model) -> Result<f64, String> {
    let (wire_tenant, wire_registry) = memory_pair();
    upload_over(registry, wire_tenant, wire_registry, model)
}

fn registry_for(seed: u64) -> Arc<Mutex<Registry>> {
    let mut kdk = [0x42u8; 32];
    kdk[..8].copy_from_slice(&seed.to_le_bytes());
    Arc::new(Mutex::new(Registry::new(kdk, RegistryConfig::default())))
}

/// One full set-up on a fresh registry: upload → checkout → pool build →
/// frontend → first response. The engine cache is emptied first, so every
/// set-up of a run is the cold start a first deployment pays.
pub fn set_up(w: &Workload, inputs: &Inputs) -> Result<System, String> {
    mvtee_runtime::session_cache().clear();
    let started = Instant::now();
    let _span = span::span("bench.setup");
    let registry = registry_for(inputs.seed);
    let upload_s = upload(&registry, &inputs.model)?;

    let t_checkout = Instant::now();
    let mut builder = span::within("core.from_registry", || {
        DeploymentBuilder::from_registry(&registry, MODEL_KEY)
    })
    .map_err(|e| format!("registry checkout failed: {e}"))?
    .config(w.mvx_config())
    .partition_seed(PARTITION_SEED)
    .variant_seed(VARIANT_SEED)
    .worker_binary(&inputs.worker_binary);
    for (p, v) in w.out_of_process() {
        builder = builder.out_of_process(p, v);
    }
    let checkout_s = t_checkout.elapsed().as_secs_f64();

    let t_build = Instant::now();
    let deployments = span::within("core.build_many", || builder.build_many(w.replicas))
        .map_err(|e| format!("deployment build failed: {e}"))?;
    let transcripts = deployments.iter().map(|d| d.transcript().clone()).collect();
    let worker_pids: Vec<u32> = deployments
        .iter()
        .flat_map(|d| d.worker_pids())
        .map(|(_, pid)| pid)
        .collect();
    if let Ok(mut live) = LIVE_WORKERS.lock() {
        live.extend(&worker_pids);
    }
    let partition_set = deployments[0].partition_set().clone();
    let specs = deployments[0].variant_specs();
    let pool = ReplicaPool::new(MODEL_KEY, deployments).map_err(|e| e.to_string())?;
    let frontend = ServeFrontend::start(vec![pool], ServeConfig::default());
    let handle = frontend.handle();
    let build_s = t_build.elapsed().as_secs_f64();

    let t_first = Instant::now();
    let first = span::within("serve.first_response", || {
        handle
            .submit(tenant(0), MODEL_KEY, inputs.inputs[0].clone())
            .map_err(|shed| format!("first request shed: {shed:?}"))?
            .wait()
    });
    let first_output = match first {
        Ok(resp) => match resp.outcome {
            RequestOutcome::Ok(t) => t,
            other => {
                frontend.shutdown();
                return Err(format!("first request did not succeed: {other:?}"));
            }
        },
        Err(e) => {
            frontend.shutdown();
            return Err(e);
        }
    };
    let timing = SetupTiming {
        upload_s,
        checkout_s,
        build_s,
        first_response_s: t_first.elapsed().as_secs_f64(),
        total_s: started.elapsed().as_secs_f64(),
    };
    Ok(System {
        frontend,
        handle,
        transcripts,
        worker_pids,
        partition_set,
        specs,
        timing,
        first_output,
    })
}

impl System {
    /// Stops the frontend (joining pools, deployments and worker processes)
    /// and audits every replica's transcript. Returns the audit failures.
    pub fn tear_down(self, seed: u64) -> Vec<String> {
        let System {
            frontend,
            transcripts,
            worker_pids,
            ..
        } = self;
        frontend.shutdown();
        if let Ok(mut live) = LIVE_WORKERS.lock() {
            live.retain(|pid| !worker_pids.contains(pid));
        }
        let mut failures = Vec::new();
        for (replica, log) in transcripts.iter().enumerate() {
            let text = log.render(seed, MODEL_KEY);
            match verify_transcript(&text) {
                Ok(summary) if summary.divergences == 0 => {}
                Ok(summary) => failures.push(format!(
                    "replica {replica}: transcript records {} divergence(s)",
                    summary.divergences
                )),
                Err(e) => {
                    failures.push(format!("replica {replica}: transcript audit failed: {e:?}"))
                }
            }
        }
        failures
    }
}

/// Checks served outputs against the bare-engine reference.
pub struct Checker {
    reference: Vec<Tensor>,
    exact: bool,
}

impl Checker {
    /// Computes the reference answer to every input on a bare-engine chain
    /// over the deployment's own partition set.
    pub fn new(w: &Workload, inputs: &Inputs, set: &PartitionSet) -> Result<Checker, String> {
        let chain = Chain::reference(&inputs.model, set)?;
        let reference = inputs
            .inputs
            .iter()
            .map(|x| chain.run(x))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Checker {
            reference,
            exact: w.exact(),
        })
    }

    /// Bit-exact on replicated panels, `Metric::relaxed()` on diversified ones.
    pub fn matches(&self, input_index: usize, output: &Tensor) -> bool {
        let want = &self.reference[input_index];
        if self.exact {
            want.dims() == output.dims()
                && want
                    .data()
                    .iter()
                    .zip(output.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        } else {
            Metric::relaxed().check(want, output)
        }
    }
}
