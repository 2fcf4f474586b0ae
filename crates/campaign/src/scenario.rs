//! Campaign scenarios: one fully-specified fault-injection experiment.
//!
//! A [`Scenario`] pins everything the runner needs to reproduce an
//! experiment bit-for-bit: the zoo model and its weight seed, the
//! partition plan, where the MVX panel sits, how large it is, which
//! defending-variant family fills it, and the injected fault. Scenarios
//! round-trip through a one-line textual spec (`Scenario::to_spec` /
//! `Scenario::from_spec`) so any outcome — in particular a MISSED one —
//! can be replayed exactly from its printed line.

use mvtee_faults::cve::InputTrigger;
use mvtee_faults::{
    Attack, BitFlipFault, BitFlipStrategy, ChannelFault, ChannelFaultMode, CveClass,
    FaultDescriptor, FrameFlip, NetFault, NetFaultClass, StallFault, StallMode,
};
use mvtee_graph::zoo::ModelKind;
use mvtee_runtime::{BlasKind, KernelStrategy};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;

/// The defending-variant family populating the panel next to the faulted
/// variant — the matrix columns of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub enum Defender {
    /// Different runtime: TVM-like engine.
    RtTvm,
    /// Different runtime: reference interpreter.
    RtReference,
    /// Same runtime with a hardening capability (e.g. `bounds-check`).
    Hardening(String),
    /// Same runtime with a randomised address layout (OOB defense).
    Aslr,
    /// Same runtime on a different BLAS backend (FrameFlip defense).
    Blas(BlasKind),
    /// Same runtime pinned to a different kernel strategy (bit-flip
    /// defense with strategy diversity).
    Strategy(KernelStrategy),
    /// An identical clean replica (bit-flip defense: the fault is local
    /// to one TEE's sealed weights).
    Replica,
}

impl Defender {
    /// Matrix column label.
    pub fn family(&self) -> String {
        match self {
            Defender::RtTvm => "different-rt-tvm".into(),
            Defender::RtReference => "different-rt-ref".into(),
            Defender::Hardening(h) => format!("hardening:{h}"),
            Defender::Aslr => "aslr".into(),
            Defender::Blas(_) => "different-blas".into(),
            Defender::Strategy(_) => "kernel-strategy".into(),
            Defender::Replica => "replica".into(),
        }
    }

    /// Does this defender run the same engine configuration as the plain
    /// susceptible variant? Homogeneous panels compare under the strict
    /// metric; heterogeneous ones (different RT or BLAS) need the relaxed
    /// heterogeneous tolerance.
    pub fn homogeneous(&self) -> bool {
        matches!(self, Defender::Hardening(_) | Defender::Aslr | Defender::Replica)
    }

    fn spec_token(&self) -> String {
        match self {
            Defender::RtTvm => "rt-tvm".into(),
            Defender::RtReference => "rt-ref".into(),
            Defender::Hardening(h) => format!("hard:{h}"),
            Defender::Aslr => "aslr".into(),
            Defender::Blas(b) => format!("blas:{}", blas_token(*b)),
            Defender::Strategy(ks) => format!("strat:{}", ks.token()),
            Defender::Replica => "replica".into(),
        }
    }

    fn from_token(s: &str) -> Result<Self, String> {
        if let Some(h) = s.strip_prefix("hard:") {
            return Ok(Defender::Hardening(h.to_string()));
        }
        if let Some(b) = s.strip_prefix("blas:") {
            return Ok(Defender::Blas(blas_from_token(b)?));
        }
        if let Some(ks) = s.strip_prefix("strat:") {
            return KernelStrategy::from_token(ks)
                .map(Defender::Strategy)
                .ok_or_else(|| format!("unknown kernel strategy '{ks}'"));
        }
        match s {
            "rt-tvm" => Ok(Defender::RtTvm),
            "rt-ref" => Ok(Defender::RtReference),
            "aslr" => Ok(Defender::Aslr),
            "replica" => Ok(Defender::Replica),
            other => Err(format!("unknown defender '{other}'")),
        }
    }
}

fn blas_token(b: BlasKind) -> &'static str {
    match b {
        BlasKind::Naive => "naive",
        BlasKind::Blocked => "blocked",
        BlasKind::Strided => "strided",
    }
}

fn blas_from_token(s: &str) -> Result<BlasKind, String> {
    match s {
        "naive" => Ok(BlasKind::Naive),
        "blocked" => Ok(BlasKind::Blocked),
        "strided" => Ok(BlasKind::Strided),
        other => Err(format!("unknown blas '{other}'")),
    }
}

fn model_token(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::EfficientNetB7 => "efficientnet-b7",
        ModelKind::GoogleNet => "googlenet",
        ModelKind::InceptionV3 => "inception-v3",
        ModelKind::MnasNet => "mnasnet",
        ModelKind::MobileNetV3 => "mobilenet-v3",
        ModelKind::ResNet152 => "resnet-152",
        ModelKind::ResNet50 => "resnet-50",
        ModelKind::FoundationMixer => "mixer",
    }
}

fn model_from_token(s: &str) -> Result<ModelKind, String> {
    match s {
        "efficientnet-b7" => Ok(ModelKind::EfficientNetB7),
        "googlenet" => Ok(ModelKind::GoogleNet),
        "inception-v3" => Ok(ModelKind::InceptionV3),
        "mnasnet" => Ok(ModelKind::MnasNet),
        "mobilenet-v3" => Ok(ModelKind::MobileNetV3),
        "resnet-152" => Ok(ModelKind::ResNet152),
        "resnet-50" => Ok(ModelKind::ResNet50),
        "mixer" => Ok(ModelKind::FoundationMixer),
        other => Err(format!("unknown model '{other}'")),
    }
}

/// One fully-specified fault-injection experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario seed: drives the trigger input and model weights.
    pub seed: u64,
    /// Zoo model under test.
    pub model: ModelKind,
    /// Partition count of the deployment.
    pub partitions: usize,
    /// Partition-set selection seed.
    pub partition_seed: u64,
    /// The partition carrying the MVX panel — also the injection point:
    /// every fault in the campaign lands on (or is only effective
    /// against) variant 0 of this panel.
    pub mvx_partition: usize,
    /// Panel size (faulted variant + defenders).
    pub panel_size: usize,
    /// Defender family on panel variants `1..panel_size`.
    pub defender: Defender,
    /// When `true`, variant 0 gets the defender configuration as well, so
    /// no panel member is susceptible and the fault must be masked.
    pub immune: bool,
    /// The injected fault.
    pub fault: FaultDescriptor,
    /// Forces the fast path everywhere — no checkpoint ever evaluates.
    /// Used by tests to force a MISSED outcome.
    pub force_fast: bool,
}

impl Scenario {
    /// The one-line replayable spec.
    pub fn to_spec(&self) -> String {
        format!(
            "campaign/v1 seed={} model={} parts={} pseed={} mvx={} panel={} defender={} immune={} fault={} path={}",
            self.seed,
            model_token(self.model),
            self.partitions,
            self.partition_seed,
            self.mvx_partition,
            self.panel_size,
            self.defender.spec_token(),
            if self.immune { 1 } else { 0 },
            self.fault,
            if self.force_fast { "force-fast" } else { "hybrid" },
        )
    }

    /// Parses a spec line produced by [`Scenario::to_spec`].
    pub fn from_spec(line: &str) -> Result<Self, String> {
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("campaign/v1") => {}
            other => return Err(format!("bad spec header {other:?} (expected campaign/v1)")),
        }
        let mut seed = None;
        let mut model = None;
        let mut parts = None;
        let mut pseed = None;
        let mut mvx = None;
        let mut panel = None;
        let mut defender = None;
        let mut immune = None;
        let mut fault = None;
        let mut path = None;
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("bad field '{field}' (expected key=value)"))?;
            match key {
                "seed" => seed = Some(value.parse().map_err(|_| "bad seed".to_string())?),
                "model" => model = Some(model_from_token(value)?),
                "parts" => parts = Some(value.parse().map_err(|_| "bad parts".to_string())?),
                "pseed" => pseed = Some(value.parse().map_err(|_| "bad pseed".to_string())?),
                "mvx" => mvx = Some(value.parse().map_err(|_| "bad mvx".to_string())?),
                "panel" => panel = Some(value.parse().map_err(|_| "bad panel".to_string())?),
                "defender" => defender = Some(Defender::from_token(value)?),
                "immune" => immune = Some(value == "1"),
                "fault" => fault = Some(value.parse::<FaultDescriptor>()?),
                "path" => {
                    path = Some(match value {
                        "hybrid" => false,
                        "force-fast" => true,
                        other => return Err(format!("unknown path '{other}'")),
                    })
                }
                other => return Err(format!("unknown field '{other}'")),
            }
        }
        let missing = |name: &str| format!("missing field '{name}'");
        Ok(Scenario {
            seed: seed.ok_or_else(|| missing("seed"))?,
            model: model.ok_or_else(|| missing("model"))?,
            partitions: parts.ok_or_else(|| missing("parts"))?,
            partition_seed: pseed.ok_or_else(|| missing("pseed"))?,
            mvx_partition: mvx.ok_or_else(|| missing("mvx"))?,
            panel_size: panel.ok_or_else(|| missing("panel"))?,
            defender: defender.ok_or_else(|| missing("defender"))?,
            immune: immune.ok_or_else(|| missing("immune"))?,
            fault: fault.ok_or_else(|| missing("fault"))?,
            force_fast: path.ok_or_else(|| missing("path"))?,
        })
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_spec())
    }
}

/// The small-model subset the generator draws from (Test-scale runtime
/// budget: the campaign runs dozens of real threaded deployments).
pub const CAMPAIGN_MODELS: [ModelKind; 4] =
    [ModelKind::MnasNet, ModelKind::MobileNetV3, ModelKind::ResNet50, ModelKind::GoogleNet];

/// The family schedule cycled by scenario index, guaranteeing that every
/// CVE class and every fault family — the six CVE classes, weight bit
/// flips, FrameFlip, both liveness families (stall and lossy channel),
/// the wire-level net family, and the kernel-strategy-diversified bit
/// flip — appears in any campaign of ≥ 12 scenarios. Slots 0–7 are
/// unchanged from the original value-fault cycle so historical pinned
/// scenarios stay valid; the liveness, transport and strategy slots are
/// appended.
const FAMILY_CYCLE: usize = 12;

/// Generates the `index`-th scenario of the campaign with master seed
/// `campaign_seed`. Deterministic: the same `(campaign_seed, index)`
/// always yields the same scenario.
///
/// Pairing rules keep the campaign's zero-MISSED invariant meaningful:
///
/// * CVE faults put a plain ORT-like (susceptible) variant 0 next to a
///   defender drawn from that class's Table 1 families; non-panel
///   partitions run TVM-like engines (not susceptible), so the injection
///   point is exactly the panel.
/// * FrameFlip targets variant 0's BLAS; the defender and all non-panel
///   partitions use a different backend.
/// * Bit flips are sealed into variant 0's weights with the exponent-MSB
///   strategy (the Terminal-Brain-Damage attack bits — a random mantissa
///   flip can perturb outputs below any detection threshold, which is an
///   accuracy-degradation question, not a detection-coverage one; the
///   descriptor space still enumerates `RandomBit` for targeted tests).
/// * Roughly one scenario in five is `immune`: the panel contains no
///   susceptible variant and the fault must be provably masked.
pub fn generate_scenario(campaign_seed: u64, index: u64) -> Scenario {
    let seed = campaign_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let model = CAMPAIGN_MODELS[rng.gen_range(0..CAMPAIGN_MODELS.len())];
    let partitions = rng.gen_range(2..=3);
    let mvx_partition = rng.gen_range(0..partitions);
    let panel_size = rng.gen_range(2..=3);
    let partition_seed = rng.next_u64();
    let immune = rng.gen_range(0..5) == 0;

    let (fault, defender) = match (index as usize) % FAMILY_CYCLE {
        // Six CVE classes, then bitflip, frameflip, stall, channel.
        slot @ 0..=5 => {
            let class = CveClass::ALL[slot];
            // Crafted-marker triggers are only observable where the raw
            // input is visible (partition 0).
            let attack = if mvx_partition == 0 && rng.gen_bool(0.25) {
                Attack::with_marker(class, 1337.0)
            } else {
                Attack::new(class)
            };
            let mut defenders: Vec<Defender> = vec![Defender::RtTvm, Defender::RtReference];
            for h in class.defenses() {
                defenders.push(Defender::Hardening((*h).to_string()));
            }
            if class == CveClass::Oob {
                defenders.push(Defender::Aslr);
            }
            let defender = defenders[rng.gen_range(0..defenders.len())].clone();
            (FaultDescriptor::Cve(attack), defender)
        }
        6 => {
            let fault = BitFlipFault {
                strategy: BitFlipStrategy::ExponentMsb,
                count: rng.gen_range(1..=3),
                seed: rng.next_u64(),
            };
            (FaultDescriptor::WeightBitFlip(fault), Defender::Replica)
        }
        7 => {
            let target = BlasKind::ALL[rng.gen_range(0..BlasKind::ALL.len())];
            let others: Vec<BlasKind> =
                BlasKind::ALL.iter().copied().filter(|b| *b != target).collect();
            let defender_blas = others[rng.gen_range(0..others.len())];
            let ff = FrameFlip::against(target);
            (FaultDescriptor::BlasFault(ff), Defender::Blas(defender_blas))
        }
        8 => {
            // A full hang after a verified checkpoint exists: the
            // straggler watchdog must quarantine it and the recovery
            // manager re-provision it, so the expected outcome is
            // Recovered. (Sub-deadline delays classify as Masked and are
            // exercised by hand-written specs, not the cycle.)
            let fault = StallFault { from_batch: rng.gen_range(1..=2), mode: StallMode::Hang };
            (FaultDescriptor::Stall(fault), Defender::Replica)
        }
        9 => {
            // A lossy response channel without recovery: the panel drops
            // to survivors and the expected outcome is DegradedButCorrect.
            let mode = if rng.gen_bool(0.5) {
                ChannelFaultMode::Drop
            } else {
                ChannelFaultMode::Truncate
            };
            let fault = ChannelFault { on_batch: rng.gen_range(1..=2), mode };
            (FaultDescriptor::Channel(fault), Defender::Replica)
        }
        10 => {
            // A seeded wire-level fault on variant 0's response transport.
            // Corruption classes (corrupt/trunc/torn) must surface as
            // AEAD or framing detections; liveness classes must heal via
            // quarantine + recovery. `from_frame >= 1` keeps the first
            // response frame clean so a verified resync point exists.
            let from_frame = rng.gen_range(1..=2);
            let class = match rng.gen_range(0..8u32) {
                0 => NetFaultClass::Delay { ms: rng.gen_range(10..=40) },
                1 => NetFaultClass::Stall,
                2 => NetFaultClass::Drop,
                3 => NetFaultClass::Duplicate,
                4 => NetFaultClass::Truncate,
                5 => NetFaultClass::Corrupt { seed: rng.next_u64() },
                6 => NetFaultClass::Torn,
                _ => NetFaultClass::Disconnect,
            };
            (FaultDescriptor::Net(NetFault { class, from_frame }), Defender::Replica)
        }
        _ => {
            // Strategy-diversified panel vs a sealed-weight bit flip: the
            // defenders pin a concrete kernel strategy while variant 0
            // keeps the default (`Auto`, the BLAS path), so the panel may
            // mix kernels and compares under the relaxed metric.
            // Exponent-MSB flips blow values far past any heterogeneous
            // tolerance, so detection must still be clean. Never `Auto`:
            // the defender's kernel must be named in its spec line.
            let fault = BitFlipFault {
                strategy: BitFlipStrategy::ExponentMsb,
                count: rng.gen_range(1..=3),
                seed: rng.next_u64(),
            };
            let pinned = [
                KernelStrategy::Scalar,
                KernelStrategy::SimdMicrokernel,
                KernelStrategy::PanelPacked,
            ];
            let ks = pinned[rng.gen_range(0..pinned.len())];
            (FaultDescriptor::WeightBitFlip(fault), Defender::Strategy(ks))
        }
    };

    // Continuing service after a knocked-out member needs a strict
    // majority of the *full* panel among the survivors, so liveness
    // scenarios always run a panel of three (2-of-3 keeps voting).
    let panel_size = if matches!(
        fault,
        FaultDescriptor::Stall(_) | FaultDescriptor::Channel(_) | FaultDescriptor::Net(_)
    ) {
        3
    } else {
        panel_size
    };

    // Bit flips hit one replica's sealed weights: an "immune" panel would
    // simply be an unfaulted deployment, so the flag is meaningless there.
    // Liveness and wire faults live in one host's scheduling/transport
    // stack, so the same reasoning applies.
    let immune = immune
        && !matches!(
            fault,
            FaultDescriptor::WeightBitFlip(_)
                | FaultDescriptor::Stall(_)
                | FaultDescriptor::Channel(_)
                | FaultDescriptor::Net(_)
        );

    // Marker-triggered attacks only fire at partition 0.
    let mvx_partition = match &fault {
        FaultDescriptor::Cve(Attack { trigger: InputTrigger::MagicMarker(_), .. }) => 0,
        _ => mvx_partition,
    };

    Scenario {
        seed,
        model,
        partitions,
        partition_seed,
        mvx_partition,
        panel_size,
        defender,
        immune,
        fault,
        force_fast: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for i in 0..32 {
            assert_eq!(generate_scenario(7, i), generate_scenario(7, i));
        }
        assert_ne!(generate_scenario(7, 0), generate_scenario(8, 0));
    }

    #[test]
    fn specs_round_trip() {
        for i in 0..64 {
            let sc = generate_scenario(42, i);
            let line = sc.to_spec();
            let back = Scenario::from_spec(&line).unwrap();
            assert_eq!(back, sc, "round trip failed for: {line}");
        }
    }

    #[test]
    fn cycle_covers_all_families_and_classes() {
        let mut classes = std::collections::HashSet::new();
        let mut families = std::collections::HashSet::new();
        let mut strategy_defender = false;
        for i in 0..12 {
            let sc = generate_scenario(7, i);
            classes.insert(sc.fault.class_name());
            families.insert(sc.fault.family());
            if let Defender::Strategy(ks) = &sc.defender {
                strategy_defender = true;
                assert_ne!(*ks, KernelStrategy::Auto, "strategy defender must be pinned: {sc}");
                assert!(
                    matches!(sc.fault, FaultDescriptor::WeightBitFlip(_)),
                    "strategy slot pairs with a bit flip: {sc}"
                );
            }
        }
        for class in CveClass::ALL {
            assert!(classes.contains(&class.to_string()), "missing {class}");
        }
        assert!(classes.contains("bitflip"));
        assert!(classes.contains("frameflip"));
        assert!(classes.contains("stall"));
        assert!(classes.contains("chan"));
        assert!(families.contains("net"), "net family missing from the cycle");
        assert!(strategy_defender, "kernel-strategy defender missing from the cycle");
    }

    #[test]
    fn liveness_slots_are_never_immune_and_fire_after_a_checkpoint() {
        for i in 0..256 {
            let sc = generate_scenario(5, i);
            match &sc.fault {
                FaultDescriptor::Stall(f) => {
                    assert!(!sc.immune, "immune stall is meaningless: {sc}");
                    assert_eq!(f.mode, StallMode::Hang);
                    // Batch 0 must complete so a verified resync point
                    // exists before the watchdog fires.
                    assert!(f.from_batch >= 1, "{sc}");
                    assert_eq!(sc.panel_size, 3, "{sc}");
                }
                FaultDescriptor::Channel(f) => {
                    assert!(!sc.immune, "immune channel fault is meaningless: {sc}");
                    assert!(f.on_batch >= 1, "{sc}");
                    assert_eq!(sc.panel_size, 3, "{sc}");
                }
                FaultDescriptor::Net(f) => {
                    assert!(!sc.immune, "immune net fault is meaningless: {sc}");
                    // The first response frame must land clean so a
                    // verified resync point exists before the wire acts up.
                    assert!(f.from_frame >= 1, "{sc}");
                    assert_eq!(sc.panel_size, 3, "{sc}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn marker_triggers_only_on_partition_zero() {
        for i in 0..256 {
            let sc = generate_scenario(3, i);
            if let FaultDescriptor::Cve(a) = &sc.fault {
                if matches!(a.trigger, InputTrigger::MagicMarker(_)) {
                    assert_eq!(sc.mvx_partition, 0, "marker off partition 0: {sc}");
                }
            }
        }
    }

    #[test]
    fn frameflip_defender_differs_from_target() {
        for i in 0..256 {
            let sc = generate_scenario(11, i);
            if let FaultDescriptor::BlasFault(ff) = &sc.fault {
                match &sc.defender {
                    Defender::Blas(b) => assert_ne!(*b, ff.target, "{sc}"),
                    other => panic!("frameflip paired with {other:?}"),
                }
            }
        }
    }

    #[test]
    fn bad_specs_rejected() {
        for line in [
            "",
            "campaign/v2 seed=1",
            "campaign/v1 seed=1 model=mnasnet",
            "campaign/v1 seed=x model=mnasnet parts=2 pseed=0 mvx=0 panel=2 defender=replica immune=0 fault=cve:oob:always path=hybrid",
        ] {
            assert!(Scenario::from_spec(line).is_err(), "accepted '{line}'");
        }
    }
}
