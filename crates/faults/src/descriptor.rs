//! Scenario-enumerable fault descriptors.
//!
//! The campaign engine (`mvtee-campaign`) needs to *enumerate* the fault
//! space — every bit-flip strategy, FrameFlip target, and CVE class — and
//! to reconstruct any drawn fault exactly from a one-line textual spec so
//! a failing scenario can be replayed byte-for-byte. [`FaultDescriptor`]
//! is that closed, serialisable description: it carries everything needed
//! to instantiate the concrete fault objects ([`Attack`], [`FrameFlip`],
//! [`flip_weight_bits`](crate::flip_weight_bits) parameters) and round-trips through
//! `Display`/`FromStr`.
//!
//! Constructors follow proptest's `Arbitrary` style: a seeded RNG draws a
//! descriptor from the full space deterministically, so the same campaign
//! seed always yields the same fault sequence.

use crate::bitflip::BitFlipStrategy;
use crate::blasfault::{FrameFlip, GemmCorruption};
use crate::cve::{Attack, CveClass, InputTrigger};
use crate::liveness::{ChannelFault, ChannelFaultMode, StallFault, StallMode};
use crate::netfault::NetFault;
use mvtee_runtime::BlasKind;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;
use std::str::FromStr;

/// Parameters of a weight-targeted bit-flip fault, sealed into a variant's
/// subgraph at offline time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitFlipFault {
    /// Which bits are flipped.
    pub strategy: BitFlipStrategy,
    /// Number of flips.
    pub count: usize,
    /// RNG seed selecting the flipped weights.
    pub seed: u64,
}

/// One fault drawn from the full space the campaign enumerates.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultDescriptor {
    /// Weight bit flips applied to one variant's sealed subgraph.
    WeightBitFlip(BitFlipFault),
    /// Platform-wide BLAS code fault (FrameFlip).
    BlasFault(FrameFlip),
    /// A CVE-class exploit present on the variant hosts.
    Cve(Attack),
    /// A scheduling stall (delay or hang) on one variant host.
    Stall(StallFault),
    /// A lossy response channel (drop or truncation) on one variant host.
    Channel(ChannelFault),
    /// A wire-level transport fault on one variant's connection.
    Net(NetFault),
}

/// Bit-flip family row label.
pub const FAMILY_BITFLIP: &str = "bitflip";
/// FrameFlip family row label.
pub const FAMILY_FRAMEFLIP: &str = "frameflip";
/// Stall (liveness) family row label.
pub const FAMILY_STALL: &str = "stall";
/// Channel-fault (liveness) family row label.
pub const FAMILY_CHANNEL: &str = "chan";
/// Wire-level transport fault family row label.
pub const FAMILY_NET: &str = "net";

impl FaultDescriptor {
    /// Matrix row label: the fault class. CVE faults use the Table 1 class
    /// name (`OOB`, `UNP`, …); the other families use their family name.
    pub fn class_name(&self) -> String {
        match self {
            FaultDescriptor::WeightBitFlip(_) => FAMILY_BITFLIP.to_string(),
            FaultDescriptor::BlasFault(_) => FAMILY_FRAMEFLIP.to_string(),
            FaultDescriptor::Cve(a) => a.class.to_string(),
            FaultDescriptor::Stall(_) => FAMILY_STALL.to_string(),
            FaultDescriptor::Channel(_) => FAMILY_CHANNEL.to_string(),
            FaultDescriptor::Net(n) => format!("net-{}", n.class.token()),
        }
    }

    /// Coarse family name (`bitflip`, `frameflip`, `cve`, `stall`,
    /// `chan`, `net`).
    pub fn family(&self) -> &'static str {
        match self {
            FaultDescriptor::WeightBitFlip(_) => FAMILY_BITFLIP,
            FaultDescriptor::BlasFault(_) => FAMILY_FRAMEFLIP,
            FaultDescriptor::Cve(_) => "cve",
            FaultDescriptor::Stall(_) => FAMILY_STALL,
            FaultDescriptor::Channel(_) => FAMILY_CHANNEL,
            FaultDescriptor::Net(_) => FAMILY_NET,
        }
    }

    /// Whether the fault strikes every variant host (the platform's
    /// shared software stack) rather than one `(partition, variant)`.
    pub fn platform_wide(&self) -> bool {
        matches!(self, FaultDescriptor::Cve(_) | FaultDescriptor::BlasFault(_))
    }

    /// Draws a descriptor uniformly from the full fault space
    /// (`Arbitrary`-style; deterministic given the RNG state).
    pub fn arbitrary(rng: &mut StdRng) -> Self {
        match rng.gen_range(0..6) {
            0 => FaultDescriptor::WeightBitFlip(BitFlipFault::arbitrary(rng)),
            1 => FaultDescriptor::BlasFault(arbitrary_frameflip(rng)),
            2 => FaultDescriptor::Stall(arbitrary_stall(rng)),
            3 => FaultDescriptor::Channel(arbitrary_channel(rng)),
            4 => FaultDescriptor::Net(NetFault::arbitrary(rng)),
            _ => FaultDescriptor::Cve(arbitrary_attack(rng)),
        }
    }

    /// Convenience: draw from a fresh RNG seeded with `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self::arbitrary(&mut StdRng::seed_from_u64(seed))
    }
}

impl BitFlipFault {
    /// Draws bit-flip parameters (1–4 flips, either strategy).
    pub fn arbitrary(rng: &mut StdRng) -> Self {
        let strategy = if rng.gen_bool(0.5) {
            BitFlipStrategy::ExponentMsb
        } else {
            BitFlipStrategy::RandomBit
        };
        BitFlipFault { strategy, count: rng.gen_range(1..=4), seed: rng.next_u64() }
    }
}

fn arbitrary_frameflip(rng: &mut StdRng) -> FrameFlip {
    let target = BlasKind::ALL[rng.gen_range(0..BlasKind::ALL.len())];
    let corruption = if rng.gen_bool(0.5) {
        GemmCorruption::ZeroPrefix { fraction: 0.3 }
    } else {
        GemmCorruption::BitFlipStride { stride: rng.gen_range(1..=4) }
    };
    FrameFlip { target, corruption }
}

fn arbitrary_stall(rng: &mut StdRng) -> StallFault {
    let from_batch = rng.gen_range(0..4);
    let mode = if rng.gen_bool(0.5) {
        StallMode::Hang
    } else {
        StallMode::Delay { delay_ms: rng.gen_range(1u64..=8) * 25 }
    };
    StallFault { from_batch, mode }
}

fn arbitrary_channel(rng: &mut StdRng) -> ChannelFault {
    let on_batch = rng.gen_range(0..4);
    let mode = if rng.gen_bool(0.5) {
        ChannelFaultMode::Drop
    } else {
        ChannelFaultMode::Truncate
    };
    ChannelFault { on_batch, mode }
}

fn arbitrary_attack(rng: &mut StdRng) -> Attack {
    let class = CveClass::ALL[rng.gen_range(0..CveClass::ALL.len())];
    // Marker triggers are only meaningful where raw inputs are visible
    // (partition 0); the scenario generator decides placement, so both
    // trigger kinds are drawable here.
    if rng.gen_bool(0.25) {
        Attack::with_marker(class, 1337.0)
    } else {
        Attack::new(class)
    }
}

fn blas_name(kind: BlasKind) -> &'static str {
    match kind {
        BlasKind::Naive => "naive",
        BlasKind::Blocked => "blocked",
        BlasKind::Strided => "strided",
    }
}

fn blas_from_name(name: &str) -> Result<BlasKind, String> {
    match name {
        "naive" => Ok(BlasKind::Naive),
        "blocked" => Ok(BlasKind::Blocked),
        "strided" => Ok(BlasKind::Strided),
        other => Err(format!("unknown blas kind '{other}'")),
    }
}

/// Lower-case CVE class token used in fault specs.
pub fn cve_class_token(class: CveClass) -> &'static str {
    match class {
        CveClass::Oob => "oob",
        CveClass::Unp => "unp",
        CveClass::Fpe => "fpe",
        CveClass::Io => "io",
        CveClass::Uaf => "uaf",
        CveClass::Acf => "acf",
    }
}

/// Parses the lower-case CVE class token.
pub fn cve_class_from_token(token: &str) -> Result<CveClass, String> {
    match token {
        "oob" => Ok(CveClass::Oob),
        "unp" => Ok(CveClass::Unp),
        "fpe" => Ok(CveClass::Fpe),
        "io" => Ok(CveClass::Io),
        "uaf" => Ok(CveClass::Uaf),
        "acf" => Ok(CveClass::Acf),
        other => Err(format!("unknown cve class '{other}'")),
    }
}

impl fmt::Display for FaultDescriptor {
    /// One-token spec, e.g. `bitflip:exp:2:13`, `frameflip:blocked:zero:0.3`,
    /// `cve:oob:always`, `cve:acf:marker:1337`, `stall:3:hang`,
    /// `stall:0:delay:50`, `chan:2:drop`, `chan:1:trunc`, `net:corrupt:1:99`,
    /// `net:disc:0`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultDescriptor::WeightBitFlip(b) => {
                let s = match b.strategy {
                    BitFlipStrategy::ExponentMsb => "exp",
                    BitFlipStrategy::RandomBit => "rand",
                };
                write!(f, "bitflip:{s}:{}:{}", b.count, b.seed)
            }
            FaultDescriptor::BlasFault(ff) => {
                write!(f, "frameflip:{}:", blas_name(ff.target))?;
                match ff.corruption {
                    GemmCorruption::ZeroPrefix { fraction } => write!(f, "zero:{fraction}"),
                    GemmCorruption::BitFlipStride { stride } => write!(f, "stride:{stride}"),
                }
            }
            FaultDescriptor::Cve(a) => {
                write!(f, "cve:{}:", cve_class_token(a.class))?;
                match a.trigger {
                    InputTrigger::Always => write!(f, "always"),
                    InputTrigger::MagicMarker(m) => write!(f, "marker:{m}"),
                }
            }
            FaultDescriptor::Stall(s) => match s.mode {
                StallMode::Hang => write!(f, "stall:{}:hang", s.from_batch),
                StallMode::Delay { delay_ms } => {
                    write!(f, "stall:{}:delay:{delay_ms}", s.from_batch)
                }
            },
            FaultDescriptor::Channel(c) => match c.mode {
                ChannelFaultMode::Drop => write!(f, "chan:{}:drop", c.on_batch),
                ChannelFaultMode::Truncate => write!(f, "chan:{}:trunc", c.on_batch),
            },
            FaultDescriptor::Net(n) => write!(f, "{n}"),
        }
    }
}

impl FromStr for FaultDescriptor {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        let bad = |msg: &str| format!("bad fault spec '{s}': {msg}");
        match parts.as_slice() {
            ["bitflip", strategy, count, seed] => {
                let strategy = match *strategy {
                    "exp" => BitFlipStrategy::ExponentMsb,
                    "rand" => BitFlipStrategy::RandomBit,
                    other => return Err(bad(&format!("unknown strategy '{other}'"))),
                };
                let count = count.parse().map_err(|_| bad("bad count"))?;
                let seed = seed.parse().map_err(|_| bad("bad seed"))?;
                Ok(FaultDescriptor::WeightBitFlip(BitFlipFault { strategy, count, seed }))
            }
            ["frameflip", blas, kind, arg] => {
                let target = blas_from_name(blas).map_err(|e| bad(&e))?;
                let corruption = match *kind {
                    "zero" => GemmCorruption::ZeroPrefix {
                        fraction: arg.parse().map_err(|_| bad("bad fraction"))?,
                    },
                    "stride" => GemmCorruption::BitFlipStride {
                        stride: arg.parse().map_err(|_| bad("bad stride"))?,
                    },
                    other => return Err(bad(&format!("unknown corruption '{other}'"))),
                };
                Ok(FaultDescriptor::BlasFault(FrameFlip { target, corruption }))
            }
            ["cve", class, "always"] => {
                let class = cve_class_from_token(class).map_err(|e| bad(&e))?;
                Ok(FaultDescriptor::Cve(Attack::new(class)))
            }
            ["cve", class, "marker", m] => {
                let class = cve_class_from_token(class).map_err(|e| bad(&e))?;
                let marker = m.parse().map_err(|_| bad("bad marker"))?;
                Ok(FaultDescriptor::Cve(Attack::with_marker(class, marker)))
            }
            ["stall", from, "hang"] => {
                let from_batch = from.parse().map_err(|_| bad("bad batch"))?;
                Ok(FaultDescriptor::Stall(StallFault { from_batch, mode: StallMode::Hang }))
            }
            ["stall", from, "delay", ms] => {
                let from_batch = from.parse().map_err(|_| bad("bad batch"))?;
                let delay_ms = ms.parse().map_err(|_| bad("bad delay"))?;
                Ok(FaultDescriptor::Stall(StallFault {
                    from_batch,
                    mode: StallMode::Delay { delay_ms },
                }))
            }
            ["chan", on, "drop"] => {
                let on_batch = on.parse().map_err(|_| bad("bad batch"))?;
                Ok(FaultDescriptor::Channel(ChannelFault {
                    on_batch,
                    mode: ChannelFaultMode::Drop,
                }))
            }
            ["chan", on, "trunc"] => {
                let on_batch = on.parse().map_err(|_| bad("bad batch"))?;
                Ok(FaultDescriptor::Channel(ChannelFault {
                    on_batch,
                    mode: ChannelFaultMode::Truncate,
                }))
            }
            ["net", ..] => Ok(FaultDescriptor::Net(s.parse()?)),
            _ => Err(bad("unrecognised shape")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip() {
        let samples = [
            "bitflip:exp:2:13",
            "bitflip:rand:4:18446744073709551615",
            "frameflip:blocked:zero:0.3",
            "frameflip:naive:stride:2",
            "cve:oob:always",
            "cve:acf:marker:1337",
            "stall:3:hang",
            "stall:0:delay:50",
            "chan:2:drop",
            "chan:1:trunc",
            "net:delay:2:20",
            "net:stall:1",
            "net:drop:0",
            "net:dup:3",
            "net:trunc:2",
            "net:corrupt:1:7777",
            "net:torn:0",
            "net:disc:1",
        ];
        for s in samples {
            let d: FaultDescriptor = s.parse().unwrap();
            assert_eq!(d.to_string(), s, "round trip failed for {s}");
            let again: FaultDescriptor = d.to_string().parse().unwrap();
            assert_eq!(again, d);
        }
    }

    #[test]
    fn arbitrary_is_deterministic_and_round_trips() {
        for seed in 0..64 {
            let a = FaultDescriptor::from_seed(seed);
            let b = FaultDescriptor::from_seed(seed);
            assert_eq!(a, b);
            let re: FaultDescriptor = a.to_string().parse().unwrap();
            assert_eq!(re, a);
        }
    }

    #[test]
    fn arbitrary_covers_every_family() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..128 {
            seen.insert(FaultDescriptor::arbitrary(&mut rng).family());
        }
        assert!(seen.contains("bitflip"));
        assert!(seen.contains("frameflip"));
        assert!(seen.contains("cve"));
        assert!(seen.contains("stall"));
        assert!(seen.contains("chan"));
        assert!(seen.contains("net"));
    }

    #[test]
    fn class_names_match_table1() {
        for class in CveClass::ALL {
            let d = FaultDescriptor::Cve(Attack::new(class));
            assert_eq!(d.class_name(), class.to_string());
            assert_eq!(cve_class_from_token(cve_class_token(class)).unwrap(), class);
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        for s in [
            "",
            "bitflip:exp:2",
            "frameflip:eigen:zero:0.3",
            "cve:xyz:always",
            "x:y",
            "stall:x:hang",
            "stall:1:freeze",
            "chan:2:corrupt",
            "net:melt:1",
            "net:drop:x",
        ] {
            assert!(s.parse::<FaultDescriptor>().is_err(), "accepted bad spec '{s}'");
        }
    }
}
