//! CVE-class vulnerability simulators — the Table 1 reproduction.
//!
//! The paper's empirical analysis maps TensorFlow CVE classes to the
//! variant families that defend against them. Each [`CveClass`] here
//! carries (a) the observable *effect* of a successful exploit and (b) the
//! susceptibility rule: which variant configurations the exploit works
//! against. An [`Attack`] wraps a variant's [`PreparedModel`]; when the
//! trigger input arrives and the variant is susceptible, the effect
//! manifests — as a crash or a corrupted output — which is exactly the
//! signal MVTEE's checkpoints observe.
//!
//! | Class | Example CVE | Impact | Defending variants |
//! |---|---|---|---|
//! | OOB | CVE-2021-41226 / -41883 / -41900 / -25668 | DoS, corruption, R/W, code exec | different RT, bounds check, sanitizers, ASLR |
//! | UNP | CVE-2022-21739 / -25672 | DoS, incorrect results | different RT, sanitizers |
//! | FPE | CVE-2022-21725 | DoS, incorrect results | different RT, error handling, compiler |
//! | IO  | CVE-2022-21727 / -21733 | DoS, corruption, incorrect results | different RT, sanitizers, compiler |
//! | UAF | CVE-2021-37652 | DoS, corruption, code exec | different RT, sanitizers |
//! | ACF | CVE-2022-35935 | DoS | different RT, error handling |

use mvtee_diversify::VariantSpec;
use mvtee_runtime::{EngineKind, PreparedModel, Result as RtResult, RuntimeError};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The six vulnerability classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CveClass {
    /// Out-of-bound read/write.
    Oob,
    /// Uninitialized / null pointer dereference.
    Unp,
    /// Floating-point exception.
    Fpe,
    /// Integer overflow.
    Io,
    /// Use-after-free.
    Uaf,
    /// Assertion check failure.
    Acf,
}

impl CveClass {
    /// All classes.
    pub const ALL: [CveClass; 6] =
        [CveClass::Oob, CveClass::Unp, CveClass::Fpe, CveClass::Io, CveClass::Uaf, CveClass::Acf];

    /// A representative CVE identifier for display.
    pub fn example_cve(self) -> &'static str {
        match self {
            CveClass::Oob => "CVE-2021-41226",
            CveClass::Unp => "CVE-2022-21739",
            CveClass::Fpe => "CVE-2022-21725",
            CveClass::Io => "CVE-2022-21727",
            CveClass::Uaf => "CVE-2021-37652",
            CveClass::Acf => "CVE-2022-35935",
        }
    }

    /// Hardening capabilities (beyond "different RT") that defend this
    /// class, matching Table 1's "Variants e.g." column.
    pub fn defenses(self) -> &'static [&'static str] {
        match self {
            CveClass::Oob => &["bounds-check", "sanitizer-address"],
            CveClass::Unp => &["sanitizer-address"],
            CveClass::Fpe => &["error-handling", "compiler-checks"],
            CveClass::Io => &["sanitizer-address", "compiler-checks"],
            CveClass::Uaf => &["sanitizer-address"],
            CveClass::Acf => &["error-handling"],
        }
    }

    /// The observable effect of a successful exploit.
    pub fn effect(self) -> FaultEffect {
        match self {
            CveClass::Oob => FaultEffect::CorruptOutput,
            CveClass::Unp => FaultEffect::Crash,
            CveClass::Fpe => FaultEffect::NanOutput,
            CveClass::Io => FaultEffect::CorruptOutput,
            CveClass::Uaf => FaultEffect::CorruptOutput,
            CveClass::Acf => FaultEffect::Crash,
        }
    }

    /// Is a variant with `spec` susceptible to this class?
    ///
    /// Susceptibility rules (the Table 1 matrix):
    /// * the vulnerable runtime family is the ORT-like stack (the
    ///   framework the CVEs live in); *different RT* variants
    ///   (TVM-like, reference interpreter) do not contain the code,
    /// * any listed hardening capability on the variant defeats the
    ///   exploit,
    /// * the OOB code-execution path additionally needs a known address
    ///   layout: a non-zero ASLR seed randomises it away.
    pub fn affects(self, spec: &VariantSpec) -> bool {
        if spec.engine.kind != EngineKind::OrtLike {
            return false; // "Different RT" defends every class.
        }
        if self.defenses().iter().any(|d| spec.has_hardening(d)) {
            return false;
        }
        if self == CveClass::Oob && spec.aslr_seed != 0 {
            return false; // ASLR breaks the OOB exploit chain.
        }
        true
    }
}

impl fmt::Display for CveClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CveClass::Oob => "OOB",
            CveClass::Unp => "UNP",
            CveClass::Fpe => "FPE",
            CveClass::Io => "IO",
            CveClass::Uaf => "UAF",
            CveClass::Acf => "ACF",
        };
        write!(f, "{name}")
    }
}

/// How an exploited variant misbehaves, as observed at the output level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// The variant process dies (DoS / crash-type CVEs).
    Crash,
    /// Output tensor silently corrupted (R/W primitives, data corruption).
    CorruptOutput,
    /// Output becomes NaN (floating-point exceptions propagating).
    NanOutput,
}

/// When the malicious payload fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputTrigger {
    /// Every inference (the attacker owns the input stream).
    Always,
    /// Only when the first input element equals the magic marker (a
    /// crafted request among benign traffic).
    MagicMarker(f32),
}

impl InputTrigger {
    /// Does this input fire the trigger?
    pub fn fires(&self, inputs: &[Tensor]) -> bool {
        match self {
            InputTrigger::Always => true,
            InputTrigger::MagicMarker(m) => inputs
                .first()
                .and_then(|t| t.data().first())
                .map(|&v| v == *m)
                .unwrap_or(false),
        }
    }
}

/// A configured attack instance: class + trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attack {
    /// The exploited vulnerability class.
    pub class: CveClass,
    /// When it fires.
    pub trigger: InputTrigger,
}

impl Attack {
    /// An always-firing attack of the given class.
    pub fn new(class: CveClass) -> Self {
        Attack { class, trigger: InputTrigger::Always }
    }

    /// An attack fired by a magic marker input.
    pub fn with_marker(class: CveClass, marker: f32) -> Self {
        Attack { class, trigger: InputTrigger::MagicMarker(marker) }
    }

    /// Wraps a variant's prepared model: if the variant is susceptible,
    /// the exploit fires on triggering inputs.
    pub fn instrument(
        &self,
        inner: Box<dyn PreparedModel>,
        spec: &VariantSpec,
    ) -> Box<dyn PreparedModel> {
        Box::new(VulnerableModel {
            inner,
            attack: *self,
            susceptible: self.class.affects(spec),
            seed: spec.id.0,
        })
    }
}

/// A [`PreparedModel`] wrapper that manifests an exploit.
pub struct VulnerableModel {
    inner: Box<dyn PreparedModel>,
    attack: Attack,
    susceptible: bool,
    seed: u64,
}

impl PreparedModel for VulnerableModel {
    fn run(&self, inputs: &[Tensor]) -> RtResult<Vec<Tensor>> {
        let exploited = self.susceptible && self.attack.trigger.fires(inputs);
        if !exploited {
            return self.inner.run(inputs);
        }
        match self.attack.class.effect() {
            FaultEffect::Crash => Err(RuntimeError::Crashed {
                reason: format!(
                    "{} ({}) exploited: variant terminated",
                    self.attack.class,
                    self.attack.class.example_cve()
                ),
            }),
            FaultEffect::CorruptOutput => {
                let mut outputs = self.inner.run(inputs)?;
                let mut rng = StdRng::seed_from_u64(self.seed ^ 0xbad_c0de);
                for out in &mut outputs {
                    // Overwrite a random span: the OOB/UAF write primitive
                    // scribbling over the result buffer.
                    let len = out.len();
                    if len == 0 {
                        continue;
                    }
                    let start = rng.gen_range(0..len);
                    let span = (len / 4).max(1);
                    let data = out.data_mut();
                    for i in 0..span {
                        let j = (start + i) % len;
                        data[j] = rng.gen_range(-1000.0..1000.0);
                    }
                }
                Ok(outputs)
            }
            FaultEffect::NanOutput => {
                let mut outputs = self.inner.run(inputs)?;
                for out in &mut outputs {
                    if let Some(v) = out.data_mut().first_mut() {
                        *v = f32::NAN;
                    }
                }
                Ok(outputs)
            }
        }
    }

    fn describe(&self) -> String {
        format!("{} [instrumented: {}]", self.inner.describe(), self.attack.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtee_diversify::spec::VariantSpec;
    use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
    use mvtee_runtime::{Engine, EngineConfig};

    fn prepared() -> Box<dyn PreparedModel> {
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 31).unwrap();
        Engine::new(EngineConfig::of_kind(EngineKind::OrtLike)).prepare(&m.graph).unwrap()
    }

    fn input() -> Tensor {
        Tensor::ones(&[1, 3, 32, 32])
    }

    fn ort_spec() -> VariantSpec {
        VariantSpec::replicated(0, EngineKind::OrtLike)
    }

    #[test]
    fn different_rt_defends_every_class() {
        let tvm = VariantSpec::replicated(1, EngineKind::TvmLike);
        let reference = VariantSpec::replicated(2, EngineKind::Reference);
        for class in CveClass::ALL {
            assert!(!class.affects(&tvm), "{class} should not affect tvm");
            assert!(!class.affects(&reference), "{class} should not affect reference");
            assert!(class.affects(&ort_spec()), "{class} should affect plain ort");
        }
    }

    #[test]
    fn hardening_defends_matching_classes() {
        let mut hardened = ort_spec();
        hardened.hardening.push("sanitizer-address".into());
        assert!(!CveClass::Oob.affects(&hardened));
        assert!(!CveClass::Uaf.affects(&hardened));
        assert!(!CveClass::Unp.affects(&hardened));
        // Sanitizers do not stop FPE/ACF.
        assert!(CveClass::Fpe.affects(&hardened));
        assert!(CveClass::Acf.affects(&hardened));

        let mut error_handling = ort_spec();
        error_handling.hardening.push("error-handling".into());
        assert!(!CveClass::Fpe.affects(&error_handling));
        assert!(!CveClass::Acf.affects(&error_handling));
        assert!(CveClass::Oob.affects(&error_handling));
    }

    #[test]
    fn aslr_defends_oob_only() {
        let mut aslr = ort_spec();
        aslr.aslr_seed = 42;
        assert!(!CveClass::Oob.affects(&aslr));
        assert!(CveClass::Uaf.affects(&aslr));
        assert!(CveClass::Io.affects(&aslr));
    }

    #[test]
    fn crash_classes_kill_the_variant() {
        for class in [CveClass::Unp, CveClass::Acf] {
            let attacked = Attack::new(class).instrument(prepared(), &ort_spec());
            let err = attacked.run(&[input()]).unwrap_err();
            assert!(matches!(err, RuntimeError::Crashed { .. }), "{class}");
        }
    }

    #[test]
    fn corruption_classes_change_outputs() {
        let clean = prepared().run(&[input()]).unwrap().remove(0);
        for class in [CveClass::Oob, CveClass::Io, CveClass::Uaf] {
            let attacked = Attack::new(class).instrument(prepared(), &ort_spec());
            let out = attacked.run(&[input()]).unwrap().remove(0);
            assert_ne!(out, clean, "{class} corruption invisible");
        }
    }

    #[test]
    fn fpe_produces_nan() {
        let attacked = Attack::new(CveClass::Fpe).instrument(prepared(), &ort_spec());
        let out = attacked.run(&[input()]).unwrap().remove(0);
        assert!(out.data()[0].is_nan());
    }

    #[test]
    fn non_susceptible_variant_unaffected() {
        let tvm_spec = VariantSpec::replicated(3, EngineKind::TvmLike);
        // Instrument an (ORT-prepared) model with a TVM spec: not
        // susceptible, must behave identically to the clean model.
        let attacked = Attack::new(CveClass::Oob).instrument(prepared(), &tvm_spec);
        let clean = prepared().run(&[input()]).unwrap();
        assert_eq!(attacked.run(&[input()]).unwrap(), clean);
    }

    #[test]
    fn magic_marker_gates_the_exploit() {
        let attack = Attack::with_marker(CveClass::Acf, 1337.0);
        let attacked = attack.instrument(prepared(), &ort_spec());
        // Benign input: fine.
        assert!(attacked.run(&[input()]).is_ok());
        // Crafted input: crash.
        let mut crafted = input();
        crafted.data_mut()[0] = 1337.0;
        assert!(matches!(
            attacked.run(&[crafted]),
            Err(RuntimeError::Crashed { .. })
        ));
    }

    #[test]
    fn table1_matrix_shape() {
        // Every class must have at least one non-RT defense, and the
        // defense list must match Table 1's families.
        for class in CveClass::ALL {
            assert!(!class.defenses().is_empty(), "{class}");
            assert!(!class.example_cve().is_empty());
        }
    }
}
