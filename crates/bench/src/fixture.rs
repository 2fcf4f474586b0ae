//! What every experiment shares: bit-exact comparison, seeded inputs, the
//! healing-panel configuration, the clean-deployment oracle, the transcript
//! fingerprint, the one quantile, and the JSON artifact writer.

use mvtee::config::{MvxConfig, PartitionMvx, RecoveryPolicy, ResponsePolicy};
use mvtee::{Deployment, DeploymentBuilder, MvxError};
use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The model the system-level experiments run: the smallest of the zoo at
/// Test scale, its weights drawn from `seed`.
pub fn model(seed: u64) -> Model {
    zoo::build(ModelKind::MnasNet, ScaleProfile::Test, seed).expect("zoo model builds")
}

/// First flat index at which `a` and `b` differ bit-for-bit (NaN-safe,
/// unlike `f32` comparison); a shape mismatch differs at index 0.
pub fn first_bit_diff(a: &Tensor, b: &Tensor) -> Option<usize> {
    if a.dims() != b.dims() {
        return Some(0);
    }
    a.data().iter().zip(b.data()).position(|(x, y)| x.to_bits() != y.to_bits())
}

/// Bit-exact tensor equality.
pub fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    first_bit_diff(a, b).is_none()
}

/// Bit-exact equality of two output streams.
pub fn all_bits_equal(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits_equal(x, y))
}

/// `count` deterministic inputs of `model`: slot `i` is drawn from an RNG
/// seeded `stream ^ i`, where `stream` is the experiment's master seed xor
/// its own salt (so no two experiments share inputs).
pub fn inputs(model: &Model, stream: u64, count: u64) -> Vec<Tensor> {
    let n = model.input_shape.num_elements();
    (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(stream ^ i);
            let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Tensor::from_vec(data, model.input_shape.dims()).expect("static input shape")
        })
        .collect()
}

/// Nearest-rank quantile of an unsorted sample; 0 when it is empty.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// The run-configuration fingerprint welded into a transcript header:
/// model name, graph content hash, experiment `tag` and panel shape.
pub fn fingerprint(model: &Model, tag: &str, partitions: usize, panel: usize) -> String {
    let (name, graph) = (model.kind.display_name(), mvtee_runtime::graph_fingerprint(&model.graph));
    let dash = if tag.is_empty() { "" } else { "-" };
    format!("{name}-{graph:016x}-{tag}{dash}p{partitions}x{panel}")
}

/// The panel that heals: `panel` replicated variants on each partition in
/// `mvx` (2-of-3 keeps a strict majority while one member is out), majority
/// response, graceful degradation (the default), recovery on, and a 300 ms
/// checkpoint deadline — tight enough that the straggler watchdog catches
/// a hung member within a smoke run.
pub fn healing_panel(partitions: usize, mvx: &[usize], panel: usize) -> MvxConfig {
    let mut cfg = MvxConfig::fast_path(partitions);
    for &p in mvx {
        cfg.claims[p] = PartitionMvx::replicated(panel);
    }
    cfg.response = ResponsePolicy::ContinueWithMajority;
    cfg.recovery = RecoveryPolicy::enabled();
    cfg.checkpoint_deadline_ms = 300;
    cfg
}

/// A builder of `model` under `cfg` with both seeds set to `seed`.
pub fn builder(model: &Model, cfg: &MvxConfig, seed: u64) -> DeploymentBuilder {
    Deployment::builder(model.clone()).config(cfg.clone()).partition_seed(seed).variant_seed(seed)
}

/// The correctness oracle: what the fault-free deployment `clean` answers
/// to each of `inputs`.
pub fn oracle(clean: DeploymentBuilder, inputs: &[Tensor]) -> Result<Vec<Tensor>, MvxError> {
    let mut dep = clean.build()?;
    let expected = inputs.iter().map(|input| dep.infer(input)).collect();
    dep.shutdown();
    expected
}

/// Whether `dep` answers `input` with exactly the `expected` bits.
pub fn serves(dep: &mut Deployment, input: &Tensor, expected: &Tensor) -> bool {
    matches!(dep.infer(input), Ok(out) if bits_equal(&out, expected))
}

/// A rendered JSON value of a `BENCH_*.json` artifact. The constructors
/// place every comma, escape and indent, so no report formats JSON by
/// hand: a container of containers puts one child per line, a container
/// of scalars stays on one line.
#[derive(Debug, Clone, PartialEq)]
pub struct Json {
    text: String,
    container: bool,
}

impl Json {
    /// An object of `members`, in order.
    pub fn obj<K: AsRef<str>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        let keyed = |(k, v): (K, Json)| (format!("{}: ", Json::from(k.as_ref()).text), v);
        Json::container('{', '}', members.into_iter().map(keyed).collect())
    }

    /// An array of `items`.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::container('[', ']', items.into_iter().map(|v| (String::new(), v.into())).collect())
    }

    fn container(open: char, close: char, children: Vec<(String, Json)>) -> Json {
        let nested = children.iter().any(|(_, v)| v.container);
        let body: Vec<String> = children.iter().map(|(k, v)| format!("{k}{}", v.text)).collect();
        let text = if nested {
            // Strings escape their newlines, so every raw one is structure.
            format!("{open}\n  {}\n{close}", body.join(",\n").replace('\n', "\n  "))
        } else {
            format!("{open}{}{close}", body.join(", "))
        };
        Json { text, container: true }
    }

    /// A number with `places` decimals.
    pub fn fixed(v: f64, places: usize) -> Json {
        Json { text: format!("{v:.places$}"), container: false }
    }

    /// The `meta` stamp every artifact carries: schema version, master
    /// seed, run-configuration fingerprint, and the host's thread count.
    pub fn meta(schema: &str, seed: u64, fingerprint: &str) -> Json {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        Json::obj([
            ("schema", schema.into()),
            ("seed", seed.into()),
            ("fingerprint", fingerprint.into()),
            ("threads", threads.into()),
        ])
    }

    /// The document text, newline-terminated.
    pub fn render(&self) -> String {
        format!("{}\n", self.text)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        let mut text = String::from('"');
        for c in s.chars() {
            match c {
                '"' => text.push_str("\\\""),
                '\\' => text.push_str("\\\\"),
                '\n' => text.push_str("\\n"),
                c if c.is_control() => text.push_str(&format!("\\u{:04x}", c as u32)),
                c => text.push(c),
            }
        }
        text.push('"');
        Json { text, container: false }
    }
}

macro_rules! json_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json { text: v.to_string(), container: false }
            }
        }
    )*};
}
json_display!(bool, u64, usize);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json { text: "null".into(), container: false }, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[9], 0.0), 9);
        assert_eq!(quantile(&[9], 0.99), 9);
        // n = 2: ranks ceil(0.5 * 2) = 1 and ceil(0.95 * 2) = 2.
        assert_eq!(quantile(&[8, 3], 0.50), 3);
        assert_eq!(quantile(&[8, 3], 0.95), 8);
        // n = 100, unsorted: the value of rank ceil(q * n).
        let sample: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&sample, 0.50), 50);
        assert_eq!(quantile(&sample, 0.95), 95);
        assert_eq!(quantile(&sample, 0.99), 99);
        assert_eq!(quantile(&sample, 1.0), 100);
    }

    #[test]
    fn bit_comparison_sees_what_float_equality_hides() {
        let t = |v: Vec<f32>| Tensor::from_vec(v, &[2]).expect("static shape");
        assert!(bits_equal(&t(vec![f32::NAN, 1.0]), &t(vec![f32::NAN, 1.0])));
        assert_eq!(first_bit_diff(&t(vec![0.0, 1.0]), &t(vec![0.0, 1.0000001])), Some(1));
        assert_eq!(first_bit_diff(&t(vec![0.0, 1.0]), &t(vec![-0.0, 1.0])), Some(0));
        let other_shape = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).expect("static shape");
        assert!(!bits_equal(&t(vec![0.0, 1.0]), &other_shape));
        assert!(!all_bits_equal(&[t(vec![0.0, 1.0])], &[]));
    }

    /// A parsed JSON value; the parser below shares nothing with the writer.
    #[derive(Debug, PartialEq)]
    enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    struct Parser<'a> {
        rest: &'a str,
    }

    impl Parser<'_> {
        fn eat(&mut self, token: &str) -> bool {
            self.rest = self.rest.trim_start();
            let hit = self.rest.starts_with(token);
            if hit {
                self.rest = &self.rest[token.len()..];
            }
            hit
        }

        fn string(&mut self) -> String {
            assert!(self.eat("\""), "expected a string at {:?}", self.rest);
            let mut out = String::new();
            let mut chars = self.rest.char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => {
                        self.rest = &self.rest[i + 1..];
                        return out;
                    }
                    '\\' => match chars.next().expect("escape").1 {
                        'n' => out.push('\n'),
                        'u' => {
                            let mut digit = || chars.next().expect("hex digit").1;
                            let hex: String = (0..4).map(|_| digit()).collect();
                            let code = u32::from_str_radix(&hex, 16).expect("hex digits");
                            out.push(char::from_u32(code).expect("scalar value"));
                        }
                        literal => out.push(literal),
                    },
                    c => out.push(c),
                }
            }
            panic!("unterminated string");
        }

        /// Comma-separated `item`s up to `close`; a comma before `close`
        /// (a trailing one) or a missing one is an error.
        fn list<T>(&mut self, close: &str, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
            let mut items = Vec::new();
            if self.eat(close) {
                return items;
            }
            loop {
                items.push(item(self));
                if self.eat(close) {
                    return items;
                }
                assert!(self.eat(","), "expected ',' or {close:?} at {:?}", self.rest);
            }
        }

        fn value(&mut self) -> Value {
            if self.eat("null") {
                Value::Null
            } else if self.eat("true") {
                Value::Bool(true)
            } else if self.eat("false") {
                Value::Bool(false)
            } else if self.eat("[") {
                Value::Arr(self.list("]", Self::value))
            } else if self.eat("{") {
                Value::Obj(self.list("}", |p| {
                    let key = p.string();
                    assert!(p.eat(":"), "expected ':' at {:?}", p.rest);
                    (key, p.value())
                }))
            } else if self.rest.trim_start().starts_with('"') {
                Value::Str(self.string())
            } else {
                self.rest = self.rest.trim_start();
                let end = self.rest.find(|c: char| !"+-.0123456789eE".contains(c));
                let (number, rest) = self.rest.split_at(end.unwrap_or(self.rest.len()));
                self.rest = rest;
                Value::Num(number.parse().unwrap_or_else(|_| panic!("not a number: {number:?}")))
            }
        }
    }

    #[test]
    fn json_writer_round_trips_a_nested_report() {
        let tricky = "say \"hi\"\\\n\tdone";
        let report = Json::obj([
            ("meta", Json::meta("schema-v2", 7, "Mnas-p2x3")),
            ("error", Some(tricky).into()),
            ("none", None::<&str>.into()),
            ("empty", Json::arr(Vec::<u64>::new())),
            ("ratio", Json::fixed(0.25, 3)),
            ("rows", Json::arr([Json::obj([("ok", true.into()), ("n", 3usize.into())])])),
            ("last", Json::obj([("inner", Json::arr(["a", "b"]))])),
        ]);
        let text = report.render();
        assert!(text.ends_with("}\n"));
        assert!(text.contains("  \"meta\": {\"schema\": \"schema-v2\", \"seed\": 7, "), "{text}");
        assert!(text.contains("\"ratio\": 0.250"), "{text}");

        let mut parser = Parser { rest: &text };
        let Value::Obj(members) = parser.value() else { panic!("not an object: {text}") };
        assert_eq!(parser.rest.trim(), "", "trailing text after the document");
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["meta", "error", "none", "empty", "ratio", "rows", "last"]);
        assert_eq!(members[1].1, Value::Str(tricky.to_string()));
        assert_eq!(members[2].1, Value::Null);
        assert_eq!(members[3].1, Value::Arr(vec![]));
        assert_eq!(members[4].1, Value::Num(0.25));
        let row = Value::Obj(vec![("ok".into(), Value::Bool(true)), ("n".into(), Value::Num(3.0))]);
        assert_eq!(members[5].1, Value::Arr(vec![row]));
        let inner = Value::Arr(vec![Value::Str("a".into()), Value::Str("b".into())]);
        assert_eq!(members[6].1, Value::Obj(vec![("inner".into(), inner)]));
    }

    #[test]
    fn fingerprints_carry_the_tag_only_when_there_is_one() {
        let model = model(7);
        let plain = fingerprint(&model, "", 2, 3);
        let tagged = fingerprint(&model, "dist", 2, 3);
        assert!(plain.starts_with("MnasNet-") && plain.ends_with("-p2x3"), "{plain}");
        assert_eq!(tagged, plain.replace("-p2x3", "-dist-p2x3"));
        // The input stream is a pure function of (model, stream, slot).
        let (a, b) = (inputs(&model, 5, 3), inputs(&model, 5, 2));
        assert!(all_bits_equal(&a[..2], &b));
        assert!(!bits_equal(&a[0], &a[1]));
        assert!(bits_equal(&inputs(&model, 5 ^ 2, 1)[0], &a[2]));
    }
}
