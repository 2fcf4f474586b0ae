//! Per-session engine caching: scratch-buffer arenas, pre-packed GEMM
//! weights, and a prepared-model cache.
//!
//! Three separate allocation sinks in the pre-cache runtime all scale
//! with inference *count* rather than model size:
//!
//! 1. every `gemm_fc` call re-transposed the `[m, k]` weight matrix into
//!    a fresh `[k, m]` buffer,
//! 2. every im2col convolution allocated its patch (`col`) and product
//!    (`prod`) matrices from the global allocator,
//! 3. every variant TEE prepared its own copy of the same compiled
//!    graph, even when its engine configuration was identical to a
//!    sibling's.
//!
//! [`ScratchArena`] recycles the per-call temporaries, [`PackedGemm`]
//! moves the weight transpose to prepare time (keyed by node id inside
//! the interpreter), and [`EngineCache`] memoizes whole prepared models
//! per `(engine config, graph fingerprint)` so replicated variants share
//! one compiled model. None of this changes any computed value: packed
//! and unpacked paths read the same floats in the same order.

use crate::engine::{Engine, EngineConfig, PreparedModel};
use crate::pool::ThreadPool;
use crate::Result;
use mvtee_graph::Graph;
use mvtee_tensor::Tensor;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on buffers the arena retains; beyond this, returned
/// buffers are simply dropped.
const ARENA_MAX_BUFFERS: usize = 16;

/// Buffers smaller than this are not worth recycling.
const ARENA_MIN_ELEMS: usize = 64;

/// A reusable pool of `Vec<f32>` scratch buffers.
///
/// Interior-mutable (`Mutex`) so kernels can draw scratch space through
/// the `&self` [`PreparedModel::run`] path, including from pool worker
/// threads. Buffer contents never influence outputs — [`take`] returns
/// zeroed storage and every kernel fully overwrites what it reads.
///
/// [`take`]: ScratchArena::take
pub struct ScratchArena {
    buffers: Mutex<Vec<Vec<f32>>>,
    reused_bytes: mvtee_telemetry::Counter,
}

impl std::fmt::Debug for ScratchArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.buffers.lock().map(|b| b.len()).unwrap_or(0);
        f.debug_struct("ScratchArena").field("buffers", &held).finish()
    }
}

impl Default for ScratchArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ScratchArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        crate::pool::register_runtime_metrics();
        ScratchArena {
            buffers: Mutex::new(Vec::new()),
            reused_bytes: mvtee_telemetry::counter("runtime.cache.arena_bytes_reused"),
        }
    }

    /// Takes a zeroed buffer of exactly `len` elements, recycling a
    /// retained allocation when one is large enough.
    pub fn take(&self, len: usize) -> Vec<f32> {
        let recycled = {
            let mut buffers = self.buffers.lock().expect("arena lock");
            buffers
                .iter()
                .position(|b| b.capacity() >= len)
                .map(|i| buffers.swap_remove(i))
        };
        match recycled {
            Some(mut buf) => {
                self.reused_bytes.add((len * std::mem::size_of::<f32>()) as u64);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the arena for reuse.
    pub fn give(&self, buf: Vec<f32>) {
        if buf.capacity() < ARENA_MIN_ELEMS {
            return;
        }
        let mut buffers = self.buffers.lock().expect("arena lock");
        if buffers.len() < ARENA_MAX_BUFFERS {
            buffers.push(buf);
        }
    }

    /// Number of buffers currently retained.
    pub fn retained(&self) -> usize {
        self.buffers.lock().map(|b| b.len()).unwrap_or(0)
    }
}

/// A fully-connected weight matrix packed for the GEMM hot path at
/// prepare time: the `[k, m]` transpose for row-panel products, plus the
/// per-chunk column panels the batch-1 path multiplies independently.
///
/// Panels are laid out with the *same* static chunk list the pool uses
/// at run time, so the packed and unpacked paths visit identical floats
/// in identical order and stay byte-for-byte interchangeable.
#[derive(Debug)]
pub struct PackedGemm {
    /// Input features (`w.dims()[1]`).
    pub k: usize,
    /// Output features (`w.dims()[0]`).
    pub m: usize,
    /// The `[k, m]` transpose of the weight matrix.
    pub wt: Vec<f32>,
    /// Column panels: `panels[c]` is the `[k, e-s]` slab of `wt` columns
    /// for the pool's chunk `c = (s, e)` over the `m` outputs.
    pub panels: Vec<Vec<f32>>,
}

impl PackedGemm {
    /// Packs a rank-2 `[m, k]` weight tensor against `pool`'s chunk list.
    pub fn pack(w: &Tensor, pool: &ThreadPool) -> Self {
        let (m, k) = (w.dims()[0], w.dims()[1]);
        let ws = w.data();
        let mut wt = vec![0.0f32; k * m];
        for o in 0..m {
            for i in 0..k {
                wt[i * m + o] = ws[o * k + i];
            }
        }
        let panels = pool
            .chunk_ranges(m)
            .iter()
            .map(|&(s, e)| {
                let mc = e - s;
                let mut panel = vec![0.0f32; k * mc];
                for i in 0..k {
                    panel[i * mc..(i + 1) * mc].copy_from_slice(&wt[i * m + s..i * m + e]);
                }
                panel
            })
            .collect();
        PackedGemm { k, m, wt, panels }
    }
}

/// The handle to the `runtime.cache.pack_hits` counter (fetched once).
pub(crate) fn pack_hits() -> &'static mvtee_telemetry::Counter {
    static C: OnceLock<mvtee_telemetry::Counter> = OnceLock::new();
    C.get_or_init(|| mvtee_telemetry::counter("runtime.cache.pack_hits"))
}

/// The handle to the `runtime.cache.pack_misses` counter (fetched once).
pub(crate) fn pack_misses() -> &'static mvtee_telemetry::Counter {
    static C: OnceLock<mvtee_telemetry::Counter> = OnceLock::new();
    C.get_or_init(|| mvtee_telemetry::counter("runtime.cache.pack_misses"))
}

/// Everything a kernel needs beyond its operands: the deterministic
/// thread pool and the scratch arena. Cheap to clone (two `Arc`s).
#[derive(Debug, Clone)]
pub struct KernelCtx {
    /// The deterministic intra-op pool.
    pub pool: Arc<ThreadPool>,
    /// The scratch-buffer arena.
    pub arena: Arc<ScratchArena>,
}

impl KernelCtx {
    /// Builds a context from a pool with a fresh arena.
    pub fn new(pool: Arc<ThreadPool>) -> Self {
        KernelCtx { pool, arena: Arc::new(ScratchArena::new()) }
    }

    /// The shared inline context the plain kernel entry points use: a
    /// passthrough pool (single chunk, caller's thread — byte- and
    /// call-shape-identical to the pre-pool kernels) plus a process-wide
    /// arena.
    pub fn sequential() -> &'static KernelCtx {
        static CTX: OnceLock<KernelCtx> = OnceLock::new();
        CTX.get_or_init(|| KernelCtx::new(ThreadPool::passthrough()))
    }
}

/// A content fingerprint of a graph: name, topology, operator attributes
/// and every initializer bit. In-process cache keying only — not a
/// cryptographic commitment (the TEE measurement layer owns that).
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut h = DefaultHasher::new();
    graph.name.hash(&mut h);
    graph.value_count().hash(&mut h);
    for node in graph.nodes() {
        node.name.hash(&mut h);
        format!("{:?}", node.op).hash(&mut h);
        for i in &node.inputs {
            i.0.hash(&mut h);
        }
        for o in &node.outputs {
            o.0.hash(&mut h);
        }
    }
    for v in graph.inputs() {
        v.0.hash(&mut h);
    }
    for v in graph.outputs() {
        v.0.hash(&mut h);
    }
    for (vid, t) in graph.initializers() {
        vid.0.hash(&mut h);
        t.dims().hash(&mut h);
        for &x in t.data() {
            x.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// Adapter giving a shared prepared model the owned-`Box` shape the
/// variant host and the fault instrumentation expect.
pub struct SharedModel(pub Arc<dyn PreparedModel>);

impl PreparedModel for SharedModel {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        self.0.run(inputs)
    }

    fn describe(&self) -> String {
        self.0.describe()
    }
}

/// A per-session prepared-model cache keyed by engine configuration and
/// graph fingerprint.
///
/// Replicated MVX panels prepare the same `(config, graph)` pair once
/// and share the compiled model (prepared models take `&self` and are
/// `Send + Sync`, so sharing is free); diversified panels miss on their
/// differing configs and coexist. Engines carrying a custom BLAS (the
/// fault-injection path) bypass the cache entirely — a corrupted
/// backend must never leak into a healthy variant.
#[derive(Default)]
pub struct EngineCache {
    map: Mutex<HashMap<(EngineConfig, u64), Arc<dyn PreparedModel>>>,
}

impl std::fmt::Debug for EngineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCache").field("entries", &self.len()).finish()
    }
}

impl EngineCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        crate::pool::register_runtime_metrics();
        EngineCache::default()
    }

    /// Prepares `graph` on `engine`, returning the cached model when the
    /// same configuration already compiled an identical graph.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::prepare`] failures.
    pub fn prepare(&self, engine: &Engine, graph: &Graph) -> Result<Arc<dyn PreparedModel>> {
        if engine.has_custom_blas() {
            // Never cache (or serve) models built on an externally
            // supplied backend.
            return Ok(Arc::from(engine.prepare(graph)?));
        }
        let key = (engine.config().clone(), graph_fingerprint(graph));
        if let Some(hit) = self.map.lock().expect("cache lock").get(&key) {
            mvtee_telemetry::counter("runtime.cache.prepare_hits").inc();
            return Ok(Arc::clone(hit));
        }
        mvtee_telemetry::counter("runtime.cache.prepare_misses").inc();
        let prepared: Arc<dyn PreparedModel> = Arc::from(engine.prepare(graph)?);
        let mut map = self.map.lock().expect("cache lock");
        // A racing variant may have inserted meanwhile; both models are
        // behaviourally identical, keep the first.
        Ok(Arc::clone(map.entry(key).or_insert(prepared)))
    }

    /// Number of cached prepared models.
    pub fn len(&self) -> usize {
        self.map.lock().map(|m| m.len()).unwrap_or(0)
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached model.
    pub fn clear(&self) {
        if let Ok(mut m) = self.map.lock() {
            m.clear();
        }
    }

    /// Whether any engine configuration holds a prepared model for the
    /// graph with this fingerprint (a "warm" model in registry terms).
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.map
            .lock()
            .map(|m| m.keys().any(|(_, fp)| *fp == fingerprint))
            .unwrap_or(false)
    }

    /// Evicts every prepared model compiled from the graph with this
    /// fingerprint, across all engine configurations, returning how many
    /// entries were dropped. The model registry's capacity LRU calls this
    /// so in-memory engines never outlive their sealed bundle.
    pub fn evict(&self, fingerprint: u64) -> usize {
        let Ok(mut m) = self.map.lock() else { return 0 };
        let before = m.len();
        m.retain(|(_, fp), _| *fp != fingerprint);
        before - m.len()
    }
}

/// The process-wide session cache the variant hosts prepare through.
pub fn session_cache() -> &'static EngineCache {
    static CACHE: OnceLock<EngineCache> = OnceLock::new();
    CACHE.get_or_init(EngineCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use crate::pool::RuntimeConfig;
    use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};

    #[test]
    fn arena_recycles_buffers() {
        let arena = ScratchArena::new();
        let before = mvtee_telemetry::counter("runtime.cache.arena_bytes_reused").get();
        let mut a = arena.take(1024);
        a[0] = 7.0;
        arena.give(a);
        assert_eq!(arena.retained(), 1);
        let b = arena.take(512); // fits in the retained 1024-cap buffer
        assert_eq!(b.len(), 512);
        assert!(b.iter().all(|&v| v == 0.0), "recycled buffer must be zeroed");
        let after = mvtee_telemetry::counter("runtime.cache.arena_bytes_reused").get();
        assert_eq!(after - before, 512 * 4);
    }

    #[test]
    fn arena_drops_tiny_buffers() {
        let arena = ScratchArena::new();
        arena.give(vec![0.0; 8]);
        assert_eq!(arena.retained(), 0);
    }

    #[test]
    fn packed_gemm_panels_match_the_transpose() {
        let w = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[3, 2]).unwrap();
        let pool = ThreadPool::new(RuntimeConfig::default());
        let p = PackedGemm::pack(&w, &pool);
        assert_eq!((p.m, p.k), (3, 2));
        // wt is the [k, m] transpose.
        assert_eq!(p.wt, vec![0.0, 2.0, 4.0, 1.0, 3.0, 5.0]);
        // Panels tile wt's columns exactly.
        assert_eq!(p.panels.len(), pool.chunk_ranges(3).len());
        for (&(s, e), panel) in pool.chunk_ranges(3).iter().zip(&p.panels) {
            for i in 0..p.k {
                assert_eq!(
                    &panel[i * (e - s)..(i + 1) * (e - s)],
                    &p.wt[i * p.m + s..i * p.m + e]
                );
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_weights_and_is_stable() {
        let a = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let b = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let c = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 5).unwrap();
        assert_eq!(graph_fingerprint(&a.graph), graph_fingerprint(&b.graph));
        assert_ne!(graph_fingerprint(&a.graph), graph_fingerprint(&c.graph));
    }

    #[test]
    fn cache_hits_on_identical_config_and_misses_across_configs() {
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let cache = EngineCache::new();
        let ort = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike));
        let first = cache.prepare(&ort, &m.graph).unwrap();
        let second = cache.prepare(&ort, &m.graph).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "identical config must share the model");
        assert_eq!(cache.len(), 1);
        let tvm = Engine::new(EngineConfig::of_kind(EngineKind::TvmLike));
        let third = cache.prepare(&tvm, &m.graph).unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn evict_drops_every_config_for_one_graph_only() {
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let other = zoo::build(ModelKind::ResNet50, ScaleProfile::Test, 4).unwrap();
        let cache = EngineCache::new();
        let ort = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike));
        let tvm = Engine::new(EngineConfig::of_kind(EngineKind::TvmLike));
        cache.prepare(&ort, &m.graph).unwrap();
        cache.prepare(&tvm, &m.graph).unwrap();
        cache.prepare(&ort, &other.graph).unwrap();
        let fp = graph_fingerprint(&m.graph);
        assert!(cache.contains(fp));
        assert_eq!(cache.evict(fp), 2, "both configs of the evicted graph must go");
        assert!(!cache.contains(fp));
        assert!(cache.contains(graph_fingerprint(&other.graph)), "other graphs stay");
        assert_eq!(cache.evict(fp), 0);
    }

    #[test]
    fn custom_blas_engines_bypass_the_cache() {
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let cache = EngineCache::new();
        let cfg = EngineConfig::of_kind(EngineKind::OrtLike);
        let custom = Engine::with_custom_blas(cfg.clone(), cfg.blas.instantiate());
        let a = cache.prepare(&custom, &m.graph).unwrap();
        let b = cache.prepare(&custom, &m.graph).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "custom-BLAS models must not be shared");
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_and_fresh_models_agree_exactly(){
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let input = Tensor::ones(m.input_shape.dims());
        let engine = Engine::new(EngineConfig::of_kind(EngineKind::TvmLike));
        let fresh = engine.prepare(&m.graph).unwrap();
        let cached = session_cache().prepare(&engine, &m.graph).unwrap();
        let a = fresh.run(std::slice::from_ref(&input)).unwrap();
        let b = cached.run(std::slice::from_ref(&input)).unwrap();
        assert_eq!(a, b);
        // The Box adapter serves the same outputs.
        let boxed: Box<dyn PreparedModel> = Box::new(SharedModel(cached));
        assert_eq!(boxed.run(std::slice::from_ref(&input)).unwrap(), a);
        assert!(boxed.describe().contains("tvm-like"));
    }
}
