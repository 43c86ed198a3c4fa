//! In-memory span recorder and the pass-through [`SpanStore`].
//!
//! Spans are opened by the ledger's own files around calls into a layer's
//! public functions; nothing inside the product is instrumented. They are
//! kept in memory and written once, when the run ends. The end-to-end pass
//! never enables the recorder and never installs a [`SpanStore`].
//!
//! A layer's **self time** is its span minus the child spans it encloses:
//! with a `SpanStore` between every wrapper of a store stack, the journal's
//! self time is its `put` span minus the compressing store's `put` span it
//! called, and so on down.

use mana_core::image::ImageBytes;
use mana_core::{CheckpointStore, StoreError};
use mana_sim::fs::IoShape;
use mana_sim::time::SimDuration;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within a run, in opening order.
    pub id: u32,
    /// The span open on the same OS thread when this one opened.
    pub parent: Option<u32>,
    /// Repetition the span belongs to (0 = set-up and warm-up).
    pub rep: u32,
    /// Workload-defined label of the step inside the repetition (the store
    /// workloads put the epoch's dirty percentage here).
    pub tag: u32,
    /// Module the call went into (`store.delta`, `sim.memory`, ...).
    pub layer: &'static str,
    /// What was called (`put`, `get`, `snapshot`, ...).
    pub op: &'static str,
    /// Host nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was enabled.
    pub end_ns: u64,
    /// Wire bytes handed to the call.
    pub bytes_in: u64,
    /// Wire bytes the call returned.
    pub bytes_out: u64,
    /// Logical (modeled) length the call was charged for.
    pub logical: u64,
    /// Simulated duration the call reported.
    pub sim_ns: u64,
    /// OS threads alive in the process, sampled by `begin_epoch` spans only
    /// (a checkpoint round starts with every rank and helper thread alive).
    pub os_threads: u64,
}

impl Span {
    /// Host duration, ns.
    pub fn host_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static CURRENT_REP: AtomicU32 = AtomicU32::new(0);
static CURRENT_TAG: AtomicU32 = AtomicU32::new(0);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

thread_local! {
    /// Spans open on this OS thread, innermost last. Simulated threads are
    /// OS threads, so nested `SpanStore` calls on one of them parent
    /// correctly without any help from the product.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> std::sync::MutexGuard<'static, Option<Recorder>> {
    // A panicking simulated thread never holds this lock across its panic.
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Start recording (the traced pass calls this once, before set-up).
pub fn enable() {
    *recorder() = Some(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag every span opened from now on with repetition `rep`.
pub fn set_rep(rep: u32) {
    CURRENT_REP.store(rep, Ordering::SeqCst);
}

/// Tag every span opened from now on with the step label `tag`.
pub fn set_tag(tag: u32) {
    CURRENT_TAG.store(tag, Ordering::SeqCst);
}

/// Stop recording and hand back every span, in opening order.
pub fn take() -> Vec<Span> {
    ENABLED.store(false, Ordering::SeqCst);
    let mut spans = recorder().take().map(|r| r.spans).unwrap_or_default();
    spans.sort_by_key(|s| s.id);
    spans
}

/// An open span; closes (and is recorded) when dropped.
pub struct Guard {
    open: Option<(Span, Instant)>,
}

/// Open a span around a call into `layer`. A no-op unless [`enable`] ran.
pub fn open(layer: &'static str, op: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let Some(epoch) = recorder().as_ref().map(|r| r.epoch) else {
        return Guard { open: None };
    };
    let id = NEXT_ID.fetch_add(1, Ordering::SeqCst);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied();
        o.push(id);
        parent
    });
    let now = Instant::now();
    Guard {
        open: Some((
            Span {
                id,
                parent,
                rep: CURRENT_REP.load(Ordering::SeqCst),
                tag: CURRENT_TAG.load(Ordering::SeqCst),
                layer,
                op,
                start_ns: now.duration_since(epoch).as_nanos() as u64,
                end_ns: 0,
                bytes_in: 0,
                bytes_out: 0,
                logical: 0,
                sim_ns: 0,
                os_threads: 0,
            },
            now,
        )),
    }
}

impl Guard {
    /// Record what went into the call.
    pub fn input(&mut self, bytes_in: u64, logical: u64) {
        if let Some((s, _)) = &mut self.open {
            s.bytes_in = bytes_in;
            s.logical = logical;
        }
    }

    /// Record what came back.
    pub fn output(&mut self, bytes_out: u64, sim: SimDuration) {
        if let Some((s, _)) = &mut self.open {
            s.bytes_out = bytes_out;
            s.sim_ns = sim.as_nanos();
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((mut span, started)) = self.open.take() else {
            return;
        };
        span.end_ns = span.start_ns + started.elapsed().as_nanos() as u64;
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(at) = o.iter().rposition(|id| *id == span.id) {
                o.remove(at);
            }
        });
        if let Some(r) = recorder().as_mut() {
            r.spans.push(span);
        }
    }
}

/// What each span adds on top of the spans it directly encloses, for any
/// per-span quantity: with [`Span::host_ns`] this is a layer's host self
/// time, with `sim_ns` the modeled time the layer adds to what the layer it
/// calls reported.
pub fn self_share(spans: &[Span], of: impl Fn(&Span) -> u64) -> BTreeMap<u32, u64> {
    let mut own: BTreeMap<u32, u64> = spans.iter().map(|s| (s.id, of(s))).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| own.get_mut(&p)) {
            *p = p.saturating_sub(of(s));
        }
    }
    own
}

/// Write one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"rep\":{},\"tag\":{},\"layer\":\"{}\",\"op\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"bytes_in\":{},\"bytes_out\":{},\"logical\":{},\
             \"sim_ns\":{},\"os_threads\":{}}}",
            s.id,
            s.rep,
            s.tag,
            s.layer,
            s.op,
            s.start_ns,
            s.end_ns,
            s.bytes_in,
            s.bytes_out,
            s.logical,
            s.sim_ns,
            s.os_threads
        )?;
    }
    out.flush()
}

/// Pass-through [`CheckpointStore`] that records one span per `put`, `get`
/// and `begin_epoch`, with the bytes that crossed it and the simulated
/// duration the inner store reported. It changes neither contents nor
/// modeled time.
pub struct SpanStore<S> {
    layer: &'static str,
    inner: S,
}

impl<S: CheckpointStore> SpanStore<S> {
    /// Record calls into `inner` under the layer name `layer`.
    pub fn new(layer: &'static str, inner: S) -> SpanStore<S> {
        SpanStore { layer, inner }
    }
}

impl<S: CheckpointStore> CheckpointStore for SpanStore<S> {
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration {
        let mut span = open(self.layer, "put");
        span.input(data.len() as u64, logical_len);
        let sim = self.inner.put(path, data, logical_len, rank, shape);
        span.output(0, sim);
        sim
    }

    fn get(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError> {
        let mut span = open(self.layer, "get");
        let got = self.inner.get(path, rank, shape);
        if let Ok((data, sim)) = &got {
            span.output(data.len() as u64, *sim);
        }
        got
    }

    fn begin_epoch(&self) {
        let mut span = open(self.layer, "begin_epoch");
        if let Some((s, _)) = &mut span.open {
            s.os_threads = crate::host::os_threads().unwrap_or(0);
        }
        self.inner.begin_epoch();
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn logical_len(&self, path: &str) -> Result<u64, StoreError> {
        self.inner.logical_len(path)
    }

    fn remove(&self, path: &str) -> bool {
        self.inner.remove(path)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}
