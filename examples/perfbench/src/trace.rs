//! In-memory spans recorded around the benchmark's calls into each layer,
//! and the wrappers that record them inside Algorithm 1's parallel loop.
//!
//! A span is `(name, start, end, parent, request)`. The parent is the span
//! open on the same thread when the span started, so a corruption that
//! calls the black box records the model call as its child, and the
//! corruption's self time excludes it. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end of the run.

use lvp_corruptions::ErrorGen;
use lvp_dataframe::DataFrame;
use lvp_linalg::DenseMatrix;
use lvp_models::{BlackBoxModel, ModelError};
use rand::rngs::StdRng;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

impl Span {
    fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    /// Index of the span currently open on this thread.
    static OPEN: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Duration and self time (duration minus the children's durations) of
/// every span with one name, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub duration_s: f64,
    pub self_s: f64,
}

/// A span recorder shared by every thread of one run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span recorder thread panicked")
    }

    /// Runs `f` inside a span named `name`, returning its result and the
    /// span's duration in seconds.
    pub fn timed<R>(
        &self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let parent = OPEN.with(Cell::get);
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.set(Some(id)));
        let result = f();
        OPEN.with(|open| open.set(parent));
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
        (result, end_ns.saturating_sub(start_ns) as f64 * 1e-9)
    }

    /// [`Self::timed`] without the duration.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(name, None, f).0
    }

    /// Number of spans recorded so far; pass it to [`Self::totals_since`]
    /// to aggregate only what was recorded after this point.
    pub fn mark(&self) -> usize {
        self.lock().len()
    }

    /// Per-name totals of the spans recorded since `mark`.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, Totals> {
        let spans = self.lock();
        let mut child_s = vec![0.0; spans.len()];
        for span in &spans[mark..] {
            if let Some(parent) = span.parent {
                child_s[parent] += span.seconds();
            }
        }
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate().skip(mark) {
            let t = totals.entry(span.name).or_default();
            t.duration_s += span.seconds();
            t.self_s += span.seconds() - child_s[i];
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.lock().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

/// A black box that records a `models.predict_proba` span per call and
/// counts the calls and the rows it scored. Outputs are the inner model's.
pub struct TimedModel {
    inner: Arc<dyn BlackBoxModel>,
    tracer: Arc<Tracer>,
    pub calls: AtomicU64,
    pub rows: AtomicU64,
}

impl TimedModel {
    pub fn new(inner: Arc<dyn BlackBoxModel>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        }
    }

    fn count(&self, data: &DataFrame) {
        // Statistics only; they publish no other data.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(data.n_rows() as u64, Ordering::Relaxed);
    }
}

impl BlackBoxModel for TimedModel {
    fn predict_proba(&self, data: &DataFrame) -> DenseMatrix {
        self.count(data);
        self.tracer
            .span("models.predict_proba", || self.inner.predict_proba(data))
    }

    fn try_predict_proba(&self, data: &DataFrame) -> Result<DenseMatrix, ModelError> {
        self.count(data);
        self.tracer.span("models.predict_proba", || {
            self.inner.try_predict_proba(data)
        })
    }

    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// An error generator that records a `corruptions.corrupt` span per call.
pub struct TimedGen {
    inner: Box<dyn ErrorGen>,
    tracer: Arc<Tracer>,
}

impl TimedGen {
    /// Wraps every generator of `suite`.
    pub fn wrap_all(suite: Vec<Box<dyn ErrorGen>>, tracer: &Arc<Tracer>) -> Vec<Box<dyn ErrorGen>> {
        suite
            .into_iter()
            .map(|inner| {
                Box::new(TimedGen {
                    inner,
                    tracer: Arc::clone(tracer),
                }) as Box<dyn ErrorGen>
            })
            .collect()
    }
}

impl ErrorGen for TimedGen {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn touched_columns(&self, df: &DataFrame) -> Vec<usize> {
        self.inner.touched_columns(df)
    }

    fn corrupt(&self, df: &DataFrame, rng: &mut StdRng) -> DataFrame {
        self.tracer
            .span("corruptions.corrupt", || self.inner.corrupt(df, rng))
    }

    fn corrupt_with_model(
        &self,
        df: &DataFrame,
        model: Option<&dyn BlackBoxModel>,
        rng: &mut StdRng,
    ) -> DataFrame {
        self.tracer.span("corruptions.corrupt", || {
            self.inner.corrupt_with_model(df, model, rng)
        })
    }
}
