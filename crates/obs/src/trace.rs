//! Structured span recording with per-thread buffers and Chrome trace
//! export.
//!
//! A [`Recorder`] is a cheap cloneable handle. When disabled (the
//! default everywhere) every operation is a no-op behind a single
//! `Option` check, so instrumented hot paths stay bit-identical and pay
//! effectively nothing. When enabled, each participating thread obtains
//! a [`ThreadLog`] — an owned, lock-free ring buffer of finished spans —
//! and records `(span_id, parent, name, t_start, t_end, thread, kv)`
//! tuples without synchronization. The only locking happens once per
//! thread, when a dropped `ThreadLog` retires its buffer into the
//! recorder, and once at [`Recorder::drain`].
//!
//! The drained [`Trace`] exports Chrome trace-event JSON (loadable in
//! Perfetto or `chrome://tracing`) and per-phase aggregate timings.

use em_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-thread span capacity; the oldest spans are overwritten
/// once a thread exceeds it (and counted in [`Trace::dropped`]).
pub const DEFAULT_THREAD_CAPACITY: usize = 1 << 16;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique id, > 0 (0 means "no parent").
    pub id: u64,
    /// Enclosing span id, or 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Recorder-assigned thread index.
    pub thread: u64,
    /// Start time in microseconds since the recorder was created.
    pub t_start_us: f64,
    /// End time in microseconds since the recorder was created.
    pub t_end_us: f64,
    pub kv: Vec<(&'static str, String)>,
}

struct ThreadBuf {
    tid: u64,
    spans: Vec<SpanRecord>,
    dropped: u64,
}

struct Inner {
    t0: Instant,
    next_id: AtomicU64,
    /// Registered thread names; a name's index is its tid, so repeated
    /// `thread("mwd g0.1", ..)` calls (one per engine invocation) share
    /// one timeline row in the exported trace.
    names: Mutex<Vec<String>>,
    cap: usize,
    retired: Mutex<Vec<ThreadBuf>>,
}

/// Shared recording handle; see the module docs.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// A recorder that records nothing; all operations are no-ops.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An active recorder with the default per-thread capacity.
    pub fn enabled() -> Self {
        Recorder::with_capacity(DEFAULT_THREAD_CAPACITY)
    }

    pub fn with_capacity(cap: usize) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                t0: Instant::now(),
                next_id: AtomicU64::new(1),
                names: Mutex::new(Vec::new()),
                cap: cap.max(1),
                retired: Mutex::new(Vec::new()),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register this thread and get its local span buffer. Spans started
    /// on the returned log nest under `ambient_parent` (pass 0 for root
    /// spans) until an enclosing local span is open. Logs sharing a name
    /// share one trace timeline (stable tid) across invocations.
    pub fn thread(&self, name: &str, ambient_parent: u64) -> ThreadLog {
        match &self.inner {
            None => ThreadLog { active: None },
            Some(inner) => {
                let tid = {
                    let mut names = inner.names.lock().expect("recorder lock");
                    match names.iter().position(|n| n == name) {
                        Some(i) => i as u64,
                        None => {
                            names.push(name.to_string());
                            (names.len() - 1) as u64
                        }
                    }
                };
                ThreadLog {
                    active: Some(ActiveLog {
                        inner: inner.clone(),
                        tid,
                        spans: Vec::new(),
                        write: 0,
                        dropped: 0,
                        stack: vec![ambient_parent],
                    }),
                }
            }
        }
    }

    /// Collect every retired thread buffer into a [`Trace`]. Only spans
    /// from already-dropped `ThreadLog`s are visible; drop (or scope)
    /// all thread logs before draining.
    pub fn drain(&self) -> Trace {
        let mut trace = Trace::default();
        if let Some(inner) = &self.inner {
            {
                let names = inner.names.lock().expect("recorder lock");
                trace.threads = names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (i as u64, n.clone()))
                    .collect();
            }
            let mut retired = inner.retired.lock().expect("recorder lock");
            let mut bufs: Vec<ThreadBuf> = std::mem::take(&mut *retired);
            bufs.sort_by_key(|b| b.tid);
            for buf in bufs {
                trace.dropped += buf.dropped;
                trace.spans.extend(buf.spans);
            }
        }
        trace
    }
}

/// A span that has been started but not yet ended.
#[must_use = "end the span with ThreadLog::end or it will not be recorded"]
pub struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    t_start_us: f64,
}

impl OpenSpan {
    /// The span id (0 when recording is disabled) — pass as
    /// `ambient_parent` to nest spans of spawned threads under this one.
    pub fn id(&self) -> u64 {
        self.id
    }
}

struct ActiveLog {
    inner: Arc<Inner>,
    tid: u64,
    spans: Vec<SpanRecord>,
    /// Total records written (ring index = write % cap once full).
    write: usize,
    dropped: u64,
    /// stack[0] is the ambient parent; the rest are open local spans.
    stack: Vec<u64>,
}

/// Per-thread span buffer. Obtain via [`Recorder::thread`]; recording is
/// lock-free, and the buffer retires into the recorder on drop.
pub struct ThreadLog {
    active: Option<ActiveLog>,
}

impl ThreadLog {
    /// Start a span nested under the innermost open span (or the
    /// ambient parent).
    pub fn start(&mut self, name: &'static str) -> OpenSpan {
        match &mut self.active {
            None => OpenSpan {
                id: 0,
                parent: 0,
                name,
                t_start_us: 0.0,
            },
            Some(log) => {
                let id = log.inner.next_id.fetch_add(1, Ordering::Relaxed);
                let parent = *log.stack.last().expect("ambient parent always present");
                log.stack.push(id);
                OpenSpan {
                    id,
                    parent,
                    name,
                    t_start_us: log.now_us(),
                }
            }
        }
    }

    /// End a span with no attributes.
    pub fn end(&mut self, span: OpenSpan) {
        self.end_kv(span, Vec::new());
    }

    /// End a span, attaching `(key, value)` attributes.
    pub fn end_kv(&mut self, span: OpenSpan, kv: Vec<(&'static str, String)>) {
        if let Some(log) = &mut self.active {
            let t_end_us = log.now_us();
            // Tolerate out-of-order ends: close everything above it too.
            while let Some(&top) = log.stack.last() {
                if top == span.id || log.stack.len() == 1 {
                    break;
                }
                log.stack.pop();
            }
            if log.stack.len() > 1 {
                log.stack.pop();
            }
            log.push(SpanRecord {
                id: span.id,
                parent: span.parent,
                name: span.name,
                thread: log.tid,
                t_start_us: span.t_start_us,
                t_end_us,
                kv,
            });
        }
    }
}

impl ActiveLog {
    fn now_us(&self) -> f64 {
        self.inner.t0.elapsed().as_secs_f64() * 1e6
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.spans.len() < self.inner.cap {
            self.spans.push(rec);
        } else {
            self.spans[self.write % self.inner.cap] = rec;
            self.dropped += 1;
        }
        self.write += 1;
    }
}

impl Drop for ThreadLog {
    fn drop(&mut self) {
        if let Some(mut log) = self.active.take() {
            // Un-rotate the ring so spans come out oldest-first.
            if log.dropped > 0 {
                let pivot = log.write % log.inner.cap;
                log.spans.rotate_left(pivot);
            }
            let buf = ThreadBuf {
                tid: log.tid,
                spans: std::mem::take(&mut log.spans),
                dropped: log.dropped,
            };
            log.inner.retired.lock().expect("recorder lock").push(buf);
        }
    }
}

/// Aggregate duration of all spans sharing a name.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_us: f64,
}

/// Drained span data; see [`Recorder::drain`].
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<SpanRecord>,
    /// `(tid, name)` for every registered thread, sorted by tid.
    pub threads: Vec<(u64, String)>,
    /// Spans lost to ring-buffer overwrites.
    pub dropped: u64,
}

impl Trace {
    /// Sum span durations by name, sorted by name for stable output.
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        let mut totals: Vec<PhaseTotal> = Vec::new();
        for s in &self.spans {
            let dur = s.t_end_us - s.t_start_us;
            match totals.iter_mut().find(|t| t.name == s.name) {
                Some(t) => {
                    t.count += 1;
                    t.total_us += dur;
                }
                None => totals.push(PhaseTotal {
                    name: s.name,
                    count: 1,
                    total_us: dur,
                }),
            }
        }
        totals.sort_by_key(|t| t.name);
        totals
    }

    /// Chrome trace-event JSON (the object form, loadable in Perfetto).
    pub fn to_chrome_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::with_capacity(self.spans.len() + self.threads.len());
        for (tid, name) in &self.threads {
            events.push(Json::obj(vec![
                ("ph", Json::Str("M".into())),
                ("name", Json::Str("thread_name".into())),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(*tid as i64)),
                ("args", Json::obj(vec![("name", Json::Str(name.clone()))])),
            ]));
        }
        for s in &self.spans {
            let mut args: Vec<(&str, Json)> = vec![
                ("span_id", Json::Int(s.id as i64)),
                ("parent", Json::Int(s.parent as i64)),
            ];
            for (k, v) in &s.kv {
                args.push((k, Json::Str(v.clone())));
            }
            events.push(Json::obj(vec![
                ("ph", Json::Str("X".into())),
                ("name", Json::Str(s.name.into())),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(s.thread as i64)),
                ("ts", Json::Num(s.t_start_us)),
                ("dur", Json::Num(s.t_end_us - s.t_start_us)),
                ("args", Json::obj(args)),
            ]));
        }
        Json::obj(vec![
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    /// Write the Chrome trace JSON to `path` (pretty-printed).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_chrome_json().pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        let mut tl = rec.thread("t", 0);
        let s = tl.start("work");
        assert_eq!(s.id(), 0);
        tl.end(s);
        drop(tl);
        let trace = rec.drain();
        assert!(trace.spans.is_empty() && trace.threads.is_empty());
    }

    #[test]
    fn spans_nest_and_parent_links_hold() {
        let rec = Recorder::enabled();
        let mut tl = rec.thread("worker", 0);
        let outer = tl.start("outer");
        let outer_id = outer.id();
        let inner = tl.start("inner");
        tl.end_kv(inner, vec![("tile", "3".into())]);
        tl.end(outer);
        drop(tl);
        let trace = rec.drain();
        assert_eq!(trace.spans.len(), 2);
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer_id);
        assert_eq!(outer.parent, 0);
        assert!(outer.t_start_us <= inner.t_start_us);
        assert!(inner.t_end_us <= outer.t_end_us);
        assert_eq!(inner.kv, vec![("tile", "3".to_string())]);
        assert_eq!(trace.threads, vec![(0, "worker".to_string())]);
    }

    #[test]
    fn ambient_parent_crosses_threads() {
        let rec = Recorder::enabled();
        let mut main = rec.thread("main", 0);
        let job = main.start("job");
        let job_id = job.id();
        std::thread::scope(|scope| {
            let rec = &rec;
            scope.spawn(move || {
                let mut tl = rec.thread("group", job_id);
                let s = tl.start("tile");
                tl.end(s);
            });
        });
        main.end(job);
        drop(main);
        let trace = rec.drain();
        let tile = trace.spans.iter().find(|s| s.name == "tile").unwrap();
        assert_eq!(tile.parent, job_id);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let rec = Recorder::with_capacity(4);
        let mut tl = rec.thread("t", 0);
        for _ in 0..7 {
            let s = tl.start("op");
            tl.end(s);
        }
        drop(tl);
        let trace = rec.drain();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.dropped, 3);
        // Oldest-first order survives the rotation.
        for w in trace.spans.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn chrome_export_is_valid_and_roundtrips() {
        let rec = Recorder::enabled();
        let mut tl = rec.thread("w0", 0);
        let s = tl.start("phase");
        tl.end(s);
        drop(tl);
        let trace = rec.drain();
        let json = trace.to_chrome_json();
        let text = json.pretty();
        let parsed = em_json::parse(&text).expect("chrome trace parses");
        let events = parsed.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2); // thread_name metadata + one span
        let totals = trace.phase_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].name, "phase");
        assert_eq!(totals[0].count, 1);
    }
}
