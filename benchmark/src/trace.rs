//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded only here in the benchmark, around calls into a
//! layer's public functions; a span's name starts with its layer
//! (`linalg.leaf_qr`, `gridmpi.run`). The main thread keeps a stack of
//! open spans, so nesting gives each span its parent; the one
//! multi-threaded source (the `local_block` closure the rank threads call)
//! records finished spans under an explicit parent through
//! [`Tracer::record`]. With tracing off every call is a plain function
//! call and nothing is stored.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use tsqr_obs::json::Json;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Timed sample this span belongs to (`None` = set-up or probe).
    pub sample: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    sample: Option<usize>,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Tags the spans that follow with a sample index (or none).
    pub fn set_sample(&self, sample: Option<usize>) {
        if self.on {
            self.lock().sample = sample;
        }
    }

    /// Runs `f` inside a span named `name`, nested under whatever span the
    /// main thread has open. Main thread only.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut st = self.lock();
            let id = st.spans.len();
            let (parent, sample) = (st.open.last().copied(), st.sample);
            st.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
                sample,
            });
            st.open.push(id);
            id
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let mut st = self.lock();
        st.spans[id].start_ns = self.ns(start);
        st.spans[id].end_ns = self.ns(end);
        st.open.pop();
        out
    }

    /// The innermost span the main thread has open — the parent to hand
    /// to [`Tracer::record`] from other threads.
    pub fn current(&self) -> Option<usize> {
        if self.on {
            self.lock().open.last().copied()
        } else {
            None
        }
    }

    /// Stores a finished span measured on any thread.
    pub fn record(&self, name: &str, start: Instant, end: Instant, parent: Option<usize>) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut st = self.lock();
        let sample = st.sample;
        st.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            sample,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut sum, mut reach) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            sum += e - s;
            reach = e;
        }
    }
    sum
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children may overlap each other — the rank
/// threads run concurrently — so the union is taken, not the sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Count, total and self time per span name, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Summed duration of the spans called `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum::<u64>() as f64
        * 1e-9
}

/// Number of spans recorded in `layer`.
pub fn layer_spans(spans: &[Span], layer: &str) -> usize {
    spans.iter().filter(|s| s.layer() == layer).count()
}

fn opt_num(v: Option<usize>) -> Json {
    v.map_or(Json::Null, |i| Json::Num(i as f64))
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(BTreeMap::from([
                    ("name".to_string(), Json::Str(s.name.clone())),
                    ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    ("parent".to_string(), opt_num(s.parent)),
                    ("sample".to_string(), opt_num(s.sample)),
                ]))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_from_json(json: &Json) -> Result<Vec<Span>, String> {
        let index = |v: Option<&Json>| match v {
            Some(Json::Num(x)) => Ok(Some(*x as usize)),
            Some(Json::Null) | None => Ok(None),
            Some(other) => Err(format!("span index is not a number: {other:?}")),
        };
        json.as_arr()
            .ok_or("spans is not an array")?
            .iter()
            .map(|s| {
                let num = |k: &str| {
                    s.get(k)
                        .and_then(Json::as_num)
                        .ok_or(format!("span lacks number `{k}`"))
                };
                Ok(Span {
                    name: s
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("span lacks `name`")?
                        .to_string(),
                    start_ns: num("start_ns")? as u64,
                    end_ns: num("end_ns")? as u64,
                    parent: index(s.get("parent"))?,
                    sample: index(s.get("sample"))?,
                })
            })
            .collect()
    }

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            sample: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("core.sample", 0, 100, None),
            span("gridmpi.run", 10, 90, Some(0)), // nested in 0
            span("linalg.leaf", 20, 40, Some(1)), // nested in 1
            span("linalg.combine", 50, 60, Some(1)), // sibling of 2
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 20, 10]);
    }

    #[test]
    fn overlapping_children_cover_their_union_once() {
        // Two rank threads generating blocks at the same time.
        let spans = vec![
            span("gridmpi.run", 0, 100, None),
            span("core.block_gen_inrun", 10, 50, Some(0)),
            span("core.block_gen_inrun", 30, 70, Some(0)),
            span("core.block_gen_inrun", 90, 130, Some(0)), // clipped at the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        let t = totals_by_name(&spans);
        assert_eq!(t["core.block_gen_inrun"].count, 3);
        assert_eq!(t["core.block_gen_inrun"].total_ns, 120);
    }

    #[test]
    fn tracer_nests_spans_and_is_inert_when_off() {
        let tr = Tracer::new(true);
        tr.span("core.outer", || {
            let parent = tr.current();
            tr.span("linalg.inner", || ());
            let now = Instant::now();
            tr.record("core.block_gen_inrun", now, now, parent);
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(layer_spans(&spans, "core"), 2);
        assert_eq!(layer_spans(&spans, "serve"), 0);

        let off = Tracer::new(false);
        assert_eq!(off.span("core.outer", || 7), 7);
        assert_eq!(off.current(), None);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_json_parses_back_to_the_same_spans() {
        let mut spans = vec![
            span("serve.serve", 5, 1_234_567_890_123, None),
            span("qcg.allocate", 7, 9, Some(0)),
        ];
        spans[1].sample = Some(3);
        let text = spans_to_json(&spans).render();
        let back = spans_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spans);
    }
}
