//! Spans recorded by the harness around the calls it makes into the
//! crates. They are kept in memory and written out when the workload
//! ends; with tracing off a [`Tracer`] only times.

use sph_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Shared by every span of one served job.
    pub job: Option<String>,
    /// Thread of the harness that recorded it (0 = main, 1.. = clients).
    pub tid: u32,
}

/// A span that has begun and not yet ended.
pub struct Open {
    index: Option<usize>,
    at: Instant,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, tid: u32) -> Tracer {
        Tracer { origin, enabled, tid, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn begin(&mut self, name: &str) -> Open {
        self.begin_job(name, None)
    }

    /// Begin a span that belongs to served job `job`; spans begun inside
    /// it inherit the id.
    pub fn begin_job(&mut self, name: &str, job: Option<&str>) -> Open {
        let at = Instant::now();
        if !self.enabled {
            return Open { index: None, at };
        }
        let parent = self.stack.last().copied();
        let job =
            job.map(str::to_string).or_else(|| parent.and_then(|p| self.spans[p].job.clone()));
        let start = at.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            job,
            tid: self.tid,
        });
        let index = self.spans.len() - 1;
        self.stack.push(index);
        Open { index: Some(index), at }
    }

    /// End `open` (the innermost open span) and return its duration in
    /// seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let elapsed = open.at.elapsed().as_secs_f64();
        if let Some(index) = open.index {
            let top = self.stack.pop();
            assert_eq!(top, Some(index), "spans must end innermost first");
            self.spans[index].end = self.spans[index].start + elapsed;
        }
        elapsed
    }

    /// Time `f` under a span; returns its value and its duration.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let value = f();
        (value, self.end(open))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Join the span lists of several threads into one, keeping parent
/// links valid.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Per span name: how many there were, and their total self time — a
/// span's duration minus the part of it its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, f64)> {
    let mut covered = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        let entry = out.entry(s.name.clone()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += (s.end - s.start - c).max(0.0);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, with the span's own index, parent, start and end in
/// `args` so nothing has to be inferred from nesting.
pub fn chrome_json(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![
                ("span", Value::Num(i as f64)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                ("start", Value::Num(s.start)),
                ("end", Value::Num(s.end)),
            ];
            if let Some(job) = &s.job {
                args.push(("job", Value::str(job)));
            }
            Value::obj(vec![
                ("name", Value::str(&s.name)),
                ("ph", Value::str("X")),
                ("ts", Value::Num(s.start * 1e6)),
                ("dur", Value::Num((s.end - s.start) * 1e6)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(f64::from(s.tid))),
                ("args", Value::obj(args)),
            ])
        })
        .collect();
    Value::obj(vec![("traceEvents", Value::Arr(events)), ("displayTimeUnit", Value::str("ms"))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start, end, parent, job: None, tid: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("step", 0.0, 10.0, None),
            span("density", 1.0, 4.0, Some(0)),
            span("gather", 1.5, 2.5, Some(1)),
            span("forces", 5.0, 9.0, Some(0)),
            span("step", 10.0, 12.0, None),
        ];
        let st = self_times(&spans);
        // step: (10 − 3 − 4) + 2; density: 3 − 1; the grandchild is
        // subtracted from its parent only.
        assert_eq!(st["step"], (2, 5.0));
        assert_eq!(st["density"], (1, 2.0));
        assert_eq!(st["gather"], (1, 1.0));
        assert_eq!(st["forces"], (1, 4.0));
        let total: f64 = st.values().map(|v| v.1).sum();
        assert!((total - 12.0).abs() < 1e-12, "self times add up to the covered wall time");
    }

    #[test]
    fn tracer_nests_and_inherits_the_job_id() {
        let mut tr = Tracer::new(true, Instant::now(), 3);
        let job = tr.begin_job("cold_job", Some("abc"));
        let (v, dt) = tr.span("POST /jobs", || 7);
        assert_eq!(v, 7);
        assert!(dt >= 0.0);
        tr.end(job);
        let (_, _) = tr.span("other", || ());
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job.as_deref(), Some("abc"));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[2].job, None);
        assert!(spans.iter().all(|s| s.end >= s.start && s.tid == 3));
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut tr = Tracer::new(false, Instant::now(), 0);
        let (_, dt) = tr.span("x", || std::hint::black_box((0..1000).sum::<u64>()));
        assert!(dt >= 0.0);
        assert!(tr.into_spans().is_empty());
    }

    #[test]
    fn merged_lists_keep_parents_and_render_as_chrome_events() {
        let a = vec![span("a", 0.0, 1.0, None), span("a1", 0.2, 0.4, Some(0))];
        let b = vec![span("b", 0.0, 2.0, None), span("b1", 1.0, 1.5, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        let doc = chrome_json(&all);
        let parsed = sph_json::parse(&doc.render()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        for e in events {
            let args = e.get("args").unwrap();
            assert!(e.get("name").unwrap().as_str().is_some());
            assert!(args.get("start").unwrap().as_f64().is_some());
            assert!(args.get("end").unwrap().as_f64().is_some());
            assert!(args.get("parent").is_some());
        }
        assert_eq!(events[3].get("args").unwrap().get("parent").unwrap().as_f64(), Some(2.0));
    }
}
