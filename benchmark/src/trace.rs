//! Spans around the benchmark's own calls into the crates, kept in memory
//! and written as Chrome-trace JSON when the invocation ends.

use std::time::Instant;

use crate::api::{ChromeTrace, Json};

/// One recorded span. `parent` indexes [`Spans::spans`].
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Numbers measured at this boundary (phase times, counts).
    pub args: Vec<(String, f64)>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// The span recorder of one workload invocation.
#[derive(Debug)]
pub struct Spans {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`, and returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id.0];
        span.end_ns = end;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span.
    pub fn closed(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
    }

    /// Attaches a number to a span.
    pub fn attach(&mut self, id: SpanId, key: &str, value: f64) {
        self.spans[id.0].args.push((key.to_string(), value));
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Chrome trace-event JSON (microsecond timestamps; open in Perfetto or
    /// `chrome://tracing`). Every span carries its workload, its parent and
    /// its self time.
    pub fn to_chrome_json(&self) -> Json {
        assert!(self.open.is_empty(), "every span is closed before export");
        let mut trace = ChromeTrace::new();
        trace.process_name(1, format!("anton-benchmark {}", self.workload));
        trace.thread_name(1, 1, "benchmark");
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let mut args = vec![
                ("workload".to_string(), Json::from(self.workload.as_str())),
                ("span".to_string(), Json::from(i)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, Json::from),
                ),
                ("self_us".to_string(), Json::from(own as f64 / 1e3)),
            ];
            args.extend(s.args.iter().map(|(k, v)| (k.clone(), Json::from(*v))));
            trace.complete(
                1,
                1,
                s.start_ns / 1000,
                s.end_ns.saturating_sub(s.start_ns) / 1000,
                s.name,
                Some(Json::Obj(args)),
            );
        }
        trace.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new("w");
        let root = s.enter("workload");
        let t0 = Instant::now();
        let setup = s.enter("setup");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit(setup);
        s.closed("audit", t0, Instant::now());
        s.attach(root, "ops", 3.0);
        s.exit(root);
        let own = s.self_ns();
        let dur = |i: usize| s.spans[i].end_ns - s.spans[i].start_ns;
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        assert_eq!(own[0], dur(0).saturating_sub(dur(1) + dur(2)));
        assert_eq!(own[1], dur(1));
        let doc = s.to_chrome_json();
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("a Chrome trace holds an array of events");
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3);
        let root_args = complete[0].get("args").expect("args");
        assert_eq!(root_args.get("ops").and_then(Json::as_f64), Some(3.0));
        assert_eq!(root_args.get("workload").and_then(Json::as_str), Some("w"));
    }
}
