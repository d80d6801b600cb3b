//! In-memory span recorder for the traced mode: each span is a name, a
//! start and end on one monotonic clock, the span that caused it, and a
//! group id shared by the spans of one iteration. Spans are written out
//! once, when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub group: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that joins its parent's group; returns its id for
    /// [`Recorder::end`] and as the parent of nested spans.
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let group = match self.spans.get(parent as usize) {
            Some(p) => p.group,
            None => self.spans.len() as u32,
        };
        self.open(name, parent, group)
    }

    /// Open a span that starts a group of its own (one iteration, one
    /// round): its id is the group id its nested spans share.
    pub fn begin_group(&mut self, name: &'static str, parent: u32) -> u32 {
        let group = self.spans.len() as u32;
        self.open(name, parent, group)
    }

    fn open(&mut self, name: &'static str, parent: u32, group: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            group,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    /// Durations (ms) of every span named `name` with an id of at least
    /// `since`.
    pub fn durations_ms(&self, name: &str, since: usize) -> Vec<f64> {
        self.spans[since..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// The spans as a Chrome trace (`traceEvents` of complete events, with
    /// the span id, parent id and group as arguments).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"group\":{}}}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                id,
                parent,
                s.group
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
