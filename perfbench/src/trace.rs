//! In-memory spans around calls into each layer's public API.
//!
//! A span has a name, the request it belongs to, its parent span and its
//! start and end. Spans are kept in a `Vec` and read back after the run;
//! nothing is written while the workload is timed.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Trace {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (spans close innermost first) and returns its
    /// duration in ms.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
        self.spans[id].ms()
    }

    /// Runs `f` inside a leaf span and returns its result.
    pub fn leaf<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request);
        let r = f();
        self.exit(id);
        r
    }

    /// Appends another trace's closed spans (durations stay exact; the
    /// two traces' clocks need not share an origin).
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total ms of spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Per request, the summed ms of its spans called `name` (requests
    /// without such a span are left out), in request order.
    pub fn per_request_ms(&self, name: &str) -> Vec<f64> {
        let mut acc: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *acc.entry(s.request).or_default() += s.ms();
        }
        acc.into_values().collect()
    }

    /// Summed ms of request `request`'s spans called `name`.
    pub fn request_ms(&self, name: &str, request: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.request == request)
            .map(Span::ms)
            .sum()
    }

    /// Measured cost of recording one span (enter + exit), in ns.
    pub fn cost_per_span_ns() -> f64 {
        const N: usize = 20_000;
        let mut t = Trace::new();
        let t0 = Instant::now();
        for i in 0..N {
            let id = t.enter("calibrate", i as u64);
            t.exit(id);
        }
        t0.elapsed().as_nanos() as f64 / N as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Trace::new();
        let outer = t.enter("outer", 1);
        let inner = t.enter("inner", 1);
        t.exit(inner);
        t.exit(outer);
        t.leaf("inner", 2, || ());
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert!(t.spans[inner].ms() <= t.spans[outer].ms());
        assert_eq!(t.per_request_ms("inner").len(), 2);
        assert_eq!(t.durations_ms("outer").len(), 1);
    }
}
