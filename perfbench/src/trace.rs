//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer; nothing inside the program is instrumented. A disabled tracer
//! does nothing but a branch, so untraced runs carry no bookkeeping.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Root span of one loop step; every layer span of the step nests under it.
pub const STEP: &str = "step";

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`monitor.run_until`, `broker.tick`, …).
    pub name: &'static str,
    /// Loop step the span belongs to: spans of one step share it.
    pub step: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Wall time attributed to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Span duration minus the part covered by its child spans, summed.
    pub self_ns: u64,
    /// Number of spans.
    pub calls: u64,
}

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    step: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            step: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            step: self.step,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Start loop step `step`: its spans carry this id.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// All closed spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and call count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        assert!(self.open.is_empty(), "self times asked with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.self_ns += s.dur_ns().saturating_sub(child);
            e.calls += 1;
        }
        out
    }

    /// Total duration of the root step spans.
    pub fn step_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == STEP)
            .map(Span::dur_ns)
            .sum()
    }

    /// The spans as a Chrome trace-event document (loadable in Perfetto).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"step\":{},\"parent\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.step,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::on();
        tr.enter(STEP);
        tr.enter("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit();
        tr.exit();
        let st = tr.self_times();
        let step = tr.spans()[0].dur_ns();
        let a = tr.spans()[1].dur_ns();
        assert_eq!(st["a"].self_ns, a);
        assert_eq!(st[STEP].self_ns, step - a);
        assert_eq!(tr.step_ns(), step);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        tr.enter(STEP);
        tr.exit();
        assert!(tr.spans().is_empty());
    }
}
