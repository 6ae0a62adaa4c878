//! In-memory span recorder for the traced run.
//!
//! A span wraps one call from the benchmark into a layer's public function
//! and records its name, start, end and parent. Spans stay in memory while
//! the workload runs and are written out once at the end. While the
//! recorder is off (the untraced run, or the untraced rounds of a traced
//! run) [`span`] only calls its closure: no clock is read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        on: false,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Switches recording on or off.
pub fn set_on(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Whether spans are being recorded.
pub fn is_on() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    REC.with(|r| r.borrow().epoch.elapsed().as_nanos() as u64)
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !is_on() {
        return f();
    }
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let id = r.spans.len() - 1;
        r.open.push(id);
        id
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = r.epoch.elapsed().as_nanos() as u64;
        r.spans[id].end_ns = end;
        r.open.pop();
    });
    out
}

/// Every recorded span so far.
pub fn spans() -> Vec<Span> {
    REC.with(|r| r.borrow().spans.clone())
}

/// Durations in seconds of every recorded span named `name`.
pub fn durations(name: &str) -> Vec<f64> {
    REC.with(|r| {
        r.borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    })
}

/// Total self time (a span minus its children) per span name, in seconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_ns) {
        *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 * 1e-9;
    }
    out
}

/// Seconds of `[from_ns, to_ns)` covered by top-level spans.
pub fn top_level_secs(spans: &[Span], from_ns: u64, to_ns: u64) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns.min(to_ns).saturating_sub(s.start_ns.max(from_ns)))
        .sum::<u64>() as f64
        * 1e-9
}

/// Renders spans as a JSON array (name, start, end, parent), followed by
/// the self-time table, for writing out at the end of a traced run.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("], \"self_s\": {");
    let table = self_times(spans);
    let body: Vec<String> = table
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:.9}"))
        .collect();
    out.push_str(&body.join(", "));
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "b",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
            },
        ];
        let t = self_times(&spans);
        assert!((t["a"] - 60e-9).abs() < 1e-15);
        assert!((t["b"] - 40e-9).abs() < 1e-15);
        assert!((top_level_secs(&spans, 20, 200) - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_and_record_only_when_on() {
        set_on(false);
        span("off", || ());
        assert!(durations("off").is_empty());
        set_on(true);
        span("outer", || span("inner", || ()));
        set_on(false);
        let s = spans();
        let inner = s.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(s[inner.parent.unwrap()].name, "outer");
    }
}
