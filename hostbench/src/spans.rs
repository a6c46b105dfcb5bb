//! Host-time spans, recorded in the benchmark's own code only (never
//! inside the program under test). A span has a name, a start, an end and
//! a parent; spans stay in memory on the measuring thread and are written
//! out once the run ends. Recording is off unless [`enable`] turned it on,
//! and an off recorder neither formats names nor allocates.

use std::cell::RefCell;
use std::fmt::Display;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was enabled.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, dotted (`setup.cluster`, `cell.erpc.64`, ...).
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread (dropping any earlier ones).
pub fn enable() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
        })
    });
}

/// Stop recording and hand back everything recorded, in open order.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Run `f` inside a span called `name`. With recording off this is a plain
/// call: `name` is never formatted.
pub fn span<T>(name: impl Display, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let idx = rec.spans.len();
            rec.spans.push(Span {
                name: name.to_string(),
                parent: rec.open.last().copied(),
                start_ns: rec.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            rec.open.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                let top = rec.open.pop();
                debug_assert_eq!(top, Some(idx), "spans closed out of order");
            }
        });
    }
    out
}

/// Each span's self time: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time summed per span name, largest first.
pub fn self_by_name(spans: &[Span]) -> Vec<(String, u64, u64)> {
    let own = self_times(spans);
    let mut by: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for (s, t) in spans.iter().zip(own) {
        let e = by.entry(s.name.as_str()).or_default();
        e.0 += t;
        e.1 += 1;
    }
    let mut v: Vec<(String, u64, u64)> = by
        .into_iter()
        .map(|(n, (t, c))| (n.to_string(), t, c))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// The spans as a JSON array: name, parent, start, end and self time.
pub fn to_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut w = dc_trace::json::JsonWriter::new();
    w.begin_array();
    for (s, t) in spans.iter().zip(own) {
        w.begin_object();
        w.key("name").string(&s.name);
        w.key("parent");
        match s.parent {
            Some(p) => w.u64(p as u64),
            None => w.raw("null"),
        };
        w.key("start_ns").u64(s.start_ns);
        w.key("end_ns").u64(s.end_ns);
        w.key("self_ns").u64(t);
        w.end_object();
    }
    w.end_array();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        span("ignored", || ());
        assert!(take().is_empty());
        enable();
        span("root", || {
            span("child", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = self_times(&spans);
        assert_eq!(own[0] + own[1], spans[0].dur_ns());
        assert!(own[1] >= 2_000_000);
    }
}
