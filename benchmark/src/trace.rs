//! In-memory spans around every call the harness makes into a layer.
//!
//! The program under test is not instrumented (ROADMAP item 2 is a later
//! issue): a span opens in the harness just before a public function of
//! a layer is called and closes when it returns. Where the layer hands
//! back a receipt with its own phase timings ([`idq_query::QueryStats`]),
//! the phases are laid under the call's span as children, so the span's
//! self time is what the receipt does not account for.
//!
//! Spans stay in memory until [`drain`]; nothing is written while a
//! workload is being timed.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. `parent` is 0 for a root; spans of one request share
/// `request`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Tests that turn the process-wide recorder on hold this meanwhile.
#[cfg(test)]
pub static EXCLUSIVE: Mutex<()> = Mutex::new(());

thread_local! {
    /// Open spans of this thread, innermost last, and its current request.
    static OPEN: RefCell<(Vec<u64>, u64)> = const { RefCell::new((Vec::new(), 0)) };
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off (off at start).
pub fn enable(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the request id stamped on spans this thread opens from now on.
pub fn set_request(request: u64) {
    if enabled() {
        OPEN.with(|o| o.borrow_mut().1 = request);
    }
}

/// An open span; closes when dropped. Inert while tracing is off.
pub struct Guard {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span on this thread, child of its innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            request: 0,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.0.last().copied().unwrap_or(0);
        o.0.push(id);
        (parent, o.1)
    });
    Guard {
        id,
        parent,
        request,
        name,
        start_ns: now_ns(),
    }
}

impl Guard {
    /// Closes the span now and returns a handle under which a receipt
    /// can still be laid — so laying it is not part of the span.
    pub fn finish(mut self) -> Closed {
        let closed = Closed {
            id: self.id,
            request: self.request,
            start_ns: self.start_ns,
        };
        self.close();
        closed
    }

    fn close(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(at) = o.0.iter().rposition(|&id| id == self.id) {
                o.0.truncate(at);
            }
        });
        SPANS.lock().expect("span buffer poisoned").push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            request: self.request,
        });
        self.id = 0;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.close();
    }
}

/// A closed span, kept to lay its layer's receipt under.
pub struct Closed {
    id: u64,
    request: u64,
    start_ns: u64,
}

impl Closed {
    /// Lays a layer's own receipt under the span: consecutive children
    /// of the given durations (ms), starting where the span started.
    pub fn lay(&self, phases: &[(&'static str, f64)]) {
        if self.id == 0 {
            return;
        }
        let mut at = self.start_ns;
        let mut spans = SPANS.lock().expect("span buffer poisoned");
        for &(name, ms) in phases {
            let end = at + (ms.max(0.0) * 1e6) as u64;
            spans.push(Span {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                parent: self.id,
                name,
                start_ns: at,
                end_ns: end,
                request: self.request,
            });
            at = end;
        }
    }
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Self time of each span, ms: its duration minus the part of that
/// interval its children cover. Returns `(name, total_ms, self_ms)` per
/// span, in input order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64, f64)> {
    let mut covered: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let bounds: std::collections::HashMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(lo, hi)) = bounds.get(&s.parent) {
            let inside = s.end_ns.min(hi).saturating_sub(s.start_ns.max(lo));
            *covered.entry(s.parent).or_default() += inside;
        }
    }
    spans
        .iter()
        .map(|s| {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            (s.name, total as f64 / 1e6, own as f64 / 1e6)
        })
        .collect()
}

/// Writes spans as JSON lines, one object per span.
pub fn write_jsonl(path: &std::path::Path, phases: &[(&str, &[Span])]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (phase, spans) in phases {
        for s in *spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\
                 \"request\":{},\"phase\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request, phase
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_lay_receipts_and_yield_self_time() {
        let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        enable(false);
        {
            let _ignored = span("off");
        }
        assert!(
            drain().iter().all(|s| s.name != "off"),
            "nothing is recorded while off"
        );

        enable(true);
        set_request(7);
        {
            let outer = span("outer");
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            outer.finish().lay(&[("phase.a", 0.25), ("phase.b", 0.5)]);
        }
        enable(false);
        // Other tests may run traced code meanwhile; theirs carry request 0.
        let spans: Vec<Span> = drain().into_iter().filter(|s| s.request == 7).collect();
        assert_eq!(spans.len(), 4);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let b = spans.iter().find(|s| s.name == "phase.b").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(b.parent, outer.id);
        assert_eq!(b.start_ns - outer.start_ns, 250_000);

        let times = self_times(&spans);
        let (_, total, own) = times.iter().find(|t| t.0 == "outer").unwrap();
        assert!(*total >= 2.0);
        // inner (≥ 2 ms) and both phases (0.75 ms) are children.
        assert!(*own <= total - 2.0, "self {own} of total {total}");
        let (_, inner_total, inner_own) = times.iter().find(|t| t.0 == "inner").unwrap();
        assert_eq!(inner_total, inner_own, "a leaf's self time is its duration");
    }
}
