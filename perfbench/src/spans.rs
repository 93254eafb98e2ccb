//! Benchmark-side spans around each call into the stack.
//!
//! A span has a name, host and virtual start and end, a parent span and a
//! request id shared by every span of one request. Spans are kept in
//! memory and written out once the run ends. With tracing off the
//! recorder holds nothing and every call is a branch on `None`.
//!
//! Host time is the calling thread's CPU clock. Every simulated process
//! is a thread, and a call that blocks in virtual time parks it while the
//! engine runs everyone else, so wall time across a call would charge it
//! with the whole simulation's work; thread CPU time charges only the
//! call's own work, hand-offs included. Host stamps of different threads
//! do not share an origin: only a span's host duration is meaningful.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use suca_sim::ActorCtx;

use crate::cpu::thread_ns;
use crate::stats::{self_time, Interval};

/// Parent id of a root span.
pub const ROOT: u32 = 0;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (never [`ROOT`]).
    pub id: u32,
    /// Enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Request this span belongs to (0 = not tied to one request).
    pub req: u64,
    /// Call name, e.g. `rpc.issue`.
    pub name: &'static str,
    /// Host start: the calling thread's CPU clock, ns.
    pub host_start: u64,
    /// Host end.
    pub host_end: u64,
    /// Virtual start, ns.
    pub virt_start: u64,
    /// Virtual end.
    pub virt_end: u64,
}

/// A span that has begun and not yet ended.
pub struct Open {
    id: u32,
    parent: u32,
    req: u64,
    name: &'static str,
    host_start: u64,
    virt_start: u64,
}

impl Open {
    /// This span's id, for children.
    pub fn id(&self) -> u32 {
        self.id
    }
}

struct Inner {
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Shared span recorder; clones share one buffer.
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<Inner>>);

impl Recorder {
    /// A recorder that keeps spans (`on`) or ignores every call.
    pub fn new(on: bool) -> Recorder {
        Recorder(on.then(|| {
            Arc::new(Inner {
                next_id: AtomicU32::new(ROOT + 1),
                spans: Mutex::new(Vec::new()),
            })
        }))
    }

    /// True when spans are kept.
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Begin a span at the actor's current host and virtual time.
    pub fn begin(&self, ctx: &ActorCtx, name: &'static str, req: u64, parent: u32) -> Option<Open> {
        let inner = self.0.as_ref()?;
        Some(Open {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            name,
            host_start: thread_ns(),
            virt_start: ctx.now().as_ns(),
        })
    }

    /// End a span begun with [`Recorder::begin`].
    pub fn end(&self, ctx: &ActorCtx, open: Option<Open>) {
        let (Some(inner), Some(o)) = (self.0.as_ref(), open) else {
            return;
        };
        let span = Span {
            id: o.id,
            parent: o.parent,
            req: o.req,
            name: o.name,
            host_start: o.host_start,
            host_end: thread_ns(),
            virt_start: o.virt_start,
            virt_end: ctx.now().as_ns(),
        };
        inner.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Record a span whose virtual interval is already known (a request
    /// root, which starts at issue or at its scheduled arrival and ends
    /// at completion). Host time is not meaningful across such a span.
    pub fn record_virtual(&self, name: &'static str, req: u64, id: u32, virt: Interval) {
        let Some(inner) = self.0.as_ref() else {
            return;
        };
        let now = thread_ns();
        inner
            .spans
            .lock()
            .expect("span buffer poisoned")
            .push(Span {
                id,
                parent: ROOT,
                req,
                name,
                host_start: now,
                host_end: now,
                virt_start: virt.start,
                virt_end: virt.end,
            });
    }

    /// A fresh span id for a span recorded later with
    /// [`Recorder::record_virtual`].
    pub fn reserve_id(&self) -> u32 {
        self.0
            .as_ref()
            .map_or(ROOT, |i| i.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |i| {
            i.spans.lock().expect("span buffer poisoned").clone()
        })
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed virtual duration, ns.
    pub virt_ns: u64,
    /// Summed host duration, ns.
    pub host_ns: u64,
    /// Summed virtual self time (duration minus child coverage), ns.
    pub self_virt_ns: u64,
}

impl NameTotals {
    /// Mean virtual duration, µs.
    pub fn virt_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.virt_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean host duration, ns.
    pub fn host_ns_mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.host_ns as f64 / self.count as f64
        }
    }

    /// Mean virtual self time, µs.
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_virt_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Totals per span name, with self time from each span's children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<Interval>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children.entry(s.parent).or_default().push(Interval {
            start: s.virt_start,
            end: s.virt_end,
        });
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let virt = Interval {
            start: s.virt_start,
            end: s.virt_end.max(s.virt_start),
        };
        t.count += 1;
        t.virt_ns += virt.end - virt.start;
        t.host_ns += s.host_end.saturating_sub(s.host_start);
        t.self_virt_ns += self_time(virt, children.get(&s.id).map_or(&[][..], |c| c));
    }
    out
}

/// Spans as tab-separated lines:
/// `id parent req name host_start host_end virt_start virt_end`.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out =
        String::from("id\tparent\treq\tname\thost_start\thost_end\tvirt_start\tvirt_end\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.host_start, s.host_end, s.virt_start, s.virt_end
        );
    }
    out
}
