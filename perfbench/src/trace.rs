//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer: name, layer, start, end, parent span and request id.  They stay
//! in memory and are written out when the run ends.  A layer's self time is
//! the total duration of its spans minus the part of each span that its
//! child spans cover (children may run on other threads and overlap, so
//! coverage is the union of their intervals).
//!
//! Recording is switched on and off globally, so a traced run can
//! interleave untraced passes and measure what tracing costs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept in memory at most; later ones are counted and dropped.
const MAX_SPANS: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// One finished span.  Times are nanoseconds since the run started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped.  Inert while tracing is off.
pub struct Guard {
    id: u32,
    parent: u32,
    req: u64,
    layer: &'static str,
    name: &'static str,
    start: u64,
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn span(layer: &'static str, name: &'static str, req: u64) -> Guard {
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    span_under(parent, layer, name, req)
}

/// Opens a span under an explicit parent, for work that runs on a thread
/// the parent span did not open (a cluster's application threads).
pub fn span_under(parent: u32, layer: &'static str, name: &'static str, req: u64) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent,
            req,
            layer,
            name,
            start: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        id,
        parent,
        req,
        layer,
        name,
        start: now_ns(),
    }
}

impl Guard {
    /// The span's id (0 while tracing is off), for use as a parent.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.remove(pos);
            }
        });
        let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() >= MAX_SPANS {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(Span {
            id: self.id,
            parent: self.parent,
            req: self.req,
            layer: self.layer,
            name: self.name,
            start: self.start,
            end,
        });
    }
}

/// Everything recorded so far.
pub fn take() -> (Vec<Span>, u64) {
    let spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    (spans, DROPPED.load(Ordering::Relaxed))
}

/// Self time per layer, in milliseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| union_within(kids, s.start, s.end));
        let own = s.end.saturating_sub(s.start).saturating_sub(covered);
        *out.entry(s.layer).or_default() += own as f64 / 1e6;
    }
    out
}

/// Length of the union of `ivs`, clipped to `[lo, hi]`.
fn union_within(ivs: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    ivs.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in ivs.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.layer, s.name, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut ivs = vec![(5, 10), (0, 3), (8, 20), (30, 40)];
        assert_eq!(union_within(&mut ivs, 2, 35), 1 + 15 + 5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                req: 0,
                layer: "a",
                name: "p",
                start: 0,
                end: 10_000_000,
            },
            Span {
                id: 2,
                parent: 1,
                req: 0,
                layer: "b",
                name: "c",
                start: 1_000_000,
                end: 4_000_000,
            },
            Span {
                id: 3,
                parent: 1,
                req: 0,
                layer: "b",
                name: "c",
                start: 2_000_000,
                end: 5_000_000,
            },
        ];
        let t = self_times(&spans);
        assert!((t["a"] - 6.0).abs() < 1e-9);
        assert!((t["b"] - 6.0).abs() < 1e-9);
    }
}
