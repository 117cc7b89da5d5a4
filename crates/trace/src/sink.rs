//! Event delivery: the [`JsonlSink`] that instrumented components
//! share, and the [`emit`]/[`marker`] helpers they call it through.
//!
//! The simulator is single-threaded, so the sink is shared as
//! `Rc<RefCell<JsonlSink>>` ([`SharedSink`]): the machine, the cache
//! hierarchy, the tag controller, and the kernel each hold a clone of
//! the same handle and all feed one stream.

use crate::event::TraceEvent;
use std::cell::RefCell;
use std::fmt;
use std::io::Write;
use std::rc::Rc;

/// Streams events as JSON lines to any writer (file, stdout, Vec).
/// Markers appear as `{"marker":"..."}` lines.
pub struct JsonlSink {
    out: Box<dyn Write>,
    written: u64,
}

impl JsonlSink {
    /// Wraps a writer. Callers should pass something buffered (e.g.
    /// `BufWriter<File>`) — one `write_all` is issued per event.
    #[must_use]
    pub fn new(out: Box<dyn Write>) -> JsonlSink {
        JsonlSink { out, written: 0 }
    }

    /// Creates the file at `path` (truncating) and streams to it.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Events written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Writes one event as a JSON line.
    pub fn on_event(&mut self, ev: &TraceEvent) {
        let mut line = ev.to_json();
        line.push('\n');
        // Trace output is best-effort observation; an I/O error must not
        // perturb the simulated machine, so it is swallowed here and
        // surfaced by the final flush if persistent.
        let _ = self.out.write_all(line.as_bytes());
        self.written += 1;
    }

    /// Writes an out-of-band marker line (e.g. "run start: treeadd/cheri").
    pub fn marker(&mut self, label: &str) {
        let mut w = crate::json::JsonWriter::object();
        w.str_field("marker", label);
        let mut line = w.close();
        line.push('\n');
        let _ = self.out.write_all(line.as_bytes());
    }

    /// Flushes buffered output.
    pub fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").field("written", &self.written).finish_non_exhaustive()
    }
}

/// The shared handle instrumented components hold. `Rc` because the
/// whole simulator is single-threaded; cloning the handle clones the
/// *reference*, so every component feeds the same sink.
pub type SharedSink = Rc<RefCell<JsonlSink>>;

/// Wraps a sink into the shared handle form.
#[must_use]
pub fn shared(sink: JsonlSink) -> SharedSink {
    Rc::new(RefCell::new(sink))
}

/// Emits an event through an optional sink handle. The event closure
/// runs only when a sink is attached — with none, the cost is the bare
/// `Option` check.
#[inline]
pub fn emit(sink: &Option<SharedSink>, make: impl FnOnce() -> TraceEvent) {
    if let Some(handle) = sink {
        let ev = make();
        handle.borrow_mut().on_event(&ev);
    }
}

/// Sends an out-of-band marker through an optional sink handle.
pub fn marker(sink: &Option<SharedSink>, label: &str) {
    if let Some(handle) = sink {
        handle.borrow_mut().marker(label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CacheLevel;

    #[test]
    fn jsonl_writes_one_line_per_event_plus_markers() {
        let buf: Rc<RefCell<Vec<u8>>> = Rc::default();
        struct Tee(Rc<RefCell<Vec<u8>>>);
        impl Write for Tee {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Box::new(Tee(buf.clone())));
        sink.marker("run start: treeadd/cheri");
        sink.on_event(&TraceEvent::CacheAccess {
            level: CacheLevel::L1I,
            write: false,
            hit: true,
            writeback: false,
        });
        sink.flush();
        let text = String::from_utf8(buf.borrow().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"marker":"run start: treeadd/cheri"}"#);
        assert!(lines[1].contains(r#""ev":"cache""#));
        assert_eq!(sink.written(), 1);
    }
}
