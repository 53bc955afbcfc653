//! `chemcost-obs` — zero-dependency structured observability.
//!
//! A miniature, std-only tracing layer shared by every crate in the
//! workspace (the build environment has no crates.io access, so the
//! `tracing` ecosystem is out of reach — this is the vendored
//! equivalent, scoped to exactly what chemcost needs):
//!
//! * [`event!`] — one structured record: level, dotted name, typed
//!   `key = value` fields;
//! * [`span!`] — a timed RAII scope that emits a close record with
//!   `duration_us`, its own monotonic span id, and its parent's;
//! * [`TraceScope`] — pins a trace id (e.g. an HTTP `X-Request-Id`) to
//!   the current thread so every record in a request correlates;
//! * [`Timeline`] — an ordered set of named stage durations emitted as
//!   one event (`total_us` plus one field per stage), the record shape
//!   behind stage-resolved request timelines;
//! * sinks — human-readable text ([`TextSink`]), machine-readable
//!   JSONL ([`JsonlSink`]), and an in-memory ring buffer for tests
//!   ([`RingSink`]);
//! * level filtering via the `CHEMCOST_LOG` environment variable
//!   (`error|warn|info|debug|trace|off`), wired by [`init_from_env`].
//!
//! Instrumentation is free when disabled: the macros check
//! [`enabled`] (two relaxed atomic loads) before building any field,
//! and with no sinks registered nothing is ever enabled.
//!
//! ```
//! use chemcost_obs::{self as obs, Level, RingSink};
//! use std::sync::Arc;
//!
//! obs::set_level(Some(Level::Debug));
//! let ring = Arc::new(RingSink::new(64));
//! let handle = obs::add_sink(ring.clone());
//!
//! let _request = obs::TraceScope::enter("req-123");
//! {
//!     let mut span = obs::span!(Level::Debug, "doc.work", kind = "demo");
//!     span.record("rows", 10usize);
//! } // span closes here, emitting duration_us
//! obs::event!(Level::Info, "doc.done", ok = true);
//!
//! let events = ring.events_named("doc.done");
//! assert_eq!(events[0].trace.as_deref(), Some("req-123"));
//! obs::remove_sink(handle);
//! ```
//!
//! The JSONL schema and the metric/log catalog are documented in
//! `docs/OBSERVABILITY.md` at the repository root.

#![deny(missing_docs)]

mod dispatch;
mod event;
mod sink;
mod span;
mod timeline;

pub use dispatch::{
    add_sink, dispatch_event, enabled, flush, global, init_from_env, next_trace_id, remove_sink,
    set_level, Dispatcher, SinkHandle,
};
pub use event::{write_json_string, Event, Field, Level, Value};
pub use sink::{JsonlSink, RingSink, Sink, TextSink};
pub use span::{current_trace, Span, TraceScope};
pub use timeline::Timeline;

/// Emit one structured event: `event!(Level::Info, "name", key = value, …)`.
///
/// Field keys are bare identifiers; values are anything convertible
/// into a [`Value`] (strings, integers, floats, bools). The record is
/// stamped with the thread's current trace id and innermost span id.
/// Nothing is evaluated unless the level passes the active filter and
/// at least one sink is registered.
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::dispatch_event(
                $level,
                module_path!(),
                $name,
                vec![$($crate::Field::new(stringify!($key), $value)),*],
            );
        }
    };
}

/// Open a timed span: `let _s = span!(Level::Debug, "name", key = value, …);`
///
/// Returns a [`Span`] guard; when it drops, one close record is
/// emitted carrying the fields, the measured `duration_us`, the span's
/// monotonic id, and its parent span id. Below the active filter the
/// returned span is inert and no fields are built.
#[macro_export]
macro_rules! span {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::Span::new(
                $level,
                module_path!(),
                $name,
                vec![$($crate::Field::new(stringify!($key), $value)),*],
            )
        } else {
            $crate::Span::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn with_ring<R>(f: impl FnOnce(&RingSink) -> R) -> R {
        set_level(Some(Level::Trace));
        let ring = Arc::new(RingSink::new(256));
        let handle = add_sink(ring.clone());
        let out = f(&ring);
        remove_sink(handle);
        out
    }

    #[test]
    fn event_macro_records_fields_and_context() {
        with_ring(|ring| {
            let _scope = TraceScope::enter("macro-trace");
            event!(Level::Info, "macro.event", answer = 42usize, label = "x", ratio = 0.5);
            let events = ring.events_named("macro.event");
            assert_eq!(events.len(), 1);
            let e = &events[0];
            assert_eq!(e.level, Level::Info);
            assert_eq!(e.trace.as_deref(), Some("macro-trace"));
            assert_eq!(e.field("answer"), Some(&Value::U64(42)));
            assert_eq!(e.field("label"), Some(&Value::Str("x".into())));
            assert_eq!(e.field("ratio"), Some(&Value::F64(0.5)));
            assert!(e.target.contains("chemcost_obs"));
        });
    }

    #[test]
    fn span_macro_times_a_scope() {
        with_ring(|ring| {
            {
                let _span = span!(Level::Debug, "macro.span", stage = "fit");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let closes = ring.events_named("macro.span");
            assert_eq!(closes.len(), 1);
            assert!(closes[0].duration_micros.unwrap() >= 1_000);
            assert!(closes[0].span.is_some());
        });
    }

    #[test]
    fn events_nested_in_spans_carry_the_span_id() {
        with_ring(|ring| {
            let span = span!(Level::Debug, "macro.outer");
            let id = span.id().unwrap();
            event!(Level::Info, "macro.nested");
            drop(span);
            let nested = &ring.events_named("macro.nested")[0];
            assert_eq!(nested.span, Some(id));
            assert_eq!(nested.duration_micros, None);
        });
    }

    #[test]
    fn filtered_span_is_inert_even_with_sinks() {
        with_ring(|ring| {
            set_level(Some(Level::Error));
            {
                let span = span!(Level::Debug, "macro.filtered");
                assert_eq!(span.id(), None);
                event!(Level::Debug, "macro.filtered.event");
            }
            set_level(Some(Level::Trace));
            assert!(ring.events_named("macro.filtered").is_empty());
            assert!(ring.events_named("macro.filtered.event").is_empty());
        });
    }

    /// The JSONL schema golden test: every key in its documented place.
    #[test]
    fn jsonl_schema_golden() {
        let event = Event {
            ts_micros: 1_754_000_000_123_456,
            level: Level::Debug,
            target: "chemcost_serve::routes",
            name: "advise.sweep",
            trace: Some(Arc::from("req-42")),
            span: Some(7),
            parent: Some(3),
            duration_micros: Some(6400),
            fields: vec![
                Field::new("o", 120usize),
                Field::new("v", 900usize),
                Field::new("machine", "aurora"),
                Field::new("cached", false),
                Field::new("mape", 1.5),
            ],
        };
        assert_eq!(
            event.to_jsonl(),
            r#"{"ts_us":1754000000123456,"level":"debug","name":"advise.sweep","target":"chemcost_serve::routes","trace":"req-42","span":7,"parent":3,"duration_us":6400,"fields":{"o":120,"v":900,"machine":"aurora","cached":false,"mape":1.5}}"#
        );

        // Minimal event: optional keys absent entirely, not null.
        let bare = Event {
            ts_micros: 5,
            level: Level::Info,
            target: "t",
            name: "n",
            trace: None,
            span: None,
            parent: None,
            duration_micros: None,
            fields: vec![],
        };
        assert_eq!(
            bare.to_jsonl(),
            r#"{"ts_us":5,"level":"info","name":"n","target":"t","fields":{}}"#
        );
    }
}
