//! Transport-generic protocol handling: one connection, one step at a time.
//!
//! [`Connection`] owns the per-connection request/response loop that used to
//! live inside the TCP server, generic over any [`BufRead`] reader and
//! [`Write`] writer.  The TCP front end drives it over a socket
//! ([`crate::server`]); the deterministic simulator drives the *same code*
//! over in-memory fault-injecting transports — which is the point: the
//! simulator exercises the real protocol surface, not a reimplementation.
//!
//! [`Connection::step`] processes exactly one request (a `BATCH` header
//! consumes its continuation lines in the same step; a streamed `QUERY`
//! writes header, row frames and footer in the same step) and reports
//! whether the connection continues, closed, or asked the server to shut
//! down.  Stepping granularity is what lets the simulator interleave many
//! virtual clients deterministically from a seed.

use crate::protocol::{batch_response, metrics_response, stats_response};
use crate::{EmitMode, QuerySet, Service, ServiceError, StatsSnapshot, StreamHeader, StreamSink};
use sge_graph::NodeId;
use sge_obs::{EventLog, Gauge};
use sge_util::Clock;
use sge_wire::json::Json;
use sge_wire::protocol::{
    error_response, explain_analyze_response, explain_response, load_response, parse_batch_query,
    parse_command, query_response, shutdown_response, stream_footer_response,
    stream_header_response, stream_rows_frame, Command, MAX_BATCH_QUERIES, MAX_REQUEST_LINE_BYTES,
};
use std::io::{BufRead, Read, Write};
use std::sync::Arc;

/// The execution plane a [`Connection`] dispatches protocol requests to.
///
/// Two implementations exist: [`Service`] (one registry, one process — the
/// classic single-node server) and the scatter-gather
/// [`crate::coordinator::Coordinator`] (fans requests out over in-process
/// shard services and merges their responses).  The front ends
/// ([`crate::server::Server`], the event server, the simulator) are generic
/// over this trait, so every transport serves both shapes through the same
/// protocol loop.
///
/// Each `*_json` method returns the final single-line response with errors
/// already folded to `{"ok":false,...}`; only
/// [`Backend::query_stream_json`] distinguishes errors, because a streamed
/// query that already wrote its header cannot fall back to a one-line
/// error.
pub trait Backend: Send + Sync {
    /// Serves `LOAD`: registers the file under `name` and reports the
    /// loaded shape (or an error response).
    fn load_json(&self, name: &str, path: &str, bitmap_cap: Option<usize>) -> Json;
    /// Serves a buffered `QUERY`.
    fn query_json(&self, target: &str, spec: &crate::QuerySpec) -> Json;
    /// Serves a streaming `QUERY`: the header and row frames go through
    /// `sink`; on success the *footer* response is returned for the caller
    /// to write.  `Err(ServiceError::Io)` means the sink failed before the
    /// header went out (the connection is dead); any other error is a
    /// pre-run failure the caller folds to a single error line.
    fn query_stream_json(
        &self,
        target: &str,
        spec: &crate::QuerySpec,
        sink: &mut dyn StreamSink,
    ) -> Result<Json, ServiceError>;
    /// Serves `EXPLAIN`.
    fn explain_json(&self, target: &str, spec: &crate::QuerySpec) -> Json;
    /// Serves `EXPLAIN ANALYZE`.
    fn explain_analyze_json(&self, target: &str, spec: &crate::QuerySpec) -> Json;
    /// Serves a parsed `BATCH`.
    fn batch_json(&self, set: &QuerySet) -> Json;
    /// Serves `STATS`.
    fn stats_json(&self) -> Json;
    /// Serves `METRICS`.
    fn metrics_json(&self) -> Json;
    /// The clock the backend measures latencies on; front ends reuse it for
    /// drain deadlines so everything stays on one (possibly virtual) time
    /// source.
    fn clock(&self) -> Arc<dyn Clock>;
    /// Attaches the front end's shared event log.
    fn set_event_log(&self, log: Arc<EventLog>);
    /// The connections-open gauge the front ends maintain.
    fn connections_gauge(&self) -> Gauge;
    /// Point-in-time service-level counters (the simulator's invariant
    /// checks read these; for a coordinator they are the coordinator-level
    /// counters, not a shard sum).
    fn stats_snapshot(&self) -> StatsSnapshot;
}

impl Backend for Service {
    fn load_json(&self, name: &str, path: &str, bitmap_cap: Option<usize>) -> Json {
        match self.load_target(name, path, bitmap_cap) {
            Ok(info) => load_response(&info),
            Err(err) => error_response(&err),
        }
    }

    fn query_json(&self, target: &str, spec: &crate::QuerySpec) -> Json {
        match self.run_query(target, spec) {
            Ok(outcome) => query_response(&outcome),
            Err(err) => error_response(&err),
        }
    }

    fn query_stream_json(
        &self,
        target: &str,
        spec: &crate::QuerySpec,
        sink: &mut dyn StreamSink,
    ) -> Result<Json, ServiceError> {
        self.run_query_streaming(target, spec, sink)
            .map(|streamed| stream_footer_response(&streamed))
    }

    fn explain_json(&self, target: &str, spec: &crate::QuerySpec) -> Json {
        match self.explain(target, spec) {
            Ok(outcome) => explain_response(&outcome),
            Err(err) => error_response(&err),
        }
    }

    fn explain_analyze_json(&self, target: &str, spec: &crate::QuerySpec) -> Json {
        match self.explain_analyze(target, spec) {
            Ok(outcome) => explain_analyze_response(&outcome),
            Err(err) => error_response(&err),
        }
    }

    fn batch_json(&self, set: &QuerySet) -> Json {
        batch_response(&self.run_batch(set))
    }

    fn stats_json(&self) -> Json {
        stats_response(self)
    }

    fn metrics_json(&self) -> Json {
        metrics_response(self)
    }

    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(Service::clock(self))
    }

    fn set_event_log(&self, log: Arc<EventLog>) {
        Service::set_event_log(self, log);
    }

    fn connections_gauge(&self) -> Gauge {
        Service::connections_gauge(self)
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats()
    }
}

/// What one [`Connection::step`] call did to the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// A request was served (or a blank line skipped); more may follow.
    Continue,
    /// The connection is over: clean EOF, or a protocol violation that was
    /// answered with a structured error before closing.
    Closed,
    /// The client issued `SHUTDOWN`; the response has been written and the
    /// caller should stop its accept loop and drain.
    ShutdownRequested,
}

/// One protocol connection over an arbitrary reader/writer pair.
pub struct Connection<R, W> {
    reader: R,
    writer: W,
    line: String,
}

impl<R: BufRead, W: Write> Connection<R, W> {
    /// Wraps a transport pair.
    pub fn new(reader: R, writer: W) -> Self {
        Connection {
            reader,
            writer,
            line: String::new(),
        }
    }

    /// Serves one request from the reader, writing the response(s) to the
    /// writer.  I/O errors terminate the connection (the caller should treat
    /// `Err` as [`StepOutcome::Closed`] with a transport failure).
    pub fn step<B: Backend + ?Sized>(&mut self, service: &B) -> std::io::Result<StepOutcome> {
        match read_bounded_line(&mut self.reader, &mut self.line)? {
            LineRead::Eof => return Ok(StepOutcome::Closed), // client closed
            LineRead::Overflow => {
                // Answer with a structured error, then drop the connection:
                // the rest of the oversized line cannot be resynchronized.
                refuse(&mut self.writer, &line_too_long_error())?;
                return Ok(StepOutcome::Closed);
            }
            LineRead::Invalid => {
                refuse(&mut self.writer, &invalid_utf8_error())?;
                return Ok(StepOutcome::Closed);
            }
            LineRead::Line => {}
        }
        if self.line.trim().is_empty() {
            return Ok(StepOutcome::Continue);
        }
        let response = match parse_command(&self.line) {
            Ok(Command::Load {
                name,
                path,
                bitmap_cap,
            }) => service.load_json(&name, &path, bitmap_cap),
            Ok(Command::Query { target, spec }) if spec.emit == EmitMode::Stream => {
                let mut sink = WriterSink {
                    writer: &mut self.writer,
                };
                match service.query_stream_json(&target, &spec, &mut sink) {
                    Ok(footer) => {
                        // A dead client makes this write fail, which ends the
                        // connection — exactly what a footer to nobody needs.
                        writeln!(self.writer, "{}", footer.render())?;
                        self.writer.flush()?;
                        return Ok(StepOutcome::Continue);
                    }
                    // The header never went out (client vanished first):
                    // nothing ran, drop the connection.
                    Err(ServiceError::Io(err)) => return Err(err),
                    // Pre-run failures (unknown target, parse error) are a
                    // normal single-line error, like a buffered query.
                    Err(err) => error_response(&err),
                }
            }
            Ok(Command::Query { target, spec }) => service.query_json(&target, &spec),
            Ok(Command::Explain { target, spec }) => service.explain_json(&target, &spec),
            Ok(Command::ExplainAnalyze { target, spec }) => {
                service.explain_analyze_json(&target, &spec)
            }
            Ok(Command::Batch { target, count }) => {
                match read_batch(&mut self.reader, target, count)? {
                    BatchRead::Set(set) => service.batch_json(&set),
                    BatchRead::Failed(err) => error_response(&err),
                    BatchRead::Overflow => {
                        refuse(&mut self.writer, &line_too_long_error())?;
                        return Ok(StepOutcome::Closed);
                    }
                }
            }
            Ok(Command::Stats) => service.stats_json(),
            Ok(Command::Metrics) => service.metrics_json(),
            Ok(Command::Shutdown) => {
                writeln!(self.writer, "{}", shutdown_response().render())?;
                self.writer.flush()?;
                return Ok(StepOutcome::ShutdownRequested);
            }
            Err(err) => {
                // A malformed BATCH header still announced continuation
                // lines (the client sends them regardless); consume them so
                // they are not misread as top-level commands.  The announced
                // count comes from the *unvalidated* header, so the drain is
                // capped — a header announcing more than the cap closes the
                // connection instead of pinning the handler forever.
                let announced = crate::client::continuation_lines(&self.line);
                if announced > MAX_BATCH_QUERIES {
                    let err = ServiceError::Protocol(format!(
                        "malformed BATCH header announces {announced} continuation lines \
                         (cap {MAX_BATCH_QUERIES}); closing connection"
                    ));
                    refuse(&mut self.writer, &err)?;
                    return Ok(StepOutcome::Closed);
                }
                let mut continuation = String::new();
                for _ in 0..announced {
                    match read_bounded_line(&mut self.reader, &mut continuation)? {
                        LineRead::Eof => break,
                        LineRead::Overflow => {
                            refuse(&mut self.writer, &line_too_long_error())?;
                            return Ok(StepOutcome::Closed);
                        }
                        // Drained lines are never parsed; any bytes do.
                        LineRead::Invalid | LineRead::Line => {}
                    }
                }
                error_response(&err)
            }
        };
        writeln!(self.writer, "{}", response.render())?;
        self.writer.flush()?;
        Ok(StepOutcome::Continue)
    }
}

/// Outcome of one bounded request-line read.
enum LineRead {
    /// Clean end of stream.
    Eof,
    /// A complete line (newline seen within the cap).
    Line,
    /// The cap was hit before a newline arrived.
    Overflow,
    /// The line fit the cap but is not valid UTF-8.
    Invalid,
}

/// Reads one request line through a [`Read::take`] guard so an unterminated
/// line cannot grow past [`MAX_REQUEST_LINE_BYTES`].
///
/// Bytes are read raw (`read_until`) and UTF-8 validated *after* the length
/// check: validating first would turn a cap boundary that splits a
/// multi-byte character into an `InvalidData` I/O error, silently dropping
/// the connection instead of answering the documented structured error.
fn read_bounded_line<R: BufRead>(reader: &mut R, line: &mut String) -> std::io::Result<LineRead> {
    line.clear();
    let mut bytes = Vec::new();
    let read = (&mut *reader)
        .take(MAX_REQUEST_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut bytes)?;
    if read == 0 {
        return Ok(LineRead::Eof);
    }
    if read > MAX_REQUEST_LINE_BYTES {
        return Ok(LineRead::Overflow);
    }
    match String::from_utf8(bytes) {
        Ok(text) => {
            *line = text;
            Ok(LineRead::Line)
        }
        Err(_) => Ok(LineRead::Invalid),
    }
}

fn line_too_long_error() -> ServiceError {
    ServiceError::Protocol(format!(
        "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes; closing connection"
    ))
}

fn invalid_utf8_error() -> ServiceError {
    ServiceError::Protocol("request line is not valid UTF-8; closing connection".to_string())
}

/// Writes one structured error line before the caller drops the connection.
fn refuse<W: Write>(writer: &mut W, err: &ServiceError) -> std::io::Result<()> {
    writeln!(writer, "{}", error_response(err).render())?;
    writer.flush()
}

/// [`StreamSink`] over the connection writer: one JSON line per call.
struct WriterSink<'a, W: Write> {
    writer: &'a mut W,
}

impl<W: Write> StreamSink for WriterSink<'_, W> {
    fn begin(&mut self, header: &StreamHeader) -> std::io::Result<()> {
        writeln!(self.writer, "{}", stream_header_response(header).render())?;
        self.writer.flush()
    }

    fn rows(&mut self, rows: &[Vec<NodeId>]) -> std::io::Result<()> {
        writeln!(self.writer, "{}", stream_rows_frame(rows).render())?;
        self.writer.flush()
    }
}

/// Outcome of reading a batch's continuation lines.
enum BatchRead {
    /// All lines parsed.
    Set(QuerySet),
    /// At least one line failed to parse (all lines were still consumed so
    /// the connection stays in sync).
    Failed(ServiceError),
    /// A continuation line overflowed the request-line cap; the connection
    /// cannot be resynchronized and must be dropped.
    Overflow,
}

/// Reads the `count` continuation lines of a `BATCH` request.
///
/// All `count` lines are consumed even when one fails to parse — bailing
/// early would leave the remaining continuation lines in the stream to be
/// misread as top-level commands, desynchronizing the request/response
/// pairing for the rest of the connection.  (`count` was validated against
/// [`MAX_BATCH_QUERIES`] by the protocol parser.)
fn read_batch<R: BufRead>(
    reader: &mut R,
    target: String,
    count: usize,
) -> std::io::Result<BatchRead> {
    let mut set = QuerySet::new(target);
    let mut first_error = None;
    let mut line = String::new();
    for index in 0..count {
        match read_bounded_line(reader, &mut line)? {
            LineRead::Eof => {
                return Ok(BatchRead::Failed(ServiceError::Protocol(format!(
                    "connection closed after {index} of {count} batch query lines"
                ))));
            }
            LineRead::Overflow => return Ok(BatchRead::Overflow),
            LineRead::Invalid => {
                // The newline framing held, so the connection stays in sync;
                // the garbage line just fails like any unparsable query.
                first_error = first_error.or(Some(invalid_utf8_error()));
                continue;
            }
            LineRead::Line => {}
        }
        match parse_batch_query(&line) {
            Ok(spec) => {
                set.push(spec);
            }
            Err(err) => first_error = first_error.or(Some(err)),
        }
    }
    Ok(match first_error {
        Some(err) => BatchRead::Failed(err),
        None => BatchRead::Set(set),
    })
}
