//! The event-driven TCP front end.
//!
//! One thread runs a readiness loop over a nonblocking listener, a wake
//! pipe and every client socket (raw `poll(2)` via [`sge_util::poll`] — no
//! crates, no registration lifecycle to leak).  The loop owns *transport*
//! concerns: it frames requests out of whatever bytes the network delivers
//! (a connection's buffer becomes a dispatchable *unit* once the request
//! line — plus, for `BATCH`, its announced continuation lines — has fully
//! arrived), hands each unit to a small worker pool, and drains responses
//! back to the socket under `POLLOUT` backpressure.  The workers own
//! nothing protocol-specific either: they drive the same [`Connection`]
//! state machine the blocking server and the deterministic simulator use,
//! over an in-memory cursor, so parsing, the request-line cap and every
//! error shape stay single-sourced in [`crate::connection`].
//!
//! The payoff is capacity: an idle connection costs one pollfd and two
//! empty buffers instead of a parked thread, so one process holds
//! thousands of keep-alive clients while enumeration runs on the worker
//! pool.  At most one unit per connection is in flight, and the next one
//! is not framed until the previous response has fully drained — a slow
//! reader backpressures its own pipeline, never the loop.
//!
//! `SHUTDOWN` answers, stops accepting, waits for in-flight workers and
//! pending writes up to the drain deadline on the service clock (idle
//! connections hold no half-written response and are abandoned), then
//! returns — the same drain semantics as the blocking [`crate::Server`].

use crate::connection::{Backend, Connection, StepOutcome};
use crate::server::log_event;
use sge_obs::{EventLog, Gauge};
use sge_util::poll::{poll_entries, PollEntry, POLLIN, POLLOUT};
use sge_wire::json::Json;
use sge_wire::protocol::{MAX_BATCH_QUERIES, MAX_REQUEST_LINE_BYTES};
use std::collections::HashMap;
use std::io::{BufReader, Cursor, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long [`EventServer::run`] waits for in-flight work after `SHUTDOWN`.
const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Poll timeout while serving: completions arrive through the wake pipe,
/// so the tick only bounds how stale a spurious wakeup can be.
const IDLE_POLL_TIMEOUT_MS: i32 = 500;

/// Poll timeout while draining: short, so the drain deadline on the
/// service clock is observed promptly.
const DRAIN_POLL_TIMEOUT_MS: i32 = 25;

/// Socket read granularity; the loop keeps reading until `WouldBlock`, so
/// this bounds copies, not throughput.
const READ_CHUNK: usize = 16 * 1024;

/// A bound, not-yet-running event-driven server.
pub struct EventServer {
    listener: TcpListener,
    service: Arc<dyn Backend>,
    drain_timeout: Duration,
    event_log: Option<Arc<EventLog>>,
    workers: usize,
}

impl EventServer {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind<B: Backend + 'static>(
        addr: impl ToSocketAddrs,
        service: Arc<B>,
    ) -> std::io::Result<EventServer> {
        Ok(EventServer {
            listener: TcpListener::bind(addr)?,
            service,
            drain_timeout: DEFAULT_DRAIN_TIMEOUT,
            event_log: None,
            workers: default_workers(),
        })
    }

    /// Sets how long `run` waits for in-flight work after `SHUTDOWN`.
    pub fn with_drain_timeout(mut self, timeout: Duration) -> EventServer {
        self.drain_timeout = timeout;
        self
    }

    /// Attaches a structured event log (same lifecycle events as the
    /// blocking server: `listening`, `conn_open`, `conn_close`, `shutdown`,
    /// `drained`).
    pub fn with_event_log(mut self, log: Arc<EventLog>) -> EventServer {
        // Share the log with the service so non-lifecycle events (bitmap
        // cap fallbacks on LOAD) land in the same stream.
        self.service.set_event_log(Arc::clone(&log));
        self.event_log = Some(log);
        self
    }

    /// Sizes the worker pool that executes framed requests (default: one
    /// per core, at least two so a long enumeration cannot starve `STATS`).
    pub fn with_workers(mut self, workers: usize) -> EventServer {
        self.workers = workers.max(1);
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a client issues `SHUTDOWN`, then drains.
    pub fn run(self) -> std::io::Result<()> {
        let local_addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        // The wake pipe interrupts `poll` when a worker finishes: the read
        // end joins the poll set, the write end is cloned into every worker.
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;

        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let mut worker_handles = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let job_rx = Arc::clone(&job_rx);
            let completions = Arc::clone(&completions);
            let service = Arc::clone(&self.service);
            let wake = wake_tx.try_clone()?;
            worker_handles.push(std::thread::spawn(move || {
                worker_loop(job_rx, completions, service, wake)
            }));
        }

        log_event(
            self.event_log.as_deref(),
            self.service.as_ref(),
            "listening",
            vec![("addr", Json::str(local_addr.to_string()))],
        );

        let gauge = self.service.connections_gauge();
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_conn_id: u64 = 0;
        let mut shutting_down = false;
        let mut drain_deadline = Duration::MAX;
        let mut clean = true;

        'event_loop: loop {
            // 1. Fold finished work back into connection state.
            let finished: Vec<Completion> = {
                let mut queue = completions.lock().unwrap_or_else(|p| p.into_inner());
                std::mem::take(&mut *queue)
            };
            for done in finished {
                let Some(conn) = conns.get_mut(&done.conn) else {
                    continue; // connection died while its request ran
                };
                conn.busy = false;
                conn.write_buf.extend_from_slice(&done.output);
                match done.outcome {
                    StepOutcome::Continue => {}
                    StepOutcome::Closed => conn.close_after_write = true,
                    StepOutcome::ShutdownRequested => {
                        conn.close_after_write = true;
                        if !shutting_down {
                            shutting_down = true;
                            drain_deadline = self
                                .service
                                .clock()
                                .now()
                                .saturating_add(self.drain_timeout);
                            log_event(
                                self.event_log.as_deref(),
                                self.service.as_ref(),
                                "shutdown",
                                vec![("conn", Json::U64(done.conn))],
                            );
                        }
                    }
                }
                // Common case: the socket is writable right now — flush
                // without waiting a poll round.
                if flush_write(conn).is_err() {
                    conn.dead = true;
                }
            }

            // 2. Frame and dispatch ready requests.  One unit in flight per
            //    connection, and only once the previous response drained.
            if !shutting_down {
                for (&id, conn) in conns.iter_mut() {
                    if conn.busy || conn.dead || conn.close_after_write {
                        continue;
                    }
                    if !conn.write_buf.is_empty() {
                        continue;
                    }
                    if let Some(len) = extract_unit(&conn.read_buf, conn.read_closed) {
                        let bytes: Vec<u8> = conn.read_buf.drain(..len).collect();
                        conn.busy = true;
                        if job_tx.send(Job { conn: id, bytes }).is_err() {
                            conn.dead = true; // workers are gone; nothing can serve this
                        }
                    }
                }
            }

            // 3. Reap connections that are finished.
            let finished_ids: Vec<u64> = conns
                .iter()
                .filter(|(_, conn)| conn.finished())
                .map(|(&id, _)| id)
                .collect();
            for id in finished_ids {
                conns.remove(&id);
                close_conn(&gauge, self.event_log.as_deref(), self.service.as_ref(), id);
            }

            // 4. Drain: exit once nothing is in flight, or at the deadline
            //    on the service clock (idle connections are abandoned).
            if shutting_down {
                let in_flight = conns
                    .values()
                    .any(|conn| conn.busy || !conn.write_buf.is_empty());
                if !in_flight {
                    break 'event_loop;
                }
                if self.service.clock().now() >= drain_deadline {
                    clean = false;
                    break 'event_loop;
                }
            }

            // 5. Build the poll set.  Busy connections are not polled: their
            //    next event is a completion, which arrives via the wake pipe.
            let mut entries = Vec::with_capacity(conns.len() + 2);
            let mut slots: Vec<PollSlot> = Vec::with_capacity(conns.len() + 2);
            if !shutting_down {
                entries.push(PollEntry::new(self.listener.as_raw_fd(), POLLIN));
                slots.push(PollSlot::Listener);
            }
            entries.push(PollEntry::new(wake_rx.as_raw_fd(), POLLIN));
            slots.push(PollSlot::Wake);
            for (&id, conn) in conns.iter() {
                let mut events: i16 = 0;
                if !conn.busy
                    && !conn.read_closed
                    && !conn.close_after_write
                    && conn.write_buf.is_empty()
                {
                    events |= POLLIN;
                }
                if !conn.write_buf.is_empty() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    entries.push(PollEntry::new(conn.stream.as_raw_fd(), events));
                    slots.push(PollSlot::Conn(id));
                }
            }
            let timeout = if shutting_down {
                DRAIN_POLL_TIMEOUT_MS
            } else {
                IDLE_POLL_TIMEOUT_MS
            };
            poll_entries(&mut entries, timeout)?;

            // 6. Handle readiness.
            for (entry, slot) in entries.iter().zip(&slots) {
                match slot {
                    PollSlot::Listener => {
                        if !entry.readable() {
                            continue;
                        }
                        loop {
                            match self.listener.accept() {
                                Ok((stream, peer)) => {
                                    if stream.set_nonblocking(true).is_err() {
                                        continue;
                                    }
                                    next_conn_id += 1;
                                    gauge.inc();
                                    log_event(
                                        self.event_log.as_deref(),
                                        self.service.as_ref(),
                                        "conn_open",
                                        vec![
                                            ("conn", Json::U64(next_conn_id)),
                                            ("peer", Json::str(peer.to_string())),
                                        ],
                                    );
                                    conns.insert(next_conn_id, Conn::new(stream));
                                }
                                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                                Err(_) => break, // transient failure; retry next round
                            }
                        }
                    }
                    PollSlot::Wake => {
                        if entry.readable() {
                            let mut sink = [0u8; 64];
                            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                        }
                    }
                    PollSlot::Conn(id) => {
                        let Some(conn) = conns.get_mut(id) else {
                            continue;
                        };
                        if entry.readable() && fill_read(conn).is_err() {
                            conn.dead = true;
                            continue;
                        }
                        if (entry.writable() || entry.hangup() || entry.error())
                            && flush_write(conn).is_err()
                        {
                            conn.dead = true;
                        }
                    }
                }
            }
        }

        // Stop the workers (closing the job channel ends their recv loop),
        // then account for every abandoned connection.
        drop(job_tx);
        for handle in worker_handles {
            let _ = handle.join();
        }
        let abandoned: Vec<u64> = conns.keys().copied().collect();
        for id in abandoned {
            close_conn(&gauge, self.event_log.as_deref(), self.service.as_ref(), id);
        }
        log_event(
            self.event_log.as_deref(),
            self.service.as_ref(),
            "drained",
            vec![("clean", Json::Bool(clean))],
        );
        Ok(())
    }
}

/// One per core, at least two: a single worker would let one long
/// enumeration starve every other connection's `STATS`/`METRICS`.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// What the poll-set slot at the same index refers to.
enum PollSlot {
    Listener,
    Wake,
    Conn(u64),
}

/// Per-connection state the readiness loop owns.
struct Conn {
    stream: std::net::TcpStream,
    /// Bytes received but not yet framed into a request unit.
    read_buf: Vec<u8>,
    /// Response bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// A worker is executing this connection's current request unit.
    busy: bool,
    /// The peer half-closed (or closed) its sending direction.
    read_closed: bool,
    /// Flush `write_buf`, then close (protocol violation or `SHUTDOWN`).
    close_after_write: bool,
    /// Transport error; drop without further I/O.
    dead: bool,
}

impl Conn {
    fn new(stream: std::net::TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            busy: false,
            read_closed: false,
            close_after_write: false,
            dead: false,
        }
    }

    fn finished(&self) -> bool {
        if self.dead {
            return true;
        }
        if self.busy || !self.write_buf.is_empty() {
            return false;
        }
        self.close_after_write || (self.read_closed && self.read_buf.is_empty())
    }
}

/// One framed request handed to the worker pool.
struct Job {
    conn: u64,
    bytes: Vec<u8>,
}

/// A worker's result: the response bytes plus the state-machine verdict.
struct Completion {
    conn: u64,
    output: Vec<u8>,
    outcome: StepOutcome,
}

/// Executes framed requests: each unit is replayed through the shared
/// [`Connection`] state machine over an in-memory cursor, so the worker
/// produces byte-identical responses to the blocking server.
fn worker_loop(
    jobs: Arc<Mutex<Receiver<Job>>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    service: Arc<dyn Backend>,
    mut wake: UnixStream,
) {
    loop {
        let job = {
            let rx = jobs.lock().unwrap_or_else(|p| p.into_inner());
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // job channel closed: server is done
            }
        };
        let mut output: Vec<u8> = Vec::new();
        let outcome = {
            let mut conn = Connection::new(BufReader::new(Cursor::new(job.bytes)), &mut output);
            // Cursor and Vec cannot fail; an Err here is unreachable, but
            // mapping it to Closed keeps the loop total.
            conn.step(service.as_ref()).unwrap_or(StepOutcome::Closed)
        };
        completions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Completion {
                conn: job.conn,
                output,
                outcome,
            });
        // A full pipe already guarantees a pending wake; any other failure
        // means the loop is gone and the completion dies with it.
        let _ = wake.write(&[1u8]);
    }
}

/// Returns the byte length of the first complete request unit in `buf`, or
/// `None` when more bytes must arrive first.
///
/// A unit is one request line plus, for `BATCH`, the continuation lines its
/// header announces — exactly what [`Connection::step`] consumes.  Three
/// boundary cases dispatch *incomplete* bytes on purpose, because the state
/// machine's bounded reader already produces the documented outcome for
/// them: an unterminated line past the request-line cap (step answers the
/// structured overflow error and closes), a header announcing more
/// continuations than the batch cap (step refuses it without reading them),
/// and EOF (step sees the same truncated stream a blocking reader would).
fn extract_unit(buf: &[u8], read_closed: bool) -> Option<usize> {
    let mut start = 0;
    let mut lines_needed = 1;
    let mut found = 0;
    loop {
        match buf[start..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let end = start + offset + 1;
                found += 1;
                if found == 1 {
                    let header = String::from_utf8_lossy(&buf[..end]);
                    let announced = crate::client::continuation_lines(&header);
                    if announced > MAX_BATCH_QUERIES {
                        return Some(end);
                    }
                    lines_needed += announced;
                }
                if found == lines_needed {
                    return Some(end);
                }
                start = end;
            }
            None => {
                return if buf.len() - start > MAX_REQUEST_LINE_BYTES
                    || (read_closed && !buf.is_empty())
                {
                    Some(buf.len())
                } else {
                    None
                };
            }
        }
    }
}

/// Reads everything the socket has (until `WouldBlock`); EOF sets
/// `read_closed` instead of erroring.
fn fill_read(conn: &mut Conn) -> std::io::Result<()> {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                return Ok(());
            }
            Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
            Err(err) if err.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
}

/// Writes as much of `write_buf` as the socket accepts.
fn flush_write(conn: &mut Conn) -> std::io::Result<()> {
    let mut written = 0;
    while written < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[written..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(err) if err.kind() == ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    conn.write_buf.drain(..written);
    Ok(())
}

/// Accounts for one closed connection: gauge decrement plus lifecycle log.
fn close_conn(gauge: &Gauge, log: Option<&EventLog>, service: &dyn Backend, id: u64) {
    gauge.dec();
    log_event(log, service, "conn_close", vec![("conn", Json::U64(id))]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_unit_waits_for_the_newline() {
        assert_eq!(extract_unit(b"STATS", false), None);
        assert_eq!(extract_unit(b"STATS\n", false), Some(6));
        assert_eq!(extract_unit(b"STATS\nMETRICS\n", false), Some(6));
    }

    #[test]
    fn extract_unit_groups_batch_continuations() {
        let buf = b"BATCH target=k5 n=2\npattern=x\n";
        assert_eq!(extract_unit(buf, false), None, "one continuation missing");
        let full = b"BATCH target=k5 n=2\npattern=x\npattern=y\nNEXT\n";
        assert_eq!(extract_unit(full, false), Some(full.len() - 5));
    }

    #[test]
    fn extract_unit_dispatches_eof_tails_and_overflows() {
        // EOF turns a dangling partial line into a final unit.
        assert_eq!(extract_unit(b"STATS", true), Some(5));
        assert_eq!(extract_unit(b"", true), None);
        // An unterminated line past the cap dispatches so the state machine
        // can answer the structured overflow error.
        let oversized = vec![b'x'; MAX_REQUEST_LINE_BYTES + 1];
        assert_eq!(extract_unit(&oversized, false), Some(oversized.len()));
        // An over-cap announcement dispatches the bare header: step refuses
        // it without waiting for (unbounded) continuations.
        let header = format!("BATCH target=k5 n={}\n", MAX_BATCH_QUERIES + 1);
        assert_eq!(extract_unit(header.as_bytes(), false), Some(header.len()));
    }

    #[test]
    fn extract_unit_handles_interleaved_blank_lines() {
        assert_eq!(extract_unit(b"\nSTATS\n", false), Some(1));
        assert_eq!(extract_unit(b"\r\n", false), Some(2));
    }
}
