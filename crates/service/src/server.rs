//! The std-only TCP front end.
//!
//! One thread per connection, newline-delimited requests, one JSON line per
//! response — except streaming queries (`emit=stream`), which answer with a
//! header line, row frames and a footer line (see [`crate::protocol`]).
//! The per-connection request loop itself lives in [`crate::connection`]
//! (transport-generic, so the deterministic simulator drives the same code);
//! this module owns what is irreducibly TCP: binding, the accept loop, the
//! thread-per-connection model, and drain-on-`SHUTDOWN`.
//!
//! `SHUTDOWN` answers, stops the accept loop (a loopback self-connection
//! wakes the blocking `accept`), and the server then waits for in-flight
//! connection handlers on a `ConnectionTracker` — a counter plus condvar,
//! so draining parks instead of burning a sleep-spin — up to a drain
//! deadline measured on the server's injectable [`Clock`].

use crate::connection::{Backend, Connection, StepOutcome};
use sge_obs::EventLog;
use sge_wire::json::Json;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sge_util::Clock;

/// How long [`Server::run`] waits for in-flight connection threads after
/// `SHUTDOWN` before giving up on them (idle keep-alive connections would
/// otherwise hold the process open forever).
const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    service: Arc<dyn Backend>,
    shutdown: Arc<AtomicBool>,
    drain_timeout: Duration,
    event_log: Option<Arc<EventLog>>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).  The backend is
    /// either a plain [`crate::Service`] or a sharded
    /// [`crate::coordinator::Coordinator`] — the accept loop and protocol
    /// handling are identical.
    pub fn bind<B: Backend + 'static>(
        addr: impl ToSocketAddrs,
        service: Arc<B>,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            shutdown: Arc::new(AtomicBool::new(false)),
            drain_timeout: DEFAULT_DRAIN_TIMEOUT,
            event_log: None,
        })
    }

    /// Sets how long `run` waits for in-flight connections after `SHUTDOWN`.
    pub fn with_drain_timeout(mut self, timeout: Duration) -> Server {
        self.drain_timeout = timeout;
        self
    }

    /// Attaches a structured event log: the server records one JSON line per
    /// lifecycle event (`listening`, `conn_open`, `conn_close`, `shutdown`,
    /// `drained`) with timestamps from the service clock.  Without a log the
    /// server pays nothing.
    pub fn with_event_log(mut self, log: Arc<EventLog>) -> Server {
        // Share the log with the service so non-lifecycle events (bitmap
        // cap fallbacks on LOAD) land in the same stream.
        self.service.set_event_log(Arc::clone(&log));
        self.event_log = Some(log);
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a client issues `SHUTDOWN`, then drains:
    /// the server waits for in-flight connection handlers until the drain
    /// deadline expires, so mid-query/mid-write connections finish their
    /// responses before the server returns (idle connections that outlast
    /// the deadline are abandoned — they hold no half-written response).
    pub fn run(self) -> std::io::Result<()> {
        let local_addr = self.listener.local_addr()?;
        let tracker = Arc::new(ConnectionTracker::new());
        let conn_ids = AtomicU64::new(0);
        log_event(
            self.event_log.as_deref(),
            self.service.as_ref(),
            "listening",
            vec![("addr", Json::str(local_addr.to_string()))],
        );
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let conn = conn_ids.fetch_add(1, Ordering::Relaxed) + 1;
            let peer = stream
                .peer_addr()
                .map(|addr| addr.to_string())
                .unwrap_or_else(|_| "unknown".to_string());
            log_event(
                self.event_log.as_deref(),
                self.service.as_ref(),
                "conn_open",
                vec![("conn", Json::U64(conn)), ("peer", Json::str(peer))],
            );
            let service = Arc::clone(&self.service);
            let shutdown = Arc::clone(&self.shutdown);
            let log = self.event_log.clone();
            let guard = tracker.register();
            let gauge = self.service.connections_gauge();
            gauge.inc();
            std::thread::spawn(move || {
                let _live = guard; // deregisters (and wakes the drain) on exit
                                   // Per-connection errors only terminate that connection.
                let _ = handle_connection(
                    stream,
                    &service,
                    &shutdown,
                    local_addr,
                    log.as_deref(),
                    conn,
                );
                gauge.dec();
                log_event(
                    log.as_deref(),
                    service.as_ref(),
                    "conn_close",
                    vec![("conn", Json::U64(conn))],
                );
            });
        }
        // Drain: give in-flight handlers until the deadline to finish.  The
        // deadline is measured on the service's clock, so drain semantics
        // are the same whether time is real or simulated.
        let clock = self.service.clock();
        let clean = tracker.drain(clock.as_ref(), self.drain_timeout);
        log_event(
            self.event_log.as_deref(),
            self.service.as_ref(),
            "drained",
            vec![("clean", Json::Bool(clean))],
        );
        Ok(())
    }
}

/// Records one structured JSON event line when a log is attached; a `None`
/// log costs one branch.  Timestamps come from the service clock, so logs
/// from a simulated service carry virtual time.
pub(crate) fn log_event(
    log: Option<&EventLog>,
    backend: &dyn Backend,
    event: &str,
    fields: Vec<(&str, Json)>,
) {
    let Some(log) = log else { return };
    let mut pairs = vec![
        ("ts_seconds", Json::F64(backend.clock().now().as_secs_f64())),
        ("event", Json::str(event)),
    ];
    pairs.extend(fields);
    log.record(&Json::obj(pairs).render());
}

/// Counts live connection handlers so drain can wait for them to finish
/// without polling.  Handlers hold a [`LiveGuard`]; dropping it decrements
/// the count and wakes any drainer.
struct ConnectionTracker {
    live: Mutex<usize>,
    changed: Condvar,
}

impl ConnectionTracker {
    fn new() -> Self {
        ConnectionTracker {
            live: Mutex::new(0),
            changed: Condvar::new(),
        }
    }

    /// Registers one handler; the guard deregisters on drop.
    fn register(self: &Arc<Self>) -> LiveGuard {
        let mut live = self
            .live
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *live += 1;
        LiveGuard {
            tracker: Arc::clone(self),
        }
    }

    /// Waits until every registered handler finished or `timeout` elapsed on
    /// `clock`.  Returns `true` when the drain completed (no live handlers).
    fn drain(&self, clock: &dyn Clock, timeout: Duration) -> bool {
        let deadline = clock.now().saturating_add(timeout);
        let mut live = self
            .live
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        while *live > 0 {
            let now = clock.now();
            if now >= deadline {
                // An idle client is still connected; abandon its handler (it
                // owns no partially-written response) so shutdown completes.
                return false;
            }
            let (guard, _timeout) = self
                .changed
                .wait_timeout(live, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            live = guard;
        }
        true
    }
}

/// RAII registration of one live connection handler.
struct LiveGuard {
    tracker: Arc<ConnectionTracker>,
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        let mut live = self
            .tracker
            .live
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *live = live.saturating_sub(1);
        self.tracker.changed.notify_all();
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &Arc<dyn Backend>,
    shutdown: &AtomicBool,
    local_addr: SocketAddr,
    log: Option<&EventLog>,
    conn: u64,
) -> std::io::Result<()> {
    let writer = stream.try_clone()?;
    let mut connection = Connection::new(BufReader::new(stream), writer);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(()); // server is draining; stop taking requests
        }
        match connection.step(service.as_ref())? {
            StepOutcome::Continue => {}
            StepOutcome::Closed => return Ok(()),
            StepOutcome::ShutdownRequested => {
                shutdown.store(true, Ordering::SeqCst);
                log_event(
                    log,
                    service.as_ref(),
                    "shutdown",
                    vec![("conn", Json::U64(conn))],
                );
                // Wake the blocking accept loop so Server::run observes the
                // flag even with no further client traffic.
                let _ = TcpStream::connect(wake_addr(local_addr));
                return Ok(());
            }
        }
    }
}

/// The address to poke to wake the blocking `accept`: a wildcard bind
/// (`0.0.0.0` / `::`) is not connectable on every platform, so substitute
/// the matching loopback address.
fn wake_addr(local_addr: SocketAddr) -> SocketAddr {
    let mut addr = local_addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_util::{SystemClock, VirtualClock};

    #[test]
    fn tracker_drains_immediately_with_no_handlers() {
        let tracker = Arc::new(ConnectionTracker::new());
        assert!(tracker.drain(&SystemClock::new(), Duration::from_secs(1)));
    }

    #[test]
    fn tracker_waits_for_a_live_handler() {
        let tracker = Arc::new(ConnectionTracker::new());
        let guard = tracker.register();
        let worker = {
            let tracker = Arc::clone(&tracker);
            std::thread::spawn(move || tracker.drain(&SystemClock::new(), Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(10));
        drop(guard);
        assert!(worker.join().unwrap(), "drain should observe the release");
    }

    #[test]
    fn tracker_gives_up_at_the_deadline() {
        let tracker = Arc::new(ConnectionTracker::new());
        let _guard = tracker.register(); // never released
        let clock = SystemClock::new();
        assert!(!tracker.drain(&clock, Duration::from_millis(20)));
    }

    #[test]
    fn event_log_records_the_connection_lifecycle() {
        use std::io::{BufRead, BufReader, Write};
        let service = Arc::new(crate::Service::new(crate::ServiceConfig::default()));
        let log = Arc::new(EventLog::new(64));
        let server = Server::bind("127.0.0.1:0", service)
            .unwrap()
            .with_event_log(Arc::clone(&log));
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"STATS\nSHUTDOWN\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // STATS response
        line.clear();
        reader.read_line(&mut line).unwrap(); // SHUTDOWN response
        drop(reader);
        drop(stream);
        handle.join().unwrap().unwrap();

        let lines = log.recent();
        let events: Vec<String> = lines
            .iter()
            .filter_map(|line| {
                let tail = line.split("\"event\":\"").nth(1)?;
                Some(tail.split('"').next().unwrap_or_default().to_string())
            })
            .collect();
        assert_eq!(events.first().map(String::as_str), Some("listening"));
        assert_eq!(events.last().map(String::as_str), Some("drained"));
        for expected in ["conn_open", "shutdown", "conn_close"] {
            assert!(
                events.iter().any(|event| event == expected),
                "missing {expected} in {events:?}"
            );
        }
        assert!(
            lines.iter().all(|line| line.contains("\"ts_seconds\":")),
            "every event line carries a clock timestamp: {lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|line| line.contains("\"conn\":1") && line.contains("\"peer\":")),
            "conn_open records the id and peer: {lines:?}"
        );
    }

    #[test]
    fn tracker_deadline_respects_an_expired_virtual_clock() {
        // Under simulated time an already-expired deadline abandons the
        // handler without any real-time wait.
        let tracker = Arc::new(ConnectionTracker::new());
        let _guard = tracker.register();
        let clock = VirtualClock::starting_at(Duration::from_secs(100));
        let wall = std::time::Instant::now();
        assert!(!tracker.drain(&clock, Duration::ZERO));
        assert!(wall.elapsed() < Duration::from_secs(1));
    }
}
