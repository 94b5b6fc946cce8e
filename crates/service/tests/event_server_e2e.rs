//! End-to-end tests for the event-driven TCP front end (Unix only): framing
//! across arbitrary packet boundaries, parity with the blocking server, a
//! 512-connection soak, and drain-on-`SHUTDOWN`.

#![cfg(unix)]

use sge_graph::{generators, io::write_graph};
use sge_obs::EventLog;
use sge_service::client::run_script;
use sge_service::{EventServer, Server, Service, ServiceConfig};
use sge_wire::protocol::encode_inline_pattern;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn start_event_server(
    service: Arc<Service>,
    log: Option<Arc<EventLog>>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let mut server = EventServer::bind("127.0.0.1:0", service).expect("bind loopback");
    if let Some(log) = log {
        server = server.with_event_log(log);
    }
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("event server run"));
    (addr, handle)
}

fn service_with_k5() -> Arc<Service> {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    service.registry().insert("k5", generators::clique(5, 0));
    service
}

fn triangle() -> String {
    encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)))
}

#[test]
fn event_server_serves_query_batch_stats_shutdown() {
    let log = Arc::new(EventLog::new(64));
    let (addr, server) = start_event_server(service_with_k5(), Some(Arc::clone(&log)));
    let triangle = triangle();
    let script = vec![
        format!("QUERY target=k5 pattern={triangle}"),
        format!("QUERY target=k5 sched=ws:4 pattern={triangle}"),
        "BATCH target=k5 n=2".to_string(),
        format!("pattern={triangle}"),
        format!("pattern={triangle}"),
        "STATS".to_string(),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    assert_eq!(responses.len(), 5, "{responses:?}");
    assert!(responses[0].contains("\"matches\":60"), "{}", responses[0]);
    assert!(responses[0].contains("\"cache_hit\":false"));
    assert!(responses[0].contains("\"routed\":true"), "{}", responses[0]);
    assert!(responses[1].contains("\"cache_hit\":true"));
    assert!(responses[1].contains("work-stealing"));
    assert!(
        responses[1].contains("\"routed\":false"),
        "{}",
        responses[1]
    );
    assert!(responses[2].contains("\"total_matches\":120"));
    assert!(
        responses[3].contains("\"queries_served\":4"),
        "{}",
        responses[3]
    );
    assert!(responses[4].contains("\"shutdown\":true"));
    server.join().expect("event server exits after SHUTDOWN");

    // Lifecycle events mirror the blocking server's, ending in a clean drain.
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
        lines.last().unwrap().contains("\"clean\":true"),
        "drain must complete cleanly: {lines:?}"
    );
}

/// Replaces the value after every volatile (timing-derived) key so two
/// responses can be compared byte-for-byte.
fn scrub_volatile(block: &str) -> String {
    const VOLATILE: [&str; 2] = ["_seconds\":", "_per_second\":"];
    let mut out = String::new();
    let mut rest = block;
    loop {
        let hit = VOLATILE
            .iter()
            .filter_map(|key| rest.find(key).map(|pos| pos + key.len()))
            .min();
        match hit {
            Some(end) => {
                out.push_str(&rest[..end]);
                out.push('0');
                let tail = &rest[end..];
                let stop = tail.find([',', '}']).unwrap_or(tail.len());
                rest = &tail[stop..];
            }
            None => {
                out.push_str(rest);
                return out;
            }
        }
    }
}

#[test]
fn responses_match_the_threaded_server_byte_for_byte() {
    // One deterministic worker so batched cache_hit flags cannot race.
    let config = || ServiceConfig {
        batch_workers: 1,
        ..ServiceConfig::default()
    };
    let triangle = triangle();
    let edge = encode_inline_pattern(&write_graph(&generators::directed_path(2, 0)));
    let script = vec![
        format!("QUERY target=k5 pattern={triangle}"),
        format!("QUERY target=k5 sched=ws:4 pattern={triangle}"),
        format!("QUERY target=k5 sched=auto collect=100 pattern={edge}"),
        format!("EXPLAIN target=k5 pattern={triangle}"),
        format!("EXPLAIN ANALYZE target=k5 pattern={triangle}"),
        "BATCH target=k5 n=2".to_string(),
        format!("pattern={triangle}"),
        format!("algo=ri-ds pattern={edge}"),
        format!("QUERY target=k5 emit=stream chunk=7 pattern={triangle}"),
        "FROB nonsense".to_string(),
        "SHUTDOWN".to_string(),
    ];

    let threaded = {
        let service = Arc::new(Service::new(config()));
        service.registry().insert("k5", generators::clique(5, 0));
        let server = Server::bind("127.0.0.1:0", service).expect("bind");
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().expect("run"));
        let responses = run_script(addr, &script).expect("threaded script");
        handle.join().unwrap();
        responses
    };
    let event_driven = {
        let service = Arc::new(Service::new(config()));
        service.registry().insert("k5", generators::clique(5, 0));
        let (addr, handle) = start_event_server(service, None);
        let responses = run_script(addr, &script).expect("event script");
        handle.join().unwrap();
        responses
    };

    assert_eq!(threaded.len(), event_driven.len());
    for (index, (a, b)) in threaded.iter().zip(&event_driven).enumerate() {
        assert_eq!(
            scrub_volatile(a),
            scrub_volatile(b),
            "response {index} differs between front ends"
        );
    }
}

#[test]
fn partial_lines_are_reassembled_across_readiness_events() {
    let (addr, server) = start_event_server(service_with_k5(), None);
    let triangle = triangle();

    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Dribble one QUERY line in three flushes with pauses in between: the
    // loop sees three separate readiness events and must not dispatch
    // until the newline lands.
    let request = format!("QUERY target=k5 pattern={triangle}\n");
    let bytes = request.as_bytes();
    for chunk in bytes.chunks(bytes.len() / 3 + 1) {
        writer.write_all(chunk).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"matches\":60"), "{line}");

    // A BATCH whose continuation lines arrive in a later packet than the
    // header: framing must wait for all announced lines.
    write!(writer, "BATCH target=k5 n=2\npattern={triangle}\n").unwrap();
    writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(30));
    writeln!(writer, "pattern={triangle}").unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"total_matches\":120"), "{line}");

    // Two pipelined requests in one packet still answer in order.
    write!(writer, "STATS\nQUERY target=k5 pattern={triangle}\n").unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"queries_served\":"), "{line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"matches\":60"), "{line}");

    let responses = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn eof_terminated_request_still_answers() {
    let (addr, server) = start_event_server(service_with_k5(), None);
    // No trailing newline, then half-close: EOF finishes the line exactly
    // like the blocking reader's read_until-at-EOF.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"STATS").unwrap();
    writer.flush().unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    let mut reader = stream;
    reader.read_to_string(&mut response).unwrap();
    assert!(response.contains("\"queries_served\":"), "{response}");

    let responses = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn oversized_line_gets_structured_error_and_close() {
    let (addr, server) = start_event_server(service_with_k5(), None);
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let oversized = vec![b'Q'; (1 << 20) + 1];
    writer.write_all(&oversized).unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    let mut reader = stream;
    reader.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("{\"ok\":false,"), "{response}");
    assert!(response.contains("exceeds"), "{response}");

    let responses = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn disconnect_with_response_pending_keeps_the_server_alive() {
    let (addr, server) = start_event_server(service_with_k5(), None);
    let triangle = triangle();
    // Fire a query and vanish without reading the answer — several times,
    // so at least one response hits a closed (or resetting) socket.
    for _ in 0..5 {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "QUERY target=k5 collect=100 pattern={triangle}").unwrap();
        writer.flush().unwrap();
        drop(writer);
        drop(stream);
    }
    // The loop must shrug those off and keep serving everyone else.
    let responses = run_script(
        addr,
        &[
            format!("QUERY target=k5 pattern={triangle}"),
            "SHUTDOWN".to_string(),
        ],
    )
    .expect("fresh connection after disconnects");
    assert!(responses[0].contains("\"matches\":60"), "{}", responses[0]);
    assert!(responses[1].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn soak_512_idle_connections_with_interleaved_queries() {
    let log = Arc::new(EventLog::new(64));
    let service = service_with_k5();
    let (addr, server) = start_event_server(Arc::clone(&service), Some(Arc::clone(&log)));
    let triangle = triangle();

    // 512 concurrent connections held open; every 16th runs a query while
    // the rest sit idle (one pollfd each, no parked threads).
    let mut idle = Vec::new();
    let mut active = Vec::new();
    for i in 0..512 {
        let stream = TcpStream::connect(addr).expect("connect under soak");
        if i % 16 == 0 {
            active.push(stream);
        } else {
            idle.push(stream);
        }
    }
    for stream in &mut active {
        writeln!(stream, "QUERY target=k5 pattern={triangle}").unwrap();
        stream.flush().unwrap();
    }
    for stream in active {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"matches\":60"), "soak query answer: {line}");
    }

    // The gauge sees every open connection (the scripted probe adds one).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let open = service.metrics().gauge("service.connections_open").value();
        if open >= 480 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connections_open gauge stuck at {open}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let responses = run_script(addr, &["STATS".to_string(), "SHUTDOWN".to_string()]).unwrap();
    assert!(
        responses[0].contains("\"connections_open\":"),
        "{}",
        responses[0]
    );
    assert!(responses[1].contains("\"shutdown\":true"));
    server
        .join()
        .expect("drain completes with idle connections open");
    let lines = log.recent();
    assert!(lines.last().unwrap().contains("\"drained\""), "{lines:?}");
    drop(idle);
    // Every connection was accounted for on shutdown.
    assert_eq!(
        service.metrics().gauge("service.connections_open").value(),
        0,
        "gauge returns to zero after drain"
    );
}
