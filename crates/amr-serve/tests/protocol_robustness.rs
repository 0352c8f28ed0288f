//! Hostile-input robustness at the server's socket boundary (the
//! service-layer mirror of `h5lite`'s `index_corruption` suite):
//! truncated frames, lying length prefixes, garbage opcodes, absurd
//! element counts, and mid-request disconnects must produce typed
//! errors or clean connection drops — never a panic, never a
//! length-prefix-sized allocation, and never a wedged server.

use amr_serve::prelude::*;
use amr_serve::protocol::{read_frame, write_frame, Request, Response};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn start_server() -> (Server, SocketAddr) {
    let mut server = Server::new(ServeConfig::default());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    (server, addr)
}

/// The server is healthy iff a fresh client can complete a stats call.
fn assert_server_alive(addr: SocketAddr) {
    let mut c = Client::connect_tcp(addr).expect("server must accept new connections");
    c.stats().expect("server must answer stats");
}

fn read_error_frame(stream: &mut TcpStream) -> (ErrorCode, String) {
    let payload = read_frame(stream, 1 << 20).expect("a response frame");
    match Response::decode(&payload).expect("decodable response") {
        Response::Error { code, message } => (code, message),
        other => panic!("expected error response, got {other:?}"),
    }
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let (server, addr) = start_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Claim a 4 GiB frame. The server must answer with a typed BadFrame
    // error and close — long before any such buffer could be allocated.
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    stream.write_all(&[0u8; 16]).unwrap();
    let (code, message) = read_error_frame(&mut stream);
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(
        message.contains("exceeds"),
        "message should name the cap: {message}"
    );
    // Framing is unrecoverable: the connection must be closed.
    let mut byte = [0u8; 1];
    assert_eq!(stream.read(&mut byte).unwrap_or(0), 0, "server must close");
    assert_server_alive(addr);
    server.shutdown_and_join();
}

#[test]
fn truncated_frame_then_disconnect_drops_cleanly() {
    let (server, addr) = start_server();
    for cut in [1usize, 3, 4, 5, 12] {
        let mut stream = TcpStream::connect(addr).unwrap();
        // A frame that promises 100 bytes, delivers `cut`, then hangs up
        // (including cuts inside the length prefix itself).
        let mut frame = Vec::new();
        frame.extend_from_slice(&100u32.to_le_bytes());
        frame.extend_from_slice(&[0x05; 100]);
        stream.write_all(&frame[..cut]).unwrap();
        drop(stream);
    }
    assert_server_alive(addr);
    server.shutdown_and_join();
}

#[test]
fn garbage_opcode_gets_typed_error_and_connection_survives() {
    let (server, addr) = start_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Well-framed, nonsense opcode 0x7E.
    write_frame(&mut stream, &[0x7E, 1, 2, 3]).unwrap();
    let (code, message) = read_error_frame(&mut stream);
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("opcode"), "{message}");
    // The frame boundary was respected, so the same connection keeps
    // working with a valid request.
    write_frame(&mut stream, &Request::Stats.encode()).unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Stats(_)
    ));
    assert_server_alive(addr);
    server.shutdown_and_join();
}

#[test]
fn absurd_embedded_counts_do_not_allocate() {
    let (server, addr) = start_server();
    // An Open whose path-length field claims ~4 GiB inside a tiny body:
    // opcode 0x01 + u32 length + 4 bytes of "path".
    let mut payload = vec![0x01u8];
    payload.extend_from_slice(&0xFFFF_FF00u32.to_le_bytes());
    payload.extend_from_slice(b"oops");
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &payload).unwrap();
    let (code, _) = read_error_frame(&mut stream);
    assert_eq!(code, ErrorCode::BadFrame);
    assert_server_alive(addr);
    server.shutdown_and_join();
}

#[test]
fn truncated_bodies_of_every_request_get_typed_errors() {
    let (server, addr) = start_server();
    let requests = [
        Request::Open {
            path: "/tmp/x".into(),
        },
        Request::Close { handle: 7 },
        Request::Point {
            handle: 1,
            field: 0,
            p: [1, 2, 3],
        },
        Request::Plane {
            handle: 1,
            field: 0,
            level: 0,
            axis: 2,
            coord: 5,
        },
        Request::Roi {
            handle: 1,
            field: 0,
            lo: [0; 3],
            hi: [7; 3],
            select: WireSelect::All,
        },
        Request::Region {
            handle: 1,
            field: 0,
            level: 1,
            lo: [0; 3],
            hi: [3; 3],
        },
    ];
    let mut stream = TcpStream::connect(addr).unwrap();
    for req in &requests {
        let full = req.encode();
        // Cut the body (keep the opcode) — a well-framed but truncated
        // payload must come back as a typed error on a live connection.
        let cut = &full[..full.len() - 3];
        write_frame(&mut stream, cut).unwrap();
        let (code, _) = read_error_frame(&mut stream);
        assert_eq!(code, ErrorCode::BadFrame, "request {req:?}");
    }
    // Still alive after six malformed bodies on one connection.
    write_frame(&mut stream, &Request::Stats.encode()).unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Stats(_)
    ));
    server.shutdown_and_join();
}

#[test]
fn queries_on_handles_never_opened_are_typed_errors() {
    let (server, addr) = start_server();
    let mut client = Client::connect_tcp(addr).unwrap();
    for result in [
        client.point(42, 0, [0, 0, 0]).map(|_| ()),
        client
            .roi(42, 0, [0; 3], [7; 3], WireSelect::All)
            .map(|_| ()),
        client.close_handle(42),
    ] {
        match result.unwrap_err() {
            ServeError::Remote { code, .. } => assert_eq!(code, ErrorCode::BadHandle),
            other => panic!("expected BadHandle, got {other}"),
        }
    }
    // Opening a non-plotfile is a typed OpenFailed, not a dropped
    // connection.
    match client.open("/definitely/not/a/plotfile.h5l").unwrap_err() {
        ServeError::Remote { code, .. } => assert_eq!(code, ErrorCode::OpenFailed),
        other => panic!("expected OpenFailed, got {other}"),
    }
    assert!(client.stats().is_ok());
    server.shutdown_and_join();
}

#[test]
fn open_on_forged_plotfile_metadata_is_open_failed() {
    // Well-formed containers whose `meta/*` datasets lie: a level count
    // that would size an abort-scale allocation, zero ranks, an owner
    // past the rank count, an inverted box. `Open` parses the metadata on
    // the connection thread; a panic there would take the connection down.
    // [nlevels, nfields, nranks, bf, remove_redundancy | nx, ny, nz, nboxes, ratio]
    let header = [1.0, 1.0, 1.0, 8.0, 1.0, 8.0, 8.0, 8.0, 1.0, 0.0];
    let boxes = [0.0, 0.0, 0.0, 7.0, 7.0, 7.0, 0.0];
    let forge = |at: usize, v: f64, box_at: usize, bv: f64| {
        let (mut h, mut b) = (header, boxes);
        h[at] = v;
        b[box_at] = bv;
        (h, b)
    };
    let forged = [
        forge(0, 1e12, 6, 0.0),
        forge(2, 0.0, 6, 0.0),
        forge(0, 1.0, 6, 5.0),
        forge(0, 1.0, 3, -1.0),
    ];
    let (server, addr) = start_server();
    let mut client = Client::connect_tcp(addr).unwrap();
    let dir = h5lite::testutil::TempDir::new("amr-serve-forged-meta");
    for (i, (header, boxes)) in forged.iter().enumerate() {
        let path = dir.file(&format!("forged-{i}.h5l"));
        let w = h5lite::H5Writer::create(&path).unwrap();
        for (name, values) in [
            ("meta/header", &header[..]),
            ("meta/field_names", &[1.0, f64::from(b'a')][..]),
            ("meta/level_0/boxes", &boxes[..]),
        ] {
            w.write_dataset(name, values, values.len(), &h5lite::NoFilter)
                .unwrap();
        }
        w.finish().unwrap();
        match client.open(path.to_str().unwrap()).unwrap_err() {
            ServeError::Remote { code, message } => {
                assert_eq!(code, ErrorCode::OpenFailed, "forgery {i}: {message}")
            }
            other => panic!("forgery {i}: expected OpenFailed, got {other}"),
        }
        assert!(
            client.stats().is_ok(),
            "forgery {i}: connection must survive"
        );
    }
    assert_eq!(client.stats().unwrap().open_files, 0);
    assert_server_alive(addr);
    server.shutdown_and_join();
}

/// `f` on its own thread, failing the test if it has not returned within
/// ten seconds (a client that lost framing used to block on a length
/// that never arrives).
fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()).ok());
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("call hung")
}

#[test]
fn client_rejects_oversized_response_frames() {
    let (server, addr) = start_server();
    // A client with an 8-byte response cap: the stats response is larger,
    // so the client must refuse it *before* allocating.
    let mut client = Client::connect_tcp(addr)
        .unwrap()
        .with_max_response_frame(8);
    match client.stats().unwrap_err() {
        ServeError::FrameTooLarge { cap, .. } => assert_eq!(cap, 8),
        other => panic!("expected FrameTooLarge, got {other}"),
    }
    // The refused frame is still in the socket: a second call must not
    // take its bytes for a length prefix.
    let second = within_watchdog(move || client.stats());
    assert!(
        matches!(second, Err(ServeError::Disconnected)),
        "{second:?}"
    );
    assert_server_alive(addr);
    server.shutdown_and_join();
}

#[test]
fn client_survives_body_errors_and_fails_fast_after_framing_errors() {
    // A scripted peer: a well-framed body that does not decode, a typed
    // error answer, a good answer, then a frame that ends after 10 of its
    // 100 bytes.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let bad_query = Response::Error {
            code: ErrorCode::BadQuery,
            message: "field 99 out of range".into(),
        };
        let replies = [
            vec![0x7E, 1, 2, 3],
            bad_query.encode(),
            Response::Closed.encode(),
        ];
        for reply in &replies {
            read_frame(&mut stream, 1 << 20).unwrap();
            write_frame(&mut stream, reply).unwrap();
        }
        read_frame(&mut stream, 1 << 20).unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0x86; 10]).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // Requests that still arrive before the client hangs up.
        std::iter::from_fn(|| read_frame(&mut stream, 1 << 20).ok()).count()
    });
    let mut client = Client::connect_tcp(addr).unwrap();
    let results = within_watchdog(move || {
        [
            client.close_handle(1), // body error inside an intact frame
            client.close_handle(1), // typed error answer
            client.close_handle(1), // the same client still works
            client.close_handle(1), // the response breaks off mid-frame
            client.close_handle(1), // broken: the socket is not touched
        ]
    });
    assert!(
        matches!(
            results,
            [
                Err(ServeError::Frame(_)),
                Err(ServeError::Remote {
                    code: ErrorCode::BadQuery,
                    ..
                }),
                Ok(()),
                Err(ServeError::Disconnected),
                Err(ServeError::Disconnected),
            ]
        ),
        "{results:?}"
    );
    assert_eq!(peer.join().unwrap(), 0, "the fifth call sent nothing");
}

#[test]
fn mid_request_disconnect_storm_leaves_server_healthy() {
    let (server, addr) = start_server();
    let handles: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                // Half-written Stats requests, dropped at random points.
                let frame = {
                    let mut f = Vec::new();
                    f.extend_from_slice(&1u32.to_le_bytes());
                    f.push(0x07);
                    f
                };
                stream.write_all(&frame[..1 + (i % frame.len())]).ok();
                // Connection dropped here, mid-frame for most i.
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_server_alive(addr);
    server.shutdown_and_join();
}
