//! Hostile-input robustness at the server's socket boundary (the
//! service-layer mirror of `h5lite`'s `index_corruption` suite):
//! truncated frames, lying length prefixes, garbage opcodes, absurd
//! element counts, and mid-request disconnects must produce typed
//! errors or clean connection drops — never a panic, never a
//! length-prefix-sized allocation, and never a wedged server. The client
//! side is held to the same: a region body sizes a dense box from its
//! corners, so hostile corners, patch headers and counts must be typed
//! errors before anything is allocated for them.

use amr_serve::prelude::*;
use amr_serve::protocol::{read_frame, write_frame, Request, Response};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use sz_codec::wire::Writer;

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
    // past the rank count, an inverted box — and sound metadata over a
    // field dataset that carries no chunk index. `Open` parses the
    // metadata on the connection thread; a panic there would take the
    // connection down.
    // [nlevels, nfields, nranks, bf, remove_redundancy | nx, ny, nz, nboxes, ratio]
    let header = [1.0, 1.0, 1.0, 8.0, 1.0, 8.0, 8.0, 8.0, 1.0, 0.0];
    let boxes = [0.0, 0.0, 0.0, 7.0, 7.0, 7.0, 0.0];
    let forge = |at: usize, v: f64, box_at: usize, bv: f64| {
        let (mut h, mut b) = (header, boxes);
        h[at] = v;
        b[box_at] = bv;
        (h, b, None)
    };
    let field = [0.0; 512];
    let forged = [
        forge(0, 1e12, 6, 0.0),
        forge(2, 0.0, 6, 0.0),
        forge(0, 1.0, 6, 5.0),
        forge(0, 1.0, 3, -1.0),
        (header, boxes, Some(&field[..])),
    ];
    let (server, addr) = start_server();
    let mut client = Client::connect_tcp(addr).unwrap();
    let dir = h5lite::testutil::TempDir::new("amr-serve-forged-meta");
    for (i, (header, boxes, field)) in forged.iter().enumerate() {
        let path = dir.file(&format!("forged-{i}.h5l"));
        let w = h5lite::H5Writer::create(&path).unwrap();
        for (name, values) in [
            ("meta/header", &header[..]),
            ("meta/field_names", &[1.0, f64::from(b'a')][..]),
            ("meta/level_0/boxes", &boxes[..]),
        ]
        .into_iter()
        .chain(field.map(|f| ("level_0/field_0", f)))
        {
            w.write_dataset(name, values, values.len(), &h5lite::NoFilter)
                .unwrap();
        }
        w.finish().unwrap();
        match client.open(path.to_str().unwrap()).unwrap_err() {
            ServeError::Remote { code, message } => {
                assert_eq!(code, ErrorCode::OpenFailed, "forgery {i}: {message}");
                assert!(
                    field.is_none() || message.contains("no chunk index"),
                    "{message}"
                );
            }
            other => panic!("forgery {i}: expected OpenFailed, got {other}"),
        }
        assert!(
            client.stats().is_ok(),
            "forgery {i}: connection must survive"
        );
    }
    assert_eq!(client.stats().unwrap().catalog.open_files, 0);
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

/// `(offset, size, values)` of one patch.
type Patch = ([u32; 3], [u32; 3], Vec<f64>);

/// One region body, byte for byte as the format defines it — with
/// whatever patch count, patch headers and values the caller likes.
fn put_region(w: &mut Writer, lo: [i64; 3], hi: [i64; 3], npatches: u32, patches: &[Patch]) {
    w.put_u32(0); // level
    lo.iter().chain(&hi).for_each(|&c| w.put_u64(c as u64));
    w.put_u32(npatches);
    for (offset, size, values) in patches {
        offset.iter().chain(size).for_each(|&v| w.put_u32(v));
        w.put_f64s(values);
    }
}

/// A `Region` payload (opcode `0x88`) holding one such body.
fn region_payload(lo: [i64; 3], hi: [i64; 3], npatches: u32, patches: &[Patch]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(0x88);
    put_region(&mut w, lo, hi, npatches, patches);
    w.into_bytes()
}

/// A `View` payload (opcode `0x89`) of patch-less regions.
fn view_payload(boxes: &[([i64; 3], [i64; 3])]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(0x89);
    w.put_u32(0);
    w.put_block(b"density");
    w.put_u32(boxes.len() as u32);
    for (lo, hi) in boxes {
        put_region(&mut w, *lo, *hi, 0, &[]);
    }
    w.into_bytes()
}

fn frame_error(payload: &[u8]) -> String {
    match Response::decode(payload) {
        Err(ServeError::Frame(m)) => m,
        other => panic!("expected a typed Frame error, got {other:?}"),
    }
}

#[test]
fn hostile_region_bodies_are_typed_errors_before_any_allocation() {
    let ok = region_payload(
        [0; 3],
        [3, 1, 0],
        1,
        &[([1, 0, 0], [2, 2, 1], vec![1.0; 4])],
    );
    match Response::decode(&ok).unwrap() {
        Response::Region(r) => {
            assert_eq!(r.data, [0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        }
        other => panic!("{other:?}"),
    }
    // Corners that span no box a `u32` per axis can index.
    let m = i64::MAX;
    for (what, lo, hi) in [
        ("inverted", [0, 0, 0], [3, -1, 3]),
        ("inverted by one", [5, 5, 5], [5, 5, 4]),
        ("an extent of 2^32", [0, 0, 0], [0, (1 << 32) - 1, 0]),
        ("an extent past i64", [-2, 0, 0], [m, 0, 0]),
        ("hi - lo overflows", [i64::MIN, 0, 0], [m, 0, 0]),
    ] {
        let err = frame_error(&region_payload(lo, hi, 0, &[]));
        assert!(err.contains("span no valid box"), "{what}: {err}");
    }
    // Every extent fits, the box does not: `cells x 8` over the cap, and
    // overflowing a `u64` on the way.
    let u = i64::from(u32::MAX) - 1;
    for (what, hi) in [
        ("1 GiB + 8", [(1 << 27), 0, 0]),
        ("2^67 bytes", [u, u, 0]),
        ("2^99 bytes", [u, u, u]),
    ] {
        let err = frame_error(&region_payload([0; 3], hi, 0, &[]));
        assert!(err.contains("response cap"), "{what}: {err}");
    }
    // A patch count the tail cannot hold: refused on the count.
    let err = frame_error(&region_payload([0; 3], [3, 3, 3], u32::MAX, &[]));
    assert!(err.contains("element count"), "{err}");
    let one = [([0; 3], [1, 1, 1], vec![2.0])];
    let err = frame_error(&region_payload([0; 3], [3, 3, 3], 2, &one));
    assert!(err.contains("element count"), "{err}");
    // Patches that are empty or leave the 4 x 3 x 2 box, per axis: one
    // past the extent, and wrapping `u32`.
    for d in 0..3 {
        let extent = [4u32, 3, 2];
        let (mut empty, mut past, mut wraps, mut outside) = ([1; 3], [1; 3], [1; 3], [0; 3]);
        empty[d] = 0;
        past[d] = extent[d] + 1;
        wraps[d] = u32::MAX;
        outside[d] = extent[d];
        for (what, offset, size) in [
            ("zero-sized", [0; 3], empty),
            ("one past the extent", [0; 3], past),
            ("offset at the extent", outside, [1; 3]),
            ("offset + size wraps", [1; 3], wraps),
        ] {
            // Enough values that only the header can be at fault.
            let patch = [(offset, size, vec![0.5; 64])];
            let err = frame_error(&region_payload([0; 3], [3, 2, 1], 1, &patch));
            assert!(err.contains("leaves its"), "axis {d}, {what}: {err}");
        }
    }
    // Values cut mid-patch, and a byte too many.
    let patch = [([0; 3], [4, 3, 2], vec![1.5; 24])];
    let whole = region_payload([0; 3], [3, 2, 1], 1, &patch);
    assert!(Response::decode(&whole).is_ok());
    for cut in [1, 8, 9, 24 * 8 - 1, 24 * 8 + 12] {
        let err = frame_error(&whole[..whole.len() - cut]);
        assert!(
            err.contains("element count") || err.contains("truncated"),
            "{err}"
        );
    }
    let mut long = whole.clone();
    long.push(0);
    assert!(frame_error(&long).contains("trailing"));
    // The retired dense opcodes are unknown, not re-meant.
    for op in [0x84u8, 0x85] {
        let mut old = whole.clone();
        old[0] = op;
        let err = frame_error(&old);
        assert!(err.contains("unknown response opcode"), "{op:#x}: {err}");
    }
}

#[test]
fn a_region_built_with_the_wrong_length_encodes_and_is_refused() {
    let region = |lo, hi, n| WireRegion {
        level: 1,
        lo,
        hi,
        data: vec![1.0; n],
    };
    for (what, r) in [
        ("one value short", region([0; 3], [1, 1, 1], 7)),
        ("one value long", region([0; 3], [1, 1, 1], 9)),
        ("empty", region([0; 3], [1, 1, 1], 0)),
        ("inverted corners", region([2, 0, 0], [1, 0, 0], 0)),
        ("corners 2^32 apart", region([0; 3], [1 << 32, 0, 0], 1)),
        ("corners i64 apart", region([i64::MIN; 3], [i64::MAX; 3], 3)),
    ] {
        // No panic (debug builds check the arithmetic) …
        let alone = Response::Region(r.clone()).encode();
        let in_view = Response::View {
            field: 0,
            field_name: "density".into(),
            levels: vec![region([0; 3], [0, 0, 0], 1), r],
        }
        .encode();
        // … and bytes no decoder takes for an answer.
        for payload in [alone, in_view] {
            assert!(
                matches!(Response::decode(&payload), Err(ServeError::Frame(_))),
                "{what}"
            );
        }
    }
}

/// A peer that answers every request with the next scripted payload,
/// then one `Closed` for the call that shows the client still works.
fn scripted_peer(replies: Vec<Vec<u8>>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        for reply in replies.iter().chain([&Response::Closed.encode()]) {
            read_frame(&mut stream, 1 << 20).unwrap();
            write_frame(&mut stream, reply).unwrap();
        }
    });
    (addr, peer)
}

#[test]
fn the_response_cap_bounds_the_boxes_a_client_allocates() {
    // 8 000 bytes: a 10 x 10 x 10 box exactly. None of these frames is
    // anywhere near the cap — only what they would make the client
    // allocate is.
    const CAP: u32 = 8_000;
    let replies = vec![
        region_payload([0; 3], [9, 9, 9], 0, &[]),    // at the cap
        region_payload([0; 3], [1000, 0, 0], 0, &[]), // one value over
        region_payload([-5; 3], [4, 4, 4], 1, &[([9; 3], [1; 3], vec![7.0])]),
        // Each fits alone (4 000 B + 4 000 B + 8 B), together they do not.
        view_payload(&[([0; 3], [9, 9, 4]), ([0; 3], [4, 9, 9]), ([0; 3], [0; 3])]),
        view_payload(&[([0; 3], [9, 9, 4]), ([0; 3], [4, 9, 9])]),
    ];
    let (addr, peer) = scripted_peer(replies);
    let mut client = Client::connect_tcp(addr)
        .unwrap()
        .with_max_response_frame(CAP);
    let results = within_watchdog(move || {
        let mut region = || client.region(1, 0, 0, [0; 3], [0; 3]);
        let at_cap = region();
        let over = region();
        let pasted = region();
        let mut roi = || client.roi(1, 0, [0; 3], [0; 3], WireSelect::All);
        let summed_over = roi().map(|v| v.levels.len());
        let summed_at = roi().map(|v| v.levels.len());
        (
            at_cap,
            over,
            pasted,
            summed_over,
            summed_at,
            client.close_handle(1),
        )
    });
    let (at_cap, over, pasted, summed_over, summed_at, still_usable) = results;
    let at_cap = at_cap.expect("a box of exactly the cap");
    assert!(at_cap.data.len() == 1000 && at_cap.data.iter().all(|v| v.to_bits() == 0));
    match over {
        Err(ServeError::Frame(m)) => assert!(m.contains("response cap"), "{m}"),
        other => panic!("8 008 bytes under a cap of 8 000: {other:?}"),
    }
    let pasted = pasted.expect("a patch in the far corner");
    assert_eq!(pasted.data.iter().sum::<f64>(), 7.0);
    assert_eq!(pasted.data[999], 7.0);
    match summed_over {
        Err(ServeError::Frame(m)) => assert!(m.contains("response cap"), "{m}"),
        other => panic!("8 008 bytes over three regions: {other:?}"),
    }
    assert_eq!(summed_at.expect("two regions, 8 000 bytes"), 2);
    // Body errors inside intact frames: the same client went on working.
    still_usable.expect("client usable after refused bodies");
    peer.join().unwrap();
}
