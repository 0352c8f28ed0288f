//! Blocking client for the amr-serve wire protocol, over TCP or a
//! Unix-domain socket. One request in flight per connection; open more
//! clients for concurrency (the server is thread-per-connection).
//!
//! Region, plane and ROI answers arrive as the stored pieces of each
//! level ([`crate::protocol`], "Region body"); decoding zero-fills each
//! level's box once and pastes the pieces, so a [`WireRegion`] is always
//! the dense box its corners span. That box is the one thing a response
//! can make this client allocate beyond the bytes it received, so it is
//! charged against the same cap as the frame
//! ([`Client::with_max_response_frame`]).

use crate::protocol::{
    read_frame, write_frame, Conn, OpenInfo, Request, Response, ServeError, ServeResult,
    StatsReport, WireRegion, WireSelect, DEFAULT_MAX_RESPONSE_FRAME,
};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A decoded multi-level ROI answer (client-side view of
/// [`Response::View`]).
#[derive(Clone, Debug)]
pub struct RoiView {
    /// Field index the query resolved to.
    pub field: u32,
    /// Field name from the plotfile header.
    pub field_name: String,
    /// One region per level that intersected the ROI, coarse to fine.
    pub levels: Vec<WireRegion>,
}

/// Blocking protocol client.
///
/// Fails fast once framing is lost: after any error writing a request or
/// reading a response frame (transport failure, a frame over the cap) the
/// unread tail of that frame would be taken for the next length prefix,
/// so the stream is dropped and every later call is
/// [`ServeError::Disconnected`]. A typed [`ServeError::Remote`] answer or
/// a malformed body inside an intact frame leaves the client usable.
pub struct Client {
    /// `None` once framing is lost.
    stream: Option<Box<dyn Conn>>,
    max_response_frame: u32,
}

impl Client {
    /// Connect over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> ServeResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self::over(Box::new(stream)))
    }

    /// Connect over a Unix-domain socket.
    pub fn connect_uds(path: &Path) -> ServeResult<Client> {
        Ok(Self::over(Box::new(UnixStream::connect(path)?)))
    }

    fn over(stream: Box<dyn Conn>) -> Client {
        Client {
            stream: Some(stream),
            max_response_frame: DEFAULT_MAX_RESPONSE_FRAME,
        }
    }

    /// Lower (or raise) the most one response may make this client
    /// allocate: the largest frame it reads before treating the stream as
    /// corrupt, and the dense boxes (summed over the regions of a
    /// response) it zero-fills to paste the patches into. A response over
    /// the second bound is a [`ServeError::Frame`] inside an intact frame:
    /// the client stays usable.
    pub fn with_max_response_frame(mut self, cap: u32) -> Self {
        self.max_response_frame = cap;
        self
    }

    fn call(&mut self, req: &Request) -> ServeResult<Response> {
        let stream = self.stream.as_mut().ok_or(ServeError::Disconnected)?;
        let framed = write_frame(stream, &req.encode())
            .and_then(|()| read_frame(stream, self.max_response_frame));
        let payload = match framed {
            Ok(payload) => payload,
            Err(e) => {
                self.stream = None;
                return Err(e);
            }
        };
        match Response::decode_within(&payload, self.max_response_frame)? {
            Response::Error { code, message } => Err(ServeError::Remote { code, message }),
            resp => Ok(resp),
        }
    }

    fn unexpected(resp: &Response) -> ServeError {
        ServeError::Frame(format!("unexpected response variant: {resp:?}"))
    }

    /// Open a plotfile on the server; the returned handle scopes every
    /// subsequent query on this connection.
    pub fn open(&mut self, path: &str) -> ServeResult<OpenInfo> {
        match self.call(&Request::Open {
            path: path.to_string(),
        })? {
            Response::Opened(info) => Ok(info),
            resp => Err(Self::unexpected(&resp)),
        }
    }

    /// Release a handle.
    pub fn close_handle(&mut self, handle: u32) -> ServeResult<()> {
        match self.call(&Request::Close { handle })? {
            Response::Closed => Ok(()),
            resp => Err(Self::unexpected(&resp)),
        }
    }

    /// Sample the cell `p`, given in **finest-level** index space, at the
    /// finest level whose stored data covers it: `(level, cell in that
    /// level's index space, value)`, or `None` where no level holds the
    /// cell.
    pub fn point(
        &mut self,
        handle: u32,
        field: u32,
        p: [i64; 3],
    ) -> ServeResult<Option<(u32, [i64; 3], f64)>> {
        match self.call(&Request::Point { handle, field, p })? {
            Response::Point(s) => Ok(s),
            resp => Err(Self::unexpected(&resp)),
        }
    }

    /// Axis-aligned plane at `coord` on `level`.
    pub fn plane(
        &mut self,
        handle: u32,
        field: u32,
        level: u32,
        axis: u8,
        coord: i64,
    ) -> ServeResult<WireRegion> {
        match self.call(&Request::Plane {
            handle,
            field,
            level,
            axis,
            coord,
        })? {
            Response::Region(r) => Ok(r),
            resp => Err(Self::unexpected(&resp)),
        }
    }

    /// Dense box of one level (cells no unit stores read zero).
    pub fn region(
        &mut self,
        handle: u32,
        field: u32,
        level: u32,
        lo: [i64; 3],
        hi: [i64; 3],
    ) -> ServeResult<WireRegion> {
        match self.call(&Request::Region {
            handle,
            field,
            level,
            lo,
            hi,
        })? {
            Response::Region(r) => Ok(r),
            resp => Err(Self::unexpected(&resp)),
        }
    }

    /// Multi-level region of interest (`lo`/`hi` in level-0 cells).
    pub fn roi(
        &mut self,
        handle: u32,
        field: u32,
        lo: [i64; 3],
        hi: [i64; 3],
        select: WireSelect,
    ) -> ServeResult<RoiView> {
        match self.call(&Request::Roi {
            handle,
            field,
            lo,
            hi,
            select,
        })? {
            Response::View {
                field,
                field_name,
                levels,
            } => Ok(RoiView {
                field,
                field_name,
                levels,
            }),
            resp => Err(Self::unexpected(&resp)),
        }
    }

    /// Whole-server statistics snapshot.
    pub fn stats(&mut self) -> ServeResult<StatsReport> {
        match self.call(&Request::Stats)? {
            Response::Stats(r) => Ok(r),
            resp => Err(Self::unexpected(&resp)),
        }
    }

    /// Ask the server to stop accepting connections.
    pub fn shutdown_server(&mut self) -> ServeResult<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            resp => Err(Self::unexpected(&resp)),
        }
    }
}
