//! Backend-neutral socket plumbing: one [`Stream`]/[`Listener`]/[`Endpoint`]
//! surface over TCP and Unix-domain sockets.
//!
//! The server and client transport are written once against these enums, so
//! the choice of backend is purely a bind-time decision. TCP exercises the
//! full loopback network stack (the closest stand-in for cross-host
//! deployment); Unix-domain sockets skip the TCP/IP layers and measure the
//! socket + scheduling overhead alone.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a socket server can be reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:9100`.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

impl Endpoint {
    /// Opens a fresh stream to this endpoint.
    pub fn connect(&self) -> io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Stream::Tcp),
            Endpoint::Uds(path) => UnixStream::connect(path).map(Stream::Uds),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Uds(path) => write!(f, "uds://{}", path.display()),
        }
    }
}

/// A connected byte stream over either backend.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Uds(UnixStream),
}

impl Stream {
    /// An independently owned handle to the same connection (for split
    /// reader/writer threads).
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Uds(s) => s.try_clone().map(Stream::Uds),
        }
    }

    /// Bounds blocking reads so reader threads can observe shutdown flags.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Uds(s) => s.set_read_timeout(timeout),
        }
    }

    /// Disables Nagle batching on TCP (request/reply traffic is latency
    /// sensitive); a no-op for Unix-domain sockets.
    pub fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nodelay(true),
            Stream::Uds(_) => Ok(()),
        }
    }

    /// Shuts down both directions, waking any thread blocked on the stream.
    pub fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// True when a `read` error is the read-timeout tick rather than a dead
    /// connection (`WouldBlock`/`TimedOut` depending on the platform).
    #[must_use]
    pub fn is_timeout(err: &io::Error) -> bool {
        matches!(
            err.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

/// A bound accept socket over either backend.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (unlinks its path on drop).
    Uds(UnixListener, PathBuf),
}

impl Listener {
    /// Binds a TCP listener on `addr` (pass port 0 for an ephemeral port).
    pub fn bind_tcp(addr: SocketAddr) -> io::Result<Listener> {
        TcpListener::bind(addr).map(Listener::Tcp)
    }

    /// Binds a Unix-domain listener at `path`, replacing a stale socket file
    /// left by a previous run.
    pub fn bind_uds(path: PathBuf) -> io::Result<Listener> {
        let _ = std::fs::remove_file(&path);
        UnixListener::bind(&path).map(|l| Listener::Uds(l, path))
    }

    /// The endpoint clients connect to.
    pub fn endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Tcp(l) => l.local_addr().map(Endpoint::Tcp),
            Listener::Uds(_, path) => Ok(Endpoint::Uds(path.clone())),
        }
    }

    /// Blocks for the next inbound connection.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Uds(l, _) => l.accept().map(|(s, _)| Stream::Uds(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}
