//! Readiness polling: the serve crate's one `unsafe` surface.
//!
//! The event loop needs exactly three capabilities from the platform:
//! *register a file descriptor for read/write readiness*, *wait for the
//! next batch of ready descriptors*, and *a wakeup* other threads can
//! poke to interrupt the wait. [`Poller`] is a Linux epoll instance,
//! with `epoll_create1`/`epoll_ctl`/`epoll_wait` declared directly (std
//! already links libc, so no external crate is needed): O(ready) per
//! wakeup. [`Wakeup`] is a nonblocking std `UnixStream` pair. The crate
//! root denies `unsafe_code` and allows it on this module alone.
//!
//! Epoll is level-triggered here: a socket that still has unread bytes
//! (or writable space) reports ready again on the next wait, so the
//! loop never needs to drain-to-EAGAIN for correctness — only for
//! throughput.
//!
//! The four `unsafe` sites and the invariant each relies on:
//! * `epoll_create1` takes no pointers; it returns a fresh descriptor
//!   or `-1`, which is checked before the descriptor is used.
//! * `File::from_raw_fd` takes that descriptor, which nothing else
//!   holds, so the `File` is its sole owner and dropping the [`Poller`]
//!   closes it (the `fd_ownership` test counts `/proc/self/fd`).
//! * `epoll_ctl` reads one `epoll_event` that lives on the caller's
//!   stack for the whole call; its layout mirrors the kernel UAPI
//!   (checked at compile time below).
//! * `epoll_wait` writes at most `maxevents` entries, and `maxevents`
//!   is the length of the live buffer it writes into (a unit test makes
//!   more descriptors ready than the buffer holds).

#[cfg(not(target_os = "linux"))]
compile_error!("esharp-serve's event loop is built on Linux epoll; no other platform is supported");

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;

/// The most events one [`Poller::wait`] reports; a busier loop picks
/// up the rest on its next wait (level-triggered, so none is lost).
const MAX_EVENTS: usize = 256;

/// What readiness a registered descriptor should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable only.
    Read,
    /// Writable only.
    Write,
    /// Both readable and writable.
    Both,
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// The descriptor is readable (or has a pending hangup/error, which
    /// a read will surface as EOF/Err).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// The descriptor reported an error or hangup condition.
    pub error: bool,
}

mod ffi {
    //! The syscall wrappers std does not re-export, declared directly.
    #![allow(non_camel_case_types)]

    use std::os::raw::c_int;

    // `epoll_event` is packed on x86-64 (and x32) only; other
    // architectures use natural alignment. Getting this wrong reads
    // garbage tokens, so mirror the kernel UAPI exactly.
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    #[derive(Debug, Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    // The layout the attributes above promise: 4 + 8 bytes with no
    // padding on x86, 8-aligned (16 bytes) everywhere else.
    const X86: bool = cfg!(any(target_arch = "x86_64", target_arch = "x86"));
    const _: () = assert!(std::mem::size_of::<epoll_event>() == if X86 { 12 } else { 16 });

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0x80000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

/// A nonblocking socket pair: worker threads [`Wakeup::notify`] when
/// they finish a job, the event loop registers the read end and
/// [`Wakeup::drain`]s it on wakeup. Writes to a full socket are dropped
/// — one pending byte is enough to wake the loop.
#[derive(Debug)]
pub struct Wakeup {
    read: UnixStream,
    write: UnixStream,
}

impl Wakeup {
    /// Create the socket pair, both ends nonblocking.
    pub fn new() -> io::Result<Wakeup> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok(Wakeup { read, write })
    }

    /// The descriptor the loop registers for read readiness.
    pub fn fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    /// Wake the loop. Safe from any thread, and never blocks: a full
    /// socket already wakes.
    pub fn notify(&self) {
        let _ = (&self.write).write(&[1u8]);
    }

    /// Discard all pending wakeup bytes.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.read).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// The readiness poller the event loop drives: one level-triggered
/// epoll instance.
#[derive(Debug)]
pub struct Poller {
    /// The epoll descriptor, owned (closed on drop).
    ep: File,
    /// Where `epoll_wait` writes ready events; its length caps one wait.
    buf: Vec<ffi::epoll_event>,
}

impl Poller {
    /// Create the epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers; the result is checked before use.
        let fd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            // SAFETY: fd is a fresh descriptor nothing else holds, so
            // the File is its sole owner.
            ep: unsafe { File::from_raw_fd(fd) },
            buf: vec![ffi::epoll_event { events: 0, data: 0 }; MAX_EVENTS],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let events = match interest {
            Interest::Read => ffi::EPOLLIN,
            Interest::Write => ffi::EPOLLOUT,
            Interest::Both => ffi::EPOLLIN | ffi::EPOLLOUT,
        };
        let mut ev = ffi::epoll_event {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live epoll_event for the duration of the
        // call; the kernel only reads it.
        let rc = unsafe { ffi::epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change what `fd` is watched for.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stop watching `fd`. Call it before the descriptor is closed: a
    /// closed descriptor leaves the epoll set on its own only once no
    /// duplicate of it stays open.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_DEL, fd, 0, Interest::Read)
    }

    /// Block until at least one descriptor is ready or `timeout_ms`
    /// elapses (`-1` = forever). Ready events, at most 256, are
    /// appended to `out` (cleared first).
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        // SAFETY: buf is a live allocation of buf.len() epoll_events;
        // the kernel writes at most that many.
        let n = unsafe {
            ffi::epoll_wait(
                self.ep.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        out.extend(self.buf[..n as usize].iter().map(|&ev| {
            let bits = ev.events;
            PollEvent {
                token: ev.data,
                readable: bits & (ffi::EPOLLIN | ffi::EPOLLHUP) != 0,
                writable: bits & ffi::EPOLLOUT != 0,
                error: bits & (ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
            }
        }));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn wakeup_wakes_and_drains() {
        let mut poller = Poller::new().expect("poller");
        let wake = Wakeup::new().expect("socket pair");
        poller
            .register(wake.fd(), 7, Interest::Read)
            .expect("register");
        let mut events = Vec::new();

        // Nothing pending: a zero-timeout wait reports nothing.
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "spurious event");

        wake.notify();
        wake.notify();
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Drained: quiet again (level-triggered until drained).
        wake.drain();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "not drained");
    }

    #[test]
    fn notify_never_blocks_and_one_drain_empties() {
        let mut poller = Poller::new().expect("poller");
        let wake = Wakeup::new().expect("socket pair");
        poller
            .register(wake.fd(), 3, Interest::Read)
            .expect("register");
        // Far past any socket buffer, with nothing draining: a blocking
        // write end would hang here once the buffer fills.
        for _ in 0..1_000_000 {
            wake.notify();
        }
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        wake.drain();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "one drain must empty the wakeup");
    }

    #[test]
    fn more_ready_descriptors_than_the_buffer_holds() {
        const PAIRS: u64 = 300;
        let mut poller = Poller::new().expect("poller");
        let mut pairs = Vec::new();
        for token in 0..PAIRS {
            let (read, mut write) = UnixStream::pair().expect("socket pair");
            write.write_all(b"x").expect("send");
            poller
                .register(read.as_raw_fd(), token, Interest::Read)
                .expect("register");
            pairs.push((read, write));
        }
        let mut events = Vec::new();
        let mut seen = HashSet::new();
        for _ in 0..2 {
            poller.wait(&mut events, 1000).expect("wait");
            assert!(events.len() <= MAX_EVENTS, "{} events", events.len());
            for ev in &events {
                assert!(ev.token < PAIRS, "unregistered token {}", ev.token);
                assert!(ev.readable);
                seen.insert(ev.token);
            }
        }
        // Nothing was read, so every descriptor stays ready: the two
        // waits together report all of them.
        assert_eq!(seen.len() as u64, PAIRS);
    }

    #[test]
    fn socket_readiness_and_reregister_roundtrip() {
        let mut poller = Poller::new().expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        poller
            .register(server.as_raw_fd(), 42, Interest::Read)
            .expect("register");
        let mut events = Vec::new();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "no bytes yet");

        client.write_all(b"x").expect("send");
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable && !events[0].writable);

        // Write interest: an idle socket is immediately writable.
        poller
            .reregister(server.as_raw_fd(), 42, Interest::Both)
            .expect("reregister");
        poller.wait(&mut events, 1000).expect("wait");
        assert!(events[0].writable);

        poller.deregister(server.as_raw_fd()).expect("deregister");
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "deregistered fd still reported");
    }

    #[test]
    fn hangup_reports_readable_for_eof_detection() {
        let mut poller = Poller::new().expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        poller
            .register(server.as_raw_fd(), 9, Interest::Read)
            .expect("register");
        drop(client);
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert!(events[0].readable, "hangup must surface as readable EOF");
    }
}
