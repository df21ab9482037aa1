//! Readiness polling behind one narrow `unsafe` surface.
//!
//! The event loop needs exactly three capabilities from the platform:
//! *register a file descriptor for read/write readiness*, *wait for the
//! next batch of ready descriptors*, and *a wakeup pipe* other threads
//! can write one byte into to interrupt the wait. Everything else in the
//! serve crate is safe std code.
//!
//! Two interchangeable backends implement that contract:
//!
//! * **epoll** (Linux, the default): `epoll_create1`/`epoll_ctl`/
//!   `epoll_wait` declared directly — std already links libc, so no
//!   external crate is needed. O(ready) wakeups, level-triggered.
//! * **poll(2)** (portable fallback): a flat `pollfd` array rebuilt from
//!   the registration table on every wait. O(registered) per wakeup but
//!   works on every unix; selected automatically off Linux, or forced
//!   anywhere with `ESHARP_FORCE_POLL=1` so CI exercises the fallback on
//!   the primary platform too.
//!
//! Both backends are level-triggered: a socket that still has unread
//! bytes (or writable space) reports ready again on the next wait, so
//! the loop never needs to drain-to-EAGAIN for correctness — only for
//! throughput.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};

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

impl Interest {
    fn readable(self) -> bool {
        matches!(self, Interest::Read | Interest::Both)
    }
    fn writable(self) -> bool {
        matches!(self, Interest::Write | Interest::Both)
    }
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

// ---------------------------------------------------------------- ffi --

mod ffi {
    //! The entire unsafe platform surface: direct declarations of the
    //! handful of syscall wrappers std does not re-export.
    #![allow(non_camel_case_types)]

    use std::os::raw::{c_int, c_short};

    pub type nfds_t = usize;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;
    pub const POLLERR: c_short = 0x8;
    pub const POLLHUP: c_short = 0x10;
    pub const POLLNVAL: c_short = 0x20;

    extern "C" {
        pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    }

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const O_NONBLOCK: c_int = 0x800;

    #[cfg(target_os = "linux")]
    pub mod epoll {
        use std::os::raw::c_int;

        // `epoll_event` is packed on x86-64 (and x32) only; other
        // architectures use natural alignment. Getting this wrong reads
        // garbage tokens, so mirror the kernel UAPI exactly.
        #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
        #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
        #[derive(Clone, Copy)]
        pub struct epoll_event {
            pub events: u32,
            pub data: u64,
        }

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
            pub fn epoll_ctl(
                epfd: c_int,
                op: c_int,
                fd: c_int,
                event: *mut epoll_event,
            ) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut epoll_event,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }
    }
}

fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl on a valid owned descriptor; no memory is touched.
    unsafe {
        let flags = ffi::fcntl(fd, ffi::F_GETFL, 0);
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if ffi::fcntl(fd, ffi::F_SETFL, flags | ffi::O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

// ------------------------------------------------------------- wakeup --

/// A nonblocking self-pipe: worker threads [`Wakeup::notify`] when they
/// finish a job, the event loop registers the read end and
/// [`Wakeup::drain`]s it on wakeup. Writes to a full pipe are dropped —
/// one pending byte is enough to wake the loop.
#[derive(Debug)]
pub struct Wakeup {
    read: File,
    write: File,
}

impl Wakeup {
    /// Create the pipe pair, both ends nonblocking.
    pub fn new() -> io::Result<Wakeup> {
        let mut fds = [0i32; 2];
        // SAFETY: pipe writes exactly two descriptors into the array;
        // from_raw_fd then owns each exactly once.
        let (read, write) = unsafe {
            if ffi::pipe(fds.as_mut_ptr()) != 0 {
                return Err(io::Error::last_os_error());
            }
            (File::from_raw_fd(fds[0]), File::from_raw_fd(fds[1]))
        };
        set_nonblocking_fd(read.as_raw_fd())?;
        set_nonblocking_fd(write.as_raw_fd())?;
        Ok(Wakeup { read, write })
    }

    /// The descriptor the loop registers for read readiness.
    pub fn fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    /// Wake the loop. Safe from any thread; a full pipe already wakes.
    pub fn notify(&self) {
        let _ = (&self.write).write(&[1u8]);
    }

    /// Discard all pending wakeup bytes.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.read).read(&mut sink), Ok(n) if n > 0) {}
    }
}

// ------------------------------------------------------------ backend --

#[cfg(target_os = "linux")]
struct EpollBackend {
    /// Owns the epoll fd (closed on drop).
    ep: File,
    buf: Vec<ffi::epoll::epoll_event>,
}

// Manual impl: `epoll_event` is `repr(packed)` on x86, which rules out
// deriving Debug (field references would be unaligned).
#[cfg(target_os = "linux")]
impl std::fmt::Debug for EpollBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpollBackend").field("ep", &self.ep).finish()
    }
}

#[cfg(target_os = "linux")]
impl EpollBackend {
    fn new() -> io::Result<EpollBackend> {
        use ffi::epoll::*;
        // SAFETY: epoll_create1 returns a fresh descriptor we own.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollBackend {
            // SAFETY: fd is a valid descriptor owned only here.
            ep: unsafe { File::from_raw_fd(fd) },
            buf: vec![ffi::epoll::epoll_event { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(&self, op: std::os::raw::c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        use ffi::epoll::*;
        let mut events = 0u32;
        if interest.readable() {
            events |= EPOLLIN;
        }
        if interest.writable() {
            events |= EPOLLOUT;
        }
        let mut ev = epoll_event { events, data: token };
        // SAFETY: valid epoll fd, valid target fd, event points at a
        // live struct for the duration of the call.
        let rc = unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        use ffi::epoll::*;
        // SAFETY: buf is a live allocation of epoll_event; the kernel
        // writes at most buf.len() entries.
        let n = unsafe {
            epoll_wait(
                self.ep.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as std::os::raw::c_int,
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
        for i in 0..n as usize {
            let ev = self.buf[i];
            let bits = ev.events;
            out.push(PollEvent {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

/// The poll(2) fallback: a registration table flattened into a `pollfd`
/// array per wait.
#[derive(Debug, Default)]
struct PollBackend {
    /// (fd, token, interest), linear — registration counts are small
    /// (one per live connection) and the scan is cache-friendly.
    entries: Vec<(RawFd, u64, Interest)>,
}

impl PollBackend {
    fn position(&self, fd: RawFd) -> Option<usize> {
        self.entries.iter().position(|(f, _, _)| *f == fd)
    }

    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        let mut fds: Vec<ffi::pollfd> = self
            .entries
            .iter()
            .map(|&(fd, _, interest)| ffi::pollfd {
                fd,
                events: {
                    let mut e = 0;
                    if interest.readable() {
                        e |= ffi::POLLIN;
                    }
                    if interest.writable() {
                        e |= ffi::POLLOUT;
                    }
                    e
                },
                revents: 0,
            })
            .collect();
        // SAFETY: fds is a live array of fds.len() pollfd structs.
        let n = unsafe { ffi::poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for (slot, &(_, token, _)) in fds.iter().zip(&self.entries) {
            let bits = slot.revents;
            if bits == 0 {
                continue;
            }
            out.push(PollEvent {
                token,
                readable: bits & (ffi::POLLIN | ffi::POLLHUP) != 0,
                writable: bits & ffi::POLLOUT != 0,
                error: bits & (ffi::POLLERR | ffi::POLLHUP | ffi::POLLNVAL) != 0,
            });
        }
        Ok(())
    }
}

#[derive(Debug)]
enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(EpollBackend),
    Poll(PollBackend),
}

/// The readiness poller the event loop drives. Level-triggered on both
/// backends.
#[derive(Debug)]
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// The platform-preferred backend: epoll on Linux (unless
    /// `ESHARP_FORCE_POLL=1`), poll(2) everywhere else.
    pub fn new() -> io::Result<Poller> {
        let force_poll = std::env::var("ESHARP_FORCE_POLL").is_ok_and(|v| v == "1");
        Poller::with_backend(force_poll)
    }

    /// Explicit backend selection (`force_poll = true` → poll(2)); used
    /// by tests to pin both implementations on the same host.
    pub fn with_backend(force_poll: bool) -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            if !force_poll {
                return Ok(Poller {
                    backend: Backend::Epoll(EpollBackend::new()?),
                });
            }
        }
        let _ = force_poll;
        Ok(Poller {
            backend: Backend::Poll(PollBackend::default()),
        })
    }

    /// The backend's name, `"epoll"` or `"poll"`. It is not reported on
    /// `/metrics`; the poller tests label their failures with it.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    /// Start watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.ctl(ffi::epoll::EPOLL_CTL_ADD, fd, token, interest),
            Backend::Poll(p) => {
                if p.position(fd).is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    ));
                }
                p.entries.push((fd, token, interest));
                Ok(())
            }
        }
    }

    /// Change what `fd` is watched for.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.ctl(ffi::epoll::EPOLL_CTL_MOD, fd, token, interest),
            Backend::Poll(p) => match p.position(fd) {
                Some(i) => {
                    p.entries[i] = (fd, token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            },
        }
    }

    /// Stop watching `fd`. Must be called before the descriptor is
    /// closed (the poll backend would otherwise report `POLLNVAL`).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.ctl(ffi::epoll::EPOLL_CTL_DEL, fd, 0, Interest::Read),
            Backend::Poll(p) => match p.position(fd) {
                Some(i) => {
                    p.entries.remove(i);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            },
        }
    }

    /// Block until at least one descriptor is ready or `timeout_ms`
    /// elapses (`-1` = forever). Ready events are appended to `out`
    /// (cleared first).
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.wait(out, timeout_ms),
            Backend::Poll(p) => p.wait(out, timeout_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn backends() -> Vec<Poller> {
        vec![
            Poller::with_backend(false).expect("native backend"),
            Poller::with_backend(true).expect("poll backend"),
        ]
    }

    #[test]
    fn wakeup_pipe_wakes_and_drains_on_both_backends() {
        for mut poller in backends() {
            let wake = Wakeup::new().expect("pipe");
            poller.register(wake.fd(), 7, Interest::Read).expect("register");
            let mut events = Vec::new();

            // Nothing pending: a zero-timeout wait reports nothing.
            poller.wait(&mut events, 0).expect("wait");
            assert!(events.is_empty(), "{}: spurious event", poller.backend_name());

            wake.notify();
            wake.notify();
            poller.wait(&mut events, 1000).expect("wait");
            assert_eq!(events.len(), 1, "{}", poller.backend_name());
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);

            // Drained: quiet again (level-triggered until drained).
            wake.drain();
            poller.wait(&mut events, 0).expect("wait");
            assert!(events.is_empty(), "{}: not drained", poller.backend_name());
        }
    }

    #[test]
    fn socket_readiness_and_reregister_roundtrip() {
        for mut poller in backends() {
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
            assert!(events.is_empty(), "{}: no bytes yet", poller.backend_name());

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
            assert!(events[0].writable, "{}", poller.backend_name());

            poller.deregister(server.as_raw_fd()).expect("deregister");
            poller.wait(&mut events, 0).expect("wait");
            assert!(events.is_empty(), "{}: deregistered fd still reported", poller.backend_name());
        }
    }

    #[test]
    fn hangup_reports_readable_for_eof_detection() {
        for mut poller in backends() {
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
            assert_eq!(events.len(), 1, "{}", poller.backend_name());
            assert!(events[0].readable, "hangup must surface as readable EOF");
        }
    }
}
