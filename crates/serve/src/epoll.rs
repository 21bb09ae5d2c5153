//! A minimal raw `epoll` + `eventfd` shim.
//!
//! The build environment is offline, so there is no `mio`/`tokio`/`libc`
//! to lean on; these symbols live in the C runtime the Rust standard
//! library already links. Only what the serving tier and the load
//! generator need is bound: create/ctl/wait on an epoll instance and an
//! eventfd used as a cross-thread wakeup. Everything here is
//! Linux-specific, like the crate.

use std::io;
use std::os::fd::RawFd;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
/// Wake one of the epoll instances waiting on this fd, not all of them
/// (Linux 4.5+): each worker's epoll holds both listeners, and one
/// connection should wake one waiting worker.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// Mirror of the kernel's `struct epoll_event`. Packed on x86-64 (the
/// kernel declares it `__attribute__((packed))` there); naturally aligned
/// elsewhere (aarch64 and friends).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

impl EpollEvent {
    pub const fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }

    /// Copy the fields out (direct references into a packed struct are
    /// not allowed).
    pub fn parts(&self) -> (u64, u32) {
        let e = *self;
        (e.data, e.events)
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance. Registration is thread-safe (the kernel allows
/// `epoll_ctl` from any thread), but this wrapper is used single-threaded:
/// each worker owns its own instance — the per-worker sharding that keeps
/// dispatch lock-free.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { cvt(epoll_create1(EPOLL_CLOEXEC))? };
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        unsafe { cvt(epoll_ctl(self.fd, op, fd, &mut ev))? };
        Ok(())
    }

    /// Register `fd` under `token` for the given interest set.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest set of a registered fd.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Remove a registered fd (harmless if the fd is already closed).
    pub fn delete(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait up to `timeout_ms` (-1 = forever) and fill `events`. Returns
    /// the number of ready entries. EINTR is retried.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// A nonblocking eventfd used to wake the workers blocked in `epoll_wait`
/// from another thread. Nothing reads it, so one wakeup stays readable for
/// every epoll that holds it: the serving tier's shutdown.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let fd = unsafe { cvt(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK))? };
        Ok(EventFd { fd })
    }

    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Post a wakeup (coalesces with any outstanding one).
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            // EAGAIN means the counter is already nonzero: the wakeup is
            // pending, which is all we need.
            let _ = write(self.fd, (&one as *const u64).cast(), 8);
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn one_eventfd_wake_reaches_every_epoll_holding_it() {
        let eps = [Epoll::new().unwrap(), Epoll::new().unwrap()];
        let ev = EventFd::new().unwrap();
        for ep in &eps {
            ep.add(ev.raw(), EPOLLIN, 7).unwrap();
        }
        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing pending: times out empty.
        assert_eq!(eps[0].wait(&mut events, 0).unwrap(), 0);
        ev.wake();
        ev.wake(); // coalesces
        for ep in &eps {
            // Unread, the wakeup stays level: every wait sees it.
            for _ in 0..2 {
                assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                let (token, bits) = events[0].parts();
                assert_eq!(token, 7);
                assert!(bits & EPOLLIN != 0);
            }
        }
    }

    #[test]
    fn socket_readability_surfaces() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
            .unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].parts().0, 42);
        let mut s = server;
        let mut buf = [0u8; 8];
        assert_eq!(s.read(&mut buf).unwrap(), 4);

        // Peer close raises RDHUP/HUP-ish readiness.
        drop(client);
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (_, bits) = events[0].parts();
        assert!(bits & (EPOLLRDHUP | EPOLLHUP | EPOLLIN) != 0);
        ep.delete(s.as_raw_fd());
    }
}
