//! The "original libraries" the simulated applications link against: a native
//! libc (and a small APR) whose behaviours operate on a shared [`SimWorld`].
//!
//! Modelling note: the simulated `read`/`recv` return the *data value* read
//! from the stream rather than a byte count, and `write`/`send` append their
//! second argument as one message.  This keeps the applications' control flow
//! faithful to the real programs (status/size/payload protocols over pipes,
//! row reads from a table file) while staying within the integer-argument
//! call interface of `lfi-runtime`.  Error conventions match libc: `-1` on
//! failure, `0` from `malloc` when allocation fails.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lfi_runtime::{NativeLibrary, Process};

/// Shared world state backing the native libraries: open streams (files,
/// pipes, sockets) and a bounded heap.
#[derive(Debug)]
pub struct SimWorld {
    streams: HashMap<i64, VecDeque<i64>>,
    next_fd: i64,
    heap_used: i64,
    heap_limit: i64,
    next_ptr: i64,
    /// Number of fsync calls serviced (used by the MySQL log).
    pub fsyncs: u64,
}

impl Default for SimWorld {
    fn default() -> Self {
        Self::new()
    }
}

impl SimWorld {
    /// Creates a world with a 1 GiB heap limit.
    pub fn new() -> Self {
        Self::with_heap_limit(1 << 30)
    }

    /// Creates a world with an explicit heap limit, in bytes.
    pub(crate) fn with_heap_limit(limit: i64) -> Self {
        Self { streams: HashMap::new(), next_fd: 3, heap_used: 0, heap_limit: limit, next_ptr: 0x1000, fsyncs: 0 }
    }

    /// Opens a fresh stream and returns its descriptor.
    pub(crate) fn open_stream(&mut self) -> i64 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.streams.insert(fd, VecDeque::new());
        fd
    }

    /// Appends one value to a stream; returns false when the descriptor is
    /// unknown.
    pub(crate) fn write_value(&mut self, fd: i64, value: i64) -> bool {
        match self.streams.get_mut(&fd) {
            Some(stream) => {
                stream.push_back(value);
                true
            }
            None => false,
        }
    }

    /// Pops the next value from a stream.
    pub(crate) fn read_value(&mut self, fd: i64) -> Option<i64> {
        self.streams.get_mut(&fd)?.pop_front()
    }

    /// Closes a stream; returns false when the descriptor is unknown.
    pub(crate) fn close_stream(&mut self, fd: i64) -> bool {
        self.streams.remove(&fd).is_some()
    }

    /// Attempts to allocate `size` bytes; returns 0 (a null pointer) when the
    /// heap limit would be exceeded, like `malloc` under memory pressure.
    pub(crate) fn allocate(&mut self, size: i64) -> i64 {
        if size < 0 || self.heap_used.saturating_add(size) > self.heap_limit {
            return 0;
        }
        self.heap_used += size;
        let ptr = self.next_ptr;
        self.next_ptr += size.max(8);
        ptr
    }

    /// Releases `size` bytes (the simulation does not track per-pointer
    /// sizes; callers pass what they allocated).
    pub fn release(&mut self, size: i64) {
        self.heap_used = (self.heap_used - size).max(0);
    }

    /// Returns the world to its just-created state (no streams, empty heap,
    /// descriptor and pointer counters rewound), preserving the configured
    /// heap limit.  This is the arena reset hook for pooled app processes:
    /// [`base_process`] never mutates the world it closes over, so a reset
    /// world is indistinguishable from a freshly built one.
    pub fn reset(&mut self) {
        *self = Self::with_heap_limit(self.heap_limit);
    }
}

/// A handle to shared world state, cloneable into library closures.
pub type World = Arc<Mutex<SimWorld>>;

/// Locks a world, riding through poisoning: a workload that panics inside a
/// library call leaves the world usable, and an arena's reset hook rewinds
/// it before the next case.
pub(crate) fn lock_world(world: &World) -> MutexGuard<'_, SimWorld> {
    world.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Burns a calibrated amount of CPU, standing in for the application-level
/// work (parsing, templating, buffer-pool management, kernel I/O) a real
/// request performs between library calls.  Without it the simulated requests
/// would consist almost entirely of library dispatch and the §6.4 overhead
/// ratios would be meaningless; see `repro table3 table4` (measured timings,
/// so `tests/golden/repro_quick.txt` leaves them out).
pub(crate) fn service_work(units: u64) {
    let mut acc = 0u64;
    for i in 0..units {
        acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    std::hint::black_box(acc);
}

/// Creates a fresh shared world.
pub fn new_world() -> World {
    Arc::new(Mutex::new(SimWorld::new()))
}

/// Builds the native libc backed by `world`.
pub(crate) fn native_libc(world: &World) -> NativeLibrary {
    let w = |world: &World| Arc::clone(world);
    NativeLibrary::builder("libc.so.6")
        .function("open", {
            let world = w(world);
            move |_| lock_world(&world).open_stream()
        })
        .function("pipe", {
            let world = w(world);
            move |_| lock_world(&world).open_stream()
        })
        .function("socket", {
            let world = w(world);
            move |_| lock_world(&world).open_stream()
        })
        .function("read", {
            let world = w(world);
            move |ctx| match lock_world(&world).read_value(ctx.arg(0)) {
                Some(value) => value,
                None => {
                    ctx.set_errno(11); // EAGAIN: nothing buffered
                    -1
                }
            }
        })
        .function("recv", {
            let world = w(world);
            move |ctx| match lock_world(&world).read_value(ctx.arg(0)) {
                Some(value) => value,
                None => {
                    ctx.set_errno(11);
                    -1
                }
            }
        })
        .function("write", {
            let world = w(world);
            move |ctx| {
                if lock_world(&world).write_value(ctx.arg(0), ctx.arg(1)) {
                    ctx.arg(2).max(1)
                } else {
                    ctx.set_errno(9); // EBADF
                    -1
                }
            }
        })
        .function("send", {
            let world = w(world);
            move |ctx| {
                if lock_world(&world).write_value(ctx.arg(0), ctx.arg(1)) {
                    ctx.arg(2).max(1)
                } else {
                    ctx.set_errno(9);
                    -1
                }
            }
        })
        .function("close", {
            let world = w(world);
            move |ctx| {
                if lock_world(&world).close_stream(ctx.arg(0)) {
                    0
                } else {
                    ctx.set_errno(9);
                    -1
                }
            }
        })
        .function("malloc", {
            let world = w(world);
            move |ctx| lock_world(&world).allocate(ctx.arg(0))
        })
        .function("calloc", {
            let world = w(world);
            move |ctx| lock_world(&world).allocate(ctx.arg(0) * ctx.arg(1).max(1))
        })
        .function("free", {
            let world = w(world);
            move |ctx| {
                lock_world(&world).release(ctx.arg(1));
                0
            }
        })
        .function("fsync", {
            let world = w(world);
            move |_| {
                lock_world(&world).fsyncs += 1;
                0
            }
        })
        .constant("connect", 0)
        .constant("getaddrinfo", 0)
        .constant("stat", 0)
        .constant("lseek", 0)
        .constant("select", 1)
        .constant("poll", 1)
        .constant("fork", 1)
        .constant("getpid", 4242)
        .function("readdir", {
            let world = w(world);
            move |ctx| lock_world(&world).read_value(ctx.arg(0)).unwrap_or(0)
        })
        .function("readdir64", {
            let world = w(world);
            move |ctx| lock_world(&world).read_value(ctx.arg(0)).unwrap_or(0)
        })
        .build()
}

/// Builds the native APR libraries used by the Apache simulation; they wrap
/// libc through nested calls so interceptors on either layer observe traffic.
pub(crate) fn native_apr(_world: &World) -> NativeLibrary {
    NativeLibrary::builder("libapr-1.so.0")
        .function("apr_file_read", |ctx| ctx.forward("read").unwrap_or(-1))
        .function("apr_file_write", |ctx| ctx.forward("write").unwrap_or(-1))
        .function("apr_socket_send", |ctx| ctx.forward("send").unwrap_or(-1))
        .function("apr_socket_recv", |ctx| ctx.forward("recv").unwrap_or(-1))
        .function("apr_palloc", |ctx| ctx.forward("malloc").unwrap_or(0))
        .constant("apr_pool_create", 0)
        .build()
}

/// Builds the small aprutil companion library.
pub(crate) fn native_aprutil(_world: &World) -> NativeLibrary {
    NativeLibrary::builder("libaprutil-1.so.0")
        .function("apu_palloc", |ctx| ctx.forward("malloc").unwrap_or(0))
        .function("apu_brigade_write", |ctx| ctx.forward("write").unwrap_or(-1))
        .build()
}

/// Builds a process with the native libc (and optionally APR) loaded.
pub fn base_process(world: &World, with_apr: bool) -> Process {
    let mut process = Process::new();
    if with_apr {
        process.load(native_apr(world));
        process.load(native_aprutil(world));
    }
    process.load(native_libc(world));
    process
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_behave_like_pipes() {
        let world = new_world();
        let mut process = base_process(&world, false);
        let fd = process.call("pipe", &[]).unwrap();
        assert_eq!(process.call("write", &[fd, 77, 8]).unwrap(), 8);
        assert_eq!(process.call("write", &[fd, 88, 8]).unwrap(), 8);
        assert_eq!(process.call("read", &[fd]).unwrap(), 77);
        assert_eq!(process.call("read", &[fd]).unwrap(), 88);
        // Draining an empty pipe is an EAGAIN-style failure.
        assert_eq!(process.call("read", &[fd]).unwrap(), -1);
        assert_eq!(process.state().errno(), 11);
        assert_eq!(process.call("close", &[fd]).unwrap(), 0);
        assert_eq!(process.call("close", &[fd]).unwrap(), -1);
    }

    #[test]
    fn malloc_honours_the_heap_limit() {
        let world: World = Arc::new(Mutex::new(SimWorld::with_heap_limit(1024)));
        let mut process = base_process(&world, false);
        let p1 = process.call("malloc", &[512]).unwrap();
        assert_ne!(p1, 0);
        let p2 = process.call("malloc", &[600]).unwrap();
        assert_eq!(p2, 0);
        process.call("free", &[p1, 512]).unwrap();
        assert_ne!(process.call("malloc", &[600]).unwrap(), 0);
        assert_eq!(lock_world(&world).heap_used, 600);
    }

    #[test]
    fn apr_wrappers_delegate_to_libc() {
        let world = new_world();
        let mut process = base_process(&world, true);
        let fd = process.call("open", &[]).unwrap();
        assert_eq!(process.call("apr_file_write", &[fd, 5, 4]).unwrap(), 4);
        assert_eq!(process.call("apr_file_read", &[fd]).unwrap(), 5);
        assert_ne!(process.call("apr_palloc", &[64]).unwrap(), 0);
        assert_eq!(process.call("fsync", &[fd]).unwrap(), 0);
        assert_eq!(lock_world(&world).fsyncs, 1);
    }

    #[test]
    fn world_stream_utilities() {
        let mut world = SimWorld::new();
        let fd = world.open_stream();
        assert!(world.write_value(fd, 1));
        assert!(world.write_value(fd, 2));
        assert_eq!(world.read_value(fd), Some(1));
        assert!(!world.write_value(999, 1));
        assert_eq!(world.read_value(999), None);
        assert_eq!(world.allocate(-1), 0);
    }
}
