//! Host identity and host-resource accounting, read from outside the
//! simulator: a counting global allocator, the process's resident-memory
//! high-water mark, and the CPU the numbers were taken on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (and reallocation) made by any thread of the
/// process, with the bytes requested. Install it with `#[global_allocator]`
/// in the binary; the library only reads the counters.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation counters at one instant; subtract two to get a span's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation calls.
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl Allocs {
    /// The counters now (all zero unless [`CountingAlloc`] is installed).
    pub fn now() -> Allocs {
        Allocs {
            count: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Allocations made since `earlier`.
    pub fn since(earlier: Allocs) -> Allocs {
        Allocs::now().minus(earlier)
    }

    /// Component-wise difference, saturating at zero.
    pub fn minus(self, other: Allocs) -> Allocs {
        Allocs {
            count: self.count.saturating_sub(other.count),
            bytes: self.bytes.saturating_sub(other.bytes),
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: Allocs) -> Allocs {
        Allocs {
            count: self.count + other.count,
            bytes: self.bytes + other.bytes,
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// The process's resident-set high-water mark, MiB (`getrusage`; Linux
/// reports `ru_maxrss` in KiB). One process runs one workload, so this is
/// the workload's peak.
pub fn peak_rss_mb() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a properly sized, writable `struct rusage` for
    // 64-bit Linux; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    ru.maxrss as f64 / 1024.0
}

/// CPU model string from the processor's brand-string CPUID leaves, so the
/// benchmark needs no file outside its checkout to name its host.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        #[allow(unused_unsafe)]
        // SAFETY: CPUID is available on every x86_64 processor; the
        // extended leaves are read only after checking the maximum leaf.
        let brand = unsafe {
            if __cpuid(0x8000_0000).eax < 0x8000_0004 {
                return "unknown-x86_64".to_string();
            }
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for w in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
            }
            bytes
        };
        let s = String::from_utf8_lossy(&brand);
        s.trim_matches(char::from(0)).trim().to_string()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        format!("unknown-{}", std::env::consts::ARCH)
    }
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Who measured: the host and the calibration every number depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identity {
    /// CPU brand string.
    pub cpu_model: String,
    /// Hardware threads available.
    pub nproc: usize,
    /// Engine shards the sharded workload ran at.
    pub shards: usize,
    /// `FabricModel::calibrated_2007().fingerprint()`.
    pub fingerprint: String,
}

impl Identity {
    /// This process's identity.
    pub fn current() -> Identity {
        let nproc = nproc();
        Identity {
            cpu_model: cpu_model(),
            nproc,
            shards: nproc.min(2),
            fingerprint: dc_fabric::FabricModel::calibrated_2007().fingerprint(),
        }
    }
}

/// Host memory speed: a fixed loop of random read-modify-writes over a
/// table. The loop is the benchmark's own code (no program crate), so no
/// change to the program can move it; only the host can. On a shared host,
/// neighbours' cache and memory traffic slow a single-threaded simulation
/// and this loop alike, while an ALU-bound loop barely moves. How much a
/// pass slows depends on how much of the shared cache its working set
/// needs, so each workload sizes the table to match (see
/// `Workload::reference`).
pub struct Reference {
    table: Vec<u64>,
    iters: u64,
    nominal_s: f64,
}

impl Reference {
    /// The table for a pass whose working set is a few MiB: 8 MiB,
    /// 2^20 updates, about 0.015 s on a quiet tuning host.
    pub const SMALL: (usize, u64, f64) = (8 << 20, 1 << 20, 0.015);

    /// The table for a pass whose working set is about 30 MiB: 32 MiB,
    /// 2^21 updates, about 0.035 s on a quiet tuning host.
    pub const MEDIUM: (usize, u64, f64) = (32 << 20, 1 << 21, 0.035);

    /// The table for a pass whose working set is about 100 MiB: 128 MiB,
    /// 2^21 updates, about 0.045 s on a quiet tuning host.
    pub const LARGE: (usize, u64, f64) = (128 << 20, 1 << 21, 0.045);

    /// Allocate a table of `bytes` (a power of two) and make every page
    /// resident; each timing runs `iters` updates, and [`Reference::scale`]
    /// maps a timing of `nominal_s` to 1.
    pub fn new((bytes, iters, nominal_s): (usize, u64, f64)) -> Reference {
        Reference {
            table: vec![1u64; bytes / 8],
            iters,
            nominal_s,
        }
    }

    /// The table's size. It stays resident for the whole run, so it adds
    /// exactly this much to the process's resident high-water mark.
    pub fn bytes(&self) -> usize {
        self.table.len() * 8
    }

    /// The factor that rescales a time taken while the loop took
    /// `reference_s` to the tuning host's quiet memory speed.
    pub fn scale(&self, reference_s: f64) -> f64 {
        self.nominal_s / reference_s
    }

    /// Seconds for one run of the loop now.
    pub fn time_s(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let t0 = std::time::Instant::now();
        let mut z = 0x243f_6a88_85a3_08d3u64;
        for i in 0..self.iters {
            z = (z ^ i ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let j = (z >> 17) as usize & mask;
            self.table[j] = self.table[j].wrapping_add(z);
        }
        std::hint::black_box(&self.table);
        t0.elapsed().as_secs_f64()
    }
}
