//! A [`DiskManager`] wrapper that counts calls and pages and times each
//! call, so the traced run can say how much of a request the device
//! held. It forwards every call unchanged; the untraced run never uses
//! it.

use nbb_storage::{DiskManager, IoStats, Page, PageId, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cumulative counters of one [`TimingDisk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskTimes {
    /// `read` plus `read_many` calls.
    pub read_calls: u64,
    /// Pages those calls carried.
    pub read_pages: u64,
    /// Wall time spent inside them, in nanoseconds.
    pub read_busy_ns: u64,
    /// `write` plus `write_many` calls.
    pub write_calls: u64,
    /// Pages those calls carried.
    pub write_pages: u64,
    /// Wall time spent inside them, in nanoseconds.
    pub write_busy_ns: u64,
}

impl DiskTimes {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &DiskTimes) -> DiskTimes {
        DiskTimes {
            read_calls: self.read_calls - earlier.read_calls,
            read_pages: self.read_pages - earlier.read_pages,
            read_busy_ns: self.read_busy_ns - earlier.read_busy_ns,
            write_calls: self.write_calls - earlier.write_calls,
            write_pages: self.write_pages - earlier.write_pages,
            write_busy_ns: self.write_busy_ns - earlier.write_busy_ns,
        }
    }
}

#[derive(Default)]
struct Side {
    calls: AtomicU64,
    pages: AtomicU64,
    busy_ns: AtomicU64,
}

impl Side {
    fn time<T>(&self, pages: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        // Statistics only: they publish no other data.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.pages.fetch_add(pages as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn load(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.pages.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        )
    }
}

/// Times and counts every read and write of the disk it wraps.
pub struct TimingDisk {
    inner: Arc<dyn DiskManager>,
    reads: Side,
    writes: Side,
}

impl TimingDisk {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn DiskManager>) -> TimingDisk {
        TimingDisk { inner, reads: Side::default(), writes: Side::default() }
    }

    /// A snapshot of the cumulative counters.
    pub fn times(&self) -> DiskTimes {
        let (read_calls, read_pages, read_busy_ns) = self.reads.load();
        let (write_calls, write_pages, write_busy_ns) = self.writes.load();
        DiskTimes { read_calls, read_pages, read_busy_ns, write_calls, write_pages, write_busy_ns }
    }
}

impl DiskManager for TimingDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&self) -> Result<PageId> {
        self.inner.allocate()
    }

    fn read(&self, id: PageId, buf: &mut Page) -> Result<()> {
        self.reads.time(1, || self.inner.read(id, buf))
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        self.writes.time(1, || self.inner.write(id, page))
    }

    fn write_many(&self, pages: &[(PageId, &Page)]) -> Result<()> {
        self.writes.time(pages.len(), || self.inner.write_many(pages))
    }

    fn read_many(&self, pages: &mut [(PageId, &mut Page)]) -> Result<()> {
        let n = pages.len();
        self.reads.time(n, || self.inner.read_many(pages))
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbb_storage::InMemoryDisk;

    #[test]
    fn counts_calls_pages_and_forwards_bytes() {
        let inner: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(512));
        let disk = TimingDisk::new(Arc::clone(&inner));
        let ids: Vec<PageId> = (0..3).map(|_| disk.allocate().unwrap()).collect();
        let mut pages: Vec<Page> = (0..3u8)
            .map(|i| {
                let mut p = Page::new(512);
                p.bytes_mut().fill(i + 1);
                p
            })
            .collect();
        disk.write(ids[0], &pages[0]).unwrap();
        let batch: Vec<(PageId, &Page)> = ids[1..].iter().copied().zip(&pages[1..]).collect();
        disk.write_many(&batch).unwrap();
        for p in &mut pages {
            p.clear();
        }
        disk.read(ids[0], &mut pages[0]).unwrap();
        let (first, rest) = pages.split_at_mut(1);
        let mut batch: Vec<(PageId, &mut Page)> = ids[1..].iter().copied().zip(rest).collect();
        disk.read_many(&mut batch).unwrap();
        for (i, p) in first.iter().chain(batch.iter().map(|(_, p)| &**p)).enumerate() {
            assert!(p.bytes().iter().all(|&b| b == i as u8 + 1), "page {i} round-trips");
        }
        let t = disk.times();
        assert_eq!((t.write_calls, t.write_pages, t.read_calls, t.read_pages), (2, 3, 2, 3));
        assert_eq!(disk.num_pages(), inner.num_pages());
        assert_eq!(disk.stats(), inner.stats());
        assert_eq!(t.since(&t), DiskTimes::default());
    }
}
