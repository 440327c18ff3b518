//! Builds the database each workload runs against: its device regime,
//! pool sizes and rows.

use crate::model::{self, Workload, INDEX, TABLE, TUPLE_WIDTH};
use crate::timing_disk::TimingDisk;
use nbb_core::table::{FieldSpec, IndexSpec};
use nbb_core::{Database, DbConfig};
use nbb_storage::{DiskManager, DiskModel, FileDisk, InMemoryDisk, LatencyDisk};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Rows loaded by every workload.
pub const ROWS: u64 = 1_000_000;
/// Device round trip of the modeled regime (reads and writes).
pub const LATENCY_NS: u64 = 100_000;
/// Rows per `insert_many` call while loading.
const LOAD_CHUNK: u64 = 1 << 16;

/// Where a workload's pages live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// `InMemoryDisk`: a free device, CPU-only.
    Memory,
    /// Heap on a `LatencyDisk` charging [`LATENCY_NS`] per round trip,
    /// index in memory.
    Modeled,
    /// Both on `FileDisk`s in a directory of their own, through the OS page
    /// cache.
    File,
}

/// Table size, pool sizes and device regime of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Rows loaded at set-up.
    pub rows: u64,
    /// Heap pool frames.
    pub heap_frames: usize,
    /// Index pool frames.
    pub index_frames: usize,
    /// Device regime.
    pub regime: Regime,
}

/// Heap pages of [`ROWS`] rows at the default 8 KiB page (measured).
pub const HEAP_PAGES: usize = 3_426;
/// Index pages of [`ROWS`] keys after the bulk load (measured).
pub const INDEX_PAGES: usize = 4_446;

impl Sizing {
    /// The sizing of `w`. Pools that must hold everything get headroom
    /// for growth; partial pools are fixed shares of today's heap.
    pub fn of(w: Workload) -> Sizing {
        let whole_index = INDEX_PAGES + INDEX_PAGES / 2;
        match w {
            Workload::HotGet => Sizing {
                rows: ROWS,
                heap_frames: HEAP_PAGES + HEAP_PAGES / 2,
                index_frames: whole_index,
                regime: Regime::Memory,
            },
            Workload::ColdProject => Sizing {
                rows: ROWS,
                heap_frames: HEAP_PAGES / 6,
                index_frames: whole_index,
                regime: Regime::Modeled,
            },
            Workload::WriteMix => Sizing {
                rows: ROWS,
                heap_frames: HEAP_PAGES / 4,
                index_frames: whole_index,
                regime: Regime::File,
            },
        }
    }
}

/// A directory of disk files, removed on drop.
struct FileDir(PathBuf);

impl Drop for FileDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and
        // reclaimed by the next clean checkout.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A loaded database and handles on its disks.
pub struct Engine {
    /// The database.
    pub db: Arc<Database>,
    /// The heap device.
    pub heap_disk: Arc<dyn DiskManager>,
    /// The index device.
    pub index_disk: Arc<dyn DiskManager>,
    /// Heap and index timing wrappers, in traced builds only.
    pub timing: Option<(Arc<TimingDisk>, Arc<TimingDisk>)>,
    /// Wall time the build took.
    pub setup_s: f64,
    // Declared last so the database and its files close first.
    _files: Option<FileDir>,
}

impl Engine {
    /// Heap plus index device bytes per byte of `live_rows` tuples.
    pub fn space_amp(&self, live_rows: u64) -> f64 {
        let pages = self.heap_disk.num_pages() + self.index_disk.num_pages();
        let page_size = self.db.config().page_size as f64;
        pages as f64 * page_size / (live_rows as f64 * TUPLE_WIDTH as f64)
    }
}

/// Builds and loads the database of `w` with `rows` rows: creates the
/// table, `insert_many`s the rows in key order, builds the cached index
/// `pk` and flushes both pools. File disks go under `files`, which is
/// created if missing. With `traced`, both disks sit behind a
/// [`TimingDisk`].
pub fn build(
    w: Workload,
    sizing: Sizing,
    seed: u64,
    traced: bool,
    files: &Path,
) -> Result<Engine, String> {
    let start = Instant::now();
    let config = DbConfig {
        heap_frames: sizing.heap_frames,
        index_frames: sizing.index_frames,
        ..DbConfig::default()
    };
    let page = config.page_size;
    let (heap, index, files): (Arc<dyn DiskManager>, Arc<dyn DiskManager>, _) = match sizing.regime
    {
        Regime::Memory => {
            (Arc::new(InMemoryDisk::new(page)), Arc::new(InMemoryDisk::new(page)), None)
        }
        Regime::Modeled => {
            let model = DiskModel { read_ns: LATENCY_NS, write_ns: LATENCY_NS };
            (Arc::new(LatencyDisk::new(page, model)), Arc::new(InMemoryDisk::new(page)), None)
        }
        Regime::File => {
            let dir = unique_dir(files, w)?;
            let open = |name: &str| {
                FileDisk::create(dir.0.join(name), page).map_err(|e| format!("create {name}: {e}"))
            };
            (Arc::new(open("heap.pages")?), Arc::new(open("index.pages")?), Some(dir))
        }
    };
    let (heap, index, timing) = if traced {
        let (h, i) = (Arc::new(TimingDisk::new(heap)), Arc::new(TimingDisk::new(index)));
        (
            Arc::clone(&h) as Arc<dyn DiskManager>,
            Arc::clone(&i) as Arc<dyn DiskManager>,
            Some((h, i)),
        )
    } else {
        (heap, index, None)
    };
    let db = Database::with_disks(config, Arc::clone(&heap), Arc::clone(&index))
        .map_err(|e| format!("attach disks: {e}"))?;
    let table = db.create_table(TABLE, TUPLE_WIDTH).map_err(|e| format!("create table: {e}"))?;
    let mut lo = 0;
    while lo < sizing.rows {
        let hi = (lo + LOAD_CHUNK).min(sizing.rows);
        let chunk: Vec<Vec<u8>> = (lo..hi).map(|k| model::tuple(seed, k, 0)).collect();
        table.insert_many(&chunk).map_err(|e| format!("load rows {lo}..{hi}: {e}"))?;
        lo = hi;
    }
    table
        .create_index(IndexSpec::cached(INDEX, FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]))
        .map_err(|e| format!("create index: {e}"))?;
    db.heap_pool().flush_all().map_err(|e| format!("flush heap pool: {e}"))?;
    db.index_pool().flush_all().map_err(|e| format!("flush index pool: {e}"))?;
    Ok(Engine {
        db: Arc::new(db),
        heap_disk: heap,
        index_disk: index,
        timing,
        setup_s: start.elapsed().as_secs_f64(),
        _files: files,
    })
}

fn unique_dir(files: &Path, w: Workload) -> Result<FileDir, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = files.join(format!("{}-{}-{n}", w.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(FileDir(dir))
}
