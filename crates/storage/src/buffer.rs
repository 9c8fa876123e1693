//! The shared buffer pool: page-level caching with LRU replacement.
//!
//! All heap files of a database share one pool (as Redbase's PF component
//! shares its buffer across open files). Pages are accessed through
//! closure-based `with_page` / `with_page_mut` methods; the pool lock is
//! held for the closure's duration, which keeps the implementation simple
//! and makes eviction trivially safe (a page being accessed can never be
//! chosen as a victim because access and eviction are serialized).

use crate::disk::Storage;
use crate::page::{zeroed_page, FileId, PageBuf, PageId};
use parking_lot::Mutex;
use std::collections::HashMap;

use wsq_common::{Result, WsqError};

/// Cumulative buffer pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that had to read from storage.
    pub misses: u64,
    /// Dirty pages written back during eviction.
    pub dirty_evictions: u64,
    /// Total evictions.
    pub evictions: u64,
}

struct Frame {
    file: FileId,
    page: PageId,
    data: PageBuf,
    dirty: bool,
    /// Logical clock of the most recent access, for LRU victim selection.
    last_used: u64,
}

struct PoolInner {
    capacity: usize,
    files: HashMap<FileId, Box<dyn Storage>>,
    next_file: u32,
    frames: Vec<Frame>,
    /// Maps (file, page) to an index in `frames`.
    table: HashMap<(FileId, PageId), usize>,
    tick: u64,
    stats: PoolStats,
}

/// A page-level buffer pool shared by every file of a database.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// Create a pool that caches up to `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        BufferPool {
            inner: Mutex::new(PoolInner {
                capacity,
                files: HashMap::new(),
                next_file: 0,
                frames: Vec::new(),
                table: HashMap::new(),
                tick: 0,
                stats: PoolStats::default(),
            }),
        }
    }

    /// Register a file with the pool, receiving the id used to address its
    /// pages.
    pub fn register_file(&self, storage: Box<dyn Storage>) -> FileId {
        let mut inner = self.inner.lock();
        let id = FileId(inner.next_file);
        inner.next_file += 1;
        inner.files.insert(id, storage);
        id
    }

    /// Flush and forget every cached page of `file`, then drop the file.
    pub fn unregister_file(&self, file: FileId) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.flush_file(file)?;
        // Drop cached frames belonging to the file.
        let victims: Vec<usize> = inner
            .table
            .iter()
            .filter(|((f, _), _)| *f == file)
            .map(|(_, &idx)| idx)
            .collect();
        for idx in victims {
            let key = (inner.frames[idx].file, inner.frames[idx].page);
            inner.table.remove(&key);
            // Mark the frame reusable by pointing it at an impossible key.
            inner.frames[idx].dirty = false;
            inner.frames[idx].last_used = 0;
            inner.frames[idx].file = FileId(u32::MAX);
        }
        inner.frames.retain(|f| f.file != FileId(u32::MAX));
        inner.rebuild_table();
        inner
            .files
            .remove(&file)
            .map(|_| ())
            .ok_or_else(|| WsqError::Storage(format!("unknown file {file}")))
    }

    /// Allocate a fresh page in `file`.
    pub fn allocate_page(&self, file: FileId) -> Result<PageId> {
        let mut inner = self.inner.lock();
        let storage = inner
            .files
            .get_mut(&file)
            .ok_or_else(|| WsqError::Storage(format!("unknown file {file}")))?;
        storage.allocate_page()
    }

    /// Number of pages in `file`.
    pub fn num_pages(&self, file: FileId) -> Result<u32> {
        let inner = self.inner.lock();
        let storage = inner
            .files
            .get(&file)
            .ok_or_else(|| WsqError::Storage(format!("unknown file {file}")))?;
        Ok(storage.num_pages())
    }

    /// Run `f` with read access to a page's bytes.
    pub fn with_page<R>(
        &self,
        file: FileId,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let mut inner = self.inner.lock();
        let idx = inner.fetch(file, page)?;
        Ok(f(&inner.frames[idx].data[..]))
    }

    /// [`BufferPool::with_page`] for a page that may lie past the end of
    /// `file`: `Ok(None)` there, with the page count read in the same hold
    /// of the pool lock.
    pub fn with_page_if_present<R>(
        &self,
        file: FileId,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>> {
        let mut inner = self.inner.lock();
        let pages = inner
            .files
            .get(&file)
            .ok_or_else(|| WsqError::Storage(format!("unknown file {file}")))?
            .num_pages();
        if page.0 >= pages {
            return Ok(None);
        }
        let idx = inner.fetch(file, page)?;
        Ok(Some(f(&inner.frames[idx].data[..])))
    }

    /// Run `f` with write access to a page's bytes; the page is marked
    /// dirty and written back on eviction or flush.
    pub fn with_page_mut<R>(
        &self,
        file: FileId,
        page: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        let mut inner = self.inner.lock();
        let idx = inner.fetch(file, page)?;
        inner.frames[idx].dirty = true;
        Ok(f(&mut inner.frames[idx].data[..]))
    }

    /// Write back every dirty page of every file and sync the files.
    pub fn flush_all(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let files: Vec<FileId> = inner.files.keys().copied().collect();
        for file in files {
            inner.flush_file(file)?;
        }
        for storage in inner.files.values_mut() {
            storage.sync()?;
        }
        Ok(())
    }

    /// Snapshot of the pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// The pool's frame capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }
}

impl PoolInner {
    fn rebuild_table(&mut self) {
        self.table = self
            .frames
            .iter()
            .enumerate()
            .map(|(i, fr)| ((fr.file, fr.page), i))
            .collect();
    }

    /// Bring (file, page) into a frame and return the frame index.
    fn fetch(&mut self, file: FileId, page: PageId) -> Result<usize> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(&idx) = self.table.get(&(file, page)) {
            self.stats.hits += 1;
            self.frames[idx].last_used = tick;
            return Ok(idx);
        }
        self.stats.misses += 1;

        // Read the page before touching frame bookkeeping, so failures
        // leave the pool unchanged.
        let mut buf = zeroed_page();
        {
            let storage = self
                .files
                .get_mut(&file)
                .ok_or_else(|| WsqError::Storage(format!("unknown file {file}")))?;
            storage.read_page(page, &mut buf)?;
        }

        let idx = if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                file,
                page,
                data: buf,
                dirty: false,
                last_used: tick,
            });
            self.frames.len() - 1
        } else {
            let victim = self.pick_victim();
            self.evict(victim)?;
            let fr = &mut self.frames[victim];
            fr.file = file;
            fr.page = page;
            fr.data = buf;
            fr.dirty = false;
            fr.last_used = tick;
            victim
        };
        self.table.insert((file, page), idx);
        Ok(idx)
    }

    /// LRU victim: the frame with the smallest `last_used`.
    ///
    /// O(frames) scan; pools here are small and access is already
    /// lock-serialized, so an intrusive LRU list would buy nothing
    /// measurable (premature-optimization guidance from the perf book).
    fn pick_victim(&self) -> usize {
        self.frames
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| f.last_used)
            .map(|(i, _)| i)
            .expect("pool has at least one frame")
    }

    fn evict(&mut self, idx: usize) -> Result<()> {
        self.stats.evictions += 1;
        let (file, page, dirty) = {
            let fr = &self.frames[idx];
            (fr.file, fr.page, fr.dirty)
        };
        if dirty {
            self.stats.dirty_evictions += 1;
            let data = &self.frames[idx].data;
            let storage = self
                .files
                .get_mut(&file)
                .ok_or_else(|| WsqError::Storage(format!("unknown file {file}")))?;
            storage.write_page(page, data)?;
        }
        self.table.remove(&(file, page));
        Ok(())
    }

    fn flush_file(&mut self, file: FileId) -> Result<()> {
        for idx in 0..self.frames.len() {
            if self.frames[idx].file == file && self.frames[idx].dirty {
                let page = self.frames[idx].page;
                let storage = self
                    .files
                    .get_mut(&file)
                    .ok_or_else(|| WsqError::Storage(format!("unknown file {file}")))?;
                storage.write_page(page, &self.frames[idx].data)?;
                self.frames[idx].dirty = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemStorage;

    fn pool_with_file(capacity: usize, pages: u32) -> (BufferPool, FileId) {
        let pool = BufferPool::new(capacity);
        let mut mem = MemStorage::new();
        for _ in 0..pages {
            mem.allocate_page().unwrap();
        }
        let file = pool.register_file(Box::new(mem));
        (pool, file)
    }

    #[test]
    fn read_your_writes_through_the_pool() {
        let (pool, f) = pool_with_file(4, 2);
        pool.with_page_mut(f, PageId(1), |d| d[10] = 42).unwrap();
        let v = pool.with_page(f, PageId(1), |d| d[10]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        // Capacity 1 forces an eviction on every distinct page access.
        let (pool, f) = pool_with_file(1, 3);
        pool.with_page_mut(f, PageId(0), |d| d[0] = 7).unwrap();
        pool.with_page_mut(f, PageId(1), |d| d[0] = 8).unwrap(); // evicts p0
        pool.with_page_mut(f, PageId(2), |d| d[0] = 9).unwrap(); // evicts p1
        assert_eq!(pool.with_page(f, PageId(0), |d| d[0]).unwrap(), 7);
        assert_eq!(pool.with_page(f, PageId(1), |d| d[0]).unwrap(), 8);
        assert_eq!(pool.with_page(f, PageId(2), |d| d[0]).unwrap(), 9);
        let stats = pool.stats();
        assert!(stats.evictions >= 4);
        assert!(stats.dirty_evictions >= 3);
    }

    #[test]
    fn lru_prefers_older_pages() {
        let (pool, f) = pool_with_file(2, 3);
        pool.with_page(f, PageId(0), |_| ()).unwrap();
        pool.with_page(f, PageId(1), |_| ()).unwrap();
        pool.with_page(f, PageId(0), |_| ()).unwrap(); // p0 now recent
        pool.with_page(f, PageId(2), |_| ()).unwrap(); // should evict p1
        let s0 = pool.stats();
        pool.with_page(f, PageId(0), |_| ()).unwrap(); // should be a hit
        let s1 = pool.stats();
        assert_eq!(s1.hits, s0.hits + 1);
        assert_eq!(s1.misses, s0.misses);
    }

    #[test]
    fn multiple_files_do_not_collide() {
        let pool = BufferPool::new(4);
        let mut a = MemStorage::new();
        a.allocate_page().unwrap();
        let mut b = MemStorage::new();
        b.allocate_page().unwrap();
        let fa = pool.register_file(Box::new(a));
        let fb = pool.register_file(Box::new(b));
        pool.with_page_mut(fa, PageId(0), |d| d[0] = 1).unwrap();
        pool.with_page_mut(fb, PageId(0), |d| d[0] = 2).unwrap();
        assert_eq!(pool.with_page(fa, PageId(0), |d| d[0]).unwrap(), 1);
        assert_eq!(pool.with_page(fb, PageId(0), |d| d[0]).unwrap(), 2);
    }

    #[test]
    fn unregister_flushes_and_forgets() {
        let pool = BufferPool::new(4);
        let mut mem = MemStorage::new();
        mem.allocate_page().unwrap();
        let f = pool.register_file(Box::new(mem));
        pool.with_page_mut(f, PageId(0), |d| d[0] = 5).unwrap();
        pool.unregister_file(f).unwrap();
        assert!(pool.with_page(f, PageId(0), |_| ()).is_err());
        assert!(pool.unregister_file(f).is_err());
    }

    #[test]
    fn unknown_file_errors() {
        let pool = BufferPool::new(2);
        assert!(pool.allocate_page(FileId(99)).is_err());
        assert!(pool.num_pages(FileId(99)).is_err());
        assert!(pool.with_page(FileId(99), PageId(0), |_| ()).is_err());
    }

    #[test]
    fn flush_all_persists_to_backing_storage() {
        // Use a shared MemStorage via a wrapper to observe write-back.
        struct Spy {
            inner: MemStorage,
            writes: std::sync::Arc<std::sync::atomic::AtomicU64>,
        }
        impl Storage for Spy {
            fn read_page(&mut self, p: PageId, b: &mut PageBuf) -> Result<()> {
                self.inner.read_page(p, b)
            }
            fn write_page(&mut self, p: PageId, b: &PageBuf) -> Result<()> {
                self.writes
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                self.inner.write_page(p, b)
            }
            fn allocate_page(&mut self) -> Result<PageId> {
                self.inner.allocate_page()
            }
            fn num_pages(&self) -> u32 {
                self.inner.num_pages()
            }
            fn sync(&mut self) -> Result<()> {
                Ok(())
            }
        }
        let writes = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut inner = MemStorage::new();
        inner.allocate_page().unwrap();
        let pool = BufferPool::new(2);
        let f = pool.register_file(Box::new(Spy {
            inner,
            writes: writes.clone(),
        }));
        pool.with_page_mut(f, PageId(0), |d| d[0] = 9).unwrap();
        assert_eq!(writes.load(std::sync::atomic::Ordering::SeqCst), 0);
        pool.flush_all().unwrap();
        assert_eq!(writes.load(std::sync::atomic::Ordering::SeqCst), 1);
        // A second flush has nothing dirty to write.
        pool.flush_all().unwrap();
        assert_eq!(writes.load(std::sync::atomic::Ordering::SeqCst), 1);
    }
}
