//! Paged KV memory: a fixed-size-page block allocator with refcounted
//! copy-on-write pages and per-session page tables.
//!
//! KV storage is carved into fixed-size pages of [`KvPagePool::page_size`]
//! positions, sessions own *page tables* ([`PagedKv`]) mapping position
//! ranges to pages, and pages are **refcounted** so multiple sessions can
//! map the same physical page — the mechanism behind shared-prefix
//! caching. A serving engine shares one pool across its sessions, so fleet
//! size is capped by the pages sessions actually use rather than by
//! worst-case context; a standalone decode state
//! ([`crate::TransformerModel::new_decode_state`]) owns a pool of one
//! `max_seq_len`-long page per layer.
//!
//! Sharing is copy-on-write: appending into a page whose refcount is
//! greater than one first *forks* it (copies the live slots into a fresh
//! page and drops the shared reference), so a sharer can never observe
//! another session's writes.
//!
//! # Layout and determinism
//!
//! Each page stores its positions position-major (`[slot][component]`
//! rows for keys and values), plus a per-page **transposed key store**
//! `[component][slot]` so the attention score kernel can reduce over
//! contiguous position runs. The attention kernel walks positions page
//! segment by page segment, but every output receives the *identical
//! sequence of multiply-adds* whatever the page size, so outputs are
//! bitwise independent of the paging (see `Attention::attend_row`).
//!
//! Allocation order is deterministic: the free list is LIFO and seeded in
//! descending page order, so a deterministic sequence of alloc/free calls
//! yields a deterministic sequence of page ids — engine reports stay
//! bitwise reproducible across runs and OS thread counts.

use crate::error::{LmError, Result};
use std::cell::RefCell;
use std::rc::Rc;

/// Identifier of one fixed-size page inside a [`KvPagePool`].
pub type PageId = u32;

/// Shared handle to a [`KvPagePool`].
///
/// Engines are constructed and driven on a single OS thread (the
/// multi-cell experiment drivers build one engine *per* thread), so a
/// single-threaded `Rc<RefCell<…>>` suffices; cloning the handle does not
/// allocate, which keeps steady-state decode zero-alloc.
pub type PagePoolHandle = Rc<RefCell<KvPagePool>>;

/// Point-in-time usage statistics of a [`KvPagePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagePoolStats {
    /// Total pages the pool was created with.
    pub total_pages: usize,
    /// Positions per page.
    pub page_size: usize,
    /// Pages currently allocated (refcount ≥ 1).
    pub in_use: usize,
    /// Highest `in_use` ever observed.
    pub high_water: usize,
    /// Copy-on-write forks performed over the pool's lifetime.
    pub forks: u64,
}

/// Number of pages spanning `positions` positions at `page_size` positions
/// per page (`ceil(positions / page_size)`).
pub fn pages_spanning(positions: usize, page_size: usize) -> usize {
    positions.div_ceil(page_size)
}

/// A pool of fixed-size KV pages shared by every layer of every session of
/// one engine.
///
/// Pages hold `page_size` positions of `dim` floats for keys and values
/// (plus the per-page transposed key store). The per-position width `dim`
/// is fixed lazily by the first write — the engine's model has one KV width
/// across layers — and the full backing storage is reserved at that moment,
/// so steady-state operation (alloc, release, fork, append) never touches
/// the heap allocator.
#[derive(Debug)]
pub struct KvPagePool {
    page_size: usize,
    total_pages: usize,
    dim: usize,
    /// Position-major page storage: key of (page `p`, slot `s`) lives at
    /// `(p * page_size + s) * dim`.
    keys: Vec<f32>,
    /// Position-major value storage, same layout as `keys`.
    values: Vec<f32>,
    /// Per-page transposed keys: component `d` of (page `p`, slot `s`)
    /// lives at `p * page_size * dim + d * page_size + s`.
    keys_t: Vec<f32>,
    refcounts: Vec<u32>,
    /// LIFO free list, seeded in descending order so pages are first
    /// handed out in ascending id order.
    free: Vec<PageId>,
    in_use: usize,
    high_water: usize,
    forks: u64,
}

impl KvPagePool {
    /// Creates a pool of `total_pages` pages of `page_size` positions each.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` or `total_pages` is zero, or if `total_pages`
    /// exceeds `u32::MAX`.
    pub fn new(total_pages: usize, page_size: usize) -> Self {
        assert!(page_size > 0, "page_size must be positive");
        assert!(total_pages > 0, "pool must hold at least one page");
        assert!(u32::try_from(total_pages).is_ok(), "too many pages");
        KvPagePool {
            page_size,
            total_pages,
            dim: 0,
            keys: Vec::new(),
            values: Vec::new(),
            keys_t: Vec::new(),
            refcounts: vec![0; total_pages],
            free: (0..total_pages as u32).rev().collect(),
            in_use: 0,
            high_water: 0,
            forks: 0,
        }
    }

    /// Creates a pool and wraps it in a [`PagePoolHandle`].
    pub fn new_handle(total_pages: usize, page_size: usize) -> PagePoolHandle {
        Rc::new(RefCell::new(KvPagePool::new(total_pages, page_size)))
    }

    /// Positions per page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total pages the pool was created with.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Pages currently free.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Pages currently allocated (refcount ≥ 1).
    pub fn pages_in_use(&self) -> usize {
        self.in_use
    }

    /// Highest [`KvPagePool::pages_in_use`] ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Rebases the high-water mark to the current usage (serving engines
    /// call this at run start so reports carry per-run peaks).
    pub fn reset_high_water(&mut self) {
        self.high_water = self.in_use;
    }

    /// Copy-on-write forks performed over the pool's lifetime.
    pub fn fork_count(&self) -> u64 {
        self.forks
    }

    /// Per-position KV width (0 until the first write fixes it).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Snapshot of the pool's usage counters.
    pub fn stats(&self) -> PagePoolStats {
        PagePoolStats {
            total_pages: self.total_pages,
            page_size: self.page_size,
            in_use: self.in_use,
            high_water: self.high_water,
            forks: self.forks,
        }
    }

    /// Current refcount of `page` (0 = free).
    pub fn refcount(&self, page: PageId) -> u32 {
        self.refcounts[page as usize]
    }

    /// Fixes the per-position width and reserves the full page storage on
    /// first use.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::BadSequence`] when `dim` conflicts with the width
    /// already fixed by an earlier write.
    pub fn ensure_dim(&mut self, dim: usize) -> Result<()> {
        if self.dim == 0 {
            self.dim = dim;
            let n = self.total_pages * self.page_size * dim;
            self.keys = vec![0.0; n];
            self.values = vec![0.0; n];
            self.keys_t = vec![0.0; n];
        } else if dim != self.dim {
            return Err(LmError::BadSequence {
                reason: format!("KV width {dim} != pool width {}", self.dim),
            });
        }
        Ok(())
    }

    /// Allocates a page with refcount 1, or `None` when the pool is
    /// exhausted. Never touches the heap.
    pub fn alloc(&mut self) -> Option<PageId> {
        let p = self.free.pop()?;
        self.refcounts[p as usize] = 1;
        self.in_use += 1;
        if self.in_use > self.high_water {
            self.high_water = self.in_use;
        }
        Some(p)
    }

    /// Adds one reference to an allocated page (a new sharer mapped it).
    ///
    /// # Panics
    ///
    /// Panics if `page` is free — retaining a free page is a use-after-free.
    pub fn retain(&mut self, page: PageId) {
        let rc = &mut self.refcounts[page as usize];
        assert!(*rc > 0, "retain of free page {page}");
        *rc += 1;
    }

    /// Drops one reference; the page returns to the free list when the last
    /// sharer releases it.
    ///
    /// # Panics
    ///
    /// Panics if `page` is already free — releasing a free page is a
    /// double-free.
    pub fn release(&mut self, page: PageId) {
        let rc = &mut self.refcounts[page as usize];
        assert!(*rc > 0, "double free of page {page}");
        *rc -= 1;
        if *rc == 0 {
            self.free.push(page);
            self.in_use -= 1;
        }
    }

    /// Copy-on-write fork: allocates a fresh page, copies the first
    /// `live_slots` positions of `page` into it (keys, values and the
    /// transposed key columns — a bitwise copy), and releases the caller's
    /// reference on `page`. Returns `None` (leaving `page` untouched) when
    /// the pool is exhausted. Never touches the heap.
    pub fn fork(&mut self, page: PageId, live_slots: usize) -> Option<PageId> {
        debug_assert!(live_slots <= self.page_size);
        let fresh = self.alloc()?;
        let (src, dst) = (page as usize, fresh as usize);
        let row = self.page_size * self.dim;
        let live = live_slots * self.dim;
        self.keys
            .copy_within(src * row..src * row + live, dst * row);
        self.values
            .copy_within(src * row..src * row + live, dst * row);
        for d in 0..self.dim {
            let s = src * row + d * self.page_size;
            let t = dst * row + d * self.page_size;
            self.keys_t.copy_within(s..s + live_slots, t);
        }
        self.release(page);
        self.forks += 1;
        Some(fresh)
    }

    /// Writes the key/value vectors of one position into (`page`, `slot`),
    /// scattering the key into the page's transposed store.
    ///
    /// # Panics
    ///
    /// Panics (debug) on slot or width mismatch.
    pub fn write_slot(&mut self, page: PageId, slot: usize, key: &[f32], value: &[f32]) {
        debug_assert!(slot < self.page_size, "slot {slot} out of page");
        debug_assert_eq!(key.len(), self.dim);
        debug_assert_eq!(value.len(), self.dim);
        let base = (page as usize * self.page_size + slot) * self.dim;
        self.keys[base..base + self.dim].copy_from_slice(key);
        self.values[base..base + self.dim].copy_from_slice(value);
        let t_base = page as usize * self.page_size * self.dim;
        for (d, &kv) in key.iter().enumerate() {
            self.keys_t[t_base + d * self.page_size + slot] = kv;
        }
    }

    /// Key vector stored at (`page`, `slot`).
    #[inline]
    pub fn key(&self, page: PageId, slot: usize) -> &[f32] {
        let base = (page as usize * self.page_size + slot) * self.dim;
        &self.keys[base..base + self.dim]
    }

    /// Value vector stored at (`page`, `slot`).
    #[inline]
    pub fn value(&self, page: PageId, slot: usize) -> &[f32] {
        let base = (page as usize * self.page_size + slot) * self.dim;
        &self.values[base..base + self.dim]
    }

    /// Value vectors of the first `slots` slots of `page`, position-major
    /// (`slots × dim` floats in one contiguous run) — the layout the
    /// attention value pass walks.
    #[inline]
    pub fn value_rows(&self, page: PageId, slots: usize) -> &[f32] {
        let base = page as usize * self.page_size * self.dim;
        &self.values[base..base + slots * self.dim]
    }

    /// Component `d` of every slot of `page` as one contiguous
    /// `page_size`-long slice — the per-page transposed view the attention
    /// score kernel reduces over (slots beyond a session's length hold
    /// stale data and must not be read).
    #[inline]
    pub fn keys_t_row(&self, page: PageId, d: usize) -> &[f32] {
        let base = page as usize * self.page_size * self.dim + d * self.page_size;
        &self.keys_t[base..base + self.page_size]
    }
}

/// One session-layer's view into a [`KvPagePool`]: a page table mapping
/// position ranges to pool pages, plus the session's live length.
///
/// Appends go through copy-on-write ([`PagedKv::push_slices`]); shared
/// prefixes are mapped with [`PagedKv::adopt_prefix`]; preemption turns
/// into [`PagedKv::spill`]/[`PagedKv::reload`], which copies page contents
/// to a session-owned buffer and frees the pages so a parked session holds
/// zero pool memory.
#[derive(Debug)]
pub struct PagedKv {
    pool: PagePoolHandle,
    page_size: usize,
    capacity: usize,
    pages: Vec<PageId>,
    len: usize,
    spilled: bool,
    spill_keys: Vec<f32>,
    spill_values: Vec<f32>,
}

impl PagedKv {
    /// Creates an empty paged cache for up to `max_seq_len` positions,
    /// pre-reserving its page-table capacity so steady-state appends never
    /// allocate.
    pub fn new(pool: &PagePoolHandle, max_seq_len: usize) -> Self {
        let page_size = pool.borrow().page_size();
        PagedKv {
            pool: Rc::clone(pool),
            page_size,
            capacity: max_seq_len,
            pages: Vec::with_capacity(pages_spanning(max_seq_len, page_size)),
            len: 0,
            spilled: false,
            spill_keys: Vec::new(),
            spill_values: Vec::new(),
        }
    }

    /// Number of positions currently stored (valid even while spilled).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of positions the cache accepts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Positions per page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The page table: page `i` backs positions
    /// `[i * page_size, (i + 1) * page_size)`.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// The pool this cache allocates from.
    pub fn pool_handle(&self) -> &PagePoolHandle {
        &self.pool
    }

    /// Whether the contents currently live in the spill buffer instead of
    /// pool pages.
    pub fn is_spilled(&self) -> bool {
        self.spilled
    }

    /// Appends the key/value vectors of a new position, forking the tail
    /// page first when it is shared (copy-on-write). Allocation-free in
    /// steady state: the page table was pre-reserved and pool alloc/fork
    /// only pop the free list.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::BadSequence`] when the cache is full or spilled,
    /// the key/value widths mismatch, or the pool is out of pages.
    pub fn push_slices(&mut self, key: &[f32], value: &[f32]) -> Result<()> {
        if self.spilled {
            return Err(LmError::BadSequence {
                reason: "paged KV is spilled; reload before appending".to_string(),
            });
        }
        if self.len >= self.capacity {
            return Err(LmError::BadSequence {
                reason: format!("KV cache full at capacity {}", self.capacity),
            });
        }
        if key.len() != value.len() {
            return Err(LmError::BadSequence {
                reason: format!("key length {} != value length {}", key.len(), value.len()),
            });
        }
        let mut pool = self.pool.borrow_mut();
        pool.ensure_dim(key.len())?;
        let slot = self.len % self.page_size;
        if slot == 0 {
            let p = pool.alloc().ok_or_else(|| LmError::BadSequence {
                reason: format!("KV page pool exhausted ({} pages)", pool.total_pages()),
            })?;
            self.pages.push(p);
        } else {
            let last = *self.pages.last().expect("tail page exists");
            if pool.refcount(last) > 1 {
                let forked = pool.fork(last, slot).ok_or_else(|| LmError::BadSequence {
                    reason: format!(
                        "KV page pool exhausted ({} pages) during copy-on-write fork",
                        pool.total_pages()
                    ),
                })?;
                *self.pages.last_mut().expect("tail page exists") = forked;
            }
        }
        let p = *self.pages.last().expect("tail page exists");
        pool.write_slot(p, slot, key, value);
        drop(pool);
        self.len += 1;
        Ok(())
    }

    /// Key vector of position `i`, copied out (diagnostics/tests; the
    /// attention kernel reads pages through the pool directly).
    pub fn key_at(&self, i: usize) -> Option<Vec<f32>> {
        if i >= self.len || self.spilled {
            return None;
        }
        let pool = self.pool.borrow();
        Some(
            pool.key(self.pages[i / self.page_size], i % self.page_size)
                .to_vec(),
        )
    }

    /// Value vector of position `i`, copied out (diagnostics/tests).
    pub fn value_at(&self, i: usize) -> Option<Vec<f32>> {
        if i >= self.len || self.spilled {
            return None;
        }
        let pool = self.pool.borrow();
        Some(
            pool.value(self.pages[i / self.page_size], i % self.page_size)
                .to_vec(),
        )
    }

    /// Maps an already-prefilled shared prefix into this (empty) cache:
    /// retains every page in `pages` and adopts them as the first
    /// `prefix_len` positions. The tail page may extend past `prefix_len`;
    /// those slots are never read (length stops at `prefix_len`) and the
    /// first divergent append forks the page.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::BadSequence`] when the cache is not empty, the
    /// page list does not span `prefix_len`, or `prefix_len` exceeds the
    /// capacity.
    pub fn adopt_prefix(&mut self, pages: &[PageId], prefix_len: usize) -> Result<()> {
        if self.len != 0 || !self.pages.is_empty() || self.spilled {
            return Err(LmError::BadSequence {
                reason: "shared prefix can only be adopted by an empty cache".to_string(),
            });
        }
        if pages.len() != pages_spanning(prefix_len, self.page_size) || prefix_len > self.capacity {
            return Err(LmError::BadSequence {
                reason: format!(
                    "{} pages do not span a prefix of {} positions",
                    pages.len(),
                    prefix_len
                ),
            });
        }
        let mut pool = self.pool.borrow_mut();
        for &p in pages {
            pool.retain(p);
        }
        drop(pool);
        self.pages.extend_from_slice(pages);
        self.len = prefix_len;
        Ok(())
    }

    /// Copies the live contents into the session-owned spill buffer and
    /// releases every page reference: a parked (preempted) session holds
    /// zero pool pages, so pool residency is bounded by *active* sessions.
    /// Shared-prefix references are released too; a later
    /// [`PagedKv::reload`] rebuilds private pages.
    ///
    /// The spill buffer allocates on first use — preemption is off the
    /// steady-state decode path.
    ///
    /// Spilling an *empty* cache (a session preempted before its first
    /// prefill token) is a no-op: there is nothing to copy, no page to
    /// free, and the cache stays immediately appendable.
    pub fn spill(&mut self) {
        if self.spilled || self.len == 0 {
            return;
        }
        let mut pool = self.pool.borrow_mut();
        let dim = pool.dim();
        self.spill_keys.clear();
        self.spill_values.clear();
        self.spill_keys.reserve(self.len * dim);
        self.spill_values.reserve(self.len * dim);
        for i in 0..self.len {
            let (p, s) = (self.pages[i / self.page_size], i % self.page_size);
            self.spill_keys.extend_from_slice(pool.key(p, s));
            self.spill_values.extend_from_slice(pool.value(p, s));
        }
        for &p in &self.pages {
            pool.release(p);
        }
        drop(pool);
        self.pages.clear();
        self.spilled = true;
    }

    /// Number of pool pages a [`PagedKv::reload`] would need right now.
    pub fn pages_to_reload(&self) -> usize {
        if self.spilled {
            pages_spanning(self.len, self.page_size)
        } else {
            0
        }
    }

    /// Reallocates pages and copies the spilled contents back, rebuilding
    /// the transposed key store bit-for-bit (every entry is a copy of a key
    /// component, not a computation).
    ///
    /// # Errors
    ///
    /// Returns [`LmError::BadSequence`] when the pool cannot supply enough
    /// pages; the cache stays spilled and can be retried later.
    pub fn reload(&mut self) -> Result<()> {
        if !self.spilled {
            return Ok(());
        }
        let mut pool = self.pool.borrow_mut();
        if pool.free_pages() < pages_spanning(self.len, self.page_size) {
            return Err(LmError::BadSequence {
                reason: format!(
                    "KV page pool exhausted ({} pages) while reloading a parked session",
                    pool.total_pages()
                ),
            });
        }
        let dim = pool.dim();
        for i in 0..self.len {
            let slot = i % self.page_size;
            if slot == 0 {
                let p = pool.alloc().expect("free pages were checked");
                self.pages.push(p);
            }
            let p = *self.pages.last().expect("tail page exists");
            pool.write_slot(
                p,
                slot,
                &self.spill_keys[i * dim..(i + 1) * dim],
                &self.spill_values[i * dim..(i + 1) * dim],
            );
        }
        drop(pool);
        self.spilled = false;
        self.spill_keys.clear();
        self.spill_values.clear();
        Ok(())
    }

    /// Releases every page and empties the cache, keeping the page table's
    /// reserved storage so a recycled cache never reallocates.
    pub fn clear(&mut self) {
        if !self.spilled {
            let mut pool = self.pool.borrow_mut();
            for &p in &self.pages {
                pool.release(p);
            }
        }
        self.pages.clear();
        self.len = 0;
        self.spilled = false;
        self.spill_keys.clear();
        self.spill_values.clear();
    }

    /// Drops every position at index `len` or later, releasing pages that
    /// no longer back any live position.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len || self.spilled {
            if self.spilled && len < self.len {
                let dim = self.spill_keys.len() / self.len.max(1);
                self.spill_keys.truncate(len * dim);
                self.spill_values.truncate(len * dim);
                self.len = len;
            }
            return;
        }
        let keep = pages_spanning(len, self.page_size);
        let mut pool = self.pool.borrow_mut();
        for &p in &self.pages[keep..] {
            pool.release(p);
        }
        drop(pool);
        self.pages.truncate(keep);
        self.len = len;
    }
}

impl Clone for PagedKv {
    /// Cloning maps the same pages and bumps their refcounts — the clone
    /// shares every position copy-on-write, exactly like a prefix sharer.
    fn clone(&self) -> Self {
        if !self.spilled {
            let mut pool = self.pool.borrow_mut();
            for &p in &self.pages {
                pool.retain(p);
            }
        }
        let mut pages = Vec::with_capacity(pages_spanning(self.capacity, self.page_size));
        pages.extend_from_slice(&self.pages);
        PagedKv {
            pool: Rc::clone(&self.pool),
            page_size: self.page_size,
            capacity: self.capacity,
            pages,
            len: self.len,
            spilled: self.spilled,
            spill_keys: self.spill_keys.clone(),
            spill_values: self.spill_values.clone(),
        }
    }
}

impl Drop for PagedKv {
    fn drop(&mut self) {
        if !self.spilled && !self.pages.is_empty() {
            let mut pool = self.pool.borrow_mut();
            for &p in &self.pages {
                pool.release(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(pages: usize, page_size: usize) -> PagePoolHandle {
        KvPagePool::new_handle(pages, page_size)
    }

    #[test]
    fn push_and_read_back_across_pages() {
        let pool = pool(4, 2);
        let mut kv = PagedKv::new(&pool, 8);
        for i in 0..5 {
            kv.push_slices(&[i as f32, -(i as f32)], &[10.0 + i as f32, 0.5])
                .unwrap();
        }
        assert_eq!(kv.len(), 5);
        assert_eq!(kv.pages().len(), 3);
        assert_eq!(kv.key_at(0).unwrap(), vec![0.0, 0.0]);
        assert_eq!(kv.key_at(4).unwrap(), vec![4.0, -4.0]);
        assert_eq!(kv.value_at(3).unwrap(), vec![13.0, 0.5]);
        assert!(kv.key_at(5).is_none());
        assert_eq!(pool.borrow().pages_in_use(), 3);
        assert_eq!(pool.borrow().high_water(), 3);
    }

    #[test]
    fn spilling_an_empty_cache_is_a_noop() {
        // A session preempted before its first prefill token parks an
        // empty cache; it must come back immediately appendable (the
        // engine's reload is a no-op at zero pages).
        let pool = pool(4, 2);
        let mut kv = PagedKv::new(&pool, 8);
        kv.spill();
        assert!(!kv.is_spilled());
        assert_eq!(kv.pages_to_reload(), 0);
        kv.reload().unwrap();
        kv.push_slices(&[1.0, 2.0], &[3.0, 4.0]).unwrap();
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn transposed_rows_match_position_major_keys() {
        let pool = pool(4, 4);
        let mut kv = PagedKv::new(&pool, 16);
        for i in 0..7 {
            kv.push_slices(&[i as f32 * 1.5, i as f32 - 3.0], &[0.0, 0.0])
                .unwrap();
        }
        let p = pool.borrow();
        for i in 0..7 {
            let (page, slot) = (kv.pages()[i / 4], i % 4);
            let key = p.key(page, slot).to_vec();
            for (d, &k) in key.iter().enumerate() {
                assert_eq!(p.keys_t_row(page, d)[slot].to_bits(), k.to_bits());
            }
        }
    }

    #[test]
    fn rejects_overflow_and_width_mismatch() {
        let pool = pool(4, 2);
        let mut kv = PagedKv::new(&pool, 1);
        kv.push_slices(&[1.0], &[1.0]).unwrap();
        assert!(
            kv.push_slices(&[2.0], &[2.0]).is_err(),
            "capacity 1 is full"
        );
        let mut kv = PagedKv::new(&pool, 4);
        assert!(kv.push_slices(&[1.0], &[1.0, 2.0]).is_err());
        assert!(
            kv.push_slices(&[1.0, 2.0], &[1.0, 2.0]).is_err(),
            "pool width is 1"
        );
        assert!(kv.is_empty());
    }

    #[test]
    fn pool_exhaustion_is_an_error_not_a_crash() {
        let pool = pool(1, 2);
        let mut kv = PagedKv::new(&pool, 8);
        kv.push_slices(&[1.0], &[1.0]).unwrap();
        kv.push_slices(&[2.0], &[2.0]).unwrap();
        let err = kv.push_slices(&[3.0], &[3.0]).unwrap_err();
        assert!(format!("{err}").contains("exhausted"));
        assert_eq!(kv.len(), 2, "failed append must not corrupt the length");
    }

    #[test]
    fn clone_shares_pages_and_cow_forks_on_divergence() {
        let pool = pool(8, 2);
        let mut a = PagedKv::new(&pool, 8);
        a.push_slices(&[1.0], &[10.0]).unwrap();
        let mut b = a.clone();
        assert_eq!(pool.borrow().pages_in_use(), 1, "clone maps the same page");
        assert_eq!(pool.borrow().refcount(a.pages()[0]), 2);

        // b appends into the shared partial page: fork, a is untouched
        b.push_slices(&[2.0], &[20.0]).unwrap();
        assert_ne!(a.pages()[0], b.pages()[0]);
        assert_eq!(pool.borrow().fork_count(), 1);
        assert_eq!(b.key_at(0).unwrap(), vec![1.0], "fork copies the parent");
        assert_eq!(b.value_at(0).unwrap(), vec![10.0]);
        assert_eq!(b.key_at(1).unwrap(), vec![2.0]);
        assert_eq!(a.len(), 1);
        assert_eq!(a.key_at(0).unwrap(), vec![1.0]);

        // a still owns its page alone now — no fork on its next append
        a.push_slices(&[3.0], &[30.0]).unwrap();
        assert_eq!(pool.borrow().fork_count(), 1);
    }

    #[test]
    fn adopt_prefix_maps_pages_and_forks_on_first_append() {
        let pool = pool(8, 4);
        let mut owner = PagedKv::new(&pool, 16);
        for i in 0..6 {
            owner.push_slices(&[i as f32], &[i as f32]).unwrap();
        }
        // share the first 5 positions: one full page + one partial
        let prefix_pages = owner.pages()[..2].to_vec();
        let mut sharer = PagedKv::new(&pool, 16);
        sharer.adopt_prefix(&prefix_pages, 5).unwrap();
        assert_eq!(sharer.len(), 5);
        assert_eq!(sharer.key_at(4).unwrap(), vec![4.0]);
        assert!(sharer.key_at(5).is_none(), "owner's slot 5 is not visible");

        sharer.push_slices(&[99.0], &[99.0]).unwrap();
        assert_eq!(sharer.key_at(5).unwrap(), vec![99.0]);
        assert_eq!(owner.key_at(5).unwrap(), vec![5.0], "owner unaffected");
        assert_eq!(pool.borrow().fork_count(), 1);
    }

    #[test]
    fn spill_frees_pages_and_reload_restores_bitwise() {
        let pool = pool(4, 2);
        let mut kv = PagedKv::new(&pool, 8);
        for i in 0..5 {
            kv.push_slices(&[i as f32 * 0.3, 1.0 / (i + 1) as f32], &[i as f32, 7.0])
                .unwrap();
        }
        let before: Vec<_> = (0..5).map(|i| (kv.key_at(i), kv.value_at(i))).collect();
        kv.spill();
        assert!(kv.is_spilled());
        assert_eq!(pool.borrow().pages_in_use(), 0, "parked = zero pool pages");
        assert_eq!(kv.pages_to_reload(), 3);
        assert!(kv.push_slices(&[0.0, 0.0], &[0.0, 0.0]).is_err());

        kv.reload().unwrap();
        assert!(!kv.is_spilled());
        let after: Vec<_> = (0..5).map(|i| (kv.key_at(i), kv.value_at(i))).collect();
        assert_eq!(before, after);
        let p = pool.borrow();
        for i in 0..5 {
            let (page, slot) = (kv.pages()[i / 2], i % 2);
            let key = p.key(page, slot).to_vec();
            for (d, &k) in key.iter().enumerate() {
                assert_eq!(p.keys_t_row(page, d)[slot].to_bits(), k.to_bits());
            }
        }
    }

    #[test]
    fn reload_is_gated_on_free_pages() {
        let pool = pool(3, 2);
        let mut kv = PagedKv::new(&pool, 8);
        for i in 0..5 {
            kv.push_slices(&[i as f32], &[0.0]).unwrap();
        }
        kv.spill();
        // a co-tenant grabs pages while kv is parked
        let mut tenant = PagedKv::new(&pool, 8);
        tenant.push_slices(&[1.0], &[1.0]).unwrap();
        assert!(kv.reload().is_err(), "2 free pages cannot hold 3");
        assert!(kv.is_spilled(), "failed reload leaves the spill intact");
        drop(tenant);
        kv.reload().unwrap();
        assert_eq!(kv.key_at(4).unwrap(), vec![4.0]);
    }

    #[test]
    fn clear_truncate_and_drop_release_pages() {
        let pool = pool(8, 2);
        let mut kv = PagedKv::new(&pool, 16);
        for i in 0..6 {
            kv.push_slices(&[i as f32], &[0.0]).unwrap();
        }
        assert_eq!(pool.borrow().pages_in_use(), 3);
        kv.truncate(3);
        assert_eq!(kv.len(), 3);
        assert_eq!(pool.borrow().pages_in_use(), 2);
        kv.clear();
        assert_eq!(pool.borrow().pages_in_use(), 0);

        let mut kv2 = PagedKv::new(&pool, 16);
        kv2.push_slices(&[1.0], &[1.0]).unwrap();
        drop(kv2);
        assert_eq!(pool.borrow().pages_in_use(), 0, "drop releases pages");
        assert_eq!(pool.borrow().high_water(), 3);
    }

    #[test]
    fn pages_spanning_rounds_up() {
        assert_eq!(pages_spanning(0, 4), 0);
        assert_eq!(pages_spanning(1, 4), 1);
        assert_eq!(pages_spanning(4, 4), 1);
        assert_eq!(pages_spanning(5, 4), 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let pool = KvPagePool::new(2, 2);
        let mut pool = pool;
        pool.ensure_dim(1).unwrap();
        let p = pool.alloc().unwrap();
        pool.release(p);
        pool.release(p);
    }
}
