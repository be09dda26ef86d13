//! Least-frequently-used column cache (the paper's default policy).

use super::{AccessOutcome, ColumnCache, EvictionPolicy};

/// An LFU cache over weight columns.
///
/// Usage frequency is tracked for the whole session (also for columns that
/// are currently evicted, as in "LLM in a Flash"); ties are broken by
/// evicting the least recently used of the least frequently used columns.
///
/// # Implementation
///
/// Residency is a dense `column → last-access-time` array (time 0 = not
/// resident) and the columns of the *current* access are marked in an
/// epoch-stamped protection array. The protect pass also counts the
/// access's distinct new columns: the first `free` of them fill the free
/// slots and each later one evicts an unprotected resident while any is
/// left, so the access evicts exactly `min(new − free, unprotected)`
/// columns. Those victims are the minima by `(frequency,
/// last-access-time)`, and no key of an unprotected resident changes
/// during the access (hits and frequency bumps only touch protected
/// columns; insertions are protected), so the whole victim set is chosen
/// up front: a branch-free scan collects the unprotected residents and
/// `select_nth_unstable` isolates the smallest. Access times are unique,
/// so the victims — and therefore every hit/miss/insertion — are
/// **identical** to those of the map-based oracle in the tests, which
/// evicts one minimum per insertion (see the
/// `matches_reference_implementation` test).
#[derive(Debug, Clone)]
pub struct LfuColumnCache {
    n_columns: usize,
    capacity: usize,
    /// column -> last access time (0 = not resident; the clock starts at 1).
    resident_time: Vec<u64>,
    resident_count: usize,
    /// session-wide access frequency per column
    frequency: Vec<u64>,
    /// column -> epoch in which it was last part of the presented access
    /// list (columns of the current access are never evicted for each
    /// other).
    protected_epoch: Vec<u64>,
    epoch: u64,
    clock: u64,
    /// Eviction candidates `(frequency, time, column)` of the current
    /// access; sized to `n_columns` at the first eviction and reused.
    evict_queue: Vec<(u64, u64, usize)>,
}

impl LfuColumnCache {
    /// Creates an empty LFU cache.
    pub fn new(n_columns: usize, capacity: usize) -> Self {
        LfuColumnCache {
            n_columns,
            capacity: capacity.min(n_columns),
            resident_time: vec![0; n_columns],
            resident_count: 0,
            frequency: vec![0; n_columns],
            protected_epoch: vec![0; n_columns],
            epoch: 0,
            clock: 0,
            evict_queue: Vec::new(),
        }
    }

    /// Session-wide access count of a column.
    pub fn frequency(&self, column: usize) -> u64 {
        self.frequency.get(column).copied().unwrap_or(0)
    }

    /// Evicts the `count` resident, unprotected columns with the smallest
    /// `(frequency, last-access-time)` keys (all of them if fewer) and
    /// returns how many it evicted. Access times are unique, so the victim
    /// set is unique.
    fn evict_smallest(&mut self, count: usize) -> usize {
        self.evict_queue.resize(self.n_columns, (0, 0, 0));
        let queue = &mut self.evict_queue[..];
        let mut len = 0;
        for (col, ((&time, &freq), &epoch)) in self
            .resident_time
            .iter()
            .zip(&self.frequency)
            .zip(&self.protected_epoch)
            .enumerate()
        {
            // written unconditionally, kept by advancing the length
            queue[len] = (freq, time, col);
            len += usize::from((time != 0) & (epoch != self.epoch));
        }
        let count = count.min(len);
        if count < len {
            queue[..len].select_nth_unstable(count);
        }
        for &(_, _, col) in &queue[..count] {
            self.resident_time[col] = 0;
        }
        self.resident_count -= count;
        count
    }
}

impl ColumnCache for LfuColumnCache {
    fn n_columns(&self) -> usize {
        self.n_columns
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.resident_count
    }

    fn contains(&self, column: usize) -> bool {
        self.resident_time
            .get(column)
            .map(|&t| t > 0)
            .unwrap_or(false)
    }

    fn cached_mask_into(&self, out: &mut Vec<bool>) {
        out.clear();
        out.extend(self.resident_time.iter().map(|&t| t > 0));
    }

    fn access(&mut self, columns: &[usize]) -> AccessOutcome {
        let mut outcome = AccessOutcome::default();
        // Protect this access's columns up front: they may not evict each
        // other (Section 6.4). Counting the distinct new columns and the
        // residents left unprotected fixes the evictions before any insert.
        self.epoch += 1;
        let mut unprotected_resident = self.resident_count;
        let mut new_columns = 0usize;
        for &col in columns {
            if let Some(epoch) = self.protected_epoch.get_mut(col) {
                let fresh = *epoch != self.epoch;
                *epoch = self.epoch;
                let resident = self.resident_time[col] != 0;
                unprotected_resident -= usize::from(fresh & resident);
                new_columns += usize::from(fresh & !resident);
            }
        }
        let needed = new_columns.saturating_sub(self.capacity - self.resident_count);
        if needed > 0 && unprotected_resident > 0 {
            outcome.evictions = self.evict_smallest(needed);
        }
        for &col in columns {
            self.clock += 1;
            if col >= self.n_columns {
                outcome.misses += 1;
                continue;
            }
            self.frequency[col] += 1;
            if self.resident_time[col] > 0 {
                self.resident_time[col] = self.clock;
                outcome.hits += 1;
                continue;
            }
            outcome.misses += 1;
            // the victims are already gone: a miss inserts while a slot is
            // free and is dropped once the evictions are used up
            if self.resident_count < self.capacity {
                self.resident_time[col] = self.clock;
                self.resident_count += 1;
            }
        }
        outcome
    }

    fn clear(&mut self) {
        self.resident_time.iter_mut().for_each(|t| *t = 0);
        self.resident_count = 0;
        self.frequency.iter_mut().for_each(|f| *f = 0);
        self.protected_epoch.iter_mut().for_each(|e| *e = 0);
        self.epoch = 0;
        self.clock = 0;
    }

    fn policy(&self) -> EvictionPolicy {
        EvictionPolicy::Lfu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn hits_after_insertion() {
        let mut c = LfuColumnCache::new(8, 4);
        assert_eq!(c.access(&[0, 1]).misses, 2);
        assert_eq!(c.access(&[0, 1]).hits, 2);
        assert_eq!(c.frequency(0), 2);
        assert_eq!(c.frequency(5), 0);
    }

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuColumnCache::new(8, 2);
        c.access(&[0]);
        c.access(&[0]);
        c.access(&[1]);
        // 0 has frequency 2, 1 has frequency 1 -> inserting 2 evicts 1
        c.access(&[2]);
        assert!(c.contains(0));
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn frequency_survives_eviction() {
        let mut c = LfuColumnCache::new(8, 1);
        c.access(&[0]);
        c.access(&[0]);
        c.access(&[1]); // evicts 0, but 0's frequency (2) persists
        assert_eq!(c.frequency(0), 2);
        // re-inserting 1 vs 0: 0 should win future eviction contests
        c.access(&[0]);
        assert!(c.contains(0));
        assert!(!c.contains(1));
    }

    #[test]
    fn protects_current_token_columns() {
        let mut c = LfuColumnCache::new(8, 2);
        let out = c.access(&[3, 4, 5]);
        assert_eq!(out.misses, 3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn out_of_range_columns_count_as_misses_but_are_not_cached() {
        let mut c = LfuColumnCache::new(4, 4);
        let out = c.access(&[10]);
        assert_eq!(out.misses, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_resets_frequencies() {
        let mut c = LfuColumnCache::new(4, 4);
        c.access(&[0, 0, 1]);
        c.clear();
        assert_eq!(c.frequency(0), 0);
        assert!(c.is_empty());
        assert_eq!(c.policy(), EvictionPolicy::Lfu);
    }

    /// The historical map-based implementation, kept verbatim as the
    /// behavioural oracle for the dense-array fast path.
    struct ReferenceLfu {
        n_columns: usize,
        capacity: usize,
        resident: HashMap<usize, u64>,
        frequency: Vec<u64>,
        clock: u64,
    }

    impl ReferenceLfu {
        fn new(n_columns: usize, capacity: usize) -> Self {
            ReferenceLfu {
                n_columns,
                capacity: capacity.min(n_columns),
                resident: HashMap::new(),
                frequency: vec![0; n_columns],
                clock: 0,
            }
        }

        fn evict_one(&mut self, protect: &[usize]) -> bool {
            let victim = self
                .resident
                .iter()
                .filter(|(col, _)| !protect.contains(col))
                .min_by_key(|(col, time)| (self.frequency[**col], **time))
                .map(|(col, _)| *col);
            match victim {
                Some(col) => {
                    self.resident.remove(&col);
                    true
                }
                None => false,
            }
        }

        fn access(&mut self, columns: &[usize]) -> AccessOutcome {
            let mut outcome = AccessOutcome::default();
            for &col in columns {
                self.clock += 1;
                if col < self.n_columns {
                    self.frequency[col] += 1;
                }
                if let Some(t) = self.resident.get_mut(&col) {
                    *t = self.clock;
                    outcome.hits += 1;
                    continue;
                }
                outcome.misses += 1;
                if self.capacity == 0 || col >= self.n_columns {
                    continue;
                }
                if self.resident.len() >= self.capacity {
                    if !self.evict_one(columns) {
                        continue;
                    }
                    outcome.evictions += 1;
                }
                self.resident.insert(col, self.clock);
            }
            outcome
        }
    }

    /// Deterministic xorshift stream for the oracle tests.
    fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    /// Presents every access to both implementations and checks each
    /// outcome, each column's residency and frequency, and the length.
    fn assert_matches_reference(
        n_columns: usize,
        capacity: usize,
        rounds: usize,
        mut access: impl FnMut(usize) -> Vec<usize>,
    ) {
        let mut fast = LfuColumnCache::new(n_columns, capacity);
        let mut reference = ReferenceLfu::new(n_columns, capacity);
        for round in 0..rounds {
            let columns = access(round);
            assert_eq!(
                fast.access(&columns),
                reference.access(&columns),
                "outcome diverged at round {round} (n={n_columns}, cap={capacity})"
            );
            for col in 0..n_columns {
                assert_eq!(
                    fast.contains(col),
                    reference.resident.contains_key(&col),
                    "residency diverged at round {round}, column {col}"
                );
                assert_eq!(fast.frequency(col), reference.frequency[col]);
            }
            assert_eq!(fast.len(), reference.resident.len());
        }
    }

    #[test]
    fn matches_reference_implementation() {
        // Deterministic pseudo-random access streams, mixing sparse subsets,
        // dense sweeps, repeats and out-of-range columns.
        let mut next = xorshift(0x2545f4914f6cdd1d);
        for (n_columns, capacity) in [(32usize, 12usize), (64, 40), (16, 0), (48, 48)] {
            assert_matches_reference(n_columns, capacity, 200, |round| {
                if round % 7 == 0 {
                    (0..n_columns).collect() // dense sweep: all protected
                } else {
                    let len = (next() as usize % (n_columns + 4)) + 1;
                    (0..len)
                        .map(|_| next() as usize % (n_columns + 2))
                        .collect()
                }
            });
        }
    }

    /// Streams shaped like DIP-CA's selections: each access is `k` distinct
    /// columns, ~90% of them from a hot set that drifts over time, so most
    /// accesses evict a few columns out of a large unprotected resident
    /// set. Every other access also repeats some of its columns and adds
    /// out-of-range ones, and the shapes include capacity 0 and capacity n.
    #[test]
    fn matches_reference_on_dip_ca_shaped_streams() {
        let mut next = xorshift(0x9e3779b97f4a7c15);
        for (n_columns, capacity, k) in [
            (320usize, 176usize, 160usize),
            (96, 52, 48),
            (96, 0, 48),
            (96, 96, 48),
        ] {
            let hot = k + k / 4;
            let mut seen = vec![usize::MAX; n_columns];
            assert_matches_reference(n_columns, capacity, 300, |round| {
                let shift = round / 40 * 7;
                let mut columns = Vec::with_capacity(k + 8);
                while columns.len() < k {
                    let col = if next() % 10 < 9 {
                        (shift + next() as usize % hot) % n_columns
                    } else {
                        next() as usize % n_columns
                    };
                    if seen[col] != round {
                        seen[col] = round;
                        columns.push(col);
                    }
                }
                if round % 2 == 1 {
                    for j in 0..4 {
                        columns.push(columns[(next() as usize + j) % k]);
                    }
                    columns.push(n_columns + round % 3);
                }
                columns
            });
        }
    }
}
