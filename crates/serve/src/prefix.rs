//! Shared-prefix caching over the paged KV pool.
//!
//! Fleets of assistant sessions overwhelmingly open with the same tokens —
//! a product's system prompt, a few-shot template — and with private
//! per-session KV every session re-prefills that prefix from scratch. With
//! a shared page pool ([`lm::KvPagePool`]) the engine can do better: the first
//! session to prefill a declared shared prefix *registers* the pages that
//! hold it, and every later session arriving with the same `(strategy,
//! prefix tokens)` pair maps those pages
//! ([`lm::PagedKv::adopt_prefix`]) instead of recomputing them.
//!
//! Correctness boundaries:
//!
//! * Sharing is **page-aligned** ([`PrefixRegistry::shareable_len`]): only
//!   the prefix's whole pages are ever registered or adopted; each session
//!   re-prefills the sub-page remainder (at most `page_size - 1` tokens)
//!   itself. A retained partial tail page would still be appended to by
//!   the session that built it, forcing a copy-on-write fork that no
//!   admission commitment reserved — aligned sharing keeps the engine's
//!   page ledger exact: shared pages are full and immutable (the pool's
//!   refcounts still guard them), and every appendable page is private.
//!
//! * Only requests whose strategy has no shared-cache state are eligible
//!   ([`StrategySpec::shared_cache_key`] is `None`): for those, a position's
//!   KV entries are a pure function of the model and the token prefix, so
//!   mapped pages are bitwise identical to what re-prefilling would write.
//!   Cache-aware strategies (DIP-CA) mask MLP columns by *history-dependent*
//!   shared-cache state, so their KV contents are not reusable.
//! * The shared length is capped at `prompt_len - 1`: the last prompt token
//!   always runs a real forward pass, so the logits the first generated
//!   token samples from exist for every session.
//! * Entries are keyed by an FNV-1a hash of the prefix tokens; the stored
//!   tokens and strategy spec are compared on every lookup, so a hash
//!   collision can never map the wrong pages.
//!
//! The registry owns one page reference per mapped page (released on
//! [`PrefixRegistry::reset`] or drop), so registered prefixes survive the
//! sessions that built them.

use crate::request::GenRequest;
use crate::strategy::StrategySpec;
use lm::{pages_spanning, DecodeState, PageId, PagePoolHandle};

/// FNV-1a over the prefix token ids (little-endian bytes).
fn fnv1a(tokens: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tokens {
        for b in t.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// One registered shared prefix: the exact tokens, the strategy they were
/// prefilled under, and the per-layer pages holding their KV entries.
struct PrefixEntry {
    hash: u64,
    strategy: StrategySpec,
    tokens: Vec<u32>,
    /// Per-layer page lists, each spanning `tokens.len()` positions; every
    /// page carries one registry-owned reference.
    pages: Vec<Vec<PageId>>,
}

/// The engine's shared-prefix registry (see the module docs).
pub struct PrefixRegistry {
    pool: PagePoolHandle,
    page_size: usize,
    entries: Vec<PrefixEntry>,
    hits: usize,
    misses: usize,
    tokens_saved: usize,
}

impl PrefixRegistry {
    /// An empty registry over the given pool.
    pub fn new(pool: &PagePoolHandle) -> Self {
        let page_size = pool.borrow().page_size();
        PrefixRegistry {
            pool: pool.clone(),
            page_size,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            tokens_saved: 0,
        }
    }

    /// The shareable prefix length of a request: the declared
    /// [`GenRequest::shared_prefix_len`] capped at `prompt_len - 1`, or
    /// `None` when the request declares no prefix or runs a strategy with
    /// shared-cache state (whose KV entries are history-dependent).
    pub fn eligible_len(request: &GenRequest) -> Option<usize> {
        if request.strategy.shared_cache_key().is_some() {
            return None;
        }
        let len = request
            .shared_prefix_len
            .min(request.prompt.len().saturating_sub(1));
        (len > 0).then_some(len)
    }

    /// The *page-aligned* shareable length of a request: its
    /// [`PrefixRegistry::eligible_len`] rounded down to whole pages, or
    /// `None` when no whole page remains. This is the length the engine
    /// registers, looks up and adopts — see the module docs for why only
    /// whole pages may be shared.
    pub fn shareable_len(&self, request: &GenRequest) -> Option<usize> {
        let len = Self::eligible_len(request)?;
        let aligned = (len / self.page_size) * self.page_size;
        (aligned > 0).then_some(aligned)
    }

    /// Looks up a registered prefix matching `(strategy, tokens)` exactly,
    /// returning the entry index. Does not touch the hit/miss counters —
    /// the engine plans admissions speculatively (a memory-blocked plan is
    /// recomputed later) and records the outcome only when a session is
    /// actually admitted, via [`PrefixRegistry::record_hit`] /
    /// [`PrefixRegistry::record_miss`].
    pub fn find(&self, strategy: &StrategySpec, tokens: &[u32]) -> Option<usize> {
        let hash = fnv1a(tokens);
        self.entries
            .iter()
            .position(|e| e.hash == hash && e.strategy == *strategy && e.tokens == tokens)
    }

    /// Records an admission that mapped a registered prefix of `len` tokens.
    pub fn record_hit(&mut self, len: usize) {
        self.hits += 1;
        self.tokens_saved += len;
    }

    /// Records an eligible admission that found no registered prefix.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// The prefix length (in positions) of entry `idx`.
    pub fn entry_len(&self, idx: usize) -> usize {
        self.entries[idx].tokens.len()
    }

    /// The per-layer page lists of entry `idx`.
    pub fn entry_pages(&self, idx: usize) -> &[Vec<PageId>] {
        &self.entries[idx].pages
    }

    /// Registers the first `len` positions of a prefilled paged state as a
    /// shared prefix, retaining one registry reference per mapped page.
    /// `len` must be a whole number of pages (the engine passes
    /// [`PrefixRegistry::shareable_len`]). Returns the number of pages
    /// retained (0 when an identical entry already exists — a race between
    /// two sessions prefilling the same template — or when the state is
    /// not paged).
    pub fn register(
        &mut self,
        strategy: &StrategySpec,
        tokens: &[u32],
        len: usize,
        state: &DecodeState,
    ) -> usize {
        debug_assert!(len <= tokens.len() && state.pos >= len);
        debug_assert!(
            len.is_multiple_of(self.page_size),
            "only whole pages may be shared (see shareable_len)"
        );
        let tokens = &tokens[..len];
        let hash = fnv1a(tokens);
        if self
            .entries
            .iter()
            .any(|e| e.hash == hash && e.strategy == *strategy && e.tokens == tokens)
        {
            return 0;
        }
        let n_pages = pages_spanning(len, self.page_size);
        let mut pages = Vec::with_capacity(state.kv.len());
        {
            let mut pool = self.pool.borrow_mut();
            for kv in &state.kv {
                let layer_pages = &kv.pages()[..n_pages];
                for &p in layer_pages {
                    pool.retain(p);
                }
                pages.push(layer_pages.to_vec());
            }
        }
        let retained = pages.iter().map(Vec::len).sum();
        self.entries.push(PrefixEntry {
            hash,
            strategy: *strategy,
            tokens: tokens.to_vec(),
            pages,
        });
        retained
    }

    /// Total pages the registry currently holds references to.
    pub fn pages_held(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.pages.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Registered prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no prefix is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Admissions that mapped a registered prefix.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Eligible admissions that found no registered prefix.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Prompt tokens never prefilled thanks to mapped prefixes.
    pub fn tokens_saved(&self) -> usize {
        self.tokens_saved
    }

    /// Releases every held page and forgets all entries and counters (the
    /// engine calls this at the start of each run, and under memory
    /// pressure when nothing else can free pages).
    pub fn reset(&mut self) {
        let mut pool = self.pool.borrow_mut();
        for entry in self.entries.drain(..) {
            for layer in &entry.pages {
                for &p in layer {
                    pool.release(p);
                }
            }
        }
        drop(pool);
        self.hits = 0;
        self.misses = 0;
        self.tokens_saved = 0;
    }
}

impl Drop for PrefixRegistry {
    fn drop(&mut self) {
        self.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm::{build_synthetic, KvPagePool, ModelConfig};

    fn prefilled_state(
        model: &lm::TransformerModel,
        pool: &PagePoolHandle,
        tokens: &[u32],
    ) -> DecodeState {
        let mut state = model.new_decode_state_paged(pool);
        let mut scratch = lm::DecodeScratch::for_model(model);
        let mut dense = lm::mlp::DenseMlp;
        for &t in tokens {
            model
                .forward_token_into(t, &mut state, &mut dense, &mut scratch)
                .unwrap();
        }
        state
    }

    #[test]
    fn register_then_lookup_maps_and_counts() {
        let model = build_synthetic(&ModelConfig::tiny(), 3).unwrap();
        let pool = KvPagePool::new_handle(256, 4);
        let tokens = [5u32, 6, 7, 8, 9];
        let state = prefilled_state(&model, &pool, &tokens);
        let in_use_before = pool.borrow().pages_in_use();

        let mut reg = PrefixRegistry::new(&pool);
        let spec = StrategySpec::Dense;
        // the shareable length is the eligible 4 (= prompt − 1 cap applies
        // to 5-token prompts elsewhere) rounded to whole 4-position pages
        let shared = 4usize;
        assert_eq!(reg.find(&spec, &tokens[..shared]), None, "miss first");
        reg.record_miss();
        let retained = reg.register(&spec, &tokens, shared, &state);
        assert_eq!(retained, model.config.n_layers * pages_spanning(shared, 4));
        assert_eq!(reg.pages_held(), retained);
        // registering the same prefix again is a no-op
        assert_eq!(reg.register(&spec, &tokens, shared, &state), 0);
        assert_eq!(reg.len(), 1);

        // the pages survive the prefilling session (the unshared tail page
        // is released with it)
        drop(state);
        assert_eq!(
            pool.borrow().pages_in_use(),
            in_use_before - model.config.n_layers
        );

        let hit = reg
            .find(&spec, &tokens[..shared])
            .expect("registered prefix hits");
        reg.record_hit(shared);
        assert_eq!(reg.entry_len(hit), shared);
        assert_eq!(reg.entry_pages(hit).len(), model.config.n_layers);
        assert_eq!(reg.hits(), 1);
        assert_eq!(reg.misses(), 1);
        assert_eq!(reg.tokens_saved(), shared);

        // a different strategy or different tokens never hits
        assert_eq!(
            reg.find(&StrategySpec::Dip { density: 0.5 }, &tokens[..shared]),
            None
        );
        assert_eq!(reg.find(&spec, &[5, 6, 7]), None);

        reg.reset();
        assert_eq!(pool.borrow().pages_in_use(), 0, "reset releases all pages");
        assert!(reg.is_empty());
    }

    #[test]
    fn shareable_len_rounds_down_to_whole_pages() {
        let pool = KvPagePool::new_handle(16, 4);
        let reg = PrefixRegistry::new(&pool);
        let req = |prefix: usize| {
            GenRequest::new(0, (0..20u32).collect(), 4, StrategySpec::Dense)
                .with_shared_prefix(prefix)
        };
        assert_eq!(reg.shareable_len(&req(12)), Some(12), "already aligned");
        assert_eq!(reg.shareable_len(&req(11)), Some(8), "partial page drops");
        assert_eq!(reg.shareable_len(&req(3)), None, "below one page");
        assert_eq!(reg.shareable_len(&req(0)), None, "nothing declared");
    }

    #[test]
    fn eligibility_caps_at_prompt_minus_one_and_excludes_cache_aware() {
        let dense = GenRequest::new(0, vec![1, 2, 3], 4, StrategySpec::Dense);
        assert_eq!(PrefixRegistry::eligible_len(&dense), None, "none declared");
        assert_eq!(
            PrefixRegistry::eligible_len(&dense.clone().with_shared_prefix(2)),
            Some(2)
        );
        assert_eq!(
            PrefixRegistry::eligible_len(&dense.clone().with_shared_prefix(99)),
            Some(2),
            "capped so the last prompt token still computes logits"
        );
        let ca = GenRequest::new(
            1,
            vec![1, 2, 3],
            4,
            StrategySpec::DipCacheAware {
                density: 0.5,
                gamma: 0.2,
            },
        )
        .with_shared_prefix(2);
        assert_eq!(
            PrefixRegistry::eligible_len(&ca),
            None,
            "cache-aware KV is history-dependent"
        );
    }
}
