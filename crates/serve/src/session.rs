//! One admitted user session: decode state, strategy and access bookkeeping.

use crate::error::Result;
use crate::layout::to_token_access_scratch;
use crate::report::FinishReason;
use crate::request::GenRequest;
use hwsim::TokenAccess;
use lm::model::sample_from_logits;
use lm::{DecodeScratch, DecodeState, MlpForward, TransformerModel};
use rand::rngs::StdRng;

/// Lifecycle phase of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Prompt tokens are still being prefilled.
    Prefill,
    /// New tokens are being generated.
    Decode,
    /// All requested tokens have been produced.
    Finished,
}

/// What the engine's batch planner decided for one schedule position (see
/// `Session::plan_token`).
#[derive(Debug, Clone, Copy)]
pub struct PlannedToken {
    /// The token fed to the model at this position.
    pub token: u32,
    /// Whether the position served a prompt (prefill) token.
    pub was_prefill: bool,
    /// Whether this position served the *last* prompt token (its completion
    /// makes the first generated token available).
    pub prefill_ended: bool,
}

/// A request that has been admitted and holds a KV-cache slot.
pub struct Session {
    /// Stream index used in the shared-cache replay (submission order).
    pub stream: usize,
    /// The request being served.
    pub request: GenRequest,
    /// Engine step at which the session was admitted.
    pub admitted_step: usize,
    /// Per-layer KV caches + position (from the engine's state pool).
    pub state: DecodeState,
    /// The MLP strategy instance for this session.
    pub strategy: Box<dyn MlpForward>,
    /// Tokens generated so far.
    pub generated: Vec<u32>,
    /// Forward passes served (prefill, decode and page-loss replay).
    pub(crate) forwarded: usize,
    /// Step at which this session was last served (scheduler bookkeeping for
    /// least-recently-served token ordering).
    pub last_served_step: usize,
    /// Global schedule position of the last prefill forward pass — the step
    /// whose completion makes the first generated token available.
    last_prefill_position: Option<usize>,
    next_prompt_idx: usize,
    last_logits: Vec<f32>,
    /// Pages of the paged KV pool this session's admission committed (the
    /// engine's conservative memory accounting; 0 without a shared pool).
    pub(crate) kv_pages_committed: usize,
    /// Prompt tokens skipped at admission because a shared prefix was
    /// already prefilled (see [`Session::skip_prefilled_prefix`]).
    pub(crate) prefix_skipped: usize,
    /// `Some(len)` while this session owes the engine a shared-prefix
    /// registration once its decode position reaches `len`.
    pub(crate) pending_prefix_register: Option<usize>,
    /// Generation budget: `max_new_tokens` clamped by the client's
    /// `cancel_after_tokens` patience.
    token_budget: usize,
    /// Tokens lost to a KV page-loss fault, queued for re-prefill (the
    /// recomputed KV is bitwise identical, so outputs are unchanged — only
    /// timing shifts). Served before any new prompt/decode work.
    replay: Vec<u32>,
    /// Progress cursor into `replay`.
    replay_idx: usize,
    /// How the session's lifecycle ended (meaningful once retired;
    /// [`FinishReason::Completed`] by default).
    pub(crate) finish: FinishReason,
    /// Whether admission downgraded this session's strategy along the
    /// fallback chain.
    pub(crate) degraded: bool,
    /// Service attempts this request has consumed, including this one.
    pub(crate) attempts: u32,
}

impl Session {
    /// Creates a session around an acquired decode state and strategy.
    pub fn new(
        stream: usize,
        request: GenRequest,
        admitted_step: usize,
        state: DecodeState,
        strategy: Box<dyn MlpForward>,
    ) -> Self {
        let token_budget = request.effective_new_tokens();
        Session {
            stream,
            request,
            admitted_step,
            state,
            strategy,
            generated: Vec::new(),
            forwarded: 0,
            last_served_step: admitted_step,
            last_prefill_position: None,
            next_prompt_idx: 0,
            last_logits: Vec::new(),
            kv_pages_committed: 0,
            prefix_skipped: 0,
            pending_prefix_register: None,
            token_budget,
            replay: Vec::new(),
            replay_idx: 0,
            finish: FinishReason::Completed,
            degraded: false,
            attempts: 1,
        }
    }

    /// Generation budget after client patience (`max_new_tokens` clamped by
    /// `cancel_after_tokens`).
    pub fn token_budget(&self) -> usize {
        self.token_budget
    }

    /// Whether the client's patience caps generation below the requested
    /// budget — such a session retires as [`FinishReason::Cancelled`].
    pub(crate) fn token_capped(&self) -> bool {
        self.token_budget < self.request.max_new_tokens
    }

    /// Marks the first `len` prompt tokens as already prefilled: the engine
    /// mapped a shared prefix's KV pages into this session's paged state, so
    /// the prompt cursor starts past them and they are never planned,
    /// served or priced. Callers must keep `len < prompt.len()` (the last
    /// prompt token always runs, so its logits exist to sample from) and
    /// must have advanced `state.pos` to match.
    pub(crate) fn skip_prefilled_prefix(&mut self, len: usize) {
        debug_assert!(self.next_prompt_idx == 0, "skip only at admission");
        debug_assert!(len < self.request.prompt.len());
        self.next_prompt_idx = len;
        self.prefix_skipped = len;
    }

    /// Prompt tokens this session never served because a shared prefix was
    /// already prefilled.
    pub fn prefix_tokens_skipped(&self) -> usize {
        self.prefix_skipped
    }

    /// Current lifecycle phase. A pending page-loss replay counts as
    /// prefill: the lost suffix must be recomputed before any new token.
    pub fn phase(&self) -> SessionPhase {
        if self.replay_idx < self.replay.len() || self.next_prompt_idx < self.request.prompt.len() {
            SessionPhase::Prefill
        } else if self.generated.len() < self.token_budget {
            SessionPhase::Decode
        } else {
            SessionPhase::Finished
        }
    }

    /// Tokens still to be served (replay + prefill + decode).
    pub fn remaining_tokens(&self) -> usize {
        (self.replay.len() - self.replay_idx)
            + (self.request.prompt.len() - self.next_prompt_idx)
            + (self.token_budget - self.generated.len())
    }

    /// Prompt-phase tokens still to be served (page-loss replay plus
    /// unserved prompt): what the engine chunks as prefill work.
    pub(crate) fn prompt_remaining(&self) -> usize {
        (self.replay.len() - self.replay_idx) + (self.request.prompt.len() - self.next_prompt_idx)
    }

    /// Rewinds the session to context length `new_pos` after a KV page-loss
    /// fault, truncating every layer's cache and queueing the lost tokens
    /// for re-prefill. `new_pos` must lie in `[prefix_skipped, state.pos]`
    /// — the caller picks the victim's last whole page boundary, never
    /// below the adopted shared prefix (re-filling private copies of
    /// adopted prefix pages would exceed the admission page commitment).
    ///
    /// Re-feeding the same tokens into the truncated cache recomputes
    /// bitwise-identical KV entries, so generated outputs are unchanged;
    /// the fault costs time, not correctness. Returns the number of
    /// context tokens newly lost (`old_pos - new_pos`).
    pub(crate) fn rewind_for_refill(&mut self, new_pos: usize) -> usize {
        let old_pos = self.state.pos;
        debug_assert!(new_pos >= self.prefix_skipped && new_pos <= old_pos);
        for layer in &mut self.state.kv {
            layer.truncate(new_pos);
        }
        self.state.pos = new_pos;
        if self.generated.is_empty() {
            // Still prefilling (or exactly at prompt end with nothing
            // sampled): rewind the prompt cursor and let the ordinary
            // prefill machinery re-serve the tail, re-establishing the
            // last-prefill schedule position.
            self.replay.clear();
            self.replay_idx = 0;
            self.next_prompt_idx = new_pos;
            self.last_prefill_position = None;
        } else {
            // Decoding: the full context is prompt + generated. Queue every
            // token not currently in the cache (including any replay still
            // pending from an earlier loss) for recomputation.
            let full = self.request.prompt.len() + self.generated.len();
            self.replay.clear();
            self.replay_idx = 0;
            for i in new_pos..full {
                let t = if i < self.request.prompt.len() {
                    self.request.prompt[i]
                } else {
                    self.generated[i - self.request.prompt.len()]
                };
                self.replay.push(t);
            }
        }
        old_pos - new_pos
    }

    /// Decides (and commits to) the next token this session serves at
    /// schedule position `step`: the next prompt token during prefill, a
    /// token sampled from the last logits during decode. All scheduling
    /// bookkeeping happens here — prompt cursor, generated list, the
    /// last-prefill schedule position — so the batch planner can make
    /// scheduler-faithful decisions *before* any forward pass runs, in
    /// exactly the order (including RNG draws) the sequential engine would.
    ///
    /// # Errors
    ///
    /// Propagates sampling errors.
    pub(crate) fn plan_token(&mut self, rng: &mut StdRng, step: usize) -> Result<PlannedToken> {
        debug_assert!(self.phase() != SessionPhase::Finished);
        if self.replay_idx < self.replay.len() {
            // Page-loss refill: re-feed a known token (no RNG draw — the
            // engine's sampling stream is untouched by replay).
            let token = self.replay[self.replay_idx];
            self.replay_idx += 1;
            if self.replay_idx == self.replay.len() {
                self.replay.clear();
                self.replay_idx = 0;
            }
            return Ok(PlannedToken {
                token,
                was_prefill: true,
                // never re-signals TTFT: the first token was already
                // produced before the fault (replay implies decode phase)
                prefill_ended: false,
            });
        }
        let was_prefill = self.next_prompt_idx < self.request.prompt.len();
        let token = if was_prefill {
            let t = self.request.prompt[self.next_prompt_idx];
            self.next_prompt_idx += 1;
            if self.next_prompt_idx == self.request.prompt.len() {
                self.last_prefill_position = Some(step);
            }
            t
        } else {
            let t = sample_from_logits(&self.last_logits, self.request.temperature, rng)?;
            self.generated.push(t);
            t
        };
        Ok(PlannedToken {
            token,
            was_prefill,
            prefill_ended: was_prefill && self.next_prompt_idx == self.request.prompt.len(),
        })
    }

    /// Completes one served token: counts the forward pass and, when
    /// given, keeps the logits it produced. `None` logits are the interior
    /// rows of a prefill chunk — the sequential path computes those logits
    /// and immediately overwrites them, so not storing them changes no
    /// observable value.
    pub(crate) fn finish_row(&mut self, logits: Option<&[f32]>) {
        self.forwarded += 1;
        if let Some(logits) = logits {
            self.last_logits.clear();
            self.last_logits.extend_from_slice(logits);
        }
    }

    /// Serves one token (the next prompt token during prefill, a sampled
    /// continuation during decode) at position `step` in the global
    /// schedule. The engine-owned `scratch` provides every decode buffer;
    /// after the call its [`DecodeScratch::accesses`] hold the served
    /// token's per-layer access records for the engine to propagate to
    /// co-tenant cache models.
    ///
    /// Returns the planning flags of the served token (what phase it was,
    /// whether it completed the prompt) and its weight accesses, which the
    /// session does not keep.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass and sampling errors.
    pub fn step(
        &mut self,
        model: &TransformerModel,
        rng: &mut StdRng,
        step: usize,
        scratch: &mut DecodeScratch,
    ) -> Result<(PlannedToken, TokenAccess)> {
        let planned = self.plan_token(rng, step)?;
        model.forward_token_into(
            planned.token,
            &mut self.state,
            self.strategy.as_mut(),
            scratch,
        )?;
        self.finish_row(Some(&scratch.logits));
        Ok((planned, to_token_access_scratch(&scratch.accesses)))
    }

    /// Schedule position whose completion makes the first generated token
    /// available: the *last prefill* forward pass — its logits are what the
    /// first new token is sampled from. `None` when nothing was generated.
    pub fn first_token_position(&self) -> Option<usize> {
        if self.generated.is_empty() {
            None
        } else {
            self.last_prefill_position
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategySpec;
    use lm::mlp::DenseMlp;
    use lm::{build_synthetic, ModelConfig};
    use rand::SeedableRng;

    #[test]
    fn session_walks_through_prefill_then_decode() {
        let model = build_synthetic(&ModelConfig::tiny(), 4).unwrap();
        let request = GenRequest::new(1, vec![1, 2], 3, StrategySpec::Dense);
        let mut session = Session::new(0, request, 0, model.new_decode_state(), Box::new(DenseMlp));
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch = DecodeScratch::for_model(&model);

        assert_eq!(session.phase(), SessionPhase::Prefill);
        assert_eq!(session.remaining_tokens(), 5);
        assert!(session.first_token_position().is_none());

        for step in 0..5 {
            session
                .step(&model, &mut rng, step * 2, &mut scratch)
                .unwrap();
        }
        assert_eq!(session.phase(), SessionPhase::Finished);
        assert_eq!(session.remaining_tokens(), 0);
        assert_eq!(session.generated.len(), 3);
        assert_eq!(session.forwarded, 5);
        // the first generated token is sampled from the logits of the second
        // (last) prompt forward, scheduled at position 2
        assert_eq!(session.first_token_position(), Some(2));
        assert!(session.generated.iter().all(|t| (*t as usize) < 64));
    }

    #[test]
    fn client_patience_caps_the_token_budget() {
        let model = build_synthetic(&ModelConfig::tiny(), 4).unwrap();
        let request =
            GenRequest::new(1, vec![1, 2], 5, StrategySpec::Dense).with_cancel_after_tokens(2);
        let mut session = Session::new(0, request, 0, model.new_decode_state(), Box::new(DenseMlp));
        assert_eq!(session.token_budget(), 2);
        assert!(session.token_capped());
        assert_eq!(session.remaining_tokens(), 4);
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch = DecodeScratch::for_model(&model);
        for step in 0..4 {
            session.step(&model, &mut rng, step, &mut scratch).unwrap();
        }
        assert_eq!(session.phase(), SessionPhase::Finished);
        assert_eq!(session.generated.len(), 2, "patience capped generation");
    }

    #[test]
    fn rewind_and_replay_reproduce_identical_outputs() {
        let model = build_synthetic(&ModelConfig::tiny(), 4).unwrap();
        let request = GenRequest::new(1, vec![1, 2, 3], 3, StrategySpec::Dense);

        // Reference: serve the request without faults.
        let mut a = Session::new(
            0,
            request.clone(),
            0,
            model.new_decode_state(),
            Box::new(DenseMlp),
        );
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut scratch = DecodeScratch::for_model(&model);
        for step in 0..6 {
            a.step(&model, &mut rng_a, step, &mut scratch).unwrap();
        }
        assert_eq!(a.phase(), SessionPhase::Finished);

        // Faulted: lose KV back to position 2 after the first decode token,
        // replay, and keep going. Outputs must match bitwise.
        let mut b = Session::new(0, request, 0, model.new_decode_state(), Box::new(DenseMlp));
        let mut rng_b = StdRng::seed_from_u64(7);
        for step in 0..4 {
            b.step(&model, &mut rng_b, step, &mut scratch).unwrap();
        }
        assert_eq!(b.generated.len(), 1);
        assert_eq!(b.state.pos, 4);
        let lost = b.rewind_for_refill(2);
        assert_eq!(lost, 2);
        assert_eq!(b.state.pos, 2);
        assert_eq!(b.phase(), SessionPhase::Prefill, "replay counts as prefill");
        assert_eq!(b.prompt_remaining(), 2);
        assert_eq!(b.remaining_tokens(), 4);
        let mut step = 4;
        while b.phase() != SessionPhase::Finished {
            let (planned, _) = b.step(&model, &mut rng_b, step, &mut scratch).unwrap();
            step += 1;
            assert!(
                !planned.prefill_ended,
                "replay never re-signals the first token"
            );
        }
        assert_eq!(a.generated, b.generated, "replay changes no output");
        assert_eq!(b.state.pos, a.state.pos);
    }

    #[test]
    fn mid_prefill_rewind_rewinds_the_prompt_cursor() {
        let model = build_synthetic(&ModelConfig::tiny(), 4).unwrap();
        let request = GenRequest::new(1, vec![1, 2, 3, 4], 2, StrategySpec::Dense);
        let mut session = Session::new(0, request, 0, model.new_decode_state(), Box::new(DenseMlp));
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch = DecodeScratch::for_model(&model);
        for step in 0..3 {
            session.step(&model, &mut rng, step, &mut scratch).unwrap();
        }
        assert_eq!(session.state.pos, 3);
        let lost = session.rewind_for_refill(2);
        assert_eq!(lost, 1);
        assert_eq!(session.prompt_remaining(), 2, "prompt cursor rewound");
        assert_eq!(session.phase(), SessionPhase::Prefill);
        let mut step = 3;
        while session.phase() != SessionPhase::Finished {
            session.step(&model, &mut rng, step, &mut scratch).unwrap();
            step += 1;
        }
        assert_eq!(session.generated.len(), 2);
        // the re-served last prompt token re-established TTFT bookkeeping
        assert!(session.first_token_position().is_some());
    }

    #[test]
    fn prefix_skip_advances_the_prompt_cursor() {
        let model = build_synthetic(&ModelConfig::tiny(), 4).unwrap();
        let request = GenRequest::new(1, vec![1, 2, 3, 4], 2, StrategySpec::Dense);
        let mut session = Session::new(0, request, 0, model.new_decode_state(), Box::new(DenseMlp));
        assert_eq!(session.remaining_tokens(), 6);
        session.skip_prefilled_prefix(3);
        assert_eq!(session.phase(), SessionPhase::Prefill, "one token left");
        assert_eq!(session.remaining_tokens(), 3);
        assert_eq!(session.prompt_remaining(), 1);
        assert_eq!(session.prefix_tokens_skipped(), 3);
    }
}
