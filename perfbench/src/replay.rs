//! One physical worker serving requests through the layers' public calls,
//! in the order the paper's worker uses them:
//!
//! 1. `RequestPlanner::plan` — prompt policy, user-cache admission, HRCS
//!    placement and the meta index;
//! 2. prefix assembly from a `SegmentStore` of packed `KvSegment`s, joined
//!    with `KvSegment::concat` for item prefixes; items the placement marks
//!    `Remote` cross a `bat-net` TCP connection as `KvSegmentMsg` frames;
//! 3. `GrModel::compute_kv` on a miss, or to fill an entry the planner
//!    holds cached but the store has no copy of yet;
//! 4. `GrModel::forward_with` over the suffix;
//! 5. `ForwardOutput::candidate_scores`.
//!
//! The store follows the planner: users the planner evicts are dropped, and
//! item locations come from `ItemPlacementPlan::locate(item, worker 0)`.

use crate::spans::Tracer;
use crate::stats::Ledger;
use bat_kvcache::{CacheKey, SegmentStore};
use bat_model::{
    ForwardWorkspace, GrModel, GrModelConfig, KvSegment, LayerKv, MaskScheme, PromptLayout, SegTag,
    TokenSeq, Weights,
};
use bat_net::{send_msg, Conn, KvSegmentMsg, TcpTransport, Transport, WireCodec};
use bat_placement::{ItemLocation, ItemPlacementPlan};
use bat_sim::{EngineConfig, RequestPlanner};
use bat_types::{Bytes, ItemId, PrefixKind, RankRequest, UserId, WorkerId};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Vocabulary of the proxy model.
pub const VOCAB: usize = 8192;
/// Token ids below this are item identifier tokens `v_i`.
const ID_TOKENS: u64 = 4096;
/// Seed of the proxy model's weights.
const MODEL_SEED: u64 = 0xB47_3EED;
/// Accounting capacity of each segment store; memory is only what is
/// inserted.
const STORE_BYTES: u64 = 64 << 30;
const PAGE_BYTES: u64 = 4096;
/// Items per batched `compute_kv` call of the offline pre-computation.
const PRECOMPUTE_BATCH: usize = 64;

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn attr_token(a: u64, b: u64) -> u32 {
    (ID_TOKENS + mix(a, b) % (VOCAB as u64 - ID_TOKENS)) as u32
}

/// Profile tokens of `user`, deterministic in the user id.
pub fn user_tokens(user: UserId, n: u32) -> Vec<u32> {
    (0..n as u64)
        .map(|j| attr_token(user.as_u64(), j))
        .collect()
}

/// The identifier token `v_i` of `item`.
pub fn item_id_token(item: ItemId) -> u32 {
    (mix(item.as_u64(), u64::MAX) % ID_TOKENS) as u32
}

/// Tokens of `item`: its identifier token, then attribute tokens.
pub fn item_tokens(item: ItemId, n: u32) -> Vec<u32> {
    let mut t = vec![item_id_token(item)];
    t.extend((1..n as u64).map(|j| attr_token(!item.as_u64(), j)));
    t
}

fn instr_tokens(n: u32) -> Vec<u32> {
    (0..n as u64).map(|j| attr_token(u64::MAX / 3, j)).collect()
}

/// The proxy model every workload runs: Qwen2-1.5B's head layout at
/// laptop widths.
pub fn build_model() -> GrModel {
    GrModel::new(Weights::random(
        GrModelConfig::qwen2_1_5b_proxy(VOCAB),
        MODEL_SEED,
    ))
}

/// Tokens `start..start + len` of `kv` as a segment of their own.
fn slice_segment(kv: &KvSegment, start: usize, len: usize) -> KvSegment {
    let kv_dim = kv.layers.first().map_or(0, LayerKv::kv_dim);
    let mut out = KvSegment::empty(kv.layers.len(), kv_dim);
    for (dst, src) in out.layers.iter_mut().zip(&kv.layers) {
        dst.reserve(len);
        for t in start..start + len {
            dst.push(&src.key(t), &src.value(t));
        }
    }
    out.segs = kv.segs[start..start + len].to_vec();
    out.pos = kv.pos[start..start + len].to_vec();
    out
}

/// Counters of the store, the model and the net link.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Planner-cached entries the store already held.
    pub hits: u64,
    /// Planner-cached entries the store lacked, computed and inserted.
    pub fills: u64,
    /// Segments inserted (fills and admitted users).
    pub inserts: u64,
    /// Segments dropped because the planner evicted their user.
    pub evictions: u64,
    /// Tokens computed by `compute_kv`.
    pub compute_kv_tokens: u64,
    /// Tokens prefilled by `forward_with`.
    pub suffix_tokens: u64,
    /// Entries pulled over the link.
    pub pulls: u64,
    /// Payload bytes of the pulled frames.
    pub pull_bytes: u64,
}

impl Counters {
    /// The counts accumulated after `earlier` was taken.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            hits: self.hits - earlier.hits,
            fills: self.fills - earlier.fills,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            compute_kv_tokens: self.compute_kv_tokens - earlier.compute_kv_tokens,
            suffix_tokens: self.suffix_tokens - earlier.suffix_tokens,
            pulls: self.pulls - earlier.pulls,
            pull_bytes: self.pull_bytes - earlier.pull_bytes,
        }
    }
}

/// What one served request returns.
#[derive(Debug)]
pub struct Served {
    /// Scores in candidate order.
    pub scores: Vec<f32>,
    /// The unsplit prompt and identifier tokens, kept when asked, for the
    /// reference check.
    pub prompt: Option<(TokenSeq, Vec<u32>)>,
}

/// Where the forward's prefix lives.
enum Prefix {
    None,
    Stored(CacheKey),
    Owned(KvSegment),
}

/// The serving state of one physical worker.
pub struct Replay {
    model: GrModel,
    layout: PromptLayout,
    planner: RequestPlanner,
    placement: Option<ItemPlacementPlan>,
    /// This worker's cache: user prefixes and local items.
    store: SegmentStore,
    stored_users: HashSet<UserId>,
    /// The item regions of the other workers, pulled over `link`.
    remote: SegmentStore,
    /// (holder end, requester end) of the TCP connection.
    link: (Arc<dyn Conn>, Arc<dyn Conn>),
    ws: ForwardWorkspace,
    /// Tokens and bytes moved, in `RunStats` units.
    pub ledger: Ledger,
    /// Layer counters.
    pub counters: Counters,
}

impl Replay {
    /// A cold worker: fresh planner from `cfg`, empty stores, and a TCP
    /// connection on the loopback interface.
    ///
    /// # Errors
    ///
    /// Returns the transport error if the loopback connection fails.
    pub fn new(model: GrModel, cfg: &EngineConfig) -> Result<Self, bat_net::NetError> {
        let tcp = TcpTransport;
        let listener = tcp.listen("127.0.0.1:0")?;
        let requester = tcp.connect(&listener.local_addr())?;
        let holder = listener.accept()?;
        Ok(Replay {
            model,
            layout: PromptLayout::new(MaskScheme::Bipartite),
            planner: RequestPlanner::from_config(cfg),
            placement: cfg.placement.clone(),
            store: SegmentStore::new(Bytes::new(STORE_BYTES), PAGE_BYTES),
            stored_users: HashSet::new(),
            remote: SegmentStore::new(Bytes::new(STORE_BYTES), PAGE_BYTES),
            link: (holder, requester),
            ws: ForwardWorkspace::new(),
            ledger: Ledger::default(),
            counters: Counters::default(),
        })
    }

    /// The model (for the reference check).
    pub fn model(&self) -> &GrModel {
        &self.model
    }

    /// Bytes the two segment stores hold.
    pub fn resident_bytes(&self) -> u64 {
        self.store.used().as_u64() + self.remote.used().as_u64()
    }

    /// Closes the link, ending its reader threads.
    pub fn close(&self) {
        self.link.0.close();
        self.link.1.close();
    }

    fn compute_kv(&mut self, seq: &TokenSeq, tracer: &mut Tracer, rid: u64) -> KvSegment {
        let s = tracer.begin("compute_kv", rid);
        let seg = self.model.compute_kv(seq);
        tracer.end(s);
        self.counters.compute_kv_tokens += seq.len() as u64;
        seg
    }

    fn insert(store: &mut SegmentStore, counters: &mut Counters, key: CacheKey, seg: KvSegment) {
        assert!(store.insert(key, seg), "segment store over its capacity");
        counters.inserts += 1;
    }

    /// Drops every stored user the planner no longer caches.
    fn follow_evictions(&mut self) {
        let cache = self.planner.user_cache();
        let gone: Vec<UserId> = self
            .stored_users
            .iter()
            .copied()
            .filter(|&u| !cache.contains(u))
            .collect();
        for u in gone {
            self.stored_users.remove(&u);
            self.store.remove(CacheKey::User(u));
            self.counters.evictions += 1;
        }
    }

    /// Moves `key`'s segment from the remote holder to this worker as
    /// per-layer key and value frames, and rebuilds it here.
    fn pull(&mut self, key: CacheKey, tracer: &mut Tracer, rid: u64) -> KvSegment {
        let s = tracer.begin("pull", rid);
        let seg = self.remote.get(key).expect("holder has the entry");
        let (holder, requester) = (self.link.0.as_ref(), self.link.1.as_ref());
        let mut out = KvSegment::empty(seg.layers.len(), self.model.config().kv_dim());
        out.segs = seg.segs.clone();
        out.pos = seg.pos.clone();
        let mut bytes = 0u64;
        for (l, layer) in seg.layers.iter().enumerate() {
            let mut halves = [Vec::new(), Vec::new()];
            for (half, block) in halves.iter_mut().zip([layer.keys(), layer.values()]) {
                let msg = KvSegmentMsg::from_block(key, l as u32, block);
                send_msg(holder, &msg).expect("holder sends the segment");
                let frame = requester.recv().expect("segment arrives");
                bytes += frame.payload.len() as u64;
                *half = KvSegmentMsg::from_frame(&frame)
                    .expect("a KV segment frame")
                    .planes;
            }
            let (rows, cols) = (layer.kv_dim(), layer.len());
            let dst: &mut LayerKv = &mut out.layers[l];
            let (mut k, mut v) = (vec![0.0; rows], vec![0.0; rows]);
            for t in 0..cols {
                for r in 0..rows {
                    k[r] = halves[0][r * cols + t];
                    v[r] = halves[1][r * cols + t];
                }
                dst.push(&k, &v);
            }
        }
        tracer.end(s);
        self.counters.pulls += 1;
        self.counters.pull_bytes += bytes;
        out
    }

    /// Plans `requests` without serving them: the planner's caches and
    /// frequency estimates advance, the stores stay empty.
    pub fn preroll(&mut self, requests: &[RankRequest]) {
        for req in requests {
            self.planner.plan(req, req.arrival.as_secs());
        }
    }

    /// The offline KV pre-computation (§5.2 Step 3), limited to what
    /// `requests` will read: computes and stores the segment of every
    /// cached item they name — in this worker's store or, for `Remote`
    /// items, the holder's — and of every one of their users the planner
    /// caches now. The stores then hold what a fully precomputed cache
    /// would hold for these requests, so serving them reads rather than
    /// fills.
    pub fn precompute(&mut self, requests: &[RankRequest]) {
        let local = WorkerId::new(0);
        let mut users: BTreeMap<UserId, u32> = BTreeMap::new();
        let mut items: BTreeMap<ItemId, (u32, bool)> = BTreeMap::new();
        for req in requests {
            if self.planner.user_cache().contains(req.user) {
                users.insert(req.user, req.user_tokens);
            }
            let Some(plan) = &self.placement else {
                continue;
            };
            for (&item, &n) in req.candidates.iter().zip(&req.candidate_tokens) {
                match plan.locate(item, local) {
                    ItemLocation::Uncached => {}
                    loc => {
                        items.insert(item, (n, matches!(loc, ItemLocation::Remote(_))));
                    }
                }
            }
        }
        for (user, n) in users {
            let key = CacheKey::User(user);
            if !self.store.contains(key) {
                let seg = self
                    .model
                    .compute_kv(&self.layout.user_standalone(&user_tokens(user, n)));
                assert!(
                    self.store.insert(key, seg),
                    "segment store over its capacity"
                );
                self.stored_users.insert(user);
            }
        }
        let items: Vec<(ItemId, (u32, bool))> = items
            .into_iter()
            .filter(|&(item, (_, remote))| {
                let store = if remote { &self.remote } else { &self.store };
                !store.contains(CacheKey::Item(item))
            })
            .collect();
        for chunk in items.chunks(PRECOMPUTE_BATCH) {
            // One sequence of standalone item blocks: under the bipartite
            // mask no block attends another, so each block's KV is its
            // standalone KV.
            let mut seq = TokenSeq {
                tokens: Vec::new(),
                segs: Vec::new(),
                pos: Vec::new(),
                scheme: MaskScheme::Bipartite,
            };
            for (k, &(item, (n, _))) in chunk.iter().enumerate() {
                let block = self
                    .layout
                    .item_standalone(k as u32, &item_tokens(item, n), 0);
                seq.tokens.extend(block.tokens);
                seq.segs.extend(block.segs);
                seq.pos.extend(block.pos);
            }
            let kv = self.model.compute_kv(&seq);
            let mut start = 0;
            for &(item, (n, remote)) in chunk {
                let seg = slice_segment(&kv, start, n as usize);
                start += n as usize;
                let store = if remote {
                    &mut self.remote
                } else {
                    &mut self.store
                };
                assert!(
                    store.insert(CacheKey::Item(item), seg),
                    "segment store over its capacity"
                );
            }
        }
    }

    /// Serves one request: plan, assemble the prefix, prefill the suffix,
    /// score. `keep_prompt` keeps the unsplit prompt for the reference
    /// check.
    pub fn serve(&mut self, req: &RankRequest, tracer: &mut Tracer, keep_prompt: bool) -> Served {
        let rid = req.id.as_u64();
        let root = tracer.begin("request", rid);

        let s = tracer.begin("plan", rid);
        let job = self.planner.plan(req, req.arrival.as_secs());
        tracer.end(s);

        let asm = tracer.begin("assemble", rid);
        let user = user_tokens(req.user, req.user_tokens);
        let instr = instr_tokens(req.instruction_tokens);
        let ids: Vec<u32> = req.candidates.iter().map(|&i| item_id_token(i)).collect();
        let (full, prefix, prefix_len) = match job.prefix {
            PrefixKind::User => {
                self.ledger.up_requests += 1;
                let key = CacheKey::User(req.user);
                let items: Vec<Vec<u32>> = req
                    .candidates
                    .iter()
                    .zip(&req.candidate_tokens)
                    .map(|(&i, &n)| item_tokens(i, n))
                    .collect();
                let full = self.layout.build(PrefixKind::User, &user, &items, &instr);
                let user_seq = self.layout.user_standalone(&user);
                let prefix = if job.reused_tokens() > 0 {
                    if self.store.contains(key) {
                        self.counters.hits += 1;
                    } else {
                        let seg = self.compute_kv(&user_seq, tracer, rid);
                        self.counters.fills += 1;
                        Self::insert(&mut self.store, &mut self.counters, key, seg);
                        self.stored_users.insert(req.user);
                    }
                    Prefix::Stored(key)
                } else {
                    // A miss: the profile is computed for this request and
                    // kept only if the planner admitted it.
                    let seg = self.compute_kv(&user_seq, tracer, rid);
                    self.ledger.computed_tokens += user_seq.len() as u64;
                    let prefix = if self.planner.user_cache().contains(req.user) {
                        Self::insert(&mut self.store, &mut self.counters, key, seg);
                        self.stored_users.insert(req.user);
                        Prefix::Stored(key)
                    } else {
                        Prefix::Owned(seg)
                    };
                    self.follow_evictions();
                    prefix
                };
                if job.reused_tokens() > 0 {
                    self.ledger.reused_tokens += user_seq.len() as u64;
                }
                (full, prefix, user_seq.len())
            }
            PrefixKind::Item => {
                self.ledger.ip_requests += 1;
                self.assemble_items(req, &user, &instr, tracer, rid)
            }
        };
        let prompt = keep_prompt.then(|| (full.clone(), ids.clone()));
        let (_, suffix) = full.split_at(prefix_len);
        tracer.end(asm);

        let prefix_ref = match &prefix {
            Prefix::None => None,
            Prefix::Stored(key) => Some(self.store.get(*key).expect("stored prefix")),
            Prefix::Owned(seg) => Some(seg),
        };
        let name = match (prefix_ref.is_some(), job.prefix) {
            (false, _) => "forward_full",
            (true, PrefixKind::User) => "forward_up",
            (true, PrefixKind::Item) => "forward_ip",
        };
        let s = tracer.begin(name, rid);
        let out = self.model.forward_with(&suffix, prefix_ref, &mut self.ws);
        tracer.end(s);
        self.ledger.computed_tokens += suffix.len() as u64;
        self.counters.suffix_tokens += suffix.len() as u64;

        let s = tracer.begin("score", rid);
        let scores = out.candidate_scores(&ids);
        tracer.end(s);
        tracer.end(root);
        Served { scores, prompt }
    }

    /// Item-as-prefix assembly: cached candidates (local or pulled) lead
    /// the prompt as one concatenated prefix; uncached candidates are
    /// prefilled with the suffix.
    fn assemble_items(
        &mut self,
        req: &RankRequest,
        user: &[u32],
        instr: &[u32],
        tracer: &mut Tracer,
        rid: u64,
    ) -> (TokenSeq, Prefix, usize) {
        let local = WorkerId::new(0);
        let mut cached: Vec<(usize, bool)> = Vec::new();
        let mut uncached: Vec<usize> = Vec::new();
        for (i, &item) in req.candidates.iter().enumerate() {
            let loc = self
                .placement
                .as_ref()
                .map_or(ItemLocation::Uncached, |p| p.locate(item, local));
            match loc {
                ItemLocation::LocalReplica | ItemLocation::LocalShard => cached.push((i, false)),
                ItemLocation::Remote(_) => cached.push((i, true)),
                ItemLocation::Uncached => uncached.push(i),
            }
        }
        let order: Vec<usize> = cached
            .iter()
            .map(|&(i, _)| i)
            .chain(uncached.iter().copied())
            .collect();
        let items: Vec<Vec<u32>> = order
            .iter()
            .map(|&i| item_tokens(req.candidates[i], req.candidate_tokens[i]))
            .collect();
        let full = self.layout.build(PrefixKind::Item, user, &items, instr);

        // Make every local entry resident and pull every remote one.
        let mut pulled: Vec<KvSegment> = Vec::new();
        for (k, &(i, remote)) in cached.iter().enumerate() {
            let key = CacheKey::Item(req.candidates[i]);
            let held = if remote {
                self.remote.contains(key)
            } else {
                self.store.contains(key)
            };
            if held {
                self.counters.hits += 1;
            } else {
                let seq = self.layout.item_standalone(k as u32, &items[k], 0);
                let seg = self.compute_kv(&seq, tracer, rid);
                self.counters.fills += 1;
                let store = if remote {
                    &mut self.remote
                } else {
                    &mut self.store
                };
                Self::insert(store, &mut self.counters, key, seg);
            }
            if remote {
                pulled.push(self.pull(key, tracer, rid));
                self.ledger.remote_bytes += self
                    .planner
                    .compute()
                    .kv_bytes(req.candidate_tokens[i] as u64)
                    .as_u64();
            }
        }
        if cached.is_empty() {
            return (full, Prefix::None, 0);
        }
        let mut pulled_iter = pulled.iter();
        let parts: Vec<&KvSegment> = cached
            .iter()
            .map(|&(i, remote)| {
                if remote {
                    pulled_iter.next().expect("one pull per remote entry")
                } else {
                    self.store
                        .get(CacheKey::Item(req.candidates[i]))
                        .expect("local entry resident")
                }
            })
            .collect();
        let mut prefix = KvSegment::concat(&parts);
        // Each block takes the tag of its slot in this prompt.
        let mut t = 0;
        for (k, item) in items.iter().take(cached.len()).enumerate() {
            for _ in 0..item.len() {
                prefix.segs[t] = SegTag::Item(k as u32);
                t += 1;
            }
        }
        let len = prefix.len();
        self.ledger.reused_tokens += len as u64;
        (full, Prefix::Owned(prefix), len)
    }
}
