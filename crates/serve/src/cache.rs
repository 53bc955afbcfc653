//! Keyed, **sharded** LRU cache for `/v1/advise` answers.
//!
//! An advise answer is a pure function of `(model name, model version,
//! machine, O, V, goal, budget, deadline)` — the model is immutable
//! between reloads and the sweep is deterministic — so repeated traffic
//! for the same question (the common case for job-script generators
//! hammering a handful of production molecules) can skip the whole
//! candidate sweep and replay the rendered response body.
//!
//! # Sharding and the zero-alloc hit path
//!
//! The map is split into [`DEFAULT_SHARDS`] independently locked shards
//! selected by a hash of the **question** fields (everything except the
//! model version), so concurrent advise traffic for different questions
//! never contends on one mutex, and every version of the *same* question
//! lands in the same shard — which keeps [`AdviseCache::get_stale`]'s
//! freshest-version scan shard-local. Keys hash with an inline FNV-1a
//! (no per-lookup hasher state to build), lookups accept a borrowed
//! [`AdviseKeyRef`] probe so the hit path constructs no `String`s, and
//! cached bodies are `Arc<str>` so a hit is a reference-count bump, not a
//! body copy. The steady-state hit path performs **zero allocations**.
//!
//! # Staleness
//!
//! Staleness is handled twice over: the **model version is part of the
//! key**, so a reloaded model can never *silently* serve a stale answer,
//! and on reload [`AdviseCache::demote_model`] marks the dead versions'
//! entries stale instead of dropping them. Stale entries are invisible to
//! the normal [`AdviseCache::get`] path (the current version is in the
//! probe key), are evicted first when capacity is needed, and exist only
//! to back the **serve-stale-on-overload** escape hatch: when the worker
//! pool is shedding, [`AdviseCache::get_stale`] lets the advise handler
//! answer from a previous model version — clearly labelled — rather than
//! burn a sweep. [`AdviseCache::invalidate_model`] still drops a model's
//! entries outright for callers that want the old eager behaviour.
//!
//! Eviction is least-recently-used **per shard** via an access stamp per
//! entry (stale entries first); the eviction scan is `O(shard capacity)`
//! but runs only on insertion into a full shard, which the hit path never
//! touches. The capacity passed to [`AdviseCache::new`] is split evenly
//! across shards (rounded up), so the worst case a shard-local LRU evicts
//! slightly later than a global LRU would — a deliberate trade for an
//! uncontended hit path.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Shard count for [`AdviseCache::new`]. Power of two so shard selection
/// is a mask; 8 shards × the default 512-entry capacity gives 64 entries
/// per shard.
pub const DEFAULT_SHARDS: usize = 8;

/// Cache key: everything an advise answer depends on.
///
/// `budget` and `deadline` are keyed on their IEEE-754 bit patterns so the
/// key can be `Eq + Hash`; distinct bit patterns that compare `==` as
/// floats (`0.0` vs `-0.0`) simply occupy two entries, which is harmless.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdviseKey {
    /// Registry model name.
    pub model: String,
    /// Registry model version (bumped on every reload).
    pub version: u64,
    /// Machine the sweep runs against.
    pub machine: String,
    /// Occupied orbitals.
    pub o: usize,
    /// Virtual orbitals.
    pub v: usize,
    /// Question asked ("stq" | "bq" | "pareto").
    pub goal: String,
    /// `f64::to_bits` of the node-hour budget, when given.
    pub budget_bits: Option<u64>,
    /// `f64::to_bits` of the deadline in seconds, when given.
    pub deadline_bits: Option<u64>,
}

impl AdviseKey {
    fn as_probe(&self) -> AdviseKeyRef<'_> {
        AdviseKeyRef {
            model: &self.model,
            version: self.version,
            machine: &self.machine,
            o: self.o,
            v: self.v,
            goal: &self.goal,
            budget_bits: self.budget_bits,
            deadline_bits: self.deadline_bits,
        }
    }
}

/// Borrowed probe for cache lookups: the same fields as [`AdviseKey`] but
/// with `&str` strings, so the advise hit path can query the cache without
/// allocating owned keys. Only a **miss** (which then pays for a full
/// sweep anyway) needs to materialise an owned [`AdviseKey`] for insert.
#[derive(Debug, Clone, Copy)]
pub struct AdviseKeyRef<'a> {
    /// Registry model name.
    pub model: &'a str,
    /// Registry model version (bumped on every reload).
    pub version: u64,
    /// Machine the sweep runs against.
    pub machine: &'a str,
    /// Occupied orbitals.
    pub o: usize,
    /// Virtual orbitals.
    pub v: usize,
    /// Question asked ("stq" | "bq" | "pareto").
    pub goal: &'a str,
    /// `f64::to_bits` of the node-hour budget, when given.
    pub budget_bits: Option<u64>,
    /// `f64::to_bits` of the deadline in seconds, when given.
    pub deadline_bits: Option<u64>,
}

impl AdviseKeyRef<'_> {
    /// Materialise an owned key (miss path only).
    pub fn to_owned_key(&self) -> AdviseKey {
        AdviseKey {
            model: self.model.to_string(),
            version: self.version,
            machine: self.machine.to_string(),
            o: self.o,
            v: self.v,
            goal: self.goal.to_string(),
            budget_bits: self.budget_bits,
            deadline_bits: self.deadline_bits,
        }
    }

    /// Hash of the question fields (everything except `version`) — picks
    /// the shard — and of the full key including `version` — the map key
    /// within the shard.
    fn hashes(&self) -> (u64, u64) {
        let mut h = Fnv::new();
        h.str_field(self.model);
        h.str_field(self.machine);
        h.u64(self.o as u64);
        h.u64(self.v as u64);
        h.str_field(self.goal);
        h.opt_u64(self.budget_bits);
        h.opt_u64(self.deadline_bits);
        let question = h.finish();
        h.u64(self.version);
        (question, h.finish())
    }

    /// True when `k` is exactly this key (all fields, version included).
    fn matches(&self, k: &AdviseKey) -> bool {
        self.version == k.version && self.matches_question(k)
    }

    /// True when `k` asks the same question, any model version.
    fn matches_question(&self, k: &AdviseKey) -> bool {
        self.o == k.o
            && self.v == k.v
            && self.budget_bits == k.budget_bits
            && self.deadline_bits == k.deadline_bits
            && self.goal == k.goal
            && self.model == k.model
            && self.machine == k.machine
    }
}

/// Inline FNV-1a: no hasher state to construct per lookup (unlike the
/// std `RandomState`/SipHash pair) and deterministic across both owned
/// and borrowed key forms.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bytes(&[1]);
                self.u64(x);
            }
            None => self.bytes(&[0]),
        }
    }

    /// Length-prefixed so adjacent string fields cannot alias.
    fn str_field(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The primary recommendation `(nodes, tile, predicted_seconds)` carried
/// alongside a cached body, so cache replays can be journaled for
/// quality tracking without re-parsing the rendered JSON. `None` for
/// answers with no actionable recommendation (e.g. nothing feasible).
pub type CachedRec = (usize, usize, f64);

struct Entry {
    key: AdviseKey,
    body: Arc<str>,
    /// See [`CachedRec`].
    rec: Option<CachedRec>,
    last_used: u64,
    /// Demoted by a model reload: only reachable via [`AdviseCache::get_stale`].
    stale: bool,
}

/// One shard: a hash-keyed map of collision buckets plus its LRU clock.
/// Buckets are `Vec`s because the map key is the precomputed FNV hash —
/// two distinct keys hashing alike simply share a bucket and are told
/// apart by full-field comparison.
#[derive(Default)]
struct Shard {
    map: HashMap<u64, Vec<Entry>>,
    len: usize,
    tick: u64,
}

impl Shard {
    fn evict_lru(&mut self) {
        let victim = self
            .map
            .iter()
            .flat_map(|(&h, bucket)| {
                bucket.iter().enumerate().map(move |(i, e)| (h, i, !e.stale, e.last_used))
            })
            .min_by_key(|&(_, _, fresh, used)| (fresh, used));
        if let Some((h, i, _, _)) = victim {
            let bucket = self.map.get_mut(&h).expect("victim bucket exists");
            bucket.swap_remove(i);
            if bucket.is_empty() {
                self.map.remove(&h);
            }
            self.len -= 1;
        }
    }
}

/// Thread-safe, sharded LRU cache of rendered advise response bodies.
pub struct AdviseCache {
    /// Entries per shard; eviction is shard-local.
    shard_capacity: usize,
    /// `shards.len()` is a power of two; selection is `hash & mask`.
    mask: usize,
    shards: Vec<Mutex<Shard>>,
}

impl AdviseCache {
    /// A cache holding at most ~`capacity` entries (minimum 1 per shard),
    /// split across [`DEFAULT_SHARDS`] shards.
    pub fn new(capacity: usize) -> AdviseCache {
        AdviseCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (rounded up to a power of
    /// two). `shards = 1` recovers the old single-map global-LRU
    /// behaviour; tests use it to pin eviction order deterministically.
    pub fn with_shards(capacity: usize, shards: usize) -> AdviseCache {
        let n = shards.max(1).next_power_of_two();
        AdviseCache {
            shard_capacity: capacity.div_ceil(n).max(1),
            mask: n - 1,
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    fn shard_for(&self, question_hash: u64) -> &Mutex<Shard> {
        &self.shards[(question_hash as usize) & self.mask]
    }

    /// Look up a rendered response (body plus its journaled
    /// recommendation summary), refreshing its recency on hit. A miss
    /// changes nothing, so a lookup that misses can be repeated.
    ///
    /// Allocation-free: the probe is borrowed and the body is shared.
    pub fn get(&self, key: &AdviseKeyRef<'_>) -> Option<(Arc<str>, Option<CachedRec>)> {
        let (qh, fh) = key.hashes();
        let mut guard = self.shard_for(qh).lock();
        let shard = &mut *guard;
        let entry = shard.map.get_mut(&fh)?.iter_mut().find(|e| key.matches(&e.key))?;
        shard.tick += 1;
        entry.last_used = shard.tick;
        Some((Arc::clone(&entry.body), entry.rec))
    }

    /// Owned-key convenience wrapper around [`AdviseCache::get`].
    pub fn get_owned(&self, key: &AdviseKey) -> Option<(Arc<str>, Option<CachedRec>)> {
        self.get(&key.as_probe())
    }

    /// Insert a rendered response and its recommendation summary,
    /// evicting the shard's least-recently-used entry if the shard is
    /// full.
    pub fn insert(&self, key: AdviseKey, body: impl Into<Arc<str>>, rec: Option<CachedRec>) {
        let (qh, fh) = key.as_probe().hashes();
        let body = body.into();
        let mut shard = self.shard_for(qh).lock();
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(bucket) = shard.map.get_mut(&fh) {
            if let Some(e) = bucket.iter_mut().find(|e| e.key == key) {
                e.body = body;
                e.rec = rec;
                e.last_used = tick;
                e.stale = false;
                return;
            }
        }
        if shard.len >= self.shard_capacity {
            // Stale (demoted) entries go first; fresh entries by recency.
            shard.evict_lru();
        }
        shard.map.entry(fh).or_default().push(Entry {
            key,
            body,
            rec,
            last_used: tick,
            stale: false,
        });
        shard.len += 1;
    }

    /// Drop every entry belonging to `model` (all versions). Returns how
    /// many entries were removed.
    pub fn invalidate_model(&self, model: &str) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let before = shard.len;
            shard.map.retain(|_, bucket| {
                bucket.retain(|e| e.key.model != model);
                !bucket.is_empty()
            });
            shard.len = shard.map.values().map(Vec::len).sum();
            removed += before - shard.len;
        }
        removed
    }

    /// Mark every entry of `model` whose version is not `current_version`
    /// as stale. Called on model reload: the dead versions stay around —
    /// first in line for eviction — as last-resort answers for
    /// [`AdviseCache::get_stale`]. Returns how many entries were demoted.
    pub fn demote_model(&self, model: &str, current_version: u64) -> usize {
        let mut demoted = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            for bucket in shard.map.values_mut() {
                for e in bucket.iter_mut() {
                    if e.key.model == model && e.key.version != current_version && !e.stale {
                        e.stale = true;
                        demoted += 1;
                    }
                }
            }
        }
        demoted
    }

    /// Overload escape hatch: find an answer for `key` from **any** model
    /// version (the freshest available), stale or not. Returns the body,
    /// the version it was computed against so the caller can label the
    /// response, and the recommendation summary for quality journaling.
    /// Does not refresh recency — a stale answer should not out-survive
    /// fresh ones. Shard selection ignores the version, so every version
    /// of a question lives in one shard and this scan stays shard-local.
    pub fn get_stale(&self, key: &AdviseKeyRef<'_>) -> Option<(Arc<str>, u64, Option<CachedRec>)> {
        let (qh, _) = key.hashes();
        let shard = self.shard_for(qh).lock();
        shard
            .map
            .values()
            .flatten()
            .filter(|e| key.matches_question(&e.key))
            .max_by_key(|e| e.key.version)
            .map(|e| (Arc::clone(&e.body), e.key.version, e.rec))
    }

    /// How many entries are currently demoted (stale).
    pub fn stale_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map.values().flatten().filter(|e| e.stale).count())
            .sum()
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(model: &str, version: u64, o: usize) -> AdviseKey {
        AdviseKey {
            model: model.to_string(),
            version,
            machine: "aurora".to_string(),
            o,
            v: 900,
            goal: "stq".to_string(),
            budget_bits: None,
            deadline_bits: None,
        }
    }

    fn body_of(hit: Option<(Arc<str>, Option<CachedRec>)>) -> Option<String> {
        hit.map(|(b, _)| b.to_string())
    }

    #[test]
    fn get_miss_then_hit() {
        let cache = AdviseCache::new(8);
        assert_eq!(cache.get_owned(&key("m", 1, 100)), None);
        cache.insert(key("m", 1, 100), "body", None);
        assert_eq!(body_of(cache.get_owned(&key("m", 1, 100))), Some("body".to_string()));
        // A different version is a different key.
        assert_eq!(cache.get_owned(&key("m", 2, 100)), None);
    }

    /// The event loop probes every short advise; a miss must leave
    /// the cache exactly as it was for the worker that answers it.
    #[test]
    fn a_miss_leaves_the_shard_untouched() {
        let cache = AdviseCache::with_shards(4, 1);
        cache.insert(key("m", 1, 1), "a", None);
        let tick = cache.shards[0].lock().tick;
        assert!(cache.get_owned(&key("m", 1, 2)).is_none());
        assert!(cache.get_owned(&key("m", 2, 1)).is_none());
        assert_eq!(cache.shards[0].lock().tick, tick);
        assert!(cache.get_owned(&key("m", 1, 1)).is_some());
        assert_eq!(cache.shards[0].lock().tick, tick + 1, "a hit refreshes recency");
    }

    #[test]
    fn borrowed_probe_matches_owned_key() {
        let cache = AdviseCache::new(8);
        let mut owned = key("m", 3, 42);
        owned.budget_bits = Some(7.5f64.to_bits());
        cache.insert(owned.clone(), "answer", Some((400, 90, 12.0)));
        let probe = AdviseKeyRef {
            model: "m",
            version: 3,
            machine: "aurora",
            o: 42,
            v: 900,
            goal: "stq",
            budget_bits: Some(7.5f64.to_bits()),
            deadline_bits: None,
        };
        let (body, rec) = cache.get(&probe).expect("borrowed probe must hit");
        assert_eq!(&*body, "answer");
        assert_eq!(rec, Some((400, 90, 12.0)));
        assert_eq!(probe.to_owned_key(), owned);
        // A probe differing in any field misses.
        assert!(cache.get(&AdviseKeyRef { o: 43, ..probe }).is_none());
        assert!(cache.get(&AdviseKeyRef { goal: "bq", ..probe }).is_none());
        assert!(cache.get(&AdviseKeyRef { budget_bits: None, ..probe }).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        // One shard so eviction order is the old deterministic global LRU.
        let cache = AdviseCache::with_shards(2, 1);
        cache.insert(key("m", 1, 1), "a", None);
        cache.insert(key("m", 1, 2), "b", None);
        // Touch entry 1 so entry 2 becomes the LRU.
        assert!(cache.get_owned(&key("m", 1, 1)).is_some());
        cache.insert(key("m", 1, 3), "c", None);
        assert_eq!(cache.len(), 2);
        assert!(cache.get_owned(&key("m", 1, 1)).is_some());
        assert!(cache.get_owned(&key("m", 1, 2)).is_none(), "LRU entry should be evicted");
        assert!(cache.get_owned(&key("m", 1, 3)).is_some());
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let cache = AdviseCache::with_shards(2, 1);
        cache.insert(key("m", 1, 1), "a", None);
        cache.insert(key("m", 1, 2), "b", None);
        cache.insert(key("m", 1, 1), "a2", None);
        assert_eq!(cache.len(), 2);
        assert_eq!(body_of(cache.get_owned(&key("m", 1, 1))), Some("a2".to_string()));
        assert!(cache.get_owned(&key("m", 1, 2)).is_some());
    }

    #[test]
    fn sharded_cache_keeps_all_entries_up_to_capacity() {
        // Keys spread across shards; nothing evicts below total capacity
        // and every entry stays reachable through both probe forms.
        let cache = AdviseCache::new(64);
        for o in 0..48 {
            cache.insert(key("m", 1, o), format!("body-{o}"), None);
        }
        assert_eq!(cache.len(), 48);
        for o in 0..48 {
            assert_eq!(body_of(cache.get_owned(&key("m", 1, o))), Some(format!("body-{o}")));
        }
    }

    #[test]
    fn invalidate_model_drops_only_that_model() {
        let cache = AdviseCache::new(16);
        cache.insert(key("a", 1, 1), "x", None);
        cache.insert(key("a", 2, 1), "y", None);
        cache.insert(key("b", 1, 1), "z", None);
        assert_eq!(cache.invalidate_model("a"), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get_owned(&key("b", 1, 1)).is_some());
        assert_eq!(cache.invalidate_model("a"), 0);
    }

    #[test]
    fn demote_marks_old_versions_and_get_stale_finds_them() {
        let cache = AdviseCache::new(16);
        cache.insert(key("m", 1, 100), "v1-answer", None);
        cache.insert(key("m", 2, 100), "v2-answer", None);
        cache.insert(key("other", 1, 100), "other", None);
        // Reload bumped m to version 3: both old versions demote.
        assert_eq!(cache.demote_model("m", 3), 2);
        assert_eq!(cache.stale_len(), 2);
        // Demoting again is idempotent.
        assert_eq!(cache.demote_model("m", 3), 0);
        // Exact-version get still works (the entries are not dropped)...
        assert_eq!(body_of(cache.get_owned(&key("m", 1, 100))), Some("v1-answer".to_string()));
        // ...and get_stale picks the freshest version for the question.
        let (body, version, rec) = cache.get_stale(&key("m", 3, 100).as_probe()).unwrap();
        assert_eq!(&*body, "v2-answer");
        assert_eq!(version, 2);
        assert_eq!(rec, None);
        // A question never cached has no stale fallback.
        assert!(cache.get_stale(&key("m", 3, 999).as_probe()).is_none());
        // Other models are untouched.
        assert_eq!(body_of(cache.get_owned(&key("other", 1, 100))), Some("other".to_string()));
    }

    #[test]
    fn eviction_prefers_stale_entries() {
        let cache = AdviseCache::with_shards(2, 1);
        cache.insert(key("m", 1, 1), "old", None);
        cache.insert(key("m", 2, 1), "new", None);
        cache.demote_model("m", 2);
        // The stale v1 entry was used most recently — it must still be
        // the one evicted when capacity is needed.
        assert!(cache.get_owned(&key("m", 1, 1)).is_some());
        cache.insert(key("m", 2, 2), "another", None);
        assert_eq!(cache.len(), 2);
        assert!(cache.get_owned(&key("m", 1, 1)).is_none(), "stale entry evicted first");
        assert!(cache.get_owned(&key("m", 2, 1)).is_some());
        assert!(cache.get_owned(&key("m", 2, 2)).is_some());
    }

    #[test]
    fn budget_and_deadline_partition_the_key_space() {
        let cache = AdviseCache::new(8);
        let mut with_budget = key("m", 1, 100);
        with_budget.budget_bits = Some(3.0f64.to_bits());
        cache.insert(key("m", 1, 100), "plain", None);
        cache.insert(with_budget.clone(), "budgeted", None);
        assert_eq!(body_of(cache.get_owned(&key("m", 1, 100))), Some("plain".to_string()));
        assert_eq!(body_of(cache.get_owned(&with_budget)), Some("budgeted".to_string()));
    }

    #[test]
    fn recommendation_summary_rides_along_hits_and_stale_replays() {
        let cache = AdviseCache::new(8);
        cache.insert(key("m", 1, 100), "answer", Some((400, 90, 123.5)));
        let (_, rec) = cache.get_owned(&key("m", 1, 100)).unwrap();
        assert_eq!(rec, Some((400, 90, 123.5)));
        cache.demote_model("m", 2);
        let (_, version, stale_rec) = cache.get_stale(&key("m", 2, 100).as_probe()).unwrap();
        assert_eq!(version, 1);
        assert_eq!(stale_rec, Some((400, 90, 123.5)));
    }
}
