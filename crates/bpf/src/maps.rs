//! BPF maps: the only mutable state a BPF program may touch.
//!
//! TScout's Collector uses maps for all intermediate storage (paper §3.2):
//! hash maps keyed by thread id hold the nesting depth, the BEGIN
//! snapshot and the END deltas — recursive operators (§5.2) key the
//! snapshot by `(tid, depth)` — and a perf-event array ships finished
//! samples to the Processor. Those are the two kinds there are. The perf
//! buffer is bounded and *overwrites* when full — the Processor may drop
//! data without correctness problems, which is how TScout avoids back
//! pressure on the DBMS (§3).
//!
//! ## Storage
//!
//! Nothing on the update/lookup/publish path allocates once the storage
//! has grown to its working size.
//!
//! * **Hash** — slot-major `keys` and `values` slabs (`value_size`
//!   bytes per *slot*), a free list, and
//!   `order`: the live slots sorted by key bytes (binary-searched on
//!   lookup, so iteration — and therefore every simulation — is
//!   deterministic). Deleting a key bumps its slot's *generation*; a
//!   [`ValueRef`] taken before the delete no longer resolves.
//! * **Perf ring** — one byte queue of `[len: u32][payload]` records in
//!   32 KiB chunks, grown lazily (never sized from the record capacity)
//!   and read in place by [`MapRegistry::ring_drain_with`].

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// How many overwritten ring records keep their header for the
/// collector's loss-attribution telemetry. The collector drains this
/// after every program run, so the cap only matters for raw
/// `MapRegistry` users who never look; beyond it, evicted headers are
/// discarded (the count in `dropped` stays exact either way).
pub const EVICTED_KEEP: usize = 4096;

/// Leading payload bytes kept per overwritten record: the collector's
/// `(ou, tid, subsystem)` header words.
pub const EVICTED_HEADER_BYTES: usize = 24;

/// Capacity of one chunk of a ring's record queue.
const RING_CHUNK_BYTES: usize = 32 * 1024;

/// Emptied ring chunks kept for reuse; beyond this they are freed.
const RING_SPARE_CHUNKS: usize = 16;

/// Bytes of the length prefix in front of every ring record.
const RING_LEN_PREFIX: usize = 4;

/// Identifier of a created map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MapId(pub u32);

/// Map flavors: the two BPF map types the Collector creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// Keyed storage; at most `max_entries` live keys.
    Hash { max_entries: usize },
    /// Bounded ring buffer to user space; overwrites oldest when full.
    PerfEventArray { capacity: usize },
}

/// A map definition supplied at creation time.
#[derive(Debug, Clone)]
pub struct MapDef {
    pub name: String,
    pub kind: MapKind,
    pub key_size: usize,
    pub value_size: usize,
}

impl MapDef {
    pub fn hash(name: &str, key_size: usize, value_size: usize, max_entries: usize) -> Self {
        MapDef {
            name: name.into(),
            kind: MapKind::Hash { max_entries },
            key_size,
            value_size,
        }
    }

    pub fn perf_event_array(name: &str, capacity: usize) -> Self {
        MapDef {
            name: name.into(),
            kind: MapKind::PerfEventArray { capacity },
            key_size: 0,
            value_size: 0,
        }
    }
}

/// A live pointer to one stored value: what `map_lookup_elem` hands a
/// program. Resolved through [`MapRegistry::value`] on every access; it
/// stops resolving once its key is deleted (the slot's generation moved
/// on), even if the slot has since been reused for another key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRef {
    pub map: MapId,
    slot: u32,
    generation: u32,
}

/// Hash-map storage (see the module docs).
#[derive(Debug, Default)]
struct HashSlab {
    keys: Vec<u8>,
    values: Vec<u8>,
    /// Per slot, bumped on delete and clear.
    generations: Vec<u32>,
    /// Live slots, sorted by key bytes.
    order: Vec<u32>,
    free: Vec<u32>,
}

impl HashSlab {
    fn key(&self, slot: u32, key_size: usize) -> &[u8] {
        &self.keys[slot as usize * key_size..][..key_size]
    }

    /// Position of `key` in `order`: `Ok` when present, `Err(insert_at)`
    /// otherwise. Keys compare as big-endian words, which is the order
    /// of their bytes without a `memcmp` call per probe: one compare for
    /// the 8-byte keys the Collector creates.
    fn position(&self, key: &[u8]) -> Result<usize, usize> {
        if let Ok(word) = <[u8; 8]>::try_from(key) {
            let word = u64::from_be_bytes(word);
            return self.order.binary_search_by(|slot| {
                let stored = self.keys[*slot as usize * 8..].first_chunk();
                // A slot past the stored keys (none is) sorts first.
                stored.map_or(Ordering::Less, |k| u64::from_be_bytes(*k).cmp(&word))
            });
        }
        self.order
            .binary_search_by(|slot| cmp_keys(self.key(*slot, key.len()), key))
    }

    fn find(&self, key: &[u8], key_size: usize) -> Option<u32> {
        if key.len() != key_size {
            return None;
        }
        self.position(key).ok().map(|pos| self.order[pos])
    }
}

/// `a.cmp(b)` for two keys of one length, a word at a time and then the
/// tail.
fn cmp_keys(a: &[u8], b: &[u8]) -> Ordering {
    let ((a, a_tail), (b, b_tail)) = (a.as_chunks::<8>(), b.as_chunks::<8>());
    let mut words = a
        .iter()
        .zip(b)
        .map(|(a, b)| u64::from_be_bytes(*a).cmp(&u64::from_be_bytes(*b)));
    words
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a_tail.cmp(b_tail))
}

/// The perf ring's record queue and counters.
///
/// Records are `[len: u32][payload]`, appended to the newest of a queue
/// of fixed-capacity *chunks* and never split across two. A chunk whose
/// records have all been consumed goes back to a small spare pool, so
/// the queue's memory follows what is queued (plus at most one chunk of
/// slack), a burst never triggers a copying regrowth, and a steady
/// publish/drain cycle allocates nothing.
#[derive(Debug, Default)]
struct ByteRing {
    /// Oldest chunk first; only the newest is appended to.
    chunks: VecDeque<Vec<u8>>,
    /// Read offset of the oldest live record within the oldest chunk.
    head: usize,
    /// Emptied chunks kept for reuse (at most [`RING_SPARE_CHUNKS`]).
    spare: Vec<Vec<u8>>,
    /// Live records.
    count: usize,
    dropped: u64,
    /// Records ever published (drained + live + dropped).
    produced: u64,
    /// Payload bytes ever published.
    bytes: u64,
    /// Occupancy high-water mark.
    hwm: usize,
    /// Headers of recently overwritten records, kept (bounded) so the
    /// collector can attribute losses to a subsystem/OU.
    evicted: VecDeque<EvictedHeader>,
}

/// Payload range of the record whose length prefix sits at `at` in
/// `chunk`.
fn record_at(chunk: &[u8], at: usize) -> std::ops::Range<usize> {
    let start = at + RING_LEN_PREFIX;
    let mut len = [0; RING_LEN_PREFIX];
    len.copy_from_slice(&chunk[at..start]);
    start..start + u32::from_le_bytes(len) as usize
}

impl ByteRing {
    /// Append one record.
    fn push(&mut self, len: u32, data: &[u8]) {
        let need = RING_LEN_PREFIX + data.len();
        let fits = self
            .chunks
            .back()
            .is_some_and(|c| c.capacity() - c.len() >= need);
        let write = |chunk: &mut Vec<u8>| {
            chunk.extend_from_slice(&len.to_le_bytes());
            chunk.extend_from_slice(data);
        };
        match self.chunks.back_mut().filter(|_| fits) {
            Some(chunk) => write(chunk),
            None => {
                // An oversized record gets a chunk of its own size.
                let mut chunk = self.spare.pop().unwrap_or_default();
                chunk.reserve(need.max(RING_CHUNK_BYTES));
                write(&mut chunk);
                self.chunks.push_back(chunk);
            }
        }
        self.count += 1;
    }

    /// Remove the oldest record and return its position in publish order
    /// and its payload, which stays readable until the next call that
    /// mutates the ring. `None` when the ring is empty.
    fn pop(&mut self) -> Option<(u64, &[u8])> {
        if self.count == 0 {
            return None;
        }
        let pos = self.produced - self.count as u64;
        // A chunk consumed to its end is only recycled here, on the way
        // to the next record, so the payload handed out last time was
        // never invalidated behind its borrower's back.
        if self.chunks.front().is_some_and(|c| self.head == c.len()) {
            self.recycle_front();
        }
        let chunk = self.chunks.front()?;
        let record = record_at(chunk, self.head);
        self.head = record.end;
        self.count -= 1;
        Some((pos, &chunk[record]))
    }

    /// Return the (fully consumed) oldest chunk to the spare pool.
    fn recycle_front(&mut self) {
        if let Some(mut chunk) = self.chunks.pop_front() {
            chunk.clear();
            if self.spare.len() < RING_SPARE_CHUNKS {
                self.spare.push(chunk);
            }
        }
        self.head = 0;
    }

    /// Drop consumed chunks once nothing is queued.
    fn settle(&mut self) {
        if self.count == 0 {
            while !self.chunks.is_empty() {
                self.recycle_front();
            }
        }
    }

    /// Payloads of the live records, oldest first.
    fn records(&self) -> impl Iterator<Item = &[u8]> {
        let mut chunks = self.chunks.iter();
        let mut chunk: &[u8] = chunks.next().map_or(&[], Vec::as_slice);
        let mut at = self.head;
        (0..self.count).map_while(move |_| {
            while at == chunk.len() {
                chunk = chunks.next()?;
                at = 0;
            }
            let record = record_at(chunk, at);
            at = record.end;
            Some(&chunk[record])
        })
    }
}

/// The first [`EVICTED_HEADER_BYTES`] payload bytes of an overwritten
/// ring record (fewer when the record was shorter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedHeader {
    /// The overwritten record's position in publish order.
    pub pos: u64,
    len: u8,
    bytes: [u8; EVICTED_HEADER_BYTES],
}

impl EvictedHeader {
    // Fits: `len` is at most EVICTED_HEADER_BYTES (24).
    #[allow(clippy::cast_possible_truncation)]
    fn of((pos, payload): (u64, &[u8])) -> Self {
        let len = payload.len().min(EVICTED_HEADER_BYTES);
        let mut bytes = [0; EVICTED_HEADER_BYTES];
        bytes[..len].copy_from_slice(&payload[..len]);
        EvictedHeader {
            pos,
            len: len as u8,
            bytes,
        }
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

#[derive(Debug)]
enum Storage {
    Hash(HashSlab),
    Ring(ByteRing),
}

/// Point-in-time statistics for one perf ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    pub produced: u64,
    pub dropped: u64,
    pub bytes: u64,
    pub hwm: usize,
    pub len: usize,
    pub capacity: usize,
}

/// Registry-wide operation counters — the "map ops" half of the BPF VM's
/// telemetry. Plain integers here; the telemetry crate reads them out at
/// export time so `tscout-bpf` itself stays dependency-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapOpStats {
    /// Helper/API lookups *and* dereferences of a live [`ValueRef`].
    pub lookups: u64,
    pub updates: u64,
    pub deletes: u64,
    pub ring_pushes: u64,
    pub ring_drained: u64,
}

/// One live map.
#[derive(Debug)]
pub struct MapInstance {
    pub def: MapDef,
    storage: Storage,
}

/// Errors surfaced to BPF as negative return codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// `-E2BIG`: the map is full.
    Full,
    /// `-ENOENT`: no such element.
    NotFound,
    /// `-EINVAL`: wrong key/value size or wrong map kind for the operation.
    Invalid,
}

impl MapError {
    /// The errno-style value returned in `R0`.
    pub fn errno(self) -> i64 {
        match self {
            MapError::Full => -7,
            MapError::NotFound => -2,
            MapError::Invalid => -22,
        }
    }
}

/// All maps created through a loader.
#[derive(Debug, Default)]
pub struct MapRegistry {
    maps: Vec<MapInstance>,
    /// `Cell` because lookups and dereferences take `&self`.
    lookups: Cell<u64>,
    ops: MapOpStats,
}

impl MapRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn create(&mut self, def: MapDef) -> MapId {
        let storage = match def.kind {
            MapKind::Hash { .. } => Storage::Hash(HashSlab::default()),
            MapKind::PerfEventArray { .. } => Storage::Ring(ByteRing::default()),
        };
        // A map costs far more than the 16 bytes that 2^32 of them would
        // need per id to fill an address space.
        #[allow(clippy::expect_used)]
        let id = MapId(u32::try_from(self.maps.len()).expect("fewer than 2^32 maps fit in memory"));
        self.maps.push(MapInstance { def, storage });
        id
    }

    pub fn def(&self, id: MapId) -> Option<&MapDef> {
        self.maps.get(id.0 as usize).map(|m| &m.def)
    }

    pub fn len(&self) -> usize {
        self.maps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    fn map(&self, id: MapId) -> &MapInstance {
        &self.maps[id.0 as usize]
    }

    fn map_mut(&mut self, id: MapId) -> &mut MapInstance {
        &mut self.maps[id.0 as usize]
    }

    fn count_lookup(&self) {
        self.count_lookups(1);
    }

    /// Count `n` lookups at once: what `n` dereferences of one value,
    /// each through [`MapRegistry::value`], would have counted.
    pub(crate) fn count_lookups(&self, n: u64) {
        self.lookups.set(self.lookups.get() + n);
    }

    // ------------------------------------------------------------------
    // Hash element access
    // ------------------------------------------------------------------

    /// The value `r` points to; `None` once its key was deleted. Counts
    /// nothing.
    pub(crate) fn resolve(&self, r: ValueRef) -> Option<&[u8]> {
        let m = self.maps.get(r.map.0 as usize)?;
        let range = r.slot as usize * m.def.value_size..(r.slot as usize + 1) * m.def.value_size;
        match &m.storage {
            Storage::Hash(h) if h.generations.get(r.slot as usize) == Some(&r.generation) => {
                h.values.get(range)
            }
            _ => None,
        }
    }

    fn resolve_mut(&mut self, r: ValueRef) -> Option<&mut [u8]> {
        let m = self.maps.get_mut(r.map.0 as usize)?;
        let range = r.slot as usize * m.def.value_size..(r.slot as usize + 1) * m.def.value_size;
        match &mut m.storage {
            Storage::Hash(h) if h.generations.get(r.slot as usize) == Some(&r.generation) => {
                h.values.get_mut(range)
            }
            _ => None,
        }
    }

    /// Look up a value.
    pub fn lookup(&self, id: MapId, key: &[u8]) -> Option<&[u8]> {
        self.resolve(self.lookup_ref(id, key)?)
    }

    /// Mutable view of a stored value.
    pub fn lookup_mut(&mut self, id: MapId, key: &[u8]) -> Option<&mut [u8]> {
        self.resolve_mut(self.lookup_ref(id, key)?)
    }

    /// Look up a value and return a live pointer to it (backs BPF's
    /// in-place value pointers). Counts as one lookup.
    pub fn lookup_ref(&self, id: MapId, key: &[u8]) -> Option<ValueRef> {
        self.count_lookup();
        let m = self.map(id);
        let Storage::Hash(h) = &m.storage else {
            return None;
        };
        let slot = h.find(key, m.def.key_size)?;
        Some(ValueRef {
            map: id,
            slot,
            generation: h.generations[slot as usize],
        })
    }

    /// Dereference a live pointer; `None` once its key was deleted.
    /// Counts as one lookup, like the by-key re-lookup it stands for.
    pub fn value(&self, r: ValueRef) -> Option<&[u8]> {
        self.count_lookup();
        self.resolve(r)
    }

    /// Mutable [`MapRegistry::value`].
    pub fn value_mut(&mut self, r: ValueRef) -> Option<&mut [u8]> {
        self.count_lookup();
        self.resolve_mut(r)
    }

    /// Insert or overwrite.
    pub fn update(&mut self, id: MapId, key: &[u8], value: &[u8]) -> Result<(), MapError> {
        self.ops.updates += 1;
        let m = self.map_mut(id);
        let (key_size, value_size) = (m.def.key_size, m.def.value_size);
        if key.len() != key_size || value.len() != value_size {
            return Err(MapError::Invalid);
        }
        let (Storage::Hash(h), MapKind::Hash { max_entries }) = (&mut m.storage, m.def.kind) else {
            return Err(MapError::Invalid);
        };
        let slot = match h.position(key) {
            Ok(pos) => h.order[pos],
            Err(pos) => {
                if h.order.len() >= max_entries {
                    return Err(MapError::Full);
                }
                let slot = match h.free.pop() {
                    Some(slot) => slot,
                    None => {
                        // The slot count, like a slot, is a u32.
                        let slots =
                            u32::try_from(h.generations.len() + 1).map_err(|_| MapError::Full)?;
                        h.keys.resize(h.keys.len() + key_size, 0);
                        h.values.resize(h.values.len() + value_size, 0);
                        h.generations.push(0);
                        slots - 1
                    }
                };
                h.keys[slot as usize * key_size..][..key_size].copy_from_slice(key);
                h.order.insert(pos, slot);
                slot
            }
        };
        h.values[slot as usize * value_size..][..value_size].copy_from_slice(value);
        Ok(())
    }

    pub fn delete(&mut self, id: MapId, key: &[u8]) -> Result<(), MapError> {
        self.ops.deletes += 1;
        let m = self.map_mut(id);
        let Storage::Hash(h) = &mut m.storage else {
            return Err(MapError::Invalid);
        };
        if key.len() != m.def.key_size {
            return Err(MapError::NotFound);
        }
        let pos = h.position(key).map_err(|_| MapError::NotFound)?;
        let slot = h.order.remove(pos);
        let generation = &mut h.generations[slot as usize];
        *generation = generation.wrapping_add(1);
        h.free.push(slot);
        Ok(())
    }

    /// Number of live keys (hash) or queued records (ring).
    pub fn entries(&self, id: MapId) -> usize {
        match &self.map(id).storage {
            Storage::Hash(h) => h.order.len(),
            Storage::Ring(r) => r.count,
        }
    }

    // ------------------------------------------------------------------
    // Perf event ring buffer (Collector → Processor channel, paper §3.2)
    // ------------------------------------------------------------------

    /// Publish a record. When the ring is full the *oldest* record is
    /// overwritten and the drop counter incremented; the producer never
    /// blocks (the "no back pressure" design property). Always
    /// `produced = drained + live + dropped`, and a record's position in
    /// publish order is `produced` before its push.
    pub fn ring_push(&mut self, id: MapId, data: &[u8]) -> Result<(), MapError> {
        self.ops.ring_pushes += 1;
        let m = self.map_mut(id);
        match (&mut m.storage, m.def.kind) {
            (Storage::Ring(r), MapKind::PerfEventArray { capacity }) => {
                let len = u32::try_from(data.len()).map_err(|_| MapError::Invalid)?;
                r.push(len, data);
                r.produced += 1;
                // The oldest record goes when over capacity — with no
                // capacity at all, the one just pushed.
                let over = r.count > capacity;
                if let Some(lost) = over.then(|| r.pop().map(EvictedHeader::of)).flatten() {
                    if r.evicted.len() >= EVICTED_KEEP {
                        r.evicted.pop_front();
                    }
                    r.evicted.push_back(lost);
                    r.dropped += 1;
                }
                r.bytes += data.len() as u64;
                r.hwm = r.hwm.max(r.count);
                Ok(())
            }
            _ => Err(MapError::Invalid),
        }
    }

    /// Drain up to `max` records for the Processor, oldest first, handing
    /// each to `visit` in place together with the number of records still
    /// queued behind it and its position in publish order. Returns how
    /// many were drained.
    pub fn ring_drain_with(
        &mut self,
        id: MapId,
        max: usize,
        mut visit: impl FnMut(&[u8], usize, u64),
    ) -> usize {
        let Storage::Ring(r) = &mut self.map_mut(id).storage else {
            return 0;
        };
        let mut n = 0;
        while n < max {
            let behind = r.count.saturating_sub(1);
            let Some((pos, record)) = r.pop() else {
                break;
            };
            visit(record, behind, pos);
            n += 1;
        }
        r.settle();
        self.ops.ring_drained += n as u64;
        n
    }

    /// [`MapRegistry::ring_drain_with`] into owned records.
    pub fn ring_drain(&mut self, id: MapId, max: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.ring_drain_with(id, max, |record, _, _| out.push(record.to_vec()));
        out
    }

    /// Records overwritten because the ring was full.
    pub fn ring_dropped(&self, id: MapId) -> u64 {
        self.ring_stats(id).dropped
    }

    /// Full statistics for a perf ring.
    pub fn ring_stats(&self, id: MapId) -> RingStats {
        let m = self.map(id);
        match (&m.storage, m.def.kind) {
            (Storage::Ring(r), MapKind::PerfEventArray { capacity }) => RingStats {
                produced: r.produced,
                dropped: r.dropped,
                bytes: r.bytes,
                hwm: r.hwm,
                len: r.count,
                capacity,
            },
            _ => RingStats::default(),
        }
    }

    /// Take the oldest retained header of an overwritten record (for
    /// loss attribution); `None` once all have been taken.
    pub fn ring_pop_evicted(&mut self, id: MapId) -> Option<EvictedHeader> {
        match &mut self.map_mut(id).storage {
            Storage::Ring(r) => r.evicted.pop_front(),
            _ => None,
        }
    }

    /// Heap bytes the ring currently owns (record queue plus retained
    /// eviction headers). Grows with what is queued, never with the
    /// configured record capacity.
    pub fn ring_owned_bytes(&self, id: MapId) -> usize {
        match &self.map(id).storage {
            Storage::Ring(r) => {
                let chunks = r.chunks.iter().chain(&r.spare);
                chunks.map(Vec::capacity).sum::<usize>()
                    + r.evicted.capacity() * std::mem::size_of::<EvictedHeader>()
            }
            _ => 0,
        }
    }

    /// Registry-wide operation counters.
    pub fn op_stats(&self) -> MapOpStats {
        MapOpStats {
            lookups: self.lookups.get(),
            ..self.ops
        }
    }

    /// Current ring occupancy.
    pub fn ring_len(&self, id: MapId) -> usize {
        self.entries(id)
    }

    /// Canonical snapshot of one map's data, for differential testing
    /// and diagnostics: `(key, value)` pairs in deterministic order.
    /// Hash maps report sorted key/value pairs; rings report position →
    /// record (oldest first). Does not consume or mutate anything (unlike
    /// [`MapRegistry::ring_drain`]) and bumps no op counters.
    pub fn dump(&self, id: MapId) -> Vec<(Vec<u8>, Vec<u8>)> {
        let m = self.map(id);
        let value_size = m.def.value_size;
        match &m.storage {
            Storage::Hash(h) => h
                .order
                .iter()
                .map(|slot| {
                    (
                        h.key(*slot, m.def.key_size).to_vec(),
                        h.values[*slot as usize * value_size..][..value_size].to_vec(),
                    )
                })
                .collect(),
            Storage::Ring(r) => r
                .records()
                .zip(0u32..)
                .map(|(v, i)| (i.to_le_bytes().to_vec(), v.to_vec()))
                .collect(),
        }
    }

    /// Clear all dynamic contents (reload support, §5.4).
    pub fn clear(&mut self, id: MapId) {
        let m = self.map_mut(id);
        match &mut m.storage {
            Storage::Hash(h) => {
                // Slots are kept and their generations moved on, so a
                // pointer taken before the clear can never alias a key
                // inserted after it.
                for generation in &mut h.generations {
                    *generation = generation.wrapping_add(1);
                }
                h.order.clear();
                h.free.clear();
                // Fits: `update` keeps the slot count a u32.
                #[allow(clippy::cast_possible_truncation)]
                h.free.extend((0..h.generations.len() as u32).rev());
            }
            Storage::Ring(r) => {
                r.count = 0;
                r.settle();
                r.evicted.clear();
                r.dropped = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: u64) -> Vec<u8> {
        k.to_le_bytes().to_vec()
    }

    #[test]
    fn hash_crud() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 16, 4));
        assert!(r.lookup(m, &key(1)).is_none());
        r.update(m, &key(1), &[7u8; 16]).unwrap();
        assert_eq!(r.lookup(m, &key(1)).unwrap(), &[7u8; 16]);
        r.update(m, &key(1), &[9u8; 16]).unwrap();
        assert_eq!(r.lookup(m, &key(1)).unwrap(), &[9u8; 16]);
        r.delete(m, &key(1)).unwrap();
        assert_eq!(r.delete(m, &key(1)), Err(MapError::NotFound));
    }

    #[test]
    fn hash_respects_max_entries() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 1, 2));
        r.update(m, &key(1), &[0]).unwrap();
        r.update(m, &key(2), &[0]).unwrap();
        assert_eq!(r.update(m, &key(3), &[0]), Err(MapError::Full));
        // Overwriting an existing key is always allowed.
        r.update(m, &key(1), &[1]).unwrap();
    }

    #[test]
    fn wrong_sizes_rejected() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 4, 2));
        assert_eq!(r.update(m, &[1, 2], &[0; 4]), Err(MapError::Invalid));
        assert_eq!(r.update(m, &key(1), &[0; 3]), Err(MapError::Invalid));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::perf_event_array("ring", 2));
        r.ring_push(m, b"a").unwrap();
        r.ring_push(m, b"b").unwrap();
        r.ring_push(m, b"c").unwrap(); // overwrites "a"
        assert_eq!(r.ring_dropped(m), 1);
        let drained = r.ring_drain(m, 10);
        assert_eq!(drained, vec![b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(r.ring_len(m), 0);
    }

    /// Three pushes used to read `produced 3, dropped 3, len 1`: the
    /// first drop evicted nothing and the ring then held a record.
    #[test]
    fn a_zero_capacity_ring_loses_the_incoming_record() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::perf_event_array("r", 0));
        for i in 0..3u8 {
            r.ring_push(m, &[i]).unwrap();
        }
        let s = r.ring_stats(m);
        assert_eq!((s.produced, s.dropped, s.len, s.hwm), (3, 3, 0, 0));
        assert!(r.ring_drain(m, 10).is_empty());
        let lost: Vec<_> = std::iter::from_fn(|| r.ring_pop_evicted(m)).collect();
        let lost: Vec<_> = lost.iter().map(EvictedHeader::as_bytes).collect();
        assert_eq!(lost, [[0], [1], [2]]);
    }

    /// Word-then-tail is the byte order for every width, also when two
    /// keys differ only past the last whole word.
    #[test]
    fn keys_compare_as_their_bytes_do() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as usize
        };
        for size in 1..=24usize {
            for case in 0..200 {
                let a: Vec<u8> = (0..size).map(|_| next() as u8).collect();
                // The same from some byte on; every other case only in
                // the last three.
                let from = next() % size;
                let from = from.max((case % 2) * size.saturating_sub(1 + next() % 3));
                let tail = (from..size).map(|_| next() as u8);
                let b: Vec<u8> = a[..from].iter().copied().chain(tail).collect();
                assert_eq!(cmp_keys(&a, &b), a.cmp(&b), "{a:?} vs {b:?}");
                assert_eq!(cmp_keys(&b, &a), b.cmp(&a), "{b:?} vs {a:?}");
                // And through `position`, whichever path the width takes.
                let mut r = MapRegistry::new();
                let m = r.create(MapDef::hash("t", size, 1, 4));
                r.update(m, &a, &[1]).unwrap();
                r.update(m, &b, &[2]).unwrap();
                let model = std::collections::BTreeMap::from([(a, vec![1]), (b, vec![2])]);
                assert_eq!(r.dump(m), Vec::from_iter(model));
            }
        }
    }

    #[test]
    fn ring_drain_respects_max() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::perf_event_array("ring", 10));
        for i in 0..5u8 {
            r.ring_push(m, &[i]).unwrap();
        }
        let first = r.ring_drain(m, 2);
        assert_eq!(first, vec![vec![0], vec![1]]);
        assert_eq!(r.ring_len(m), 3);
    }

    #[test]
    fn lookup_mut_mutates_in_place() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::hash("t", 8, 4, 2));
        r.update(m, &key(5), &[0; 4]).unwrap();
        r.lookup_mut(m, &key(5)).unwrap()[0] = 0xAB;
        assert_eq!(r.lookup(m, &key(5)).unwrap()[0], 0xAB);
    }

    #[test]
    fn ring_stats_track_production_and_hwm() {
        let mut r = MapRegistry::new();
        let m = r.create(MapDef::perf_event_array("ring", 3));
        for i in 0..5u8 {
            r.ring_push(m, &[i, i]).unwrap();
        }
        let s = r.ring_stats(m);
        assert_eq!(s.produced, 5);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.bytes, 10);
        assert_eq!(s.hwm, 3);
        assert_eq!(s.len, 3);
        assert_eq!(s.capacity, 3);
        // The two overwritten records' headers are retained for
        // attribution, oldest first, each with its position.
        let lost = r.ring_pop_evicted(m).unwrap();
        assert_eq!((lost.pos, lost.as_bytes()), (0, &[0, 0][..]));
        let lost = r.ring_pop_evicted(m).unwrap();
        assert_eq!((lost.pos, lost.as_bytes()), (1, &[1, 1][..]));
        assert!(r.ring_pop_evicted(m).is_none(), "pop drains the buffer");
        // The survivors drain in publish order, numbered on from there;
        // a cleared ring numbers on too.
        let mut drained = Vec::new();
        r.ring_drain_with(m, usize::MAX, |rec, _, pos| drained.push((pos, rec[0])));
        assert_eq!(drained, [(2, 2), (3, 3), (4, 4)]);
        r.ring_push(m, &[5]).unwrap();
        r.clear(m);
        r.ring_push(m, &[6]).unwrap();
        r.ring_drain_with(m, 1, |rec, _, pos| assert_eq!((pos, rec), (6, &[6][..])));
    }

    #[test]
    fn op_stats_count_operations() {
        let mut r = MapRegistry::new();
        let h = r.create(MapDef::hash("h", 8, 4, 8));
        let p = r.create(MapDef::perf_event_array("p", 4));
        r.update(h, &key(1), &[0; 4]).unwrap();
        r.lookup(h, &key(1));
        r.lookup(h, &key(2));
        r.delete(h, &key(1)).unwrap();
        r.ring_push(p, b"x").unwrap();
        r.ring_drain(p, 10);
        let ops = r.op_stats();
        assert_eq!(ops.updates, 1);
        assert_eq!(ops.lookups, 2);
        assert_eq!(ops.deletes, 1);
        assert_eq!(ops.ring_pushes, 1);
        assert_eq!(ops.ring_drained, 1);
    }

    #[test]
    fn clear_resets_contents() {
        let mut r = MapRegistry::new();
        let h = r.create(MapDef::hash("h", 8, 4, 8));
        let p = r.create(MapDef::perf_event_array("p", 1));
        r.update(h, &key(1), &[1; 4]).unwrap();
        r.ring_push(p, b"a").unwrap();
        r.ring_push(p, b"b").unwrap();
        r.clear(h);
        r.clear(p);
        assert_eq!(r.entries(h), 0);
        assert!(r.lookup(h, &key(1)).is_none());
        assert_eq!((r.entries(p), r.ring_dropped(p)), (0, 0));
    }
}
