//! Workloads, their seeded request generators, and the model every
//! response is checked against.
//!
//! Rows are 24-byte tuples `key(8) | value(8) | filler(8)`, all
//! big-endian. The value's low 40 bits are a seeded hash of the key and
//! its top 24 bits an update generation, so any row read back (even one
//! a racing update just rewrote) can be checked on its own; the filler
//! is the key's complement.

use nbb_proto::{RequestOp, ResponseBody, WireBound};
use nbb_workload::ScrambledZipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tuple width in bytes.
pub const TUPLE_WIDTH: usize = 24;
/// Keys per `GetMany` / `ProjectMany` / `UpdateMany` / `PutMany`.
pub const KEYS_PER_OP: usize = 4;
/// Rows per `Range` page.
pub const RANGE_LIMIT: u32 = 64;
/// Zipf exponent of `cold-project` reads and `write-mix` updates.
pub const ZIPF_ALPHA: f64 = 0.9;
/// Table name.
pub const TABLE: &str = "t";
/// Cached primary index: key bytes 0..8, cached field 8..16.
pub const INDEX: &str = "pk";
/// Request streams a run may open: one per connection plus the
/// in-process replay. Fresh put keys are striped by stream so no two
/// streams ever put the same key.
pub const STREAMS: u64 = 4;

const LOW40: u64 = (1 << 40) - 1;
const GEN_MASK: u64 = (1 << 24) - 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform `GetMany`; every page resident (CPU-only regime).
    HotGet,
    /// Scrambled-Zipf `ProjectMany` over a heap six times the heap pool,
    /// on a 100 µs device (modeled regime).
    ColdProject,
    /// Updates, fresh puts and range pages on file disks (real-file
    /// regime).
    WriteMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::HotGet, Workload::ColdProject, Workload::WriteMix];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotGet => "hot-get",
            Workload::ColdProject => "cold-project",
            Workload::WriteMix => "write-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The value field stored for `key` at update generation `gen`.
pub fn value_of(seed: u64, key: u64, gen: u64) -> u64 {
    let mut z = key ^ seed.rotate_left(17) ^ 0x5851_F42D_4C95_7F2D;
    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 29)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((gen & GEN_MASK) << 40) | ((z ^ (z >> 32)) & LOW40)
}

/// The full tuple for `key` at generation `gen`.
pub fn tuple(seed: u64, key: u64, gen: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(TUPLE_WIDTH);
    t.extend_from_slice(&key.to_be_bytes());
    t.extend_from_slice(&value_of(seed, key, gen).to_be_bytes());
    t.extend_from_slice(&(!key).to_be_bytes());
    t
}

fn key_bytes(key: u64) -> Vec<u8> {
    key.to_be_bytes().to_vec()
}

fn be_u64(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(bytes.try_into().ok()?))
}

/// Checks a row read back at any generation: right width, key field
/// equal to `key`, value hash and filler consistent with it.
pub fn check_row(seed: u64, key: u64, t: &[u8]) -> Result<(), String> {
    if t.len() != TUPLE_WIDTH {
        return Err(format!("row {key}: width {} != {TUPLE_WIDTH}", t.len()));
    }
    let (k, v, f) = (be_u64(&t[..8]), be_u64(&t[8..16]), be_u64(&t[16..]));
    if k != Some(key) || f != Some(!key) {
        return Err(format!("row {key}: key or filler field is wrong"));
    }
    match v {
        Some(v) if v & LOW40 == value_of(seed, key, 0) & LOW40 => Ok(()),
        _ => Err(format!("row {key}: value field does not belong to the key")),
    }
}

/// What a correct response to one request looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `GetMany` of these keys, none ever updated: exact tuples.
    Tuples(Vec<u64>),
    /// `ProjectMany` of these keys, none ever updated: exact values.
    Projections(Vec<u64>),
    /// `UpdateMany` of this many existing keys: all applied.
    Updated(usize),
    /// `PutMany` of this many fresh keys: one record id each.
    Put(usize),
    /// A `Range` page from this key upwards.
    Range(u64),
}

/// One generated request and its expected answer.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The request to send.
    pub op: RequestOp,
    /// What it must return.
    pub expect: Expect,
}

/// A seeded, deterministic request stream for one workload.
pub struct OpStream {
    workload: Workload,
    seed: u64,
    rows: u64,
    stream: u64,
    rng: SmallRng,
    zipf: ScrambledZipf,
    fresh: u64,
    gen: u64,
}

impl OpStream {
    /// Stream number `stream` (below [`STREAMS`]) of `workload` over a
    /// table of `rows` rows. Streams share the Zipf permutation, so they
    /// agree on which keys are hot.
    pub fn new(workload: Workload, seed: u64, rows: u64, stream: u64) -> OpStream {
        assert!(stream < STREAMS, "stream {stream} out of range");
        let rng = SmallRng::seed_from_u64(seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let zipf = ScrambledZipf::new(rows, ZIPF_ALPHA, seed);
        OpStream { workload, seed, rows, stream, rng, zipf, fresh: 0, gen: 0 }
    }

    fn uniform(&mut self) -> u64 {
        self.rng.gen_range(0..self.rows)
    }

    /// `KEYS_PER_OP` distinct Zipf keys (write batches reject repeats).
    fn distinct_zipf(&mut self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(KEYS_PER_OP);
        while keys.len() < KEYS_PER_OP {
            let k = self.zipf.sample(&mut self.rng);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys
    }

    /// The next request of the stream.
    pub fn next_op(&mut self) -> Planned {
        let (table, index) = (TABLE.to_string(), INDEX.to_string());
        match self.workload {
            Workload::HotGet => {
                let keys: Vec<u64> = (0..KEYS_PER_OP).map(|_| self.uniform()).collect();
                let op = RequestOp::GetMany {
                    table,
                    index,
                    keys: keys.iter().map(|&k| key_bytes(k)).collect(),
                };
                Planned { op, expect: Expect::Tuples(keys) }
            }
            Workload::ColdProject => {
                let keys: Vec<u64> =
                    (0..KEYS_PER_OP).map(|_| self.zipf.sample(&mut self.rng)).collect();
                let op = RequestOp::ProjectMany {
                    table,
                    index,
                    keys: keys.iter().map(|&k| key_bytes(k)).collect(),
                };
                Planned { op, expect: Expect::Projections(keys) }
            }
            Workload::WriteMix => match self.rng.gen_range(0..4u32) {
                0 | 1 => {
                    self.gen = self.gen % GEN_MASK + 1;
                    let pairs = self
                        .distinct_zipf()
                        .into_iter()
                        .map(|k| (key_bytes(k), tuple(self.seed, k, self.gen)))
                        .collect();
                    let op = RequestOp::UpdateMany { table, index, pairs };
                    Planned { op, expect: Expect::Updated(KEYS_PER_OP) }
                }
                2 => {
                    let tuples = (0..KEYS_PER_OP)
                        .map(|_| {
                            let k = self.rows + self.fresh * STREAMS + self.stream;
                            self.fresh += 1;
                            tuple(self.seed, k, 0)
                        })
                        .collect();
                    let op = RequestOp::PutMany { table, index, tuples };
                    Planned { op, expect: Expect::Put(KEYS_PER_OP) }
                }
                _ => {
                    let start = self.uniform();
                    let op = RequestOp::Range {
                        table,
                        index,
                        lo: WireBound::Included(key_bytes(start)),
                        hi: WireBound::Unbounded,
                        limit: RANGE_LIMIT,
                    };
                    Planned { op, expect: Expect::Range(start) }
                }
            },
        }
    }
}

/// Checks `body` against `expect`; the error names the first mismatch.
pub fn check(seed: u64, expect: &Expect, body: &ResponseBody) -> Result<(), String> {
    match (expect, body) {
        (_, ResponseBody::Error { message }) => Err(format!("server error: {message}")),
        (Expect::Tuples(keys), ResponseBody::GetMany { rows }) => {
            if rows.len() != keys.len() {
                return Err(format!("get_many: {} rows for {} keys", rows.len(), keys.len()));
            }
            for (&k, row) in keys.iter().zip(rows) {
                if row.as_deref() != Some(&tuple(seed, k, 0)[..]) {
                    return Err(format!("get_many: key {k} answered {row:?}"));
                }
            }
            Ok(())
        }
        (Expect::Projections(keys), ResponseBody::ProjectMany { rows }) => {
            if rows.len() != keys.len() {
                return Err(format!("project_many: {} rows for {} keys", rows.len(), keys.len()));
            }
            for (&k, row) in keys.iter().zip(rows) {
                let want = value_of(seed, k, 0).to_be_bytes();
                if row.as_ref().map(|p| &p.payload[..]) != Some(&want[..]) {
                    return Err(format!("project_many: key {k} answered {row:?}"));
                }
            }
            Ok(())
        }
        (Expect::Updated(n), ResponseBody::UpdateMany { applied }) => {
            if applied.len() == *n && applied.iter().all(|&a| a) {
                Ok(())
            } else {
                Err(format!("update_many: applied {applied:?}, want {n} × true"))
            }
        }
        (Expect::Put(n), ResponseBody::PutMany { rids }) => {
            if rids.len() == *n {
                Ok(())
            } else {
                Err(format!("put_many: {} record ids for {n} tuples", rids.len()))
            }
        }
        (Expect::Range(start), ResponseBody::Range { rows, more, resume }) => {
            check_range(seed, *start, rows, *more, resume.as_deref())
        }
        (want, got) => Err(format!("expected a response for {want:?}, got {got:?}")),
    }
}

fn check_range(
    seed: u64,
    start: u64,
    rows: &[(Vec<u8>, Vec<u8>)],
    more: bool,
    resume: Option<&[u8]>,
) -> Result<(), String> {
    if rows.len() > RANGE_LIMIT as usize {
        return Err(format!("range: {} rows over the limit {RANGE_LIMIT}", rows.len()));
    }
    if more && rows.len() < RANGE_LIMIT as usize {
        return Err(format!("range: short page of {} rows claims more", rows.len()));
    }
    let mut prev: Option<u64> = None;
    for (k, t) in rows {
        let key = be_u64(k).ok_or_else(|| format!("range: key of {} bytes", k.len()))?;
        if key < start || prev.is_some_and(|p| p >= key) {
            return Err(format!("range from {start}: key {key} out of order or bounds"));
        }
        check_row(seed, key, t)?;
        prev = Some(key);
    }
    if resume != rows.last().map(|(k, _)| &k[..]) {
        return Err("range: resume key is not the page's last key".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(w: Workload, seed: u64, stream: u64, n: usize) -> Vec<RequestOp> {
        let mut s = OpStream::new(w, seed, 10_000, stream);
        (0..n).map(|_| s.next_op().op).collect()
    }

    #[test]
    fn every_generator_is_seed_deterministic() {
        for w in Workload::ALL {
            assert_eq!(take(w, 7, 0, 300), take(w, 7, 0, 300), "{}", w.name());
            assert_ne!(take(w, 7, 0, 300), take(w, 8, 0, 300), "{}", w.name());
            assert_ne!(take(w, 7, 0, 300), take(w, 7, 1, 300), "{}", w.name());
        }
        assert_eq!(value_of(3, 99, 0), value_of(3, 99, 0));
        assert_ne!(value_of(3, 99, 0), value_of(4, 99, 0));
    }

    #[test]
    fn write_batches_draw_distinct_keys() {
        let mut s = OpStream::new(Workload::WriteMix, 1, 50, 0);
        let (mut updates, mut puts) = (0, 0);
        for _ in 0..2_000 {
            let keys: Vec<Vec<u8>> = match s.next_op().op {
                RequestOp::UpdateMany { pairs, .. } => {
                    updates += 1;
                    pairs.into_iter().map(|(k, _)| k).collect()
                }
                RequestOp::PutMany { tuples, .. } => {
                    puts += 1;
                    tuples.into_iter().map(|t| t[..8].to_vec()).collect()
                }
                _ => continue,
            };
            let mut dedup = keys.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), keys.len(), "repeated key in one write batch");
        }
        assert!(updates > 800 && puts > 400, "mix off: {updates} updates, {puts} puts");
    }

    #[test]
    fn fresh_put_keys_never_collide_across_streams() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..STREAMS {
            let mut s = OpStream::new(Workload::WriteMix, 5, 100, stream);
            for _ in 0..500 {
                if let RequestOp::PutMany { tuples, .. } = s.next_op().op {
                    for t in tuples {
                        let k = be_u64(&t[..8]).unwrap();
                        assert!(k >= 100, "put key {k} collides with a loaded row");
                        assert!(seen.insert(k), "put key {k} drawn twice");
                    }
                }
            }
        }
    }

    #[test]
    fn checker_accepts_right_answers_and_names_wrong_ones() {
        let seed = 11;
        let ok = ResponseBody::GetMany { rows: vec![Some(tuple(seed, 4, 0))] };
        assert!(check(seed, &Expect::Tuples(vec![4]), &ok).is_ok());
        let wrong = ResponseBody::GetMany { rows: vec![Some(tuple(seed, 5, 0))] };
        assert!(check(seed, &Expect::Tuples(vec![4]), &wrong).is_err());
        let missing = ResponseBody::GetMany { rows: vec![None] };
        assert!(check(seed, &Expect::Tuples(vec![4]), &missing).is_err());
        let err = ResponseBody::Error { message: "boom".into() };
        assert!(check(seed, &Expect::Put(4), &err).is_err());
        let upd = ResponseBody::UpdateMany { applied: vec![true, false] };
        assert!(check(seed, &Expect::Updated(2), &upd).is_err());
        let mismatch = ResponseBody::PutMany { rids: vec![1, 2] };
        assert!(check(seed, &Expect::Updated(2), &mismatch).is_err());
    }

    #[test]
    fn range_checker_enforces_order_bounds_and_limit() {
        let seed = 2;
        let row = |k: u64, gen: u64| (key_bytes(k), tuple(seed, k, gen));
        let page = |rows: Vec<(Vec<u8>, Vec<u8>)>, more: bool| {
            let resume = rows.last().map(|(k, _)| k.clone());
            ResponseBody::Range { rows, more, resume }
        };
        // Updated rows (any generation) are fine.
        let good = page(vec![row(10, 0), row(11, 7), row(15, 0)], false);
        assert!(check(seed, &Expect::Range(10), &good).is_ok());
        let unsorted = page(vec![row(11, 0), row(10, 0)], false);
        assert!(check(seed, &Expect::Range(10), &unsorted).is_err());
        let below = page(vec![row(9, 0)], false);
        assert!(check(seed, &Expect::Range(10), &below).is_err());
        let long = page((10..10 + RANGE_LIMIT as u64 + 1).map(|k| row(k, 0)).collect(), true);
        assert!(check(seed, &Expect::Range(10), &long).is_err());
        let short_more = page(vec![row(10, 0)], true);
        assert!(check(seed, &Expect::Range(10), &short_more).is_err());
        let mut torn = tuple(seed, 12, 0);
        torn[20] ^= 1;
        assert!(check(seed, &Expect::Range(10), &page(vec![(key_bytes(12), torn)], false)).is_err());
    }
}
