//! The closed-loop wire load and the in-process replay.
//!
//! [`drive`] runs [`CONNS`] generator threads, each with one pipelined
//! connection kept [`DEPTH`] requests deep: once the window is full it
//! redeems the oldest request before submitting the next. A request's
//! latency runs from `Client::submit` until `Client::redeem` returns.
//! Every response is checked against the model; a failure is counted,
//! never panicked on.

use crate::host::CpuTicks;
use crate::model::{self, Expect, OpStream, INDEX, TABLE};
use crate::stats;
use nbb_client::{Client, ClientConfig, Ticket};
use nbb_core::Database;
use nbb_proto::{RequestOp, ResponseBody, WireBound, WireProjection};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::ops::Bound;
use std::time::{Duration, Instant};

/// Client connections, one generator thread each.
pub const CONNS: usize = 2;
/// Requests kept in flight per connection.
pub const DEPTH: usize = 8;
/// Host steal (percent of CPU ticks) a window may show and still count
/// as calm; one 10 ms tick on two CPUs in a 0.25 s window is 2%.
pub const CALM_STEAL_PCT: f64 = 2.0;

/// Per-request timings of the traced run, measured around the calls
/// into the client and the codec.
#[derive(Debug, Default)]
pub struct Spans {
    /// Time inside `Client::submit`, µs.
    pub submit_us: Vec<f64>,
    /// Time blocked in `Client::redeem`, µs.
    pub redeem_wait_us: Vec<f64>,
    /// Encoded request frame sizes, bytes.
    pub req_bytes: Vec<f64>,
    /// Encoded response frame sizes, bytes.
    pub resp_bytes: Vec<f64>,
    /// `encode_request` time per request sent, ns.
    pub encode_ns: Vec<f64>,
    /// `decode_response` time per response received, ns.
    pub decode_ns: Vec<f64>,
}

impl Spans {
    fn absorb(&mut self, other: Spans) {
        self.submit_us.extend(other.submit_us);
        self.redeem_wait_us.extend(other.redeem_wait_us);
        self.req_bytes.extend(other.req_bytes);
        self.resp_bytes.extend(other.resp_bytes);
        self.encode_ns.extend(other.encode_ns);
        self.decode_ns.extend(other.decode_ns);
    }
}

/// Requests checked and failed, with the first failure's reason.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent (or replayed).
    pub attempted: u64,
    /// Requests that errored, got an `Error` body, or a wrong answer.
    pub failed: u64,
    /// Why the first failure failed.
    pub first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    /// Adds `other`'s counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// One measured phase of wire load.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latencies (µs) of the requests that completed in each window.
    pub windows: Vec<Vec<f64>>,
    /// Host steal (percent of CPU ticks) during each window.
    pub steal: Vec<f64>,
    /// Length of one window, seconds.
    pub window_s: f64,
    /// Counts and failures.
    pub tally: Tally,
    /// Fresh rows acknowledged by puts.
    pub rows_put: u64,
    /// Traced spans, when the phase was traced.
    pub spans: Spans,
}

impl Phase {
    /// Appends `other`'s windows, counts and spans (same window length).
    pub fn absorb(&mut self, other: Phase) {
        self.windows.extend(other.windows);
        self.steal.extend(other.steal);
        self.tally.absorb(other.tally);
        self.rows_put += other.rows_put;
        self.spans.absorb(other.spans);
    }

    /// The windows the metrics are read from: those whose host steal is
    /// at most the larger of [`CALM_STEAL_PCT`] and the median window's
    /// steal. That is every window of a calm run, and the calmer half
    /// of a run the hypervisor kept interrupting, so time the host took
    /// away is not charged to the program.
    pub fn calm_windows(&self) -> Vec<&Vec<f64>> {
        let cutoff = stats::median(&self.steal).unwrap_or(0.0).max(CALM_STEAL_PCT);
        self.windows
            .iter()
            .zip(&self.steal)
            .filter(|&(_, &s)| s <= cutoff)
            .map(|(w, _)| w)
            .collect()
    }

    /// Median over calm windows of completed requests per second.
    pub fn throughput_rps(&self) -> f64 {
        let per: Vec<f64> =
            self.calm_windows().iter().map(|w| w.len() as f64 / self.window_s).collect();
        stats::median(&per).unwrap_or(0.0)
    }

    /// Median over calm windows of each window's `q`-percentile latency,
    /// and the smallest sample count behind one of them. Windows too
    /// thin for `q` are left out; `None` when every window is.
    pub fn latency_us(&self, q: f64) -> Option<(f64, usize)> {
        let per: Vec<(f64, usize)> = self
            .calm_windows()
            .into_iter()
            .filter_map(|w| Some((stats::percentile(&stats::sorted(w.clone()), q)?, w.len())))
            .collect();
        let values: Vec<f64> = per.iter().map(|&(v, _)| v).collect();
        Some((stats::median(&values)?, per.iter().map(|&(_, n)| n).min()?))
    }
}

/// What one generator thread brings back.
struct ThreadOut {
    windows: Vec<Vec<f64>>,
    /// `(window, ticks)` at the first loop turn in each window, then at
    /// the end (window index `windows`).
    marks: Vec<(usize, CpuTicks)>,
    tally: Tally,
    rows_put: u64,
    spans: Spans,
}

/// Runs the closed loop against `addr` for `seconds`, split into
/// `windows` equal windows, drawing connection `i`'s requests from
/// `streams[i]`. Each connection stops early after sending `limit`
/// requests. `traced` adds the client and codec spans.
pub fn drive(
    addr: SocketAddr,
    streams: &mut [OpStream],
    seed: u64,
    seconds: f64,
    windows: usize,
    limit: u64,
    traced: bool,
) -> Phase {
    let window_s = seconds / windows as f64;
    let plan = Plan { addr, seed, start: Instant::now(), window_s, windows, limit, traced };
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> =
            streams.iter_mut().map(|stream| s.spawn(move || generator(plan, stream))).collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let steal = window_steal(&outs[0].marks, windows);
    let mut phase =
        Phase { windows: vec![Vec::new(); windows], steal, window_s, ..Phase::default() };
    for out in outs {
        for (all, mine) in phase.windows.iter_mut().zip(out.windows) {
            all.extend(mine);
        }
        phase.tally.absorb(out.tally);
        phase.rows_put += out.rows_put;
        phase.spans.absorb(out.spans);
    }
    phase
}

/// One [`drive`] call's settings, shared by its generator threads.
#[derive(Clone, Copy)]
struct Plan {
    addr: SocketAddr,
    seed: u64,
    start: Instant,
    window_s: f64,
    windows: usize,
    limit: u64,
    traced: bool,
}

fn generator(plan: Plan, stream: &mut OpStream) -> ThreadOut {
    let Plan { addr, start, window_s, windows, limit, traced, .. } = plan;
    let mut out = ThreadOut {
        windows: vec![Vec::new(); windows],
        marks: Vec::new(),
        tally: Tally::default(),
        rows_put: 0,
        spans: Spans::default(),
    };
    let client =
        match Client::connect(addr, ClientConfig { depth: DEPTH, ..ClientConfig::default() }) {
            Ok(c) => c,
            Err(e) => {
                out.tally.attempted += 1;
                out.tally.fail(format!("connect: {e}"));
                return out;
            }
        };
    let deadline = start + Duration::from_secs_f64(window_s * windows as f64);
    let mut window: VecDeque<(Ticket, Instant, Expect)> = VecDeque::with_capacity(DEPTH);
    loop {
        let now = Instant::now();
        if out.tally.attempted >= limit || now >= deadline {
            break;
        }
        let w = ((now - start).as_secs_f64() / window_s) as usize;
        if out.marks.last().is_none_or(|&(last, _)| w > last) {
            out.marks.push((w, CpuTicks::now()));
        }
        let planned = stream.next_op();
        if traced {
            let req = nbb_proto::Request { id: 0, op: planned.op.clone() };
            let t = Instant::now();
            let frame = nbb_proto::encode_request(&req);
            out.spans.encode_ns.push(t.elapsed().as_nanos() as f64);
            out.spans.req_bytes.push(frame.len() as f64);
        }
        out.tally.attempted += 1;
        let sent = Instant::now();
        match client.submit(planned.op) {
            Ok(ticket) => {
                if traced {
                    out.spans.submit_us.push(us(sent.elapsed()));
                }
                window.push_back((ticket, sent, planned.expect));
            }
            Err(e) => {
                // The connection is gone; stop sending on it.
                out.tally.fail(format!("submit: {e}"));
                break;
            }
        }
        if window.len() >= DEPTH {
            let oldest = window.pop_front().expect("window is full");
            redeem(&client, oldest, plan, &mut out);
        }
    }
    out.marks.push((windows, CpuTicks::now()));
    while let Some(oldest) = window.pop_front() {
        redeem(&client, oldest, plan, &mut out);
    }
    out
}

/// Steal percent of each of `windows` windows from ascending marks. A
/// window without a mark of its own (a stall spanned it) takes the
/// steal of the whole span around it.
fn window_steal(marks: &[(usize, CpuTicks)], windows: usize) -> Vec<f64> {
    (0..windows)
        .map(|w| {
            let from = marks.iter().rev().find(|&&(i, _)| i <= w);
            let to = marks.iter().find(|&&(i, _)| i > w);
            match (from, to) {
                (Some((_, a)), Some((_, b))) => b.steal_pct_since(a),
                _ => 0.0,
            }
        })
        .collect()
}

fn redeem(
    client: &Client,
    (ticket, sent, expect): (Ticket, Instant, Expect),
    Plan { seed, start, window_s, traced, .. }: Plan,
    out: &mut ThreadOut,
) {
    let wait = Instant::now();
    let result = client.redeem(ticket);
    let done = Instant::now();
    let body = match result {
        Ok(body) => body,
        Err(e) => return out.tally.fail(format!("redeem: {e}")),
    };
    if traced {
        out.spans.redeem_wait_us.push(us(done - wait));
        let frame = nbb_proto::encode_response(&nbb_proto::Response { id: 0, body: body.clone() });
        let t = Instant::now();
        let decoded = nbb_proto::decode_response(&frame[4..]);
        out.spans.decode_ns.push(t.elapsed().as_nanos() as f64);
        out.spans.resp_bytes.push(frame.len() as f64);
        if decoded.map(|r| r.body).as_ref() != Ok(&body) {
            return out.tally.fail("response does not survive a codec round trip".to_string());
        }
    }
    if let Err(why) = model::check(seed, &expect, &body) {
        return out.tally.fail(why);
    }
    if let Expect::Put(n) = expect {
        out.rows_put += n as u64;
    }
    // Only requests completed inside the measured span land in a window.
    let w = ((done - start).as_secs_f64() / window_s) as usize;
    if let Some(slot) = out.windows.get_mut(w) {
        slot.push(us(done - sent));
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// In-process timings of a replayed sample of the request stream.
#[derive(Debug, Default)]
pub struct Replay {
    /// Latency (µs) per engine call, keyed by call name: `get_many`,
    /// `project_many`, `update_many`, `put_many`, `range_page`.
    pub by_op: Vec<(&'static str, Vec<f64>)>,
    /// `BTree::lookup_cached_many` latency (µs) on the keys of every
    /// replayed keyed read or update.
    pub lookup_us: Vec<f64>,
    /// Counts and failures.
    pub tally: Tally,
}

impl Replay {
    /// Every replayed call's latency, pooled (the request mix).
    pub fn all_us(&self) -> Vec<f64> {
        self.by_op.iter().flat_map(|(_, v)| v.iter().copied()).collect()
    }

    /// Latencies of one call kind (empty when the mix has none).
    pub fn op_us(&self, op: &str) -> &[f64] {
        self.by_op.iter().find(|(n, _)| *n == op).map_or(&[], |(_, v)| v)
    }

    fn record(&mut self, op: &'static str, us: f64) {
        match self.by_op.iter_mut().find(|(n, _)| *n == op) {
            Some((_, v)) => v.push(us),
            None => self.by_op.push((op, vec![us])),
        }
    }
}

/// Replays up to `max_ops` requests of `stream` (for at most
/// `max_seconds`) straight through `IndexRef` on `db`, checking each
/// answer exactly as the wire run does.
pub fn replay(
    db: &Database,
    stream: &mut OpStream,
    seed: u64,
    max_ops: usize,
    max_seconds: f64,
) -> Replay {
    let mut r = Replay::default();
    let table = match db.table(TABLE) {
        Ok(t) => t,
        Err(e) => {
            r.tally.attempted += 1;
            r.tally.fail(format!("open table: {e}"));
            return r;
        }
    };
    let (idx, handle) = match (table.index(INDEX), table.index_tree(INDEX)) {
        (Ok(i), Ok(h)) => (i, h),
        (Err(e), _) | (_, Err(e)) => {
            r.tally.attempted += 1;
            r.tally.fail(format!("open index: {e}"));
            return r;
        }
    };
    let stop = Instant::now() + Duration::from_secs_f64(max_seconds);
    for _ in 0..max_ops {
        if Instant::now() >= stop {
            break;
        }
        let planned = stream.next_op();
        r.tally.attempted += 1;
        let t = Instant::now();
        let Some((name, keys, result)) = execute(&idx, planned.op) else {
            r.tally.fail("the replay sends only the generators' ops".to_string());
            continue;
        };
        r.record(name, us(t.elapsed()));
        match result {
            Ok(body) => {
                if let Err(why) = model::check(seed, &planned.expect, &body) {
                    r.tally.fail(why);
                }
            }
            Err(e) => r.tally.fail(format!("{name}: {e}")),
        }
        if !keys.is_empty() {
            let t = Instant::now();
            match handle.tree().lookup_cached_many(&keys) {
                Ok(_) => r.lookup_us.push(us(t.elapsed())),
                Err(e) => r.tally.fail(format!("lookup_cached_many: {e}")),
            }
        }
    }
    r
}

/// The engine-call name of a request, its keys (empty for puts and
/// ranges) and its answer in wire form, computed straight through
/// `IndexRef`; `None` for an op the generators never produce.
type Executed = (&'static str, Vec<Vec<u8>>, nbb_storage::Result<ResponseBody>);

fn execute(idx: &nbb_core::IndexRef<'_>, op: RequestOp) -> Option<Executed> {
    Some(match op {
        RequestOp::GetMany { keys, .. } => {
            let res = idx.get_many(&keys).map(|rows| ResponseBody::GetMany { rows });
            ("get_many", keys, res)
        }
        RequestOp::ProjectMany { keys, .. } => {
            let res = idx.project_many(&keys).map(|rows| ResponseBody::ProjectMany {
                rows: rows
                    .into_iter()
                    .map(|p| {
                        p.map(|p| WireProjection { payload: p.payload, index_only: p.index_only })
                    })
                    .collect(),
            });
            ("project_many", keys, res)
        }
        RequestOp::UpdateMany { pairs, .. } => {
            let res = idx.update_many(&pairs).map(|applied| ResponseBody::UpdateMany { applied });
            ("update_many", pairs.into_iter().map(|(k, _)| k).collect(), res)
        }
        RequestOp::PutMany { tuples, .. } => {
            let res = idx.put_many(&tuples).map(|rids| ResponseBody::PutMany {
                rids: rids.into_iter().map(|r| r.to_u64()).collect(),
            });
            ("put_many", Vec::new(), res)
        }
        RequestOp::Range { lo, limit, .. } => {
            let lo = match lo {
                WireBound::Included(k) => Bound::Included(k),
                WireBound::Excluded(k) => Bound::Excluded(k),
                WireBound::Unbounded => Bound::Unbounded,
            };
            ("range_page", Vec::new(), range_page(idx, lo, limit as usize))
        }
        _ => return None,
    })
}

/// One range page, paged exactly as the server pages it: up to
/// `limit` rows, then a one-row probe for `more`.
fn range_page(
    idx: &nbb_core::IndexRef<'_>,
    lo: Bound<Vec<u8>>,
    limit: usize,
) -> nbb_storage::Result<ResponseBody> {
    let mut cursor = idx.range::<Vec<u8>, _>((lo, Bound::Unbounded));
    let mut rows = Vec::with_capacity(limit);
    while rows.len() < limit {
        match cursor.next() {
            Some(row) => {
                let row = row?;
                rows.push((row.key, row.tuple));
            }
            None => break,
        }
    }
    let more = rows.len() == limit && cursor.next().is_some();
    let resume = rows.last().map(|(k, _)| k.clone());
    Ok(ResponseBody::Range { rows, more, resume })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, Regime, Sizing};
    use crate::model::Workload;

    #[test]
    fn window_percentiles_skip_thin_windows() {
        let full: Vec<f64> = (1..=30).map(f64::from).collect();
        let phase = Phase {
            windows: vec![full.clone(), vec![1.0; 5], full.iter().map(|v| v * 2.0).collect()],
            steal: vec![0.0; 3],
            window_s: 1.0,
            ..Phase::default()
        };
        // The 5-sample window cannot carry a p50; the other two can.
        assert_eq!(phase.latency_us(0.5), Some((22.5, 30)));
        assert_eq!(phase.latency_us(0.99), None);
        assert_eq!(phase.throughput_rps(), 30.0);
    }

    #[test]
    fn stolen_windows_are_left_out() {
        let w = |n: usize| vec![100.0; n];
        let phase = Phase {
            windows: vec![w(40), w(30), w(10), w(20), w(50)],
            steal: vec![0.0, 2.0, 30.0, 12.0, 0.0],
            window_s: 1.0,
            ..Phase::default()
        };
        // Median steal 2%: the 30% and 12% windows are dropped.
        let calm: Vec<usize> = phase.calm_windows().iter().map(|v| v.len()).collect();
        assert_eq!(calm, vec![40, 30, 50]);
        assert_eq!(phase.throughput_rps(), 40.0);
        // A run stolen throughout keeps its calmer half.
        let stormy = Phase { steal: vec![20.0, 10.0, 40.0, 15.0, 30.0], ..phase };
        let calm: Vec<usize> = stormy.calm_windows().iter().map(|v| v.len()).collect();
        assert_eq!(calm, vec![40, 30, 20]);
    }

    #[test]
    fn window_steal_spans_unmarked_windows() {
        let t = |total, steal| CpuTicks { total, steal };
        // Window 1 saw no loop turn; it shares the 0..2 span's steal.
        let marks = [(0, t(0, 0)), (2, t(100, 10)), (3, t(150, 10))];
        assert_eq!(window_steal(&marks, 3), vec![10.0, 10.0, 0.0]);
        assert_eq!(window_steal(&[], 2), vec![0.0, 0.0]);
    }

    /// The same request stream against a plain build and a build behind
    /// timing disks gets byte-identical answers, in every device regime.
    #[test]
    fn timing_disks_change_no_answers() {
        let files = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../.bench_build/wirebench-test-{}", std::process::id()));
        let seed = 9;
        for (w, regime) in [
            (Workload::HotGet, Regime::Memory),
            (Workload::ColdProject, Regime::Modeled),
            (Workload::WriteMix, Regime::File),
        ] {
            // A pool far smaller than the table, so reads and dirty
            // evictions really reach the disks.
            let sizing = Sizing { rows: 20_000, heap_frames: 16, index_frames: 64, regime };
            let plain = engine::build(w, sizing, seed, false, &files).unwrap();
            let timed = engine::build(w, sizing, seed, true, &files).unwrap();
            let answers = |e: &engine::Engine| {
                let table = e.db.table(TABLE).unwrap();
                let idx = table.index(INDEX).unwrap();
                let mut stream = OpStream::new(w, seed, sizing.rows, 0);
                (0..300)
                    .map(|_| {
                        let planned = stream.next_op();
                        let body = execute(&idx, planned.op).unwrap().2.unwrap();
                        model::check(seed, &planned.expect, &body).unwrap();
                        body
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(answers(&plain), answers(&timed), "{}", w.name());
            let (heap, _) = timed.timing.as_ref().unwrap();
            let t = heap.times();
            assert!(t.read_pages > 0 && t.write_pages > 0, "{}: disks untouched: {t:?}", w.name());
            assert_eq!(plain.heap_disk.num_pages(), timed.heap_disk.num_pages());
            assert_eq!(plain.index_disk.num_pages(), timed.index_disk.num_pages());
        }
        let _ = std::fs::remove_dir_all(&files);
    }
}
