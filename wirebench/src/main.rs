//! `wirebench`: drives the engine the way its users do, over the wire
//! (`nbb-client` → `nbb-proto` → `nbb-server` → `nbb-core` →
//! `nbb-btree` → `nbb-storage`), all in one process, and prints its
//! metrics. See `README.md` in this directory for the workloads and
//! the metric map.
//!
//! ```text
//! wirebench --workload <hot-get|cold-project|write-mix|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod engine;
mod host;
mod load;
mod model;
mod stats;
mod timing_disk;

use engine::{Engine, Sizing};
use load::{Phase, Tally, CONNS};
use model::{OpStream, Workload, INDEX, TABLE};
use nbb_btree::{CacheStats, WriteStats};
use nbb_core::TableStats;
use nbb_proto::WireServerStats;
use nbb_server::{Server, ServerConfig};
use nbb_storage::PoolStats;
use stats::Metric;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use timing_disk::DiskTimes;

/// The end-to-end metrics, in report order, with their units.
/// `ok_rate` is `1 - error_rate`: a metric that is 0 on a clean run
/// cannot carry a relative bound.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("ok_rate", "ratio"),
    ("space_amp", "ratio"),
    ("rss_mb", "MiB"),
];
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Unmeasured requests per connection before the first measured
/// session, so pools and leaf caches settle. A count, not a time, so
/// every run starts measuring from the same cache state however fast
/// the host is; the time cap only bounds a pathologically slow run.
const WARMUP_REQUESTS: u64 = 50_000;
const WARMUP_MAX_S: f64 = 10.0;
/// Measured sessions per run; see [`serve`].
const SESSIONS: usize = 10;
/// Unmeasured load at the start of each later session, while its
/// connections ramp up.
const RAMP_S: f64 = 0.25;
/// Length of the windows the measured phase is cut into; throughput and
/// latency percentiles are medians over windows.
const WINDOW_S: f64 = 0.25;
/// Requests replayed in-process by the traced run (and a time cap).
const REPLAY_OPS: usize = 2_000;
const REPLAY_MAX_S: f64 = 3.0;
/// The replay's request stream (the connections use `0..CONNS`).
const REPLAY_STREAM: u64 = CONNS as u64;
/// Where file-disk workloads keep their pages, under the working
/// directory.
const FILES_DIR: &str = ".bench_build/wirebench-files";

const USAGE: &str = "usage: wirebench --workload <hot-get|cold-project|write-mix|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut all = Vec::new();
    for &w in &args.workloads {
        let run = if args.trace {
            traced_run(w, args.seed, args.seconds as f64)
        } else {
            end_to_end_run(w, args.seed, args.seconds as f64)
        };
        let (t, metrics) = match run {
            Ok(r) => r,
            Err(e) => {
                eprintln!("wirebench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        for m in &metrics {
            println!("{:<13} {:<34} {:>14.4} {}", w.name(), m.name, m.value, m.unit);
        }
        if let Some(why) = &t.first_error {
            println!("{:<13} first failure: {why}", w.name());
        }
        let prefix = |m: Metric| Metric { name: format!("{}.{}", w.name(), m.name), ..m };
        all.extend(
            metrics.into_iter().map(|m| if args.workloads.len() > 1 { prefix(m) } else { m }),
        );
        tally.absorb(t);
    }
    match stats::result_json(tally.failed == 0, tally.attempted.max(1), tally.failed, &all) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Engine, pool, tree and disk counters at one instant.
struct Counters {
    heap: PoolStats,
    index: PoolStats,
    table: TableStats,
    cache: CacheStats,
    writes: WriteStats,
    disks: Option<(DiskTimes, DiskTimes)>,
}

impl Counters {
    fn snap(e: &Engine) -> Result<Counters, String> {
        let table = e.db.table(TABLE).map_err(|x| x.to_string())?;
        let handle = table.index_tree(INDEX).map_err(|x| x.to_string())?;
        let (heap, index) = e.db.pool_stats();
        Ok(Counters {
            heap,
            index,
            table: table.stats(),
            cache: handle.tree().cache_stats(),
            writes: handle.tree().write_stats(),
            disks: e.timing.as_ref().map(|(h, i)| (h.times(), i.times())),
        })
    }
}

/// The measured sessions of one run, merged.
struct Served {
    /// Every session's measured windows and spans.
    meas: Phase,
    /// Every request sent, warm-up included.
    tally: Tally,
    /// Requests sent between `before` and `after` (measured phases plus
    /// the ramps of later sessions).
    between: u64,
    rows_put: u64,
    steal_pct: f64,
    before: Counters,
    after: Counters,
    /// Server counters over the same span.
    queue_full_parks: u64,
    wire_bytes: u64,
}

/// Serves `seconds` of measured load in [`SESSIONS`] sessions, each with
/// a fresh server and fresh connections (so threads are placed anew),
/// after one warm-up.
fn serve(
    e: &Engine,
    w: Workload,
    seed: u64,
    rows: u64,
    seconds: f64,
    traced: bool,
) -> Result<Served, String> {
    let mut streams: Vec<OpStream> =
        (0..CONNS as u64).map(|c| OpStream::new(w, seed, rows, c)).collect();
    let per_session = seconds / SESSIONS as f64;
    let windows = ((per_session / WINDOW_S).round() as usize).max(1);
    let mut meas = Phase { window_s: per_session / windows as f64, ..Phase::default() };
    let (mut tally, mut between, mut rows_put) = (Tally::default(), 0, 0);
    let (mut queue_full_parks, mut wire_bytes) = (0, 0);
    let mut before = None;
    let mut ticks = host::CpuTicks::default();
    for session in 0..SESSIONS {
        let server = Server::start(Arc::clone(&e.db), ServerConfig::default())
            .map_err(|x| format!("start server: {x}"))?;
        let addr = server.local_addr();
        let (warm_s, warm_limit) =
            if session == 0 { (WARMUP_MAX_S, WARMUP_REQUESTS) } else { (RAMP_S, u64::MAX) };
        let warm = load::drive(addr, &mut streams, seed, warm_s, 1, warm_limit, traced);
        // The counter span starts after the first warm-up, so the ramps
        // of later sessions fall inside it.
        let base = if session == 0 {
            before = Some(Counters::snap(e)?);
            ticks = host::CpuTicks::now();
            server.stats()
        } else {
            between += warm.tally.attempted;
            WireServerStats::default()
        };
        let phase = load::drive(addr, &mut streams, seed, per_session, windows, u64::MAX, traced);
        let end = server.stats();
        server.shutdown();
        queue_full_parks += end.queue_full_parks - base.queue_full_parks;
        wire_bytes += (end.bytes_in + end.bytes_out) - (base.bytes_in + base.bytes_out);
        between += phase.tally.attempted;
        rows_put += warm.rows_put + phase.rows_put;
        tally.absorb(warm.tally);
        tally.absorb(phase.tally.clone());
        meas.absorb(phase);
    }
    let steal_pct = host::CpuTicks::now().steal_pct_since(&ticks);
    let after = Counters::snap(e)?;
    let before = before.expect("at least one session");
    Ok(Served {
        meas,
        tally,
        between,
        rows_put,
        steal_pct,
        before,
        after,
        queue_full_parks,
        wire_bytes,
    })
}

/// The untraced run: end-to-end metrics only.
fn end_to_end_run(w: Workload, seed: u64, seconds: f64) -> Result<(Tally, Vec<Metric>), String> {
    let sizing = Sizing::of(w);
    let files = PathBuf::from(FILES_DIR);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine = None;
    for _ in 0..SETUPS {
        // Drop the previous build first, so peak memory is one build's.
        drop(engine.take());
        let e = engine::build(w, sizing, seed, false, &files)?;
        setups.push(e.setup_s);
        engine = Some(e);
    }
    let e = engine.expect("at least one set-up");
    let served = serve(&e, w, seed, sizing.rows, seconds, false)?;
    let (p50, n50) = served.meas.latency_us(0.5).ok_or("too few samples for p50")?;
    let (p99, n99) = served.meas.latency_us(0.99).ok_or("too few samples for p99")?;
    let t = &served.tally;
    let values = [
        stats::median(&setups).unwrap_or(0.0),
        served.meas.throughput_rps(),
        p50,
        p99,
        1.0 - t.failed as f64 / t.attempted.max(1) as f64,
        e.space_amp(sizing.rows + served.rows_put),
        host::peak_rss_mib(),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, unit, v))
        .collect();
    let per_window: Vec<String> = served
        .meas
        .windows
        .iter()
        .map(|v| format!("{:.0}", v.len() as f64 / served.meas.window_s))
        .collect();
    println!("{:<13} window throughputs [{}] 1/s", w.name(), per_window.join(", "));
    println!(
        "{:<13} setups {:?} s; p50 over >= {n50} and p99 over >= {n99} samples per window \
         ({} of {} windows calm); device pages heap {} index {}; error_rate {:.6}; \
         host.steal_pct {:.2}; host.nproc {}",
        w.name(),
        setups,
        served.meas.calm_windows().len(),
        served.meas.windows.len(),
        e.heap_disk.num_pages(),
        e.index_disk.num_pages(),
        t.failed as f64 / t.attempted.max(1) as f64,
        served.steal_pct,
        host::nproc()
    );
    Ok((served.tally, metrics))
}

fn p50(samples: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(samples.to_vec()), 0.5).unwrap_or(0.0)
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: an untraced phase for reference, then a fresh build
/// behind timing disks with the client and codec spans on, then an
/// in-process replay of the same request mix. Reports per-layer
/// metrics only. Span times are means, so they add up across layers
/// the way per-request disk busy time does.
fn traced_run(w: Workload, seed: u64, seconds: f64) -> Result<(Tally, Vec<Metric>), String> {
    let sizing = Sizing::of(w);
    let files = PathBuf::from(FILES_DIR);
    // Each half of the run serves half the seconds.
    let half = seconds / 2.0;
    let (plain_rps, wire_p50) = {
        let e = engine::build(w, sizing, seed, false, &files)?;
        let s = serve(&e, w, seed, sizing.rows, half, false)?;
        (s.meas.throughput_rps(), s.meas.latency_us(0.5).map_or(0.0, |(p, _)| p))
    };
    let e = engine::build(w, sizing, seed, true, &files)?;
    let s = serve(&e, w, seed, sizing.rows, half, true)?;
    let mut stream = OpStream::new(w, seed, sizing.rows, REPLAY_STREAM);
    let heap_times = || e.timing.as_ref().map_or_else(DiskTimes::default, |(h, _)| h.times());
    let before_replay = heap_times();
    let replay = load::replay(&e.db, &mut stream, seed, REPLAY_OPS, REPLAY_MAX_S);
    let replay_heap = heap_times().since(&before_replay);
    let table = e.db.table(TABLE).map_err(|x| x.to_string())?;
    let handle = table.index_tree(INDEX).map_err(|x| x.to_string())?;
    let shape = handle.tree().index_stats().map_err(|x| x.to_string())?;
    let height = handle.tree().height().map_err(|x| x.to_string())?;

    let (b, a) = (&s.before, &s.after);
    let reqs = s.between.max(1);
    let per_req = |n: u64| n as f64 / reqs as f64;
    let sp = &s.meas.spans;
    let (ti, tb) = (&a.table, &b.table);
    let index_only = ti.index_only_answers - tb.index_only_answers;
    let fetches = ti.heap_fetches - tb.heap_fetches;
    let (ca, cb) = (&a.cache, &b.cache);
    let (wa, wb) = (&a.writes, &b.writes);
    let mut m = vec![
        Metric::new("client.submit_us", "us", mean(&sp.submit_us)),
        Metric::new("client.redeem_wait_us", "us", mean(&sp.redeem_wait_us)),
        Metric::new("proto.req_bytes", "B", mean(&sp.req_bytes)),
        Metric::new("proto.resp_bytes", "B", mean(&sp.resp_bytes)),
        Metric::new("proto.encode_ns", "ns", mean(&sp.encode_ns)),
        Metric::new("proto.decode_ns", "ns", mean(&sp.decode_ns)),
        Metric::new("server.queue_full_parks", "count", s.queue_full_parks as f64),
        Metric::new("server.bytes_per_req", "B", per_req(s.wire_bytes)),
        Metric::new("server.overhead_us", "us", wire_p50 - p50(&replay.all_us())),
    ];
    for op in ["get_many", "project_many", "update_many", "put_many", "range_page"] {
        m.push(Metric::new(format!("core.{op}_us"), "us", mean(replay.op_us(op))));
    }
    m.extend([
        Metric::new("core.index_only_ratio", "ratio", ratio(index_only, index_only + fetches)),
        Metric::new("core.heap_fetches_per_req", "1/req", per_req(fetches)),
        Metric::new("btree.lookup_us", "us", mean(&replay.lookup_us)),
        Metric::new(
            "btree.cache_hit_rate",
            "ratio",
            ratio(ca.hits - cb.hits, ca.lookups - cb.lookups),
        ),
        Metric::new("btree.cache_evictions", "count", (ca.evictions - cb.evictions) as f64),
        Metric::new("btree.latch_giveups", "count", (ca.latch_giveups - cb.latch_giveups) as f64),
        Metric::new(
            "btree.keys_per_leaf_group",
            "key/group",
            ratio(wa.keys - wb.keys, wa.leaf_groups - wb.leaf_groups),
        ),
        Metric::new("btree.escalations", "count", (wa.escalations - wb.escalations) as f64),
        Metric::new("btree.intent_parks", "count", (wa.intent_parks - wb.intent_parks) as f64),
        Metric::new("btree.leaf_fill", "ratio", shape.avg_fill()),
        Metric::new("btree.height", "levels", height as f64),
    ]);
    for (name, pa, pb) in [("heap", &a.heap, &b.heap), ("index", &a.index, &b.index)] {
        let d = |f: fn(&PoolStats) -> u64| f(pa) - f(pb);
        m.extend([
            Metric::new(
                format!("pool.{name}.hit_rate"),
                "ratio",
                ratio(d(|p| p.hits), d(|p| p.hits + p.misses)),
            ),
            Metric::new(format!("pool.{name}.faults_per_req"), "1/req", per_req(d(|p| p.faults))),
            Metric::new(
                format!("pool.{name}.fault_joins_per_req"),
                "1/req",
                per_req(d(|p| p.fault_joins)),
            ),
            Metric::new(
                format!("pool.{name}.read_pages_per_batch"),
                "page/batch",
                ratio(d(|p| p.read_pages), d(|p| p.read_batches)),
            ),
            Metric::new(
                format!("pool.{name}.evictions_per_req"),
                "1/req",
                per_req(d(|p| p.evictions)),
            ),
            Metric::new(
                format!("pool.{name}.wb_flushed_per_req"),
                "1/req",
                per_req(d(|p| p.wb_flushed)),
            ),
            Metric::new(
                format!("pool.{name}.wb_sync_fallbacks"),
                "count",
                d(|p| p.wb_sync_fallbacks) as f64,
            ),
        ]);
    }
    let (heap_disk, index_disk) = match (a.disks, b.disks) {
        (Some((ha, ia)), Some((hb, ib))) => (ha.since(&hb), ia.since(&ib)),
        _ => return Err("traced build has no timing disks".to_string()),
    };
    for (name, t) in [("heap", heap_disk), ("index", index_disk)] {
        m.extend([
            Metric::new(format!("disk.{name}.reads_per_req"), "page/req", per_req(t.read_pages)),
            Metric::new(format!("disk.{name}.read_calls_per_req"), "1/req", per_req(t.read_calls)),
            Metric::new(
                format!("disk.{name}.read_busy_us_per_req"),
                "us/req",
                per_req(t.read_busy_ns) / 1e3,
            ),
            Metric::new(format!("disk.{name}.writes_per_req"), "page/req", per_req(t.write_pages)),
            Metric::new(
                format!("disk.{name}.write_busy_us_per_req"),
                "us/req",
                per_req(t.write_busy_ns) / 1e3,
            ),
        ]);
    }
    let traced_rps = s.meas.throughput_rps();
    m.extend([
        Metric::new(
            "trace.overhead_pct",
            "%",
            100.0 * (plain_rps - traced_rps) / plain_rps.max(1e-9),
        ),
        Metric::new("host.steal_pct", "%", s.steal_pct),
        Metric::new("host.nproc", "count", host::nproc() as f64),
    ]);
    let replayed = replay.tally.attempted.max(1) as f64;
    println!(
        "{:<13} untraced {plain_rps:.1} rps, traced {traced_rps:.1} rps; replayed {} requests \
         in-process: mean {:.1} us each, of which {:.1} us heap-disk read busy",
        w.name(),
        replay.tally.attempted,
        mean(&replay.all_us()),
        replay_heap.read_busy_ns as f64 / 1e3 / replayed,
    );
    let mut tally = s.tally;
    tally.absorb(replay.tally);
    Ok((tally, m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn end_to_end_names_and_units_are_valid() {
        for (name, unit) in END_TO_END {
            assert!(stats::valid_name(name) && stats::valid_unit(unit), "{name} [{unit}]");
        }
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload cold-project --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workloads, vec![Workload::ColdProject]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert_eq!(
            args("--workload all --seed 1 --seconds 1 --trace 0").unwrap().workloads.len(),
            3
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload hot-get --seconds 1").is_err());
        assert!(args("--workload hot-get --seed x --seconds 1").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
