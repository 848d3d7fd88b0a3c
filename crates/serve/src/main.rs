//! The `flowc-serve` binary: bind the synthesis service, run until
//! SIGTERM/SIGINT, then drain gracefully.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use flowc_serve::{JournalConfig, ServeConfig, Server};

/// Set by the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: a single relaxed atomic store.
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Registers `on_signal` for SIGTERM and SIGINT through libc's `signal`
/// (std links libc on every supported platform; declaring the symbol
/// keeps the crate dependency-free).
fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

const HELP: &str = "\
flowc-serve — fault-contained synthesis service for the COMPACT pipeline

USAGE:
    flowc-serve [options]

OPTIONS:
    --addr <host:port>    bind address (default 127.0.0.1:7878; port 0 picks
                          a free port and prints it)
    --workers <n>         synthesis worker threads (default 2)
    --queue-cap <n>       bounded job-queue capacity (default 64)
    --shards <n>          artifact-cache session shards (default 4)
    --cache-cap <n>       cached artifacts per stage per shard (default 64)
    --retain <n>          finished jobs retained for /result (default 1024)
    --journal <dir>       write-ahead job journal: every lifecycle record is
                          CRC32-framed and fsynced there; on startup the log
                          is replayed (tolerating a torn tail), finished
                          results are restored, and interrupted jobs re-run.
                          Submissions may carry a `job_key` for idempotent
                          resubmission across crashes.
    --journal-segment <n> records per journal segment before rotation
                          (default 1024)
    --journal-segments <n> sealed segments kept before compaction into the
                          snapshot (default 4)
    --journal-sync-batch <n> lazy records buffered between fsyncs (default 8;
                          admissions and terminal records always sync)
    --port-file <path>    write the actual bound port to <path> after bind
                          (for harnesses using --addr with port 0)
    -h, --help            print this help

ENDPOINTS:
    POST /submit   {\"circuit\", \"format\": blif|pla|verilog|bench,
                    \"gamma\"?, \"strategy\"?: exact-mip (alias
                    anytime-mip)|heuristic-oct|all-vh (alias staircase),
                    \"deadline_ms\"?, \"priority\"?}
    POST /patch    {\"base_key\", \"job_key\", \"edits\": [\"add t and a b\", ...],
                    \"gamma\"?, \"strategy\"?, \"deadline_ms\"?, \"priority\"?}
                   incremental re-synthesis: applies the edit stream to the
                   netlist of the job named by base_key (its job_key) and
                   re-labels only the affected output cones, falling back
                   to cold synthesis; job_key names the patched state for
                   further chaining
    GET  /status?id=<n>    job lifecycle state
    GET  /result?id=<n>    terminal outcome (design summary or typed error)
    POST /cancel   {\"id\": <n>}   aborts a queued or running job
    GET  /metrics  latency histograms, cache hit rates, queue depth,
                   shed/degradation counters, worker restarts
    GET  /healthz  liveness probe

EXIT CODES (flowc convention: 0 ok, 2 valid-but-degraded, 1 hard failure):
    0  clean shutdown (SIGTERM/SIGINT drain completed)
    1  startup or configuration failure (bad flag, bind error)
    The server itself never exits 2: per-job degradation is reported in
    each job's result body (`degraded`, `shipped_rung`) instead.
";

struct Args {
    config: ServeConfig,
    port_file: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServeConfig::default()
    };
    let mut port_file = None;
    let mut journal_segment = None;
    let mut journal_segments = None;
    let mut journal_sync_batch = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "-h" | "--help" => {
                print!("{HELP}");
                return Ok(None);
            }
            "--addr" => config.addr = take("--addr")?.to_string(),
            "--workers" => {
                config.workers = take("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
            }
            "--queue-cap" => {
                config.queue_capacity = take("--queue-cap")?
                    .parse()
                    .map_err(|_| "--queue-cap needs an integer".to_string())?;
            }
            "--shards" => {
                config.session_shards = take("--shards")?
                    .parse()
                    .map_err(|_| "--shards needs an integer".to_string())?;
            }
            "--cache-cap" => {
                config.cache_capacity = take("--cache-cap")?
                    .parse()
                    .map_err(|_| "--cache-cap needs an integer".to_string())?;
            }
            "--retain" => {
                config.retain = take("--retain")?
                    .parse()
                    .map_err(|_| "--retain needs an integer".to_string())?;
            }
            "--journal" => {
                config.journal = Some(JournalConfig::new(take("--journal")?));
            }
            "--journal-segment" => {
                journal_segment = Some(
                    take("--journal-segment")?
                        .parse::<usize>()
                        .map_err(|_| "--journal-segment needs an integer".to_string())?,
                );
            }
            "--journal-segments" => {
                journal_segments = Some(
                    take("--journal-segments")?
                        .parse::<usize>()
                        .map_err(|_| "--journal-segments needs an integer".to_string())?,
                );
            }
            "--journal-sync-batch" => {
                journal_sync_batch = Some(
                    take("--journal-sync-batch")?
                        .parse::<usize>()
                        .map_err(|_| "--journal-sync-batch needs an integer".to_string())?,
                );
            }
            "--port-file" => port_file = Some(PathBuf::from(take("--port-file")?)),
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    match &mut config.journal {
        Some(journal) => {
            if let Some(n) = journal_segment {
                journal.segment_max_records = n.max(1);
            }
            if let Some(n) = journal_segments {
                journal.max_segments = n.max(1);
            }
            if let Some(n) = journal_sync_batch {
                journal.sync_batch = n.max(1);
            }
            journal.retain = config.retain;
        }
        None if journal_segment.is_some()
            || journal_segments.is_some()
            || journal_sync_batch.is_some() =>
        {
            return Err("--journal-* tuning flags need --journal <dir>".into());
        }
        None => {}
    }
    Ok(Some(Args { config, port_file }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("flowc-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };

    install_signal_handlers();
    let server = match Server::start(args.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("flowc-serve: startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("flowc-serve listening on {}", server.addr());
    if let Some(recovery) = server.recovery() {
        println!(
            "flowc-serve: journal replayed {} records: {} results restored, \
             {} jobs re-enqueued, {} failed replay, {} shed \
             (torn tails truncated: {}, checksum failures: {})",
            recovery.journal.records_replayed,
            recovery.restored_terminal,
            recovery.requeued,
            recovery.failed_replay,
            recovery.shed_on_recovery,
            recovery.journal.torn_tail_truncations,
            recovery.journal.checksum_failures,
        );
    }
    if let Some(path) = &args.port_file {
        // Atomic so a polling harness never reads a half-written port.
        if let Err(e) = flowc_report::write_atomic(path, &server.addr().port().to_string()) {
            eprintln!(
                "flowc-serve: could not write --port-file {}: {e}",
                path.display()
            );
            server.shutdown();
            return ExitCode::FAILURE;
        }
    }

    while !SHUTDOWN.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("flowc-serve: shutdown requested, draining");
    server.shutdown();
    println!("flowc-serve: drained, exiting");
    ExitCode::SUCCESS
}
