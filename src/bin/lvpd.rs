//! `lvpd` — the multi-tenant monitoring daemon.
//!
//! Serves a registry of deployed [`BatchMonitor`](lvp_core::BatchMonitor)s
//! keyed by `(tenant, model, version)` over line-delimited JSON (see
//! `lvp_server::protocol`):
//!
//! ```text
//! lvpd --addr 127.0.0.1:7878 --state-dir /var/lib/lvpd
//! ```
//!
//! Clients speak one JSON object per line in each direction, e.g.:
//!
//! ```text
//! > {"verb":"observe","tenant":"acme","model":"fraud","version":"v1","estimate":0.83}
//! < {"status":"ok","report":{...},"batches_seen":1,"pending_chunks":0}
//! ```
//!
//! ## Durability
//!
//! With `--state-dir` the daemon runs crash-safe out of one directory
//! (created if absent) holding `registry.json` and `observe.journal`:
//! startup loads the snapshot and replays the write-ahead journal tail
//! over it (truncating any torn or corrupted tail to the last durable
//! record), every accepted mutation is journaled *before* it is applied,
//! and the `save` verb and shutdown compact the journal into the
//! snapshot. Without it the daemon is in-memory and `save` is an error.
//! The daemon exits cleanly when any client sends `{"verb":"shutdown"}`.
//! Unknown flags, flags without a value, malformed values and `--fsync`
//! without `--state-dir` exit non-zero with the usage text.

use lvp_server::{Daemon, DaemonConfig, DurabilityConfig, FsyncPolicy, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

const USAGE: &str = "lvpd — multi-tenant monitoring daemon

USAGE:
    lvpd [--addr HOST:PORT] [--state-dir DIR] [--fsync always|never|every:N]
         [--max-request-bytes N] [--queue-capacity N] [--history-limit N]
         [--tick NANOS]

OPTIONS:
    --addr HOST:PORT        listen address (default 127.0.0.1:7878; port 0
                            picks an ephemeral port, printed on startup)
    --state-dir DIR         durable state directory (created if absent):
                            registry.json is restored at startup, and
                            observe.journal records every accepted mutation
                            before it is applied; the `save` verb and
                            shutdown compact the journal into the snapshot.
                            Without it the daemon is in-memory
    --fsync POLICY          journal fsync policy: always (default, every
                            record durable before it is acknowledged),
                            every:N (batch N appends per fsync), never
                            (leave flushing to the OS); needs --state-dir
    --max-request-bytes N   reject request lines longer than N bytes
                            instead of buffering them (default 16777216)
    --queue-capacity N      per-tenant in-flight chunk budget (default 64)
    --history-limit N       per-monitor report retention (default 256)
    --tick NANOS            virtual nanoseconds per request, driving
                            breaker cooldowns (default 1000000)
";

/// Parses `value` of `flag` as a count.
fn count<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: '{value}' is not a count"))
}

/// The listen address, the durable state directory (if any) and the
/// daemon configuration. Every flag takes a value; an unknown flag, a
/// missing value, a malformed one or `--fsync` without `--state-dir` is
/// an error.
fn parse_args(argv: &[String]) -> Result<(String, Option<DurabilityConfig>, DaemonConfig), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut state_dir = None;
    let mut fsync = None;
    let mut config = DaemonConfig::default();
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        let mut value = || {
            args.next()
                .map(String::as_str)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--addr" => addr = value()?.to_string(),
            "--state-dir" => state_dir = Some(PathBuf::from(value()?)),
            "--fsync" => {
                fsync = Some(FsyncPolicy::parse(value()?).map_err(|e| format!("--fsync: {e}"))?)
            }
            "--queue-capacity" => config.queue_capacity = count(flag, value()?)?,
            "--history-limit" => config.history_limit = Some(count(flag, value()?)?),
            "--tick" => config.clock_tick_nanos = count(flag, value()?)?,
            "--max-request-bytes" => config.max_request_bytes = count(flag, value()?)?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let durability = match (state_dir, fsync) {
        (Some(dir), fsync) => Some(DurabilityConfig::in_dir_with_fsync(
            dir,
            fsync.unwrap_or_default(),
        )),
        (None, Some(_)) => return Err("--fsync needs --state-dir".to_string()),
        (None, None) => None,
    };
    Ok((addr, durability, config))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (addr, durability, config) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("lvpd: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let daemon = match durability {
        Some(durability) => match Daemon::recover(config, durability) {
            Ok((daemon, report)) => {
                eprintln!("lvpd: {}", report.summary());
                daemon
            }
            Err(message) => {
                eprintln!("lvpd: cannot recover durable state: {message}");
                return ExitCode::FAILURE;
            }
        },
        None => Daemon::new(config),
    };

    let server = match Server::spawn(Arc::new(daemon), addr.as_str()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("lvpd: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Machine-readable so scripts starting us with port 0 can find us.
    println!("lvpd listening on {}", server.local_addr());
    server.join();
    eprintln!("lvpd: shut down cleanly");
    ExitCode::SUCCESS
}
