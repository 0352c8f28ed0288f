//! `amr_served` — the multi-tenant AMRIC query daemon.
//!
//! ```text
//! amr_served --tcp 127.0.0.1:7171            # TCP endpoint
//! amr_served --uds /tmp/amric.sock           # Unix-socket endpoint
//! amr_served --tcp 0.0.0.0:7171 --uds /tmp/amric.sock \
//!            --cache-mb 512 --max-open 64 --scan-threshold-kb 4096 \
//!            --slab-kb 2048 --scan-slots 1 --max-request-mb 256
//! ```
//!
//! Runs until a client sends the Shutdown request. Clients open
//! plotfiles by server-side path; all open files share one decode-cache
//! budget and scans are fair-scheduled against interactive traffic (see
//! the `amr-serve` crate docs).

use amr_serve::prelude::*;
use std::process::ExitCode;

/// Every flag the daemon takes; each is followed by its value.
const FLAGS: [&str; 8] = [
    "--tcp",
    "--uds",
    "--cache-mb",
    "--max-open",
    "--scan-threshold-kb",
    "--slab-kb",
    "--scan-slots",
    "--max-request-mb",
];

/// The command line as `(flag, value)` pairs. Every argument must be a
/// known flag followed by its value, so a retired or misspelled flag is
/// an error, not a silent default.
fn flag_pairs(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut pairs = Vec::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if !FLAGS.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        pairs.push((flag.as_str(), value.as_str()));
    }
    Ok(pairs)
}

fn parse_flag<T: std::str::FromStr>(
    pairs: &[(&str, &str)],
    name: &str,
) -> Result<Option<T>, String> {
    match pairs.iter().find(|(flag, _)| *flag == name) {
        None => Ok(None),
        Some((_, value)) => value
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot parse {value:?}")),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = flag_pairs(&args)?;
    let tcp: Option<String> = parse_flag(&args, "--tcp")?;
    let uds: Option<String> = parse_flag(&args, "--uds")?;
    if tcp.is_none() && uds.is_none() {
        return Err("need at least one of --tcp ADDR / --uds PATH".into());
    }
    let mut cfg = ServeConfig::default();
    if let Some(mb) = parse_flag::<u64>(&args, "--cache-mb")? {
        cfg.cache_bytes = mb << 20;
    }
    if let Some(n) = parse_flag::<usize>(&args, "--max-open")? {
        cfg.max_open_files = n;
    }
    if let Some(kb) = parse_flag::<u64>(&args, "--scan-threshold-kb")? {
        cfg.admission.scan_threshold_bytes = kb << 10;
    }
    if let Some(kb) = parse_flag::<u64>(&args, "--slab-kb")? {
        cfg.admission.scan_slab_bytes = kb << 10;
    }
    if let Some(n) = parse_flag::<usize>(&args, "--scan-slots")? {
        cfg.admission.scan_slots = n;
    }
    if let Some(mb) = parse_flag::<u64>(&args, "--max-request-mb")? {
        cfg.admission.max_request_bytes = mb << 20;
    }

    let mut server = Server::new(cfg);
    if let Some(addr) = tcp {
        let bound = server.listen_tcp(&addr).map_err(|e| e.to_string())?;
        println!("amr_served: tcp {bound}");
    }
    if let Some(path) = uds {
        server
            .listen_uds(std::path::Path::new(&path))
            .map_err(|e| e.to_string())?;
        println!("amr_served: uds {path}");
    }
    println!(
        "amr_served: cache {} MiB, {} open files max; serving until Shutdown",
        cfg.cache_bytes >> 20,
        cfg.max_open_files
    );
    let state = std::sync::Arc::clone(server.state());
    while !state.stopping() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    server.shutdown_and_join();
    let stats = state.stats_report();
    println!(
        "amr_served: done — {} connections, {} requests ({} interactive, {} scans / {} gate holds), {} errors",
        stats.connections_total,
        stats.requests,
        stats.interactive_queries,
        stats.scan_queries,
        stats.scan_slabs,
        stats.errors
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("amr_served: {e}");
            eprintln!(
                "usage: amr_served [--tcp ADDR] [--uds PATH] [--cache-mb N] [--max-open N] \
                 [--scan-threshold-kb N] [--slab-kb N] [--scan-slots N] [--max-request-mb N]\n  \
                 --slab-kb N: decoded KiB a scan warms per fair-gate hold — whole chunks, \
                 never less than one"
            );
            ExitCode::FAILURE
        }
    }
}
