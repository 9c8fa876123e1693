//! The `wsq-server` binary: bring up a shared WSQ instance with the
//! paper's reference tables and serve it over TCP.
//!
//! ```text
//! wsq-server [--addr HOST:PORT] [--paper-like] [--no-cache]
//!            [--max-connections N] [--rows-per-frame N]
//!            [--pump-max N] [--reqsync-cap N]
//! ```
//!
//! Type `quit` (or close stdin) for a graceful shutdown: in-flight
//! queries finish streaming before the process exits.

use wsq_core::{SharedWsq, WsqConfig};
use wsq_server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: wsq-server [--addr HOST:PORT] [--paper-like] [--no-cache]\n\
         \u{20}                 [--max-connections N] [--rows-per-frame N]\n\
         \u{20}                 [--pump-max N] [--reqsync-cap N]"
    );
    std::process::exit(2)
}

fn main() {
    let mut server_config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut wsq_config = WsqConfig::fast();
    // Caching on by default: a server exists to share results.
    wsq_config.cache = true;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => server_config.addr = value("--addr"),
            "--paper-like" => {
                let cache = wsq_config.cache;
                wsq_config = WsqConfig::paper_like();
                wsq_config.cache = cache;
            }
            "--no-cache" => wsq_config.cache = false,
            "--max-connections" => {
                server_config.max_connections = parse(&value("--max-connections"))
            }
            "--rows-per-frame" => server_config.rows_per_frame = parse(&value("--rows-per-frame")),
            "--pump-max" => wsq_config.pump.max_concurrent = parse(&value("--pump-max")),
            "--reqsync-cap" => wsq_config.query.reqsync_cap = Some(parse(&value("--reqsync-cap"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }

    let shared = match SharedWsq::open_in_memory(wsq_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to open instance: {e}");
            std::process::exit(1);
        }
    };
    let handle = match Server::bind(shared, server_config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to bind: {e}");
            std::process::exit(1);
        }
    };
    println!("wsq-server listening on {}", handle.addr());
    println!("(type `quit` to stop; in-flight queries drain first)");

    let mut line = String::new();
    loop {
        line.clear();
        match std::io::stdin().read_line(&mut line) {
            Ok(0) => break, // EOF: orderly stop.
            Ok(_) if line.trim() == "quit" || line.trim() == "exit" => break,
            Ok(_) => println!("{} active connection(s)", handle.active_connections()),
            Err(_) => break,
        }
    }
    println!("shutting down…");
    handle.shutdown();
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid numeric value: {s}");
        usage()
    })
}
