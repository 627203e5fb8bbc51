//! `hgpcn-serve` — serve the HgPCN runtime over HTTP/JSON-RPC.
//!
//! ```text
//! hgpcn-serve serve  [--addr A] [--preproc N] [--infer N] [--queue N]
//!                    [--max-batch N] [--target-points N] [--seed N]
//! hgpcn-serve config [--addr A]      # print ready-to-paste client JSON
//! hgpcn-serve smoke  [--addr A] [--frames N] [--points N] [--fps F]
//!                    [--metrics-out FILE]
//! ```

use std::process::ExitCode;

use hgpcn_runtime::RuntimeConfig;
use hgpcn_serve::smoke::{self, SmokeConfig};
use hgpcn_serve::{config_text, default_net, App};

const USAGE: &str = "\
usage: hgpcn-serve <subcommand> [options]

subcommands:
  serve   boot the HTTP/JSON-RPC server (default)
            --addr HOST:PORT    bind address   [127.0.0.1:7870]
            --preproc N         preprocessing workers  [2]
            --infer N           inference workers      [2]
            --queue N           inter-stage queue capacity [64]
            --max-batch N       inference micro-batch cap  [4]
            --target-points N   points sampled per frame   [512]
            --seed N            deterministic base seed    [7]
  config  print ready-to-paste client JSON for every endpoint
            --addr HOST:PORT    address to template into the examples
  smoke   run the open-loop HTTP load smoke against a live server
            --addr HOST:PORT    server to exercise  [127.0.0.1:7870]
            --frames N          frames to submit    [16]
            --points N          points per frame    [1024]
            --fps F             offered sensor rate [10]
            --metrics-out FILE  save the final /metrics scrape
";

/// One `--flag value` pair puller over the raw argument list.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        match self.args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) if i + 1 < self.args.len() => {
                self.args.remove(i);
                Ok(Some(self.args.remove(i)))
            }
            Some(_) => Err(format!("{flag} needs a value")),
        }
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> Result<T, String> {
        match self.take(flag)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{flag}: cannot parse {raw:?}")),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.args.first() {
            None => Ok(()),
            Some(stray) => Err(format!("unrecognised argument {stray:?}")),
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sub = if args.first().is_some_and(|a| !a.starts_with('-')) {
        args.remove(0)
    } else {
        "serve".to_string()
    };
    let result = match sub.as_str() {
        "serve" => cmd_serve(Flags { args }),
        "config" => cmd_config(Flags { args }),
        "smoke" => cmd_smoke(Flags { args }),
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("hgpcn-serve: {why}");
            ExitCode::from(2)
        }
    }
}

fn cmd_serve(mut flags: Flags) -> Result<(), String> {
    let addr: String = flags.take("--addr")?.unwrap_or("127.0.0.1:7870".into());
    let seed: u64 = flags.take_parsed("--seed", 7)?;
    let config = RuntimeConfig::default()
        .preproc_workers(flags.take_parsed("--preproc", 2)?)
        .inference_workers(flags.take_parsed("--infer", 2)?)
        .queue_capacity(flags.take_parsed("--queue", 64)?)
        .max_batch(flags.take_parsed("--max-batch", 4)?)
        .target_points(flags.take_parsed("--target-points", 512)?)
        .seed(seed);
    flags.finish()?;
    // Validation failures (via App construction → runtime start) exit
    // cleanly here — a bad config must never reach the worker pools.
    let handle = App::new(config, default_net(seed))
        .map_err(|e| e.to_string())?
        .serve(&addr)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!("hgpcn-serve listening on http://{}", handle.addr());
    println!("endpoints: POST /rpc   GET /health   GET /metrics");
    println!("try: hgpcn-serve config --addr {}", handle.addr());
    // Serve until the process is killed; the handle's Drop stops the
    // accept loop if we ever fall out of the park.
    loop {
        std::thread::park();
    }
}

fn cmd_config(mut flags: Flags) -> Result<(), String> {
    let addr: String = flags.take("--addr")?.unwrap_or("127.0.0.1:7870".into());
    flags.finish()?;
    print!("{}", config_text(&addr));
    Ok(())
}

fn cmd_smoke(mut flags: Flags) -> Result<(), String> {
    let defaults = SmokeConfig::default();
    let config = SmokeConfig {
        addr: flags.take("--addr")?.unwrap_or(defaults.addr),
        frames: flags.take_parsed("--frames", defaults.frames)?,
        points: flags.take_parsed("--points", defaults.points)?,
        fps: flags.take_parsed("--fps", defaults.fps)?,
        metrics_out: flags.take("--metrics-out")?,
    };
    flags.finish()?;
    let summary = smoke::run(&config)?;
    println!("{summary}");
    Ok(())
}
