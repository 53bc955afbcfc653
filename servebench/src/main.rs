//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --chemcost <binary> --work <dir>`: one benchmark run. Prints a
//! human-readable report on stderr and the result as the last line of
//! stdout; exits non-zero when any answer failed or differed from the
//! reference. `run.sh` builds both binaries and supplies the last two
//! flags.

use chemcost_servebench::run::{run, Args};
use chemcost_servebench::workload::Workload;
use std::path::PathBuf;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut chemcost = PathBuf::from("target/release/chemcost");
    let mut work = PathBuf::from("servebench-work");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--chemcost" => chemcost = PathBuf::from(value),
            "--work" => work = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (advise_cold|advise_hot|predict_rows)")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        chemcost,
        work,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
