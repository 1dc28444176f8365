//! `sachi` — command-line interface to the SACHI Ising architecture
//! simulator. Run `sachi help` for usage.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod args;
mod clock;
mod commands;
mod protocol;
mod serve;

use args::Command;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(argv.iter().map(String::as_str)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", args::USAGE);
            return ExitCode::from(e.exit_code());
        }
    };
    let outcome = match parsed {
        Command::Help => {
            println!("{}", args::USAGE);
            Ok(())
        }
        Command::Info => {
            commands::info();
            Ok(())
        }
        Command::Solve(a) => commands::solve(&a),
        Command::Compare(a) => commands::compare(&a),
        Command::Estimate(a) => commands::estimate(&a),
        Command::Serve(a) => serve::run(&a),
        Command::Submit(a) => {
            // The submit client exits with the daemon's response code:
            // the wire protocol and the one-shot CLI share one error
            // table, so scripts treat both front ends identically.
            return match serve::submit(&a) {
                Ok(code) => ExitCode::from(code),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(e.exit_code())
                }
            };
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
