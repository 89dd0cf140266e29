//! `pipeleon` — command-line front end for the Pipeleon optimizer. Run
//! `pipeleon` without arguments for its commands and their flags.
//!
//! Profiles use the record-based format of [`profile_doc`].

mod args;
mod commands;
mod profile_doc;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
