//! `perfbench`: run one benchmark workload and print its result line.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (name -> value and unit); failed
//! checks are listed on standard error. Exits 0 when every check passed,
//! 1 when one failed, 2 when the run could not be made. `--print-pins`
//! prints what the generator produces for each workload's pinned
//! parameters.

use negassoc_perfbench::{parse_args, pins_report, run};
use std::process::ExitCode;

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| match args {
        Some(args) => run(&args).map(Some),
        None => pins_report().map(|report| {
            print!("{report}");
            None
        }),
    });
    match outcome {
        Ok(Some(result)) => {
            for e in result.errors.iter().take(10) {
                eprintln!("perfbench: {e}");
            }
            println!("{}", result.json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
