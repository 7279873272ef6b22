//! Regenerate the paper's figures as text tables.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p spikestream-bench --bin figures             # all figures, batch 128
//! cargo run --release -p spikestream-bench --bin figures -- --fig 3c # one figure
//! cargo run --release -p spikestream-bench --bin figures -- --batch 16
//! ```
//!
//! An unknown argument, a flag without its value or a batch that is not a
//! positive integer of at most `MAX_SAMPLE_STEPS` prints the usage and
//! exits with status 2.

use spikestream::MAX_SAMPLE_STEPS;
use spikestream_bench::{all_figures, paper_batch, print_figure};

const USAGE: &str = "usage: figures [--fig 3a|3b|3c|4|5|headline|ablation] [--batch N]";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    /// Print the usage and exit successfully.
    Help,
    /// Render `fig` (every figure when `None`) at batch size `batch`.
    Render { fig: Option<String>, batch: usize },
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut fig = None;
    let mut batch = paper_batch();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fig" => {
                fig = Some(it.next().ok_or("`--fig` needs a figure name")?.clone());
            }
            "--batch" => {
                let value = it.next().ok_or("`--batch` needs a value")?;
                let valid = |b: &usize| (1..=MAX_SAMPLE_STEPS).contains(b);
                batch = value.parse().ok().filter(valid).ok_or_else(|| {
                    format!(
                        "`--batch` takes 1..={MAX_SAMPLE_STEPS} (MAX_SAMPLE_STEPS), not `{value}`"
                    )
                })?;
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Render { fig, batch })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (fig, batch) = match parse_args(&args) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return;
        }
        Ok(Command::Render { fig, batch }) => (fig, batch),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let figures: Vec<String> = match fig {
        Some(f) => vec![f],
        None => all_figures().iter().map(|s| s.to_string()).collect(),
    };
    println!("SpikeStream reproduction — batch size {batch}\n");
    let mut failed = false;
    for f in figures {
        match print_figure(&f, batch) {
            Ok(table) => println!("{table}"),
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_select_the_figure_and_batch() {
        assert_eq!(parse(&[]), Ok(Command::Render { fig: None, batch: paper_batch() }));
        assert_eq!(
            parse(&["--fig", "3c", "--batch", "16"]),
            Ok(Command::Render { fig: Some("3c".into()), batch: 16 })
        );
        assert_eq!(parse(&["--batch", "4", "-h"]), Ok(Command::Help));
    }

    #[test]
    fn unknown_arguments_are_errors_not_a_full_run() {
        // The bare figure name is the form the flag parser used to skip
        // before rendering every figure.
        assert_eq!(parse(&["3c"]), Err("unknown argument `3c`".into()));
        assert!(parse(&["--fig", "3c", "--verbose"]).is_err());
    }

    #[test]
    fn missing_or_invalid_values_are_errors() {
        assert!(parse(&["--fig"]).is_err());
        assert!(parse(&["--batch"]).is_err());
        assert!(parse(&["--batch", "0"]).is_err());
        assert!(parse(&["--batch", "many"]).is_err());
        let over = (MAX_SAMPLE_STEPS + 1).to_string();
        let e = parse(&["--batch", &over]).unwrap_err();
        assert!(e.contains("MAX_SAMPLE_STEPS"), "{e}");
        assert!(parse(&["--batch", "1099511627776"]).is_err());
    }
}
