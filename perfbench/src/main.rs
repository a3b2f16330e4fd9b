//! `perfbench --workload <spectrum|campaign|serve> --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints one JSON result line as the last line
//! of standard output. Exits 0 when every output check passed, 1 when
//! some check failed, and 2 on a usage error.

use ruf95_perfbench::{run, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <spectrum|campaign|serve> --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) if args.emit_expected => {
            for line in &result.notes {
                println!("{line}");
            }
        }
        Ok(result) => {
            for note in &result.notes {
                eprintln!("perfbench: {note}");
            }
            println!("{}", result.to_json());
            if result.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    }
}
