//! Runs one paper-claim experiment by name, or all of them in index order.
//! Usage: `cargo run -p bench --release --bin exp -- <name|all> [seed] [--quick]`

use bench::experiments::ALL;

fn usage() -> ! {
    let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: exp <name|all> [seed] [--quick]\nexperiments: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else { usage() };
    let seed = args[1..]
        .iter()
        .find_map(|a| a.parse::<u64>().ok())
        .unwrap_or(bench::DEFAULT_SEED);
    let quick = args.iter().any(|a| a == "--quick");
    if name == "all" {
        println!("power-scheduling experiment suite (seed {seed}, quick = {quick})");
        for (_, run) in ALL {
            run(seed, quick);
        }
        println!("\nall experiment assertions passed.");
        return;
    }
    match ALL.iter().find(|(n, _)| n == name) {
        Some((_, run)) => run(seed, quick),
        None => usage(),
    }
}
