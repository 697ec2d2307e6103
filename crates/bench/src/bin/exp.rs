//! `exp <name>… | all` — regenerates the paper's experiments into
//! `results/` and checks their claims; with no argument, lists them. The
//! table and the driver are the `ddosim-bench` library.

fn main() -> std::process::ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    match ddosim_bench::exp(&names, &ddosim_bench::results_dir()) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{why}");
            std::process::ExitCode::FAILURE
        }
    }
}
