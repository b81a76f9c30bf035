//! The reproduction driver: regenerate any table or figure of the paper.
//!
//! ```text
//! repro <id>             run one experiment (fig3, fig4, ..., tab3, fault-matrix)
//! repro <id> --quick     smoke-test-sized variant (where supported)
//! repro all              run everything in paper order
//! repro list             list experiment ids
//! repro figures          print the smoke-sized JSON of every pinned figure
//! repro figures --write  ... into `BENCH_figures.json` instead
//! repro counts           print the work each ruler program does, counted
//! repro counts --write   ... into `BENCH_counts.json` instead
//! ```
//!
//! Output: an aligned table on stdout plus `results/<id>.json`.

use std::path::Path;

fn main() {
    // The `dist` experiment spawns one OS process per rank by
    // re-executing this binary: if the spawn environment is set, this
    // invocation *is* a rank worker — serve and exit, never parse args.
    if dist::worker::run_if_spawned() {
        return;
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut flag = |name: &str| match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let quick = flag("--quick");
    let write = flag("--write");
    let dir = Path::new("results");
    match args.first().map(|s| s.as_str()) {
        None | Some("list") => {
            println!("experiments:");
            for (id, _) in bench::EXPERIMENTS {
                println!("  {id}");
            }
            println!(
                "usage: repro <id> [--quick] | all | list | figures [--write] | counts [--write]"
            );
        }
        Some("figures") => emit(bench::figures_json(), write.then_some("BENCH_figures.json")),
        Some("counts") => emit(bench::counts_json(), write.then_some("BENCH_counts.json")),
        Some("all") => {
            for (id, _) in bench::EXPERIMENTS {
                run_one(id, quick, dir);
            }
        }
        Some(id) => run_one(id, quick, dir),
    }
}

/// Print `json`, or write it to `file`.
fn emit(json: String, file: Option<&str>) {
    let Some(path) = file else {
        print!("{json}");
        return;
    };
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

fn run_one(id: &str, quick: bool, dir: &Path) {
    let start = std::time::Instant::now();
    match bench::run_experiment_with(id, quick) {
        Some(fig) => {
            // Save before printing: stdout may be a pipe that closes
            // early (e.g. `repro fig4 | head`), and the JSON artifact
            // must survive that.
            if let Err(e) = fig.save(dir) {
                eprintln!("warning: could not save {id}: {e}");
            }
            print!("{}", fig.render());
            println!("    ({}: completed in {:?})\n", id, start.elapsed());
        }
        None => {
            eprintln!("unknown experiment `{id}`; try `repro list`");
            std::process::exit(1);
        }
    }
}
