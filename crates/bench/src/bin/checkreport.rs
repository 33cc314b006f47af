//! Stand-alone artifact checker: `checkreport <report.json>` gates a
//! `BENCH_table1.json` artifact, `checkreport --audit <bench.json>` a
//! `BENCH_audit.json` artifact, and `checkreport --load <bench.json>` a
//! `BENCH_load.json` artifact — one row each of
//! [`feral_bench::checkgate::GATES`]. The gates (and their failure-path
//! tests) live in the library; this wrapper only maps results onto exit
//! codes.

use feral_bench::checkgate::{check_file, GATES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = args
        .iter()
        .find(|a| a.starts_with("--"))
        .map_or("", String::as_str);
    let gate = GATES.iter().find(|(f, _)| *f == flag);
    let (Some(path), Some((_, gate))) = (args.iter().find(|a| !a.starts_with("--")), gate) else {
        eprintln!("checkreport: usage: checkreport [--audit | --load] <report.json>");
        std::process::exit(1);
    };
    match check_file(path, *gate) {
        Ok(summary) => println!("checkreport: {path} OK ({summary})"),
        Err(msg) => {
            eprintln!("checkreport: {msg}");
            std::process::exit(1);
        }
    }
}
