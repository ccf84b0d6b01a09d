//! Records the compiler's version for the benchmark's environment line, so
//! that a run does not have to start a process to ask.

use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
}
