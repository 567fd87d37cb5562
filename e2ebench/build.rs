//! Stamps the toolchain version into the binary, so every result set it
//! prints names the compiler that built it.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "rustc (unknown version)".into(),
            |s| s.trim().to_string(),
        );
    println!("cargo:rustc-env=E2EBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
