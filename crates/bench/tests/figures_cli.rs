//! Input checks of the `figures` binary that must fail before any work.

use std::process::Command;

fn figures(scale_env: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .env("BATMEM_SCALE", scale_env)
        .args(args)
        .output()
        .expect("figures binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn out_of_range_batmem_scale_is_rejected() {
    // `1u32 << 40` would wrap to a 256-vertex graph labelled scale 40.
    let (code, stderr) = figures("40", &["table1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("BATMEM_SCALE") && stderr.contains("40") && stderr.contains("31"),
        "{stderr}"
    );
}

#[test]
fn out_of_range_sweep_scale_is_rejected() {
    let dir = std::env::temp_dir().join(format!("batmem-figures-cli-{}", std::process::id()));
    let out = dir.to_str().expect("temp dir is UTF-8");
    let (code, stderr) = figures("8", &["sweep", out, "--scales", "8,36"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("`scales`") && stderr.contains("36"), "{stderr}");
    assert!(!dir.exists(), "a rejected plan must not create its store");
}
