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

/// Runs `figures` at `BATMEM_SCALE=8` inside a fresh empty directory and
/// returns the exit code, stderr, and the entries the run left there.
fn figures_in_empty_dir(name: &str, args: &[&str]) -> (Option<i32>, String, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("batmem-figures-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .env("BATMEM_SCALE", "8")
        .current_dir(&dir)
        .args(args)
        .output()
        .expect("figures binary runs");
    let left: Vec<String> = std::fs::read_dir(&dir)
        .expect("temp dir readable")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned(), left)
}

#[test]
fn unknown_figure_is_rejected_before_the_shared_suite_runs() {
    for args in [&["nope", "fig11"][..], &["--threads", "2", "fig11"], &["--l2-banks", "4", "all"]] {
        let (code, stderr, left) = figures_in_empty_dir("unknown-figure", args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown figure"), "{args:?}: {stderr}");
        assert!(!stderr.contains("running the shared suite"), "{args:?}: {stderr}");
        assert!(left.is_empty(), "{args:?} created {left:?}");
    }
}

#[test]
fn sweep_flag_is_not_taken_as_the_output_directory() {
    for args in [&["sweep", "--bogus"][..], &["sweep", "--bank-min", "1"]] {
        let (code, stderr, left) = figures_in_empty_dir("sweep-flag", args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("running the shared suite"), "{args:?}: {stderr}");
        assert!(left.is_empty(), "{args:?} created {left:?}");
    }
}
