//! `amr_served` refuses any argument it does not know: a retired flag or
//! a misspelled one prints the usage text and exits with failure before
//! any listener binds, instead of serving on silent defaults.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run the daemon with `args`; a daemon that is still running after
/// 20 s has accepted them, is killed, and fails the test.
fn refused(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_amr_served"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start amr_served");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll amr_served").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("amr_served {args:?} started serving instead of refusing");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect amr_served output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "amr_served {args:?} exited 0");
    assert!(
        stderr.contains("usage:"),
        "no usage text for {args:?}: {stderr}"
    );
    assert!(
        !stdout.contains("tcp"),
        "a listener bound for {args:?}: {stdout}"
    );
}

#[test]
fn a_retired_flag_is_refused() {
    refused(&["--tcp", "127.0.0.1:0", "--workers", "4"]);
}

#[test]
fn a_misspelled_flag_is_refused() {
    refused(&["--tcp", "127.0.0.1:0", "--cahce-mb", "1"]);
}

#[test]
fn a_flag_without_its_value_is_refused() {
    refused(&["--tcp", "127.0.0.1:0", "--cache-mb"]);
}
