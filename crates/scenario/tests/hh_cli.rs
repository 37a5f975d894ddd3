//! The `hh-cli` binary as one stage of a shell pipeline.

use std::process::{Command, Stdio};

/// `hh-cli … | head -1` closes the command's stdout early. Whatever it was
/// printing then (`list`'s rows, `run`'s header), it must end with status
/// 0 and no panic message. The reading end is closed before the command
/// starts, so its first print finds the pipe closed.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let scenarios = hh_scenario::repo_scenarios_dir().display().to_string();
    let chaos = format!("{scenarios}/chaos.toml");
    for args in [vec!["list", &scenarios], vec!["run", &chaos, "--quick"]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let mut cli = Command::new(env!("CARGO_BIN_EXE_hh-cli"));
        let out = cli.args(&args).stdout(writer).stderr(Stdio::piped()).output().expect("starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success() && !stderr.contains("panicked"),
            "hh-cli {args:?} exited {:?}:\n{stderr}",
            out.status
        );
    }
}

/// `run --out` into a directory that does not exist fails before the first
/// run, not after the sweep whose report it could not keep.
#[test]
fn an_unwritable_out_path_fails_before_any_run() {
    let chaos = hh_scenario::repo_scenarios_dir().join("chaos.toml");
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("missing/x.json");
    let mut cli = Command::new(env!("CARGO_BIN_EXE_hh-cli"));
    let run = cli.arg("run").arg(&chaos).arg("--quick").arg("--out").arg(&out);
    let out = run.output().expect("starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exited {:?}:\n{stdout}", out.status);
    assert!(stdout.is_empty(), "printed before failing:\n{stdout}");
    assert!(stderr.contains("missing/x.json"), "{stderr}");
}
