//! Golden transcripts of the paper's tables: `repro`'s stdout at tiny and
//! default scale must match `tests/golden/repro-{tiny,default}.txt` byte
//! for byte. Timings go to stderr and are not pinned.
//!
//! On a mismatch the test names the first `== … ==` section that moved
//! and writes the actual stdout under `CARGO_TARGET_TMPDIR`; if the change
//! is intended, review that file and copy it over the golden one.

use std::process::Command;

/// Splits a transcript into sections, each starting at a `== … ==` header
/// line. Text before the first header forms a leading section of its own.
fn sections(text: &str) -> Vec<Vec<&str>> {
    let mut out = vec![Vec::new()];
    for line in text.lines() {
        if line.starts_with("== ") && line.ends_with(" ==") {
            out.push(Vec::new());
        }
        out.last_mut().expect("starts non-empty").push(line);
    }
    out
}

fn assert_matches_golden(name: &str, args: &[&str], golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    if actual == golden {
        return;
    }

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("repro-{name}.txt"));
    std::fs::write(&path, &actual).expect("write the actual transcript");
    let (want, got) = (sections(golden), sections(&actual));
    // Equal sections around unequal bytes (a trailing newline) leave
    // `moved` one past the last section.
    let moved = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(want.len());
    let show = |s: &[Vec<&str>]| {
        s.get(moved)
            .map(|lines| lines.join("\n"))
            .unwrap_or_default()
    };
    let header = want
        .get(moved)
        .or(got.get(moved))
        .and_then(|lines| lines.first());
    panic!(
        "repro {args:?}: section {moved} `{}` moved from the golden transcript\n\
         --- golden\n{}\n--- actual\n{}\n\
         actual stdout written to {path}; if intended, review it and run\n\
         cp {path} crates/bench/tests/golden/repro-{name}.txt",
        header.unwrap_or(&"<end of output>"),
        show(&want),
        show(&got),
        path = path.display(),
    );
}

#[test]
fn tiny_scale_stdout_matches_the_golden_transcript() {
    assert_matches_golden(
        "tiny",
        &["--scale", "tiny"],
        include_str!("golden/repro-tiny.txt"),
    );
}

#[test]
fn default_scale_stdout_matches_the_golden_transcript() {
    assert_matches_golden("default", &[], include_str!("golden/repro-default.txt"));
}
