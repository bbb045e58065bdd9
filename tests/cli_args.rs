//! The `uxm` binary's argument and output contract: each subcommand
//! accepts only its own flags, once each — an unknown flag, a typo or a
//! repeated flag is a usage error with exit status 2, never a silently
//! ignored option — and a reader that closes stdout early ends the
//! process quietly with exit status 0, not a panic.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use uxm::xml::{DocGenConfig, Document, Schema};

const SOURCE: &str = "Order(Buyer(Name Contact(EMail)) POLine*(LineNo Quantity UnitPrice))";
const TARGET: &str = "PO(Purchaser(PName PContact(PEMail)) Line(No Qty UnitPrice))";

/// A scratch directory holding `s.outline`, `t.outline` and `doc.xml`.
fn fixture(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uxm-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("s.outline"), SOURCE).unwrap();
    std::fs::write(dir.join("t.outline"), TARGET).unwrap();
    let source = Schema::parse_outline(SOURCE).unwrap();
    let doc = Document::generate(&source, &DocGenConfig::small(), 9);
    std::fs::write(
        dir.join("doc.xml"),
        uxm::xml::writer::to_xml_pretty(&doc, 2),
    )
    .unwrap();
    dir
}

/// Runs `uxm` with `args` in a fresh [`fixture`] directory.
fn uxm(name: &str, args: &[&str]) -> Output {
    let dir = fixture(name);
    let output = Command::new(env!("CARGO_BIN_EXE_uxm"))
        .current_dir(&dir)
        .args(args)
        .output()
        .expect("run uxm");
    let _ = std::fs::remove_dir_all(&dir);
    output
}

/// Runs `uxm query s.outline t.outline doc.xml //Line/No` with `extra`
/// flags appended.
fn query(name: &str, extra: &[&str]) -> Output {
    let args = ["query", "s.outline", "t.outline", "doc.xml", "//Line/No"];
    uxm(name, &[&args[..], extra].concat())
}

/// Asserts a usage error: exit 2 and `message` on stderr.
fn assert_usage_error(output: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(message), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn the_commands_own_flags_are_accepted() {
    let output = query("ok", &["--h", "20", "--hint", "naive", "--json"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stderr: {stderr}");
    assert!(String::from_utf8_lossy(&output.stdout).starts_with("{\"answers\":"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&query("bogus", &["--bogus", "7"]), "unknown flag --bogus");
    // Flags that would change no answer are refused: no command
    // configures the block tree (a pinned block-tree plan builds the
    // default one), and `keyword` always runs naive.
    for (i, line) in [
        "query s.outline t.outline doc.xml //Line/No --tau 0.3",
        "keyword s.outline t.outline doc.xml Qty --tau 0.3",
        "keyword s.outline t.outline doc.xml Qty --hint naive",
        "explain s.outline t.outline doc.xml //Line/No --tau 0.3",
        "registry save po s.outline t.outline doc.xml --dir d --tau 0.3",
    ]
    .into_iter()
    .enumerate()
    {
        let args: Vec<&str> = line.split_whitespace().collect();
        let flag = args[args.len() - 2];
        let output = uxm(&format!("dropped-{i}"), &args);
        assert_usage_error(&output, &format!("unknown flag {flag}"));
    }
}

#[test]
fn misspelt_flag_is_a_usage_error() {
    assert_usage_error(&query("typo", &["--hnt", "naive"]), "unknown flag --hnt");
}

#[test]
fn repeated_flag_is_a_usage_error() {
    assert_usage_error(
        &query("twice", &["--h", "20", "--h", "30"]),
        "--h given twice",
    );
}

#[test]
fn closed_stdout_ends_the_process_quietly() {
    let dir = fixture("pipe");
    let mut child = Command::new(env!("CARGO_BIN_EXE_uxm"))
        .current_dir(&dir)
        .args(["gen-doc", "s.outline", "--nodes", "200000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn uxm gen-doc");
    // Read 100 bytes, then close the pipe with megabytes still unwritten.
    let mut stdout = child.stdout.take().unwrap();
    let mut head = [0u8; 100];
    stdout.read_exact(&mut head).unwrap();
    drop(stdout);
    let output = child.wait_with_output().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(
        head.starts_with(b"<Order"),
        "{:?}",
        String::from_utf8_lossy(&head)
    );
}
