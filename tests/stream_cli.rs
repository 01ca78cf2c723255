//! `schemacast cast --stream` validates off the structural tape and builds
//! no tree, so document depth costs no call-stack frames: a 200 000-deep
//! chain gets a verdict (exit 0 or 1) instead of aborting the process.

use std::path::PathBuf;
use std::process::{Command, Output};

const DEPTH: usize = 200_000;

/// `n` nests as `(n?)`; the source also allows a trailing `x`.
fn chain_xsd(allow_x: bool) -> String {
    let x = if allow_x {
        r#"<xsd:element name="x" type="xsd:string" minOccurs="0"/>"#
    } else {
        ""
    };
    format!(
        r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="n" type="Node"/>
  <xsd:complexType name="Node">
    <xsd:sequence>
      <xsd:element name="n" type="Node" minOccurs="0"/>
      {x}
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>"#
    )
}

/// `DEPTH` nested `n` elements, the deepest holding `leaf`.
fn chain_doc(leaf: &str) -> String {
    let mut doc = "<n>".repeat(DEPTH);
    doc.push_str(leaf);
    doc.push_str(&"</n>".repeat(DEPTH));
    doc
}

fn fixture_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schemacast-stream-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, text) in [
        ("source.xsd", chain_xsd(true)),
        ("target.xsd", chain_xsd(false)),
        ("bare.xml", chain_doc("")),
        ("with-x.xml", chain_doc("<x/>")),
    ] {
        std::fs::write(dir.join(name), text).expect("write fixture");
    }
    dir
}

fn cast_stream(dir: &std::path::Path, doc: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_schemacast"))
        .arg("cast")
        .arg("--source")
        .arg(dir.join("source.xsd"))
        .arg("--target")
        .arg(dir.join("target.xsd"))
        .args(["--stream", "--stats"])
        .arg(dir.join(doc))
        .output()
        .expect("run schemacast")
}

#[test]
fn cast_stream_survives_a_200k_deep_document() {
    let dir = fixture_dir();
    // Source-valid and target-valid: the whole chain is walked.
    let bare = cast_stream(&dir, "bare.xml");
    // Source-valid, but the deepest `x` is not allowed by the target.
    let with_x = cast_stream(&dir, "with-x.xml");
    let _ = std::fs::remove_dir_all(&dir);

    // `code()` is `None` when a signal (stack overflow → abort) ended it.
    assert_eq!(bare.status.code(), Some(0), "{bare:?}");
    assert_eq!(with_x.status.code(), Some(1), "{with_x:?}");
    let stdout = String::from_utf8_lossy(&bare.stdout);
    assert!(stdout.contains("valid"), "{stdout}");
    // The --stats denominator is the tape's element count.
    assert!(
        stdout.contains(&format!("nodes visited: {DEPTH} / {DEPTH}")),
        "{stdout}"
    );
}
