//! What the `hbold-server` binary reads from a file and writes on the wire:
//! real-world N-Triples and Turtle boots, a bad IRI's refusal, and every
//! JSON escape at every offset of a word. Each answer must equal a document
//! written by hand here, byte for byte, and pass `common::json`'s recognizer,
//! which shares no code with the server's JSON writer.

mod common;

use common::json;
use common::{http_query, refused_boot, spawn_server, temp_dir, write_file};

/// A dump with what published ones hold: CRLF line ends, comments,
/// non-ASCII IRIs and literals, no-break spaces between terms, `\u` and `\U`
/// escapes, a blank node, a language tag, a typed literal, a dotted IRI.
const REALWORLD_NT: &str = concat!(
    "# A dump as published: CRLF line ends, comments, non-ASCII text.\r\n",
    "<http://example.org/straße/münchen> <http://www.w3.org/2000/01/rdf-schema#label> \"München\"@de .\r\n",
    "<http://example.org/straße/münchen>\u{a0}<http://example.org/名前>\u{a0}\"東京 \\u00e9\\U0001F600\"\u{a0}.\r\n",
    "   # an indented comment\n",
    "\n",
    "_:b1 <http://example.org/near> <http://example.org/straße/münchen> .\n",
    "<http://example.org/Ωmega>  <http://example.org/count> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
    "<http://example.org/Ωmega> <http://example.org/note> \"tab\\there \\\"quoted\\\" ł\"@pl-PL .\n",
    "<http://example.org/straße/münchen> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/City> .\n",
    "<http://example.org/release.v1.2> <http://example.org/note> \"it's\"@en .",
);

/// The same seven triples as a person would write them in Turtle:
/// prefixes, `a`, a `;` list, a prefixed name with an interior `.`, a bare
/// integer, `\u`/`\U` and `\'` escapes, a no-break space, CRLF.
const REALWORLD_TTL: &str = concat!(
    "@prefix ex: <http://example.org/> .\r\n",
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n",
    "# The N-Triples dump, as a person would write it.\n",
    "<http://example.org/straße/münchen> rdfs:label \"München\"@de ;\r\n",
    "    ex:名前\u{a0}\"東京 \\u00e9\\U0001F600\" ;\n",
    "    a ex:City .\n",
    "_:b1 ex:near <http://example.org/straße/münchen> .\n",
    "ex:Ωmega ex:count 42 ;\n",
    "    ex:note \"tab\\there \\\"quoted\\\" ł\"@pl-PL .\n",
    "ex:release.v1.2 ex:note \"it\\'s\"@en .\n",
);

/// `SELECT * { ?s ?p ?o } ORDER BY ?s ?p ?o` over either file.
const REALWORLD_JSON: &str = concat!(
    r#"{"head":{"vars":["s","p","o"]},"results":{"bindings":["#,
    r#"{"s":{"type":"bnode","value":"b1"},"p":{"type":"uri","value":"http://example.org/near"},"o":{"type":"uri","value":"http://example.org/straße/münchen"}},"#,
    r#"{"s":{"type":"uri","value":"http://example.org/release.v1.2"},"p":{"type":"uri","value":"http://example.org/note"},"o":{"type":"literal","value":"it's","xml:lang":"en"}},"#,
    r#"{"s":{"type":"uri","value":"http://example.org/straße/münchen"},"p":{"type":"uri","value":"http://example.org/名前"},"o":{"type":"literal","value":"東京 é😀"}},"#,
    r#"{"s":{"type":"uri","value":"http://example.org/straße/münchen"},"p":{"type":"uri","value":"http://www.w3.org/1999/02/22-rdf-syntax-ns#type"},"o":{"type":"uri","value":"http://example.org/City"}},"#,
    r#"{"s":{"type":"uri","value":"http://example.org/straße/münchen"},"p":{"type":"uri","value":"http://www.w3.org/2000/01/rdf-schema#label"},"o":{"type":"literal","value":"München","xml:lang":"de"}},"#,
    r#"{"s":{"type":"uri","value":"http://example.org/Ωmega"},"p":{"type":"uri","value":"http://example.org/count"},"o":{"type":"literal","value":"42","datatype":"http://www.w3.org/2001/XMLSchema#integer"}},"#,
    r#"{"s":{"type":"uri","value":"http://example.org/Ωmega"},"p":{"type":"uri","value":"http://example.org/note"},"o":{"type":"literal","value":"tab\there \"quoted\" ł","xml:lang":"pl-pl"}}"#,
    r#"]}}"#,
);

/// Boots on `--data file`, asks `query`, and returns the answer's text once
/// the recognizer has accepted it.
fn boot_and_ask(file: &str, query: &str) -> String {
    let server = spawn_server(&["--data", file]);
    let (status, body) = http_query(server.port, query);
    let body = String::from_utf8(body).expect("UTF-8");
    assert_eq!(status, 200, "{body}");
    json::check(&body).unwrap();
    body
}

#[test]
fn real_world_ntriples_and_turtle_boots_answer_the_same_rows() {
    let dir = temp_dir("realworld");
    let query = "SELECT * { ?s ?p ?o } ORDER BY ?s ?p ?o";
    json::check(REALWORLD_JSON).unwrap();
    for (syntax, text) in [("nt", REALWORLD_NT), ("ttl", REALWORLD_TTL)] {
        let file = write_file(&dir, &format!("realworld.{syntax}"), text);
        assert_eq!(boot_and_ask(&file, query), REALWORLD_JSON, "{syntax}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bad IRI on line 3 stops the boot, and the column counts characters:
/// each `ü` before it is one character in two bytes.
#[test]
fn a_bad_iri_stops_the_boot_at_its_line_and_character_column() {
    let dir = temp_dir("bad-iri");
    let text = concat!(
        "# line 1\n",
        "<http://example.org/ü> <http://example.org/p> \"ok\" .\n",
        "<http://example.org/ü> <http://example.org/p> <http://example.org/a b> .\n",
    );
    let stderr = refused_boot(&["--data", &write_file(&dir, "bad-iri.nt", text)], &[]);
    assert!(
        stderr.contains("parse error at line 3, column 71: invalid IRI"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Both directions of the JSON codec find the bytes a string must escape
/// eight at a time, so each special sits at every offset 0–15 of a literal
/// longer than 16 bytes: 128 values, each with its N-Triples escape and its
/// JSON text written by hand.
#[test]
fn every_escape_at_every_word_offset_survives_the_wire() {
    // Each special's N-Triples escape and its JSON text: `"`, `\`, tab,
    // newline, U+0001, DEL (written raw), `é` and `😀` (raw both ways).
    const SPECIALS: [(&str, &str); 8] = [
        ("\\\"", "\\\""),
        ("\\\\", "\\\\"),
        ("\\t", "\\t"),
        ("\\n", "\\n"),
        ("\\u0001", "\\u0001"),
        ("\\u007F", "\u{7f}"),
        ("é", "é"),
        ("😀", "😀"),
    ];
    let dir = temp_dir("escapes");
    let mut nt = String::new();
    let mut expected = String::from(r#"{"head":{"vars":["s","o"]},"results":{"bindings":["#);
    for (i, (nt_text, json_text)) in SPECIALS.iter().enumerate() {
        for offset in 0..16 {
            let (a, b) = ("a".repeat(offset), "b".repeat(20 - offset));
            let s = format!("http://example.org/escape/{i}/{offset:02}");
            nt += &format!("<{s}> <http://example.org/value> \"{a}{nt_text}{b}\" .\n");
            expected += &format!(
                r#"{{"s":{{"type":"uri","value":"{s}"}},"o":{{"type":"literal","value":"{a}{json_text}{b}"}}}},"#
            );
        }
    }
    expected.pop();
    expected += "]}}";
    let file = write_file(&dir, "escapes.nt", &nt);
    let body = boot_and_ask(&file, "SELECT ?s ?o { ?s ?p ?o } ORDER BY ?s");
    assert_eq!(body, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_recognizer_refuses_what_rfc_8259_does_not_allow() {
    #[rustfmt::skip]
    let bad = [
        "", "01", "1.", "-", "1e", "+1", "[1,]", "{\"a\":1,}", "{\"a\":1,\"a\":2}", "\"\t\"",
        "\"\\x\"", "\"\\ud800\"", "\"\\udc00\"", "\"\\u12\"", "nul", "[1] 2", "\u{a0}1", "'a'",
    ];
    for bad in bad {
        assert!(json::check(bad).is_err(), "{bad:?} was accepted");
    }
    json::check(" {\"a\":[-0.5e+2,true,null,{},[],\"\\ud83d\\ude00\\/é\"]}\r\n").unwrap();
}
