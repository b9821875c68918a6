//! JSON-lines checkpoint codec for the experiment executor.
//!
//! Written and read through [`nylon_obs::json`]. One line per completed
//! cell:
//!
//! ```text
//! {"nylon_checkpoint":1,"fingerprint":"peers=400 seeds=3 ..."}
//! {"sweep":"fig2","point":"v15/push/pull,rand,healer/40","seed":123,"values":[98.3]}
//! ```
//!
//! Floats are written with Rust's shortest-roundtrip formatting (`{:?}`),
//! so a value read back parses to the exact same bits — resumed runs stay
//! byte-identical to uninterrupted ones. `NaN`/`inf` are written bare
//! (not valid JSON, but this is a private format and the parser accepts
//! them).
//!
//! The parser is deliberately tolerant: a malformed line — e.g. the tail
//! of a file truncated by a killed run — is skipped, not fatal, so
//! `--resume` recovers everything up to the cut.

use std::collections::HashMap;
use std::path::Path;

use nylon_obs::json::{self, Value, Writer};

use super::CellId;

/// Name of the checkpoint file inside the `--checkpoint` directory.
pub(crate) const FILE_NAME: &str = "cells.jsonl";

/// Format version written in (and required from) the header. Bump this
/// whenever the *meaning* of stored cells changes — e.g. a sample
/// function reorders or extends its metric columns — so stale checkpoints
/// are rejected instead of rendering wrong tables. Version 1 files may
/// hold cells of the pre-lockstep direct engine, which ordered
/// same-instant deliveries differently.
const VERSION: u64 = 2;

/// What [`load`] found on disk.
pub(crate) enum LoadOutcome {
    /// No readable checkpoint file.
    Missing,
    /// A checkpoint written under a different fingerprint (scale/seed
    /// mismatch); its cells must not be reused.
    Mismatch,
    /// Restored cells.
    Loaded(HashMap<CellId, Vec<f64>>),
}

/// The header line identifying a checkpoint and the run it belongs to.
pub(crate) fn header_line(fingerprint: &str) -> String {
    let mut w = Writer::default();
    w.open('{').key("nylon_checkpoint").number(VERSION);
    w.key("fingerprint").string(fingerprint).close('}');
    w.finish()
}

/// One completed cell as a JSON line (without trailing newline).
pub(crate) fn cell_line(id: &CellId, values: &[f64]) -> String {
    let mut w = Writer::default();
    w.open('{').key("sweep").string(&id.sweep).key("point").string(&id.point);
    w.key("seed").number(id.seed).key("values").open('[');
    for v in values {
        w.number(format_args!("{v:?}"));
    }
    w.close(']').close('}');
    w.finish()
}

/// Loads a checkpoint file, returning its cells keyed for resume lookup.
pub(crate) fn load(path: &Path, fingerprint: &str) -> LoadOutcome {
    let Ok(text) = std::fs::read_to_string(path) else {
        return LoadOutcome::Missing;
    };
    let mut lines = text.lines();
    match lines.next().and_then(parse_header) {
        // A recognizable checkpoint whose version or fingerprint differs
        // is a Mismatch — the caller refuses to overwrite it. Missing is
        // reserved for files that are not checkpoints at all.
        Some((version, fp)) if version == VERSION && fp == fingerprint => {}
        Some(_) => return LoadOutcome::Mismatch,
        None => return LoadOutcome::Missing,
    }
    let mut cells = HashMap::new();
    for line in lines {
        if let Some((id, values)) = parse_cell_line(line) {
            cells.insert(id, values);
        }
    }
    LoadOutcome::Loaded(cells)
}

/// Parses the header line, returning its format version and fingerprint.
fn parse_header(line: &str) -> Option<(u64, String)> {
    let v = json::parse(line).ok()?;
    Some((v.get("nylon_checkpoint")?.as_num()?, v.get("fingerprint")?.as_str()?.to_string()))
}

/// Parses one cell line; `None` for anything malformed (including the
/// truncated tail of a killed run).
pub(crate) fn parse_cell_line(line: &str) -> Option<(CellId, Vec<f64>)> {
    let v = json::parse(line).ok()?;
    let text = |key: &str| Some(v.get(key)?.as_str()?.to_string());
    let id =
        CellId { sweep: text("sweep")?, point: text("point")?, seed: v.get("seed")?.as_num()? };
    let Value::Arr(values) = v.get("values")? else { return None };
    Some((id, values.iter().map(Value::as_num).collect::<Option<_>>()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(sweep: &str, point: &str, seed: u64) -> CellId {
        CellId { sweep: sweep.to_string(), point: point.to_string(), seed }
    }

    #[test]
    fn cell_line_roundtrips() {
        let cell = id("fig2", "v15/push/pull,rand,healer/40", 0xDEAD);
        let values = vec![98.25, -1.5e-9, 0.1 + 0.2];
        let line = cell_line(&cell, &values);
        let (back_id, back_values) = parse_cell_line(&line).expect("well-formed line");
        assert_eq!(back_id, cell);
        assert_eq!(back_values, values, "floats must roundtrip to the exact bits");
    }

    #[test]
    fn non_finite_values_roundtrip() {
        let line = cell_line(&id("s", "p", 1), &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let (_, values) = parse_cell_line(&line).expect("well-formed line");
        assert!(values[0].is_nan());
        assert_eq!(values[1], f64::INFINITY);
        assert_eq!(values[2], f64::NEG_INFINITY);
    }

    #[test]
    fn escaped_keys_roundtrip() {
        let cell = id("s\"weird\\", "p\nq\tr", 7);
        let (back, _) = parse_cell_line(&cell_line(&cell, &[1.0])).expect("well-formed line");
        assert_eq!(back, cell);
    }

    #[test]
    fn truncated_lines_are_skipped() {
        let full = cell_line(&id("s", "p", 1), &[1.0, 2.0]);
        for cut in 1..full.len() {
            // Any strict prefix either fails to parse or (never) parses to
            // the full cell; it must not panic.
            if let Some((cid, values)) = parse_cell_line(&full[..cut]) {
                panic!("prefix of len {cut} parsed as {cid:?} {values:?}");
            }
        }
        assert!(parse_cell_line("").is_none());
        assert!(parse_cell_line("not json at all").is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Arbitrary text — JSON fragments, the format's own keys and
        /// arbitrary characters — never panics either parser, and a line
        /// that does parse as a cell writes back to a line that parses to
        /// the same cell, to the bit.
        #[test]
        fn parsers_never_panic_on_arbitrary_text(
            words in proptest::collection::vec(any::<u32>(), 0..48),
        ) {
            const PIECES: [&str; 20] = [
                "{", "}", "[", "]", ":", ",", "\"", "\\", "\"sweep\"", "\"point\"",
                "\"seed\"", "\"values\"", "\"nylon_checkpoint\"", "\"fingerprint\"", "1",
                "-2.5e3", "NaN", "inf", "\\u00", " ",
            ];
            let text: String = words
                .iter()
                .map(|&w| match PIECES.get(w as usize % 24) {
                    Some(piece) => piece.to_string(),
                    None => char::from_u32(w >> 11).unwrap_or('\u{fffd}').to_string(),
                })
                .collect();
            let _ = parse_header(&text);
            if let Some((id, values)) = parse_cell_line(&text) {
                let (back_id, back) = parse_cell_line(&cell_line(&id, &values)).expect("rewritten");
                prop_assert_eq!(back_id, id);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&back), bits(&values));
            }
        }
    }

    #[test]
    fn header_roundtrips() {
        let fp = "peers=400 seeds=3 rounds=120 full=false base_seed=659918";
        assert_eq!(parse_header(&header_line(fp)), Some((VERSION, fp.to_string())));
        assert!(parse_header("{\"something\":1}").is_none());
    }

    #[test]
    fn other_header_versions_are_a_mismatch_not_missing() {
        // A version bump means the cell layout may have changed; the file
        // is still hours of computed cells, so resume must refuse to
        // overwrite it (Mismatch), not treat it as absent (Missing). That
        // holds for the past too: version 1 cells may come from the old
        // direct engine and must not be spliced into today's tables.
        let dir = std::env::temp_dir().join(format!("nylon-ckpt-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(FILE_NAME);
        for version in [1, VERSION + 1] {
            let header = format!("{{\"nylon_checkpoint\":{version},\"fingerprint\":\"fp\"}}\n");
            std::fs::write(&path, header).unwrap();
            assert!(matches!(load(&path, "fp"), LoadOutcome::Mismatch), "version {version}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn solidus_escape_is_accepted() {
        // The writer never emits \/, but it is legal JSON an external tool
        // may produce when round-tripping the file.
        let line = "{\"sweep\":\"s\",\"point\":\"a\\/b\",\"seed\":1,\"values\":[1.0]}";
        let (id, _) = parse_cell_line(line).expect("solidus escape is legal");
        assert_eq!(id.point, "a/b");
    }

    #[test]
    fn load_distinguishes_missing_mismatch_loaded() {
        let dir = std::env::temp_dir().join(format!("nylon-ckpt-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(FILE_NAME);
        assert!(matches!(load(&path, "fp"), LoadOutcome::Missing));
        let mut text = header_line("fp");
        text.push('\n');
        text.push_str(&cell_line(&id("s", "p", 3), &[4.0]));
        text.push('\n');
        text.push_str("{\"sweep\":\"s\",\"point\""); // truncated tail
        std::fs::write(&path, &text).unwrap();
        match load(&path, "fp") {
            LoadOutcome::Loaded(cells) => {
                assert_eq!(cells.len(), 1, "truncated tail must be skipped");
                assert_eq!(cells[&id("s", "p", 3)], vec![4.0]);
            }
            _ => panic!("expected Loaded"),
        }
        assert!(matches!(load(&path, "other-fp"), LoadOutcome::Mismatch));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
