//! Plain-text edge lists: `src dst [weight]` per line, `#` comments —
//! the SNAP dataset convention. Vertex count is `max id + 1`, raised to the
//! count [`write_edge_list`]'s header declares and to any larger hint.

use std::io::{BufRead, Write};

use essentials_graph::{Coo, VertexId};

use crate::IoError;

/// The header [`write_edge_list`] emits before `N vertices`.
const HEADER: &str = "# essentials-rs edge list: ";

/// Reads an edge list. The vertex count is at least `min_vertices` and at
/// least what this crate's own header declares, so isolated trailing
/// vertices that no edge mentions survive a round trip. Ids and a declared
/// count that do not fit [`VertexId`] are line-numbered parse errors.
pub fn read_edge_list<R: BufRead>(reader: R, min_vertices: usize) -> Result<Coo<f32>, IoError> {
    let mut edges: Vec<(VertexId, VertexId, f32)> = Vec::new();
    let mut n = min_vertices;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        let err = |what: String| IoError::Parse(format!("line {}: {what}", lineno + 1));
        if let Some(declared) = t
            .strip_prefix(HEADER)
            .and_then(|rest| rest.strip_suffix(" vertices"))
        {
            let declared: u64 = declared
                .parse()
                .map_err(|e| err(format!("bad vertex count: {e}")))?;
            if declared > VertexId::MAX as u64 + 1 {
                return Err(err(format!("{declared} vertices do not fit a vertex id")));
            }
            n = n.max(declared as usize);
            continue;
        }
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let mut id = || -> Result<VertexId, IoError> {
            let tok = it.next().ok_or_else(|| err(format!("truncated: {t}")))?;
            tok.parse()
                .map_err(|e| err(format!("bad id (vertex ids are below 2^32): {e}")))
        };
        let (src, dst) = (id()?, id()?);
        let w: f32 = match it.next() {
            Some(tok) => tok.parse().map_err(|e| err(format!("bad weight: {e}")))?,
            None => 1.0,
        };
        if w.is_nan() {
            return Err(err("NaN weight".to_string()));
        }
        n = n.max(src.max(dst) as usize + 1);
        edges.push((src, dst, w));
    }
    Ok(Coo::from_edges(n, edges))
}

/// Writes `src dst weight` lines.
pub fn write_edge_list<W: Write>(mut w: W, coo: &Coo<f32>) -> std::io::Result<()> {
    writeln!(
        w,
        "# essentials-rs edge list: {} vertices",
        coo.num_vertices()
    )?;
    for (s, d, v) in coo.iter() {
        writeln!(w, "{s} {d} {v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let coo = Coo::from_edges(3, [(0, 1, 2.0f32), (1, 2, 1.0)]);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &coo).unwrap();
        let back = read_edge_list(&buf[..], 0).unwrap();
        assert_eq!(back, coo);
    }

    #[test]
    fn default_weight_is_one_and_comments_skipped() {
        let input = "# snap style\n0 1\n2 0 3.5\n";
        let coo = read_edge_list(input.as_bytes(), 0).unwrap();
        let edges: Vec<_> = coo.iter().collect();
        assert_eq!(edges, vec![(0, 1, 1.0), (2, 0, 3.5)]);
        assert_eq!(coo.num_vertices(), 3);
    }

    #[test]
    fn min_vertices_hint_reserves_isolated_tail() {
        let coo = read_edge_list("0 1\n".as_bytes(), 10).unwrap();
        assert_eq!(coo.num_vertices(), 10);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let coo = read_edge_list("# nothing\n".as_bytes(), 0).unwrap();
        assert_eq!(coo.num_vertices(), 0);
        assert_eq!(coo.num_edges(), 0);
    }

    #[test]
    fn round_trip_keeps_an_isolated_trailing_vertex() {
        let coo = Coo::from_edges(5, [(0, 1, 2.0f32), (1, 2, 1.0)]);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &coo).unwrap();
        assert_eq!(read_edge_list(&buf[..], 0).unwrap(), coo);
    }

    #[test]
    fn a_header_past_the_id_space_is_a_parse_error() {
        let input = "0 1\n# essentials-rs edge list: 4294967297 vertices\n";
        let err = read_edge_list(input.as_bytes(), 0).unwrap_err();
        assert!(matches!(err, IoError::Parse(_)));
        assert!(err.to_string().contains("line 2"), "{err}");
        let fits = "# essentials-rs edge list: 4294967296 vertices\n";
        assert!(read_edge_list(fits.as_bytes(), 0).is_ok());
    }

    #[test]
    fn an_id_past_the_id_space_is_a_parse_error() {
        let err = read_edge_list("0 1\n1 4294967296\n".as_bytes(), 0).unwrap_err();
        assert!(matches!(err, IoError::Parse(_)));
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn bad_lines_error_with_line_numbers() {
        let err = read_edge_list("0 1\nx y\n".as_bytes(), 0).unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }
}
