//! Parses served sample bodies back to `f64` bit patterns, so a response can
//! be compared value for value with in-process synthesis.
//!
//! Deliberately independent of the server's own JSON module: the check must
//! not share a parser with the code it checks.

/// Rows of a JSON sample body (`{..., "rows": [[v, ...], ...]}`) as bit
/// patterns. Only the `"rows"` member is read; it must be an array of
/// arrays of numbers.
pub fn json_rows_bits(body: &[u8]) -> Result<Vec<Vec<u64>>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "JSON body is not UTF-8".to_string())?;
    let start = text
        .find("\"rows\"")
        .ok_or_else(|| "JSON body has no \"rows\" member".to_string())?;
    let mut rest = text[start + "\"rows\"".len()..].trim_start();
    rest = rest
        .strip_prefix(':')
        .ok_or("expected ':' after \"rows\"")?
        .trim_start();
    rest = rest.strip_prefix('[').ok_or("\"rows\" is not an array")?;
    let mut rows = Vec::new();
    loop {
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(']') {
            // Anything after the array belongs to the enclosing object.
            if !after.trim_start().starts_with(['}', ',']) {
                return Err("malformed text after the rows array".to_string());
            }
            return Ok(rows);
        }
        if !rows.is_empty() {
            rest = rest
                .strip_prefix(',')
                .ok_or("expected ',' between rows")?
                .trim_start();
        }
        rest = rest.strip_prefix('[').ok_or("a row is not an array")?;
        let end = rest.find(']').ok_or("unterminated row")?;
        let inner = &rest[..end];
        let row = if inner.trim().is_empty() {
            Vec::new()
        } else {
            inner
                .split(',')
                .map(|v| parse_f64(v.trim()).map_err(|e| format!("JSON row {}: {e}", rows.len())))
                .collect::<Result<Vec<_>, _>>()?
        };
        rows.push(row);
        rest = &rest[end + 1..];
    }
}

/// The value of the first `"key": <number>` member in a JSON body, found
/// by name (nested objects included).
pub fn json_number(body: &[u8], key: &str) -> Result<f64, String> {
    let text = std::str::from_utf8(body).map_err(|_| "JSON body is not UTF-8".to_string())?;
    let needle = format!("\"{key}\"");
    let start = text
        .find(&needle)
        .ok_or_else(|| format!("JSON body has no {needle} member"))?;
    let rest = text[start + needle.len()..]
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("expected ':' after {needle}"))?
        .trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|_| format!("{needle} is not a number"))
}

/// Compares parsed rows with the expected bit patterns; the first
/// mismatch is described in the error.
pub fn compare(got: &[Vec<u64>], expected: &[Vec<u64>]) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!("{} rows, expected {}", got.len(), expected.len()));
    }
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        if g.len() != e.len() {
            return Err(format!(
                "row {i} has {} values, expected {}",
                g.len(),
                e.len()
            ));
        }
        if let Some(j) = (0..g.len()).find(|&j| g[j] != e[j]) {
            return Err(format!(
                "row {i} col {j}: got {}, expected {}",
                f64::from_bits(g[j]),
                f64::from_bits(e[j])
            ));
        }
    }
    Ok(())
}

fn parse_f64(text: &str) -> Result<u64, String> {
    let value: f64 = text
        .parse()
        .map_err(|_| format!("{text:?} is not a number"))?;
    if !value.is_finite() {
        return Err(format!("{text:?} is not finite"));
    }
    Ok(value.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(rows: &[&[f64]]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn json_rows_are_read_from_the_sample_body() {
        let third = 1.0 / 3.0;
        let body = format!(
            r#"{{"model":"m","seed":7,"n":3,"rows":[[0.25,1],[-0,3.5e-3],[{third},0.0000001]]}}"#
        );
        let got = json_rows_bits(body.as_bytes()).unwrap();
        assert_eq!(got, bits(&[&[0.25, 1.0], &[-0.0, 0.0035], &[third, 1e-7]]));
        // Negative zero keeps its sign bit.
        assert_ne!(got[1][0], 0.0f64.to_bits());
        let spaced = b"{\"rows\" : [ [1, 2] , [3,4] ] , \"labels\":[0,1]}";
        assert_eq!(
            json_rows_bits(spaced).unwrap(),
            bits(&[&[1.0, 2.0], &[3.0, 4.0]])
        );
        assert_eq!(json_rows_bits(br#"{"rows":[]}"#).unwrap().len(), 0);
    }

    #[test]
    fn malformed_bodies_are_errors() {
        assert!(json_rows_bits(br#"{"rows":[[1,null]]}"#).is_err());
        assert!(json_rows_bits(br#"{"rows":[[1,x]]}"#).is_err());
        assert!(json_rows_bits(br#"{"rows":[[1,]]}"#).is_err());
        assert!(json_rows_bits(br#"{"rows":[[1,2]"#).is_err());
        assert!(json_rows_bits(br#"{"rows":[[1,2][3]]}"#).is_err());
        assert!(json_rows_bits(br#"{"n":2}"#).is_err());
        assert!(json_rows_bits(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn comparison_reports_the_first_difference() {
        let expected = bits(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(compare(&expected, &expected).is_ok());
        let off_by_one_ulp = vec![
            expected[0].clone(),
            vec![expected[1][0], expected[1][1] + 1],
        ];
        let err = compare(&off_by_one_ulp, &expected).unwrap_err();
        assert!(err.starts_with("row 1 col 1"), "{err}");
        assert!(compare(&expected[..1], &expected).is_err());
        assert!(compare(&bits(&[&[1.0], &[3.0, 4.0]]), &expected).is_err());
    }

    #[test]
    fn json_number_finds_nested_members() {
        let body = br#"{"name":"t0","budget":{"spent_epsilon":2.5e0,"budget_epsilon":null}}"#;
        assert_eq!(json_number(body, "spent_epsilon").unwrap(), 2.5);
        assert!(json_number(body, "budget_epsilon").is_err());
        assert!(json_number(body, "missing").is_err());
    }
}
