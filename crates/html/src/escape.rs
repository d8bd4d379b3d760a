//! HTML entity escaping and unescaping.
//!
//! All three functions copy whole runs between special bytes; only the
//! specials themselves are handled one at a time.

use std::borrow::Cow;

/// Append `s` to `out`, escaping text content: `&`, `<`, `>`.
pub fn escape_text(out: &mut String, s: &str) {
    escape_into(out, s, false);
}

/// Append `s` to `out`, escaping an attribute value (double-quoted
/// context): text escapes plus `"`.
pub fn escape_attr(out: &mut String, s: &str) {
    escape_into(out, s, true);
}

fn escape_into(out: &mut String, s: &str, quote: bool) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if quote => "&quot;",
            _ => continue,
        };
        // Every special is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        out.push_str(escaped);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Entities longer than this many bytes are junk, not entities.
const MAX_ENTITY: usize = 24;

/// Unescape the named entities we emit plus `&#NN;` / `&#xHH;` numeric
/// references. Unknown entities pass through literally (browser behaviour).
/// Borrows `s` when nothing was decoded.
pub fn unescape(s: &str) -> Cow<'_, str> {
    let mut out = String::new();
    // Start of the literal run not yet copied to `out`.
    let mut run = 0;
    let mut from = 0;
    while let Some(j) = s[from..].find('&') {
        let amp = from + j;
        from = amp + 1;
        if let Some((c, end)) = decode_entity(s, amp) {
            out.push_str(&s[run..amp]);
            out.push(c);
            run = end;
            from = end;
        }
    }
    if run == 0 {
        return Cow::Borrowed(s);
    }
    out.push_str(&s[run..]);
    Cow::Owned(out)
}

/// Decode the entity whose `&` sits at `amp`: the character and the offset
/// just past its `;`.
fn decode_entity(s: &str, amp: usize) -> Option<(char, usize)> {
    // Only the first `;` after the `&` can close the entity, and one further
    // than `MAX_ENTITY` bytes away closes junk; `;` is ASCII, so the offset
    // found is a char boundary.
    let window = &s.as_bytes()[amp + 1..s.len().min(amp + 2 + MAX_ENTITY)];
    let semi = amp + 1 + window.iter().position(|&b| b == b';')?;
    let entity = &s[amp + 1..semi];
    let decoded = match entity {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        "nbsp" => Some('\u{a0}'),
        _ => {
            if let Some(hex) = entity.strip_prefix("#x").or(entity.strip_prefix("#X")) {
                u32::from_str_radix(hex, 16).ok().and_then(char::from_u32)
            } else if let Some(dec) = entity.strip_prefix('#') {
                dec.parse::<u32>().ok().and_then(char::from_u32)
            } else {
                None
            }
        }
    };
    decoded.map(|c| (c, semi + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &str) -> String {
        let mut out = String::new();
        escape_text(&mut out, s);
        out
    }

    fn attr(s: &str) -> String {
        let mut out = String::new();
        escape_attr(&mut out, s);
        out
    }

    #[test]
    fn text_escaping_roundtrip() {
        let raw = "price < $50 & followers > 10k";
        assert_eq!(unescape(&text(raw)), raw);
        assert_eq!(text(raw), "price &lt; $50 &amp; followers &gt; 10k");
    }

    #[test]
    fn attr_escaping_handles_quotes() {
        assert_eq!(attr(r#"say "hi""#), "say &quot;hi&quot;");
        assert_eq!(unescape("say &quot;hi&quot;"), r#"say "hi""#);
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(unescape("&#36;64&#x41;"), "$64A");
        assert_eq!(unescape("&#x1F600;"), "😀");
    }

    #[test]
    fn unknown_entities_pass_through() {
        assert_eq!(unescape("&bogus; &"), "&bogus; &");
        assert_eq!(unescape("a&b"), "a&b");
    }

    #[test]
    fn non_ascii_untouched() {
        let s = "prix élevé — 你好";
        assert_eq!(unescape(&text(s)), s);
    }

    #[test]
    fn unescape_borrows_unless_it_decodes() {
        assert!(matches!(unescape("R&B, no entities"), Cow::Borrowed(_)));
        assert!(matches!(unescape("R&amp;B"), Cow::Owned(_)));
    }

    foundation::prop_check! {
        /// The run-copying escapes and unescape agree with the
        /// char-at-a-time code they replaced.
        fn escapes_match_the_oracle(
            s in foundation::check::pattern("(&#?[a-zA-Z0-9]{0,30};?|[<>\"é ]|[ -~]|\\PC){0,24}")
        ) {
            assert_eq!(text(&s), crate::oracle::escape_text(&s));
            assert_eq!(attr(&s), crate::oracle::escape_attr(&s));
            assert_eq!(unescape(&s), crate::oracle::unescape(&s));
        }
    }
}
