//! A tolerant HTML parser that builds the tree in one pass.
//!
//! Real marketplace HTML is messy; the paper's crawler had to survive it.
//! This parser implements browser-like error tolerance for the cases that
//! occur in our templates and their mutations: unclosed tags, stray closing
//! tags, attributes with or without quotes, void elements, comments, and
//! doctype declarations.
//!
//! It scans for each `<` and `>` with `str::find`, appends each node to the
//! arena as it is recognised, and matches a closing tag against the stack
//! of open elements without allocating. Text and attribute values borrow
//! from the input unless an entity had to be decoded.

use crate::dom::{Attr, Document, Node, NodeId, VOID_ELEMENTS};
use crate::escape::unescape;
use std::borrow::Cow;

/// Parse HTML text into a [`Document`]. Never fails; invalid constructs are
/// skipped or auto-corrected like a browser would.
pub fn parse(input: &str) -> Document<'_> {
    // Template pages run at 11 to 30 input bytes per node, so this
    // reservation rarely has to grow.
    let mut tree = Tree { doc: Document::with_capacity(input.len() / 12), open: Vec::new() };
    let mut i = 0;
    while i < input.len() {
        let lt = input[i..].find('<').map_or(input.len(), |j| i + j);
        if lt > i {
            tree.text(&input[i..lt]);
        }
        if lt == input.len() {
            break;
        }
        let rest = &input[lt..];
        i = if let Some(comment) = rest.strip_prefix("<!--") {
            // An unterminated comment swallows the rest.
            let end = comment.find("-->");
            tree.leaf(Node::Comment(&comment[..end.unwrap_or(comment.len())]));
            end.map_or(input.len(), |e| lt + 4 + e + 3)
        } else if rest.starts_with("<!") {
            // DOCTYPE or bogus declaration: skip to '>'.
            rest.find('>').map_or(input.len(), |j| lt + j + 1)
        } else if let Some(j) = rest.find('>') {
            let inner = &rest[1..j];
            if let Some(tag) = inner.strip_prefix('/') {
                tree.close(tag.trim());
            } else {
                tree.open_tag(inner);
            }
            lt + j + 1
        } else {
            // Dangling '<' at EOF: the rest is text.
            tree.text(rest);
            input.len()
        };
    }
    tree.finish()
}

/// The document under construction and its open elements, innermost last.
struct Tree<'a> {
    doc: Document<'a>,
    open: Vec<NodeId>,
}

impl<'a> Tree<'a> {
    fn leaf(&mut self, node: Node<'a>) -> NodeId {
        self.doc.push(node, self.open.last().copied())
    }

    fn text(&mut self, raw: &'a str) {
        self.leaf(Node::Text(unescape(raw)));
    }

    fn open_tag(&mut self, inner: &'a str) {
        let inner = inner.trim();
        let self_closing = inner.ends_with('/');
        let inner = inner.strip_suffix('/').unwrap_or(inner).trim();
        let tag_end = inner.find(char::is_whitespace).unwrap_or(inner.len());
        let name = &inner[..tag_end];
        if !name.starts_with(|c: char| c.is_ascii_alphabetic()) {
            return;
        }
        let tag = ascii_lowercase(name);
        let void = VOID_ELEMENTS.contains(&&*tag);
        let first_attr = self.doc.attrs_mut().len();
        parse_attrs(&inner[tag_end..], self.doc.attrs_mut());
        let attrs = first_attr..self.doc.attrs_mut().len();
        let id = self.leaf(Node::Element { tag, attrs });
        if !self_closing && !void {
            self.open.push(id);
        }
    }

    /// Pop to the matching open element; if none is open, ignore the
    /// stray close (browser behaviour).
    fn close(&mut self, tag: &str) {
        if tag.is_empty() {
            return;
        }
        // Open tags are stored lowercase, so this is equality of the
        // lowercased names.
        let pos = self.open.iter().rposition(|&id| {
            self.doc.element_parts(id).is_some_and(|(open, _)| open.eq_ignore_ascii_case(tag))
        });
        if let Some(pos) = pos {
            self.close_from(pos);
        }
    }

    fn close_from(&mut self, pos: usize) {
        for &id in &self.open[pos..] {
            self.doc.close(id);
        }
        self.open.truncate(pos);
    }

    fn finish(mut self) -> Document<'a> {
        self.close_from(0);
        self.doc
    }
}

fn ascii_lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

fn parse_attrs<'a>(s: &'a str, attrs: &mut Vec<Attr<'a>>) {
    // Char-boundary-safe scanner: `i` always sits on a boundary, advanced
    // by each char's UTF-8 width (attribute names in the wild include
    // arbitrary Unicode).
    let mut i = 0;
    let at = |i: usize| s[i..].chars().next();
    let skip_ws = |mut i: usize| {
        while let Some(c) = s[i..].chars().next() {
            if !c.is_whitespace() {
                break;
            }
            i += c.len_utf8();
        }
        i
    };
    while i < s.len() {
        i = skip_ws(i);
        if i >= s.len() {
            break;
        }
        let name_start = i;
        while let Some(c) = at(i) {
            if c.is_whitespace() || c == '=' {
                break;
            }
            i += c.len_utf8();
        }
        let raw_name = &s[name_start..i];
        if raw_name.is_empty() {
            i += at(i).map(char::len_utf8).unwrap_or(1);
            continue;
        }
        let name = if raw_name.is_ascii() {
            ascii_lowercase(raw_name)
        } else {
            Cow::Owned(raw_name.to_lowercase())
        };
        i = skip_ws(i);
        if at(i) == Some('=') {
            i += 1;
            i = skip_ws(i);
            match at(i) {
                Some(quote @ ('"' | '\'')) => {
                    i += 1;
                    let val_start = i;
                    i = s[i..].find(quote).map_or(s.len(), |j| i + j);
                    attrs.push((name, unescape(&s[val_start..i])));
                    i += at(i).map(char::len_utf8).unwrap_or(0); // past closing quote
                }
                _ => {
                    let val_start = i;
                    while let Some(c) = at(i) {
                        if c.is_whitespace() {
                            break;
                        }
                        i += c.len_utf8();
                    }
                    attrs.push((name, unescape(&s[val_start..i])));
                }
            }
        } else {
            // Boolean attribute.
            attrs.push((name, Cow::Borrowed("")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::Selector;

    #[test]
    fn parses_simple_page() {
        let doc = parse("<html><body><h1>Accounts</h1><p>38,253 for sale</p></body></html>");
        let h1 = doc.select_first(&Selector::parse("h1").unwrap()).unwrap();
        assert_eq!(h1.text(), "Accounts");
        let p = doc.select_first(&Selector::parse("p").unwrap()).unwrap();
        assert_eq!(p.text(), "38,253 for sale");
    }

    #[test]
    fn attributes_quoted_unquoted_boolean() {
        let doc = parse(r#"<input type="text" name=q disabled value='x y'>"#);
        let el = doc.element(0);
        assert_eq!(el.attr("type"), Some("text"));
        assert_eq!(el.attr("name"), Some("q"));
        assert_eq!(el.attr("disabled"), Some(""));
        assert_eq!(el.attr("value"), Some("x y"));
    }

    #[test]
    fn unclosed_tags_are_recovered() {
        let doc = parse("<div><p>first<p>second</div><span>after</span>");
        // Both <p> elements exist; the unclosed first <p> swallows "first".
        let ps = doc.select(&Selector::parse("p").unwrap());
        assert_eq!(ps.len(), 2);
        let span = doc.select_first(&Selector::parse("span").unwrap()).unwrap();
        assert_eq!(span.text(), "after");
    }

    #[test]
    fn stray_close_ignored() {
        let doc = parse("</div><p>ok</p>");
        assert_eq!(doc.select(&Selector::parse("p").unwrap()).len(), 1);
    }

    #[test]
    fn comments_and_doctype() {
        let doc = parse("<!DOCTYPE html><!-- header --><div>x</div>");
        assert_eq!(doc.select(&Selector::parse("div").unwrap()).len(), 1);
        let has_comment = (0..doc.len()).any(|i| matches!(doc.node(i), Node::Comment(c) if c.contains("header")));
        assert!(has_comment);
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let doc = parse(r#"<a href="/q?a=1&amp;b=2">R&amp;B &lt;3</a>"#);
        let a = doc.element(0);
        assert_eq!(a.attr("href"), Some("/q?a=1&b=2"));
        assert_eq!(a.text(), "R&B <3");
    }

    #[test]
    fn void_elements_do_not_nest() {
        let doc = parse("<div><br><img src=x.png><span>in div</span></div>");
        let div = doc.element(0);
        // span must be a child of div, not of img.
        let span = div.select_first(&Selector::parse("span").unwrap()).unwrap();
        assert_eq!(span.text(), "in div");
        let img = div.select_first(&Selector::parse("img").unwrap()).unwrap();
        assert_eq!(img.children().count(), 0);
    }

    #[test]
    fn self_closing_syntax() {
        let doc = parse("<div><widget/><p>after</p></div>");
        let div = doc.element(0);
        assert_eq!(div.children().count(), 2);
    }

    #[test]
    fn dangling_angle_is_text() {
        let doc = parse("price < 100");
        let texts: Vec<String> = (0..doc.len())
            .filter_map(|i| match doc.node(i) {
                Node::Text(t) => Some(t.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(texts.join(""), "price < 100");
    }

    #[test]
    fn unterminated_comment_swallows_rest() {
        let doc = parse("<div>a</div><!-- never closed <p>ghost</p>");
        assert_eq!(doc.select(&Selector::parse("p").unwrap()).len(), 0);
    }

    #[test]
    fn roundtrip_render_parse_preserves_structure() {
        let html = r#"<div class="offer" data-id="7"><a href="/offer/7">IG <b>26,998</b> followers</a><br><span>$298</span></div>"#;
        let doc = parse(html);
        let rendered = doc.render();
        let doc2 = parse(&rendered);
        assert_eq!(doc.render(), doc2.render());
        let a = doc2.select_first(&Selector::parse("a").unwrap()).unwrap();
        assert_eq!(a.text(), "IG 26,998 followers");
    }

    /// Selectors the differential runs: every compound form, descendant
    /// chains, and the crawler's own extraction selectors.
    const SELECTORS: &[&str] = &[
        "*",
        "a",
        "div",
        "p span",
        "li",
        ".a",
        ".a.b",
        ".a .b",
        "div .a p",
        "#x",
        "[href]",
        "[class=a]",
        "a[data-field=profile]",
        "[data-field=price]",
        ".seller a",
        ".seller .country",
        "span.price",
        "h1.offer-title",
        "#offer-fields",
    ];

    /// Tag soup: mixed-case and void tags, quoted, bare and boolean
    /// attributes, entities, comments, doctypes, stray and unterminated
    /// tags, and non-ASCII whitespace.
    const SOUP: &str = "(<(div|DIV|p|a|A|span|br|BR|img|li|ul|h1)(( |\t|\n|\u{a0})(class|CLASS|id|href|data-field|Ünï)(( )?=( )?(\"(a|b|a b|seller|x&amp;y|<q>|'|&#34;|&#x41;)\"|'(a|b c|\")'|(a|b|x|[a-z.&;#0-9]{0,5})))?){0,3}( )?>|<(div|DIV|p|a|A|span|br|BR|img|li|ul|h1)(( |\t|\n|\u{a0})(class|CLASS|id|href|data-field|Ünï)(( )?=( )?(\"(a|b|a b|seller|x&amp;y|<q>|'|&#34;|&#x41;)\"|'(a|b c|\")'|(a|b|x|[a-z.&;#0-9]{0,5})))?){0,3}( )?>|<(div|DIV|p|a|A|span|br|BR|img|li|ul|h1)(( |\t|\n|\u{a0})(class|CLASS|id|href|data-field|Ünï)(( )?=( )?(\"(a|b|a b|seller|x&amp;y|<q>|'|&#34;|&#x41;)\"|'(a|b c|\")'|(a|b|x|[a-z.&;#0-9]{0,5})))?){0,3}( )?>|</(div|DIV|p|a|A|span|li|ul|h1|x)( )?>|</(div|DIV|p|a|A|span|li|ul|h1|x)( )?>|<(div|br|a)( class=a)?/>|[a-z &;#0-9<>\t\n\u{a0}\u{b}-]{1,6}|(seller|country|price) |&(amp|lt|gt|quot|apos|nbsp|#x41|#65|#X1F600|#xZZ|bogus);|<!--[a-z <>-]{0,5}-->|(<!DOCTYPE html>|<[ -~]{0,6})){0,40}(<!--[a-z<>]{0,4})?";

    fn ids<T>(els: impl IntoIterator<Item = T>, id: impl Fn(T) -> NodeId) -> Vec<NodeId> {
        els.into_iter().map(id).collect()
    }

    /// The one-pass parser and the new selector walk give what the
    /// two-phase parser and the old walk gave on `input`: the same tree (by
    /// `Debug`), the same rendering, parents, children, text and
    /// attributes, and the same matches for every selector, document-wide
    /// and under every element.
    fn assert_same_as_oracle(input: &str) {
        use crate::oracle;
        let new = parse(input);
        let old = oracle::parse(input);
        assert_eq!(format!("{new:?}"), format!("{old:?}"), "{input:?}");
        assert_eq!(new.render(), old.render(), "{input:?}");
        for id in 0..new.len() {
            assert_eq!(new.parent_of(id), old.parent_of(id));
            let (n, o) = (new.element(id), old.element(id));
            assert_eq!(n.tag(), o.tag());
            assert_eq!(n.text(), o.text());
            for name in ["class", "HREF", "id", "data-field"] {
                assert_eq!(n.attr(name), o.attr(name));
            }
            for class in ["a", "b", "seller"] {
                assert_eq!(n.has_class(class), o.has_class(class));
            }
            assert_eq!(ids(n.children(), |e| e.id()), ids(o.children(), |e| e.id()));
        }
        for s in SELECTORS {
            let ns = Selector::parse(s).unwrap();
            let os = oracle::Selector::parse(s).unwrap();
            assert_eq!(ids(new.select(&ns), |e| e.id()), ids(old.select(&os), |e| e.id()), "{s}");
            assert_eq!(new.select_first(&ns).map(|e| e.id()), old.select_first(&os).map(|e| e.id()));
            for id in 0..new.len() {
                let (n, o) = (new.element(id), old.element(id));
                assert_eq!(ids(n.select(&ns), |e| e.id()), ids(o.select(&os), |e| e.id()), "{s} under {id}");
                assert_eq!(n.select_first(&ns).map(|e| e.id()), o.select_first(&os).map(|e| e.id()));
            }
        }
    }

    #[test]
    fn differential_regressions() {
        for input in [
            "",
            "<",
            "a < b < c",
            "<div><p>first<p>second</div><span>after</span>",
            "<DIV class=a><Div CLASS='a b'><p>x</P></div></DIV>tail",
            "<br>text<img src=x/><a/>b<!-- c --><!--open",
            "<!DOCTYPE html><!x",
            "<a href=\"q&amp;r\" title='&#x41;&bogus;'>R&amp;B &lt;3 &#xZZ; &</a>",
            "<p\u{a0}class=a>nbsp</p><p\u{b}id=x>vt</p>",
            "<a =x b= c =>d</a></ x><//>",
        ] {
            assert_same_as_oracle(input);
        }
    }

    foundation::prop_check! {
        /// The parser and selector walk match the oracle on the arbitrary
        /// inputs of `tests/prop.rs`.
        fn dom_matches_oracle_on_arbitrary_input(input in foundation::check::pattern("\\PC{0,300}")) {
            assert_same_as_oracle(&input);
        }

        /// … on printable ASCII, the render-fixpoint property's input.
        fn dom_matches_oracle_on_printable_input(input in foundation::check::pattern("[ -~]{0,200}")) {
            assert_same_as_oracle(&input);
        }

        /// … and on tag soup, which reaches the tree-building paths the
        /// two strategies above rarely do.
        fn dom_matches_oracle_on_tag_soup(input in foundation::check::pattern(SOUP)) {
            assert_same_as_oracle(&input);
        }
    }
}
