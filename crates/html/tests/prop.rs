//! Property tests: the parser's browser-grade tolerance guarantees.

use acctrade_html::{parse, Selector};
use foundation::check::pattern;
use foundation::prop_check;

prop_check! {
    /// The parser never panics, whatever bytes arrive.
    fn parser_total_on_arbitrary_input(input in pattern("\\PC{0,300}")) {
        let _ = parse(&input);
    }

    /// Parsing is idempotent through a render cycle: parse → render →
    /// parse → render reaches a fixpoint after the first render.
    fn render_parse_fixpoint(input in pattern("[ -~]{0,200}")) {
        let once = parse(&input).render();
        let twice = parse(&once).render();
        assert_eq!(once, twice);
    }

    /// Every selector hit is genuinely an element with the queried tag.
    fn tag_selection_sound(tag in pattern("(div|span|a|p|li)"), input in pattern("[ -~]{0,200}")) {
        let doc = parse(&input);
        let sel = Selector::parse(&tag).unwrap();
        for el in doc.select(&sel) {
            assert_eq!(el.tag(), tag.as_str());
        }
    }

    /// Documents built from balanced markup survive a roundtrip with
    /// attribute values intact.
    fn attr_values_survive(value in pattern("[a-zA-Z0-9 ._/-]{0,40}")) {
        let html = format!(r#"<div data-x="{value}">t</div>"#);
        let doc = parse(&html);
        let el = doc.select_first(&Selector::parse("div").unwrap()).unwrap();
        assert_eq!(el.attr("data-x"), Some(value.as_str()));
        // And through a render cycle.
        let rendered = doc.render();
        let doc2 = parse(&rendered);
        let el2 = doc2.select_first(&Selector::parse("div").unwrap()).unwrap();
        assert_eq!(el2.attr("data-x"), Some(value.as_str()));
    }

    /// Selector parsing never panics.
    fn selector_parse_total(input in pattern("\\PC{0,60}")) {
        let _ = Selector::parse(&input);
    }
}
