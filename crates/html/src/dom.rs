//! An arena DOM in document order with parent links, and a builder that
//! writes page HTML straight into a `String`.
//!
//! The parser appends every node to the arena in source order, so the
//! arena *is* the document order, and each node's subtree is the
//! contiguous range from the node to its recorded `end`. Walking a
//! subtree, listing children, and finding the first match are plain index
//! scans; a node's parent is one field away.

use crate::escape::{escape_attr, escape_text};
use crate::select::Selector;
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// Index of a node in its document's arena.
pub type NodeId = usize;

/// Elements that never have children and render without a closing tag.
pub const VOID_ELEMENTS: &[&str] =
    &["br", "hr", "img", "input", "meta", "link", "area", "base", "col", "embed", "source", "wbr"];

/// An attribute: lowercase name and unescaped value.
pub(crate) type Attr<'a> = (Cow<'a, str>, Cow<'a, str>);

/// One DOM node. Strings borrow from the parsed input unless decoding an
/// entity or lowercasing a name changed them.
#[derive(Debug, Clone)]
pub(crate) enum Node<'a> {
    /// An element: lowercase tag, and its attributes in source order as a
    /// range of the document's attribute vector.
    Element { tag: Cow<'a, str>, attrs: Range<usize> },
    /// A text node (unescaped content).
    Text(Cow<'a, str>),
    /// A comment (`<!-- ... -->`).
    Comment(&'a str),
}

#[derive(Debug, Clone)]
struct Slot<'a> {
    node: Node<'a>,
    parent: Option<NodeId>,
    /// One past the node's last descendant: its subtree is `id..end`.
    end: NodeId,
}

/// A parsed HTML document.
///
/// Nodes live in an arena in document order; top-level nodes have no
/// parent. Use [`Document::select`] to query, [`Document::render`] to
/// serialize. `Debug` prints each element's child ids, so two documents
/// with the same tree print the same.
#[derive(Clone, Default)]
pub struct Document<'a> {
    slots: Vec<Slot<'a>>,
    attrs: Vec<Attr<'a>>,
}

impl<'a> Document<'a> {
    pub(crate) fn with_capacity(nodes: usize) -> Document<'a> {
        Document { slots: Vec::with_capacity(nodes), attrs: Vec::new() }
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the document holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node<'a> {
        &self.slots[id].node
    }

    /// Append a node as the last child of `parent` (or as the last
    /// top-level node). It has no descendants until [`Document::close`].
    pub(crate) fn push(&mut self, node: Node<'a>, parent: Option<NodeId>) -> NodeId {
        let id = self.slots.len();
        self.slots.push(Slot { node, parent, end: id + 1 });
        id
    }

    /// The attribute vector, which the parser appends an element's
    /// attributes to before it pushes the element.
    pub(crate) fn attrs_mut(&mut self) -> &mut Vec<Attr<'a>> {
        &mut self.attrs
    }

    /// End element `id`: every node appended so far lies in its subtree.
    pub(crate) fn close(&mut self, id: NodeId) {
        self.slots[id].end = self.slots.len();
    }

    /// Tag and attributes of an element; `None` for text and comments.
    pub(crate) fn element_parts(&self, id: NodeId) -> Option<(&str, &[Attr<'a>])> {
        match &self.slots[id].node {
            Node::Element { tag, attrs } => Some((tag, &self.attrs[attrs.clone()])),
            _ => None,
        }
    }

    /// Child node ids of `id`, in order.
    fn children_of(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.siblings(id + 1, self.slots[id].end)
    }

    /// The nodes starting at `first` and each next sibling before `end`.
    fn siblings(&self, first: NodeId, end: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut next = first;
        std::iter::from_fn(move || {
            let c = next;
            (c < end).then(|| {
                next = self.slots[c].end;
                c
            })
        })
    }

    /// Top-level node ids.
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.siblings(0, self.slots.len())
    }

    /// Wrap a node id for ergonomic traversal.
    pub fn element(&self, id: NodeId) -> ElementRef<'_> {
        ElementRef { doc: self, id }
    }

    /// Elements matching a selector, in document order.
    pub fn select(&self, selector: &Selector) -> Vec<ElementRef<'_>> {
        (0..self.len())
            .filter(|&id| selector.matches(self, id))
            .map(|id| self.element(id))
            .collect()
    }

    /// First element matching a selector.
    pub fn select_first(&self, selector: &Selector) -> Option<ElementRef<'_>> {
        (0..self.len()).find(|&id| selector.matches(self, id)).map(|id| self.element(id))
    }

    /// Parent of `id`, if any.
    pub fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        self.slots[id].parent
    }

    /// Serialize the document to HTML.
    pub fn render(&self) -> String {
        let mut out = String::new();
        // Open non-void elements, innermost last.
        let mut open: Vec<(NodeId, &str)> = Vec::new();
        for (id, slot) in self.slots.iter().enumerate() {
            while let Some(&(top, tag)) = open.last() {
                if self.slots[top].end > id {
                    break;
                }
                close_tag(&mut out, tag);
                open.pop();
            }
            match &slot.node {
                Node::Text(t) => escape_text(&mut out, t),
                Node::Comment(c) => {
                    out.push_str("<!--");
                    out.push_str(c);
                    out.push_str("-->");
                }
                Node::Element { tag, attrs } => {
                    out.push('<');
                    out.push_str(tag);
                    for (k, v) in &self.attrs[attrs.clone()] {
                        write_attr(&mut out, k, v);
                    }
                    out.push('>');
                    if !VOID_ELEMENTS.contains(&&**tag) {
                        open.push((id, tag));
                    }
                }
            }
        }
        for &(_, tag) in open.iter().rev() {
            close_tag(&mut out, tag);
        }
        out
    }
}

/// ` name="value"`, the value escaped. The name is written as given.
fn write_attr(out: &mut String, name: &str, value: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    escape_attr(out, value);
    out.push('"');
}

fn close_tag(out: &mut String, tag: &str) {
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

impl fmt::Debug for Document<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Nodes<'d, 'a>(&'d Document<'a>);
        struct NodeView<'d, 'a>(&'d Document<'a>, NodeId);
        impl fmt::Debug for Nodes<'_, '_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries((0..self.0.len()).map(|id| NodeView(self.0, id))).finish()
            }
        }
        impl fmt::Debug for NodeView<'_, '_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let NodeView(doc, id) = *self;
                match doc.node(id) {
                    Node::Element { tag, attrs } => f
                        .debug_struct("Element")
                        .field("tag", tag)
                        .field("attrs", &&doc.attrs[attrs.clone()])
                        .field("children", &doc.children_of(id).collect::<Vec<_>>())
                        .finish(),
                    Node::Text(t) => f.debug_tuple("Text").field(t).finish(),
                    Node::Comment(c) => f.debug_tuple("Comment").field(c).finish(),
                }
            }
        }
        f.debug_struct("Document")
            .field("nodes", &Nodes(self))
            .field("root_children", &self.roots().collect::<Vec<_>>())
            .finish()
    }
}

/// A borrowed view of an element node.
#[derive(Debug, Clone, Copy)]
pub struct ElementRef<'a> {
    doc: &'a Document<'a>,
    id: NodeId,
}

impl<'a> ElementRef<'a> {
    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Tag name, lowercase.
    pub fn tag(&self) -> &'a str {
        self.doc.element_parts(self.id).map_or("", |(tag, _)| tag)
    }

    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&'a str> {
        let (_, attrs) = self.doc.element_parts(self.id)?;
        attrs.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| &**v)
    }

    /// `true` if the element's space-separated class list holds `class`.
    pub fn has_class(&self, class: &str) -> bool {
        self.attr("class").is_some_and(|c| c.split_whitespace().any(|have| have == class))
    }

    /// Child elements, in order.
    pub fn children(&self) -> impl Iterator<Item = ElementRef<'a>> + 'a {
        let doc = self.doc;
        doc.children_of(self.id)
            .filter(move |&c| matches!(doc.node(c), Node::Element { .. }))
            .map(move |id| ElementRef { doc, id })
    }

    /// The subtree's nodes after this one, in document order.
    fn descendants(&self) -> Range<NodeId> {
        self.id + 1..self.doc.slots[self.id].end
    }

    /// Concatenated text content of the subtree, whitespace-normalized:
    /// its text nodes' words, in order, joined by single spaces.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for slot in &self.doc.slots[self.id..self.doc.slots[self.id].end] {
            if let Node::Text(t) = &slot.node {
                for word in t.split_whitespace() {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(word);
                }
            }
        }
        out
    }

    /// Descendant elements matching a selector, in document order.
    pub fn select(&self, selector: &Selector) -> Vec<ElementRef<'a>> {
        let doc = self.doc;
        self.descendants()
            .filter(|&id| selector.matches(doc, id))
            .map(|id| ElementRef { doc, id })
            .collect()
    }

    /// First descendant matching a selector.
    pub fn select_first(&self, selector: &Selector) -> Option<ElementRef<'a>> {
        let doc = self.doc;
        self.descendants().find(|&id| selector.matches(doc, id)).map(|id| ElementRef { doc, id })
    }
}

/// Writes page HTML into one `String` as the template calls arrive: a
/// start tag when an element opens, escaped text, and a closing tag when
/// it closes.
///
/// Its output is what building the tree first and then rendering it
/// would give: an attribute always lands in its element's start tag,
/// even when set after the element's content; nothing inside a void
/// element is written, nor a void element's closing tag; and
/// [`Builder::finish`] closes every element still open.
///
/// ```
/// use acctrade_html::dom::Builder;
///
/// let mut b = Builder::new();
/// b.open("div").attr("class", "offer");
/// b.open("a").attr("href", "/offer/1").text("TikTok 2.1M").close();
/// b.close();
/// let html = b.finish();
/// assert_eq!(html, r#"<div class="offer"><a href="/offer/1">TikTok 2.1M</a></div>"#);
/// ```
#[derive(Default)]
pub struct Builder {
    out: String,
    /// The lowercase tags of the open elements, concatenated.
    tags: String,
    open: Vec<Open>,
}

/// An element the builder has opened and not yet closed.
struct Open {
    /// Where its tag starts in `Builder::tags`.
    tag_at: usize,
    /// Offset of its start tag's `>` in the output, once written.
    gt: Option<usize>,
    void: bool,
    /// It lies inside a void element, so none of it is written.
    muted: bool,
}

impl Builder {
    /// Start building an empty document.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Make room for content in the innermost open element: write its
    /// start tag's `>` if still pending. `false` when content there is
    /// not rendered (inside a void element).
    fn content(&mut self) -> bool {
        match self.open.last_mut() {
            None => true,
            Some(top) if top.void || top.muted => false,
            Some(top) => {
                if top.gt.is_none() {
                    top.gt = Some(self.out.len());
                    self.out.push('>');
                }
                true
            }
        }
    }

    /// Open an element and descend into it.
    pub fn open(&mut self, tag: &str) -> &mut Builder {
        let muted = !self.content();
        let tag_at = self.tags.len();
        self.tags.push_str(tag);
        self.tags[tag_at..].make_ascii_lowercase();
        let tag = &self.tags[tag_at..];
        if !muted {
            self.out.push('<');
            self.out.push_str(tag);
        }
        let void = VOID_ELEMENTS.contains(&tag);
        self.open.push(Open { tag_at, gt: None, void, muted });
        self
    }

    /// Set an attribute on the innermost open element.
    pub fn attr(&mut self, name: &str, value: impl AsRef<str>) -> &mut Builder {
        let Some(top) = self.open.last_mut() else { return self };
        if top.muted {
            return self;
        }
        let at = self.out.len();
        write_attr(&mut self.out, name, value.as_ref());
        self.out[at + 1..at + 1 + name.len()].make_ascii_lowercase();
        if let Some(gt) = top.gt {
            // Set after the element's content: move it into the start tag.
            let attr = self.out.split_off(at);
            self.out.insert_str(gt, &attr);
            top.gt = Some(gt + attr.len());
        }
        self
    }

    /// Append text to the innermost open element.
    pub fn text(&mut self, content: impl AsRef<str>) -> &mut Builder {
        if self.content() {
            escape_text(&mut self.out, content.as_ref());
        }
        self
    }

    /// Append a comment.
    pub fn comment(&mut self, content: impl AsRef<str>) -> &mut Builder {
        if self.content() {
            self.out.push_str("<!--");
            self.out.push_str(content.as_ref());
            self.out.push_str("-->");
        }
        self
    }

    /// Open and close a void element (rendered without a closing tag).
    pub fn void(&mut self, tag: &str) -> &mut Builder {
        self.open(tag).close()
    }

    /// Close the innermost open element.
    pub fn close(&mut self) -> &mut Builder {
        if let Some(top) = self.open.pop() {
            if !top.muted {
                if top.gt.is_none() {
                    self.out.push('>');
                }
                if !top.void {
                    close_tag(&mut self.out, &self.tags[top.tag_at..]);
                }
            }
            self.tags.truncate(top.tag_at);
        }
        self
    }

    /// Shorthand: `<tag>text</tag>`.
    pub fn leaf(&mut self, tag: &str, text: &str) -> &mut Builder {
        self.open(tag).text(text).close()
    }

    /// Finish building: close any still-open elements and return the HTML.
    pub fn finish(mut self) -> String {
        while !self.open.is_empty() {
            self.close();
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn builder_produces_nested_markup() {
        let mut b = Builder::new();
        b.open("ul").attr("id", "offers");
        for i in 0..2 {
            b.open("li").leaf("span", &format!("offer {i}")).close();
        }
        b.close();
        assert_eq!(
            b.finish(),
            "<ul id=\"offers\"><li><span>offer 0</span></li><li><span>offer 1</span></li></ul>"
        );
    }

    #[test]
    fn text_is_escaped_on_render() {
        let mut b = Builder::new();
        b.leaf("p", "a < b & c");
        assert_eq!(b.finish(), "<p>a &lt; b &amp; c</p>");
    }

    #[test]
    fn void_elements_render_without_closing_tag() {
        let mut b = Builder::new();
        b.open("div").void("br").close();
        assert_eq!(b.finish(), "<div><br></div>");
    }

    #[test]
    fn element_text_concatenates_subtree() {
        let doc = parse("<div>price: <b>$157</b> total</div>");
        assert_eq!(doc.element(0).text(), "price: $157 total");
    }

    #[test]
    fn classes_parse() {
        let doc = parse(r#"<div class="offer featured sold"></div>"#);
        let el = doc.element(0);
        assert!(el.has_class("featured"));
        assert!(el.has_class("sold"));
        assert!(!el.has_class("off"));
    }

    #[test]
    fn unbalanced_builder_is_tolerated() {
        let mut b = Builder::new();
        b.open("div").open("span").text("dangling");
        assert_eq!(b.finish(), "<div><span>dangling</span></div>");
    }

    #[test]
    fn late_attributes_and_void_content_render_like_the_tree() {
        let mut b = Builder::new();
        b.open("DIV").text("x").attr("Data-A", "1").open("img").text("lost").attr("src", "a").close();
        b.attr("b", "\"2\"");
        assert_eq!(b.finish(), r#"<div data-a="1" b="&quot;2&quot;">x<img src="a"></div>"#);
    }

    #[test]
    fn parent_links_and_subtrees() {
        let doc = parse("<ul><li>a</li><li>b<br></li></ul><p>c</p>");
        let roots: Vec<NodeId> = doc.roots().collect();
        assert_eq!(roots, [0, 6]);
        assert_eq!(doc.parent_of(0), None);
        let lis: Vec<NodeId> = doc.element(0).children().map(|e| e.id()).collect();
        assert_eq!(lis, [1, 3]);
        assert_eq!(doc.parent_of(5), Some(3));
        assert_eq!(doc.parent_of(7), Some(6));
    }

    /// Tags, attribute names and strings the builder differential draws
    /// from: mixed case, void and empty tags, escapes, non-ASCII.
    const TAGS: &[&str] = &["div", "SPAN", "a", "br", "IMG", "Li", "", "x-é"];
    const NAMES: &[&str] = &["class", "HREF", "data-Field", "é"];
    const STRINGS: &[&str] = &["", "plain", "a < b & c > d", "\"quoted\" 'single'", "prix élevé", "&amp; &#65;"];

    /// Apply op `code` to a builder: open, attr, text, comment, void,
    /// leaf or close, with arguments picked by the rest of the code.
    macro_rules! apply {
        ($b:expr, $code:expr) => {{
            let (op, arg) = ($code % 8, ($code / 8) as usize);
            let (tag, name, text) = (TAGS[arg % TAGS.len()], NAMES[arg % NAMES.len()], STRINGS[arg % STRINGS.len()]);
            match op {
                0 => {
                    $b.open(tag);
                }
                1 | 2 => {
                    $b.attr(name, text);
                }
                3 => {
                    $b.text(text);
                }
                4 => {
                    $b.comment(text);
                }
                5 => {
                    $b.void(tag);
                }
                6 => {
                    $b.leaf(tag, text);
                }
                _ => {
                    $b.close();
                }
            }
        }};
    }

    foundation::prop_check! {
        /// The streaming builder writes byte for byte what building the
        /// tree and rendering it wrote, over random and unbalanced op
        /// sequences: late attributes, content inside void elements,
        /// stray closes, and elements left open for `finish`.
        fn builder_matches_oracle_bytes(codes in foundation::check::vec(0u64..4096, 0..48)) {
            let mut new = Builder::new();
            let mut old = crate::oracle::Builder::new();
            for &code in &codes {
                apply!(new, code);
                apply!(old, code);
            }
            assert_eq!(new.finish(), old.finish().render(), "{codes:?}");
        }
    }
}
