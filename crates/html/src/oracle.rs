//! The HTML engine as it stood before the one-pass parser, the
//! parent-linked DOM and the streaming `Builder`:
//! its escaping, DOM-building `Builder` and renderer, two-phase parser
//! (token vector, then tree) and selector walk, kept verbatim as the
//! differential oracle for the code that replaced them.
//!
//! The file is self-contained so that the crawler's tests can compile it
//! too (`#[path]`), to compare its extraction against the old engine.
#![allow(dead_code)]

// ---- escape.rs ----

/// Escape text content: `&`, `<`, `>`.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape an attribute value (double-quoted context): text escapes plus `"`.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Unescape the named entities we emit plus `&#NN;` / `&#xHH;` numeric
/// references. Unknown entities pass through literally (browser behaviour).
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            if let Some(semi) = s[i..].find(';').map(|j| i + j) {
                let entity = &s[i + 1..semi];
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
                if let Some(c) = decoded {
                    // Entities longer than 24 chars are junk, not entities.
                    if entity.len() <= 24 {
                        out.push(c);
                        i = semi + 1;
                        continue;
                    }
                }
            }
        }
        let ch = s[i..].chars().next().expect("in-bounds char");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

// ---- dom.rs ----

/// Index of a node in its document's arena.
pub type NodeId = usize;

/// Elements that never have children and render without a closing tag.
pub const VOID_ELEMENTS: &[&str] =
    &["br", "hr", "img", "input", "meta", "link", "area", "base", "col", "embed", "source", "wbr"];

/// One DOM node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// An element: tag name, attributes in source order, child node ids.
    Element {
        /// Tag.
        tag: String,
        /// Attrs.
        attrs: Vec<(String, String)>,
        /// Children.
        children: Vec<NodeId>,
    },
    /// A text node (unescaped content).
    Text(String),
    /// A comment (`<!-- ... -->`).
    Comment(String),
}

/// A parsed or built HTML document.
///
/// Nodes live in an arena; the document root is a virtual element that holds
/// top-level nodes. Use [`Document::select`] to query, [`Document::render`]
/// to serialize.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    root_children: Vec<NodeId>,
}

impl Document {
    /// An empty document.
    pub fn new() -> Document {
        Document { nodes: Vec::new(), root_children: Vec::new() }
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the document holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Top-level node ids.
    pub fn roots(&self) -> &[NodeId] {
        &self.root_children
    }

    pub(crate) fn push_node(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    pub(crate) fn add_root(&mut self, id: NodeId) {
        self.root_children.push(id);
    }

    pub(crate) fn add_child(&mut self, parent: NodeId, child: NodeId) {
        if let Node::Element { children, .. } = &mut self.nodes[parent] {
            children.push(child);
        }
    }

    /// Wrap a node id for ergonomic traversal.
    pub fn element(&self, id: NodeId) -> ElementRef<'_> {
        ElementRef { doc: self, id }
    }

    /// All element ids in depth-first document order.
    pub fn all_elements(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.root_children.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            if let Node::Element { children, .. } = &self.nodes[id] {
                out.push(id);
                for &c in children.iter().rev() {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Elements matching a selector, in document order.
    pub fn select(&self, selector: &Selector) -> Vec<ElementRef<'_>> {
        self.all_elements()
            .into_iter()
            .filter(|&id| selector.matches(self, id))
            .map(|id| self.element(id))
            .collect()
    }

    /// First element matching a selector.
    pub fn select_first(&self, selector: &Selector) -> Option<ElementRef<'_>> {
        self.all_elements()
            .into_iter()
            .find(|&id| selector.matches(self, id))
            .map(|id| self.element(id))
    }

    /// Parent of `id`, if any (linear scan; documents here are page-sized).
    pub fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        self.all_ids_with_children()
            .find(|(_, children)| children.contains(&id))
            .map(|(pid, _)| pid)
    }

    fn all_ids_with_children(&self) -> impl Iterator<Item = (NodeId, Vec<NodeId>)> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| match n {
            Node::Element { children, .. } => Some((i, children.clone())),
            _ => None,
        })
    }

    /// Serialize the document to HTML.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &id in &self.root_children {
            self.render_node(id, &mut out);
        }
        out
    }

    fn render_node(&self, id: NodeId, out: &mut String) {
        match &self.nodes[id] {
            Node::Text(t) => out.push_str(&escape_text(t)),
            Node::Comment(c) => {
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
            Node::Element { tag, attrs, children } => {
                out.push('<');
                out.push_str(tag);
                for (k, v) in attrs {
                    out.push(' ');
                    out.push_str(k);
                    out.push_str("=\"");
                    out.push_str(&escape_attr(v));
                    out.push('"');
                }
                out.push('>');
                if !VOID_ELEMENTS.contains(&tag.as_str()) {
                    for &c in children {
                        self.render_node(c, out);
                    }
                    out.push_str("</");
                    out.push_str(tag);
                    out.push('>');
                }
            }
        }
    }
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

/// A borrowed view of an element node.
#[derive(Debug, Clone, Copy)]
pub struct ElementRef<'a> {
    doc: &'a Document,
    id: NodeId,
}

impl<'a> ElementRef<'a> {
    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Tag name, lowercase.
    pub fn tag(&self) -> &'a str {
        match self.doc.node(self.id) {
            Node::Element { tag, .. } => tag,
            _ => "",
        }
    }

    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&'a str> {
        match self.doc.node(self.id) {
            Node::Element { attrs, .. } => attrs
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str()),
            _ => None,
        }
    }

    /// Space-separated class list.
    pub fn classes(&self) -> Vec<&'a str> {
        self.attr("class")
            .map(|c| c.split_whitespace().collect())
            .unwrap_or_default()
    }

    /// `true` if the element carries the class.
    pub fn has_class(&self, class: &str) -> bool {
        self.classes().contains(&class)
    }

    /// Child element refs.
    pub fn children(&self) -> Vec<ElementRef<'a>> {
        match self.doc.node(self.id) {
            Node::Element { children, .. } => children
                .iter()
                .filter(|&&c| matches!(self.doc.node(c), Node::Element { .. }))
                .map(|&c| ElementRef { doc: self.doc, id: c })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Concatenated text content of the subtree, whitespace-normalized.
    pub fn text(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        self.collect_text(self.id, &mut parts);
        parts.join(" ").split_whitespace().collect::<Vec<_>>().join(" ")
    }

    fn collect_text(&self, id: NodeId, out: &mut Vec<String>) {
        match self.doc.node(id) {
            Node::Text(t) => out.push(t.clone()),
            Node::Element { children, .. } => {
                for &c in children {
                    self.collect_text(c, out);
                }
            }
            Node::Comment(_) => {}
        }
    }

    /// Descendant elements matching a selector, in document order.
    pub fn select(&self, selector: &Selector) -> Vec<ElementRef<'a>> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = match self.doc.node(self.id) {
            Node::Element { children, .. } => children.iter().rev().copied().collect(),
            _ => Vec::new(),
        };
        while let Some(id) = stack.pop() {
            if let Node::Element { children, .. } = self.doc.node(id) {
                if selector.matches(self.doc, id) {
                    out.push(ElementRef { doc: self.doc, id });
                }
                for &c in children.iter().rev() {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// First descendant matching a selector.
    pub fn select_first(&self, selector: &Selector) -> Option<ElementRef<'a>> {
        self.select(selector).into_iter().next()
    }

    /// The document this element belongs to.
    pub fn document(&self) -> &'a Document {
        self.doc
    }
}

/// A fluent builder for constructing documents in marketplace templates.
///
/// ```
/// use acctrade_html::dom::Builder;
///
/// let mut b = Builder::new();
/// b.open("div").attr("class", "offer");
/// b.open("a").attr("href", "/offer/1").text("TikTok 2.1M").close();
/// b.close();
/// let html = b.finish().render();
/// assert!(html.contains("class=\"offer\""));
/// ```
pub struct Builder {
    doc: Document,
    stack: Vec<NodeId>,
}

impl Builder {
    /// Start building an empty document.
    pub fn new() -> Builder {
        Builder { doc: Document::new(), stack: Vec::new() }
    }

    /// Open an element and descend into it.
    pub fn open(&mut self, tag: &str) -> &mut Builder {
        let id = self.doc.push_node(Node::Element {
            tag: tag.to_ascii_lowercase(),
            attrs: Vec::new(),
            children: Vec::new(),
        });
        match self.stack.last() {
            Some(&parent) => self.doc.add_child(parent, id),
            None => self.doc.add_root(id),
        }
        self.stack.push(id);
        self
    }

    /// Set an attribute on the innermost open element.
    pub fn attr(&mut self, name: &str, value: impl Into<String>) -> &mut Builder {
        if let Some(&id) = self.stack.last() {
            if let Node::Element { attrs, .. } = &mut self.doc.nodes[id] {
                attrs.push((name.to_ascii_lowercase(), value.into()));
            }
        }
        self
    }

    /// Append a text node to the innermost open element.
    pub fn text(&mut self, content: impl Into<String>) -> &mut Builder {
        let id = self.doc.push_node(Node::Text(content.into()));
        match self.stack.last() {
            Some(&parent) => self.doc.add_child(parent, id),
            None => self.doc.add_root(id),
        }
        self
    }

    /// Append a comment node.
    pub fn comment(&mut self, content: impl Into<String>) -> &mut Builder {
        let id = self.doc.push_node(Node::Comment(content.into()));
        match self.stack.last() {
            Some(&parent) => self.doc.add_child(parent, id),
            None => self.doc.add_root(id),
        }
        self
    }

    /// Open a void element (no children, self-closing render).
    pub fn void(&mut self, tag: &str) -> &mut Builder {
        self.open(tag).close()
    }

    /// Close the innermost open element.
    pub fn close(&mut self) -> &mut Builder {
        self.stack.pop();
        self
    }

    /// Shorthand: `<tag>text</tag>`.
    pub fn leaf(&mut self, tag: &str, text: &str) -> &mut Builder {
        self.open(tag).text(text).close()
    }

    /// Finish building; closes any still-open elements.
    pub fn finish(mut self) -> Document {
        self.stack.clear();
        self.doc
    }
}

impl Default for Builder {
    fn default() -> Self {
        Builder::new()
    }
}

// ---- parser.rs ----

/// Parse HTML text into a [`Document`]. Never fails; invalid constructs are
/// skipped or auto-corrected like a browser would.
pub fn parse(input: &str) -> Document {
    let tokens = tokenize(input);
    build_tree(tokens)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Open { tag: String, attrs: Vec<(String, String)>, self_closing: bool },
    Close { tag: String },
    Text(String),
    Comment(String),
}

fn tokenize(input: &str) -> Vec<Token> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut text_start = 0;

    while i < bytes.len() {
        if bytes[i] == b'<' {
            // Flush pending text.
            if i > text_start {
                let raw = &input[text_start..i];
                if !raw.is_empty() {
                    tokens.push(Token::Text(unescape(raw)));
                }
            }
            if input[i..].starts_with("<!--") {
                let end = input[i + 4..].find("-->").map(|j| i + 4 + j);
                match end {
                    Some(e) => {
                        tokens.push(Token::Comment(input[i + 4..e].to_string()));
                        i = e + 3;
                    }
                    None => {
                        // Unterminated comment swallows the rest.
                        tokens.push(Token::Comment(input[i + 4..].to_string()));
                        i = bytes.len();
                    }
                }
                text_start = i;
                continue;
            }
            if input[i..].starts_with("<!") {
                // DOCTYPE or bogus declaration: skip to '>'.
                match input[i..].find('>') {
                    Some(j) => i += j + 1,
                    None => i = bytes.len(),
                }
                text_start = i;
                continue;
            }
            match input[i..].find('>') {
                Some(j) => {
                    let inner = &input[i + 1..i + j];
                    i += j + 1;
                    text_start = i;
                    if let Some(tag) = inner.strip_prefix('/') {
                        let tag = tag.trim().to_ascii_lowercase();
                        if !tag.is_empty() {
                            tokens.push(Token::Close { tag });
                        }
                    } else if !inner.trim().is_empty() {
                        if let Some(tok) = parse_open_tag(inner) {
                            tokens.push(tok);
                        }
                    }
                }
                None => {
                    // Dangling '<' at EOF: treat as text.
                    tokens.push(Token::Text(unescape(&input[i..])));
                    i = bytes.len();
                    text_start = i;
                }
            }
        } else {
            i += 1;
        }
    }
    if text_start < bytes.len() {
        tokens.push(Token::Text(unescape(&input[text_start..])));
    }
    tokens
}

fn parse_open_tag(inner: &str) -> Option<Token> {
    let inner = inner.trim();
    let self_closing = inner.ends_with('/');
    let inner = inner.strip_suffix('/').unwrap_or(inner).trim();
    let mut chars = inner.char_indices();
    let tag_end = chars
        .find(|&(_, c)| c.is_whitespace())
        .map(|(idx, _)| idx)
        .unwrap_or(inner.len());
    let tag = inner[..tag_end].to_ascii_lowercase();
    if tag.is_empty() || !tag.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
        return None;
    }
    let attrs = parse_attrs(&inner[tag_end..]);
    Some(Token::Open { tag, attrs, self_closing })
}

fn parse_attrs(s: &str) -> Vec<(String, String)> {
    // Char-boundary-safe scanner: `i` always sits on a boundary, advanced
    // by each char's UTF-8 width (attribute names in the wild include
    // arbitrary Unicode).
    let mut attrs = Vec::new();
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
        let name = s[name_start..i].to_lowercase();
        if name.is_empty() {
            i += at(i).map(char::len_utf8).unwrap_or(1);
            continue;
        }
        i = skip_ws(i);
        if at(i) == Some('=') {
            i += 1;
            i = skip_ws(i);
            match at(i) {
                Some(quote @ ('"' | '\'')) => {
                    i += 1;
                    let val_start = i;
                    while let Some(c) = at(i) {
                        if c == quote {
                            break;
                        }
                        i += c.len_utf8();
                    }
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
            attrs.push((name, String::new()));
        }
    }
    attrs
}

fn build_tree(tokens: Vec<Token>) -> Document {
    let mut doc = Document::new();
    let mut stack: Vec<(NodeId, String)> = Vec::new();

    let attach = |doc: &mut Document, stack: &[(NodeId, String)], node: Node| -> NodeId {
        let id = doc.push_node(node);
        match stack.last() {
            Some(&(parent, _)) => doc.add_child(parent, id),
            None => doc.add_root(id),
        }
        id
    };

    for token in tokens {
        match token {
            Token::Text(t) => {
                if !t.is_empty() {
                    attach(&mut doc, &stack, Node::Text(t));
                }
            }
            Token::Comment(c) => {
                attach(&mut doc, &stack, Node::Comment(c));
            }
            Token::Open { tag, attrs, self_closing } => {
                let id = attach(
                    &mut doc,
                    &stack,
                    Node::Element { tag: tag.clone(), attrs, children: Vec::new() },
                );
                if !self_closing && !VOID_ELEMENTS.contains(&tag.as_str()) {
                    stack.push((id, tag));
                }
            }
            Token::Close { tag } => {
                // Pop to the matching open tag; if none is open, ignore the
                // stray close (browser behaviour).
                if let Some(pos) = stack.iter().rposition(|(_, t)| *t == tag) {
                    stack.truncate(pos);
                }
            }
        }
    }
    doc
}

// ---- select.rs ----

/// One simple (compound) selector: tag/id/class/attr constraints that must
/// all hold on a single element.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Compound {
    tag: Option<String>,
    id: Option<String>,
    classes: Vec<String>,
    attrs: Vec<(String, Option<String>)>,
}

impl Compound {
    fn matches(&self, doc: &Document, id: NodeId) -> bool {
        let Node::Element { tag, attrs, .. } = doc.node(id) else {
            return false;
        };
        if let Some(t) = &self.tag {
            if t != tag {
                return false;
            }
        }
        let get = |name: &str| {
            attrs
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        };
        if let Some(want_id) = &self.id {
            if get("id") != Some(want_id.as_str()) {
                return false;
            }
        }
        if !self.classes.is_empty() {
            let have: Vec<&str> = get("class").map(|c| c.split_whitespace().collect()).unwrap_or_default();
            if !self.classes.iter().all(|c| have.contains(&c.as_str())) {
                return false;
            }
        }
        for (name, want) in &self.attrs {
            match (get(name), want) {
                (None, _) => return false,
                (Some(_), None) => {}
                (Some(v), Some(w)) => {
                    if v != w {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// A parsed selector: a chain of compounds joined by descendant combinators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selector {
    chain: Vec<Compound>,
}

/// Error produced by [`Selector::parse`] on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectorParseError(pub String);

impl std::fmt::Display for SelectorParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad selector: {}", self.0)
    }
}

impl std::error::Error for SelectorParseError {}

impl Selector {
    /// Parse a selector string.
    pub fn parse(s: &str) -> Result<Selector, SelectorParseError> {
        let err = || SelectorParseError(s.to_string());
        let mut chain = Vec::new();
        for part in s.split_whitespace() {
            chain.push(parse_compound(part).ok_or_else(err)?);
        }
        if chain.is_empty() {
            return Err(err());
        }
        Ok(Selector { chain })
    }

    /// Does the element `id` match this selector (with its ancestors
    /// satisfying the leading compounds)?
    pub fn matches(&self, doc: &Document, id: NodeId) -> bool {
        let (last, prefix) = self.chain.split_last().expect("non-empty chain");
        if !last.matches(doc, id) {
            return false;
        }
        // Walk ancestors, greedily consuming the prefix right-to-left.
        let mut needed: Vec<&Compound> = prefix.iter().collect();
        let mut current = id;
        while let Some(next_needed) = needed.last() {
            match doc.parent_of(current) {
                Some(parent) => {
                    if next_needed.matches(doc, parent) {
                        needed.pop();
                    }
                    current = parent;
                }
                None => return false,
            }
        }
        true
    }
}

fn parse_compound(s: &str) -> Option<Compound> {
    let mut tag = None;
    let mut id = None;
    let mut classes = Vec::new();
    let mut attrs = Vec::new();

    let bytes = s.as_bytes();
    let mut i = 0;

    // Leading tag or '*'.
    if i < bytes.len() && bytes[i] != b'#' && bytes[i] != b'.' && bytes[i] != b'[' {
        let start = i;
        while i < bytes.len() && bytes[i] != b'#' && bytes[i] != b'.' && bytes[i] != b'[' {
            i += 1;
        }
        let t = &s[start..i];
        if t != "*" {
            if !t.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
                return None;
            }
            tag = Some(t.to_ascii_lowercase());
        }
    }

    while i < bytes.len() {
        match bytes[i] {
            b'#' => {
                i += 1;
                let start = i;
                while i < bytes.len() && bytes[i] != b'#' && bytes[i] != b'.' && bytes[i] != b'[' {
                    i += 1;
                }
                if start == i {
                    return None;
                }
                id = Some(s[start..i].to_string());
            }
            b'.' => {
                i += 1;
                let start = i;
                while i < bytes.len() && bytes[i] != b'#' && bytes[i] != b'.' && bytes[i] != b'[' {
                    i += 1;
                }
                if start == i {
                    return None;
                }
                classes.push(s[start..i].to_string());
            }
            b'[' => {
                let close = s[i..].find(']')? + i;
                let inner = &s[i + 1..close];
                if inner.is_empty() {
                    return None;
                }
                match inner.split_once('=') {
                    Some((k, v)) => {
                        let v = v.trim_matches(|c| c == '"' || c == '\'');
                        attrs.push((k.to_ascii_lowercase(), Some(v.to_string())));
                    }
                    None => attrs.push((inner.to_ascii_lowercase(), None)),
                }
                i = close + 1;
            }
            _ => return None,
        }
    }

    Some(Compound { tag, id, classes, attrs })
}
