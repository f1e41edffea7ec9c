//! A minimal XML parser for SimGrid-style platform/deployment files.
//!
//! Handles exactly what those files use: the `<?xml?>` prolog, a
//! `<!DOCTYPE>` declaration, comments, and nested elements with
//! double- or single-quoted attributes (including self-closing tags).
//! Character data, CDATA, entities and namespaces are not needed and not
//! supported (text content is ignored).

/// An XML element: name, attributes in document order, children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    pub name: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<Element>,
}

impl Element {
    /// Creates an element with a name and no attributes/children.
    pub fn new(name: &str) -> Self {
        Element { name: name.to_string(), ..Default::default() }
    }

    /// Value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Attribute parsed as `T`, with a descriptive error.
    pub fn attr_parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, XmlError> {
        let v = self
            .attr(key)
            .ok_or_else(|| XmlError(format!("<{}> missing attribute {key:?}", self.name)))?;
        v.parse().map_err(|_| {
            XmlError(format!("<{}> attribute {key}={v:?} is not a valid value", self.name))
        })
    }

    /// Adds an attribute (builder style).
    pub fn with_attr(mut self, key: &str, value: impl ToString) -> Self {
        self.attrs.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a child (builder style).
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(child);
        self
    }

    /// First child with the given name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All children with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Serialises with 2-space indentation (SimGrid file style).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out, 0);
        out
    }

    fn write_xml(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>\n");
        } else {
            out.push_str(">\n");
            for c in &self.children {
                c.write_xml(out, depth + 1);
            }
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str("</");
            out.push_str(&self.name);
            out.push_str(">\n");
        }
    }
}

fn escape(v: &str) -> String {
    v.replace('&', "&amp;").replace('<', "&lt;").replace('"', "&quot;")
}

fn unescape(v: &str) -> String {
    v.replace("&lt;", "<").replace("&gt;", ">").replace("&quot;", "\"").replace("&amp;", "&")
}

/// Malformed XML (or unsupported construct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError(pub String);

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "xml error: {}", self.0)
    }
}

impl std::error::Error for XmlError {}

/// The deepest element nesting [`parse`] accepts, the root being
/// depth 1. Real platform and deployment files nest a handful of
/// levels; the bound keeps the recursive descent far inside the stack.
pub const MAX_DEPTH: usize = 256;

/// Parses a document, returning its root element.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut p = Parser { s: input.as_bytes(), pos: 0 };
    p.skip_prolog();
    let root = p.parse_element(1)?;
    p.skip_misc();
    if p.pos < p.s.len() {
        return Err(XmlError(format!("trailing content at byte {}", p.pos)));
    }
    Ok(root)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn starts_with(&self, pat: &str) -> bool {
        self.s[self.pos..].starts_with(pat.as_bytes())
    }

    fn skip_until(&mut self, pat: &str) -> Result<(), XmlError> {
        let hay = &self.s[self.pos..];
        match hay.windows(pat.len()).position(|w| w == pat.as_bytes()) {
            Some(i) => {
                self.pos += i + pat.len();
                Ok(())
            }
            None => Err(XmlError(format!("unterminated construct, expected {pat:?}"))),
        }
    }

    /// Skips whitespace, comments, prolog, doctype.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if self.skip_until("-->").is_err() {
                    self.pos = self.s.len();
                }
            } else if self.starts_with("<?") {
                if self.skip_until("?>").is_err() {
                    self.pos = self.s.len();
                }
            } else if self.starts_with("<!") {
                if self.skip_until(">").is_err() {
                    self.pos = self.s.len();
                }
            } else {
                return;
            }
        }
    }

    fn skip_prolog(&mut self) {
        self.skip_misc();
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while self.pos < self.s.len() {
            let c = self.s[self.pos];
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b':' || c == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XmlError(format!("expected name at byte {start}")));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    /// Parses the element at the cursor, `depth` levels deep.
    fn parse_element(&mut self, depth: usize) -> Result<Element, XmlError> {
        if depth > MAX_DEPTH {
            return Err(XmlError(format!(
                "element at byte {} is nested {depth} levels deep (the limit is {MAX_DEPTH})",
                self.pos
            )));
        }
        if !self.starts_with("<") {
            return Err(XmlError(format!("expected '<' at byte {}", self.pos)));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut el = Element::new(&name);
        loop {
            self.skip_ws();
            if self.starts_with("/>") {
                self.pos += 2;
                return Ok(el);
            }
            if self.starts_with(">") {
                self.pos += 1;
                break;
            }
            // Attribute.
            let key = self.parse_name()?;
            self.skip_ws();
            if !self.starts_with("=") {
                return Err(XmlError(format!("attribute {key:?} missing '='")));
            }
            self.pos += 1;
            self.skip_ws();
            let quote = *self
                .s
                .get(self.pos)
                .ok_or_else(|| XmlError("unexpected end in attribute".into()))?;
            if quote != b'"' && quote != b'\'' {
                return Err(XmlError(format!("attribute {key:?} value must be quoted")));
            }
            self.pos += 1;
            let vstart = self.pos;
            while self.pos < self.s.len() && self.s[self.pos] != quote {
                self.pos += 1;
            }
            if self.pos >= self.s.len() {
                return Err(XmlError(format!("unterminated value for {key:?}")));
            }
            let value =
                unescape(&String::from_utf8_lossy(&self.s[vstart..self.pos]));
            self.pos += 1;
            el.attrs.push((key, value));
        }
        // Children until the closing tag.
        loop {
            self.skip_misc();
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != el.name {
                    return Err(XmlError(format!(
                        "mismatched closing tag: expected </{}>, got </{close}>",
                        el.name
                    )));
                }
                self.skip_ws();
                if !self.starts_with(">") {
                    return Err(XmlError("malformed closing tag".into()));
                }
                self.pos += 1;
                return Ok(el);
            }
            if self.starts_with("<") {
                el.children.push(self.parse_element(depth + 1)?);
            } else if self.pos >= self.s.len() {
                return Err(XmlError(format!("unclosed element <{}>", el.name)));
            } else {
                // Text content: skipped (not used by the file formats).
                while self.pos < self.s.len() && self.s[self.pos] != b'<' {
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(levels: usize) -> String {
        format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels))
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let mut el = parse(&nested(MAX_DEPTH)).unwrap();
        let mut depth = 1;
        while let Some(child) = el.children.pop() {
            el = child;
            depth += 1;
        }
        assert_eq!(depth, MAX_DEPTH);
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains(&format!("nested {} levels deep", MAX_DEPTH + 1)), "{err}");
        // Far deeper input fails the same way instead of overflowing.
        assert!(parse(&nested(100_000)).unwrap_err().0.contains("levels deep"));
    }

    #[test]
    fn parses_figure_5_platform_file() {
        // Verbatim from the paper (Figure 5).
        let doc = r#"<?xml version='1.0'?>
<!DOCTYPE platform SYSTEM "simgrid.dtd">
<platform version="3">
<AS id="AS_mysite" routing="Full">
<cluster id="AS_mycluster"
prefix="mycluster-" suffix=".mysite.fr"
radical="0-3" power="1.17E9"
bw="1.25E8" lat="16.67E-6"
bb_bw="1.25E9" bb_lat="16.67E-6"/>
</AS>
</platform>"#;
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "platform");
        assert_eq!(root.attr("version"), Some("3"));
        let as_el = root.child("AS").unwrap();
        assert_eq!(as_el.attr("routing"), Some("Full"));
        let cluster = as_el.child("cluster").unwrap();
        assert_eq!(cluster.attr("prefix"), Some("mycluster-"));
        assert_eq!(cluster.attr("radical"), Some("0-3"));
        let power: f64 = cluster.attr_parse("power").unwrap();
        assert_eq!(power, 1.17e9);
    }

    #[test]
    fn parses_figure_6_deployment_file() {
        let doc = r#"<?xml version='1.0'?>
<!DOCTYPE platform SYSTEM "simgrid.dtd">
<platform version="3">
<process host="mycluster-0.mysite.fr" function="p0"/>
<process host="mycluster-1.mysite.fr" function="p1">
  <argument value="SG_process1.trace"/>
</process>
</platform>"#;
        let root = parse(doc).unwrap();
        let procs: Vec<_> = root.children_named("process").collect();
        assert_eq!(procs.len(), 2);
        assert_eq!(procs[0].attr("function"), Some("p0"));
        let arg = procs[1].child("argument").unwrap();
        assert_eq!(arg.attr("value"), Some("SG_process1.trace"));
    }

    #[test]
    fn roundtrip_through_to_xml() {
        let el = Element::new("platform")
            .with_attr("version", 3)
            .with_child(
                Element::new("cluster")
                    .with_attr("id", "c")
                    .with_attr("power", "1E9"),
            );
        let text = el.to_xml();
        let back = parse(&text).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn attribute_escaping_roundtrips() {
        let el = Element::new("x").with_attr("v", "a<b&\"c\"");
        let back = parse(&el.to_xml()).unwrap();
        assert_eq!(back.attr("v"), Some("a<b&\"c\""));
    }

    #[test]
    fn single_quoted_attributes() {
        let root = parse("<a k='v'/>").unwrap();
        assert_eq!(root.attr("k"), Some("v"));
    }

    #[test]
    fn comments_are_skipped() {
        let root = parse("<!-- hi --><a><!-- inner --><b/></a>").unwrap();
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn errors_on_mismatched_tags() {
        assert!(parse("<a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a k=v/>").is_err());
    }

    #[test]
    fn attr_parse_reports_bad_values() {
        let root = parse("<a n=\"xyz\"/>").unwrap();
        let e = root.attr_parse::<f64>("n").unwrap_err();
        assert!(e.0.contains("xyz"));
        assert!(root.attr_parse::<f64>("missing").is_err());
    }
}
