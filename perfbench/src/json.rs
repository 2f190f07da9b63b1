//! A minimal JSON object writer (the vendored serde has no JSON backend).

use std::fmt::Write as _;

/// A JSON object under construction; keys keep insertion order.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

fn number(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` keeps every digit and always prints a valid JSON number.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, number(value))
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, value.to_string())
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, string(value))
    }

    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|&x| number(x)).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    pub fn obj(&mut self, key: &str, value: Obj) -> &mut Self {
        self.raw(key, value.render())
    }

    pub fn objs(&mut self, key: &str, values: Vec<Obj>) -> &mut Self {
        let items: Vec<String> = values.iter().map(Obj::render).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    pub fn render(&self) -> String {
        let items: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{}", string(k), v))
            .collect();
        format!("{{{}}}", items.join(","))
    }
}
