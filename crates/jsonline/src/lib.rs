//! Dependency-free JSON emission for reports and traces.
//!
//! `sfq-obs` exports its tracer records and metric summaries as JSON
//! lines through this crate, and `analysis::DelaySummary` serializes
//! with it. The build environment has no registry access, so instead of
//! serde this crate provides a tiny [`ToJson`] trait plus the
//! [`impl_to_json!`] macro for report structs — the only serialization
//! shape the workspace needs (flat-ish structs of numbers, strings,
//! options, and vectors).

use std::collections::BTreeMap;

/// Types that can write themselves as a JSON value.
pub trait ToJson {
    /// Append this value's JSON encoding to `out`.
    fn push_json(&self, out: &mut String);

    /// This value's JSON encoding as a fresh string.
    fn to_json(&self) -> String {
        let mut s = String::new();
        self.push_json(&mut s);
        s
    }
}

/// Append `s` as a JSON string literal (with escaping) to `out`.
pub fn push_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn push_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}

impl_to_json_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl ToJson for f64 {
    /// Non-finite values (not representable in JSON) encode as `null`.
    fn push_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&format!("{self}"));
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for f32 {
    fn push_json(&self, out: &mut String) {
        (*self as f64).push_json(out);
    }
}

impl ToJson for bool {
    fn push_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn push_json(&self, out: &mut String) {
        push_json_str(self, out);
    }
}

impl ToJson for String {
    fn push_json(&self, out: &mut String) {
        push_json_str(self, out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn push_json(&self, out: &mut String) {
        (**self).push_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn push_json(&self, out: &mut String) {
        match self {
            Some(v) => v.push_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn push_json(&self, out: &mut String) {
        self.as_slice().push_json(out);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn push_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.push_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn push_json(&self, out: &mut String) {
        self.as_slice().push_json(out);
    }
}

macro_rules! impl_to_json_tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            /// Tuples encode as JSON arrays.
            fn push_json(&self, out: &mut String) {
                out.push('[');
                let mut __first = true;
                $(
                    if !core::mem::take(&mut __first) {
                        out.push(',');
                    }
                    self.$idx.push_json(out);
                )+
                out.push(']');
            }
        }
    };
}

impl_to_json_tuple!(A.0);
impl_to_json_tuple!(A.0, B.1);
impl_to_json_tuple!(A.0, B.1, C.2);
impl_to_json_tuple!(A.0, B.1, C.2, D.3);

impl<K: AsRef<str>, V: ToJson> ToJson for BTreeMap<K, V> {
    fn push_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(k.as_ref(), out);
            out.push(':');
            v.push_json(out);
        }
        out.push('}');
    }
}

/// Implement [`ToJson`] for a struct by listing its fields:
///
/// ```
/// #[derive(Debug, Clone)]
/// pub struct Row { pub flow: u32, pub mean_s: f64 }
/// jsonline::impl_to_json!(Row { flow, mean_s });
/// assert_eq!(
///     jsonline::ToJson::to_json(&Row { flow: 1, mean_s: 0.5 }),
///     r#"{"flow":1,"mean_s":0.5}"#
/// );
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn push_json(&self, out: &mut String) {
                out.push('{');
                let mut __first = true;
                $(
                    if !core::mem::take(&mut __first) {
                        out.push(',');
                    }
                    $crate::push_json_str(stringify!($field), out);
                    out.push(':');
                    $crate::ToJson::push_json(&self.$field, out);
                )+
                out.push('}');
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Inner {
        a: u64,
        b: f64,
    }
    impl_to_json!(Inner { a, b });

    #[derive(Debug)]
    struct Outer {
        name: String,
        items: Vec<Inner>,
        note: Option<String>,
    }
    impl_to_json!(Outer { name, items, note });

    #[test]
    fn scalars_and_strings() {
        assert_eq!(42u64.to_json(), "42");
        assert_eq!((-3i64).to_json(), "-3");
        assert_eq!(2.5f64.to_json(), "2.5");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(true.to_json(), "true");
        assert_eq!("a\"b\\c\nd".to_json(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn nested_structs_vectors_options() {
        let o = Outer {
            name: "run".into(),
            items: vec![Inner { a: 1, b: 0.5 }, Inner { a: 2, b: 1.0 }],
            note: None,
        };
        assert_eq!(
            o.to_json(),
            r#"{"name":"run","items":[{"a":1,"b":0.5},{"a":2,"b":1}],"note":null}"#
        );
    }

    #[test]
    fn map_encodes_as_object() {
        let mut m = BTreeMap::new();
        m.insert("x", 1u64);
        m.insert("y", 2u64);
        assert_eq!(m.to_json(), r#"{"x":1,"y":2}"#);
    }
}
