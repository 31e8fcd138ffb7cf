//! Wire representation of values and annotations.
//!
//! The line protocol is text; this module fixes the canonical text forms.
//! Values render unambiguously — integers bare, strings always
//! single-quoted — so a rendered response re-parses to the same values, and
//! byte-equality of responses is exactly value-and-annotation equality
//! (what the differential harness pins).
//!
//! Annotations cross the wire as **signed counts**: the client writes
//! `R(a,b)=3` (insert three derivations) or `R(a,b)=-1` (retract one), and
//! [`WireSemiring::from_wire_count`] embeds the count into the session's
//! semiring. Semirings without additive inverses reject negative counts
//! with a structured error instead of panicking — ℤ-relations (PR 6) are
//! the semiring where deletions are first-class, exactly as in Green et
//! al.'s follow-up work on reconcilable differences.

use provsem_core::{Value, ValueRef};
use provsem_semiring::ring::Integers;
use provsem_semiring::{Natural, Semiring};

/// A semiring whose annotations can cross the text protocol: parsed from
/// signed wire counts and rendered canonically. `Send + Sync` because
/// sessions run on server threads and share the snapshot store.
pub trait WireSemiring: Semiring + Send + Sync {
    /// Embeds a signed wire count. Semirings without additive inverses
    /// reject negative counts with a human-readable reason (returned to the
    /// client as a structured `annotation` error).
    fn from_wire_count(count: i64) -> Result<Self, String>;

    /// Appends the canonical text form of an annotation (the `k` of
    /// `(...)@k` row output) to a reply under construction.
    fn write_annotation(&self, out: &mut String);

    /// [`WireSemiring::write_annotation`] into a fresh string.
    fn render_annotation(&self) -> String {
        let mut out = String::new();
        self.write_annotation(&mut out);
        out
    }
}

impl WireSemiring for Integers {
    fn from_wire_count(count: i64) -> Result<Self, String> {
        Ok(Integers(count))
    }

    fn write_annotation(&self, out: &mut String) {
        write_int(out, self.0.unsigned_abs(), self.0 < 0);
    }
}

impl WireSemiring for Natural {
    fn from_wire_count(count: i64) -> Result<Self, String> {
        u64::try_from(count).map(Natural).map_err(|_| {
            format!(
                "negative count {count} needs a ring-annotated session (ℕ has no additive inverses); \
                 serve over ℤ to make deletions first-class"
            )
        })
    }

    fn write_annotation(&self, out: &mut String) {
        write_int(out, self.0, false);
    }
}

/// Appends a decimal integer. Replies are mostly integers (keys, counts),
/// so this skips `fmt`'s machinery: digits go into a stack buffer, then one
/// `push_str`.
fn write_int(out: &mut String, mut magnitude: u64, negative: bool) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    if negative {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends the canonical text form of a value: integers bare, strings always
/// single-quoted with `'` escaped by doubling (`''`), so rendering is
/// injective and [`parse_value`] inverts it.
pub fn write_value(out: &mut String, value: ValueRef<'_>) {
    match value {
        ValueRef::Int(i) => write_int(out, i.unsigned_abs(), i < 0),
        ValueRef::Str(s) => {
            out.push('\'');
            let mut rest = s;
            while let Some(quote) = rest.find('\'') {
                out.push_str(&rest[..=quote]);
                out.push('\'');
                rest = &rest[quote + 1..];
            }
            out.push_str(rest);
            out.push('\'');
        }
    }
}

/// [`write_value`] into a fresh string.
pub fn render_value(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value.as_ref());
    out
}

/// Parses one value token: `-?[0-9]+` is an integer, `'...'` (with `''`
/// escaping an inner quote) is a string, and a bare identifier is a string
/// constant too (matching the datalog syntax, where quoting is only needed
/// for strings that are not identifiers).
pub fn parse_value(token: &str) -> Result<Value, String> {
    let token = token.trim();
    if token.is_empty() {
        return Err("empty value".to_string());
    }
    if token.starts_with('\'') {
        if token.len() < 2 || !token.ends_with('\'') {
            return Err(format!("unterminated quoted value: {token}"));
        }
        let inner = &token[1..token.len() - 1];
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(ch) = chars.next() {
            if ch == '\'' {
                match chars.next() {
                    Some('\'') => out.push('\''),
                    _ => return Err(format!("stray quote inside quoted value: {token}")),
                }
            } else {
                out.push(ch);
            }
        }
        return Ok(Value::from(out));
    }
    if token
        .chars()
        .all(|c| c.is_ascii_digit() || c == '-' || c == '+')
    {
        return token
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| format!("bad integer value {token}: {e}"));
    }
    if token.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Ok(Value::from(token));
    }
    Err(format!(
        "bad value {token}: use an integer, an identifier, or a 'quoted string'"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips() {
        for v in [
            Value::Int(0),
            Value::Int(-7),
            Value::from("plain"),
            Value::from("with space"),
            Value::from("it's"),
            Value::from("'"),
            Value::from("''lead and trail'"),
            Value::from("naïve 'ünï'"),
            Value::from(""),
        ] {
            assert_eq!(parse_value(&render_value(&v)).unwrap(), v);
        }
    }

    #[test]
    fn integers_render_as_display_does() {
        for i in [0, 7, -7, 10, 1_000_000_007, i64::MAX, i64::MIN] {
            assert_eq!(render_value(&Value::Int(i)), i.to_string());
            assert_eq!(Integers(i).render_annotation(), i.to_string());
        }
        assert_eq!(Natural(u64::MAX).render_annotation(), u64::MAX.to_string());
    }

    #[test]
    fn bare_identifiers_are_strings_and_digits_are_ints() {
        assert_eq!(parse_value("abc").unwrap(), Value::from("abc"));
        assert_eq!(parse_value("42").unwrap(), Value::Int(42));
        assert_eq!(parse_value("-3").unwrap(), Value::Int(-3));
        assert_eq!(parse_value("'42'").unwrap(), Value::from("42"));
        assert!(parse_value("a b").is_err());
        assert!(parse_value("'open").is_err());
    }

    #[test]
    fn natural_rejects_negative_counts() {
        assert_eq!(Natural::from_wire_count(2).unwrap(), Natural(2));
        let err = Natural::from_wire_count(-1).unwrap_err();
        assert!(err.contains("additive inverses"), "{err}");
        assert_eq!(Integers::from_wire_count(-1).unwrap(), Integers(-1));
    }
}
