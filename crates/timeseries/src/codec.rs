//! The text codec every bit-exact payload in the workspace shares.
//!
//! Floats travel as their IEEE 754 bit pattern in 16 lowercase,
//! zero-padded hex digits, so a round trip is bit-exact (NaN payloads,
//! signed zeros and subnormals included); observation masks travel as
//! runs of `0`/`1` bytes. Checkpoints, ingest frames, query replies and
//! sketch wire blocks all go through this one module (`sofia-core`
//! re-exports it as `sofia_core::snapshot::wire`).
//!
//! Both directions work on bytes: the encoder looks up two digits per
//! byte of the bit pattern in a table built from the nibble digits and
//! writes them into a stack buffer that is appended to the output (whose
//! room is reserved once per line) in chunks; the decoder runs a
//! 256-entry digit table over the line, with a fast path for the
//! 16-digit tokens the encoder emits.
//!
//! **Accept set of the float parsers.** A token is 1–16 hex digits in
//! either case, optionally preceded by `+`; a longer token is accepted
//! only when its extra leading digits are zeros. Tokens are separated by
//! runs of the ASCII bytes `str::split_whitespace` splits on (space,
//! `\t`, `\n`, `\x0b`, `\x0c`, `\r`). Any other byte — every non-ASCII
//! byte included — is an error.

/// Lowercase hex digit of each nibble.
const NIBBLE: &[u8; 16] = b"0123456789abcdef";

/// The two lowercase hex digits of each byte value.
const BYTE_DIGITS: [[u8; 2]; 256] = {
    let mut table = [[0u8; 2]; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = [NIBBLE[i >> 4], NIBBLE[i & 0xf]];
        i += 1;
    }
    table
};

/// Digit-table entry of a byte that is not a hex digit.
const NOT_HEX: u8 = 0xff;

/// Value of each byte as a hex digit (either case), [`NOT_HEX`] for
/// every other byte.
const DIGIT: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[NIBBLE[i] as usize] = i as u8;
        table[NIBBLE[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Floats encoded per chunk appended to the output.
const CHUNK_FLOATS: usize = 64;

/// Bytes of one encoded float token: a space and 16 digits.
const TOKEN: usize = 17;

/// A line the parsers reject, with a diagnostic naming its label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

/// The ASCII bytes `str::split_whitespace` separates tokens on.
fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r')
}

/// Appends bytes the codec wrote (always ASCII) to `out`.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("the codec writes ASCII only"));
}

/// Writes `bits` as 16 lowercase hex digits, two per table lookup.
fn hex16(bits: u64, dst: &mut [u8]) {
    for (pair, byte) in dst.chunks_exact_mut(2).zip(bits.to_be_bytes()) {
        pair.copy_from_slice(&BYTE_DIGITS[usize::from(byte)]);
    }
}

/// Appends `v`'s bit pattern as 16 lowercase hex digits (no separator).
pub fn push_f64(out: &mut String, v: f64) {
    let mut digits = [0u8; 16];
    hex16(v.to_bits(), &mut digits);
    push_ascii(out, &digits);
}

/// Appends `label v1 v2 …\n`, each float as ` ` + its 16-digit bit
/// pattern.
pub fn push_f64s(out: &mut String, label: &str, values: impl IntoIterator<Item = f64>) {
    let values = values.into_iter();
    out.reserve(label.len() + TOKEN * values.size_hint().0 + 1);
    out.push_str(label);
    let mut buf = [0u8; TOKEN * CHUNK_FLOATS];
    let mut len = 0;
    for v in values {
        buf[len] = b' ';
        hex16(v.to_bits(), &mut buf[len + 1..len + TOKEN]);
        len += TOKEN;
        if len == buf.len() {
            push_ascii(out, &buf);
            len = 0;
        }
    }
    push_ascii(out, &buf[..len]);
    out.push('\n');
}

/// Parses a token of exactly 16 hex digits (either case) — the form
/// [`push_f64s`] and [`push_f64`] emit.
pub fn parse_hex16(tok: &str) -> Option<f64> {
    exact16(tok.as_bytes()).map(f64::from_bits)
}

fn exact16(tok: &[u8]) -> Option<u64> {
    let tok: &[u8; 16] = tok.try_into().ok()?;
    let mut bits = 0u64;
    let mut seen = 0u8;
    for &b in tok {
        let d = DIGIT[b as usize];
        seen |= d;
        bits = bits << 4 | u64::from(d & 0xf);
    }
    (seen & 0xf0 == 0).then_some(bits)
}

/// Parses one hex-float token under the accept set in the module docs.
pub fn parse_f64(tok: &str) -> Option<f64> {
    token(tok.as_bytes()).map(f64::from_bits)
}

fn token(tok: &[u8]) -> Option<u64> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    let mut bits = 0u64;
    for &b in digits {
        let d = DIGIT[b as usize];
        if d == NOT_HEX || bits >> 60 != 0 {
            return None;
        }
        bits = bits << 4 | u64::from(d);
    }
    Some(bits)
}

/// Parses a `label v1 v2 …` line of hex-encoded floats (the line
/// [`push_f64s`] writes, without its newline).
pub fn parse_f64s(line: &str, label: &str) -> Result<Vec<f64>, CodecError> {
    let rest = line
        .strip_prefix(label)
        .ok_or_else(|| CodecError(format!("expected `{label}`")))?;
    tokens(rest.as_bytes()).ok_or_else(|| CodecError(format!("bad float in `{label}`")))
}

fn tokens(s: &[u8]) -> Option<Vec<f64>> {
    let mut out = Vec::with_capacity(s.len() / TOKEN + 1);
    let mut i = 0;
    loop {
        while s.get(i).is_some_and(|&b| is_separator(b)) {
            i += 1;
        }
        if i == s.len() {
            return Some(out);
        }
        let fast = s.get(i..i + 16).and_then(exact16);
        if let Some(bits) = fast.filter(|_| s.get(i + 16).is_none_or(|&b| is_separator(b))) {
            out.push(f64::from_bits(bits));
            i += 16;
        } else {
            let end = s[i..]
                .iter()
                .position(|&b| is_separator(b))
                .map_or(s.len(), |n| i + n);
            out.push(f64::from_bits(token(&s[i..end])?));
            i = end;
        }
    }
}

/// Appends `label` followed by one `0`/`1` byte per flag and a newline.
pub fn push_bits(out: &mut String, label: &str, flags: &[bool]) {
    out.reserve(label.len() + flags.len() + 1);
    out.push_str(label);
    let mut buf = [0u8; 1024];
    for chunk in flags.chunks(buf.len()) {
        for (d, &f) in buf.iter_mut().zip(chunk) {
            *d = b'0' + u8::from(f);
        }
        push_ascii(out, &buf[..chunk.len()]);
    }
    out.push('\n');
}

/// Parses a run of `0`/`1` bytes (the part of a [`push_bits`] line
/// after its label). The error is the first character that is neither.
pub fn parse_bits(bits: &str) -> Result<Vec<bool>, char> {
    if bits.bytes().all(|b| b | 1 == b'1') {
        return Ok(bits.bytes().map(|b| b == b'1').collect());
    }
    Err(bits
        .chars()
        .find(|c| !matches!(c, '0' | '1'))
        .expect("a byte outside `0`/`1`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference encoder: one `core::fmt` call per float.
    fn reference_push(label: &str, values: &[u64]) -> String {
        let mut out = label.to_string();
        for v in values {
            out.push_str(&format!(" {v:016x}"));
        }
        out.push('\n');
        out
    }

    /// Reference parser: `split_whitespace` + `from_str_radix`, on bit
    /// patterns so NaN payloads compare exactly.
    fn reference_parse(line: &str, label: &str) -> Option<Vec<u64>> {
        line.strip_prefix(label)?
            .split_whitespace()
            .map(|tok| u64::from_str_radix(tok, 16).ok())
            .collect()
    }

    /// Reference mask-bit parser: one `char` and one `Result` per bit.
    fn reference_bits(bits: &str) -> Result<Vec<bool>, char> {
        bits.chars()
            .map(|c| match c {
                '1' => Ok(true),
                '0' => Ok(false),
                other => Err(other),
            })
            .collect()
    }

    fn parsed_bits(line: &str, label: &str) -> Option<Vec<u64>> {
        parse_f64s(line, label)
            .ok()
            .map(|v| v.iter().map(|f| f.to_bits()).collect())
    }

    /// splitmix64: a dependency-free deterministic generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Bit patterns covering the IEEE 754 special classes plus `n`
    /// random ones.
    fn patterns(rng: &mut Rng, n: usize) -> Vec<u64> {
        let mut bits = vec![
            0.0f64.to_bits(),
            (-0.0f64).to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::NAN.to_bits(),
            0x7ff0_0000_0000_0001, // signalling NaN
            0xfff8_dead_beef_0042, // negative NaN with a payload
            0x0000_0000_0000_0001, // smallest subnormal
            0x800f_ffff_ffff_ffff, // largest negative subnormal
            f64::MIN_POSITIVE.to_bits(),
            f64::MAX.to_bits(),
            u64::MAX,
        ];
        bits.extend((0..n).map(|_| rng.next()));
        bits
    }

    #[test]
    fn encoder_matches_fmt_byte_for_byte_and_round_trips() {
        let mut rng = Rng(1);
        // Lengths straddling the encoder's chunk size.
        for len in [
            0,
            1,
            2,
            CHUNK_FLOATS - 1,
            CHUNK_FLOATS,
            CHUNK_FLOATS + 1,
            1000,
        ] {
            let bits = patterns(&mut rng, len);
            let mut out = String::from("prefix\n");
            push_f64s(&mut out, "data", bits.iter().map(|&b| f64::from_bits(b)));
            let line = out.strip_prefix("prefix\n").expect("existing text kept");
            assert_eq!(line, reference_push("data", &bits));
            assert_eq!(parsed_bits(line.trim_end(), "data"), Some(bits.clone()));
            for &b in &bits {
                let mut one = String::new();
                push_f64(&mut one, f64::from_bits(b));
                assert_eq!(one, format!("{b:016x}"));
                assert_eq!(parse_f64(&one).map(f64::to_bits), Some(b));
                assert_eq!(parse_hex16(&one).map(f64::to_bits), Some(b));
            }
        }
    }

    /// Mutations of an encoded line: each is a case the parsers must
    /// agree on (same bits, or both an error).
    fn mutate(rng: &mut Rng, line: &str) -> String {
        const BYTES: &[u8] = b"0123456789abcdefABCDEFgGxz+-. \t\n\r\x0b\x0c\x1c\x1f\x00\x7f";
        let mut b = line.as_bytes().to_vec();
        match rng.below(9) {
            // Flip one byte, to a byte of interest or any ASCII byte.
            0 | 1 if !b.is_empty() => {
                let i = rng.below(b.len());
                b[i] = if rng.below(2) == 0 {
                    BYTES[rng.below(BYTES.len())]
                } else {
                    rng.below(128) as u8
                };
            }
            // Truncate anywhere, usually mid-token.
            2 => b.truncate(rng.below(b.len() + 1)),
            // Lengthen a token to 17+ digits, with leading zeros or not.
            3 => {
                let at = line.find(' ').map_or(b.len(), |i| i + 1);
                let pad = if rng.below(2) == 0 { "0" } else { "1" };
                let extra = pad.repeat(1 + rng.below(4));
                b.splice(at..at, extra.bytes());
            }
            // Uppercase some digits.
            4 => {
                for c in b.iter_mut().skip(4) {
                    if rng.below(3) == 0 {
                        *c = c.to_ascii_uppercase();
                    }
                }
            }
            // A `+` (or a doubled one) in front of a token.
            5 => {
                let at = line.rfind(' ').map_or(b.len(), |i| i + 1);
                let plus = if rng.below(4) == 0 { "++" } else { "+" };
                b.splice(at..at, plus.bytes());
            }
            // Runs of tabs and other separators between tokens.
            6 => {
                let seps: [&[u8]; 4] = [b"\t\t\t", b" \t ", b"\x0b\x0c", b"\r"];
                for _ in 0..3 {
                    let i = rng.below(b.len() + 1);
                    b.splice(i..i, seps[rng.below(seps.len())].iter().copied());
                }
            }
            // Empty and label-only lines.
            7 => b.truncate(if rng.below(2) == 0 { 0 } else { 4 }),
            // Short tokens, as a hand-written peer might send.
            _ => {
                let short = format!(" {:x}", rng.next() >> rng.below(64));
                b.extend(short.bytes());
            }
        }
        String::from_utf8(b).expect("ASCII mutations keep UTF-8")
    }

    #[test]
    fn parser_agrees_with_reference_on_mutated_lines() {
        let mut rng = Rng(2);
        let (mut ok, mut err) = (0, 0);
        for case in 0..20_000 {
            let n = rng.below(5);
            let bits = patterns(&mut rng, n);
            let bits = &bits[bits.len() - n.max(1)..];
            let mut line = reference_push("data", bits);
            line.pop();
            for _ in 0..1 + rng.below(3) {
                line = mutate(&mut rng, &line);
            }
            let want = reference_parse(&line, "data");
            assert_eq!(parsed_bits(&line, "data"), want, "case {case}: {line:?}");
            // The single-token parsers against their references.
            for tok in line.split(' ') {
                let reference = u64::from_str_radix(tok, 16).ok();
                assert_eq!(parse_f64(tok).map(f64::to_bits), reference, "{tok:?}");
                let exact = tok.len() == 16 && tok.bytes().all(|b| b.is_ascii_hexdigit());
                assert_eq!(
                    parse_hex16(tok).map(f64::to_bits),
                    exact.then(|| reference.unwrap())
                );
            }
            if want.is_some() {
                ok += 1
            } else {
                err += 1
            }
        }
        // Both outcomes are well represented.
        assert!(ok > 2_000 && err > 2_000, "ok {ok}, err {err}");
    }

    #[test]
    fn named_edge_cases_match_reference() {
        let zeros17 = format!("data {}1", "0".repeat(16));
        let ones17 = format!("data {}", "1".repeat(17));
        let lines = [
            "data",
            "data ",
            "",
            "dat",
            "datum 1",
            "data3ff0000000000000",
            "data +3ff0000000000000",
            "data +",
            "data ++1",
            "data -1",
            "data 3FF0000000000000\t\t\t7ff8000000000000",
            "data \x0b1\x0c2\r",
            "data 1\x1c2",
            "data 0x1",
            zeros17.as_str(),
            ones17.as_str(),
            "data 00000000000000000000000000000000000000000000ffffffffffffffff",
            "data 0000000000000000000000000000000000000000000100000000000000000",
        ];
        for line in lines {
            assert_eq!(
                parsed_bits(line, "data"),
                reference_parse(line, "data"),
                "{line:?}"
            );
        }
        assert_eq!(parsed_bits(&zeros17, "data"), Some(vec![1]));
        assert_eq!(parsed_bits(&ones17, "data"), None);
    }

    #[test]
    fn non_ascii_bytes_are_errors() {
        // `split_whitespace` treats U+00A0 and U+0085 as separators; the
        // byte-level parser rejects every non-ASCII byte instead.
        for line in ["data 1\u{a0}2", "data 1\u{85}2", "data é", "data 1 ٣"] {
            assert!(parse_f64s(line, "data").is_err(), "{line:?}");
        }
        assert_eq!(reference_parse("data 1\u{a0}2", "data"), Some(vec![1, 2]));
        assert_eq!(parse_bits("01\u{a0}1"), Err('\u{a0}'));
        assert_eq!(parse_f64("１"), None);
    }

    #[test]
    fn mask_bits_agree_with_reference_on_mutated_lines() {
        let mut rng = Rng(3);
        for len in [0, 1, 7, 1023, 1024, 1025, 3000] {
            let flags: Vec<bool> = (0..len).map(|_| rng.below(2) == 1).collect();
            let mut out = String::new();
            push_bits(&mut out, "bits ", &flags);
            let reference: String = flags.iter().map(|&f| if f { '1' } else { '0' }).collect();
            assert_eq!(out, format!("bits {reference}\n"));
            assert_eq!(parse_bits(&reference), Ok(flags));
        }
        for case in 0..5_000 {
            let n = rng.below(40);
            let mut line: String = (0..n)
                .map(|_| if rng.below(2) == 1 { '1' } else { '0' })
                .collect();
            for _ in 0..1 + rng.below(3) {
                line = mutate(&mut rng, &line);
            }
            assert_eq!(
                parse_bits(&line),
                reference_bits(&line),
                "case {case}: {line:?}"
            );
        }
    }
}
