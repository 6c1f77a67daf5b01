//! Zone-file (master file, RFC 1035 §5) parsing and serialisation.
//!
//! Supports the subset the reproduction needs: `$ORIGIN` / `$TTL`
//! directives, one record per line, `@` for the origin, relative names,
//! comments, and the presentation formats emitted by
//! [`RData::presentation`](crate::rdata::RData::presentation) (hex blobs for
//! key/signature material, `\# n hex` for unknown types). Multi-line
//! parenthesised records are intentionally out of scope — our serialiser
//! never emits them.

#![expect(
    clippy::indexing_slicing,
    reason = "zone text is operator-authored, not hostile wire input"
)]

use crate::name::Name;
use crate::rdata::{
    unhex, CsyncData, DnskeyData, DsData, Nsec3Data, Nsec3ParamData, NsecData, RData, RrsigData,
    SoaData,
};
use crate::record::{Record, RecordClass, RecordType};
use crate::typebitmap::TypeBitmap;
use std::fmt;

/// Errors raised by the zone-file parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete zone file into records.
///
/// `default_origin` seeds `$ORIGIN`; a `$ORIGIN` directive in the file
/// overrides it.
pub fn parse_zone_file(text: &str, default_origin: &Name) -> Result<Vec<Record>, ParseError> {
    let mut origin = default_origin.clone();
    let mut default_ttl: u32 = 3600;
    let mut last_owner: Option<Name> = None;
    let mut records = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw);
        if line.trim().is_empty() {
            continue;
        }
        let starts_with_ws = line.starts_with(' ') || line.starts_with('\t');
        let tokens = tokenize(line).map_err(|reason| ParseError {
            line: lineno,
            reason,
        })?;
        if tokens.is_empty() {
            continue;
        }
        if tokens[0] == "$ORIGIN" {
            let n = tokens.get(1).ok_or_else(|| ParseError {
                line: lineno,
                reason: "$ORIGIN needs a name".into(),
            })?;
            origin = Name::parse(n).map_err(|e| ParseError {
                line: lineno,
                reason: e.to_string(),
            })?;
            continue;
        }
        if tokens[0] == "$TTL" {
            default_ttl = tokens
                .get(1)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ParseError {
                    line: lineno,
                    reason: "$TTL needs a number".into(),
                })?;
            continue;
        }

        let mut i = 0;
        // Owner: blank start means "previous owner".
        let owner = if starts_with_ws {
            last_owner.clone().ok_or_else(|| ParseError {
                line: lineno,
                reason: "record with no owner and no previous owner".into(),
            })?
        } else {
            let tok = &tokens[0];
            i = 1;
            resolve_name(tok, &origin).map_err(|reason| ParseError {
                line: lineno,
                reason,
            })?
        };

        // Optional TTL and class, in either order.
        let mut ttl = default_ttl;
        let mut class = RecordClass::In;
        loop {
            let Some(tok) = tokens.get(i) else {
                return Err(ParseError {
                    line: lineno,
                    reason: "record is missing a type".into(),
                });
            };
            if let Ok(n) = tok.parse::<u32>() {
                ttl = n;
                i += 1;
            } else if tok.eq_ignore_ascii_case("IN") {
                class = RecordClass::In;
                i += 1;
            } else if tok.eq_ignore_ascii_case("CH") {
                class = RecordClass::Ch;
                i += 1;
            } else {
                break;
            }
        }
        let type_tok = &tokens[i];
        let rtype = RecordType::from_mnemonic(type_tok).ok_or_else(|| ParseError {
            line: lineno,
            reason: format!("unknown record type {type_tok}"),
        })?;
        i += 1;
        let rdata = parse_rdata(rtype, &tokens[i..], &origin).map_err(|reason| ParseError {
            line: lineno,
            reason,
        })?;
        last_owner = Some(owner.clone());
        records.push(Record {
            name: owner,
            class,
            ttl,
            rdata,
        });
    }
    Ok(records)
}

/// Serialise records into zone-file text with a `$ORIGIN` header.
///
/// Names are written fully qualified, so the output is origin-independent
/// and round-trips through [`parse_zone_file`].
pub fn to_zone_file(origin: &Name, records: &[Record]) -> String {
    let mut out = String::new();
    out.push_str(&format!("$ORIGIN {origin}\n"));
    for r in records {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out
}

fn strip_comment(line: &str) -> &str {
    // A ';' starts a comment unless inside a quoted string or escaped.
    let mut in_quote = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 1, // skip the escaped character everywhere
            b'"' => in_quote = !in_quote,
            b';' if !in_quote => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn tokenize(line: &str) -> Result<Vec<String>, String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut in_quote = false;
    let mut chars = line.chars().peekable();
    let mut quoted_token = false;
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                if in_quote {
                    // Closing quote: push even if empty (empty TXT string).
                    tokens.push(format!("\"{cur}"));
                    cur.clear();
                    in_quote = false;
                    quoted_token = false;
                } else {
                    in_quote = true;
                    quoted_token = true;
                }
            }
            '\\' => {
                // Keep escapes verbatim (the name/TXT parsers decode
                // them); a backslash protects the next character both
                // inside and outside quotes, so `\"` in a name token does
                // not open a string.
                cur.push('\\');
                if let Some(&n) = chars.peek() {
                    cur.push(n);
                    chars.next();
                }
            }
            c if c.is_whitespace() && !in_quote => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if in_quote {
        return Err("unterminated quoted string".into());
    }
    if !cur.is_empty() || quoted_token {
        tokens.push(cur);
    }
    Ok(tokens)
}

fn resolve_name(tok: &str, origin: &Name) -> Result<Name, String> {
    if tok == "@" {
        return Ok(origin.clone());
    }
    if tok.ends_with('.') && !tok.ends_with("\\.") {
        return Name::parse(tok).map_err(|e| e.to_string());
    }
    let rel = Name::parse(tok).map_err(|e| e.to_string())?;
    rel.concat(origin).map_err(|e| e.to_string())
}

fn parse_u8(tok: Option<&String>, what: &str) -> Result<u8, String> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("bad or missing {what}"))
}

fn parse_u16(tok: Option<&String>, what: &str) -> Result<u16, String> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("bad or missing {what}"))
}

fn parse_u32(tok: Option<&String>, what: &str) -> Result<u32, String> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("bad or missing {what}"))
}

fn parse_name_tok(tok: Option<&String>, origin: &Name, what: &str) -> Result<Name, String> {
    let t = tok.ok_or_else(|| format!("missing {what}"))?;
    resolve_name(t, origin)
}

fn parse_hex_tok(tok: Option<&String>, what: &str) -> Result<Vec<u8>, String> {
    let t = tok.ok_or_else(|| format!("missing {what}"))?;
    unhex(t).ok_or_else(|| format!("bad hex in {what}"))
}

fn parse_rdata(rtype: RecordType, toks: &[String], origin: &Name) -> Result<RData, String> {
    // RFC 3597 generic form works for any type.
    if toks.first().map(String::as_str) == Some("\\#") {
        let len: usize = toks
            .get(1)
            .and_then(|t| t.parse().ok())
            .ok_or("bad \\# length")?;
        let data = if len == 0 {
            Vec::new()
        } else {
            parse_hex_tok(toks.get(2), "\\# data")?
        };
        if data.len() != len {
            return Err("\\# length mismatch".into());
        }
        return Ok(match rtype {
            RecordType::Opt => RData::Opt(data),
            other => RData::Unknown {
                rtype: other.code(),
                data,
            },
        });
    }
    Ok(match rtype {
        RecordType::A => {
            let t = toks.first().ok_or("missing address")?;
            RData::A(t.parse().map_err(|_| "bad IPv4 address")?)
        }
        RecordType::Aaaa => {
            let t = toks.first().ok_or("missing address")?;
            RData::Aaaa(t.parse().map_err(|_| "bad IPv6 address")?)
        }
        RecordType::Ns => RData::Ns(parse_name_tok(toks.first(), origin, "NS target")?),
        RecordType::Cname => RData::Cname(parse_name_tok(toks.first(), origin, "CNAME target")?),
        RecordType::Mx => RData::Mx {
            preference: parse_u16(toks.first(), "MX preference")?,
            exchange: parse_name_tok(toks.get(1), origin, "MX exchange")?,
        },
        RecordType::Txt => {
            let mut strings = Vec::new();
            for t in toks {
                let s = t.strip_prefix('"').ok_or("TXT strings must be quoted")?;
                strings.push(txt_unescape(s)?);
            }
            RData::Txt(strings)
        }
        RecordType::Soa => RData::Soa(SoaData {
            mname: parse_name_tok(toks.first(), origin, "SOA mname")?,
            rname: parse_name_tok(toks.get(1), origin, "SOA rname")?,
            serial: parse_u32(toks.get(2), "SOA serial")?,
            refresh: parse_u32(toks.get(3), "SOA refresh")?,
            retry: parse_u32(toks.get(4), "SOA retry")?,
            expire: parse_u32(toks.get(5), "SOA expire")?,
            minimum: parse_u32(toks.get(6), "SOA minimum")?,
        }),
        RecordType::Dnskey | RecordType::Cdnskey => {
            let d = DnskeyData {
                flags: parse_u16(toks.first(), "DNSKEY flags")?,
                protocol: parse_u8(toks.get(1), "DNSKEY protocol")?,
                algorithm: parse_u8(toks.get(2), "DNSKEY algorithm")?,
                public_key: parse_hex_tok(toks.get(3), "DNSKEY key")?,
            };
            if rtype == RecordType::Dnskey {
                RData::Dnskey(d)
            } else {
                RData::Cdnskey(d)
            }
        }
        RecordType::Ds | RecordType::Cds => {
            let d = DsData {
                key_tag: parse_u16(toks.first(), "DS key tag")?,
                algorithm: parse_u8(toks.get(1), "DS algorithm")?,
                digest_type: parse_u8(toks.get(2), "DS digest type")?,
                digest: parse_hex_tok(toks.get(3), "DS digest")?,
            };
            if rtype == RecordType::Ds {
                RData::Ds(d)
            } else {
                RData::Cds(d)
            }
        }
        RecordType::Rrsig => {
            let covered = toks.first().ok_or("missing RRSIG type covered")?;
            let type_covered = RecordType::from_mnemonic(covered)
                .ok_or("bad RRSIG type covered")?
                .code();
            RData::Rrsig(RrsigData {
                type_covered,
                algorithm: parse_u8(toks.get(1), "RRSIG algorithm")?,
                labels: parse_u8(toks.get(2), "RRSIG labels")?,
                original_ttl: parse_u32(toks.get(3), "RRSIG original TTL")?,
                expiration: parse_u32(toks.get(4), "RRSIG expiration")?,
                inception: parse_u32(toks.get(5), "RRSIG inception")?,
                key_tag: parse_u16(toks.get(6), "RRSIG key tag")?,
                signer_name: parse_name_tok(toks.get(7), origin, "RRSIG signer")?,
                signature: parse_hex_tok(toks.get(8), "RRSIG signature")?,
            })
        }
        RecordType::Nsec => {
            let next_name = parse_name_tok(toks.first(), origin, "NSEC next name")?;
            let types = toks[1..]
                .iter()
                .map(|t| RecordType::from_mnemonic(t).ok_or(format!("bad type {t}")))
                .collect::<Result<Vec<_>, _>>()?;
            RData::Nsec(NsecData {
                next_name,
                types: TypeBitmap::from_types(types),
            })
        }
        RecordType::Nsec3 => {
            let hash_algorithm = parse_u8(toks.first(), "NSEC3 hash alg")?;
            let flags = parse_u8(toks.get(1), "NSEC3 flags")?;
            let iterations = parse_u16(toks.get(2), "NSEC3 iterations")?;
            let salt_tok = toks.get(3).ok_or("missing NSEC3 salt")?;
            let salt = if salt_tok == "-" {
                Vec::new()
            } else {
                unhex(salt_tok).ok_or("bad NSEC3 salt hex")?
            };
            let next_hashed = parse_hex_tok(toks.get(4), "NSEC3 next hash")?;
            let types = toks[5..]
                .iter()
                .map(|t| RecordType::from_mnemonic(t).ok_or(format!("bad type {t}")))
                .collect::<Result<Vec<_>, _>>()?;
            RData::Nsec3(Nsec3Data {
                hash_algorithm,
                flags,
                iterations,
                salt,
                next_hashed,
                types: TypeBitmap::from_types(types),
            })
        }
        RecordType::Nsec3param => {
            let salt_tok = toks.get(3).ok_or("missing NSEC3PARAM salt")?;
            RData::Nsec3param(Nsec3ParamData {
                hash_algorithm: parse_u8(toks.first(), "hash alg")?,
                flags: parse_u8(toks.get(1), "flags")?,
                iterations: parse_u16(toks.get(2), "iterations")?,
                salt: if salt_tok == "-" {
                    Vec::new()
                } else {
                    unhex(salt_tok).ok_or("bad salt hex")?
                },
            })
        }
        RecordType::Csync => {
            let types = toks[2..]
                .iter()
                .map(|t| RecordType::from_mnemonic(t).ok_or(format!("bad type {t}")))
                .collect::<Result<Vec<_>, _>>()?;
            RData::Csync(CsyncData {
                serial: parse_u32(toks.first(), "CSYNC serial")?,
                flags: parse_u16(toks.get(1), "CSYNC flags")?,
                types: TypeBitmap::from_types(types),
            })
        }
        RecordType::Opt => return Err("OPT records do not appear in zone files".into()),
        RecordType::Unknown(_) => return Err("unknown types need \\# syntax".into()),
    })
}

fn txt_unescape(s: &str) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\\' {
            if i + 1 >= bytes.len() {
                return Err("dangling escape in TXT".into());
            }
            if bytes[i + 1].is_ascii_digit() {
                if i + 3 >= bytes.len() {
                    return Err("bad decimal escape in TXT".into());
                }
                let v: u32 = s[i + 1..i + 4].parse().map_err(|_| "bad decimal escape")?;
                if v > 255 {
                    return Err("decimal escape out of range".into());
                }
                out.push(v as u8);
                i += 4;
            } else {
                out.push(bytes[i + 1]);
                i += 2;
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name;
    use std::net::Ipv4Addr;

    #[test]
    fn parse_simple_zone() {
        let text = "\
$ORIGIN example.ch.
$TTL 300
@ IN SOA ns1.example.ch. hostmaster.example.ch. 1 7200 3600 1209600 300
@ IN NS ns1 ; in-zone nameserver
@ IN NS ns2.example.net.
www 600 IN A 192.0.2.10
";
        let recs = parse_zone_file(text, &Name::root()).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].name, name!("example.ch"));
        assert_eq!(recs[1].rdata, RData::Ns(name!("ns1.example.ch")));
        assert_eq!(recs[2].rdata, RData::Ns(name!("ns2.example.net")));
        assert_eq!(recs[3].ttl, 600);
        assert_eq!(recs[3].name, name!("www.example.ch"));
        assert_eq!(recs[3].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 10)));
    }

    #[test]
    fn blank_owner_repeats_previous() {
        let text = "\
$ORIGIN t.
a IN A 192.0.2.1
  IN A 192.0.2.2
";
        let recs = parse_zone_file(text, &Name::root()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].name, name!("a.t"));
    }

    #[test]
    fn default_ttl_applies() {
        let text = "$ORIGIN t.\n$TTL 1234\na IN A 192.0.2.1\n";
        let recs = parse_zone_file(text, &Name::root()).unwrap();
        assert_eq!(recs[0].ttl, 1234);
    }

    #[test]
    fn roundtrip_via_serialiser() {
        let origin = name!("example.ch");
        let records = vec![
            Record::new(
                origin.clone(),
                300,
                RData::Soa(SoaData {
                    mname: name!("ns1.example.ch"),
                    rname: name!("hostmaster.example.ch"),
                    serial: 42,
                    refresh: 7200,
                    retry: 3600,
                    expire: 1209600,
                    minimum: 300,
                }),
            ),
            Record::new(origin.clone(), 300, RData::Ns(name!("ns1.example.ch"))),
            Record::new(
                name!("www.example.ch"),
                300,
                RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            ),
            Record::new(
                origin.clone(),
                300,
                RData::Cds(DsData {
                    key_tag: 7,
                    algorithm: 13,
                    digest_type: 2,
                    digest: vec![0xaa; 32],
                }),
            ),
            Record::new(
                origin.clone(),
                300,
                RData::Txt(vec![b"v=test \"quoted\"".to_vec()]),
            ),
            Record::new(
                origin.clone(),
                300,
                RData::Unknown {
                    rtype: 99,
                    data: vec![1, 2, 3],
                },
            ),
        ];
        let text = to_zone_file(&origin, &records);
        let back = parse_zone_file(&text, &Name::root()).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn dnssec_records_roundtrip() {
        let origin = name!("example.ch");
        let records = vec![
            Record::new(
                origin.clone(),
                300,
                RData::Dnskey(DnskeyData {
                    flags: 257,
                    protocol: 3,
                    algorithm: 13,
                    public_key: vec![1, 2, 3],
                }),
            ),
            Record::new(
                origin.clone(),
                300,
                RData::Rrsig(RrsigData {
                    type_covered: RecordType::Dnskey.code(),
                    algorithm: 13,
                    labels: 2,
                    original_ttl: 300,
                    expiration: 2000,
                    inception: 1000,
                    key_tag: 7,
                    signer_name: origin.clone(),
                    signature: vec![9; 16],
                }),
            ),
            Record::new(
                origin.clone(),
                300,
                RData::Nsec(NsecData {
                    next_name: name!("a.example.ch"),
                    types: TypeBitmap::from_types([RecordType::Ns, RecordType::Soa]),
                }),
            ),
        ];
        let text = to_zone_file(&origin, &records);
        let back = parse_zone_file(&text, &Name::root()).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "; header\n\n$ORIGIN t.\na IN A 192.0.2.1 ; trailing\n";
        let recs = parse_zone_file(text, &Name::root()).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn semicolon_in_quotes_not_comment() {
        let text = "$ORIGIN t.\na IN TXT \"x;y\"\n";
        let recs = parse_zone_file(text, &Name::root()).unwrap();
        assert_eq!(recs[0].rdata, RData::Txt(vec![b"x;y".to_vec()]));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "$ORIGIN t.\na IN A not-an-ip\n";
        let err = parse_zone_file(text, &Name::root()).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn at_sign_is_origin() {
        let text = "$ORIGIN example.ch.\n@ IN NS ns1.example.net.\n";
        let recs = parse_zone_file(text, &Name::root()).unwrap();
        assert_eq!(recs[0].name, name!("example.ch"));
    }

    #[test]
    fn csync_roundtrip() {
        let origin = name!("x.ch");
        let records = vec![Record::new(
            origin.clone(),
            300,
            RData::Csync(CsyncData {
                serial: 42,
                flags: 3,
                types: TypeBitmap::from_types([RecordType::Ns, RecordType::A]),
            }),
        )];
        let text = to_zone_file(&origin, &records);
        let back = parse_zone_file(&text, &Name::root()).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn delete_sentinel_cds_roundtrip() {
        let origin = name!("x.ch");
        let records = vec![Record::new(
            origin.clone(),
            300,
            RData::Cds(DsData::delete_sentinel()),
        )];
        let text = to_zone_file(&origin, &records);
        let back = parse_zone_file(&text, &Name::root()).unwrap();
        assert_eq!(back, records);
        match &back[0].rdata {
            RData::Cds(d) => assert!(d.is_delete()),
            _ => panic!("wrong type"),
        }
    }
}
