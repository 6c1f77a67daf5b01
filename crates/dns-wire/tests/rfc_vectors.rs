//! The RFCs' own example records as the codec's gate: an oracle this
//! repository's generator did not write.
//!
//! Each row is one published example record — RFC 4034 (DNSKEY, DS,
//! RRSIG, NSEC), RFC 7344 (the same bodies as CDNSKEY and CDS), RFC 5155
//! (NSEC3) and RFC 7477 (CSYNC) — with its RDATA laid out by hand from
//! the RFC's field definitions. A row must parse from zone-file text
//! into exactly that wire form, decode from it, and round-trip wire →
//! presentation → wire byte for byte. The key and digest octets the
//! RFCs print in base64 / base32hex are decoded here, from the RFC text.
//! The canonical-form rows (RFC 4034 §6.2–6.3, §3.1.8.1) feed RRsets out
//! of order, with duplicates and upper-case names inside RDATA, and
//! compare against hand-written byte strings.

use dns_crypto::sha1::nsec3_hash;
use dns_crypto::{ds_digest, key_tag, DigestType};
use dns_wire::canonical::canonical_rrset_wire;
use dns_wire::name::Name;
use dns_wire::presentation::parse_zone_file;
use dns_wire::rdata::{DnskeyData, RData, RrsigData};
use dns_wire::record::{Record, RecordClass};
use dns_wire::{WireReader, WireWriter};

/// RFC 4034 §2.3: the `example.com.` zone key (flags 256, RSA/SHA-1).
const RFC4034_DNSKEY: &str = "AQPSKmynfzW4kyBv015MUG2DeIQ3Cbl+BBZH4b/0PY1kxkmvHjcZc8nokfzj31GajIQKY+5CptLr3buXA10hWqTkF7H6RfoRqXQeogmMHfpftf6zMv1LyBUgia7za6ZEzOJBOztyvhjL742iU/TpPSEDhm2SNKLijfUppn1UaNvv4w==";

/// RFC 4034 §5.4: the `dskey.example.com.` key its example DS hashes.
const RFC4034_DSKEY: &str = "AQOeiiR0GOMYkDshWoSKz9XzfwJr1AYtsmx3TGkJaNXVbfi/2pHm822aJ5iI9BMzNXxeYCmZDRD99WYwYqUSdjMmmAphXdvxegXd/M5+X7OrzKBaMbCVdFLUUh6DhweJBjEVv5f2wwjM9XzcnOf+EPbtG9DMBmADjFDc2w/rljwvFw==";

/// RFC 4034 §5.4: that DS's SHA-1 digest.
const RFC4034_DS_DIGEST: &str = "2BB183AF5F22588179A53B0A98631FAD1A292118";

/// RFC 4034 §3.3: the signature of the example RRSIG over
/// `host.example.com. A`.
const RFC4034_RRSIG: &str = "oJB1W6WNGv+ldvQ3WDG0MQkg5IEhjRip8WTrPYGv07h108dUKGMeDPKijVCHX3DDKdfb+v6oB9wfuh3DTJXUAfI/M0zmO/zz8bW0Rznl8O3tGNazPwQKkRN20XPXV6nwwfoXmJQbsLNrLfkGJ5D6fwFm8nN+6pBzeDQfsS3Ap3o=";

/// RFC 5155 Appendix A: the NSEC3 at the apex of `example.` names
/// H(ns1.example) as the next hashed owner.
const RFC5155_APEX_HASH: &str = "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom";
const RFC5155_NEXT_HASH: &str = "2t7b4g4vsa5smi47k61mv5bv1a22bojr";

fn decode_digits(text: &str, alphabet: &[u8], bits_per_digit: u32) -> Vec<u8> {
    let mut out = Vec::new();
    let (mut acc, mut bits) = (0u32, 0u32);
    for c in text.bytes().filter(|&c| c != b'=') {
        let digit = alphabet
            .iter()
            .position(|&a| a == c)
            .expect("digit of the alphabet");
        acc = (acc << bits_per_digit | digit as u32) & 0xffff;
        bits += bits_per_digit;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    out
}

fn base64(text: &str) -> Vec<u8> {
    decode_digits(
        text,
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
        6,
    )
}

fn base32hex(text: &str) -> Vec<u8> {
    decode_digits(text, b"0123456789abcdefghijklmnopqrstuv", 5)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digits"))
        .collect()
}

/// Uncompressed wire form of a name written with dots.
fn wire_name(dotted: &str) -> Vec<u8> {
    let mut out = Vec::new();
    for label in dotted.split('.').filter(|l| !l.is_empty()) {
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
    out
}

/// One example record: its zone-file line (this crate's dialect — hex
/// for key, digest, salt, hash and signature octets, RRSIG times as
/// seconds) and its wire form, assembled by hand from the RFC layout.
struct Row {
    source: &'static str,
    zone_line: String,
    owner: &'static str,
    type_code: u16,
    ttl: u32,
    rdata: Vec<u8>,
}

impl Row {
    fn wire(&self) -> Vec<u8> {
        let mut out = wire_name(self.owner);
        out.extend_from_slice(&self.type_code.to_be_bytes());
        out.extend_from_slice(&1u16.to_be_bytes());
        out.extend_from_slice(&self.ttl.to_be_bytes());
        out.extend_from_slice(&(self.rdata.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.rdata);
        out
    }
}

fn encode(rec: &Record) -> Vec<u8> {
    let mut w = WireWriter::new();
    rec.write(&mut w);
    w.into_bytes()
}

fn parse_one(text: &str, what: &str) -> Record {
    let mut recs = parse_zone_file(text, &Name::root()).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(recs.len(), 1, "{what}: one record");
    recs.remove(0)
}

fn rows() -> Vec<Row> {
    let dnskey = base64(RFC4034_DNSKEY);
    let mut dnskey_rdata = vec![0x01, 0x00, 3, 5];
    dnskey_rdata.extend_from_slice(&dnskey);

    let mut ds_rdata = vec![0xec, 0x45, 5, 1];
    ds_rdata.extend_from_slice(&unhex(RFC4034_DS_DIGEST));

    // RFC 4034 §4.3 prints this RDATA octet by octet.
    let mut nsec_rdata = wire_name("host.example.com");
    nsec_rdata.extend_from_slice(&[0x00, 0x06, 0x40, 0x01, 0x00, 0x00, 0x00, 0x03]);
    nsec_rdata.extend_from_slice(&[0x04, 0x1b]);
    nsec_rdata.extend_from_slice(&[0x00; 26]);
    nsec_rdata.push(0x20);

    let signature = base64(RFC4034_RRSIG);
    // 2003-03-22 17:31:03 and 2003-02-20 17:31:03 UTC.
    let (expiration, inception) = (1_048_354_263u32, 1_045_762_263u32);
    let mut rrsig_rdata = vec![0x00, 0x01, 5, 3, 0x00, 0x01, 0x51, 0x80];
    rrsig_rdata.extend_from_slice(&expiration.to_be_bytes());
    rrsig_rdata.extend_from_slice(&inception.to_be_bytes());
    rrsig_rdata.extend_from_slice(&[0x0a, 0x52]);
    rrsig_rdata.extend_from_slice(&wire_name("example.com"));
    rrsig_rdata.extend_from_slice(&signature);

    let next_hashed = base32hex(RFC5155_NEXT_HASH);
    let mut nsec3_rdata = vec![1, 1, 0x00, 0x0c, 4, 0xaa, 0xbb, 0xcc, 0xdd, 20];
    nsec3_rdata.extend_from_slice(&next_hashed);
    // NS SOA MX RRSIG DNSKEY NSEC3PARAM: window 0, seven octets.
    nsec3_rdata.extend_from_slice(&[0x00, 0x07, 0x22, 0x01, 0x00, 0x00, 0x00, 0x02, 0x90]);

    // Serial 66, flags immediate|soaminimum, types A NS AAAA.
    let csync_rdata = vec![0, 0, 0, 0x42, 0, 3, 0x00, 0x04, 0x60, 0x00, 0x00, 0x08];

    vec![
        Row {
            source: "RFC 4034 §2.3 DNSKEY",
            zone_line: format!("example.com. 86400 IN DNSKEY 256 3 5 {}", hex(&dnskey)),
            owner: "example.com",
            type_code: 48,
            ttl: 86400,
            rdata: dnskey_rdata.clone(),
        },
        Row {
            source: "RFC 4034 §2.3 DNSKEY as an RFC 7344 CDNSKEY",
            zone_line: format!("example.com. 86400 IN CDNSKEY 256 3 5 {}", hex(&dnskey)),
            owner: "example.com",
            type_code: 60,
            ttl: 86400,
            rdata: dnskey_rdata,
        },
        Row {
            source: "RFC 4034 §5.4 DS",
            zone_line: format!("dskey.example.com. 86400 IN DS 60485 5 1 {RFC4034_DS_DIGEST}"),
            owner: "dskey.example.com",
            type_code: 43,
            ttl: 86400,
            rdata: ds_rdata.clone(),
        },
        Row {
            source: "RFC 4034 §5.4 DS as an RFC 7344 CDS",
            zone_line: format!("dskey.example.com. 86400 IN CDS 60485 5 1 {RFC4034_DS_DIGEST}"),
            owner: "dskey.example.com",
            type_code: 59,
            ttl: 86400,
            rdata: ds_rdata,
        },
        Row {
            source: "RFC 4034 §4.3 NSEC",
            zone_line: "alfa.example.com. 86400 IN NSEC host.example.com. A MX RRSIG NSEC TYPE1234"
                .into(),
            owner: "alfa.example.com",
            type_code: 47,
            ttl: 86400,
            rdata: nsec_rdata,
        },
        Row {
            source: "RFC 4034 §3.3 RRSIG",
            zone_line: format!(
                "host.example.com. 86400 IN RRSIG A 5 3 86400 {expiration} {inception} 2642 \
                 example.com. {}",
                hex(&signature)
            ),
            owner: "host.example.com",
            type_code: 46,
            ttl: 86400,
            rdata: rrsig_rdata,
        },
        Row {
            source: "RFC 5155 Appendix A NSEC3",
            zone_line: format!(
                "{RFC5155_APEX_HASH}.example. 3600 IN NSEC3 1 1 12 aabbccdd {} \
                 MX DNSKEY NS SOA NSEC3PARAM RRSIG",
                hex(&next_hashed)
            ),
            owner: "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.example",
            type_code: 50,
            ttl: 3600,
            rdata: nsec3_rdata,
        },
        Row {
            source: "RFC 7477 §2.2 CSYNC",
            zone_line: "example.com. 3600 IN CSYNC 66 3 A NS AAAA".into(),
            owner: "example.com",
            type_code: 62,
            ttl: 3600,
            rdata: csync_rdata,
        },
    ]
}

#[test]
fn rfc_example_records_round_trip_byte_exactly() {
    let rows = rows();
    assert_eq!(rows.len(), 8);
    for row in &rows {
        let what = row.source;
        let wire = row.wire();
        // Presentation → wire: the parsed record encodes to the RFC layout.
        let parsed = parse_one(&row.zone_line, what);
        assert_eq!(encode(&parsed), wire, "{what}: encoded from zone-file text");
        // Wire → record: the layout decodes to the same record.
        let mut r = WireReader::new(&wire);
        let decoded = Record::read(&mut r).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(r.is_empty(), "{what}: RDLENGTH covers the RDATA");
        assert_eq!(decoded, parsed, "{what}: decoded from the wire");
        // Wire → presentation → wire.
        let text = decoded.to_string();
        assert_eq!(
            encode(&parse_one(&text, what)),
            wire,
            "{what}: via `{text}`"
        );
    }
}

#[test]
fn rfc_example_keys_tags_and_digests() {
    // RFC 4034 §3.3's example RRSIG names the §2.3 key by tag 2642.
    let key = base64(RFC4034_DNSKEY);
    assert_eq!(key_tag(256, 3, 5, &key), 2642);
    let rrsig = parse_one(&rows()[5].zone_line, "RRSIG");
    let RData::Rrsig(RrsigData { key_tag: named, .. }) = rrsig.rdata else {
        panic!("an RRSIG row");
    };
    assert_eq!(named, 2642);

    // RFC 4034 §5.4: the DS names its key by tag and SHA-1 digest.
    let dskey = DnskeyData {
        flags: 256,
        protocol: 3,
        algorithm: 5,
        public_key: base64(RFC4034_DSKEY),
    };
    assert_eq!(
        key_tag(
            dskey.flags,
            dskey.protocol,
            dskey.algorithm,
            &dskey.public_key
        ),
        60485
    );
    let mut dskey_rdata = vec![0x01, 0x00, 3, 5];
    dskey_rdata.extend_from_slice(&dskey.public_key);
    let digest = ds_digest(
        DigestType::Sha1,
        &wire_name("dskey.example.com"),
        &dskey_rdata,
    );
    assert_eq!(digest, Some(unhex(RFC4034_DS_DIGEST)));

    // RFC 5155 Appendix A: the NSEC3 row's owner label and next hashed
    // owner are H(example) and H(ns1.example), salt aabbccdd, 12
    // iterations.
    let salt = [0xaa, 0xbb, 0xcc, 0xdd];
    assert_eq!(
        nsec3_hash(&wire_name("example"), &salt, 12).to_vec(),
        base32hex(RFC5155_APEX_HASH)
    );
    assert_eq!(
        nsec3_hash(&wire_name("ns1.example"), &salt, 12).to_vec(),
        base32hex(RFC5155_NEXT_HASH)
    );
}

/// `Example.COM. NS` given out of canonical order, with a duplicate
/// differing only in case: RFC 4034 §6.2 lowercases the names inside NS
/// RDATA, §6.3 sorts RDATA as octet strings (`b.` sorts before `ns2.`
/// on its length octet, and would after it by name) and drops duplicates.
fn ns_rrset() -> Vec<Record> {
    let text = "\
Example.COM. 7200 IN NS NS2.Example.COM.
Example.COM. 7200 IN NS b.EXAMPLE.com.
Example.COM. 7200 IN NS ns2.example.com.
";
    parse_zone_file(text, &Name::root()).expect("NS RRset")
}

/// The canonical NS RRset with original TTL 3600 (0x0e10).
const NS_CANONICAL: &[u8] = b"\
\x07example\x03com\x00\x00\x02\x00\x01\x00\x00\x0e\x10\x00\x0f\x01b\x07example\x03com\x00\
\x07example\x03com\x00\x00\x02\x00\x01\x00\x00\x0e\x10\x00\x11\x03ns2\x07example\x03com\x00";

#[test]
fn canonical_rrset_form_and_order() {
    let recs = ns_rrset();
    let rdatas: Vec<RData> = recs.iter().map(|r| r.rdata.clone()).collect();
    let wire = canonical_rrset_wire(&recs[0].name, RecordClass::In, 3600, &rdatas);
    assert_eq!(wire, NS_CANONICAL);

    // RRSIG RDATA (§3.1.7, §6.2: the signer name lowercased): two
    // signatures given A-covering last, the NS one twice, its signer in
    // another case.
    let text = "\
Example.COM. 7200 IN RRSIG NS 8 2 7200 1700000000 1690000000 4660 EXAMPLE.com. c0ffee
Example.COM. 7200 IN RRSIG A 8 2 7200 1700000000 1690000000 4660 Example.Com. beef
Example.COM. 7200 IN RRSIG NS 8 2 7200 1700000000 1690000000 4660 example.COM. c0ffee
";
    let sigs: Vec<RData> = parse_zone_file(text, &Name::root())
        .expect("RRSIG RRset")
        .into_iter()
        .map(|r| r.rdata)
        .collect();
    let wire = canonical_rrset_wire(&recs[0].name, RecordClass::In, 7200, &sigs);
    let expected: &[u8] = b"\
\x07example\x03com\x00\x00\x2e\x00\x01\x00\x00\x1c\x20\x00\x21\
\x00\x01\x08\x02\x00\x00\x1c\x20\x65\x53\xf1\x00\x64\xbb\x5a\x80\x12\x34\x07example\x03com\x00\xbe\xef\
\x07example\x03com\x00\x00\x2e\x00\x01\x00\x00\x1c\x20\x00\x22\
\x00\x02\x08\x02\x00\x00\x1c\x20\x65\x53\xf1\x00\x64\xbb\x5a\x80\x12\x34\x07example\x03com\x00\xc0\xff\xee";
    assert_eq!(wire, expected);
}

#[test]
fn rrsig_signature_input() {
    // RFC 4034 §3.1.8.1: RRSIG RDATA minus the signature, signer name
    // canonical, then the canonical RRset under the original TTL.
    let recs = ns_rrset();
    let sig = parse_one(
        "Example.COM. 7200 IN RRSIG NS 8 2 3600 1700000000 1690000000 4660 EXAMPLE.com. c0ffee",
        "RRSIG",
    );
    let RData::Rrsig(sig) = sig.rdata else {
        panic!("an RRSIG");
    };
    let rdatas: Vec<RData> = recs.iter().map(|r| r.rdata.clone()).collect();
    let mut input = sig.signed_prefix();
    input.extend_from_slice(&canonical_rrset_wire(
        &recs[0].name,
        RecordClass::In,
        sig.original_ttl,
        &rdatas,
    ));
    let mut expected = b"\
\x00\x02\x08\x02\x00\x00\x0e\x10\x65\x53\xf1\x00\x64\xbb\x5a\x80\x12\x34\x07example\x03com\x00"
        .to_vec();
    expected.extend_from_slice(NS_CANONICAL);
    assert_eq!(input, expected);
}
