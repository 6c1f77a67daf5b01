//! Domain names (RFC 1035 §3.1) with the semantics DNSSEC needs.
//!
//! A [`Name`] is a sequence of labels stored lowercase (DNS names compare
//! case-insensitively; RFC 4034 §6.2 canonical form lowercases them anyway,
//! and this crate is a measurement stack, not a 0x20-randomising resolver).
//! The root name has zero labels.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Maximum length of a single label in octets (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a whole name in wire octets, including the root byte
/// (RFC 1035 §2.3.4). The paper's §2 notes that Authenticated Bootstrapping
/// signal names can exceed this for unusually long child/NS names.
pub const MAX_NAME_LEN: usize = 255;

/// Errors produced while parsing or constructing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (e.g. `a..b`) in a context where that is invalid.
    EmptyLabel,
    /// A label exceeded [`MAX_LABEL_LEN`] octets.
    LabelTooLong(usize),
    /// The whole name would exceed [`MAX_NAME_LEN`] wire octets.
    NameTooLong(usize),
    /// An escape sequence in presentation format was malformed.
    BadEscape,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            NameError::NameTooLong(n) => write!(f, "name of {n} wire octets exceeds 255"),
            NameError::BadEscape => write!(f, "malformed escape sequence"),
        }
    }
}

impl std::error::Error for NameError {}

/// A fully-qualified domain name.
///
/// Stored as its canonical (lowercase) uncompressed wire encoding behind
/// an `Arc`, with the label count and an FNV-1a hash computed once at
/// construction: clones are refcount bumps, hashing is a single `u64`
/// write, and equality short-circuits on the cached hash. A name may be a
/// suffix view into a longer name's buffer, so [`Name::parent`] and
/// ancestor walks never allocate. Equality and ordering are
/// case-insensitive by construction.
#[derive(Clone)]
pub struct Name {
    /// Canonical lowercase uncompressed encoding, including the root
    /// byte, of this name or of the descendant it was derived from.
    wire: Arc<[u8]>,
    /// FNV-1a of [`Name::wire_bytes`], computed once.
    hash: u64,
    /// Offset in `wire` where this name starts (≤ 254).
    start: u8,
    /// Number of labels (the root has zero; max 127 for a 255-octet name).
    labels: u8,
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.wire_bytes() == other.wire_bytes()
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::root()
    }
}

/// [`std::hash::Hasher`] for [`Name`] keys: passes the name's cached
/// FNV-64 straight through, so a map probe costs no hashing at all and
/// the layout is the same in every process. Only for maps whose *keys*
/// this program chose (zone contents, zone apexes); attacker-picked
/// names only ever probe them.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameHasher(u64);

impl std::hash::Hasher for NameHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not reached by `Name` (it hashes one `u64`); mix anyway.
        self.0 ^= fnv64_bytes(bytes);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// A hash map keyed by [`Name`] through [`NameHasher`].
pub type NameMap<V> = std::collections::HashMap<Name, V, std::hash::BuildHasherDefault<NameHasher>>;

/// Label-by-label ordering from the *left* (the historical derive order
/// of the label-vector representation; `BTreeSet<Name>` seed compilation
/// depends on it, e.g. `zz…`-prefixed names sorting after the benign
/// populations).
impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let mut a = self.labels();
        let mut b = other.labels();
        loop {
            match (a.next(), b.next()) {
                (Some(x), Some(y)) => match x.cmp(y) {
                    std::cmp::Ordering::Equal => continue,
                    o => return o,
                },
                (None, None) => return std::cmp::Ordering::Equal,
                (None, Some(_)) => return std::cmp::Ordering::Less,
                (Some(_), None) => return std::cmp::Ordering::Greater,
            }
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name::from_canonical_wire(vec![0], 0)
    }

    /// Wrap an already-canonical (lowercase, validated) wire encoding.
    fn from_canonical_wire(wire: impl Into<Arc<[u8]>>, labels: u8) -> Self {
        let wire = wire.into();
        Name {
            hash: fnv64_bytes(&wire),
            wire,
            start: 0,
            labels,
        }
    }

    /// Crate-internal: build from a canonical lowercase wire buffer the
    /// caller assembled (message decoding), skipping re-validation. The
    /// buffer must be a well-formed uncompressed encoding ≤255 octets
    /// with every label 1–63 octets and already lowercased.
    pub(crate) fn from_decoded_wire(wire: &[u8], labels: u8) -> Self {
        debug_assert!(wire.len() <= MAX_NAME_LEN && wire.last() == Some(&0));
        Name::from_canonical_wire(wire, labels)
    }

    /// Build a name from raw label byte-strings (first = leftmost).
    ///
    /// Labels are lowercased. Returns an error on empty or oversized labels
    /// or an oversized total name.
    pub fn from_labels<I, L>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut wire = Vec::with_capacity(32);
        let mut count = 0u16;
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(l.len()));
            }
            wire.push(l.len() as u8);
            wire.extend(l.iter().map(|b| b.to_ascii_lowercase()));
            count += 1;
        }
        wire.push(0);
        if wire.len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire.len()));
        }
        Ok(Name::from_canonical_wire(wire, count as u8))
    }

    /// Parse presentation format (`www.example.com.` or `www.example.com`).
    ///
    /// A single `.` (or empty string) is the root. Supports `\.`-style and
    /// `\DDD` decimal escapes per RFC 1035 §5.1.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        if s.is_empty() || s == "." {
            return Ok(Name::root());
        }
        let mut rest = s.as_bytes();
        let mut labels: Vec<Vec<u8>> = Vec::new();
        let mut cur: Vec<u8> = Vec::new();
        while let Some((&b, tail)) = rest.split_first() {
            match b {
                b'\\' => match tail {
                    [c, tail @ ..] if !c.is_ascii_digit() => {
                        cur.push(*c);
                        rest = tail;
                    }
                    [d1, d2, d3, tail @ ..] if d2.is_ascii_digit() && d3.is_ascii_digit() => {
                        let v = (*d1 - b'0') as u32 * 100
                            + (*d2 - b'0') as u32 * 10
                            + (*d3 - b'0') as u32;
                        if v > 255 {
                            return Err(NameError::BadEscape);
                        }
                        cur.push(v as u8);
                        rest = tail;
                    }
                    _ => return Err(NameError::BadEscape),
                },
                b'.' => {
                    if cur.is_empty() {
                        return Err(NameError::EmptyLabel);
                    }
                    labels.push(std::mem::take(&mut cur));
                    rest = tail;
                }
                b => {
                    cur.push(b);
                    rest = tail;
                }
            }
        }
        if !cur.is_empty() {
            labels.push(cur);
        }
        Name::from_labels(labels)
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels as usize
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels == 0
    }

    /// The cached FNV-1a hash of the canonical wire encoding — the
    /// stable key the striped caches shard on.
    pub fn fnv64(&self) -> u64 {
        self.hash
    }

    /// The canonical uncompressed wire encoding, borrowed.
    pub fn wire_bytes(&self) -> &[u8] {
        self.wire.get(self.start as usize..).unwrap_or(&[0])
    }

    /// Iterate over labels, leftmost first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.labels_from(0)
    }

    /// The labels from label `k` (0-based, leftmost first) on.
    fn labels_from(&self, k: usize) -> LabelIter<'_> {
        LabelIter {
            wire: self.wire_bytes(),
            pos: self.label_offset(k),
        }
    }

    /// Byte offset in `wire` where label `k` (0-based, leftmost first)
    /// starts; `k == label_count()` gives the root byte.
    fn label_offset(&self, k: usize) -> usize {
        let wire = self.wire_bytes();
        let mut pos = 0usize;
        for _ in 0..k {
            match wire.get(pos) {
                Some(&len) => pos += len as usize + 1,
                None => break,
            }
        }
        pos
    }

    /// The leftmost label, if any.
    pub fn first_label(&self) -> Option<&[u8]> {
        let (&len, rest) = self.wire_bytes().split_first()?;
        if len == 0 {
            None
        } else {
            rest.get(..len as usize)
        }
    }

    /// Length of the uncompressed wire encoding, including the root byte.
    pub fn wire_len(&self) -> usize {
        self.wire_bytes().len()
    }

    /// Parent name (one label stripped from the left); `None` at the root.
    /// The parent shares this name's buffer: no allocation.
    pub fn parent(&self) -> Option<Name> {
        if self.labels == 0 {
            return None;
        }
        let wire = self.wire_bytes();
        let skip = *wire.first()? + 1;
        Some(Name {
            wire: Arc::clone(&self.wire),
            hash: fnv64_bytes(wire.get(skip as usize..)?),
            start: self.start.checked_add(skip)?,
            labels: self.labels - 1,
        })
    }

    /// True if `self` equals `ancestor` or is underneath it.
    ///
    /// Every name is a subdomain of the root. The comparison is on label
    /// boundaries: a wire-byte suffix match alone would falsely accept
    /// names whose label *contents* happen to embed the ancestor's length
    /// bytes.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        if ancestor.labels > self.labels {
            return false;
        }
        let skip = self.label_offset((self.labels - ancestor.labels) as usize);
        self.wire_bytes().get(skip..) == Some(ancestor.wire_bytes())
    }

    /// Strictly below `ancestor` (subdomain but not equal).
    pub fn is_strict_subdomain_of(&self, ancestor: &Name) -> bool {
        self != ancestor && self.is_subdomain_of(ancestor)
    }

    /// Prepend a single label, e.g. `"_dsboot"` in front of a child name.
    pub fn prepend_label(&self, label: &[u8]) -> Result<Name, NameError> {
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label.len()));
        }
        let mut wire = Vec::with_capacity(1 + label.len() + self.wire_len());
        wire.push(label.len() as u8);
        wire.extend(label.iter().map(|b| b.to_ascii_lowercase()));
        wire.extend_from_slice(self.wire_bytes());
        if wire.len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire.len()));
        }
        Ok(Name::from_canonical_wire(wire, self.labels + 1))
    }

    /// Concatenate: `self` + `suffix` (self's labels first).
    pub fn concat(&self, suffix: &Name) -> Result<Name, NameError> {
        let mut wire = Vec::with_capacity(self.wire_len() - 1 + suffix.wire_len());
        if let Some((_root, stem)) = self.wire_bytes().split_last() {
            wire.extend_from_slice(stem);
        }
        wire.extend_from_slice(suffix.wire_bytes());
        if wire.len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire.len()));
        }
        Ok(Name::from_canonical_wire(wire, self.labels + suffix.labels))
    }

    /// Strip `suffix` from the right, returning the remaining prefix labels
    /// as a relative stub. `None` when `self` is not under `suffix`.
    pub fn strip_suffix(&self, suffix: &Name) -> Option<Vec<Vec<u8>>> {
        if !self.is_subdomain_of(suffix) {
            return None;
        }
        Some(
            self.labels()
                .take((self.labels - suffix.labels) as usize)
                .map(|l| l.to_vec())
                .collect(),
        )
    }

    /// Canonical DNSSEC ordering (RFC 4034 §6.1): compare label-by-label
    /// from the *right* (most significant first), each label as a
    /// lowercase octet string; absent labels sort first.
    pub fn canonical_cmp(&self, other: &Name) -> std::cmp::Ordering {
        // Align both names on their common number of trailing labels and
        // walk those left to right: the *last* differing pair is the most
        // significant. No offset tables; names are a handful of labels.
        let n = self.labels.min(other.labels);
        let a = self.labels_from((self.labels - n) as usize);
        let b = other.labels_from((other.labels - n) as usize);
        let mut ord = std::cmp::Ordering::Equal;
        for (la, lb) in a.zip(b) {
            if la != lb {
                ord = la.cmp(lb);
            }
        }
        ord.then(self.labels.cmp(&other.labels))
    }

    /// Encode without compression into `out`.
    pub fn write_uncompressed(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.wire_bytes());
    }

    /// The uncompressed wire encoding as a fresh vector.
    pub fn to_wire(&self) -> Vec<u8> {
        self.wire_bytes().to_vec()
    }

    /// Presentation format with a trailing dot; the root is `"."`.
    pub fn to_string_fqdn(&self) -> String {
        if self.labels == 0 {
            return ".".to_string();
        }
        let mut s = String::new();
        for l in self.labels() {
            for &b in l {
                match b {
                    // Master-file metacharacters must be escaped so the
                    // presentation form survives a zone-file round trip
                    // (RFC 1035 §5.1).
                    b'.' | b'\\' | b';' | b'"' | b'(' | b')' | b'@' | b'$' => {
                        s.push('\\');
                        s.push(b as char);
                    }
                    0x21..=0x7e => s.push(b as char),
                    _ => s.push_str(&format!("\\{:03}", b)),
                }
            }
            s.push('.');
        }
        s
    }
}

/// Iterator over the labels of a canonical wire encoding.
struct LabelIter<'a> {
    wire: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a [u8];
    fn next(&mut self) -> Option<&'a [u8]> {
        let len = *self.wire.get(self.pos)? as usize;
        if len == 0 {
            return None;
        }
        let start = self.pos + 1;
        let label = self.wire.get(start..start + len)?;
        self.pos = start + len;
        Some(label)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_fqdn())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({})", self.to_string_fqdn())
    }
}

impl FromStr for Name {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

/// Convenience: `name!("example.com")`-style construction in tests and
/// examples; panics on invalid input.
#[macro_export]
macro_rules! name {
    ($s:expr) => {
        $crate::name::Name::parse($s).expect("invalid name literal")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_properties() {
        let r = Name::root();
        assert!(r.is_root());
        assert_eq!(r.label_count(), 0);
        assert_eq!(r.wire_len(), 1);
        assert_eq!(r.to_string_fqdn(), ".");
        assert_eq!(Name::parse(".").unwrap(), r);
        assert_eq!(Name::parse("").unwrap(), r);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let n = Name::parse("www.Example.COM.").unwrap();
        assert_eq!(n.to_string_fqdn(), "www.example.com.");
        assert_eq!(n.label_count(), 3);
        let again = Name::parse(&n.to_string_fqdn()).unwrap();
        assert_eq!(n, again);
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(name!("ExAmPlE.Com"), name!("example.com"));
    }

    #[test]
    fn trailing_dot_optional() {
        assert_eq!(name!("example.com"), name!("example.com."));
    }

    #[test]
    fn empty_label_rejected() {
        assert_eq!(Name::parse("a..b"), Err(NameError::EmptyLabel));
    }

    #[test]
    fn label_too_long_rejected() {
        let l = "a".repeat(64);
        assert!(matches!(Name::parse(&l), Err(NameError::LabelTooLong(64))));
        assert!(Name::parse(&"a".repeat(63)).is_ok());
    }

    #[test]
    fn name_too_long_rejected() {
        // Four 63-byte labels: 4*64 + 1 = 257 > 255.
        let l = "a".repeat(63);
        let s = format!("{l}.{l}.{l}.{l}");
        assert!(matches!(Name::parse(&s), Err(NameError::NameTooLong(_))));
        // Three labels: 3*64 + 1 = 193, fine.
        let s = format!("{l}.{l}.{l}");
        assert!(Name::parse(&s).is_ok());
    }

    #[test]
    fn signal_names_can_exceed_255_as_paper_notes() {
        // Section 2 of the paper: _dsboot.<long child>._signal.<long ns>
        // can exceed 255 octets — our constructor must reject it so the
        // ecosystem can model the "cannot be bootstrapped" case.
        let l = "a".repeat(63);
        let child = Name::parse(&format!("{l}.{l}.example")).unwrap();
        let ns = Name::parse(&format!("{l}.{l}.ns.example")).unwrap();
        let sig = ns.prepend_label(b"_signal").unwrap();
        let dsboot = child.prepend_label(b"_dsboot").unwrap();
        assert!(matches!(
            dsboot.concat(&sig),
            Err(NameError::NameTooLong(_))
        ));
    }

    #[test]
    fn escapes() {
        let n = Name::parse(r"a\.b.c").unwrap();
        assert_eq!(n.label_count(), 2);
        assert_eq!(n.first_label().unwrap(), b"a.b");
        assert_eq!(n.to_string_fqdn(), r"a\.b.c.");
        let n = Name::parse(r"a\032b.c").unwrap();
        assert_eq!(n.first_label().unwrap(), b"a b");
        assert!(Name::parse(r"a\").is_err());
        assert!(Name::parse(r"a\25").is_err());
        assert!(Name::parse(r"a\999").is_err());
    }

    #[test]
    fn subdomain_relations() {
        let apex = name!("example.com");
        let www = name!("www.example.com");
        let other = name!("example.org");
        assert!(www.is_subdomain_of(&apex));
        assert!(www.is_strict_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&apex));
        assert!(!apex.is_strict_subdomain_of(&apex));
        assert!(!other.is_subdomain_of(&apex));
        assert!(www.is_subdomain_of(&Name::root()));
        // "badexample.com" must not match "example.com" (label, not string
        // suffix, comparison).
        assert!(!name!("badexample.com").is_subdomain_of(&apex));
    }

    #[test]
    fn parent_chain() {
        let n = name!("a.b.c");
        let p = n.parent().unwrap();
        assert_eq!(p, name!("b.c"));
        assert_eq!(p.parent().unwrap(), name!("c"));
        assert_eq!(p.parent().unwrap().parent().unwrap(), Name::root());
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn canonical_ordering_rfc4034_example() {
        // RFC 4034 §6.1 gives this sorted sequence.
        let sorted = [
            "example.",
            "a.example.",
            "yljkjljk.a.example.",
            "Z.a.example.",
            "zABC.a.EXAMPLE.",
            "z.example.",
            r"\001.z.example.",
            "*.z.example.",
            r"\200.z.example.",
        ];
        let names: Vec<Name> = sorted.iter().map(|s| Name::parse(s).unwrap()).collect();
        for w in names.windows(2) {
            assert_eq!(
                w[0].canonical_cmp(&w[1]),
                std::cmp::Ordering::Less,
                "{} should sort before {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn strip_suffix_and_concat() {
        let n = name!("_dsboot.example.co.uk._signal.ns1.example.net");
        let suffix = name!("_signal.ns1.example.net");
        let stub = n.strip_suffix(&suffix).unwrap();
        assert_eq!(stub.len(), 4);
        assert_eq!(stub[0], b"_dsboot");
        let rebuilt = Name::from_labels(stub).unwrap().concat(&suffix).unwrap();
        assert_eq!(rebuilt, n);
        assert!(n.strip_suffix(&name!("example.org")).is_none());
    }

    #[test]
    fn wire_roundtrip_uncompressed() {
        let n = name!("www.example.com");
        let w = n.to_wire();
        assert_eq!(w, b"\x03www\x07example\x03com\x00".to_vec());
        assert_eq!(w.len(), n.wire_len());
    }
}
