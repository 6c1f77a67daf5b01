//! Helpers shared by the integration suites.

use bootscan::ZoneScan;

/// Assert two zone tables equal in every field: lengths first, then zone
/// by zone, so a failure prints only the first zone that differs.
#[track_caller]
pub fn assert_same_zones(expected: &[ZoneScan], got: &[ZoneScan], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: zone counts differ");
    for (e, g) in expected.iter().zip(got) {
        assert_eq!(e, g, "{what}: zone {} differs", e.name);
    }
}
