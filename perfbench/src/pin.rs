//! Cross-run determinism: outputs that must not depend on timing
//! (`rel_error`, state sizes, instance counts, events applied) are
//! pinned per (binary, workload, seed). The first run records them next
//! to the executable; every later run of the same binary and seed must
//! reproduce them bit for bit, or the run fails its output check.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::util::Checks;

/// FNV-1a 64 over the running executable, so a rebuilt program with
/// different code never compares against another build's pins.
fn exe_fingerprint() -> Option<(PathBuf, u64)> {
    let exe = std::env::current_exe().ok()?;
    let bytes = std::fs::read(&exe).ok()?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Some((exe.parent()?.join("perfbench-pins"), h))
}

pub fn check(workload: &str, seed: u64, values: &[(&str, f64)], checks: &mut Checks) {
    let Some((dir, fingerprint)) = exe_fingerprint() else {
        eprintln!("perfbench: cannot fingerprint the executable; determinism pins skipped");
        return;
    };
    let path = dir.join(format!("{workload}-{seed}-{fingerprint:016x}.txt"));
    let mut pinned: BTreeMap<String, u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (name, bits) = l.split_once(' ')?;
            Some((name.to_string(), u64::from_str_radix(bits, 16).ok()?))
        })
        .collect();
    let mut grew = false;
    for &(name, value) in values {
        match pinned.get(name) {
            Some(&bits) => checks.expect(bits == value.to_bits(), || {
                format!(
                    "determinism: {name} = {value} but an earlier run of this seed gave {}",
                    f64::from_bits(bits)
                )
            }),
            None => {
                pinned.insert(name.to_string(), value.to_bits());
                grew = true;
            }
        }
    }
    if grew {
        let text: String = pinned.iter().map(|(n, b)| format!("{n} {b:016x}\n")).collect();
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
        checks.op("write determinism pins", written);
    }
}
