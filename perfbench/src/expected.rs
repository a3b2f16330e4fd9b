//! Committed expected outputs (`expected.txt`).
//!
//! Line formats (blank lines and `#` comments ignored):
//!
//! ```text
//! seed <workload> <default|held-out> <n>
//! fp <program> <solver> <16 hex digits|none>
//! digest <workload> <full|tiny> <seed> <16 hex digits>
//! ```
//!
//! `fp` lines hold `alias::solver::solution_fingerprint` per program and
//! solver; scaling programs carry their seed in their name. `digest`
//! lines hold FNV-64 digests of a workload's whole output for one seed:
//! the campaign reports' bytes, or the serve reference fingerprints and
//! query answers.

use std::collections::HashMap;

/// The committed expected outputs, parsed.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// `(program, solver)` → fingerprint (`None` for a failed solve).
    pub fps: HashMap<(String, String), Option<u64>>,
    /// `(workload, size, seed)` → digest.
    pub digests: HashMap<(String, String, u64), u64>,
    /// `(workload, role)` → seed, where role is `default` or `held-out`.
    pub seeds: HashMap<(String, String), u64>,
}

impl Expected {
    /// The values committed next to the benchmark.
    pub fn committed() -> Expected {
        Expected::parse(include_str!("../expected.txt")).expect("expected.txt is well-formed")
    }

    /// Parses the line format in the module docs.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut e = Expected::default();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("expected.txt:{}: malformed line {line:?}", no + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["seed", workload, role, n] => {
                    e.seeds.insert(
                        (workload.to_string(), role.to_string()),
                        n.parse().map_err(|_| bad())?,
                    );
                }
                ["fp", program, solver, fp] => {
                    let fp = match *fp {
                        "none" => None,
                        hex => Some(proto::parse_fp_hex(hex).ok_or_else(bad)?),
                    };
                    e.fps.insert((program.to_string(), solver.to_string()), fp);
                }
                ["digest", workload, size, seed, fp] => {
                    e.digests.insert(
                        (
                            workload.to_string(),
                            size.to_string(),
                            seed.parse().map_err(|_| bad())?,
                        ),
                        proto::parse_fp_hex(fp).ok_or_else(bad)?,
                    );
                }
                _ => return Err(bad()),
            }
        }
        Ok(e)
    }

    /// The committed fingerprint of one program under one solver, when
    /// one is committed.
    pub fn fp(&self, program: &str, solver: &str) -> Option<Option<u64>> {
        self.fps
            .get(&(program.to_string(), solver.to_string()))
            .copied()
    }

    /// The committed digest of one workload run, when one is committed.
    pub fn digest(&self, workload: &str, size: &str, seed: u64) -> Option<u64> {
        self.digests
            .get(&(workload.to_string(), size.to_string(), seed))
            .copied()
    }

    /// The default or held-out seed of a workload.
    pub fn seed(&self, workload: &str, role: &str) -> Option<u64> {
        self.seeds
            .get(&(workload.to_string(), role.to_string()))
            .copied()
    }
}

/// Renders an `fp` line.
pub fn fp_line(program: &str, solver: &str, fp: Option<u64>) -> String {
    format!(
        "fp {program} {solver} {}",
        fp.map_or("none".to_string(), proto::fp_hex)
    )
}

/// Renders a `digest` line.
pub fn digest_line(workload: &str, size: &str, seed: u64, digest: u64) -> String {
    format!("digest {workload} {size} {seed} {}", proto::fp_hex(digest))
}
