//! Command-line-input validation for the experiment binaries, expressed as
//! `anton-verify` diagnostics (codes `AV101..AV104`).
//!
//! The flag parser ([`crate::flags`]) already rejects malformed tokens;
//! these helpers cover the *values*: a `--k` outside what [`TorusShape`]
//! supports, a pattern or workload name no binary knows, or an output path
//! that cannot be written; [`checked_torus`] and [`crate::saturation_rate`]
//! add a machine on which the traffic loads no torus channel (AV104).
//! Binaries report them
//! through [`fail_usage`] — one readable diagnostic on stderr and a nonzero
//! exit — instead of a panic backtrace.

use anton_core::pattern::TrafficPattern;
use anton_core::topology::TorusShape;
use anton_traffic::patterns::{NHopNeighbor, UniformRandom};
use anton_verify::Diagnostic;

/// Prints a CLI diagnostic and exits 2 (the same status the flag parser
/// uses for malformed flags).
pub fn fail_usage(diag: &Diagnostic) -> ! {
    eprintln!("{diag}");
    std::process::exit(2);
}

/// Validates a user-supplied torus extent (AV102) before it reaches
/// [`TorusShape`]'s panicking constructor.
pub fn checked_cube(k: u8) -> TorusShape {
    if !(1..=TorusShape::MAX_K).contains(&k) {
        fail_usage(
            &Diagnostic::error(
                "AV102",
                format!("torus extent {k} out of range 1..={}", TorusShape::MAX_K),
            )
            .with("k", k),
        );
    }
    TorusShape::cube(k)
}

/// [`checked_cube`] for a binary whose traffic must leave its node (AV104):
/// on a one-node machine uniform traffic has no destination, a ping-pong no
/// hop and a halo no neighbour.
pub fn checked_torus(k: u8, traffic: &str) -> TorusShape {
    let shape = checked_cube(k);
    if shape.num_nodes() < 2 {
        fail_usage(
            &Diagnostic::error(
                "AV104",
                format!("{traffic} traffic cannot leave the one node of a {shape} machine"),
            )
            .with("k", k),
        );
    }
    shape
}

/// Looks up a named traffic pattern (AV101). The fig9-family binaries
/// share this table; an unknown name lists the known ones.
pub fn make_pattern(name: &str) -> Result<Box<dyn TrafficPattern>, Diagnostic> {
    match name {
        "uniform" => Ok(Box::new(UniformRandom)),
        "2-hop-neighbor" => Ok(Box::new(NHopNeighbor::new(2))),
        other => Err(
            Diagnostic::error("AV101", format!("unknown traffic pattern `{other}`"))
                .with("known", "uniform, 2-hop-neighbor"),
        ),
    }
}

/// Writes an output file via [`anton_obs::write_atomic`], reporting failure
/// as AV103 with exit 1 instead of a panic.
pub fn write_output(path: impl AsRef<std::path::Path>, contents: &str) {
    let path = path.as_ref();
    if let Err(e) = anton_obs::write_atomic(path, contents) {
        eprintln!(
            "{}",
            Diagnostic::error("AV103", format!("cannot write {}: {e}", path.display()))
                .with("path", path.display()),
        );
        std::process::exit(1);
    }
}
