//! FNV-1a (64 bit) of each file named, one `hash  name` line each — the
//! digest `scripts/outputs.sh` pins inputs and outputs with.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin fnv64 -- FILE...
//! ```

use std::process::ExitCode;

/// FNV-1a, 64 bit: the benchmark generator's checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

fn main() -> ExitCode {
    for path in std::env::args().skip(1) {
        match std::fs::read(&path) {
            Ok(bytes) => println!("{:016x}  {path}", fnv64(&bytes)),
            Err(e) => {
                eprintln!("fnv64: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
