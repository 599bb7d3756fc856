//! One `pfam` subprocess: spawn, reap with `wait4`, read what it wrote.
//!
//! The benchmark uses only these spellings of the CLI — `cluster`, `run`,
//! `--out`, `--checkpoint-dir`, `--mem-budget` — and the exact-mode defaults.
//!
//! The kernel folds the spawning process's own high-water RSS into the
//! child's `ru_maxrss` at `exec`, so a child's peak is never reported below
//! the driver's. The driver therefore spawns while it is still small: the
//! in-process traced pass comes after every subprocess of a measurement.

use std::collections::HashMap;
use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on a 64-bit target: two timevals, fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished subprocess cost.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// Spawn to reap.
    pub wall_s: f64,
    /// User + system CPU of the child.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

/// The Table-I figures a run prints: non-redundant reads, components of at
/// least five members, dense subgraphs.
pub type TableOne = (usize, usize, usize);

/// How to invoke `pfam` on one workload.
pub struct Invocation<'a> {
    pub pfam: &'a Path,
    pub fasta: &'a Path,
    /// `families.tsv` destination.
    pub out: &'a Path,
    /// Where the child's standard output goes.
    pub stdout: &'a Path,
    pub mem_budget: Option<u64>,
    /// `Some` selects `pfam run`; the directory is emptied before the run.
    pub checkpoint_dir: Option<&'a Path>,
}

impl Invocation<'_> {
    /// Run to completion. `Err` is an operation that failed: the child could
    /// not start, was killed, or exited with a code other than 0.
    pub fn run(&self) -> Result<(Usage, TableOne), String> {
        let mut cmd = Command::new(self.pfam);
        match self.checkpoint_dir {
            Some(dir) => {
                // A run must not resume from the previous one's snapshots.
                let _ = std::fs::remove_dir_all(dir);
                cmd.arg("run").arg(self.fasta).arg("--checkpoint-dir").arg(dir);
            }
            None => {
                cmd.arg("cluster").arg(self.fasta);
            }
        }
        cmd.arg("--out").arg(self.out);
        if let Some(bytes) = self.mem_budget {
            cmd.arg("--mem-budget").arg(bytes.to_string());
        }
        let stdout = File::create(self.stdout).map_err(|e| format!("stdout file: {e}"))?;
        cmd.stdin(Stdio::null()).stdout(Stdio::from(stdout)).stderr(Stdio::null());

        let started = Instant::now();
        let child =
            cmd.spawn().map_err(|e| format!("cannot start {}: {e}", self.pfam.display()))?;
        let mut status = 0i32;
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss_kib: 0,
            rest: [0; 13],
        };
        // SAFETY: `status` and `ru` are live, writable and laid out as the
        // kernel expects (`Rusage` mirrors `struct rusage`); the pid is our
        // own un-reaped child, and `Child` never waits on drop, so nothing
        // else reaps it.
        let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
        let wall_s = started.elapsed().as_secs_f64();
        if reaped != child.id() as i32 {
            return Err(format!("wait4 failed: {}", std::io::Error::last_os_error()));
        }
        // WIFEXITED and WEXITSTATUS.
        if status & 0x7f != 0 {
            return Err(format!("pfam was killed by signal {}", status & 0x7f));
        }
        let code = (status >> 8) & 0xff;
        if code != 0 {
            return Err(format!("pfam exited with code {code}"));
        }
        let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        let usage = Usage {
            wall_s,
            cpu_s: seconds(&ru.utime) + seconds(&ru.stime),
            peak_rss_mb: ru.maxrss_kib as f64 / 1024.0,
        };
        let printed =
            std::fs::read_to_string(self.stdout).map_err(|e| format!("reading stdout: {e}"))?;
        Ok((usage, parse_table_one(&printed)?))
    }
}

/// The row under the `#Input seq.` header: fields 2–4 are #NR, #CC, #DS.
fn parse_table_one(stdout: &str) -> Result<TableOne, String> {
    let mut lines = stdout.lines().skip_while(|l| !l.starts_with("#Input seq."));
    let row = lines.nth(1).ok_or("pfam printed no Table-I row")?;
    let fields: Vec<usize> =
        row.split('\t').skip(1).take(3).filter_map(|f| f.parse().ok()).collect();
    match fields[..] {
        [nr, cc, ds] => Ok((nr, cc, ds)),
        _ => Err(format!("unreadable Table-I row: {row}")),
    }
}

const FAMILIES_HEADER: &str = "#family\tsize\tdensity\tmembers (FASTA headers)";

/// Parse `families.tsv` into families of read indices. `Err` when the file is
/// malformed: unknown header line, a size that disagrees with its member
/// list, an unknown read, or a read in two families.
pub fn parse_families(
    text: &str,
    index_of: &HashMap<String, usize>,
) -> Result<Vec<Vec<usize>>, String> {
    let mut lines = text.lines();
    if lines.next() != Some(FAMILIES_HEADER) {
        return Err("families.tsv: unknown header line".into());
    }
    let mut seen = vec![false; index_of.len()];
    let mut families = Vec::new();
    for (n, line) in lines.enumerate() {
        let fields: Vec<&str> = line.split('\t').collect();
        let [id, size, _density, members] = fields[..] else {
            return Err(format!("families.tsv line {}: expected 4 fields", n + 2));
        };
        if id.parse() != Ok(n) {
            return Err(format!("families.tsv line {}: family id {id} out of sequence", n + 2));
        }
        let mut family = Vec::new();
        for header in members.split(',') {
            let &i = index_of
                .get(header)
                .ok_or_else(|| format!("families.tsv: unknown read {header}"))?;
            if std::mem::replace(&mut seen[i], true) {
                return Err(format!("families.tsv: read {header} is in two families"));
            }
            family.push(i);
        }
        if size.parse() != Ok(family.len()) {
            return Err(format!(
                "families.tsv line {}: size {size} but {} members",
                n + 2,
                family.len()
            ));
        }
        families.push(family);
    }
    Ok(families)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> HashMap<String, usize> {
        ["a", "b", "c", "d"].into_iter().enumerate().map(|(i, h)| (h.to_owned(), i)).collect()
    }

    #[test]
    fn table_one_row_is_read_from_stdout() {
        let out =
            "#Input seq.\t#NR seq.\t#CC\t#DS\t#Seq in DS\tMean degree\tMean density\tLargest DS\n\
                   4000\t3500\t42\t40\t2900\t17\t81%\t700\n40 families written to x\n";
        assert_eq!(parse_table_one(out), Ok((3500, 42, 40)));
        assert!(parse_table_one("nothing").is_err());
    }

    #[test]
    fn well_formed_families_parse() {
        let text = format!("{FAMILIES_HEADER}\n0\t2\t1.00\ta,c\n1\t1\t1.00\tb\n");
        assert_eq!(parse_families(&text, &index()), Ok(vec![vec![0, 2], vec![1]]));
    }

    #[test]
    fn malformed_families_are_refused() {
        let bad = [
            "#something else\n0\t1\t1.00\ta\n".to_owned(),
            format!("{FAMILIES_HEADER}\n0\t2\t1.00\ta,b\n1\t1\t1.00\ta\n"),
            format!("{FAMILIES_HEADER}\n0\t3\t1.00\ta,b\n"),
            format!("{FAMILIES_HEADER}\n0\t1\t1.00\tzz\n"),
            format!("{FAMILIES_HEADER}\n0\t1\ta\n"),
        ];
        for text in bad {
            assert!(parse_families(&text, &index()).is_err(), "{text}");
        }
    }
}
