//! The command-line plumbing every harness binary under `src/bin/`
//! shares: flag parsing against one usage string, input reading,
//! output writing, checkpoint-store opening and the `--jobs` /
//! `--check-jobs` cross-jobs determinism loop — plus the artifact
//! helpers more than one binary needs.
//!
//! Every binary exits with one convention: `0` ok (`--help` included),
//! `1` a check failed or an output could not be written, `2` a bad
//! invocation or unusable input. Bad input never panics.

use av_core::ckptstore::CkptStore;
use av_core::determinism::fnv64;
use av_core::parallel::effective_jobs;
use av_trace::export::trace_from_chrome;
use av_trace::{json, TraceData};
use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

/// A binary's command line: yields flags and positionals in order, and
/// takes each flag's value on request. `--help`/`-h` prints the usage to
/// stderr and exits 0; an unknown flag, a missing value or one that does
/// not parse prints one line naming the flag, then the usage, and exits
/// 2.
pub struct Args {
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
    flag: String,
}

impl Args {
    /// The process's arguments (program name skipped), described by the
    /// binary's `usage` text.
    pub fn from_env(usage: &'static str) -> Args {
        Args::new(usage, std::env::args().skip(1).collect())
    }

    fn new(usage: &'static str, args: Vec<String>) -> Args {
        Args { usage, rest: args.into_iter(), flag: String::new() }
    }

    /// The value following the current flag.
    pub fn value(&mut self) -> String {
        match self.rest.next() {
            Some(value) => value,
            None => self.fail(format_args!("{} needs a value", self.flag)),
        }
    }

    /// The current flag's value, parsed.
    pub fn parse<T: FromStr>(&mut self) -> T
    where
        T::Err: Display,
    {
        self.parse_with(str::parse)
    }

    /// The current flag's value, parsed by `parse`.
    pub fn parse_with<T, E: Display>(&mut self, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
        let value = self.value();
        parse(&value)
            .unwrap_or_else(|e| self.fail(format_args!("invalid {} {value:?}: {e}", self.flag)))
    }

    /// The current flag's value as a comma-separated list; every entry,
    /// hence at least one, must parse.
    pub fn list<T: FromStr>(&mut self) -> Vec<T>
    where
        T::Err: Display,
    {
        self.parse_with(|value| value.split(',').map(|s| s.trim().parse()).collect())
    }

    /// Rejects the invocation: prints `msg`, then the usage, and exits 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{msg}");
        eprintln!("{}", self.usage);
        std::process::exit(2)
    }

    /// Rejects an argument the binary does not take.
    pub fn unknown(&self, arg: &str) -> ! {
        self.fail(format_args!("unknown argument: {arg}"))
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let arg = self.rest.next()?;
        if arg == "--help" || arg == "-h" {
            eprintln!("{}", self.usage);
            std::process::exit(0);
        }
        self.flag.clone_from(&arg);
        Some(arg)
    }
}

/// Prints `msg` and exits 2: an input named on the command line is
/// unusable.
pub fn die(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Reads a named input file, or exits 2 with `cannot read <path>: <err>`.
pub fn read(path: impl AsRef<Path>) -> String {
    let path = path.as_ref();
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format_args!("cannot read {}: {e}", path.display())))
}

/// Reads an exported Chrome trace back into the [`TraceData`] it was
/// rendered from, or exits 2 naming the path when the file is unreadable,
/// not JSON or not a trace this repo exported.
pub fn read_trace(path: &str) -> TraceData {
    let doc =
        json::parse(&read(path)).unwrap_or_else(|e| die(format_args!("cannot parse {path}: {e}")));
    trace_from_chrome(&doc)
        .unwrap_or_else(|e| die(format_args!("{path} is not a stack trace: {e}")))
}

/// Writes an output file, creating its parent directory; exits 1 naming
/// the path on failure.
pub fn write(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) {
    let path = path.as_ref();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, bytes));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Opens the durable checkpoint store at `dir` and prints its recovery
/// report to stderr; exits 2 if the store cannot be opened.
pub fn open_store(dir: &Path) -> CkptStore {
    let (store, recovery) = CkptStore::open(dir).unwrap_or_else(|e| {
        die(format_args!("cannot open checkpoint store {}: {e}", dir.display()))
    });
    eprint!("{}", recovery.render());
    store
}

/// `--jobs`/`-j` and `--check-jobs`, and the cross-jobs determinism
/// check they drive.
#[derive(Default)]
pub struct Jobs {
    requested: Option<usize>,
    check: Vec<usize>,
}

impl Jobs {
    /// Takes the value of `flag` when it is one of this type's flags;
    /// `false` for any other flag.
    pub fn accept(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--jobs" | "-j" => self.requested = Some(args.parse()),
            "--check-jobs" => self.check = args.list(),
            _ => return false,
        }
        true
    }

    /// The primary run's worker count: `--jobs`, else the first
    /// `--check-jobs` level (so one checked level comes for free), else
    /// every core.
    pub fn primary(&self) -> usize {
        effective_jobs(self.requested.or(self.check.first().copied()))
    }

    /// The `--check-jobs` levels as given (empty without the flag).
    pub fn check_levels(&self) -> &[usize] {
        &self.check
    }

    /// Reruns `what` at every `--check-jobs` level other than the
    /// primary one; `rerun` returns the differences it found against
    /// the primary run. Prints each as a `DETERMINISM VIOLATION` and
    /// exits 1 on any; prints `passed` once every level agreed.
    pub fn check(&self, what: &str, mut rerun: impl FnMut(usize) -> Vec<String>, passed: &str) {
        let primary = self.primary();
        let levels: Vec<usize> = self.check.iter().copied().filter(|&j| j != primary).collect();
        if levels.is_empty() {
            return;
        }
        for level in levels {
            eprintln!("determinism check: rerunning {what} with --jobs {level}...");
            let violations = rerun(level);
            for v in &violations {
                eprintln!("DETERMINISM VIOLATION between --jobs {primary} and --jobs {level}: {v}");
            }
            if !violations.is_empty() {
                std::process::exit(1);
            }
        }
        println!("{passed}");
    }
}

/// FNV-1a 64 hash of rendered artifact bytes, formatted like the golden
/// determinism hash.
pub fn bytes_hash(text: &str) -> String {
    format!("{:#018x}", fnv64(text.as_bytes()))
}

/// Serializes `(key, value)` pairs as a JSON object, preserving the
/// given key order (callers pass keys in a fixed order so the file is
/// stable across reruns).
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body =
        fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect::<Vec<_>>().join(",\n");
    format!("{{\n{body}\n}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new("usage: test", list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn yields_arguments_in_order_and_takes_values() {
        let mut a = args(&["pos", "--n", "7", "--levels", "1, 8", "--name", "x"]);
        assert_eq!(a.next().as_deref(), Some("pos"));
        assert_eq!(a.next().as_deref(), Some("--n"));
        assert_eq!(a.parse::<u32>(), 7);
        assert_eq!(a.next().as_deref(), Some("--levels"));
        assert_eq!(a.list::<usize>(), vec![1, 8]);
        assert_eq!(a.next().as_deref(), Some("--name"));
        assert_eq!(a.value(), "x");
        assert_eq!(a.next(), None);
    }

    #[test]
    fn primary_jobs_default_to_the_first_check_level() {
        let mut jobs = Jobs::default();
        let mut a = args(&["--check-jobs", "3,8"]);
        let flag = a.next().unwrap();
        assert!(jobs.accept(&flag, &mut a));
        assert_eq!((jobs.primary(), jobs.check_levels()), (3, &[3, 8][..]));
        let mut a = args(&["-j", "5", "--other"]);
        let flag = a.next().unwrap();
        assert!(jobs.accept(&flag, &mut a));
        assert_eq!(jobs.primary(), 5);
        assert!(!jobs.accept(&a.next().unwrap(), &mut a));
    }

    #[test]
    fn artifact_helpers_keep_their_formats() {
        assert_eq!(bytes_hash(""), "0xcbf29ce484222325");
        assert_eq!(
            json_object(&[("a", "1".into()), ("b", "\"x\"".into())]),
            "{\n  \"a\": 1,\n  \"b\": \"x\"\n}\n"
        );
    }
}
