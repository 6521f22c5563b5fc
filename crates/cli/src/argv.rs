//! Argument parsing shared by every `orex` subcommand.
//!
//! Each subcommand passes its own name, which prefixes every error
//! message (`serve: --threads got invalid value 'many'`), and the flags
//! it knows, so a mistyped flag is an error rather than silently
//! ignored.

use std::str::FromStr;
use std::time::Duration;

/// The value after `flag`, parsed. `Ok(None)` when the flag is absent;
/// an error when it is last or its value does not parse.
pub(crate) fn flag<T: FromStr>(
    cmd: &str,
    args: &[String],
    flag: &str,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let Some(raw) = args.get(i + 1) else {
        return Err(format!("{cmd}: {flag} expects a value"));
    };
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{cmd}: {flag} got invalid value '{raw}'"))
}

/// The argument following `flag`, unparsed; `None` when the flag is
/// absent or last.
pub(crate) fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Every value following any occurrence of `flag` (repeatable flags).
pub(crate) fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// The arguments that are neither a known flag nor the value after a
/// known value flag. Fails on the first unknown `--` flag.
pub(crate) fn positionals(
    cmd: &str,
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if value_flags.contains(&arg.as_str()) {
            rest.next();
        } else if switches.contains(&arg.as_str()) {
            continue;
        } else if arg.starts_with("--") {
            return Err(format!("{cmd}: unknown argument '{arg}'"));
        } else {
            out.push(arg.clone());
        }
    }
    Ok(out)
}

/// Fails on the first argument that is neither a known flag nor the
/// value after a known value flag: for a subcommand that takes no
/// positional arguments.
pub(crate) fn reject_unknown(
    cmd: &str,
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    match positionals(cmd, args, value_flags, switches)?.first() {
        Some(arg) => Err(format!("{cmd}: unknown argument '{arg}'")),
        None => Ok(()),
    }
}

/// Applies `--trace-sample N` (trace 1 request in N) and
/// `--trace-slow-ms N` (always keep a trace slower than N ms) to this
/// process's tracer. Both are parsed before either is applied, so a bad
/// value changes nothing.
pub(crate) fn apply_trace_flags(cmd: &str, args: &[String]) -> Result<(), String> {
    let sample = flag::<u64>(cmd, args, "--trace-sample")?;
    let slow_ms = flag::<u64>(cmd, args, "--trace-slow-ms")?;
    let tracer = orex_telemetry::tracer();
    if let Some(every) = sample {
        tracer.set_sample_every(every);
    }
    if let Some(ms) = slow_ms {
        tracer.set_slow_threshold(Some(Duration::from_millis(ms)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parses_reports_missing_and_bad_values_with_the_subcommand() {
        let args = argv(&["--threads", "4", "--scale", "big", "--out"]);
        assert_eq!(flag::<usize>("serve", &args, "--threads"), Ok(Some(4)));
        assert_eq!(flag::<usize>("serve", &args, "--absent"), Ok(None));
        assert_eq!(
            flag::<f64>("route", &args, "--scale"),
            Err("route: --scale got invalid value 'big'".into())
        );
        assert_eq!(
            flag::<String>("precompute", &args, "--out"),
            Err("precompute: --out expects a value".into())
        );
        assert_eq!(flag_value(&args, "--out"), None);
        let repeated = argv(&["--dataset", "a", "--eager", "--dataset", "b"]);
        assert_eq!(flag_values(&repeated, "--dataset"), ["a", "b"]);
    }

    #[test]
    fn unknown_flags_and_stray_positionals_are_rejected() {
        let values = &["--scale", "--format"];
        let switches = &["--eager"];
        let args = argv(&["data", "--scale", "-1", "--eager", "mining"]);
        assert_eq!(
            positionals("trace", &args, values, switches),
            Ok(argv(&["data", "mining"]))
        );
        assert_eq!(
            reject_unknown("serve", &args, values, switches),
            Err("serve: unknown argument 'data'".into())
        );
        let typo = argv(&["--scale", "1", "--trace-sampel", "10"]);
        assert_eq!(
            positionals("trace", &typo, values, switches),
            Err("trace: unknown argument '--trace-sampel'".into())
        );
        assert_eq!(
            reject_unknown("serve", &argv(&["--eager"]), values, switches),
            Ok(())
        );
    }
}
