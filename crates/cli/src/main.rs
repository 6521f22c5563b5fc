//! The `orex` binary: non-interactive subcommands dispatched from argv,
//! falling back to the interactive shell.

use orex_cli::{parse, run_precompute, run_route, run_serve, run_trace, App, SUBCOMMAND_HELP};
use std::io::{self, BufRead, Write};

/// Every subcommand: its arguments after the name, stdout, stderr; the
/// result is the process exit code.
type Subcommand = fn(&[String], &mut dyn Write, &mut dyn Write) -> io::Result<i32>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args, &mut io::stdout(), &mut io::stderr()).unwrap_or_else(|e| {
        // Not `eprintln!`: the error may be a closed stderr, and that
        // would panic.
        let _ = writeln!(io::stderr(), "{e}");
        1
    });
    std::process::exit(code);
}

/// Runs the subcommand `args` names, or the shell when it names none.
fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> io::Result<i32> {
    let Some(name) = args.first() else {
        return repl(out, err);
    };
    let subcommand: Subcommand = match name.as_str() {
        "trace" => run_trace,
        "serve" => run_serve,
        "route" => run_route,
        "precompute" => run_precompute,
        "analyze" => analyze,
        "help" | "--help" | "-h" => help,
        other => {
            writeln!(err, "unknown subcommand '{other}'\n\n{SUBCOMMAND_HELP}")?;
            return Ok(2);
        }
    };
    subcommand(&args[1..], out, err)
}

fn analyze(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> io::Result<i32> {
    Ok(match orex_analyze::run_cli(args, out, err) {
        orex_analyze::CliOutcome::Clean => 0,
        orex_analyze::CliOutcome::Violations => 1,
        orex_analyze::CliOutcome::Error => 2,
    })
}

fn help(_: &[String], out: &mut dyn Write, _: &mut dyn Write) -> io::Result<i32> {
    writeln!(out, "{SUBCOMMAND_HELP}")?;
    Ok(0)
}

fn repl(out: &mut dyn Write, err: &mut dyn Write) -> io::Result<i32> {
    let mut app = App::new();
    let stdin = io::stdin();
    writeln!(
        out,
        "orex — explaining & reformulating authority flow queries"
    )?;
    writeln!(
        out,
        "type 'help' for commands, 'generate dblp-top 0.05' to begin"
    )?;
    loop {
        write!(out, "orex> ")?;
        out.flush()?;
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                writeln!(err, "input error: {e}")?;
                break;
            }
        }
        match parse(&line) {
            Ok(Some(cmd)) => match app.execute(cmd, out) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => writeln!(err, "output error: {e}")?,
            },
            Ok(None) => {}
            Err(e) => writeln!(out, "{e}")?,
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run(&args, &mut out, &mut err).unwrap();
        (code, String::from_utf8(err).unwrap())
    }

    /// The subcommands that only re-read a running server's `/logs`,
    /// `/metrics` and `/trace/<id>` are gone; naming one is a usage error.
    #[test]
    fn removed_client_subcommands_are_usage_errors() {
        let (code, err) = code_of(&["logs"]);
        assert_eq!(code, 2);
        assert!(err.starts_with("unknown subcommand 'logs'"), "{err}");
        let (code, err) = code_of(&["stats"]);
        assert_eq!(code, 2);
        assert!(err.starts_with("unknown subcommand 'stats'"), "{err}");
        let (code, err) = code_of(&["trace", "--fleet", "1"]);
        assert_eq!(code, 2);
        assert!(
            err.starts_with("trace: unknown argument '--fleet'"),
            "{err}"
        );
    }

    #[test]
    fn help_prints_usage_and_exits_0() {
        let args = vec!["help".to_string()];
        let mut out = Vec::new();
        assert_eq!(run(&args, &mut out, &mut Vec::new()).unwrap(), 0);
        assert!(String::from_utf8(out).unwrap().starts_with("orex — "));
    }
}
