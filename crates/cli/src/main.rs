//! The `orex` binary: non-interactive subcommands (`trace`, `stats`)
//! dispatched from argv, falling back to the interactive shell.

use orex_cli::{
    parse, run_logs, run_precompute, run_route, run_serve, run_stats, run_top, run_trace, App,
    SUBCOMMAND_HELP,
};
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace") => {
            let code = run_trace(&args[1..], &mut std::io::stdout(), &mut std::io::stderr())
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    1
                });
            std::process::exit(code);
        }
        Some("stats") => {
            let code = run_stats(&args[1..], &mut std::io::stdout(), &mut std::io::stderr())
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    1
                });
            std::process::exit(code);
        }
        Some("serve") => {
            let code = run_serve(&args[1..], &mut std::io::stdout(), &mut std::io::stderr())
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    1
                });
            std::process::exit(code);
        }
        Some("route") => {
            let code = run_route(&args[1..], &mut std::io::stdout(), &mut std::io::stderr())
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    1
                });
            std::process::exit(code);
        }
        Some("precompute") => {
            let code = run_precompute(&args[1..], &mut std::io::stdout(), &mut std::io::stderr())
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    1
                });
            std::process::exit(code);
        }
        Some("top") => {
            let code = run_top(&args[1..], &mut std::io::stdout(), &mut std::io::stderr())
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    1
                });
            std::process::exit(code);
        }
        Some("logs") => {
            let code = run_logs(&args[1..], &mut std::io::stdout(), &mut std::io::stderr())
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    1
                });
            std::process::exit(code);
        }
        Some("analyze") => {
            let code = match orex_analyze::run_cli(
                &args[1..],
                &mut std::io::stdout(),
                &mut std::io::stderr(),
            ) {
                orex_analyze::CliOutcome::Clean => 0,
                orex_analyze::CliOutcome::Violations => 1,
                orex_analyze::CliOutcome::Error => 2,
            };
            std::process::exit(code);
        }
        Some("help" | "--help" | "-h") => {
            println!("{SUBCOMMAND_HELP}");
            return;
        }
        Some(other) => {
            eprintln!("unknown subcommand '{other}'\n\n{SUBCOMMAND_HELP}");
            std::process::exit(2);
        }
        None => {}
    }
    repl();
}

fn repl() {
    let mut app = App::new();
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    println!("orex — explaining & reformulating authority flow queries");
    println!("type 'help' for commands, 'generate dblp-top 0.05' to begin");
    loop {
        print!("orex> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        match parse(&line) {
            Ok(Some(cmd)) => match app.execute(cmd, &mut stdout) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => eprintln!("output error: {e}"),
            },
            Ok(None) => {}
            Err(e) => println!("{e}"),
        }
    }
}
