//! Bounded exhaustive two-thread interleaving explorer.
//!
//! A hand-rolled model checker in miniature: each "thread" is a list of
//! atomic *steps* (closures over shared state `S`), and
//! [`explore_two`] runs every one of the `C(a+b, a)` ways the two step
//! lists can interleave, invoking a checker on the final state of each
//! schedule. Steps execute on the single test thread, so each schedule
//! is a sequentially-consistent execution at step granularity — this
//! deliberately checks *protocol* races (lost updates, torn sequences,
//! generation mismatches), not memory-ordering bugs, which the Miri and
//! TSan CI jobs cover on the real concurrent code.
//!
//! Nothing outside this module's own unit tests uses it: the telemetry
//! store it was written to model-check takes a lock instead of swapping
//! slot pointers, so there is no protocol left to explore.

/// Which thread a step belongs to, passed to the trace callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// First step list.
    A,
    /// Second step list.
    B,
}

/// One atomic step of a modelled thread.
pub type Step<S> = Box<dyn Fn(&mut S)>;

/// Builds a step list from closures.
pub fn steps<S: 'static, const N: usize>(fns: [fn(&mut S); N]) -> Vec<Step<S>> {
    fns.into_iter().map(|f| Box::new(f) as Step<S>).collect()
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct Exploration {
    /// Number of distinct schedules executed.
    pub schedules: u64,
    /// First schedule (as a lane sequence) that failed the checker,
    /// with the checker's message.
    pub failure: Option<(Vec<Lane>, String)>,
}

impl Exploration {
    /// Panics with a readable counterexample if any schedule failed.
    /// Test-harness API, so panicking is the point.
    pub fn assert_ok(&self) {
        if let Some((sched, msg)) = &self.failure {
            let lanes: String = sched
                .iter()
                .map(|l| if *l == Lane::A { 'A' } else { 'B' })
                .collect();
            panic!(
                "interleaving violation after {} schedule(s)\n  schedule: {}\n  {}",
                self.schedules, lanes, msg
            );
        }
    }
}

/// Exhaustively explores every interleaving of `a` and `b` from a fresh
/// `init()` state, calling `check` on each completed schedule. `check`
/// returns `Err(description)` to record a counterexample; exploration
/// stops at the first failure (the counterexample is what you debug —
/// more of them is noise).
///
/// Schedule count is `C(len_a + len_b, len_a)`; keep step lists under
/// ~12 steps each (C(24,12) ≈ 2.7M) so tests stay sub-second.
pub fn explore_two<S, I, C>(init: I, a: &[Step<S>], b: &[Step<S>], check: C) -> Exploration
where
    I: Fn() -> S,
    C: Fn(&S) -> Result<(), String>,
{
    let total = a.len() + b.len();
    let mut schedule: Vec<Lane> = Vec::with_capacity(total);
    let mut out = Exploration {
        schedules: 0,
        failure: None,
    };
    // Iterative depth-first enumeration of lane sequences. `schedule`
    // holds the prefix; we extend with A when possible, and on
    // backtrack flip a trailing A to B.
    'outer: loop {
        // Extend the prefix to a full schedule, preferring lane A.
        while schedule.len() < total {
            let used_a = schedule.iter().filter(|l| **l == Lane::A).count();
            if used_a < a.len() {
                schedule.push(Lane::A);
            } else {
                schedule.push(Lane::B);
            }
        }
        // Execute it.
        let mut state = init();
        let (mut ia, mut ib) = (0usize, 0usize);
        for lane in &schedule {
            match lane {
                Lane::A => {
                    a[ia](&mut state);
                    ia += 1;
                }
                Lane::B => {
                    b[ib](&mut state);
                    ib += 1;
                }
            }
        }
        out.schedules += 1;
        if let Err(msg) = check(&state) {
            out.failure = Some((schedule.clone(), msg));
            return out;
        }
        // Advance to the next lane sequence: find the last A that can
        // become a B (enough B steps must remain to its right).
        loop {
            // Pop trailing Bs.
            while schedule.last() == Some(&Lane::B) {
                schedule.pop();
            }
            match schedule.pop() {
                None => break 'outer,
                Some(Lane::A) => {
                    let used_b = schedule.iter().filter(|l| **l == Lane::B).count();
                    if used_b < b.len() {
                        schedule.push(Lane::B);
                        break;
                    }
                    // Cannot flip here (no B budget left); keep
                    // backtracking.
                }
                Some(Lane::B) => unreachable!("trailing Bs already popped"),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binom(n: u64, k: u64) -> u64 {
        let mut r = 1u64;
        for i in 0..k {
            r = r * (n - i) / (i + 1);
        }
        r
    }

    #[test]
    fn schedule_count_is_binomial() {
        // 3 + 2 steps → C(5,3) = 10 schedules.
        let a = steps::<u32, 3>([|s| *s += 1, |s| *s += 1, |s| *s += 1]);
        let b = steps::<u32, 2>([|s| *s *= 2, |s| *s *= 2]);
        let ex = explore_two(|| 0u32, &a, &b, |_| Ok(()));
        assert_eq!(ex.schedules, binom(5, 3));
        ex.assert_ok();
    }

    #[test]
    fn finds_a_lost_update() {
        // Classic read-modify-write race: both threads do
        // `tmp = x; x = tmp + 1` as two separate steps. Some schedule
        // must lose an update (final x == 1).
        #[derive(Default)]
        struct S {
            x: u32,
            tmp_a: u32,
            tmp_b: u32,
        }
        let a = steps::<S, 2>([|s| s.tmp_a = s.x, |s| s.x = s.tmp_a + 1]);
        let b = steps::<S, 2>([|s| s.tmp_b = s.x, |s| s.x = s.tmp_b + 1]);
        let ex = explore_two(S::default, &a, &b, |s| {
            if s.x == 2 {
                Ok(())
            } else {
                Err(format!("lost update: x = {}", s.x))
            }
        });
        let (sched, msg) = ex.failure.expect("race must be found");
        assert!(msg.contains("lost update"));
        assert_eq!(sched.len(), 4);
    }

    #[test]
    fn empty_lane_is_fine() {
        let a = steps::<u32, 2>([|s| *s += 1, |s| *s += 1]);
        let ex = explore_two(
            || 0u32,
            &a,
            &[],
            |s| {
                if *s == 2 {
                    Ok(())
                } else {
                    Err("wrong".into())
                }
            },
        );
        assert_eq!(ex.schedules, 1);
        ex.assert_ok();
    }
}
