//! Export of a [`Problem`] to the CPLEX LP text format.
//!
//! Useful for debugging the home-grown solver against external tools: the
//! emitted text can be fed unchanged to CPLEX, Gurobi, HiGHS, or `glpsol`.

use crate::problem::{Problem, RowId, Sense, VarId, VarType};
use std::fmt::Write as _;

/// Renders `problem` in CPLEX LP format.
///
/// Variable and row names from the problem are used when present (sanitized
/// to the LP charset), with `x{i}` / `r{i}` fallbacks.
///
/// # Examples
///
/// ```
/// use milp::{Problem, Sense, Var, Row};
/// use milp::lp_format::to_lp_string;
///
/// let mut p = Problem::new(Sense::Maximize);
/// let x = p.add_var(Var::integer().bounds(0.0, 4.0).obj(3.0).name("x"));
/// p.add_row(Row::new().coef(x, 2.0).le(7.0).name("cap"));
/// let text = to_lp_string(&p);
/// assert!(text.contains("Maximize"));
/// assert!(text.contains("cap:"));
/// ```
pub fn to_lp_string(problem: &Problem) -> String {
    let mut s = String::new();
    match problem.sense() {
        Sense::Minimize => s.push_str("Minimize\n"),
        Sense::Maximize => s.push_str("Maximize\n"),
    }
    s.push_str(" obj:");
    let mut wrote_any = false;
    for v in problem.var_ids() {
        let c = problem.var_obj(v);
        if c != 0.0 {
            let _ = write!(s, " {} {}", sign_coef(c, !wrote_any), var_name(problem, v));
            wrote_any = true;
        }
    }
    if !wrote_any {
        s.push_str(" 0 x0_dummy");
    }
    s.push('\n');

    s.push_str("Subject To\n");
    for r in problem.row_ids() {
        let (lo, hi) = problem.row_bounds(r);
        if !lo.is_finite() && !hi.is_finite() {
            continue;
        }
        // Merge duplicate coefficients for readable output.
        let mut merged: std::collections::BTreeMap<usize, f64> = Default::default();
        for &(v, c) in problem.row_coefs(r) {
            *merged.entry(v.index()).or_insert(0.0) += c;
        }
        let body = {
            let mut b = String::new();
            let mut first = true;
            for (&vi, &c) in &merged {
                if c == 0.0 {
                    continue;
                }
                let _ = write!(
                    b,
                    " {} {}",
                    sign_coef(c, first),
                    var_name(problem, VarId(vi))
                );
                first = false;
            }
            if first {
                b.push_str(" 0 x0_dummy");
            }
            b
        };
        let name = row_name(problem, r);
        if lo.is_finite() && hi.is_finite() && (lo - hi).abs() < 1e-15 {
            let _ = writeln!(s, " {}:{} = {}", name, body, lo);
        } else {
            if lo.is_finite() && hi.is_finite() {
                let _ = writeln!(s, " {}_lo:{} >= {}", name, body, lo);
                let _ = writeln!(s, " {}_hi:{} <= {}", name, body, hi);
            } else if lo.is_finite() {
                let _ = writeln!(s, " {}:{} >= {}", name, body, lo);
            } else {
                let _ = writeln!(s, " {}:{} <= {}", name, body, hi);
            }
        }
    }

    s.push_str("Bounds\n");
    for v in problem.var_ids() {
        let (lo, hi) = problem.var_bounds(v);
        let n = var_name(problem, v);
        match (lo.is_finite(), hi.is_finite()) {
            (true, true) => {
                let _ = writeln!(s, " {} <= {} <= {}", lo, n, hi);
            }
            (true, false) => {
                if lo != 0.0 {
                    let _ = writeln!(s, " {} >= {}", n, lo);
                }
            }
            (false, true) => {
                let _ = writeln!(s, " -inf <= {} <= {}", n, hi);
            }
            (false, false) => {
                let _ = writeln!(s, " {} free", n);
            }
        }
    }

    let generals: Vec<VarId> = problem
        .var_ids()
        .filter(|&v| problem.var_type(v) == VarType::Integer)
        .collect();
    if !generals.is_empty() {
        s.push_str("Generals\n");
        for v in generals {
            let _ = writeln!(s, " {}", var_name(problem, v));
        }
    }
    let binaries: Vec<VarId> = problem
        .var_ids()
        .filter(|&v| problem.var_type(v) == VarType::Binary)
        .collect();
    if !binaries.is_empty() {
        s.push_str("Binaries\n");
        for v in binaries {
            let _ = writeln!(s, " {}", var_name(problem, v));
        }
    }
    s.push_str("End\n");
    s
}

fn sign_coef(c: f64, first: bool) -> String {
    if first {
        format!("{}", c)
    } else if c < 0.0 {
        format!("- {}", -c)
    } else {
        format!("+ {}", c)
    }
}

fn sanitize(raw: &str) -> String {
    raw.chars()
        .map(|ch| {
            if ch.is_ascii_alphanumeric() || "_.#$%&/".contains(ch) {
                ch
            } else {
                '_'
            }
        })
        .collect()
}

fn var_name(p: &Problem, v: VarId) -> String {
    match p.var_name(v) {
        Some(n) => sanitize(n),
        None => format!("x{}", v.index()),
    }
}

fn row_name(p: &Problem, r: RowId) -> String {
    match p.row_name(r) {
        Some(n) => sanitize(n),
        None => format!("r{}", r.index()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Row, Var};

    #[test]
    fn renders_sections() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().bounds(0.0, 5.0).obj(2.0).name("width"));
        let b = p.add_var(Var::binary().obj(-1.0));
        let g = p.add_var(Var::integer().bounds(0.0, 9.0).obj(1.0));
        p.add_row(Row::new().coef(x, 1.0).coef(b, -3.0).ge(1.0).name("lq"));
        p.add_row(Row::new().coef(g, 1.0).coef(b, 1.0).range(0.0, 4.0));
        let s = to_lp_string(&p);
        assert!(s.contains("Minimize"));
        assert!(s.contains("Subject To"));
        assert!(s.contains("lq:"));
        assert!(s.contains("width"));
        assert!(s.contains("Bounds"));
        assert!(s.contains("Generals"));
        assert!(s.contains("Binaries"));
        assert!(s.ends_with("End\n"));
        // range row becomes two inequalities
        assert!(s.contains("r1_lo:"));
        assert!(s.contains("r1_hi:"));
    }

    #[test]
    fn weird_names_sanitized() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(Var::cont().obj(1.0).name("a b->c"));
        p.add_row(Row::new().coef(x, 1.0).le(1.0).name("my row"));
        let s = to_lp_string(&p);
        assert!(s.contains("a_b__c"));
        assert!(s.contains("my_row:"));
    }

    #[test]
    fn equality_rendered_once() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().obj(1.0));
        p.add_row(Row::new().coef(x, 2.0).eq(4.0));
        let s = to_lp_string(&p);
        assert!(s.contains("= 4"));
        assert!(!s.contains("r0_lo"));
    }

    /// Pins the whole text of one small problem under both senses: a
    /// ranged row (`_lo`/`_hi`), an equality, a repeated coefficient,
    /// free, negative-lower-bound and lower-bounded columns, `Generals`,
    /// `Binaries` and sanitized names.
    #[test]
    fn golden_text() {
        let build = |sense| {
            let mut p = Problem::new(sense);
            let f = p.add_var(Var::free().obj(1.0).name("f"));
            let n = p.add_var(Var::cont().bounds(-2.5, 4.0).obj(-3.0).name("flow a->b"));
            let w = p.add_var(Var::cont().bounds(1.5, f64::INFINITY));
            let g = p.add_var(Var::integer().bounds(0.0, 9.0).name("g"));
            let z = p.add_var(Var::binary().obj(2.0).name("z"));
            p.add_row(
                Row::new()
                    .coef(f, 1.0)
                    .coef(z, -2.0)
                    .range(-1.0, 4.0)
                    .name("cap"),
            );
            p.add_row(
                Row::new()
                    .coef(n, 1.0)
                    .coef(g, 1.0)
                    .coef(n, 0.5)
                    .eq(3.0)
                    .name("bal"),
            );
            p.add_row(Row::new().coef(w, 1.0).coef(f, -1.0).ge(0.0));
            p.add_row(Row::new().coef(g, 2.0).le(7.0).name("my row"));
            to_lp_string(&p)
        };
        let body = concat!(
            " obj: 1 f - 3 flow_a__b + 2 z\n",
            "Subject To\n",
            " cap_lo: 1 f - 2 z >= -1\n",
            " cap_hi: 1 f - 2 z <= 4\n",
            " bal: 1.5 flow_a__b + 1 g = 3\n",
            " r2: -1 f + 1 x2 >= 0\n",
            " my_row: 2 g <= 7\n",
            "Bounds\n",
            " f free\n",
            " -2.5 <= flow_a__b <= 4\n",
            " x2 >= 1.5\n",
            " 0 <= g <= 9\n",
            " 0 <= z <= 1\n",
            "Generals\n",
            " g\n",
            "Binaries\n",
            " z\n",
            "End\n",
        );
        assert_eq!(build(Sense::Minimize), format!("Minimize\n{body}"));
        assert_eq!(build(Sense::Maximize), format!("Maximize\n{body}"));
    }
}
