//! Lifted knapsack cover cuts.
//!
//! For an all-binary row `Σ a_j x_j <= b` (negative coefficients are
//! complemented away first), a *cover* is a set `C` with `Σ_{C} a_j > b`;
//! not all of `C` can be 1, so `Σ_{C} x_j <= |C| - 1` is valid. The greedy
//! heuristic picks the cover minimizing `Σ_{C} (1 - x̄_j)`, the cut's slack
//! at the fractional point, and the cut is extended ("lifted") with every
//! variable at least as heavy as the heaviest cover member — those can
//! join the left-hand side at no cost to validity, strengthening the cut.
//! Row lower bounds are handled by separating the negated row.
//!
//! Cover cuts depend only on the original rows and binary bounds, so they
//! are valid everywhere in the branch-and-bound tree.

use super::{Cut, CutContext, MIN_VIOLATION};

const EPS: f64 = 1e-9;

/// Appends up to `max_cuts` lifted cover cuts violated at `x`, at most one
/// per side of each knapsack row of `ctx`.
pub fn separate_cover(
    ctx: &CutContext,
    x: &[f64],
    max_cuts: usize,
    out: &mut Vec<Cut>,
) {
    let mut emitted = 0;
    let mut neg: Vec<(usize, f64)> = Vec::new();
    for (coefs, lo, hi) in &ctx.knapsack_rows {
        if emitted >= max_cuts {
            break;
        }
        if hi.is_finite() && try_cover(coefs, *hi, x, out) {
            emitted += 1;
        }
        if emitted >= max_cuts {
            break;
        }
        if lo.is_finite() {
            // Σ a x >= lo  <=>  Σ (-a) x <= -lo
            neg.clear();
            neg.extend(coefs.iter().map(|&(j, c)| (j, -c)));
            if try_cover(&neg, -lo, x, out) {
                emitted += 1;
            }
        }
    }
}

/// Separates one knapsack `Σ a_j x_j <= b` over binaries; returns whether a
/// violated (extended) cover cut was emitted.
fn try_cover(items: &[(usize, f64)], b: f64, x: &[f64], out: &mut Vec<Cut>) -> bool {
    // Complement negative coefficients: y_j = 1 - x_j turns `a_j x_j` with
    // a_j < 0 into `|a_j| y_j` at capacity `b + |a_j|`.
    let mut cap = b;
    // (var, weight, complemented, ybar)
    let mut work: Vec<(usize, f64, bool, f64)> = Vec::with_capacity(items.len());
    for &(j, c) in items {
        if c > 0.0 {
            work.push((j, c, false, x[j]));
        } else if c < 0.0 {
            cap -= c;
            work.push((j, -c, true, 1.0 - x[j]));
        }
    }
    if cap < -EPS || work.len() < 2 {
        return false;
    }
    let total: f64 = work.iter().map(|w| w.1).sum();
    if total <= cap + EPS {
        return false; // no cover exists
    }
    // Greedy: cheapest slack contribution per unit of weight first.
    work.sort_by(|p, q| {
        let kp = (1.0 - p.3) / p.1;
        let kq = (1.0 - q.3) / q.1;
        kp.partial_cmp(&kq).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut weight = 0.0;
    let mut cover_len = 0;
    for (i, w) in work.iter().enumerate() {
        weight += w.1;
        if weight > cap + EPS {
            cover_len = i + 1;
            break;
        }
    }
    if cover_len == 0 {
        return false;
    }
    let slack: f64 = work[..cover_len].iter().map(|w| 1.0 - w.3).sum();
    if slack >= 1.0 - MIN_VIOLATION {
        return false; // cover inequality not violated at x̄
    }
    // Extension: anything at least as heavy as the heaviest cover member
    // can join the left-hand side without affecting validity.
    let amax = work[..cover_len].iter().map(|w| w.1).fold(0.0, f64::max);
    let mut members: Vec<(usize, bool)> =
        work[..cover_len].iter().map(|w| (w.0, w.2)).collect();
    members.extend(
        work[cover_len..]
            .iter()
            .filter(|w| w.1 >= amax - EPS)
            .map(|w| (w.0, w.2)),
    );
    // Un-complement: y_j = 1 - x_j contributes -x_j and lowers the rhs by 1.
    let mut rhs = (cover_len - 1) as f64;
    let mut coefs: Vec<(usize, f64)> = Vec::with_capacity(members.len());
    for (j, complemented) in members {
        if complemented {
            coefs.push((j, -1.0));
            rhs -= 1.0;
        } else {
            coefs.push((j, 1.0));
        }
    }
    coefs.sort_unstable_by_key(|&(j, _)| j);
    out.push(Cut {
        coefs,
        lb: f64::NEG_INFINITY,
        ub: rhs,
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Row, Sense, Var};

    fn ctx_for(rows: &[(&[f64], f64, f64)], nvars: usize) -> CutContext {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..nvars).map(|_| p.add_var(Var::binary().obj(1.0))).collect();
        for (coefs, lo, hi) in rows {
            let mut r = Row::new().range(*lo, *hi);
            for (i, &c) in coefs.iter().enumerate() {
                if c != 0.0 {
                    r = r.coef(vars[i], c);
                }
            }
            p.add_row(r);
        }
        CutContext::from_problem(&p)
    }

    #[test]
    fn finds_violated_extended_cover() {
        // 3x0 + 3x1 + 3x2 <= 5: any two form a cover; extension pulls in
        // the third. Valid: at most one can be 1.
        let ctx = ctx_for(&[(&[3.0, 3.0, 3.0], f64::NEG_INFINITY, 5.0)], 3);
        let x = [0.8, 0.8, 0.06];
        let mut out = Vec::new();
        separate_cover(&ctx, &x, 10, &mut out);
        assert_eq!(out.len(), 1);
        let c = &out[0];
        assert_eq!(c.coefs, vec![(0, 1.0), (1, 1.0), (2, 1.0)]);
        assert_eq!(c.ub, 1.0);
        assert!(c.violation(&x) > 0.5, "violation {}", c.violation(&x));
        // Valid at every integer-feasible point of the knapsack.
        for p in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]] {
            assert_eq!(c.violation(&p), 0.0);
        }
    }

    #[test]
    fn complements_negative_coefficients() {
        // 2x0 - 3x1 <= 1: (1, 0) is infeasible, so x0 <= x1 is valid; the
        // complemented cover finds exactly that.
        let ctx = ctx_for(&[(&[2.0, -3.0], f64::NEG_INFINITY, 1.0)], 2);
        let x = [0.9, 0.2];
        let mut out = Vec::new();
        separate_cover(&ctx, &x, 10, &mut out);
        assert_eq!(out.len(), 1);
        let c = &out[0];
        assert_eq!(c.coefs, vec![(0, 1.0), (1, -1.0)]);
        assert_eq!(c.ub, 0.0);
        assert!(c.violation(&x) > 0.5);
        for p in [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]] {
            assert_eq!(c.violation(&p), 0.0);
        }
    }

    #[test]
    fn separates_row_lower_bounds() {
        // 3x0 + 3x1 + 3x2 >= 4 is the negated knapsack -3x0 -3x1 -3x2 <= -4:
        // complementing gives 3y0 + 3y1 + 3y2 <= 5, i.e. at most one y can
        // be 1: at least two x must be 1.
        let ctx = ctx_for(&[(&[3.0, 3.0, 3.0], 4.0, f64::INFINITY)], 3);
        let x = [0.2, 0.2, 0.94];
        let mut out = Vec::new();
        separate_cover(&ctx, &x, 10, &mut out);
        assert_eq!(out.len(), 1);
        let c = &out[0];
        assert!(c.violation(&x) > 0.0);
        // x0 + x1 + x2 >= 2 in <= form.
        for p in [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]] {
            assert_eq!(c.violation(&p), 0.0, "valid at {:?}", p);
        }
        assert!(c.violation(&[1.0, 0.0, 0.0]) > 0.0, "cuts off infeasible point");
    }

    #[test]
    fn no_cut_when_no_cover_or_not_violated() {
        let ctx = ctx_for(&[(&[1.0, 1.0, 1.0], f64::NEG_INFINITY, 5.0)], 3);
        let mut out = Vec::new();
        separate_cover(&ctx, &[1.0, 1.0, 1.0], 10, &mut out);
        assert!(out.is_empty(), "total weight fits: no cover exists");
        // A cover exists but the point is integral: nothing violated.
        let ctx2 = ctx_for(&[(&[3.0, 3.0, 3.0], f64::NEG_INFINITY, 5.0)], 3);
        separate_cover(&ctx2, &[1.0, 0.0, 0.0], 10, &mut out);
        assert!(out.is_empty());
    }
}
