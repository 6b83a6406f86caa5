//! Gomory mixed-integer (GMI) cuts read off the optimal simplex tableau.
//!
//! For a basic integer variable `x_j` with fractional value, the tableau row
//! (one btran against the final LU factorization, see
//! [`extract_tableau_rows`]) expresses `x_j` in terms of the nonbasic
//! variables. Shifting every nonbasic to its resting bound gives
//! `x_j + Σ â_k t_k = b` with all `t_k >= 0`, and the GMI formula turns the
//! fractionality of `b` into a valid inequality `Σ γ_k t_k >= f0` that the
//! current LP point violates by exactly `f0`. Unshifting the `t_k` and
//! eliminating slack variables through their defining rows `s_r = A_r x`
//! yields a cut over the structural variables only.
//!
//! GMI cuts are derived from the *root* bounds and are only offered at the
//! root (see the module docs of [`super`]); inside the tree the bounds
//! differ and the same derivation would not be globally valid.

use super::{Cut, CutContext, SepInput, MIN_VIOLATION};
use crate::simplex::{extract_tableau_rows, TableauRow, VStat};

/// Basic variables whose fractional part is closer than this to 0 or 1
/// produce numerically poor cuts (the `f0 / (1 - f0)` multiplier blows up)
/// and are skipped.
const FRAC_TOL: f64 = 5e-3;

/// Tableau coefficients below this magnitude are treated as exact zeros.
const COEF_ZERO: f64 = 1e-11;

fn frac(v: f64) -> f64 {
    v - v.floor()
}

/// Appends at most one GMI cut for each of up to `inp.max_cuts` basic
/// integer variables with a usefully fractional value, most fractional
/// first.
pub fn separate_gomory(inp: &SepInput<'_>, ctx: &CutContext, out: &mut Vec<Cut>) {
    let statuses = inp.statuses;
    let n = inp.lp.num_vars();
    // Candidate rows: basic integer variables with usefully fractional
    // values, most fractional (closest to .5) first.
    let mut cand: Vec<(usize, f64)> = (0..n)
        .filter(|&j| {
            ctx.is_int[j]
                && statuses[j] == VStat::Basic
                && (FRAC_TOL..=1.0 - FRAC_TOL).contains(&frac(inp.x[j]))
        })
        .map(|j| (j, (frac(inp.x[j]) - 0.5).abs()))
        .collect();
    cand.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    cand.truncate(inp.max_cuts);
    if cand.is_empty() {
        return;
    }
    let wanted: Vec<usize> = cand.iter().map(|&(j, _)| j).collect();
    let Some(rows) = extract_tableau_rows(inp.lp, inp.var_lb, inp.var_ub, inp.cfg, statuses, &wanted)
    else {
        return;
    };
    // Slack elimination needs rows of A; the transpose gives row r as a
    // column.
    let at = inp.lp.a.transpose();
    let mut dense = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();
    for row in rows {
        if let Some(cut) = gmi_from_row(&row, inp, ctx, &at, &mut dense, &mut touched) {
            out.push(cut);
        }
        for &j in &touched {
            dense[j] = 0.0;
        }
        touched.clear();
    }
}

/// Derives one GMI cut `g^T x >= d` from a tableau row, or `None` when the
/// row is unusable (free nonbasic with a nonzero coefficient, infinite
/// resting bound, or the final violation check fails).
fn gmi_from_row(
    row: &TableauRow,
    inp: &SepInput<'_>,
    ctx: &CutContext,
    at: &crate::sparse::CscMatrix,
    dense: &mut [f64],
    touched: &mut Vec<usize>,
) -> Option<Cut> {
    let n = inp.lp.num_vars();
    let b = row.rhs;
    let f0 = frac(b);
    if !(FRAC_TOL..=1.0 - FRAC_TOL).contains(&f0) {
        return None;
    }
    let mul = f0 / (1.0 - f0);
    // Add `w` to the structural coefficient of variable j.
    let add = |dense: &mut [f64], touched: &mut Vec<usize>, j: usize, w: f64| {
        if dense[j] == 0.0 {
            touched.push(j);
        }
        dense[j] += w;
    };
    // Right-hand side of the >= cut, accumulated while unshifting.
    let mut d = f0;
    // The basic variable itself: x_j appears with coefficient 0 in the GMI
    // (its tableau coefficient is 1, integral), nothing to add.
    for &(k, a) in &row.coefs {
        // Resting bound of augmented variable k (structural bound or the
        // slack's row range).
        let (lk, uk) = if k < n {
            (inp.var_lb[k], inp.var_ub[k])
        } else {
            (inp.lp.row_lb[k - n], inp.lp.row_ub[k - n])
        };
        let (ahat, at_lower) = match inp.statuses[k] {
            VStat::AtLower => {
                if !lk.is_finite() {
                    return None;
                }
                (a, true)
            }
            VStat::AtUpper => {
                if !uk.is_finite() {
                    return None;
                }
                (-a, false)
            }
            VStat::Free => {
                if a.abs() > 1e-9 {
                    return None;
                }
                continue;
            }
            VStat::Basic => continue, // extract_tableau_rows never emits these
        };
        // Integer GMI coefficient only when the shifted variable t_k is
        // genuinely integral: structural integer with an integral resting
        // bound. Slacks are always treated as continuous (valid, slightly
        // weaker when a row happens to be all-integer).
        let rest = if at_lower { lk } else { uk };
        let integral = k < n && ctx.is_int[k] && (rest - rest.round()).abs() < 1e-9;
        let gamma = if integral {
            let fk = frac(ahat);
            if fk <= f0 {
                fk
            } else {
                mul * (1.0 - fk)
            }
        } else if ahat >= 0.0 {
            ahat
        } else {
            mul * (-ahat)
        };
        if gamma.abs() < COEF_ZERO {
            continue;
        }
        // Unshift t_k back to the augmented variable z_k:
        //   at lower: t = z - l  ->  +gamma z, d += gamma * l
        //   at upper: t = u - z  ->  -gamma z, d -= gamma * u
        let (w, shift) = if at_lower {
            (gamma, gamma * lk)
        } else {
            (-gamma, -gamma * uk)
        };
        d += shift;
        if k < n {
            add(dense, touched, k, w);
        } else {
            // Slack elimination: s_r = A_r x, so w * s_r becomes w * A_r.
            for (j, v) in at.col(k - n) {
                add(dense, touched, j, w * v);
            }
        }
    }
    touched.sort_unstable();
    touched.dedup();
    let coefs: Vec<(usize, f64)> = touched
        .iter()
        .filter(|&&j| dense[j].abs() > COEF_ZERO)
        .map(|&j| (j, dense[j]))
        .collect();
    if coefs.is_empty() {
        return None;
    }
    // The derivation predicts a violation of exactly f0 in t-space; verify
    // in x-space to catch any numerical degradation along the way.
    let act: f64 = coefs.iter().map(|&(j, v)| v * inp.x[j]).sum();
    if d - act < MIN_VIOLATION {
        return None;
    }
    Some(Cut {
        coefs,
        lb: d,
        ub: f64::INFINITY,
    })
}
