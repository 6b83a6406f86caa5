//! Linearization helpers: exact MILP encodings of logical and bilinear
//! constructs over binaries.
//!
//! These are the "standard techniques" the paper invokes to turn products of
//! decision variables in the link-quality and energy constraints into linear
//! form. All encodings are exact at integral points.

use crate::expr::{LinExpr, Vid};
use crate::model::Model;

impl Model {
    /// Returns a binary `z == x AND y` (product of two binaries).
    ///
    /// Encoding: `z <= x`, `z <= y`, `z >= x + y - 1`.
    pub fn and2(&mut self, x: Vid, y: Vid) -> Vid {
        let name = self.fresh_name("and");
        let z = self.binary(name);
        self.add((z - x).leq(0.0));
        self.add((z - y).leq(0.0));
        self.add((x + LinExpr::from(y) - z).leq(1.0));
        z
    }

    /// Returns a binary `z == AND(xs)`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn and_all(&mut self, xs: &[Vid]) -> Vid {
        assert!(!xs.is_empty(), "and_all needs at least one input");
        if xs.len() == 1 {
            return xs[0];
        }
        let name = self.fresh_name("andn");
        let z = self.binary(name);
        for &x in xs {
            self.add((z - x).leq(0.0));
        }
        // z >= sum(x) - (n-1)
        let mut e = LinExpr::term(z, -1.0);
        for &x in xs {
            e.add_term(x, 1.0);
        }
        self.add(e.leq(xs.len() as f64 - 1.0));
        z
    }

    /// Returns a binary `z == OR(xs)`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn or_all(&mut self, xs: &[Vid]) -> Vid {
        assert!(!xs.is_empty(), "or_all needs at least one input");
        if xs.len() == 1 {
            return xs[0];
        }
        let name = self.fresh_name("orn");
        let z = self.binary(name);
        for &x in xs {
            self.add((LinExpr::from(x) - z).leq(0.0));
        }
        // z <= sum(x)
        let mut e = LinExpr::term(z, 1.0);
        for &x in xs {
            e.add_term(x, -1.0);
        }
        self.add(e.leq(0.0));
        z
    }

    /// The expression `1 - b` (logical NOT of a binary).
    pub fn not(&self, b: Vid) -> LinExpr {
        LinExpr::constant_value(1.0) - b
    }

    /// Returns a continuous `w == b * expr` where `b` is binary and `expr`
    /// is a bounded affine expression ("gating").
    ///
    /// Encoding (with `[lo, hi]` the bounds of `expr`):
    /// `lo*b <= w <= hi*b` and `expr - hi*(1-b) <= w <= expr - lo*(1-b)`.
    ///
    /// # Panics
    ///
    /// Panics if `expr` is unbounded in either direction.
    pub fn gate(&mut self, b: Vid, expr: &LinExpr) -> Vid {
        let (lo, hi) = self.expr_bounds(expr);
        assert!(
            lo.is_finite() && hi.is_finite(),
            "gate requires a bounded expression (got [{}, {}])",
            lo,
            hi
        );
        let name = self.fresh_name("gate");
        let w = self.cont(name, lo.min(0.0), hi.max(0.0));
        // w <= hi * b ;  w >= lo * b
        self.add((LinExpr::from(w) - LinExpr::term(b, hi)).leq(0.0));
        self.add((LinExpr::from(w) - LinExpr::term(b, lo)).geq(0.0));
        // w <= expr - lo*(1-b)  <=>  w - expr - lo*b <= -lo
        self.add((LinExpr::from(w) - expr.clone() - LinExpr::term(b, lo)).leq(-lo));
        // w >= expr - hi*(1-b)  <=>  w - expr - hi*b >= -hi
        self.add((LinExpr::from(w) - expr.clone() - LinExpr::term(b, hi)).geq(-hi));
        w
    }

    /// Enforces `b = 1  =>  expr <= rhs` with an automatic big-M.
    ///
    /// # Panics
    ///
    /// Panics if `expr` has an infinite upper bound.
    pub fn indicator_leq(&mut self, b: Vid, expr: &LinExpr, rhs: f64) {
        let (_, hi) = self.expr_bounds(expr);
        assert!(hi.is_finite(), "indicator_leq requires a bounded expression");
        let big_m = (hi - rhs).max(0.0);
        // expr + M*b <= rhs + M
        self.add((expr.clone() + LinExpr::term(b, big_m)).leq(rhs + big_m));
    }

    /// Enforces `b = 1  =>  expr >= rhs` with an automatic big-M.
    ///
    /// # Panics
    ///
    /// Panics if `expr` has an infinite lower bound.
    pub fn indicator_geq(&mut self, b: Vid, expr: &LinExpr, rhs: f64) {
        let (lo, _) = self.expr_bounds(expr);
        assert!(lo.is_finite(), "indicator_geq requires a bounded expression");
        let big_m = (rhs - lo).max(0.0);
        // expr - M*b >= rhs - M
        self.add((expr.clone() - LinExpr::term(b, big_m)).geq(rhs - big_m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milp::Config;

    /// Exhaustively verifies a 2-input logical encoding by fixing inputs.
    fn check_binary_op(build: impl Fn(&mut Model, Vid, Vid) -> Vid, truth: [(f64, f64, f64); 4]) {
        for (a, b, want) in truth {
            let mut m = Model::minimize();
            let x = m.binary("x");
            let y = m.binary("y");
            let z = build(&mut m, x, y);
            m.fix(x, a);
            m.fix(y, b);
            // no objective: any feasible point works; z is forced by encoding
            let s = m.solve(&Config::default());
            assert!(s.has_solution(), "infeasible for ({}, {})", a, b);
            assert!(
                (s.value(z) - want).abs() < 1e-6,
                "op({}, {}) = {}, want {}",
                a,
                b,
                s.value(z),
                want
            );
        }
    }

    #[test]
    fn and2_truth_table() {
        check_binary_op(
            |m, x, y| m.and2(x, y),
            [
                (0.0, 0.0, 0.0),
                (0.0, 1.0, 0.0),
                (1.0, 0.0, 0.0),
                (1.0, 1.0, 1.0),
            ],
        );
    }

    #[test]
    fn or_all_truth_table() {
        check_binary_op(
            |m, x, y| m.or_all(&[x, y]),
            [
                (0.0, 0.0, 0.0),
                (0.0, 1.0, 1.0),
                (1.0, 0.0, 1.0),
                (1.0, 1.0, 1.0),
            ],
        );
    }

    #[test]
    fn and_all_three_inputs() {
        for mask in 0..8u32 {
            let mut m = Model::minimize();
            let xs: Vec<Vid> = (0..3).map(|i| m.binary(format!("x{i}"))).collect();
            let z = m.and_all(&xs);
            for (i, &x) in xs.iter().enumerate() {
                m.fix(x, if mask & (1 << i) != 0 { 1.0 } else { 0.0 });
            }
            let s = m.solve(&Config::default());
            let want = if mask == 7 { 1.0 } else { 0.0 };
            assert!((s.value(z) - want).abs() < 1e-6, "mask {}", mask);
        }
    }

    #[test]
    fn and_all_single_passthrough() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        assert_eq!(m.and_all(&[x]), x);
        assert_eq!(m.or_all(&[x]), x);
    }

    #[test]
    fn gate_equals_product() {
        // w = b * (2x - 1) with x in [0, 3]
        for bval in [0.0, 1.0] {
            for xval in [0.0, 1.5, 3.0] {
                let mut m = Model::minimize();
                let b = m.binary("b");
                let x = m.cont("x", 0.0, 3.0);
                let e = 2.0 * x - 1.0;
                let w = m.gate(b, &e);
                m.fix(b, bval);
                m.fix(x, xval);
                let s = m.solve(&Config::default());
                assert!(s.has_solution());
                let want = bval * (2.0 * xval - 1.0);
                assert!(
                    (s.value(w) - want).abs() < 1e-6,
                    "gate({}, {}) = {}, want {}",
                    bval,
                    xval,
                    s.value(w),
                    want
                );
            }
        }
    }

    #[test]
    fn indicator_leq_active_and_inactive() {
        // b=1 forces x <= 2; b=0 leaves x free up to 5
        let mut m = Model::maximize();
        let b = m.binary("b");
        let x = m.cont("x", 0.0, 5.0);
        m.indicator_leq(b, &LinExpr::from(x), 2.0);
        m.set_objective(LinExpr::from(x));
        m.fix(b, 1.0);
        let s = m.solve(&Config::default());
        assert!((s.value(x) - 2.0).abs() < 1e-6);

        let mut m2 = Model::maximize();
        let b2 = m2.binary("b");
        let x2 = m2.cont("x", 0.0, 5.0);
        m2.indicator_leq(b2, &LinExpr::from(x2), 2.0);
        m2.set_objective(LinExpr::from(x2));
        m2.fix(b2, 0.0);
        let s2 = m2.solve(&Config::default());
        assert!((s2.value(x2) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn indicator_geq_active_and_inactive() {
        let mut m = Model::minimize();
        let b = m.binary("b");
        let x = m.cont("x", 0.0, 5.0);
        m.indicator_geq(b, &LinExpr::from(x), 3.0);
        m.set_objective(LinExpr::from(x));
        m.fix(b, 1.0);
        let s = m.solve(&Config::default());
        assert!((s.value(x) - 3.0).abs() < 1e-6);

        let mut m2 = Model::minimize();
        let b2 = m2.binary("b");
        let x2 = m2.cont("x", 0.0, 5.0);
        m2.indicator_geq(b2, &LinExpr::from(x2), 3.0);
        m2.set_objective(LinExpr::from(x2));
        m2.fix(b2, 0.0);
        let s2 = m2.solve(&Config::default());
        assert!(s2.value(x2).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "bounded expression")]
    fn gate_rejects_unbounded() {
        let mut m = Model::minimize();
        let b = m.binary("b");
        let x = m.free("x");
        let _ = m.gate(b, &LinExpr::from(x));
    }
}
