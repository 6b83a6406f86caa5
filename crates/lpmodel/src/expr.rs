//! Linear expressions with operator overloading.
//!
//! [`LinExpr`] is an affine form `sum_j c_j x_j + k` over model variables
//! ([`Vid`]). Expressions compose with `+`, `-`, and scalar `*`, and turn
//! into constraints via [`LinExpr::geq`], [`LinExpr::leq`], [`LinExpr::eq`]
//! and [`LinExpr::range`].

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Identifier of a variable in a [`crate::Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Vid(pub(crate) usize);

impl Vid {
    /// Index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Vid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An affine expression `sum c_j x_j + constant`.
///
/// # Examples
///
/// ```
/// use lpmodel::{Model, LinExpr};
///
/// let mut m = Model::minimize();
/// let x = m.cont("x", 0.0, 10.0);
/// let y = m.cont("y", 0.0, 10.0);
/// let e = 2.0 * x + y - 3.0;
/// assert_eq!(e.coef(x), 2.0);
/// assert_eq!(e.constant(), -3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    pub(crate) terms: BTreeMap<Vid, f64>,
    pub(crate) constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant_value(k: f64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: k,
        }
    }

    /// A single-term expression `c * v`.
    pub fn term(v: Vid, c: f64) -> Self {
        let mut terms = BTreeMap::new();
        if c != 0.0 {
            terms.insert(v, c);
        }
        LinExpr {
            terms,
            constant: 0.0,
        }
    }

    /// Coefficient of `v` (0 when absent).
    pub fn coef(&self, v: Vid) -> f64 {
        self.terms.get(&v).copied().unwrap_or(0.0)
    }

    /// The constant term.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Number of variables with nonzero coefficient.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when the expression has no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates `(variable, coefficient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Vid, f64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Adds `c * v` in place.
    pub fn add_term(&mut self, v: Vid, c: f64) {
        if c == 0.0 {
            return;
        }
        let entry = self.terms.entry(v).or_insert(0.0);
        *entry += c;
        if *entry == 0.0 {
            self.terms.remove(&v);
        }
    }

    /// Evaluates the expression at a point given by a lookup function.
    pub fn eval<F: Fn(Vid) -> f64>(&self, value: F) -> f64 {
        self.constant + self.iter().map(|(v, c)| c * value(v)).sum::<f64>()
    }

    /// Builds the constraint `self >= rhs`.
    pub fn geq(self, rhs: f64) -> Cons {
        let lo = rhs - self.constant;
        Cons {
            expr: LinExpr {
                terms: self.terms,
                constant: 0.0,
            },
            lo,
            hi: f64::INFINITY,
        }
    }

    /// Builds the constraint `self <= rhs`.
    pub fn leq(self, rhs: f64) -> Cons {
        let hi = rhs - self.constant;
        Cons {
            expr: LinExpr {
                terms: self.terms,
                constant: 0.0,
            },
            lo: f64::NEG_INFINITY,
            hi,
        }
    }

    /// Builds the constraint `self == rhs`.
    pub fn eq(self, rhs: f64) -> Cons {
        let b = rhs - self.constant;
        Cons {
            expr: LinExpr {
                terms: self.terms,
                constant: 0.0,
            },
            lo: b,
            hi: b,
        }
    }

    /// Builds the constraint `lo <= self <= hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(self, lo: f64, hi: f64) -> Cons {
        assert!(lo <= hi, "range {} > {}", lo, hi);
        Cons {
            lo: lo - self.constant,
            hi: hi - self.constant,
            expr: LinExpr {
                terms: self.terms,
                constant: 0.0,
            },
        }
    }
}

/// Sums an iterator of expressions.
///
/// # Examples
///
/// ```
/// use lpmodel::{Model, LinExpr, sum};
///
/// let mut m = Model::minimize();
/// let xs: Vec<_> = (0..3).map(|i| m.binary(format!("x{i}"))).collect();
/// let total = sum(xs.iter().map(|&x| LinExpr::from(x)));
/// assert_eq!(total.num_terms(), 3);
/// ```
pub fn sum<I: IntoIterator<Item = LinExpr>>(iter: I) -> LinExpr {
    let mut acc = LinExpr::zero();
    for e in iter {
        acc += e;
    }
    acc
}

/// A linear constraint `lo <= expr <= hi` (constant already folded in).
#[derive(Debug, Clone, PartialEq)]
pub struct Cons {
    pub(crate) expr: LinExpr,
    pub(crate) lo: f64,
    pub(crate) hi: f64,
}

impl Cons {
    /// The left-hand expression (constant-free).
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

// ---- operator impls ----

impl From<Vid> for LinExpr {
    fn from(v: Vid) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl From<f64> for LinExpr {
    fn from(k: f64) -> Self {
        LinExpr::constant_value(k)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for c in self.terms.values_mut() {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: f64) -> LinExpr {
        if k == 0.0 {
            return LinExpr::zero();
        }
        for c in self.terms.values_mut() {
            *c *= k;
        }
        self.constant *= k;
        self
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, e: LinExpr) -> LinExpr {
        e * self
    }
}

// Vid-level sugar.
impl Add<Vid> for Vid {
    type Output = LinExpr;
    fn add(self, rhs: Vid) -> LinExpr {
        LinExpr::from(self) + LinExpr::from(rhs)
    }
}

impl Add<LinExpr> for Vid {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        LinExpr::from(self) + rhs
    }
}

impl Add<Vid> for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: Vid) -> LinExpr {
        self + LinExpr::from(rhs)
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, k: f64) -> LinExpr {
        self.constant += k;
        self
    }
}

impl Add<f64> for Vid {
    type Output = LinExpr;
    fn add(self, k: f64) -> LinExpr {
        LinExpr::from(self) + k
    }
}

impl Sub<Vid> for Vid {
    type Output = LinExpr;
    fn sub(self, rhs: Vid) -> LinExpr {
        LinExpr::from(self) - LinExpr::from(rhs)
    }
}

impl Sub<LinExpr> for Vid {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        LinExpr::from(self) - rhs
    }
}

impl Sub<Vid> for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: Vid) -> LinExpr {
        self - LinExpr::from(rhs)
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, k: f64) -> LinExpr {
        self.constant -= k;
        self
    }
}

impl Sub<f64> for Vid {
    type Output = LinExpr;
    fn sub(self, k: f64) -> LinExpr {
        LinExpr::from(self) - k
    }
}

impl Mul<f64> for Vid {
    type Output = LinExpr;
    fn mul(self, k: f64) -> LinExpr {
        LinExpr::term(self, k)
    }
}

impl Mul<Vid> for f64 {
    type Output = LinExpr;
    fn mul(self, v: Vid) -> LinExpr {
        LinExpr::term(v, self)
    }
}

impl Neg for Vid {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        LinExpr::term(self, -1.0)
    }
}

impl std::iter::Sum for LinExpr {
    fn sum<I: Iterator<Item = LinExpr>>(iter: I) -> LinExpr {
        sum(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Vid {
        Vid(i)
    }

    #[test]
    fn algebra_basics() {
        let e = 2.0 * v(0) + v(1) - 3.0;
        assert_eq!(e.coef(v(0)), 2.0);
        assert_eq!(e.coef(v(1)), 1.0);
        assert_eq!(e.coef(v(2)), 0.0);
        assert_eq!(e.constant(), -3.0);
    }

    #[test]
    fn cancellation_removes_terms() {
        let e = v(0) + v(1) - v(0);
        assert_eq!(e.num_terms(), 1);
        assert_eq!(e.coef(v(0)), 0.0);
    }

    #[test]
    fn scaling() {
        let e = (v(0) + 2.0) * 3.0;
        assert_eq!(e.coef(v(0)), 3.0);
        assert_eq!(e.constant(), 6.0);
        let z = e * 0.0;
        assert!(z.is_constant());
        assert_eq!(z.constant(), 0.0);
    }

    #[test]
    fn negation() {
        let e = -(v(0) * 2.0 - 1.0);
        assert_eq!(e.coef(v(0)), -2.0);
        assert_eq!(e.constant(), 1.0);
    }

    #[test]
    fn eval_expression() {
        let e = 2.0 * v(0) - 0.5 * v(1) + 4.0;
        let val = e.eval(|x| if x == v(0) { 3.0 } else { 2.0 });
        assert_eq!(val, 6.0 - 1.0 + 4.0);
    }

    #[test]
    fn constraint_folds_constant() {
        let c = (v(0) + 5.0).geq(2.0);
        assert_eq!(c.lo(), -3.0);
        assert_eq!(c.hi(), f64::INFINITY);
        assert_eq!(c.expr().constant(), 0.0);

        let c = (v(0) - 1.0).eq(0.0);
        assert_eq!((c.lo(), c.hi()), (1.0, 1.0));
    }

    #[test]
    fn expr_vs_expr_constraints() {
        let a = 2.0 * v(0) + 1.0;
        let b = v(1) + 3.0;
        let c = (a - b).geq(0.0);
        assert_eq!(c.expr().coef(v(0)), 2.0);
        assert_eq!(c.expr().coef(v(1)), -1.0);
        assert_eq!(c.lo(), 2.0); // 2x - y >= 2
    }

    #[test]
    fn sum_and_iter_sum() {
        let total: LinExpr = (0..4).map(|i| LinExpr::term(v(i), 1.0)).sum();
        assert_eq!(total.num_terms(), 4);
        let s = sum((0..3).map(|i| v(i) * 2.0));
        assert_eq!(s.coef(v(1)), 2.0);
    }
}
