//! The design pipeline split into its public steps, each inside a span, for
//! the traced runs: the encoder's five steps (`archex::encode`), the MILP
//! solve, extraction and verification (`archex::design`), plus standalone
//! calls to presolve and the root LP relaxation (`milp`).

use crate::measure::frac;
use crate::metrics::RunResult;
use crate::trace::Tracer;
use archex::encode::link_quality::LqEncoding;
use archex::encode::{energy, link_quality, mapping, objective, routing, RouteVars};
use archex::{EncodeError, Encoding, NetworkTemplate, Requirements};
use devlib::Library;
use milp::presolve::presolve;
use milp::simplex::{solve_lp, LpData};
use milp::{Problem, Sense};

/// Encodes with Algorithm 1 exactly as `archex::encode::encode_with_lq`
/// does for a data-collection spec, one span per step under
/// `encode.encode_with_lq`. `encode.resolve_routes` plus
/// `encode.encode_approx` (route resolution and the Yen candidates) make
/// up the routing step.
pub fn split_encode(
    tr: &mut Tracer,
    op: u64,
    t: &NetworkTemplate,
    lib: &Library,
    req: &Requirements,
    kstar: usize,
) -> Result<Encoding, EncodeError> {
    tr.span("encode.encode_with_lq", op, |tr| {
        let mut enc = tr.span("encode.mapping", op, |_| mapping::encode_mapping(t, lib))?;
        let routes = tr.span("encode.resolve_routes", op, |_| {
            routing::resolve_routes(t, req)
        })?;
        tr.span("encode.encode_approx", op, |_| {
            routing::encode_approx(&mut enc, t, req, &routes, kstar)
        })?;
        tr.span("encode.link_quality", op, |_| {
            link_quality::encode_link_quality_with(&mut enc, t, lib, req, LqEncoding::default())
        });
        tr.span("encode.energy", op, |_| {
            energy::encode_energy(&mut enc, t, lib, req)
        });
        tr.span("encode.objective", op, |_| {
            objective::encode_objective(&mut enc, lib, req)
        });
        Ok(enc)
    })
}

/// Yen candidate paths across all route replicas of an encoding.
pub fn candidate_paths(enc: &Encoding) -> usize {
    enc.routes
        .iter()
        .map(|r| match &r.vars {
            RouteVars::Approx { candidates, .. } => candidates.len(),
            RouteVars::Full { .. } => 0,
        })
        .sum()
}

/// Standalone presolve and root LP relaxation of `problem`, the way branch
/// and bound starts its search, in spans labelled `_standalone`: they time
/// the same library calls outside the solve that really runs.
pub fn standalone_root(tr: &mut Tracer, op: u64, problem: &Problem, cfg: &milp::Config) {
    let minimize = problem.sense() == Sense::Minimize;
    let ps = tr.span("milp.presolve_standalone", op, |_| {
        presolve(problem, minimize)
    });
    if ps.conclusion.is_some() {
        return;
    }
    tr.span("milp.root_lp_standalone", op, |_| {
        let red = &ps.reduced;
        let sign = if minimize { 1.0 } else { -1.0 };
        let (row_lb, row_ub) = red.row_ids().map(|r| red.row_bounds(r)).unzip();
        let lp = LpData {
            a: red.matrix(),
            c: red.objective().iter().map(|&c| sign * c).collect(),
            row_lb,
            row_ub,
        };
        let (lb, ub): (Vec<f64>, Vec<f64>) = red.var_ids().map(|v| red.var_bounds(v)).unzip();
        let _ = std::hint::black_box(solve_lp(&lp, &lb, &ub, cfg, None, None));
    });
}

/// Encoding sizes summed over the designs of a traced pass.
#[derive(Debug, Default)]
pub struct EncodeTotals {
    n: f64,
    rows: f64,
    cols: f64,
    nonzeros: f64,
    paths: f64,
}

impl EncodeTotals {
    pub fn add(&mut self, enc: &Encoding) {
        self.n += 1.0;
        self.rows += enc.model.num_cons() as f64;
        self.cols += enc.model.num_vars() as f64;
        self.nonzeros += enc.model.num_nonzeros() as f64;
        self.paths += candidate_paths(enc) as f64;
    }

    /// Sets the `encode.*` metrics: step times as means per encode, sizes
    /// as means per design.
    pub fn emit(&self, tr: &Tracer, res: &mut RunResult) {
        let per = |ms: f64| frac(ms, tr.count("encode.encode_with_lq") as f64);
        res.set("encode.busy_ms", tr.mean_ms("encode.encode_with_lq"));
        res.set("encode.mapping_ms", per(tr.sum_ms("encode.mapping")));
        res.set(
            "encode.routing_ms",
            per(tr.sum_ms("encode.resolve_routes") + tr.sum_ms("encode.encode_approx")),
        );
        res.set(
            "encode.link_quality_ms",
            per(tr.sum_ms("encode.link_quality")),
        );
        res.set("encode.energy_ms", per(tr.sum_ms("encode.energy")));
        res.set("encode.objective_ms", per(tr.sum_ms("encode.objective")));
        res.set("encode.rows", frac(self.rows, self.n));
        res.set("encode.cols", frac(self.cols, self.n));
        res.set("encode.nonzeros", frac(self.nonzeros, self.n));
        res.set("encode.candidate_paths", frac(self.paths, self.n));
    }
}

/// `milp::Stats` summed over the solves of a traced pass.
#[derive(Debug, Default)]
pub struct MilpTotals {
    n: f64,
    nodes: f64,
    pivots: f64,
    phase1: f64,
    dual: f64,
    lp_solves: f64,
    cuts_applied: f64,
    cuts_generated: f64,
    cut_rounds: f64,
    root_gap: f64,
    heuristic: f64,
    lns_iters: f64,
    lns_published: f64,
    first_incumbent_ms: f64,
    with_incumbent: f64,
    rc_fixed: f64,
    presolve_rows: f64,
    recoveries: f64,
    panics: f64,
    dropped: f64,
}

impl MilpTotals {
    pub fn add(&mut self, s: &milp::Stats) {
        self.n += 1.0;
        self.nodes += s.nodes as f64;
        self.pivots += s.simplex_iters as f64;
        self.phase1 += s.phase1_iters as f64;
        self.dual += s.dual_iters as f64;
        self.lp_solves += s.lp_solves as f64;
        self.cuts_applied += s.cuts_applied as f64;
        self.cuts_generated += s.cuts_generated as f64;
        self.cut_rounds += s.cut_rounds as f64;
        self.root_gap += s.root_gap;
        self.heuristic += s.heuristic_solutions as f64;
        self.lns_iters += s.lns_iters as f64;
        self.lns_published += s.lns_published as f64;
        if let Some(t) = s.time_to_first_incumbent {
            self.first_incumbent_ms += t.as_secs_f64() * 1e3;
            self.with_incumbent += 1.0;
        }
        self.rc_fixed += s.rc_fixed as f64;
        self.presolve_rows += s.presolve_rows_removed as f64;
        self.recoveries += s.lp_recoveries as f64;
        self.panics += s.worker_panics as f64;
        self.dropped += s.dropped_nodes as f64;
    }

    /// Sets the `milp.*` counter metrics as means per solve; ratios are
    /// taken over the sums.
    pub fn emit(&self, res: &mut RunResult) {
        let per = |v: f64| frac(v, self.n);
        res.set("milp.nodes", per(self.nodes));
        res.set("milp.pivots", per(self.pivots));
        res.set("milp.phase1_pivots", per(self.phase1));
        res.set("milp.dual_pivots", per(self.dual));
        res.set("milp.lp_solves", per(self.lp_solves));
        res.set("milp.cuts_applied", per(self.cuts_applied));
        res.set(
            "milp.cut_apply_frac",
            frac(self.cuts_applied, self.cuts_generated),
        );
        res.set("milp.cut_rounds", per(self.cut_rounds));
        res.set("milp.root_gap", per(self.root_gap));
        res.set("milp.heuristic_solutions", per(self.heuristic));
        res.set("milp.lns_iters", per(self.lns_iters));
        res.set(
            "milp.lns_publish_frac",
            frac(self.lns_published, self.lns_iters),
        );
        res.set(
            "milp.first_incumbent_ms",
            frac(self.first_incumbent_ms, self.with_incumbent),
        );
        res.set("milp.rc_fixed", per(self.rc_fixed));
        res.set("milp.presolve_rows_removed", per(self.presolve_rows));
        res.set("milp.lp_recoveries", per(self.recoveries));
        res.set("milp.worker_panics", per(self.panics));
        res.set("milp.dropped_nodes", per(self.dropped));
    }
}
