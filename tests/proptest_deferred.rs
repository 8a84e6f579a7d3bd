//! Property tests of the deferred-execution contract on the **full CG op
//! sequence**: every vector and scalar a pipelined CG iteration produces —
//! the fused `spmv`+`⟨p, Ap⟩`, the update loop, the fused residual
//! `axpy`+`‖r‖²`, the masked smoother step (structural / inverted masks),
//! and the transposed accumulating refinement — must be **bit-identical**
//! to the eager builder path, on both backends — and the same body
//! **compiled once** into slot-based plans must stay bit-identical under
//! replay with rebound vectors and mutated scalar parameters.
//!
//! Entries are small integers in `f64`, so any divergence is a real
//! scheduling/fusion bug, never floating-point noise; on top of that the
//! fused reductions are required to match the eager fold bit for bit even
//! for non-associative data, which the end-to-end solver test below checks
//! with genuinely irrational values.

use graphblas::{
    ctx, CsrMatrix, Ctx, Distributed, Exec, Operand, Parallel, Plus, Sequential, Vector,
};
use hpcg::cg::{cg_solve, CgWorkspace};
use hpcg::kernels::Unfused;
use hpcg::mg::MgWorkspace;
use hpcg::{GrbHpcg, Grid3, Kernels, Problem, RhsVariant};
use proptest::prelude::*;

/// A random square sparse matrix with integer-valued entries.
fn arb_square(max_dim: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    (2..max_dim).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, -4i64..=4), 0..(n * n).min(64)).prop_map(
            move |trips| {
                let t: Vec<(usize, usize, f64)> = trips
                    .into_iter()
                    .map(|(r, c, v)| (r, c, v as f64))
                    .collect();
                CsrMatrix::from_triplets(n, n, &t).unwrap()
            },
        )
    })
}

fn mask_for(len: usize, bits: &[bool]) -> Option<Vector<bool>> {
    let idx: Vec<u32> = (0..len)
        .filter(|&i| bits.get(i).copied().unwrap_or(false))
        .map(|i| i as u32)
        .collect();
    if idx.is_empty() {
        None
    } else {
        Some(Vector::<bool>::sparse_filled(len, idx, true).unwrap())
    }
}

fn vec_mod(n: usize, m: usize, off: i64) -> Vector<f64> {
    Vector::from_dense((0..n).map(|i| (i as i64 % m as i64 + off) as f64).collect())
}

/// One CG-iteration-shaped op sequence with decorated smoother/refinement
/// steps, executed eagerly and through pipelines, compared bitwise. Takes
/// the execution context by value so the same check drives the static
/// backends and a `Distributed` cluster handle.
#[allow(clippy::too_many_arguments)]
fn check_cg_sequence<E: Exec>(
    exec: Ctx<E>,
    a: &CsrMatrix<f64>,
    mask_bits: &[bool],
    structural: bool,
    inverted: bool,
) -> Result<(), TestCaseError> {
    let n = a.nrows();
    let p = vec_mod(n, 7, -3);
    let diag = Vector::from_dense((0..n).map(|i| (i % 4 + 1) as f64).collect::<Vec<_>>());
    let r0 = vec_mod(n, 5, -2);
    let mask = mask_for(n, mask_bits);

    // --- eager reference ---------------------------------------------------
    let mut ap_e = Vector::zeros(n);
    exec.mxv(a, &p).into(&mut ap_e).unwrap();
    let pap_e = exec.dot(&p, &ap_e).compute().unwrap();
    let alpha = if pap_e != 0.0 { 1.0 / pap_e } else { 0.5 };
    let mut x_e = Vector::zeros(n);
    exec.axpy(&mut x_e, alpha, &p).unwrap();
    let mut r_e = r0.clone();
    exec.axpy(&mut r_e, -alpha, &ap_e).unwrap();
    let norm_e = exec.norm2_squared(&r_e).unwrap();
    // Smoother-shaped masked step on x.
    let mut tmp_e = Vector::zeros(n);
    {
        let mut b = exec.mxv(a, &x_e);
        if let Some(m) = mask.as_ref() {
            b = b.mask(m);
        }
        if structural {
            b = b.structural();
        }
        if inverted {
            b = b.invert_mask();
        }
        b.into(&mut tmp_e).unwrap();
    }
    {
        let (rs, ts, ds) = (r_e.as_slice(), tmp_e.as_slice(), diag.as_slice());
        let mut b = exec.transform(&mut x_e);
        if let Some(m) = mask.as_ref() {
            b = b.mask(m);
        }
        if structural {
            b = b.structural();
        }
        if inverted {
            b = b.invert_mask();
        }
        b.apply(|i, xi| {
            let d = ds[i];
            *xi = (rs[i] - ts[i] + *xi * d) / d;
        })
        .unwrap();
    }
    // Refinement-shaped transposed accumulating mxv.
    let mut z_e = vec_mod(n, 3, 0);
    exec.mxv(a, &x_e)
        .transpose()
        .accum(Plus)
        .into(&mut z_e)
        .unwrap();

    // --- pipelined ---------------------------------------------------------
    // Pipeline 1: fused spmv + dot.
    let mut ap_p = Vector::zeros(n);
    let mut pl = exec.pipeline();
    let ap_h = pl.mxv(a, &p).into(&mut ap_p);
    let pap_h = pl.dot(&p, ap_h).result();
    let out = pl.finish().unwrap();
    let pap_p = out[pap_h];
    prop_assert_eq!(pap_e.to_bits(), pap_p.to_bits());
    let alpha_p = if pap_p != 0.0 { 1.0 / pap_p } else { 0.5 };

    // Pipeline 2: the update loop + fused axpy/norm.
    let mut x_p = Vector::zeros(n);
    let mut r_p = r0.clone();
    let mut pl = exec.pipeline();
    pl.axpy(&mut x_p, alpha_p, &p);
    let rh = pl.axpy(&mut r_p, -alpha_p, &ap_p);
    let norm_h = pl.norm2_squared(rh);
    let out = pl.finish().unwrap();
    prop_assert_eq!(norm_e.to_bits(), out[norm_h].to_bits());

    // Pipeline 3: the masked smoother step + transposed accum refinement.
    let mut tmp_p = Vector::zeros(n);
    let mut z_p = vec_mod(n, 3, 0);
    let mut pl = exec.pipeline();
    // `x_p` is read before it is updated in place: bind it as an operand
    // up front, as recording a borrowed output would.
    let xh = Operand::resolve(&mut x_p, &mut pl);
    let th = {
        let mut b = pl.mxv(a, xh);
        if let Some(m) = mask.as_ref() {
            b = b.mask(m);
        }
        if structural {
            b = b.structural();
        }
        if inverted {
            b = b.invert_mask();
        }
        b.into(&mut tmp_p)
    };
    {
        let (rs, ds) = (r_p.as_slice(), diag.as_slice());
        let mut b = pl.transform(xh);
        if let Some(m) = mask.as_ref() {
            b = b.mask(m);
        }
        if structural {
            b = b.structural();
        }
        if inverted {
            b = b.invert_mask();
        }
        b.zip(th).apply(move |i, xi, ti| {
            let d = ds[i];
            *xi = (rs[i] - ti + *xi * d) / d;
        });
    }
    let _ = pl.mxv(a, xh).transpose().accum(Plus).into(&mut z_p);
    pl.finish().unwrap();

    prop_assert_eq!(ap_e.as_slice(), ap_p.as_slice());
    prop_assert_eq!(x_e.as_slice(), x_p.as_slice());
    prop_assert_eq!(r_e.as_slice(), r_p.as_slice());
    prop_assert_eq!(tmp_e.as_slice(), tmp_p.as_slice());
    prop_assert_eq!(z_e.as_slice(), z_p.as_slice());
    Ok(())
}

/// The CG iteration body **compiled once** and replayed with rebound
/// vectors and mutated `±α` scalar parameters: every replay must be
/// bit-identical to a freshly recorded-and-finished pipeline and to the
/// eager path. This is the contract that lets the solver and the serve
/// worker hoist recording and fusion out of their iteration loops.
fn check_plan_replay<E: Exec>(
    exec: Ctx<E>,
    a: &CsrMatrix<f64>,
    alphas: &[f64],
) -> Result<(), TestCaseError> {
    let n = a.nrows();
    // Compile the two plans once; every round below only rebinds.
    let spmv_plan = {
        let mut pb = exec.plan::<f64>();
        let am = pb.matrix(n, n);
        let ps = pb.input(n);
        let aps = pb.output(n);
        let ah = pb.mxv(am, ps).into(aps);
        pb.dot(ps, ah).result();
        pb.compile()
    };
    let update_plan = {
        let mut pb = exec.plan::<f64>();
        let xs = pb.output(n);
        let rs = pb.output(n);
        let ps = pb.input(n);
        let aps = pb.input(n);
        let pa = pb.param(0.0);
        let pna = pb.param(0.0);
        pb.axpy(xs, pa, ps);
        pb.axpy(rs, pna, aps);
        pb.norm2_squared(rs);
        pb.compile()
    };

    for (k, &alpha) in alphas.iter().enumerate() {
        // Fresh operand buffers each round: the replay contract is about
        // rebinding, not about reusing one fixed set of vectors.
        let p = vec_mod(n, 7, -(k as i64) - 1);
        let r0 = vec_mod(n, 5, k as i64 - 2);

        let mut ap_pl = Vector::zeros(n);
        let pap_pl = {
            let mut bnd = spmv_plan.bindings();
            bnd.bind_matrix(spmv_plan.matrix_slot(0), a)
                .bind_input(spmv_plan.input_slot(0), &p)
                .bind_output(spmv_plan.output_slot(0), &mut ap_pl);
            spmv_plan.run(&mut bnd).unwrap()[spmv_plan.scalar(0)]
        };
        let mut x_pl = Vector::zeros(n);
        let mut r_pl = r0.clone();
        let norm_pl = {
            let mut bnd = update_plan.bindings();
            bnd.bind_output(update_plan.output_slot(0), &mut x_pl)
                .bind_output(update_plan.output_slot(1), &mut r_pl)
                .bind_input(update_plan.input_slot(0), &p)
                .bind_input(update_plan.input_slot(1), &ap_pl)
                .set(update_plan.param(0), alpha)
                .set(update_plan.param(1), -alpha);
            update_plan.run(&mut bnd).unwrap()[update_plan.scalar(0)]
        };

        // Eager reference.
        let mut ap_e = Vector::zeros(n);
        exec.mxv(a, &p).into(&mut ap_e).unwrap();
        let pap_e = exec.dot(&p, &ap_e).compute().unwrap();
        let mut x_e = Vector::zeros(n);
        exec.axpy(&mut x_e, alpha, &p).unwrap();
        let mut r_e = r0.clone();
        exec.axpy(&mut r_e, -alpha, &ap_e).unwrap();
        let norm_e = exec.norm2_squared(&r_e).unwrap();

        // Freshly recorded pipeline.
        let mut ap_pp = Vector::zeros(n);
        let mut pl = exec.pipeline();
        let ah = pl.mxv(a, &p).into(&mut ap_pp);
        let ph = pl.dot(&p, ah).result();
        let pap_pp = pl.finish().unwrap()[ph];
        let mut x_pp = Vector::zeros(n);
        let mut r_pp = r0.clone();
        let mut pl = exec.pipeline();
        pl.axpy(&mut x_pp, alpha, &p);
        let rh = pl.axpy(&mut r_pp, -alpha, &ap_pp);
        let nh = pl.norm2_squared(rh);
        let norm_pp = pl.finish().unwrap()[nh];

        prop_assert_eq!(pap_pl.to_bits(), pap_e.to_bits());
        prop_assert_eq!(pap_pl.to_bits(), pap_pp.to_bits());
        prop_assert_eq!(norm_pl.to_bits(), norm_e.to_bits());
        prop_assert_eq!(norm_pl.to_bits(), norm_pp.to_bits());
        prop_assert_eq!(ap_pl.as_slice(), ap_e.as_slice());
        prop_assert_eq!(ap_pl.as_slice(), ap_pp.as_slice());
        prop_assert_eq!(x_pl.as_slice(), x_e.as_slice());
        prop_assert_eq!(x_pl.as_slice(), x_pp.as_slice());
        prop_assert_eq!(r_pl.as_slice(), r_e.as_slice());
        prop_assert_eq!(r_pl.as_slice(), r_pp.as_slice());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cg_op_sequence_pipeline_bit_identical_on_all_backends(
        a in arb_square(12),
        mask_bits in proptest::collection::vec(proptest::bool::ANY, 0..12),
        structural in proptest::bool::ANY,
        inverted in proptest::bool::ANY,
    ) {
        check_cg_sequence(ctx::<Sequential>(), &a, &mask_bits, structural, inverted)?;
        check_cg_sequence(ctx::<Parallel>(), &a, &mask_bits, structural, inverted)?;
        // The distributed backend runs each kernel as sharded supersteps
        // on one worker per node while recording BSP costs: it is held to
        // the same bitwise contract, eager and pipelined.
        check_cg_sequence(Distributed::new(3).ctx(), &a, &mask_bits, structural, inverted)?;
    }

    #[test]
    fn compiled_plan_replay_bit_identical_on_all_backends(
        a in arb_square(12),
        raw_alphas in proptest::collection::vec(-6i64..=6, 2..5),
    ) {
        let alphas: Vec<f64> = raw_alphas.iter().map(|&v| v as f64 / 3.0).collect();
        check_plan_replay(ctx::<Sequential>(), &a, &alphas)?;
        check_plan_replay(ctx::<Parallel>(), &a, &alphas)?;
        check_plan_replay(Distributed::new(3).ctx(), &a, &alphas)?;
    }
}

/// End-to-end contract on genuinely non-associative data: a full
/// preconditioned solve with the fused kernels vs the unfused kernel
/// sequence is bit-identical, on every backend (the residual involves
/// irrational intermediate values, so this would catch any fused reduction
/// whose association order drifts).
#[test]
fn full_solver_pipeline_on_off_bit_identical_all_backends() {
    fn solve<K: Kernels<V = Vector<f64>>>(mut k: K, b: &Vector<f64>) -> (Vec<u64>, Vec<u64>) {
        let mut cg_ws = CgWorkspace::new(&k);
        let mut mg_ws = MgWorkspace::new(&k);
        let mut x = k.alloc(0);
        let res = cg_solve(&mut k, &mut cg_ws, &mut mg_ws, b, &mut x, 9, 0.0, true);
        (
            x.as_slice().iter().map(|v| v.to_bits()).collect(),
            res.residual_history.iter().map(|v| v.to_bits()).collect(),
        )
    }
    fn run_on<E: Exec>(p: &Problem, exec: Ctx<E>, fused: bool) -> (Vec<u64>, Vec<u64>) {
        let k = GrbHpcg::with_ctx(p.clone(), exec);
        if fused {
            solve(k, &p.b)
        } else {
            solve(Unfused(k), &p.b)
        }
    }
    let p = Problem::build_with(Grid3::cube(8), 2, RhsVariant::Reference).unwrap();
    let seq = run_on(&p, ctx::<Sequential>(), true);
    assert_eq!(seq, run_on(&p, ctx::<Sequential>(), false));
    assert_eq!(
        run_on(&p, ctx::<Parallel>(), true),
        run_on(&p, ctx::<Parallel>(), false)
    );
    // The whole solver on the simulated cluster: bit-identical to the
    // sequential runs, fused or not.
    assert_eq!(run_on(&p, Distributed::new(4).ctx(), true), seq);
    assert_eq!(run_on(&p, Distributed::new(4).ctx(), false), seq);
}
