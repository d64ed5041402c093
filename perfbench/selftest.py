"""Shows that each benchmark check passes on the package's output and rejects a perturbed value.

    python3 perfbench/selftest.py

Run from the root of a source tree; takes a few seconds.  Prints one line
per check and exits non-zero if any check passes a perturbed value or
fails an unperturbed one.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import radon_table  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from mlevidence import likelihood_core, posterior_analysis, smc_engine  # noqa: E402
from mlevidence.analytic_evidence import nig_log_evidence  # noqa: E402
from mlevidence.data_model import Dataset  # noqa: E402
from mlevidence.model_spec import IGPrior, ModelSpec  # noqa: E402

RESULTS = []


def expect(label, run_check, perturbed):
    """``run_check(perturbed)`` returns the failure list of one check."""
    clean, bad = run_check(False), run_check(True)
    ok = not clean and bool(bad)
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: clean -> {clean or 'pass'}; {perturbed} -> "
          f"{'rejected' if bad else 'ACCEPTED'}")


def small_data(rng, n=120, J=6, d=2):
    x = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
    group = np.concatenate([np.arange(J), rng.integers(0, J, n - J)])
    y = x @ rng.standard_normal(d) + 0.5 * rng.standard_normal(J)[group] + 0.7 * rng.standard_normal(n)
    return Dataset(y=y, x=x, z=np.ones((n, 1)), group_of=group + 1)


def main():
    rng = np.random.default_rng(7)
    data = small_data(rng)
    stats = likelihood_core.precompute(data)
    d = data.d
    ml = ModelSpec(family="SimpleMultilevel", prior_mean=np.zeros(d), prior_cov=np.eye(d),
                   ig_y=IGPrior(3.0, 1.0), ig_eta=(IGPrior(3.0, 0.5),))
    lm = ModelSpec(family="LinearModel", prior_mean=np.zeros(d), prior_cov=np.eye(d), ig_y=IGPrior(3.0, 1.0))
    nig = ModelSpec(family="LinearModelNIG", prior_mean=np.zeros(d), prior_cov=np.eye(d),
                    ig_y=IGPrior(3.0, 1.0), gamma=2.0)
    lm_stats = likelihood_core.precompute(Dataset(y=data.y, x=data.x, z=np.zeros((data.n, 0)),
                                                  group_of=data.group_of))
    group = data.group_of - 1

    theta = np.array([[0.5, 0.2], [0.8, 0.05]])
    original = likelihood_core.batch_log_integrated

    def dense(perturb):
        failures = []
        if perturb:
            likelihood_core.batch_log_integrated = lambda s, p: (lambda t: original(s, p)(t) + 1e-5)
        try:
            wl.check_dense(stats, ml, theta, data.y, data.x, data.z, data.group_of,
                           lambda row: np.array([[row[1]]]), failures, "dense")
        finally:
            likelihood_core.batch_log_integrated = original
        return failures

    expect("dense n x n density vs batch_log_integrated", dense, "likelihood + 1e-5")

    est = smc_engine.estimate_evidence(stats, ml, "integrated", 2, 400, 0)
    quad, _ = ref.quadrature_log_evidence(
        ref.RandomInterceptMarginal(data.y, data.x, group, ml.prior_mean, ml.prior_cov),
        [(3.0, 1.0), (3.0, 0.5)])

    def evidence(perturb):
        failures = []
        wl._close(failures, "SMC vs quadrature", est.mean + (2 * wl.SMC_TOL if perturb else 0.0),
                  quad, wl.SMC_TOL)
        return failures

    expect(f"2-D quadrature evidence {quad:.3f} vs SMC {est.mean:.3f}", evidence, "SMC + 2 tolerances")

    nig_args = (nig.prior_mean, nig.prior_cov, nig.gamma, 3.0, 1.0)
    closed = ref.nig_log_evidence_t(data.y, data.x, *nig_args)

    def mvt(perturb):
        failures = []
        wl._close(failures, "NIG closed form", nig_log_evidence(lm_stats, nig) + (1e-4 if perturb else 0.0),
                  closed, 1e-6)
        return failures

    expect("multivariate-t evidence vs nig_log_evidence", mvt, "evidence + 1e-4")

    _, cloud = smc_engine.run_smc(lm_stats, nig, "integrated", 500, 1)
    post = posterior_analysis.recover_beta_posterior(cloud, lm_stats, nig, "integrated")
    mean, cov = ref.nig_posterior_moments(data.y, data.x, *nig_args)

    def nig_post(which):
        def run(perturb):
            failures = []
            m = post.mean + (1e-6 if perturb and which == "mean" else 0.0)
            c = post.cov * (1.05 if perturb and which == "cov" else 1.0)
            if perturb and which == "shape":
                c = c + 1e-4 * np.max(np.abs(c)) * np.eye(d)
            wl.check_nig_posterior(m, c, mean, cov, failures, "posterior")
            return failures
        return run

    expect("NIG posterior mean", nig_post("mean"), "mean + 1e-6")
    expect("NIG posterior covariance scale", nig_post("cov"), "covariance x 1.05")
    expect("NIG posterior covariance shape", nig_post("shape"), "diagonal + 1e-4")

    lm_aic = posterior_analysis.aic(Dataset(y=data.y, x=data.x, z=np.zeros((data.n, 0)),
                                            group_of=data.group_of), lm)
    ml_aic = posterior_analysis.aic(data, ml)

    def ols(field):
        def run(perturb):
            failures = []
            row = {"max_loglik": lm_aic.max_loglik, "aic": lm_aic.aic}
            if perturb:
                row[field] += 1e-4
            wl.check_aic_ols(row, data.y, data.x, failures, "OLS")
            return failures
        return run

    expect("OLS max log likelihood vs AIC max_loglik", ols("max_loglik"), "max_loglik + 1e-4")
    expect("OLS AIC vs AIC", ols("aic"), "aic + 1e-4")

    def gls(which):
        def run(perturb):
            failures = []
            result = ml_aic
            if perturb and which == "theta":
                result = posterior_analysis.AICResult(
                    aic=ml_aic.aic, k=ml_aic.k, max_loglik=ml_aic.max_loglik, converged=True,
                    theta_hat={"log_variances": [v + 0.01 for v in ml_aic.theta_hat["log_variances"]]})
            floor = ml_aic.max_loglik + 1.0 if perturb and which == "floor" else lm_aic.max_loglik
            wl.check_aic_gls(result, {"max_loglik": ml_aic.max_loglik}, data.y, data.x, group, floor,
                             failures, "GLS")
            return failures
        return run

    expect("dense GLS at theta-hat vs max_loglik", gls("theta"), "theta-hat + 0.01")
    expect("multilevel max_loglik at least the nested model's", gls("floor"), "nested max above it")

    out_dir = BENCH_DIR.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        tmp = Path(tmp)
        rows = radon_table.draw(3)
        path = tmp / "radon.csv"
        path.write_text(radon_table.to_csv(rows), encoding="utf-8")

        def roundtrip(perturb):
            failures = []
            if perturb:
                text = radon_table.to_csv(rows).splitlines()
                county, floor, log_radon, u = text[1].split(",")
                text[1] = ",".join([county, floor, f"{float(log_radon):.6f}", u])
                bad = tmp / "bad.csv"
                bad.write_text("\n".join(text) + "\n", encoding="utf-8")
                wl.check_radon_csv(rows, bad, failures)
            else:
                wl.check_radon_csv(rows, path, failures)
            return failures

        expect("radon CSV reads back exactly", roundtrip, "one value rounded to 6 digits")

        common = ["--data", path, "--runs", 2, "--particles", 50, "--seed", 0]
        wl.run_cli(["compare", "--models", "radon:M0", "radon:M1", "radon:M4", "--out", tmp / "cmp.json"] + common)
        payload = json.loads((tmp / "cmp.json").read_text())
        wl.run_cli(["fit-export", "--data", path, "--model", "radon:M4", "--particles", 50,
                    "--out", tmp / "fits.csv"])
        fits = (tmp / "fits.csv").read_text()

        def compare(which):
            def run(perturb):
                failures = []
                p = json.loads(json.dumps(payload))
                if perturb and which == "rank":
                    p["table"][0]["evidence_rank"] = p["table"][1]["evidence_rank"]
                if perturb and which == "bf":
                    p["pairwise_log_bayes_factors"][0]["log_bayes_factor"] += 1e-6
                wl.check_compare_table(p, failures, "compare")
                return failures
            return run

        expect("compare ranks form a permutation", compare("rank"), "two rows given one rank")
        expect("log Bayes factor is a difference of log evidences", compare("bf"), "log BF + 1e-6")

        def fit_rows(which):
            def run(perturb):
                failures = []
                lines = fits.splitlines()
                if perturb and which == "missing":
                    lines = lines[:-1]
                if perturb and which == "sd":
                    county, t, mean, sd, present = lines[1].split(",")
                    lines[1] = ",".join([county, t, mean, "0.000000", present])
                wl.check_fit_rows("\n".join(lines), rows.county_names, failures, "fit-export")
                return failures
            return run

        expect("fit-export writes two rows per county", fit_rows("missing"), "last row dropped")
        expect("fit-export sds are positive", fit_rows("sd"), "one sd set to 0")

    print(f"{sum(RESULTS)}/{len(RESULTS)} checks behave")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
