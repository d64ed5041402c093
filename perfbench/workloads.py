"""The benchmark's workloads: inputs from a seed, timed rounds, independent checks.

Every round of a workload runs the same operations on the same inputs with
the same sampler seeds, so its outputs are byte-identical from round to
round.  Operation times go to the categories of the end-to-end metrics:
``evidence`` and ``posterior``; every operation also counts toward wall.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

import radon_table
import reference as ref
from mlevidence import cli, data_model, likelihood_core, posterior_analysis, smc_engine
from mlevidence.simulation_study import (
    DATASET_IDS, ETA_PATTERN, SimConfig, builtin_model_specs, generate_dataset,
)


class Ops:
    """Attempted and failed operations of one round, with their times by category."""

    def __init__(self):
        self.times = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    @contextlib.contextmanager
    def op(self, category=None):
        self.attempted += 1
        t0 = perf_counter()
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            dt = perf_counter() - t0
            self.times["wall"] += dt
            if category is not None:
                self.times[category] += dt


def run_cli(argv):
    """``mlevidence`` in-process, its printed lines discarded; raises on a non-zero exit."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"mlevidence {argv[0]} exited with {code}")


@contextlib.contextmanager
def compare_probes(ops, aic_results):
    """During ``compare``: time its evidence estimates and keep each AIC result.

    Only ``cli``'s own references are replaced, for the one command.
    """
    estimate, aic = cli.estimate_evidence, cli.aic

    def timed_estimate(*args, **kwargs):
        t0 = perf_counter()
        try:
            return estimate(*args, **kwargs)
        finally:
            ops.times["evidence"] += perf_counter() - t0

    def kept_aic(*args, **kwargs):
        result = aic(*args, **kwargs)
        aic_results.append(result)
        return result

    cli.estimate_evidence, cli.aic = timed_estimate, kept_aic
    try:
        yield
    finally:
        cli.estimate_evidence, cli.aic = estimate, aic


def _close(failures, label, got, want, tol):
    if got is None or not np.isfinite(got) or abs(got - want) > tol:
        failures.append(f"{label}: got {got!r}, reference {want!r}, tolerance {tol}")


def check_compare_table(payload, failures, label):
    """Ranks are permutations and every log Bayes factor is a difference of log evidences."""
    rows = payload["table"]
    ok = [r for r in rows if r["error"] is None]
    if len(ok) != len(rows):
        failures.append(f"{label}: rows with errors: {[r['error'] for r in rows if r['error']]}")
    for key in ("evidence_rank", "aic_rank"):
        if sorted(r[key] for r in ok) != list(range(1, len(ok) + 1)):
            failures.append(f"{label}: {key} is not a permutation of 1..{len(ok)}")
    by_model = {r["model"]: r for r in ok}
    if len(payload["pairwise_log_bayes_factors"]) != len(ok) * (len(ok) - 1) // 2:
        failures.append(f"{label}: wrong number of pairwise Bayes factors")
    for bf in payload["pairwise_log_bayes_factors"]:
        want = by_model[bf["model_a"]]["log_evidence"] - by_model[bf["model_b"]]["log_evidence"]
        _close(failures, f"{label}: log BF {bf['model_a']} vs {bf['model_b']}",
               bf["log_bayes_factor"], want, 1e-9)
    order = sorted(ok, key=lambda r: r["evidence_rank"])
    if any(a["log_evidence"] < b["log_evidence"] for a, b in zip(order, order[1:])):
        failures.append(f"{label}: evidence ranks do not follow the log evidences")


def check_aic_ols(row, y, x, failures, label):
    """AIC of a linear model: its maximum log likelihood is the OLS one, k its width."""
    want = ref.ols_max_loglik(y, x)
    _close(failures, f"{label} max_loglik", row["max_loglik"], want, 1e-6)
    _close(failures, f"{label} aic", row["aic"], 2.0 * x.shape[1] - 2.0 * want, 1e-6)


def check_aic_gls(result, row, y, x, group, floor, failures, label):
    """The random-intercept AIC's maximum equals the dense GLS log likelihood at its theta-hat."""
    s2y, s2e = np.exp(result.theta_hat["log_variances"])
    want = ref.gls_loglik(y, x, group, s2y, s2e)
    _close(failures, f"{label} max_loglik at theta-hat", row["max_loglik"], want, 1e-6)
    if not row["max_loglik"] >= floor - 1e-9:
        failures.append(f"{label}: max_loglik {row['max_loglik']} below the nested model's {floor}")


def check_radon_csv(rows, path, failures):
    """The package's radon reader returns exactly the drawn table; returns what it read."""
    table = data_model.load_radon_csv(path)
    if not (table.county == rows.county and np.array_equal(table.floor, rows.floor)
            and np.array_equal(table.log_radon, rows.log_radon)
            and np.array_equal(table.log_uranium, rows.log_uranium)):
        failures.append("radon CSV does not read back exactly")
    return table


def check_fit_rows(text, county_names, failures, label):
    """Two rows per county, both present, with finite means and positive sds."""
    rows = text.splitlines()[1:]
    seen = defaultdict(list)
    for line in rows:
        county, t, mean, sd, present = line.split(",")
        ok = present == "True" and np.isfinite(float(mean)) and float(sd) > 0
        if not ok:
            failures.append(f"{label}: bad row {line!r}")
        seen[county].append(t)
    if sorted(seen) != sorted(county_names) or any(sorted(v) != ["0", "1"] for v in seen.values()):
        failures.append(f"{label}: rows are not one per county and floor")


def check_dense(stats, spec, theta, y, x, z, group, cov_eta_of, failures, label):
    """The package's integrated likelihood against one dense n x n Gaussian density per point."""
    got = likelihood_core.batch_log_integrated(stats, spec)(theta)
    for row, value in zip(theta, got):
        want = ref.dense_log_marginal(y, x, z, group, spec.prior_mean, spec.prior_cov,
                                      cov_eta_of(row), row[0])
        _close(failures, f"{label} at {np.round(row, 4).tolist()}", value, want, 1e-6)


def check_nig_posterior(got_mean, got_cov, mean, cov, failures, label):
    """Mixture mean equals the NIG posterior mean; covariance matches within sampling error.

    The covariance is E[sigma^2 | y] times a fixed matrix, and the mixture
    estimates E[sigma^2 | y] from the particles: 3% covers that error.
    """
    _close(failures, f"{label} mean", float(np.max(np.abs(got_mean - mean))), 0.0,
           1e-8 * max(1.0, float(np.max(np.abs(mean)))))
    scale = float(np.trace(np.linalg.solve(cov, got_cov))) / cov.shape[0]
    _close(failures, f"{label} covariance scale", scale, 1.0, 0.03)
    _close(failures, f"{label} covariance shape",
           float(np.max(np.abs(got_cov - scale * cov)) / np.max(np.abs(got_cov))), 0.0, 1e-6)


def evidence_note(model, estimate, std=None, reference=None):
    """One model's log evidence for the run's notes: mean over runs, their sd, the reference."""
    return {"model": model, "log_evidence": estimate, "run_sd": std, "reference": reference}


# Evidence estimates are compared with quadrature to within this many nats.
# With 50 particles a single tempered run errs with a standard deviation of
# about 0.29 nats (M1 on D1), a mean of 4 runs by about 0.14.
SMC_TOL = 1.5
SMC_TOL_MANY_RUNS = 0.75


class SimMultilevel:
    """Library calls on the simulation study's multilevel datasets.

    The (D1, D2) pairs are the ones ``mlevidence simulate --seed k`` writes
    for k < K; the benchmark seed drives every sampler.  Per pair: an
    evidence estimate for M1 on D1 and for M2 on D2, and posterior
    summaries of M1.  The datasets draw their variances from the study's
    priors, so one pair takes twice the tempering stages of another; a
    pair drawn from the seed would make that the largest part of the
    spread between seeds.
    """

    K, RUNS, PARTICLES, SUMMARIES = 6, 2, 50, 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.specs = {m: builtin_model_specs(m) for m in ("M1", "M2")}

    def make_inputs(self):
        cfg = SimConfig()
        self.pairs = []
        for k in range(self.K):
            rng = np.random.default_rng(k)
            study = {which: generate_dataset(which, cfg, rng)[0] for which in DATASET_IDS}
            self.pairs.append((study["D1"], study["D2"]))

    def round(self, ops):
        s1, s2 = self.specs["M1"], self.specs["M2"]
        self.results = []
        for k, (d1, d2) in enumerate(self.pairs):
            seed = self.seed * 1000 + k
            res = {}
            with ops.op():
                res["stats1"] = likelihood_core.precompute(d1)
                res["stats2"] = likelihood_core.precompute(d2)
            with ops.op("evidence"):
                res["m1"] = smc_engine.estimate_evidence(
                    res["stats1"], s1, "integrated", self.RUNS, self.PARTICLES, seed)
            with ops.op("evidence"):
                res["m2"] = smc_engine.estimate_evidence(
                    res["stats2"], s2, "integrated", self.RUNS, self.PARTICLES, seed)
            res["clouds"], res["posts"] = [], []
            for i in range(self.SUMMARIES):
                with ops.op("posterior"):
                    _, cloud = smc_engine.run_smc(
                        res["stats1"], s1, "integrated", self.PARTICLES, seed + 100 * (i + 1))
                    res["posts"].append(posterior_analysis.recover_beta_posterior(
                        cloud, res["stats1"], s1, "integrated"))
                res["clouds"].append(cloud)
            self.results.append(res)
        return {
            f"pair{k}": json.dumps([list(r["m1"].runs), list(r["m2"].runs)]
                                   + [[p.mean.tolist(), p.cov.tolist()] for p in r["posts"]]).encode()
            for k, r in enumerate(self.results)
        }

    def check(self):
        failures = []
        self.notes = []
        s1, s2 = self.specs["M1"], self.specs["M2"]
        ig1 = [(s1.ig_y.shape, s1.ig_y.scale), (s1.ig_eta[0].shape, s1.ig_eta[0].scale)]
        for k, ((d1, d2), res) in enumerate(zip(self.pairs, self.results)):
            group = d1.group_of - 1
            marginal = ref.RandomInterceptMarginal(d1.y, d1.x, group, s1.prior_mean, s1.prior_cov)
            quad, err = ref.quadrature_log_evidence(marginal, ig1)
            _close(failures, f"pair {k}: M1 quadrature converged", err, 0.0, 1e-4)
            _close(failures, f"pair {k}: M1 evidence vs quadrature", res["m1"].mean, quad, SMC_TOL)
            self.notes += [evidence_note(f"sim:M1 on D1 pair {k}", res["m1"].mean, res["m1"].std, quad),
                           evidence_note(f"sim:M2 on D2 pair {k}", res["m2"].mean, res["m2"].std)]
            cloud = res["clouds"][0]
            theta = np.exp(cloud.particles[np.argsort(cloud.log_weights)[-2:]])
            check_dense(res["stats1"], s1, theta, d1.y, d1.x, np.ones((d1.n, 1)), d1.group_of,
                        lambda row: np.array([[row[1]]]), failures, f"pair {k}: M1 dense")
            if k < 2:
                _, cloud2 = smc_engine.run_smc(res["stats2"], s2, "integrated", 50, k)
                theta2 = np.exp(cloud2.particles[:3])
                check_dense(res["stats2"], s2, theta2, d2.y, d2.x, d2.z, d2.group_of,
                            lambda row: ref.eta_covariance(row[1:], s2.corr_prior.value, ETA_PATTERN),
                            failures, f"pair {k}: M2 dense")
        return failures


class RadonCounty:
    """CLI commands on seeded radon-schema tables with Minnesota's shape.

    Each table gets the whole command set.  Tables differ in how many
    tempering stages radon:M5 takes (about 6% from table to table), so a
    round covers several tables.
    """

    TABLES, RUNS, PARTICLES, FIT_EXPORTS = 3, 4, 50, 4
    COMPARED = ("radon:M0", "radon:M1", "radon:M2", "radon:M3", "radon:M4")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dirs = [workdir / f"table{t}" for t in range(self.TABLES)]

    def make_inputs(self):
        self.tables = [radon_table.draw([self.seed, t]) for t in range(self.TABLES)]
        for d, rows in zip(self.dirs, self.tables):
            d.mkdir(parents=True, exist_ok=True)
            (d / "radon.csv").write_text(radon_table.to_csv(rows), encoding="utf-8")

    def round(self, ops):
        outputs = {}
        self.aic_results = []
        for t, w in enumerate(self.dirs):
            seed = self.seed * 100 + t
            csv = w / "radon.csv"
            common = ["--data", csv, "--runs", self.RUNS, "--particles", self.PARTICLES, "--seed", seed]
            names = []
            for model in ("M4", "M5"):
                with ops.op("evidence"):
                    run_cli(["evidence", "--model", f"radon:{model}", "--out", w / f"ev_{model}.json"] + common)
                names.append(f"ev_{model}.json")
            for i in range(self.FIT_EXPORTS):
                with ops.op("posterior"):
                    run_cli(["fit-export", "--data", csv, "--model", "radon:M5",
                             "--particles", self.PARTICLES, "--seed", seed + 10 * i,
                             "--out", w / f"fits{i}.csv"])
                names.append(f"fits{i}.csv")
            aic_results = []
            with ops.op(), compare_probes(ops, aic_results):
                run_cli(["compare", "--models", *self.COMPARED, "--out", w / "cmp.csv"] + common)
            self.aic_results.append(aic_results)
            names += ["cmp.csv", "cmp.csv.json"]
            for name in names:
                outputs[f"table{t}/{name}"] = (w / name).read_bytes() if (w / name).exists() else b""
        return outputs

    def check(self):
        failures = []
        self.notes = []
        for t, (w, rows) in enumerate(zip(self.dirs, self.tables)):
            self._check_table(w, rows, self.aic_results[t], failures, f"table {t}: ")
        return failures

    def _check_table(self, w, drawn, aic_results, failures, at):
        csv = w / "radon.csv"
        table = check_radon_csv(drawn, csv, failures)
        cmp = json.loads((w / "cmp.csv.json").read_text())
        check_compare_table(cmp, failures, f"{at}radon compare")
        rows = {r["model"]: r for r in cmp["table"]}
        ev4 = json.loads((w / "ev_M4.json").read_text())
        ev5 = json.loads((w / "ev_M5.json").read_text())
        ig = [(3.0, 1.0), (3.0, 1.0)]

        y, x, group = ref.radon_design(csv, "M4")
        marginal = ref.RandomInterceptMarginal(y, x, group, np.zeros(3), np.eye(3))
        quad, err = ref.quadrature_log_evidence(marginal, ig)
        _close(failures, f"{at}radon:M4 quadrature converged", err, 0.0, 1e-4)
        _close(failures, f"{at}radon:M4 evidence vs quadrature", ev4["mean"], quad, SMC_TOL_MANY_RUNS)
        _close(failures, f"{at}radon:M4 compare vs evidence", rows["radon:M4"]["log_evidence"],
               ev4["mean"], 1e-9)
        self.notes += [evidence_note("radon:M4", ev4["mean"], ev4["std"], quad),
                       evidence_note("radon:M5", ev5["mean"], ev5["std"])]
        self.notes += [evidence_note(m, rows[m]["log_evidence"], rows[m]["std"])
                       for m in ("radon:M2", "radon:M3")]
        for mid in ("M0", "M1"):
            ym, xm, _ = ref.radon_design(csv, mid)
            marg = ref.RandomInterceptMarginal(ym, xm, None, np.zeros(xm.shape[1]), np.eye(xm.shape[1]))
            q, _ = ref.quadrature_log_evidence(marg, ig[:1])
            row = rows[f"radon:{mid}"]
            _close(failures, f"{at}radon:{mid} evidence vs quadrature", row["log_evidence"], q,
                   SMC_TOL_MANY_RUNS)
            self.notes.append(evidence_note(f"radon:{mid}", row["log_evidence"], row["std"], q))
            check_aic_ols(row, ym, xm, failures, f"{at}radon:{mid}")
        check_aic_gls(aic_results[self.COMPARED.index("radon:M4")], rows["radon:M4"], y, x, group,
                      rows["radon:M1"]["max_loglik"], failures, f"{at}radon:M4")

        data5, _ = data_model.build_radon_design(table, "M5")
        spec5 = cli.radon_model_spec("M5", data5.d)
        theta = np.array([[0.6, 0.1, 0.05, 0.3], [0.8, 0.02, 0.2, -0.5], [0.5, 0.3, 0.3, 0.9]])
        check_dense(likelihood_core.precompute(data5), spec5, theta, y, x, x[:, :2], group,
                    lambda row: ref.eta_covariance(row[1:3], row[3], ((0, 1),)), failures,
                    f"{at}radon:M5 dense")
        for i in range(self.FIT_EXPORTS):
            check_fit_rows((w / f"fits{i}.csv").read_text(), drawn.county_names, failures,
                           f"{at}fit-export {i}")


class SimCompare:
    """CLI ``simulate``, ``compare`` and ``evidence`` on the study data, plus M3 posterior summaries.

    The study data are the ones ``mlevidence simulate`` writes by default
    (seed 0); the benchmark seed drives every sampler.  The AIC search
    for M1, which dominates this workload, costs from 9 000 to 25 000
    profile evaluations depending on the dataset, more spread than a run
    of this length can average over datasets.
    """

    STUDY_SEED = 0
    RUNS, PARTICLES, SUMMARIES, SUMMARY_PARTICLES = 16, 50, 16, 500
    COMPARED = ("sim:M0", "sim:M1", "sim:M3")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.specs = {m: builtin_model_specs(m) for m in ("M0", "M1", "M3")}

    def make_inputs(self):
        """Nothing to draw: the study data come from the timed ``simulate``."""

    def round(self, ops):
        w, seed = self.workdir, self.seed
        sim = w / "sim"
        common = ["--runs", self.RUNS, "--particles", self.PARTICLES, "--seed", seed]
        with ops.op():
            run_cli(["simulate", "--out", sim, "--seed", self.STUDY_SEED])
        self.aic_results = []
        with ops.op(), compare_probes(ops, self.aic_results):
            run_cli(["compare", "--data", sim / "D1.csv", "--models", *self.COMPARED,
                     "--out", w / "cmp.csv"] + common)
        with ops.op("evidence"):
            run_cli(["evidence", "--data", sim / "D3.csv", "--model", "sim:M3",
                     "--out", w / "ev_M3.json"] + common)
        spec = self.specs["M3"]
        self.posts = []
        with ops.op():
            schema = {"y": "y", "group": "group", "x": [f"x{i}" for i in range(spec.d)]}
            stats = likelihood_core.precompute(data_model.load_csv(sim / "D3.csv", schema))
        for i in range(self.SUMMARIES):
            with ops.op("posterior"):
                _, cloud = smc_engine.run_smc(stats, spec, "integrated", self.SUMMARY_PARTICLES, seed + i)
                self.posts.append(posterior_analysis.recover_beta_posterior(cloud, stats, spec, "integrated"))
        outputs = {name: (w / name).read_bytes() if (w / name).exists() else b""
                   for name in ("cmp.csv", "cmp.csv.json", "ev_M3.json")}
        outputs["posteriors"] = json.dumps([[p.mean.tolist(), p.cov.tolist()] for p in self.posts]).encode()
        return outputs

    def _raw(self, name):
        cols = ref.read_columns(self.workdir / "sim" / name)
        d = self.specs["M0"].d
        y = np.array([float(v) for v in cols["y"]])
        x = np.column_stack([[float(v) for v in cols[f"x{i}"]] for i in range(d)])
        group, _ = ref.dense_labels(cols["group"])
        return y, x, group

    def check(self):
        failures = []
        w = self.workdir
        cmp = json.loads((w / "cmp.csv.json").read_text())
        check_compare_table(cmp, failures, "sim compare")
        rows = {r["model"]: r for r in cmp["table"]}
        self.notes = []
        m0, m1, m3 = (self.specs[m] for m in ("M0", "M1", "M3"))

        y1, x1, g1 = self._raw("D1.csv")
        check_aic_ols(rows["sim:M0"], y1, x1, failures, "sim:M0")
        check_aic_gls(self.aic_results[self.COMPARED.index("sim:M1")], rows["sim:M1"], y1, x1, g1,
                      rows["sim:M0"]["max_loglik"], failures, "sim:M1")
        nig = (m3.prior_mean, m3.prior_cov, m3.gamma, m3.ig_y.shape, m3.ig_y.scale)
        references = {
            "sim:M0": ref.quadrature_log_evidence(
                ref.RandomInterceptMarginal(y1, x1, None, m0.prior_mean, m0.prior_cov),
                [(m0.ig_y.shape, m0.ig_y.scale)])[0],
            "sim:M1": ref.quadrature_log_evidence(
                ref.RandomInterceptMarginal(y1, x1, g1, m1.prior_mean, m1.prior_cov),
                [(m1.ig_y.shape, m1.ig_y.scale), (m1.ig_eta[0].shape, m1.ig_eta[0].scale)])[0],
            "sim:M3": ref.nig_log_evidence_t(y1, x1, *nig),
        }
        for m in self.COMPARED:
            _close(failures, f"{m} on D1 evidence vs reference", rows[m]["log_evidence"], references[m],
                   SMC_TOL_MANY_RUNS)
            self.notes.append(evidence_note(f"{m} on D1", rows[m]["log_evidence"], rows[m]["std"],
                                            references[m]))

        y3, x3, _ = self._raw("D3.csv")
        ev3 = json.loads((w / "ev_M3.json").read_text())
        closed = ref.nig_log_evidence_t(y3, x3, *nig)
        _close(failures, "sim:M3 on D3 analytic evidence", ev3["analytic_log_evidence"], closed, 1e-6)
        _close(failures, "sim:M3 on D3 evidence", ev3["mean"], closed, SMC_TOL_MANY_RUNS)
        self.notes.append(evidence_note("sim:M3 on D3", ev3["mean"], ev3["std"], closed))
        mean, cov = ref.nig_posterior_moments(y3, x3, *nig)
        for i, post in enumerate(self.posts):
            check_nig_posterior(post.mean, post.cov, mean, cov, failures, f"M3 posterior {i}")
        return failures


WORKLOADS = {
    "sim-multilevel": SimMultilevel,
    "radon-county": RadonCounty,
    "sim-compare": SimCompare,
}
