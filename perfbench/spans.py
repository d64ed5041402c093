"""Spans and counters recorded around mlevidence functions from outside the package.

``Tracer.install`` replaces a module function with a wrapper in every
loaded ``mlevidence`` module that refers to it, so calls between modules
(``cli`` -> ``smc_engine`` -> ``likelihood_core``) are caught at the
boundary.  Spans are kept in memory as (id, parent id, name, start, end);
a span's self time is its duration minus the durations of its direct
children.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def spanned(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` updates counters."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counted(self, key, fn, amount=None):
        """Wrap ``fn`` so each call adds ``amount(args)`` (default 1) to ``key``."""

        def wrapper(*args, **kwargs):
            self.counts[key] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, module, attr, make_wrapper):
        """Replace ``module.attr`` by ``make_wrapper(original)`` wherever it is referenced."""
        original = getattr(module, attr)
        wrapped = make_wrapper(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "mlevidence" or name.startswith("mlevidence.")) and vars(mod).get(attr) is original:
                setattr(mod, attr, wrapped)
                self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def totals(self):
        """(inclusive seconds, self seconds) per span name.

        A span directly inside a span of the same name (``load_radon_csv``
        calling ``load_csv``) is not counted again in the inclusive total.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            self_time[name] += (t1 - t0) - child_time[sid]
            if parent is None or by_id[parent][2] != name:
                inclusive[name] += t1 - t0
        return inclusive, self_time


def install_layers(tracer):
    """Wrap the functions each per-layer metric is measured at."""
    from mlevidence import (
        analytic_evidence, cli, data_model, likelihood_core, model_spec,
        posterior_analysis, simulation_study, smc_engine,
    )

    t = tracer
    c = t.counts

    def integrated_builder(build):
        def make(stats, spec):
            def count_rows(result, args, kwargs):
                c["likelihood_core.integrated_calls"] += 1
                c["likelihood_core.integrated_rows"] += args[0].shape[0]

            return t.spanned("likelihood_core.integrated", build(stats, spec), count_rows)

        return make

    def profile_builder(build):
        def make(stats, spec):
            profile, nvar = build(stats, spec)
            return t.counted("posterior_analysis.aic_profile_evals", profile), nvar

        return make

    def target_builder(build):
        def make(*args, **kwargs):
            target = build(*args, **kwargs)
            target.log_prior = t.spanned("smc_engine.log_prior", target.log_prior)
            return target

        return make

    def after_aic(result, args, kwargs):
        c["posterior_analysis.aic_calls"] += 1
        c["posterior_analysis.aic_converged"] += bool(result.converged)

    def after_run(result, args, kwargs):
        c["smc_engine.runs"] += 1
        c["smc_engine.stages"] += result[1].stage

    def after_mh(result, args, kwargs):
        proposals = args[5] * args[0].shape[0]   # sweeps x particles
        c["smc_engine.mh_proposals"] += proposals
        c["smc_engine.mh_accepted"] += result[3] * proposals

    def after_resample(result, args, kwargs):
        c["smc_engine.resamples"] += 1

    def after_cbp(result, args, kwargs):
        c["likelihood_core.conditional_beta_posterior_calls"] += 1

    spans = [
        (likelihood_core, "precompute", "likelihood_core.precompute", None),
        (likelihood_core, "conditional_beta_posterior",
         "likelihood_core.conditional_beta_posterior", after_cbp),
        (posterior_analysis, "recover_beta_posterior", "posterior_analysis.recover_beta_posterior", None),
        (posterior_analysis, "conditional_eta_means", "posterior_analysis.conditional_eta_means", None),
        (posterior_analysis, "aic", "posterior_analysis.aic", after_aic),
        (smc_engine, "run_smc", "smc_engine.run_smc", after_run),
        (smc_engine, "build_target", "smc_engine.build_target", None),
        (smc_engine, "_next_beta", "smc_engine.next_beta", None),
        (smc_engine, "systematic_resample", "smc_engine.resample", after_resample),
        (smc_engine, "_proposal_chol", "smc_engine.proposal_chol", None),
        (smc_engine, "_mh_sweeps", "smc_engine.mh", after_mh),
        (analytic_evidence, "nig_log_evidence", "analytic_evidence.nig_log_evidence", None),
        (simulation_study, "generate_dataset", "simulation_study.generate_dataset", None),
        (data_model, "load_csv", "data_model.load", None),
        (data_model, "load_radon_csv", "data_model.load", None),
        (data_model, "build_radon_design", "data_model.build_radon_design", None),
    ] + [(cli, f"cmd_{cmd}", "cli.command", None)
         for cmd in ("simulate", "evidence", "compare", "fit_export")]
    for module, attr, name, after in spans:
        t.install(module, attr, lambda fn, name=name, after=after: t.spanned(name, fn, after))

    t.install(likelihood_core, "batch_log_integrated", integrated_builder)
    t.install(posterior_analysis, "_profile_loglik_builder", profile_builder)
    t.install(smc_engine, "build_target", target_builder)
    t.install(model_spec, "assemble_sigma_eta",
              lambda fn: t.counted("model_spec.assemble_sigma_eta_calls", fn))
    t.install(smc_engine, "_ess", lambda fn: t.counted("smc_engine.ess_evals", fn))
    t.install(cli, "_atomic_write", lambda fn: t.counted(
        "cli.bytes_written", fn, lambda args: len(args[1].encode("utf-8"))))


PER_LAYER = (
    ("likelihood_core.integrated_s", "s"),
    ("likelihood_core.integrated_calls", "count"),
    ("likelihood_core.integrated_rows", "count"),
    ("likelihood_core.integrated_us_per_row", "us"),
    ("likelihood_core.precompute_s", "s"),
    ("likelihood_core.conditional_beta_posterior_s", "s"),
    ("likelihood_core.conditional_beta_posterior_calls", "count"),
    ("model_spec.assemble_sigma_eta_calls", "count"),
    ("posterior_analysis.recover_beta_posterior_s", "s"),
    ("posterior_analysis.conditional_eta_means_s", "s"),
    ("posterior_analysis.aic_s", "s"),
    ("posterior_analysis.aic_profile_evals", "count"),
    ("posterior_analysis.aic_converged_ratio", "ratio"),
    ("smc_engine.run_smc_s", "s"),
    ("smc_engine.self_s", "s"),
    ("smc_engine.runs", "count"),
    ("smc_engine.stages", "count"),
    ("smc_engine.log_prior_s", "s"),
    ("smc_engine.next_beta_s", "s"),
    ("smc_engine.ess_evals", "count"),
    ("smc_engine.resample_s", "s"),
    ("smc_engine.resamples", "count"),
    ("smc_engine.proposal_chol_s", "s"),
    ("smc_engine.mh_s", "s"),
    ("smc_engine.mh_proposals", "count"),
    ("smc_engine.mh_accept_ratio", "ratio"),
    ("analytic_evidence.nig_log_evidence_s", "s"),
    ("simulation_study.generate_dataset_s", "s"),
    ("data_model.load_s", "s"),
    ("data_model.build_radon_design_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(tracer, rounds, overhead_ratio):
    """Per-round per-layer metrics from the spans and counters of ``rounds`` traced rounds."""
    inclusive, self_time = tracer.totals()
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "likelihood_core.integrated_s": inclusive["likelihood_core.integrated"],
        "likelihood_core.integrated_calls": c["likelihood_core.integrated_calls"],
        "likelihood_core.integrated_rows": c["likelihood_core.integrated_rows"],
        "likelihood_core.precompute_s": inclusive["likelihood_core.precompute"],
        "likelihood_core.conditional_beta_posterior_s":
            inclusive["likelihood_core.conditional_beta_posterior"],
        "likelihood_core.conditional_beta_posterior_calls":
            c["likelihood_core.conditional_beta_posterior_calls"],
        "model_spec.assemble_sigma_eta_calls": c["model_spec.assemble_sigma_eta_calls"],
        "posterior_analysis.recover_beta_posterior_s":
            inclusive["posterior_analysis.recover_beta_posterior"],
        "posterior_analysis.conditional_eta_means_s":
            inclusive["posterior_analysis.conditional_eta_means"],
        "posterior_analysis.aic_s": inclusive["posterior_analysis.aic"],
        "posterior_analysis.aic_profile_evals": c["posterior_analysis.aic_profile_evals"],
        "smc_engine.run_smc_s": inclusive["smc_engine.run_smc"],
        "smc_engine.self_s": self_time["smc_engine.run_smc"],
        "smc_engine.runs": c["smc_engine.runs"],
        "smc_engine.stages": c["smc_engine.stages"],
        "smc_engine.log_prior_s": inclusive["smc_engine.log_prior"],
        "smc_engine.next_beta_s": inclusive["smc_engine.next_beta"],
        "smc_engine.ess_evals": c["smc_engine.ess_evals"],
        "smc_engine.resample_s": inclusive["smc_engine.resample"],
        "smc_engine.resamples": c["smc_engine.resamples"],
        "smc_engine.proposal_chol_s": inclusive["smc_engine.proposal_chol"],
        "smc_engine.mh_s": inclusive["smc_engine.mh"],
        "smc_engine.mh_proposals": c["smc_engine.mh_proposals"],
        "analytic_evidence.nig_log_evidence_s": inclusive["analytic_evidence.nig_log_evidence"],
        "simulation_study.generate_dataset_s": inclusive["simulation_study.generate_dataset"],
        "data_model.load_s": inclusive["data_model.load"],
        "data_model.build_radon_design_s": inclusive["data_model.build_radon_design"],
        "cli.self_s": self_time["cli.command"],
        "cli.bytes_written": c["cli.bytes_written"],
    }
    values = {k: v / rounds for k, v in values.items()}
    values["likelihood_core.integrated_us_per_row"] = 1e6 * ratio(
        inclusive["likelihood_core.integrated"], c["likelihood_core.integrated_rows"])
    values["posterior_analysis.aic_converged_ratio"] = ratio(
        c["posterior_analysis.aic_converged"], c["posterior_analysis.aic_calls"])
    values["smc_engine.mh_accept_ratio"] = ratio(
        c["smc_engine.mh_accepted"], c["smc_engine.mh_proposals"])
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
