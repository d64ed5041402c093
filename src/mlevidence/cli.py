"""Command-line entry point: simulate, evidence, compare, fit-export.

Every command writes its primary payload deterministically (reruns with
the same inputs and seed are byte-identical) plus a manifest carrying the
configuration digest, seed, library versions and wall-clock timings.
Files are written atomically (temp file in the target directory, then
rename).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from mlevidence import __version__, model_spec as spec_io
from mlevidence.analytic_evidence import nig_log_evidence
from mlevidence.data_model import (
    RADON_FAMILIES,
    RADON_MODEL_IDS,
    Dataset,
    EmptyDataError,
    ParseError,
    SchemaError,
    UnknownModelError,
    build_radon_design,
    load_csv,
    load_radon_csv,
)
from mlevidence.likelihood_core import precompute
from mlevidence.model_spec import (
    CorrelationPrior,
    EtaCovStructure,
    IGPrior,
    ModelSpec,
    validate,
)
from mlevidence.posterior_analysis import (
    aic,
    bayes_factor,
    conditional_eta_means,
    export_fits,
    recover_beta_posterior,
)
from mlevidence.simulation_study import (
    DATASET_IDS,
    SimConfig,
    builtin_model_specs,
    generate_dataset,
)
from mlevidence.smc_engine import estimate_evidence, run_smc, variance_block_to_natural

# Priors shared by all radon models: unit-normal coefficients and IG(3, 1)
# on every variance-type parameter.
_RADON_IG = IGPrior(3.0, 1.0)

# Deliberate prior/generator mismatches in the builtin presets, surfaced
# in output manifests so downstream readers are not surprised by them.
_DEVIATIONS = {
    "sim:M1": [
        "M1 noise-variance prior is IG(3, 0.4) while the D1 generator "
        "draws it from IG(3, 0.3); the mismatch is intentional"
    ],
    "sim:M2": [
        "M2 places four independent IG(3, 0.1) priors on the group-level "
        "variances, matching the 4x4 covariance used by the D2 generator"
    ],
}


def radon_model_spec(model_id, d):
    """Priors of the radon models given the realized design width."""
    if model_id not in RADON_MODEL_IDS:
        raise UnknownModelError(f"unknown radon model id {model_id!r}")
    family = RADON_FAMILIES[model_id]
    groups = {}
    if family == "SimpleMultilevel":
        groups = dict(ig_eta=(_RADON_IG,))
    elif family == "GeneralMultilevel":
        groups = dict(
            ig_eta=(_RADON_IG, _RADON_IG), eta_structure=EtaCovStructure(m=2, pattern=((0, 1),)),
            corr_prior=CorrelationPrior(kind="truncated_normal"),
        )
    return ModelSpec(family=family, prior_mean=np.zeros(d), prior_cov=np.eye(d), ig_y=_RADON_IG,
                     **groups)


def _atomic_write(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _config_digest(config):
    return hashlib.sha256(_json_dumps(config).encode("utf-8")).hexdigest()


def _manifest(command, config, seed, run_values, timings, deviations):
    import scipy

    return {
        "command": command,
        "config": config,
        "config_digest": _config_digest(config),
        "seed": int(seed),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mlevidence": __version__,
        },
        "timings_s": timings,
        "deviation_flags": deviations,
        "run_values": run_values,
    }


def _read_once():
    """``read(load, *args)``: ``load(*args)``, made once per distinct call and kept.

    A read that raises is not kept, so each later model that reads the same
    file raises the same error again.
    """
    done = {}

    def read(load, *args):
        key = (load, repr(args))
        if key not in done:
            done[key] = load(*args)
        return done[key]

    return read


def _resolve_model(model_arg, data_path, read):
    """(dataset, spec, model_label, deviations, radon meta or None) from a builtin id or spec file.

    Builtin ids take the forms ``sim:M0..sim:M3`` (data is a generic-schema
    CSV from the simulator) and ``radon:M0..radon:M5`` (data is a raw
    radon-schema CSV).  Anything else is treated as a YAML spec file and
    paired with a generic-schema CSV.  The file is read through
    ``read(load, *args)`` (see :func:`_read_once`), so that ``compare``
    reads it once for all its models.
    """
    if model_arg.startswith("radon:"):
        mid = model_arg.split(":", 1)[1]
        raw = read(load_radon_csv, data_path)
        data, meta = build_radon_design(raw, mid)
        spec = radon_model_spec(mid, data.d)
        return data, spec, model_arg, [], meta
    if model_arg.startswith("sim:"):
        mid = model_arg.split(":", 1)[1]
        spec = builtin_model_specs(mid)
        # Simulator CSVs always carry the z block; single-level models ignore it.
        data = read(load_csv, data_path, _generic_schema(spec, n_z=4))
        if not spec.layout.group_width:
            data = Dataset(y=data.y, x=data.x, z=np.zeros((data.n, 0)), group_of=data.group_of)
        return data, spec, model_arg, list(_DEVIATIONS.get(model_arg, [])), None
    spec = spec_io.load(model_arg)
    data = read(load_csv, data_path, _generic_schema(spec))
    return data, spec, Path(model_arg).name, [], None


def _generic_schema(spec, n_z=None):
    d = spec.d
    m = n_z if n_z is not None else (spec.m or 0)
    return {
        "y": "y",
        "group": "group",
        "x": [f"x{i}" for i in range(d)],
        "z": [f"z{i}" for i in range(m)],
    }


def _write_dataset_csv(path, data, t=None):
    """y, group, x, z (and t) columns, each float as its shortest round-trip repr."""
    header = ["y", "group"] + [f"x{i}" for i in range(data.d)] + [f"z{i}" for i in range(data.m)]
    columns = [data.x, data.z]
    if t is not None:
        header.append("t")
        columns.append(np.asarray(t, dtype=float)[:, None])
    # No float repr holds a comma, quote or newline, so csv.writer would quote nothing.
    lines = [",".join(header)]
    lines += [
        f"{y!r},{g},{','.join(map(repr, rest))}"
        for y, g, rest in zip(data.y.tolist(), data.group_of.tolist(), np.hstack(columns).tolist())
    ]
    _atomic_write(path, "\n".join(lines) + "\n")


def cmd_simulate(args):
    out = Path(args.out)
    cfg = SimConfig()
    rng = np.random.default_rng(args.seed)
    timings = {}
    sidecar = {}
    for which in DATASET_IDS:
        t0 = time.perf_counter()
        data, true = generate_dataset(which, cfg, rng)
        t = data.z[:, 1] + 0.5  # the z block's second column is t - 1/2
        _write_dataset_csv(out / f"{which}.csv", data, t=t)
        sidecar[which] = true.to_dict()
        timings[which] = round(time.perf_counter() - t0, 4)
    config = {"out": str(out), "seed": int(args.seed), "datasets": list(DATASET_IDS)}
    _atomic_write(out / "true_params.json", _json_dumps(sidecar))
    man = _manifest("simulate", config, args.seed, {}, timings, [])
    _atomic_write(out / "manifest.json", _json_dumps(man))
    print(f"wrote {', '.join(w + '.csv' for w in DATASET_IDS)} to {out}")
    return 0


def _evidence_payload(model_label, est, seed, analytic=None, deviations=()):
    payload = {
        "model": model_label,
        "mode": est.likelihood_mode,
        "runs": list(est.runs),
        "mean": est.mean,
        "std": est.std,
        "single_run": est.single_run,
        "particles": est.draws_per_stage,
        "stages": list(est.stage_counts),
        "forced_steps": list(est.forced_steps),
        "seed": int(seed),
        "deviations": list(deviations),
    }
    if analytic is not None:
        payload["analytic_log_evidence"] = float(analytic)
    return payload


def cmd_evidence(args):
    t0 = time.perf_counter()
    data, spec, label, deviations, _ = _resolve_model(args.model, args.data, _read_once())
    problems = validate(spec, data)
    if problems:
        print("model/data validation failed:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 2
    stats = precompute(data)
    analytic = None
    if spec.family == "LinearModelNIG":
        analytic = nig_log_evidence(stats, spec)
        print(f"analytic log evidence: {analytic:.4f}")
    est = estimate_evidence(stats, spec, args.mode, args.runs, args.particles, args.seed)
    payload = _evidence_payload(label, est, args.seed, analytic, deviations)
    elapsed = round(time.perf_counter() - t0, 4)
    config = {
        "data": str(args.data), "model": args.model, "mode": args.mode,
        "particles": args.particles, "runs": args.runs, "seed": int(args.seed),
    }
    man = _manifest("evidence", config, args.seed, payload, {"total": elapsed}, deviations)
    payload["manifest_digest"] = man["config_digest"]
    if args.out:
        _atomic_write(args.out, _json_dumps(payload))
        _atomic_write(str(args.out) + ".manifest.json", _json_dumps(man))
    print(
        f"{label} [{args.mode}] log evidence: {est.mean:.4f}"
        + (f" (std {est.std:.4f}, {args.runs} runs)" if not est.single_run else " (single run)")
        + (f"; forced ladder steps per run: {' '.join(map(str, est.forced_steps))}"
           if any(est.forced_steps) else "")
    )
    return 0


def cmd_compare(args):
    t0 = time.perf_counter()
    rows = []
    deviations = []
    read = _read_once()
    for model_arg in args.models:
        entry = {"model": model_arg}
        try:
            data, spec, label, devs, _ = _resolve_model(model_arg, args.data, read)
            problems = validate(spec, data)
            if problems:
                raise ValueError("; ".join(problems))
            stats = precompute(data)
            est = estimate_evidence(stats, spec, args.mode, args.runs, args.particles, args.seed)
            a = aic(data, spec, stats=stats)
            entry.update(
                log_evidence=est.mean, std=est.std, aic=a.aic, k=a.k,
                max_loglik=a.max_loglik, aic_converged=a.converged, error=None, _est=est,
            )
            deviations += devs
        except Exception as exc:  # noqa: BLE001 - per-model failure isolation
            entry.update(
                log_evidence=None, std=None, aic=None, k=None,
                max_loglik=None, aic_converged=None, error=f"{type(exc).__name__}: {exc}",
            )
        rows.append(entry)

    ok = [r for r in rows if r["error"] is None]
    ok.sort(key=lambda r: -r["log_evidence"])
    for rank, r in enumerate(ok, start=1):
        r["evidence_rank"] = rank
    aic_sorted = sorted(ok, key=lambda r: r["aic"])
    for rank, r in enumerate(aic_sorted, start=1):
        r["aic_rank"] = rank
    for r in rows:
        r.setdefault("evidence_rank", None)
        r.setdefault("aic_rank", None)

    pairwise = []
    if len(ok) > 1:
        for i, a_row in enumerate(ok):
            for b_row in ok[i + 1:]:
                bf = bayes_factor(a_row["_est"], b_row["_est"])
                pairwise.append(
                    {
                        "model_a": a_row["model"], "model_b": b_row["model"],
                        "log_bayes_factor": bf.log_bf, "std": bf.std, "label": bf.label,
                    }
                )
    for r in rows:
        r.pop("_est", None)

    config = {
        "data": str(args.data), "models": list(args.models), "mode": args.mode,
        "particles": args.particles, "runs": args.runs, "seed": int(args.seed),
    }
    payload = {"table": rows, "pairwise_log_bayes_factors": pairwise}
    man = _manifest(
        "compare", config, args.seed, payload,
        {"total": round(time.perf_counter() - t0, 4)}, deviations,
    )
    payload["manifest_digest"] = man["config_digest"]
    if args.out:
        if str(args.out).endswith(".csv"):
            _write_csv(args.out, [
                "model", "evidence_rank", "log_evidence", "std", "aic", "aic_rank", "k",
                "aic_converged", "error",
            ], rows)
            _atomic_write(str(args.out) + ".json", _json_dumps(payload))
        else:
            _atomic_write(args.out, _json_dumps(payload))
        _atomic_write(str(args.out) + ".manifest.json", _json_dumps(man))

    width = max(len(r["model"]) for r in rows)
    for r in sorted(rows, key=lambda r: (r["evidence_rank"] is None, r["evidence_rank"] or 0)):
        if r["error"] is None:
            print(
                f"{r['model']:<{width}}  rank {r['evidence_rank']}  "
                f"logZ {r['log_evidence']:.2f} ({r['std']:.2f})  AIC {r['aic']:.2f}"
                + ("" if r["aic_converged"] else " (AIC search not converged)")
            )
        else:
            print(f"{r['model']:<{width}}  ERROR: {r['error']}")
    return 0 if all(r["error"] is None for r in rows) else 1


def _write_csv(path, fieldnames, rows):
    """A header of ``fieldnames`` and each dict row's values under it; other keys are left out."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def cmd_fit_export(args):
    t0 = time.perf_counter()
    if not args.model.startswith("radon:"):
        print("fit-export supports the radon builtin models (radon:M0..radon:M5)", file=sys.stderr)
        return 2
    data, spec, _, _, meta = _resolve_model(args.model, args.data, _read_once())
    stats = precompute(data)
    _, cloud = run_smc(stats, spec, "integrated", args.particles, args.seed)
    post = recover_beta_posterior(cloud, stats, spec, "integrated")

    eta_means = None
    if spec.layout.group_width:
        # The group effects at the weighted-mean variance row; their spread
        # is not propagated into the bands.
        bar = cloud.normalized_weights() @ variance_block_to_natural(spec, cloud.particles)
        eta_means = conditional_eta_means(stats, spec, bar, post.mean)

    rows = export_fits(post, meta, eta_means=eta_means)
    out_rows = []
    for r in rows:
        out_row = dict(r)
        if out_row["present"]:
            out_row["mean"] = f"{out_row['mean']:.6f}"
            out_row["sd"] = f"{out_row['sd']:.6f}"
        else:
            out_row["mean"] = out_row["sd"] = ""
        out_rows.append(out_row)
    _write_csv(args.out, ["county", "t", "mean", "sd", "present"], out_rows)
    config = {
        "data": str(args.data), "model": args.model,
        "particles": args.particles, "seed": int(args.seed),
    }
    man = _manifest(
        "fit-export", config, args.seed, {"rows": len(rows)},
        {"total": round(time.perf_counter() - t0, 4)}, [],
    )
    _atomic_write(str(args.out) + ".manifest.json", _json_dumps(man))
    print(f"wrote {len(rows)} fit rows to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mlevidence",
        description="Model evidence for multilevel linear models via tempered SMC "
        "over variance parameters with coefficients integrated out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write the four study datasets D0..D3")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True, help="input CSV")
    common.add_argument("--mode", choices=("integrated", "full"), default="integrated")
    common.add_argument("--particles", type=int, default=2000)
    common.add_argument("--runs", type=int, default=8)
    common.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evidence", parents=[common], help="estimate log model evidence")
    p.add_argument("--model", required=True, help="builtin id (sim:M0..3, radon:M0..5) or spec YAML")
    p.add_argument("--out", default=None, help="result JSON path")
    p.set_defaults(func=cmd_evidence)

    p = sub.add_parser("compare", parents=[common], help="rank models by evidence and AIC")
    p.add_argument("--models", required=True, nargs="+")
    p.add_argument("--out", default=None, help="table path (.csv or .json)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fit-export", help="per-county fitted means for a radon model")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--particles", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_export)
    return parser


def main(argv=None):
    """Run one command; an unreadable or malformed input file, or an unknown
    builtin model id, is one line on stderr and status 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, SchemaError, EmptyDataError, UnknownModelError) as exc:
        print(f"mlevidence: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
