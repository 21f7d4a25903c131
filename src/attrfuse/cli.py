"""Command-line interface: calibration, observation fusion, experiments, theorem suites."""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from attrfuse._version import __version__
from attrfuse.catalog import CatalogError, compute_stats, load_catalog
from attrfuse.classifier import ModelFileError, load_models, save_models
from attrfuse.experiments import (
    experiment1_distribution_shift,
    experiment2_threshold_comparison,
    experiment3_attribute_families,
    theorem_suites,
    write_exp1_csvs,
    write_exp2_csv,
    write_exp3_csv,
    write_manifest,
    write_theorem_csv,
)
from attrfuse.fusion import counted_posterior, decide, posterior
from attrfuse.simulator import (
    CALIBRATION_STREAM,
    PICK_STREAM,
    ScenarioError,
    calibrate_scenario,
    classify_scores,
    derived_rng,
    load_scenario,
)


def _read_observation_lines(path: Path) -> list[tuple[int, str, int, float]]:
    """Parse observation lines `attribute,bin,score` into (line number, attribute, bin, score).

    Blank lines, #-comments and an `attribute,bin,score` header before the
    first observation are skipped.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read observations ({exc.strerror})") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise SystemExit(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
    rows: list[tuple[int, str, int, float]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p.strip() for p in stripped.split(",")]
        if len(parts) != 3:
            raise SystemExit(f"{path}:{line_no}: expected `attribute,bin,score`, got {line!r}")
        if not rows and parts == ["attribute", "bin", "score"]:
            continue
        try:
            rows.append((line_no, parts[0], int(parts[1]), float(parts[2])))
        except ValueError:
            raise SystemExit(f"{path}:{line_no}: could not parse bin/score in {line!r}") from None
    return rows


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as numpy's SeedSequence requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _timed(harness, *args, **kwargs):
    """The harness's result and its wall time in seconds."""
    start = time.perf_counter()
    result = harness(*args, **kwargs)
    return result, time.perf_counter() - start


def _cmd_calibrate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    models = calibrate_scenario(scenario, derived_rng(seed, CALIBRATION_STREAM))
    save_models(models, scenario.catalog, args.out)
    for i in sorted(models):
        region = [k for k, cal in sorted(models[i].calibrations.items()) if cal.reliable]
        print(f"{scenario.catalog.attributes[i]}: reliable bins {region if region else 'none'}")
    print(f"wrote {len(models)} models to {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    """Classify every observation line in one engine pass, count the adopted outcomes, and decide."""
    catalog = load_catalog(args.catalog)
    models = load_models(args.model, catalog)
    stats = compute_stats(catalog)
    obs_path = Path(args.obs)
    rows = _read_observation_lines(obs_path)
    lines: list[tuple[int, int, float]] = []  # (attribute index, bin, score) per row
    for line_no, attribute_id, bin_index, score in rows:
        try:  # unknown attribute, unmodeled attribute, non-finite score, unknown bin
            i = catalog.attribute_index(attribute_id)
            if i not in models:
                raise ValueError(f"no calibrated model for attribute {attribute_id!r}")
            if not math.isfinite(score):
                raise ValueError(f"score must be finite, got {score!r}")
            if bin_index not in models[i].calibrations:
                raise ValueError(f"unknown bin index {bin_index}")
        except ValueError as exc:
            raise SystemExit(f"{obs_path}:{line_no}: {exc}") from None
        lines.append((i, bin_index, score))
    attrs, bins, scores = zip(*lines) if lines else ((), (), ())
    codes, keys = classify_scores(models, attrs, bins, np.array([scores], dtype=float))
    constant = np.flatnonzero((codes[0] < len(keys)) & ~stats.usable[np.array(attrs, dtype=np.intp)])
    if constant.size:  # the first adopted line of an attribute that no object lacks or every object lacks
        n = constant[0]
        raise SystemExit(
            f"{obs_path}:{rows[n][0]}: attribute index {attrs[n]} is constant across the catalog and cannot be fused"
        )
    state = counted_posterior(catalog, stats, dict(zip(keys, np.bincount(codes[0], minlength=len(keys)))))
    adopted = sum(state.counts.values())
    decision = decide(state, catalog, rng=derived_rng(args.seed, PICK_STREAM))
    probs = posterior(state)
    record = {
        "winner": None if decision.winner is None else catalog.objects[decision.winner],
        "candidates": [catalog.objects[j] for j in decision.candidates],
        "tie_broken_by": decision.tie_broken_by,
        "posterior": {catalog.objects[j]: float(probs[j]) for j in range(catalog.n_objects)},
        "adopted_observations": adopted,
        "discarded_observations": len(rows) - adopted,
        "positive_counts": {catalog.attributes[i]: n for i, n in sorted(state.outcome_counts("positive").items())},
        "negative_counts": {catalog.attributes[i]: n for i, n in sorted(state.outcome_counts("negative").items())},
        "saturated": state.saturated,
    }
    text = json.dumps(record, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _exp1_table(scenario, result) -> list[str]:
    return [f"bin {k} {scenario.bins[k]}: overlap {overlap:.4f}" for k, overlap in enumerate(result.overlap)]


def _exp2_table(scenario, curve) -> list[str]:
    lines = ["K  two_threshold  single_threshold  random_tie"]
    for idx, k in enumerate(curve.k_values):
        lines.append(
            f"{k:<3}{curve.two_threshold_error[idx]:<15.4f}"
            f"{curve.single_threshold_error[idx]:<18.4f}{curve.random_tie_error[idx]:.4f}"
        )
    return lines


def _exp3_table(scenario, result) -> list[str]:
    lines = ["bin        " + "".join(f"{name:<10}" for name in result.systems)]
    for k, interval in enumerate(result.bins):
        cells = "".join(f"{result.accuracy[k, s]:<10.4f}" for s in range(len(result.systems)))
        lines.append(f"{str(interval):<11}{cells}")
    return lines


# per experiment: the harness, its CSV writer returning the written paths, and its printed table
_EXPERIMENTS = {
    "exp1": (
        lambda scenario, trials, seed: experiment1_distribution_shift(scenario, n_pos=trials, n_neg=trials, seed=seed),
        write_exp1_csvs,
        _exp1_table,
    ),
    "exp2": (experiment2_threshold_comparison, lambda curve, out: [write_exp2_csv(curve, out)], _exp2_table),
    "exp3": (experiment3_attribute_families, lambda result, out: [write_exp3_csv(result, out)], _exp3_table),
}


def _cmd_experiment(args) -> int:
    """Run exp1, exp2 or exp3 timed on the scenario; write its CSVs and manifest and print its table."""
    harness, write, table = _EXPERIMENTS[args.command]
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    result, wall_s = _timed(harness, scenario, trials=args.trials, seed=seed)
    paths = write(result, args.out)
    trials = result.n_pos if args.trials is None else args.trials  # exp1 defaults to the calibration counts
    write_manifest(args.out, args.command, seed, trials, scenario=scenario, wall_s=wall_s)
    print("\n".join(table(scenario, result)))
    print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


def _cmd_theorems(args) -> int:
    report, wall_s = _timed(theorem_suites, trials=args.trials, seed=args.seed)
    status = "PASS" if report.exact_pass else "FAIL"
    print(
        f"[{status}] exact recognition: {report.exact_correct}/{report.exact_cases} "
        "randomized bound-satisfying cases decided correctly"
    )
    curve = ", ".join(f"K={k}: {e:.4f}" for k, e in zip(report.convergence_k, report.convergence_error))
    status = "PASS" if report.convergence_pass else "FAIL"
    print(
        f"[{status}] convergence: error {curve} "
        f"(requires decrease over the first two checkpoints and final < {report.convergence_ceiling})"
    )
    if args.out:
        write_theorem_csv(report, args.out)
        write_manifest(args.out, "theorems", args.seed, args.trials, wall_s=wall_s)
        print(f"wrote {Path(args.out) / 'theorem_convergence.csv'}")
    return 0 if report.all_pass else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="attrfuse",
        description="Attribute-classifier fusion: calibration, observation fusion, and experiment harnesses.",
    )
    parser.add_argument("--version", action="version", version=f"attrfuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="calibrate two-threshold models from a scenario's training draws")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("fuse", help="classify raw observation lines and report the MAP decision")
    p.add_argument("--catalog", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--obs", required=True, help="CSV lines: attribute,bin,score")
    p.add_argument("--seed", type=_seed, default=0, help="seed for the tie-breaking pick")
    p.add_argument("--out", default=None, help="write the decision record here instead of stdout")
    p.set_defaults(func=_cmd_fuse)

    for name, default, help_text, trials_help in (
        ("exp1", None, "score-distribution shift across bins (KDE curves + overlap)",
         "draws per bin per class (default: calibration counts)"),
        ("exp2", 1000, "two-threshold fusion vs single-threshold baseline error curves", None),
        ("exp3", 1000, "per-bin accuracy of fine/coarse/all attribute systems", None),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True)
        p.add_argument("--trials", type=int, default=default, help=trials_help)
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("theorems", help="run the exact-recognition and convergence Monte Carlo suites")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_theorems)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CatalogError, ModelFileError, ScenarioError) as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
