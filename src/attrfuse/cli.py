"""Command-line interface: calibration, observation fusion, experiments, theorem suites."""
from __future__ import annotations

import argparse
import codecs
import contextlib
import functools
import itertools
import json
import math
import operator
import sys
import time
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import NoReturn

import numpy as np

from attrfuse._version import __version__
from attrfuse.catalog import CatalogError, ObjectCatalog, compute_stats, load_catalog
from attrfuse.classifier import ClassifierModel, ModelFileError, classify_scores, load_models, save_models
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
from attrfuse.fusion import count_codes, decide, factor_table, posterior
from attrfuse.simulator import ScenarioError, calibrate_scenario, load_scenario
from attrfuse.streams import CALIBRATION_STREAM, PICK_STREAM, derived_rng


_HEADER = ("attribute", "bin", "score")
_SKIPPED = frozenset(("", "#")).__contains__  # first character of a blank or comment line
_FIRST = operator.itemgetter(slice(1))
_MISSED = -1  # the code of a field that no lookup finds; it indexes the last row or column of the check table


def _fields(lines: list[str]) -> list[str] | None:
    """The fields of ``lines``, three a line, or None when some line has another count.

    No line holds a line break, so a "\n" can mark the last field of every
    line but the last. Each field holds at most one mark, so every line has 3
    fields iff there are 3 per line and the marks all sit in every third field.
    The fields are not stripped, and the marks stay in them.
    """
    fields = "\n,".join(lines).split(",") if lines else []
    if len(fields) != 3 * len(lines) or "".join(fields[2::3]).count("\n") != max(len(lines) - 1, 0):
        return None
    return fields


def _codes(table: Mapping[str, int], fields: list[str], retry: Callable[[str], int]) -> np.ndarray:
    """Each field's code in ``table``, one lookup per field; each distinct field that misses takes ``retry`` once."""
    codes = np.fromiter(map(table.get, fields, itertools.repeat(_MISSED)), np.intp, len(fields))
    missed = np.flatnonzero(codes == _MISSED).tolist()
    if missed:
        again = {field: retry(field) for field in {fields[n] for n in missed}}
        codes[missed] = [again[fields[n]] for n in missed]
    return codes


def _scores(fields: list[str]) -> np.ndarray:
    """The fields read by ``float``; a ValueError if one does not parse once stripped."""
    try:
        return np.array(fields, dtype=float)
    except ValueError:  # "\x1f" pads a field for strip() but not for float()
        return np.fromiter(map(float, map(str.strip, fields)), float, len(fields))


def _stop_at_first_bad_line(
    path: Path, lines: list[str], numbers: np.ndarray, catalog: ObjectCatalog, models: Mapping[int, ClassifierModel]
) -> NoReturn:
    """Stop the run at the first bad line among the observation lines ``lines``, numbered ``numbers``.

    The first line, in file order, without 3 fields or whose stripped bin or
    score Python's ``int`` or ``float`` does not read stops the run. Failing
    that, the first line to fail a check does, with the first check it fails:
    a known attribute, a calibrated model for it, a finite score and a bin its
    model calibrates. A file with no bad line is an AssertionError: only a
    file that the columnar pass flagged comes here.
    """
    rows = []
    for line_no, line in zip(numbers.tolist(), lines):
        fields = [field.strip() for field in line.split(",")]
        if len(fields) != 3:
            raise SystemExit(f"{path}:{line_no}: expected `attribute,bin,score`, got {line!r}")
        try:
            rows.append((line_no, fields[0], int(fields[1]), float(fields[2])))
        except ValueError:
            raise SystemExit(f"{path}:{line_no}: could not parse bin/score in {line!r}") from None
    for line_no, attribute_id, bin_index, score in rows:
        try:
            i = catalog.attribute_index(attribute_id)
        except CatalogError as exc:
            raise SystemExit(f"{path}:{line_no}: {exc}") from None
        if i not in models:
            raise SystemExit(f"{path}:{line_no}: no calibrated model for attribute {attribute_id!r}")
        if not math.isfinite(score):
            raise SystemExit(f"{path}:{line_no}: score must be finite, got {score!r}")
        if bin_index not in models[i].calibrations:
            raise SystemExit(f"{path}:{line_no}: unknown bin index {bin_index}")
    raise AssertionError(f"{path}: the columnar pass flagged a file without a bad observation line")


def _read_observations(
    path: Path, catalog: ObjectCatalog, models: Mapping[int, ClassifierModel]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Line numbers, attribute indices, bins and scores of the observation lines `attribute,bin,score`, once every
    line passes the checks.

    One leading UTF-8 byte-order mark, blank lines, #-comments and
    `attribute,bin,score` headers before the first observation are skipped;
    a file with no blank line and no "#" keeps every line without building
    a skip mask. The lines are split into fields in bulk and the scores are
    converted in one numpy call. Each attribute field is one dictionary
    lookup among the catalog's ids, and each bin field one among the decimal
    forms of the calibrated bins; only the distinct fields that miss are
    stripped, parsed with ``int`` and looked up again. The checks are one
    gather from an (attribute, bin) table and one finiteness test. This pass
    only detects a bad file: :func:`_stop_at_first_bad_line` names its line.
    """
    try:
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read observations ({exc.strerror})") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise SystemExit(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
    lines = text.splitlines()
    numbers = np.arange(1, len(lines) + 1)
    # a line with 3 fields is not blank, so without a "#" every line is an observation or header line
    fields = None if "#" in text else _fields(lines)
    if fields is None:
        kept_mask = ~np.fromiter(map(_SKIPPED, map(_FIRST, map(str.strip, lines))), bool, len(lines))
        lines = list(itertools.compress(lines, kept_mask.tolist()))
        numbers = np.flatnonzero(kept_mask) + 1
        fields = _fields(lines)
    start = len(list(itertools.takewhile(lambda line: tuple(map(str.strip, line.split(","))) == _HEADER, lines)))
    lines, numbers = lines[start:], numbers[start:]
    if fields is None:
        _stop_at_first_bad_line(path, lines, numbers, catalog, models)
    attribute_fields, bin_fields, score_fields = (fields[3 * start + c :: 3] for c in range(3))
    bin_values = sorted({k for model in models.values() for k in model.calibrations})
    bin_column = {k: j for j, k in enumerate(bin_values)}
    try:
        scores = _scores(score_fields)
        bins = _codes(
            {str(k): j for k, j in bin_column.items()}, bin_fields,
            lambda field: bin_column.get(int(field.strip()), _MISSED),
        )
    except ValueError:
        _stop_at_first_bad_line(path, lines, numbers, catalog, models)
    # a padded catalog id never equals a stripped field, so only ids equal to their own strip() can match
    index = {a: i for i, a in enumerate(catalog.attributes) if a == a.strip()}
    attributes = _codes(index, attribute_fields, lambda field: index.get(field.strip(), _MISSED))
    known = np.zeros((catalog.n_attributes + 1, len(bin_values) + 1), dtype=bool)  # False in the last row and column
    for i, model in models.items():
        known[i, :-1] = [k in model.calibrations for k in bin_values]
    if not (known[attributes, bins] & np.isfinite(scores)).all():
        _stop_at_first_bad_line(path, lines, numbers, catalog, models)
    return numbers, attributes, np.array(bin_values, dtype=np.intp)[bins], scores


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as the stream keys require."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    """A ``--trials`` value: a positive integer, read as ``int`` reads it."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@contextlib.contextmanager
def _writing(out: str):
    """Write the outputs under ``--out``; an OSError ends the run with a message naming the path and the reason."""
    try:
        yield
    except OSError as exc:
        reason = "exists and is not a directory" if isinstance(exc, FileExistsError) else exc.strerror
        raise SystemExit(f"{exc.filename or out}: cannot write output ({reason})") from None


def _timed(harness, *args, **kwargs):
    """The harness's result and its wall time in seconds."""
    start = time.perf_counter()
    result = harness(*args, **kwargs)
    return result, time.perf_counter() - start


def _cmd_calibrate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    models = calibrate_scenario(scenario, derived_rng(seed, CALIBRATION_STREAM))
    with _writing(args.out):
        save_models(models, scenario.catalog, args.out)
    for i in sorted(models):
        region = [k for k, cal in sorted(models[i].calibrations.items()) if cal.reliable]
        print(f"{scenario.catalog.attributes[i]}: reliable bins {region if region else 'none'}")
    print(f"wrote {len(models)} models to {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    """Classify every observation line in one engine pass, count the adopted outcomes, and decide them as one row."""
    catalog = load_catalog(args.catalog)
    models = load_models(args.model, catalog)
    stats = compute_stats(catalog)
    obs_path = Path(args.obs)
    numbers, attrs, bins, scores = _read_observations(obs_path, catalog, models)
    codes, keys = classify_scores(models, attrs, bins, scores[None, :])
    constant = np.flatnonzero((codes[0] < len(keys)) & ~stats.usable[attrs])
    if constant.size:  # the first adopted line of an attribute that no object lacks or every object lacks
        n = constant[0]
        raise SystemExit(
            f"{obs_path}:{numbers[n]}: attribute index {attrs[n]} is constant across the catalog and cannot be fused"
        )
    # the engine row holds only the adopted keys: an unadopted one may belong to a catalog-constant attribute
    counts = count_codes(codes, len(keys), [codes.shape[1]])[0, 0]
    adopted = np.flatnonzero(counts).tolist()
    keys, counts = [keys[k] for k in adopted], counts[adopted]
    table = factor_table(keys, stats)
    episodes = decide(
        counts[None, None], table, catalog.priors, lambda _, options: derived_rng(args.seed, PICK_STREAM).integers(options)
    )
    counts = counts.tolist()
    candidates = np.flatnonzero(episodes.tied[0, 0]).tolist()
    outcome_counts: dict[str, dict[str, int]] = {"positive": {}, "negative": {}}
    for (i, outcome, _), n in zip(keys, counts):  # keys are sorted, so attributes come in index order
        per_attribute = outcome_counts[outcome]
        per_attribute[catalog.attributes[i]] = per_attribute.get(catalog.attributes[i], 0) + n
    probs = posterior(episodes.log_weights[0])
    record = {
        "winner": catalog.objects[episodes.winners[0, 0]],
        "candidates": [catalog.objects[j] for j in candidates],
        "tie_broken_by": "none" if len(candidates) == 1 else "random" if episodes.random[0, 0] else "prior",
        "posterior": {catalog.objects[j]: float(probs[j]) for j in range(catalog.n_objects)},
        "adopted_observations": sum(counts),
        "discarded_observations": len(numbers) - sum(counts),
        "positive_counts": outcome_counts["positive"],
        "negative_counts": outcome_counts["negative"],
        "saturated": bool(episodes.hits.any()),
    }
    text = json.dumps(record, indent=2)
    if args.out:
        with _writing(args.out):
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
    intervals = [str(interval) for interval in result.bins]
    width = max(map(len, ["bin", *intervals])) + 1
    lines = ["bin".ljust(width) + "".join(f"{name:<10}" for name in result.systems)]
    for k, interval in enumerate(intervals):
        cells = "".join(f"{result.accuracy[k, s]:<10.4f}" for s in range(len(result.systems)))
        lines.append(interval.ljust(width) + cells)
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
    trials = result.n_pos if args.trials is None else args.trials  # exp1 defaults to the calibration counts
    # exp1 draws n_pos and n_neg scores per bin, which differ when they default to the calibration counts
    extra = {"n_pos": result.n_pos, "n_neg": result.n_neg} if args.command == "exp1" else None
    with _writing(args.out):
        paths = write(result, args.out)
        write_manifest(args.out, args.command, seed, trials, scenario=scenario, extra=extra, wall_s=wall_s)
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
        f"(requires a decrease over the first two checkpoints, or no error at the second, "
        f"and final < {report.convergence_ceiling})"
    )
    if args.out:
        extra = {"exact_cases": report.exact_cases, "exact_correct": report.exact_correct}
        with _writing(args.out):
            write_theorem_csv(report, args.out)
            write_manifest(args.out, "theorems", args.seed, args.trials, extra=extra, wall_s=wall_s)
        print(f"wrote {Path(args.out) / 'theorem_convergence.csv'}")
    return 0 if report.all_pass else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call and reused by every later one."""
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
        p.add_argument("--trials", type=_positive_int, default=default, help=trials_help)
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("theorems", help="run the exact-recognition and convergence Monte Carlo suites")
    p.add_argument("--trials", type=_positive_int, default=2000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_theorems)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CatalogError, ModelFileError, ScenarioError) as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
