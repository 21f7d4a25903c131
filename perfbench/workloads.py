"""The four benchmark workloads.

A workload generates its inputs from the workload seed in ``setup``, into a
fresh work directory, so the program only ever sees generated files.
``run_op(i)`` runs operation ``i`` with its own seed ``op_seed(seed, i)`` and
returns (items done, output). ``check_op`` checks one output,
``output_bytes`` gives the bytes a rerun must reproduce, and ``finish`` checks
what only the whole run can show. ``counts`` names the items and ``min_ops``
is the fewest ops a run makes; a traced run counts calls over exactly that
many, so its counts repeat for a given seed.

Only harness entry points (``attrfuse.experiments``) and ``attrfuse.cli.main``
are called inside a timed operation. They are looked up on their module at
call time, so a traced run's wrappers are seen.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from attrfuse import cli, experiments, simulator
from attrfuse.classifier import save_models

TARGET_PPV = TARGET_NPV = 0.96
MIN_DETECTION = 0.09


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _copy_scenario(root: Path, workdir: Path, name: str, count_scale: int) -> Path:
    """Copy the shipped exp3 scenario and its catalog into ``workdir``, scaling training counts."""
    raw = json.loads((root / "scenarios" / "exp3.json").read_text())
    shutil.copyfile(root / "catalogs" / "table1.json", workdir / "table1.json")
    raw["catalog"] = "table1.json"
    cal = raw.setdefault("calibration", {})
    cal["n_pos_per_object"] = cal.get("n_pos_per_object", 20) * count_scale
    cal["n_neg_per_object"] = cal.get("n_neg_per_object", 20) * count_scale
    path = workdir / name
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return path


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` with its standard output captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class Theorems:
    """Per-scalar ``update``/``decide`` on a 2-object catalog: no classification, no calibration."""

    name = "theorems"
    counts = "outcome draws"
    trials = 10  # convergence trials per op; exact cases are half that (the CLI's 2:1 ratio)
    k_checkpoints = (5, 50, 200)
    min_ops = 20

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        pass

    def run_op(self, index: int):
        report = experiments.theorem_suites(
            trials=self.trials,
            seed=op_seed(self.seed, index),
            exact_cases=self.trials // 2,
            k_checkpoints=self.k_checkpoints,
            ppv=0.98,
            npv=0.98,
            detection_rate=0.5,
            true_negative_rate=0.5,
        )
        return self.trials * max(self.k_checkpoints) * 2, report

    def output_bytes(self, report) -> bytes:
        return repr(report).encode()

    def check_op(self, index: int, report) -> list[str]:
        errors = []
        if not report.exact_pass:
            errors.append(f"exact recognition {report.exact_correct}/{report.exact_cases}")
        if not report.convergence_pass:
            errors.append(f"convergence errors {report.convergence_error}")
        return errors

    def finish(self) -> list[str]:
        return []


class Exp3Families:
    """Full pipeline on the 9x10 catalog: sample_score -> classify -> update -> decide."""

    name = "exp3_families"
    counts = "score draws"
    # Ten passes over the nine ground-truth objects per bin. Every call
    # recalibrates the whole catalog first, as ``attrfuse exp3`` does once
    # per 1000 trials; at 90 trials that calibration stays under 1 % of the op.
    trials = 90
    rounds_per_bin = 3
    min_ops = 40  # 3600 pooled trials per bin, and always ten ops above p75

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.correct: np.ndarray | None = None  # pooled correct counts, (bins, systems)
        self.pooled_trials = 0

    def setup(self, workdir: Path) -> None:
        self.scenario = simulator.load_scenario(_copy_scenario(self.root, workdir, "exp3.json", 1))
        families = self.scenario.families
        all_attrs = set(families["fine"]) | set(families["coarse"]) | set(families["color"])
        per_trial = self.rounds_per_bin * (len(families["fine"]) + len(families["coarse"]) + len(all_attrs))
        self.items = self.scenario.n_bins * self.trials * per_trial
        self.correct = None
        self.pooled_trials = 0

    def run_op(self, index: int):
        result = experiments.experiment3_attribute_families(
            self.scenario, trials=self.trials, rounds_per_bin=self.rounds_per_bin, seed=op_seed(self.seed, index)
        )
        return self.items, result

    def output_bytes(self, result) -> bytes:
        return result.accuracy.tobytes() + result.halfwidths.tobytes()

    def check_op(self, index: int, result) -> list[str]:
        acc = np.asarray(result.accuracy)
        if acc.shape != (self.scenario.n_bins, 3) or not ((acc >= 0) & (acc <= 1)).all():
            return [f"accuracies outside [0, 1] or misshapen: {acc.tolist()}"]
        counts = np.rint(acc * self.trials)
        self.correct = counts if self.correct is None else self.correct + counts
        self.pooled_trials += self.trials
        return []

    def finish(self) -> list[str]:
        """Acceptance criterion 5 on the results pooled over every op of the run."""
        if self.correct is None:
            return ["no results"]
        n = self.pooled_trials
        acc = self.correct / n
        hw = 1.96 * np.sqrt(acc * (1.0 - acc) / n)
        fine, coarse, alla = acc.T
        hw_fine, hw_coarse, hw_all = hw.T
        errors = []
        for k in range(acc.shape[0]):
            best_hw = hw_fine[k] if fine[k] >= coarse[k] else hw_coarse[k]
            if not alla[k] - max(fine[k], coarse[k]) > hw_all[k] + best_hw:
                errors.append(f"bin {k}: all={alla[k]:.4f} does not beat fine={fine[k]:.4f}, coarse={coarse[k]:.4f}")
        far = acc.shape[0] - 1
        if not coarse[far] - fine[far] > hw_coarse[far] + hw_fine[far]:
            errors.append(f"far bin: coarse={coarse[far]:.4f} does not beat fine={fine[far]:.4f}")
        return errors


class FuseStream:
    """Online user path: ``attrfuse fuse`` over generated observation streams."""

    name = "fuse_stream"
    counts = "observation lines"
    n_streams = 128
    min_lines, max_lines = 10, 10_000
    min_ops = n_streams

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        # van der Corput order over the log-length strata, so every prefix of
        # the op sequence covers short and long streams evenly
        bits = int(math.log2(self.n_streams))
        self.order = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(self.n_streams)]

    def setup(self, workdir: Path) -> None:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([self.seed, 7])))
        scenario_path = _copy_scenario(self.root, workdir, "exp3.json", 1)
        scenario = simulator.load_scenario(scenario_path)
        models = simulator.calibrate_scenario(scenario, simulator.derived_rng(self.seed, simulator.CALIBRATION_STREAM))
        self.catalog_path = workdir / "table1.json"
        self.model_path = workdir / "models.json"
        save_models(models, scenario.catalog, self.model_path)
        self.out_path = workdir / "decision.json"

        raw = json.loads(scenario_path.read_text())
        catalog = json.loads(self.catalog_path.read_text())
        attributes = catalog["attributes"]
        n_objects, n_bins = len(catalog["objects"]), len(raw["bins"])
        # Lengths sit at the midpoints of equal log-length strata and bins
        # cycle along them, so the latency quantiles do not hinge on which
        # bin the seed gives the longest streams; objects are spread evenly
        # over the strata in a seeded order.
        span = math.log10(self.max_lines) - math.log10(self.min_lines)
        objects = rng.permutation(np.arange(self.n_streams) % n_objects)
        self.streams = []
        for stratum in range(self.n_streams):
            u = (stratum + 0.5) / self.n_streams
            n_lines = int(round(self.min_lines * 10 ** (span * u)))
            obj, bin_index = int(objects[stratum]), stratum % n_bins
            attrs = rng.integers(len(attributes), size=n_lines)
            means = np.empty(len(attributes))
            stds = np.empty(len(attributes))
            for i, attribute in enumerate(attributes):
                truth = "pos" if catalog["matrix"][obj][i] else "neg"
                record = raw["score_models"][attribute][truth][bin_index]
                means[i], stds[i] = record["mean"], record["std"]
            scores = rng.normal(means[attrs], stds[attrs])
            path = workdir / f"stream{stratum:03d}.csv"
            lines = ["attribute,bin,score"]
            lines += [f"{attributes[a]},{bin_index},{s!r}" for a, s in zip(attrs.tolist(), scores.tolist())]
            path.write_text("\n".join(lines) + "\n")
            self.streams.append((path, bin_index, attrs, scores))
        self.expected: dict[int, dict] = {}

    def run_op(self, index: int):
        stratum = self.order[index % self.n_streams]
        path = self.streams[stratum][0]
        argv = [
            "fuse", "--catalog", str(self.catalog_path), "--model", str(self.model_path),
            "--obs", str(path), "--seed", str(op_seed(self.seed, index)), "--out", str(self.out_path),
        ]
        code, _ = _quiet_main(argv)
        if code != 0:
            raise RuntimeError(f"fuse exited with {code}")
        return len(self.streams[stratum][2]), (stratum, self.out_path.read_bytes())

    def output_bytes(self, output) -> bytes:
        return output[1]

    def _recount(self, stratum: int) -> dict:
        """Adoption counts recounted from the models.json thresholds."""
        if stratum not in self.expected:
            _, bin_index, attrs, scores = self.streams[stratum]
            models = json.loads(self.model_path.read_text())["models"]
            names = json.loads(self.catalog_path.read_text())["attributes"]
            pos, neg = {}, {}
            for entry in models:
                rec = next(r for r in entry["bins"] if r["bin"] == bin_index)
                if not rec["reliable"]:
                    continue
                s = scores[attrs == names.index(entry["attribute"])]
                if entry["orientation"] == "lower_is_positive":
                    is_pos, is_neg = s <= rec["theta_pos"], s >= rec["theta_neg"]
                else:
                    is_pos, is_neg = s >= rec["theta_pos"], s <= rec["theta_neg"]
                is_neg &= ~is_pos
                if is_pos.any():
                    pos[entry["attribute"]] = int(is_pos.sum())
                if is_neg.any():
                    neg[entry["attribute"]] = int(is_neg.sum())
            self.expected[stratum] = {"positive_counts": pos, "negative_counts": neg, "lines": len(scores)}
        return self.expected[stratum]

    def check_op(self, index: int, output) -> list[str]:
        stratum, text = output
        record = json.loads(text)
        expected = self._recount(stratum)
        errors = []
        total = math.fsum(record["posterior"].values())
        if abs(total - 1.0) > 1e-12:
            errors.append(f"posterior sums to {total!r}")
        if record["adopted_observations"] + record["discarded_observations"] != expected["lines"]:
            errors.append("adopted + discarded != line count")
        for key in ("positive_counts", "negative_counts"):
            if record[key] != expected[key]:
                errors.append(f"{key} {record[key]} != recount {expected[key]}")
        adopted = sum(expected["positive_counts"].values()) + sum(expected["negative_counts"].values())
        if record["adopted_observations"] != adopted:
            errors.append(f"adopted {record['adopted_observations']} != recount {adopted}")
        return errors

    def finish(self) -> list[str]:
        return []


class Calibrate:
    """``attrfuse calibrate`` on the shipped exp3 scenario and a copy with 10x training counts."""

    name = "calibrate"
    counts = "training scores calibrated"
    cycle = (1, 10, 10)  # training-count scale per op, repeating
    min_ops = 30

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        self.paths = {scale: _copy_scenario(self.root, workdir, f"exp3_x{scale}.json", scale) for scale in set(self.cycle)}
        self.scenarios = {scale: simulator.load_scenario(path) for scale, path in self.paths.items()}
        self.items = {}
        for scale, scenario in self.scenarios.items():
            m = scenario.catalog.matrix
            cfg = scenario.calibration
            n_pos = m.sum(axis=0)
            n_neg = m.shape[0] - n_pos
            usable = (n_pos > 0) & (n_neg > 0)
            per_bin = (cfg.n_pos_per_object * n_pos + cfg.n_neg_per_object * n_neg)[usable].sum()
            self.items[scale] = int(per_bin) * scenario.n_bins
        self.out_path = workdir / "models.json"

    def run_op(self, index: int):
        scale = self.cycle[index % len(self.cycle)]
        seed = op_seed(self.seed, index)
        argv = ["calibrate", "--scenario", str(self.paths[scale]), "--out", str(self.out_path), "--seed", str(seed)]
        code, stdout = _quiet_main(argv)
        if code != 0:
            raise RuntimeError(f"calibrate exited with {code}")
        return self.items[scale], (scale, seed, self.out_path.read_bytes(), stdout)

    def output_bytes(self, output) -> bytes:
        return output[2] + output[3].encode()

    def check_op(self, index: int, output) -> list[str]:
        """Recount every reliable bin on the same training draws."""
        scale, seed, text, _ = output
        scenario = self.scenarios[scale]
        models = json.loads(text)["models"]
        training = simulator.draw_training_sets(scenario, simulator.derived_rng(seed, simulator.CALIBRATION_STREAM))
        errors = []
        for entry in models:
            i = scenario.catalog.attribute_index(entry["attribute"])
            lower = entry["orientation"] == "lower_is_positive"
            for rec in entry["bins"]:
                if not rec["reliable"]:
                    continue
                pos, neg = training[(i, rec["bin"])]
                if not lower:
                    pos, neg = -pos, -neg
                theta_pos = rec["theta_pos"] if lower else -rec["theta_pos"]
                theta_neg = rec["theta_neg"] if lower else -rec["theta_neg"]
                tp, fp = np.count_nonzero(pos <= theta_pos), np.count_nonzero(neg <= theta_pos)
                tn, fn = np.count_nonzero(neg >= theta_neg), np.count_nonzero(pos >= theta_neg)
                ppv = tp / (tp + fp) if tp + fp else 0.0
                npv = tn / (tn + fn) if tn + fn else 0.0
                if ppv < TARGET_PPV or npv < TARGET_NPV or tp / pos.size < MIN_DETECTION:
                    errors.append(
                        f"{entry['attribute']} bin {rec['bin']}: ppv {ppv:.4f}, npv {npv:.4f}, "
                        f"detection {tp / pos.size:.4f}"
                    )
        return errors

    def finish(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Theorems, Exp3Families, FuseStream, Calibrate)}
