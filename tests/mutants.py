"""Mutation check of the package: each single-site mutant must fail tier-1.

Run from anywhere, with the interpreter that runs the tests:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 3 17     # only these (their numbers in the report)

Each mutant is one text replacement in one file of src/rnlsim.  It is applied
to its own temporary copy of the repository, where tier-1 runs with
`-x -q -p no:cacheprovider` and a fixed Hypothesis seed, so a run kills the
same mutants every time.  A mutant that passes every test survives.  The
unmutated copy runs first: if it fails, no mutant result would mean anything.
A killed mutant's line ends with its killer, "by" the first FAILED or ERROR node
id of its run, or "(timed out)"; the last line gives the counts and wall time.

Exit status: 0 when every survivor is marked equivalent (with its reason), 1
when any other survives, 2 when the unmutated copy fails or a mutant's old
text does not occur exactly once in its file (the list is stale).  Standard
library only; the file has no test_ prefix, so tier-1 does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "--hypothesis-seed=0")
TIMEOUT_S = 600  # a mutant that hangs the suite counts as killed
COPY_IGNORE = shutil.ignore_patterns(".git", ".bench_build", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info")


class Mutant(NamedTuple):
    path: str  # relative to src/rnlsim
    old: str
    new: str
    equivalent: str | None = None  # "equivalent because ..." when no test can tell it apart


MUTANTS = (
    # --- rnl: the per-variant rule tables and predict ---------------------------
    Mutant(
        "rnl.py",
        "(_B11, _B21): _FLAT,\n    (_B11, _B22): _FLAT,\n    (_A11_21, _B21): _INTERMEDIATE,",
        "(_B11, _B21): _INTERMEDIATE,\n    (_B11, _B22): _FLAT,\n    (_A11_21, _B21): _FLAT,",
    ),
    Mutant(
        "rnl.py",
        "(_A11_22, _B22): _FINAL,\n    (_B11, _A22): _FINAL,\n    (_A11_22, _A22): _FLAT,",
        "(_A11_22, _B22): _FLAT,\n    (_B11, _A22): _FINAL,\n    (_A11_22, _A22): _FINAL,",
    ),
    Mutant(
        "rnl.py",
        "(_B11, _A22): _FINAL,\n    (_A11_22, _A22): _FLAT,\n    (_A11_21, _A22): _FLAT,",
        "(_B11, _A22): _FLAT,\n    (_A11_22, _A22): _FLAT,\n    (_A11_21, _A22): _FINAL,",
    ),
    Mutant("rnl.py", "(_A11_21, _B22): _FLAT,", "(_A11_21, _B22): _FINAL,"),
    Mutant("rnl.py", "(_B11, _B22): _FLAT,", "(_B11, _B22): _INTERMEDIATE,"),
    Mutant("rnl.py", "{**_STANDARD, (_A11_21, _A22): _FINAL}", "{**_STANDARD}"),
    Mutant("rnl.py", "{**_STANDARD, (_A11_21, _A22): _FINAL}", "{**_STANDARD, (_A11_22, _A22): _FINAL}"),
    Mutant(
        "rnl.py",
        "(lambda settings: 0.0, qm_single_pair_correlation, qm_correlation)",
        "(lambda settings: 0.0, lambda settings: qm_correlation(settings), qm_correlation)",
    ),
    Mutant("rnl.py", "(lambda settings: 0.0, qm_single", "(lambda settings: 1.0, qm_single"),
    Mutant(
        "rnl.py",
        "ModelVariant.QM: dict.fromkeys(_STANDARD, _FINAL),",
        "ModelVariant.QM: {**dict.fromkeys(_STANDARD, _FINAL), (_B11, _B22): _FLAT},",
    ),
    Mutant(
        "rnl.py",
        "(condition1 if stage is _INTERMEDIATE else condition2)",
        "(condition2 if stage is _INTERMEDIATE else condition1)",
    ),
    Mutant("rnl.py", "if stage is _FLAT or not (", "if not ("),
    Mutant("rnl.py", "return self.joint.correlation", "return round(self.joint.correlation, 12)"),
    Mutant("rnl.py", "if not isinstance(settings, PhaseSettings):", "if settings is None:"),
    # --- report: verdicts and streams -------------------------------------------
    Mutant("report.py", "VERDICT_SIGMA = 6.0", "VERDICT_SIGMA = 5.0"),
    Mutant("report.py", "stderr = max(correlation_stderr(", "stderr = min(correlation_stderr("),
    Mutant("report.py", "n = config.n_events\n", "n = config.n_events - 1\n"),
    Mutant("report.py", "return self.separation > self.threshold", "return self.separation >= self.threshold"),
    Mutant("report.py", "separation=abs(row_a.e_analytic - row_b.e_analytic)", "separation=row_a.e_analytic - row_b.e_analytic"),
    Mutant("report.py", "for index, variant in enumerate(ModelVariant)}", "for index, variant in enumerate(ModelVariant, 1)}"),
    # --- montecarlo: estimator, stream keys, run size ---------------------------
    Mutant("montecarlo.py", "1.0 - e * e) / n)", "1.0 - e * e) / (n - 1))"),
    Mutant("montecarlo.py", "counts.r_pp - counts.r_pm - counts.r_mp + counts.r_mm", "counts.r_pp - counts.r_pm + counts.r_mp - counts.r_mm"),
    Mutant("montecarlo.py", "if n < 1:", "if n < 0:"),
    Mutant("montecarlo.py", '"key": (seed, variant_index)', '"key": (variant_index, seed)'),
    Mutant("montecarlo.py", '"counter": (0, 0, 0, 0)', '"counter": (0, 0, 0, 1)'),
    Mutant("montecarlo.py", '"buffer_pos": 4', '"buffer_pos": 0'),
    Mutant("montecarlo.py", "    with lock:\n", "    if True:\n"),
    Mutant("montecarlo.py", "MAX_EVENTS = 2**63 - 1", "MAX_EVENTS = 2**64 - 1"),
    Mutant("montecarlo.py", "for cell, q in enumerate(table) if q]", "for cell, q in enumerate(table)]"),
    Mutant("montecarlo.py", "p = [table[cell] / total for cell in cells]", "p = [table[cell] for cell in cells]"),
    # --- quantum: closed forms, the oracle and the probability tolerance --------
    Mutant("quantum.py", "PROB_ATOL = 1e-12", "PROB_ATOL = 1e-9"),
    Mutant("quantum.py", "if p < 0.0:", "if p < -PROB_ATOL:"),
    Mutant("quantum.py", "same, differ = 0.25 + e / 4.0, 0.25 - e / 4.0", "same, differ = 0.25 - e / 4.0, 0.25 + e / 4.0"),
    Mutant(
        "quantum.py",
        "math.cos(delta - settings.phi22) - math.cos(delta + settings.phi22)",
        "math.cos(delta + settings.phi22) - math.cos(delta - settings.phi22)",
    ),
    Mutant("quantum.py", "return math.cos(settings.phi11 - settings.phi21)", "return math.sin(settings.phi11 - settings.phi21)"),
    Mutant("quantum.py", "return math.cos(settings.phi11 - settings.phi21)", "return math.cos(settings.phi11 - settings.phi22)"),
    Mutant("quantum.py", "(upper + 1j * lower) / math.sqrt(2.0)", "(upper - 1j * lower) / math.sqrt(2.0)"),
    Mutant("quantum.py", "bs21 = _splitter(upper, phase21 * lower)", "bs21 = _splitter(phase21 * upper, lower)"),
    Mutant("quantum.py", "from .errors import require_finite", "import numpy as np\n\nfrom .errors import require_finite"),
    # --- timing: guard band, gaps, labels and the series table; report's series --
    Mutant("timing.py", "GUARD_BAND_S = 1e-15", "GUARD_BAND_S = 1e-14"),
    Mutant("timing.py", "if not abs(gap) >= GUARD_BAND_S:", "if not abs(gap) > GUARD_BAND_S:"),
    Mutant("timing.py", "if not self.length_bs22 > self.length_bs21:", "if not self.length_bs22 >= self.length_bs21:"),
    Mutant("timing.py", "g11 * (t21 * (1.0 - beta11)", "g11 * (t21 * (1.0 + beta11)"),
    Mutant("timing.py", "g22 * (t11 * (1.0 + beta22)", "g22 * (t11 * (1.0 - beta22)"),
    Mutant("timing.py", "g11, g21, g22 = ((1.0 - beta * beta) ** -0.5 for", "g11, g21, g22 = (1.0 for"),
    Mutant("timing.py", "t22 * (1.0 - beta22)", "t22 * (1.0 - beta21)"),
    Mutant("timing.py", "g21 * (t11 * (1.0 + beta21)", "g11 * (t11 * (1.0 + beta21)"),
    Mutant("timing.py", "if not -1.0 < beta < 1.0:", "if not -1.0 <= beta < 1.0:"),
    # Only the observer-frame property draws a beta beyond 0.99: its moving frames' betas reach 0.9945.
    Mutant("timing.py", "if not -1.0 < beta < 1.0:", "if not -0.99 <= beta <= 0.99:"),
    # Only the length-scale property draws a length below 1e-9 m: it scales lengths down by up to 2^30.
    Mutant("timing.py", 'if value <= 0.0 and name != "m11_displacement":', 'if value <= 1e-9 and name != "m11_displacement":'),
    Mutant("timing.py", "{classify(geometry).pairing: series for", "{classify(geometry).pairing: max(series, 2) for"),
    Mutant("timing.py", "label1 = PhotonOneLabel.A11_21", "label1 = PhotonOneLabel.A11_22"),
    Mutant(
        "report.py",
        "return (geometry.beta_bs11, geometry.beta_bs21, geometry.beta_bs22) == (0.0, 0.0, 0.0)",
        "return geometry.beta_bs11 == 0.0",
    ),
    Mutant("timing.py", "elif _strictly_before(lead_11_22,", "elif _strictly_before(-lead_22_11,"),
    Mutant("timing.py", "bs21_before = _strictly_before(lead_21_11,", "bs21_before = _strictly_before(-lead_11_21,"),
    Mutant("timing.py", "bs22_before = bs21_before and _strictly_before(", "bs22_before = _strictly_before("),
    # A near-tie in BS21's or BS22's frame guessed, not refused; a refusal in BS21's frame naming BS11's comparison.
    Mutant("timing.py", 'bs21_before = _strictly_before(lead_21_11, "BS21 vs BS11 in the BS21 frame")', "bs21_before = lead_21_11 > 0.0"),
    Mutant(
        "timing.py",
        'bs22_before = bs21_before and _strictly_before(lead_22_11, "BS22 vs BS11 in the BS22 frame")',
        "bs22_before = bs21_before and lead_22_11 > 0.0",
    ),
    Mutant("timing.py", '"BS21 vs BS11 in the BS21 frame"', '"BS11 vs BS21 in the BS11 frame"'),
    Mutant("report.py", "SERIES_BY_PAIRING.get(timing.pairing) if _at_rest", "SERIES_BY_PAIRING.get(timing.pairing) if True or _at_rest"),
    Mutant(
        "timing.py",
        "if not isinstance(self.label1, PhotonOneLabel) or not isinstance(self.label2, PhotonTwoLabel):",
        "if False:",
    ),
    # --- config: value parsers, file format and run checks ----------------------
    Mutant("config.py", 'in ("true", "1", "yes", "on")', 'in ("true", "1", "yes")'),
    Mutant("config.py", "return float(text)\n    except ValueError:", "return float(text)\n    except TypeError:"),
    Mutant("config.py", "if not self.variants:", "if False:"),
    Mutant("config.py", "if unknown:", "if False:"),
    Mutant("config.py", "if not isinstance(geometry, ExperimentGeometry):", "if False:"),
    Mutant("config.py", "variant = by_name.get(name.lower())", "variant = by_name.get(name)"),
    Mutant("config.py", 'data.decode("utf-8-sig")', 'data.decode("utf-8")'),
    Mutant("config.py", "data = file.read(MAX_CONFIG_BYTES + 1)", "data = file.read()"),
    Mutant("config.py", "if len(data) > MAX_CONFIG_BYTES:", "if len(data) >= MAX_CONFIG_BYTES:"),
    Mutant("config.py", "raw = raw.strip()", "raw = raw"),
    Mutant("config.py", 'stripped = line.partition("#")[0].strip()', "stripped = line.strip()"),
    Mutant("config.py", 'stripped = line.partition("#")[0].strip()', 'stripped = line.partition(" #")[0].strip()'),
    Mutant("config.py", "if key in values:", "if key in ():"),
    Mutant("config.py", "if length_keys and len(length_keys) < len(_GEOMETRY_LENGTH_KEYS):", "if len(length_keys) == 1:"),
    Mutant("config.py", 'if "m11_displacement" in values and not length_keys:', 'if "m11_displacement" in values and not values:'),
    Mutant("config.py", 'require_int("seed", self.seed, 0, MAX_KEY_WORD)', 'require_int("seed", self.seed, 1, MAX_KEY_WORD)'),
    Mutant("config.py", 'for name in ("phi11_deg", "phi21_deg", "phi22_deg"):', 'for name in ("phi21_deg", "phi22_deg"):'),
    Mutant("config.py", 'object.__setattr__(self, "seed", require_int("seed", self.seed, 0, MAX_KEY_WORD))', 'require_int("seed", self.seed, 0, MAX_KEY_WORD)'),
    Mutant("config.py", "if len(set(self.variants)) != len(self.variants):", "if len(set(self.variants)) > len(self.variants):"),
    Mutant("config.py", "if not isinstance(self.variants, tuple) or {type", "if {type"),
    Mutant("config.py", " or {type(v) for v in self.variants} - {ModelVariant}:", ":"),
    Mutant("config.py", "else series_preset(self.series)", "else series_preset(3)"),
    Mutant("config.py", "return self._geometry", "return self.geometry or series_preset(self.series)"),
    Mutant(
        "config.py",
        "PhaseSettings.from_degrees(self.phi11_deg, self.phi21_deg, self.phi22_deg)",
        "PhaseSettings.from_degrees(self.phi11_deg, self.phi11_deg, self.phi22_deg)",
    ),
    # --- cli: flag values, exit codes and the error path ------------------------
    Mutant("cli.py", "EXIT_AMBIGUOUS = 3", "EXIT_AMBIGUOUS = 2"),
    Mutant("cli.py", "values[key] = KEY_TABLE[key][0](key, text)", "values.setdefault(key, KEY_TABLE[key][0](key, text))"),
    Mutant("cli.py", 'glued[-1] += "=" + token', 'glued.append(token)'),
    Mutant("cli.py", 'and not token.startswith("--"):', 'and not token.startswith("-"):'),
    Mutant("cli.py", 'and not token.startswith("--"):', ":"),
    Mutant("cli.py", "except (ConfigError, OSError) as exc:", "except (ValueError, OSError) as exc:"),
    Mutant("cli.py", "except (ConfigError, OSError) as exc:", "except ConfigError as exc:"),
    Mutant("cli.py", "raise ConfigError(message)", "super().error(message)"),
    Mutant("cli.py", "allow_abbrev=False,", ""),
    # --out and --config left to argparse, which takes -r.csv and -c.cfg for flags; then --format.
    Mutant("cli.py", '_VALUE_FLAGS = {"--config", "--out", "--format", *_KEY_FLAGS}', '_VALUE_FLAGS = {"--format", *_KEY_FLAGS}'),
    Mutant("cli.py", '_VALUE_FLAGS = {"--config", "--out", "--format", *_KEY_FLAGS}', '_VALUE_FLAGS = {"--config", "--out", *_KEY_FLAGS}'),
    # --- errors: the one copy of each input check --------------------------------
    Mutant("errors.py", "if isinstance(value, bool) or not isinstance(value, numbers.Real):", "if not isinstance(value, numbers.Real):"),
    Mutant("errors.py", "if isinstance(value, bool) or not isinstance(value, numbers.Integral):", "if not isinstance(value, numbers.Integral):"),
    Mutant("errors.py", "if not low <= value <= high:", "if not low < value <= high:"),
    Mutant("errors.py", "if not low <= value <= high:", "if not low <= value < high:"),
    Mutant("errors.py", "value = float(value)", "value = value"),
    Mutant("errors.py", "value = int(value)", "value = value"),
    Mutant("errors.py", "if value is not True and value is not False:", "if not isinstance(value, int):"),
    Mutant("errors.py", "if not math.isfinite(value):", "if math.isnan(value):"),
    # --- report: the table header and the printed series ------------------------
    Mutant("report.py", "if not _at_rest(geometry):", "if False:"),
    Mutant("report.py", "_series(config.resolve_geometry(), report.timing),", "SERIES_BY_PAIRING.get(report.timing.pairing),"),
    Mutant(
        "report.py",
        "return (geometry.beta_bs11, geometry.beta_bs21, geometry.beta_bs22) == (0.0, 0.0, 0.0)",
        "return (geometry.beta_bs11, geometry.beta_bs21) == (0.0, 0.0)",
    ),
    # --- timing: the presets, which the series table is read from ---------------
    Mutant("timing.py", "(1, 2.0), (2, -1.5)", "(1, -1.5), (2, 2.0)"),
    # --- quantum: phases in degrees, reduced exactly mod 360 ---------------------
    Mutant(
        "quantum.py",
        "math.radians(math.fmod(require_finite(name, value), 360.0))",
        "math.radians(require_finite(name, value))",
    ),
)


def _summary(text: str, width: int = 48) -> str:
    flat = " ".join(text.split())
    return flat if len(flat) <= width else flat[: width - 3] + "..."


def _killer(result: subprocess.CompletedProcess | None) -> str:
    """How a failed -x run killed its mutant: by the first FAILED or ERROR node id of its summary, or (timed out)."""
    lines = [] if result is None else result.stdout.splitlines()
    failed = (line.partition(" ")[2].split(" - ", 1)[0] for line in lines if line.startswith(("FAILED ", "ERROR ")))
    return "(timed out)" if result is None else "by " + next(failed, f"exit status {result.returncode}")


def _tier1(mutant: Mutant | None) -> subprocess.CompletedProcess | None:
    """Tier-1 in a fresh copy of the repository, mutated when a mutant is given; None on timeout."""
    with tempfile.TemporaryDirectory(prefix="rnlsim-mutant-") as scratch:
        repo = Path(scratch) / "repo"
        shutil.copytree(ROOT, repo, ignore=COPY_IGNORE)
        if mutant is not None:
            target = repo / "src" / "rnlsim" / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
        try:
            return subprocess.run(
                [sys.executable, *TIER1], cwd=repo, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return None


def main(argv: list[str]) -> int:
    started = time.monotonic()
    numbered = dict(enumerate(MUTANTS, 1))
    mutants = {int(arg): numbered[int(arg)] for arg in argv} or numbered
    stale = [
        number
        for number, mutant in mutants.items()
        if (ROOT / "src" / "rnlsim" / mutant.path).read_text().count(mutant.old) != 1
    ]
    if stale:
        print(f"stale mutants (old text not found exactly once): {stale}")
        return 2
    baseline = _tier1(None)
    if baseline is None or baseline.returncode != 0:
        print("the unmutated copy fails tier-1:")
        print(baseline.stdout[-4000:] if baseline is not None else f"timed out after {TIMEOUT_S} s")
        return 2
    survivors = []
    for number, mutant in mutants.items():
        result = _tier1(mutant)
        if result is None or result.returncode != 0:
            status, killer = "killed", f" {_killer(result)}"
        else:
            status, killer = ("equivalent" if mutant.equivalent else "SURVIVED"), ""
            survivors.append((number, mutant))
        change = f"{mutant.path}: {_summary(mutant.old)} -> {_summary(mutant.new)}"
        print(f"{number:3d} {status:<10} {change}{killer}", flush=True)
    unexplained = [number for number, mutant in survivors if not mutant.equivalent]
    for number, mutant in survivors:
        print(f"survivor {number}: {mutant.path}: {mutant.old!r} -> {mutant.new!r}")
        if mutant.equivalent:
            print(f"  equivalent because {mutant.equivalent}")
    minutes, seconds = divmod(round(time.monotonic() - started), 60)
    print(
        f"{len(mutants)} mutants, {len(mutants) - len(survivors)} killed, {len(survivors)} survived, "
        f"{len(unexplained)} unexplained, in {minutes} min {seconds} s of wall time"
    )
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
