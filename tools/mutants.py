"""Mutation check of the tier-1 suite: plant one textual fault at a time and
report whether the tests notice.

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py M1 M14       # the named ones
    python3 tools/mutants.py --list       # names and sites, no test run

Each mutant replaces one old text by a new text in one package file.  The
old text must occur exactly once in that file, or the mutant is refused
(its site has moved, and the entry needs updating).  The working tree is
copied once to a temporary directory; each mutant is written into the copy,
tier-1 runs there with -x, and the copy's file is restored.  The working
tree itself is never written.

A mutant is killed when tier-1 fails (or exceeds the timeout) and survives
when it passes.  A survivor marked `equivalent` carries a proof that no
input tells it apart from the original code; any other survivor is a hole
in the tests.  One line per mutant gives the verdict, the seconds and the
first failing test; the last line of standard output is the JSON record.
A baseline run of the unmutated copy comes first and must pass.

The tool is outside tier-1: a full run takes about as many tier-1 runs as
there are mutants.  A change that adds a check adds its mutant here.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str       # relative to src/zetterberg
    old: str
    new: str
    equivalent: str | None = None


MUTANTS = [
    # -- _bulk: criterion scan, orbits and class oracle
    Mutant("M1", "_bulk.py", "signs = 1 - 2 * (j & 1)", "signs = 1 - 2 * (j & 0)"),
    Mutant("M2", "_bulk.py", "smallest = j <= t", "smallest = j < t"),
    Mutant("M3", "_bulk.py", "t, i = _times_p(j, p, d), 1", "t, i = _times_p(j, p, d), 2"),
    Mutant("M7", "_bulk.py", "if hit.all():", "if False:"),
    Mutant("M8", "_bulk.py", "y[:, :, 0] = 1 - y[:, :, 0]", "y[:, :, 0] = y[:, :, 0]"),
    Mutant("M9", "_bulk.py", "ok = t_zero | self.trace_one", "ok = self.trace_one"),
    Mutant("M11", "_bulk.py", "max(1 << 8, n1 >> 9)", "max(1 << 1, n1 >> 9)"),
    Mutant("M12", "_bulk.py", "count += n1 // d * int(", "count += int("),
    Mutant("B1", "_bulk.py", "t -= t // d * d", "t -= t // d * (d - 1)"),
    Mutant("B2", "_bulk.py", "cur = cur[passes(cur, t, t + width).all(axis=1)]",
           "cur = cur[passes(cur, t, t + width).any(axis=1)]"),
    Mutant("B3", "_bulk.py", "((a + m4 + u) % 2 == 1)", "((a + m4 + u) % 2 == 0)"),
    Mutant("B4", "_bulk.py", "rows = np.flatnonzero(layer[row_class] == level - 1)",
           "rows = np.flatnonzero(layer[row_class] == level)"),
    Mutant("B5", "_bulk.py", "    for _ in range(k - 1):\n        t = _times_p(t, p, d)",
           "    for _ in range(k - 2):\n        t = _times_p(t, p, d)"),
    Mutant("B6", "_bulk.py", "exp[rows[:, 0] == ctx.p - 1] -= ctx.p",
           "exp[rows[:, 0] == ctx.p - 1] -= ctx.p - 1"),
    # -- radius: dispatcher, caps and shortcut rules
    Mutant("M14", "radius.py", "if len(rhos) != 1:", "if len(rhos) > 2:"),
    Mutant("R1", "radius.py", 'if strategy == "auto":', 'if strategy == "none":'),
    Mutant("R2", "radius.py", "power_exceeds(q0, 2 * s, caps.oracle_cap)",
           "power_exceeds(q0, s, caps.oracle_cap)"),
    Mutant("R3", "radius.py", "power_exceeds(q0, s, caps.criterion_order_cap)",
           "power_exceeds(q0, s - 1, caps.criterion_order_cap)"),
    Mutant("R4", "radius.py", "if s <= (thresholds.s_star_lower_even(q0) or 0):",
           "if s < (thresholds.s_star_lower_even(q0) or 0):"),
    Mutant("R5", "radius.py", "if s >= thresholds.s_star_upper_odd(q0):",
           "if s > thresholds.s_star_upper_odd(q0):"),
    Mutant("R6", "radius.py", "ctx.pow(ctx.xi, (ctx.q + 1) // 2)",
           "ctx.pow(ctx.xi, (ctx.q - 1) // 2)"),
    # -- code: shapes, formula, codewords and positions
    Mutant("M6", "code.py", "return 5 if s % 2 == 0 else 3", "return 5 if s % 2 == 0 else 4"),
    Mutant("M13", "code.py", "t, c = t - code.length, code.ctx.neg(c)",
           "t, c = t - code.length, c"),
    Mutant("C1", "code.py", "for _ in range(self.length - 1):",
           "for _ in range(self.length - 2):"),
    Mutant("C2", "code.py", "return length, length - 2 * s", "return length, length - 2 * s + 1"),
    Mutant("C3", "code.py", "n = math.isqrt(order - 1) + 1", "n = math.isqrt(order - 1)"),
    Mutant("C4", "code.py", "return i * n + j", "return i * n + j + 1"),
    # -- thresholds
    Mutant("M5", "thresholds.py", "lhs * lhs > B * B * q0**s", "lhs * lhs >= B * B * q0**s",
           equivalent="_holds's docstring: lhs^2 = B^2 q0^s has no solution at "
                      "any threshold's (q0, odd s, B, C)"),
    Mutant("M10", "thresholds.py", "return half - 1 if half % 2 == 0 else half",
           "return half"),
    Mutant("T1", "thresholds.py", "B = (m - 3) * 2 ** (m - 1) + 2",
           "B = (m - 3) * 2 ** (m - 1) + 3",
           equivalent="bounded, not proved: s_* is unchanged at every odd prime power "
                      "q0 <= 20,000 (all 2,314 checked); B + 1 moves s_* only where "
                      "x - C/x lies in (B, B + 1] for x = q0^(s_*/2)"),
    Mutant("T2", "thresholds.py", "return list(range(low + 2, upper, 2))",
           "return list(range(low + 2, upper + 1, 2))"),
    # -- caps
    Mutant("K1", "caps.py", "or base**e > cap", "or base**e >= cap"),
    Mutant("K2", "caps.py", "return e >= cap.bit_length() or",
           "return e >= cap.bit_length() - 1 or"),
    Mutant("K3", "caps.py", "if overrides[key] <= 0:", "if overrides[key] < 0:"),
    # -- gf: long division, resultant, Ben-Or and the generator scan
    Mutant("G1", "gf.py", "if _poly_res(f, g, p) == 0:", "if _poly_res(f, g, p) != 0:"),
    Mutant("G2", "gf.py", "for _ in range((len(f) - 1) // 2):",
           "for _ in range((len(f) - 1) // 2 - 1):"),
    Mutant("G3", "gf.py", "if du * (len(v) - 1) % 2:", "if du * len(v) % 2:"),
    Mutant("G4", "gf.py", "inv_lead = pow(b[-1], p - 2, p)", "inv_lead = pow(b[-1], p - 1, p)"),
    Mutant("G5", "gf.py", "c = pow(r1[0], p - 2, p)", "c = 1"),
    Mutant("G6", "gf.py", "if x in (1, n - 1):", "if x == 1:"),
    Mutant("G7", "gf.py", "if any(pow(norm, e, p) == 1 for e in norm_exps):",
           "if all(pow(norm, e, p) == 1 for e in norm_exps):"),
]


def _site(m: Mutant) -> Path:
    return Path("src") / "zetterberg" / m.path


def refused(m: Mutant, root: Path = ROOT) -> str | None:
    """Why the mutant cannot be applied, or None."""
    n = (root / _site(m)).read_text().count(m.old)
    return None if n == 1 else f"old text occurs {n} times in {_site(m)}"


def run_tier1(copy: Path) -> tuple[bool, str | None, float]:
    """(passed, first failing test, seconds) of tier-1 with -x in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    try:
        r = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True,
                           timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s", time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    if r.returncode == 0:
        return True, None, seconds
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", r.stdout, re.M)
    return False, first.group(1) if first else f"exit {r.returncode}", seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = ap.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or MUTANTS
    if args.list:
        for m in chosen:
            print(f"{m.name:4} {m.path:14} {m.old!r} -> {m.new!r}  {refused(m) or ''}")
        return 0
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "out", "*.egg-info"))
        passed, first, seconds = run_tier1(copy)
        print(f"baseline {'passed' if passed else 'FAILED'} {seconds:6.1f} s {first or ''}",
              flush=True)
        if not passed:
            return 1
        for m in chosen:
            why = refused(m, copy)
            if why:
                verdict, first, seconds = "refused", why, 0.0
            else:
                site = copy / _site(m)
                original = site.read_text()
                site.write_text(original.replace(m.old, m.new))
                try:
                    passed, first, seconds = run_tier1(copy)
                finally:
                    site.write_text(original)
                verdict = ("killed" if not passed else
                           "equivalent" if m.equivalent else "survived")
            results.append({"mutant": m.name, "file": m.path, "verdict": verdict,
                            "first_failure": first, "seconds": round(seconds, 1)})
            print(f"{m.name:4} {verdict:10} {seconds:6.1f} s  {first or m.equivalent or ''}",
                  flush=True)
    counts = {v: sum(r["verdict"] == v for r in results)
              for v in ("killed", "equivalent", "survived", "refused")}
    print(json.dumps({"counts": counts, "mutants": results}))
    return 0 if counts["survived"] == counts["refused"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
