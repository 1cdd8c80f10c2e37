"""Regenerate EXPERIMENTS.md: rerun every figure, theorem and pass-cost
campaign, then stitch the tables into the paper-vs-measured record.

Each section's command (``python -m repro figure ...`` or
``python scripts/pass_cost.py``) runs with ``--out`` pointing at its
table under ``benchmarks/out/``; the script stops at the first command
that exits non-zero.

Usage: python scripts/make_experiments_md.py
"""

from __future__ import annotations

import os
import pathlib
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"

SECTIONS: list[tuple[str, str, str, str]] = [
    # (output file stem, heading, paper says, command that regenerates it)
    ("fig08_access_times", "Figure 8 — object access times r and s",
     "r is significantly larger than s; r increases with the number of "
     "shared objects accessed (it includes lock-based RUA's resource "
     "sharing mechanism); s is a few microseconds and flat.  Measured on "
     "a 500 MHz Pentium-III / QNX, ~2000 samples per point, 95% CIs.",
     "python -m repro figure fig8"),
    ("fig09_cml", "Figure 9 — Critical-time-Miss Load",
     "Ideal RUA reaches CML 1 only at ≈10 µs average execution time "
     "(scheduling overhead); lock-free RUA is almost identical to ideal; "
     "lock-based RUA's CML converges to 1 only at ≈1 ms, because of its "
     "complex lock-contention resolution and higher asymptotic cost.",
     "python -m repro figure fig9"),
    ("fig10_underload_step", "Figure 10 — underload, step TUFs",
     "AL ≈ 0.4: lock-free RUA achieves almost 100% AUR and CMR at every "
     "object count; lock-based degrades as objects increase.",
     "python -m repro figure fig10"),
    ("fig11_underload_hetero", "Figure 11 — underload, heterogeneous TUFs",
     "Same trends as Figure 10 with step+parabolic+linear-decreasing "
     "TUF mix.",
     "python -m repro figure fig11"),
    ("fig12_overload_step", "Figure 12 — overload, step TUFs",
     "AL ≈ 1.1: lock-based RUA's AUR and CMR sharply decrease, eventually "
     "reaching 0% as the number of objects increases; lock-free achieves "
     "higher AUR by as much as ≈65% and higher CMR by as much as ≈80%.",
     "python -m repro figure fig12 --repeats 4"),
    ("fig13_overload_hetero", "Figure 13 — overload, heterogeneous TUFs",
     "Same collapse/hold pattern as Figure 12 under the heterogeneous "
     "TUF class.",
     "python -m repro figure fig13 --repeats 4"),
    ("fig14_readers", "Figure 14 — increasing readers",
     "Increasing reader-task count (AL 0.1–1.1), heterogeneous TUFs: "
     "exact same trends — lock-free RUA superior to lock-based "
     "throughout.",
     "python -m repro figure fig14"),
    ("thm2_retry_bound", "Theorem 2 — lock-free retry bound",
     "f_i ≤ 3a_i + Σ 2a_j(⌈C_i/W_j⌉+1): the first retry bound under a "
     "non-periodic arrival model; implementation measurements validate "
     "the analytical results.",
     "python -m repro figure thm2 --repeats 4 --horizon-ms 300"),
    ("thm3_sojourn", "Theorem 3 — sojourn-time crossover",
     "Lock-free yields shorter maximum sojourn times when s/r is below "
     "the stated thresholds (2/3 when m_i ≤ n_i); s is much smaller than "
     "r in practice, making lock-free attractive for UA scheduling.",
     "python -m repro figure thm3"),
    ("lemma45_aur_bounds", "Lemmas 4 and 5 — AUR bounds",
     "For feasible jobs with non-increasing TUFs the long-run AUR of "
     "each sharing style lies between the stated lower and upper bounds.",
     "python -m repro figure lemma45 --repeats 4 --horizon-ms 200"),
    ("scheduler_pass_cost", "Section 3.6 — wall-clock pass cost against n",
     "A lock-based RUA pass costs O(n² log n), dominated by tentative "
     "schedule construction over dependency chains; with lock-free "
     "sharing the chains vanish and a pass costs O(n²) (Section 5).  "
     "Here: wall ns per pass of the Python implementations, fast path "
     "and REPRO_NO_FASTPATH=1 reference, with the fitted log-log slope "
     "(2 for n², about 2.3 for n² log n over n = 8–128), and the gate "
     "the script exits on: the fast path at least 3x the reference at "
     "n = 64 and 96, lock-free and lock-based with locks held but no "
     "dependency edge.",
     "python scripts/pass_cost.py"),
    ("ablation_retry_policy", "Ablation — retry policy (beyond the paper)",
     "(No paper counterpart.)  Quantifies the slack between the "
     "conservative ON_PREEMPTION accounting used by Theorem 2's proof "
     "and the realistic ON_CONFLICT retry rule.",
     "python -m repro figure ablation --horizon-ms 200"),
]

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every figure of the paper's evaluation (Section 6) and every analytical
result, regenerated by `python -m repro figure` and `scripts/pass_cost.py`.
Absolute numbers are not expected to match the paper (its substrate was a
500 MHz Pentium-III under QNX Neutrino; ours is a calibrated
discrete-event simulator — see DESIGN.md §2) — the *shape* is the
reproduction target: who wins, by roughly what factor, and where the
knees fall.

Regenerate everything (also refreshes `benchmarks/out/`), from the
repository root with `PYTHONPATH=src` (or after `pip install -e .`):

    python scripts/make_experiments_md.py

Each section's command below regenerates its table alone (add
`--out FILE` to save it).  `tests/experiments/test_paper_shapes.py`
asserts the paper's shape on the same campaigns.

Caveats and known deviations:

* **Theorem 3, Case 1 threshold.**  The paper states `s/r < 2/3` suffices
  when `m_i <= n_i`, but its proof substitutes `X` by the worst case
  `2r(2a_i + x_i)` before solving; for small `m_i` the exact condition
  from the same proof is `s/r < 2 m_i / (m_i + 3 a_i + 2 x_i)`, which can
  be far below 2/3.  The library exposes both
  (`lockfree_wins_ratio_threshold` = paper statement,
  `exact_ratio_threshold` = proof-exact); predictions use the exact one,
  and the property test `test_theorem3_soundness_property` verifies its
  sufficiency over random parameters.
* **Retry-inducing workload (Theorem 2).**  Under a homogeneous
  task set, ECF-ordered dispatch almost never preempts (new arrivals
  have later critical times than the running job), so measured retries
  are trivially zero.  The campaign therefore uses an interference
  workload (long-access victims + short-critical-time bursty interferers) that
  actually exercises mid-access preemption; the bound holds with real
  slack rather than vacuously.
* CML can slightly exceed 1.0 because the paper's AL uses critical times
  (`AL = Σ u_i / C_i`) while schedulability is governed by windows
  (`C_i <= W_i`), leaving a small structural margin.
"""


def main() -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    parts = [HEADER]
    for stem, heading, paper_says, regen in SECTIONS:
        path = OUT / f"{stem}.txt"
        print(f"{regen} --out {path.relative_to(ROOT)}", flush=True)
        subprocess.run([sys.executable, *shlex.split(regen)[1:],
                        "--out", str(path)], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        parts.append(f"\n## {heading}\n")
        parts.append(f"**Paper:** {paper_says}\n")
        parts.append(f"**Regenerate:** `{regen}`\n")
        parts.append("**Measured:**\n")
        parts.append("```")
        parts.append(path.read_text().rstrip())
        parts.append("```")
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts) + "\n")
    print(f"wrote EXPERIMENTS.md ({len(SECTIONS)} sections)")


if __name__ == "__main__":
    main()
