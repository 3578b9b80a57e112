"""The command-line contract as a committed artefact.

Runs ``repro`` in-process on three sets of argv:

* every flow of the verify notes (``.claude/skills/verify/SKILL.md``) at
  small sizes: runs with scripted, random and correlated kills, the parity
  and disk tiers, checkpoint-free recovery, transient faults, the sweeps,
  chaos campaigns and service streams;
* every usage-error argv of ``tests/test_cli.py``;
* misconfigurations that once escaped as a traceback or ran silently.

Per argv it records the exit code, the sha256 (first 16 hex) of stdout and
the first line of stderr (``-`` when empty).  Everything the CLI prints is
virtual time, so the file is a pure function of the code under ``src/``:
``results/cli_flows.txt``, diffed by CI's ``artifacts-reproducible``.  A
refactor that claims to leave the CLI alone leaves it byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback

from _common import emit, results_path
from repro.cli import main

SMALL = "--places 4 --iterations 4"
PARITY_RUN = (
    "run {app} --places 9 --spares 2 --iterations 12 --ckpt-interval 3 --fail-at 5 "
    "--victim 3 --fail-at 9 --victim 6 --placement {placement} --replicas 1 --mode {mode}"
)
CG_RECONSTRUCT = (
    "run cg --places 6 --iterations 12 --ckpt-interval 4 --fail-at 6 --victim 2 "
    "--fail-at 6 --victim 3 --replicas 2 --placement spread --spares 2 "
    "--mode replace-redundant"
)
LADDER = "run linreg --places 6 --iterations 8 --ckpt-interval 3 --fail-at 5 --victim 2 --fail-at 5 --victim 3"

FLOWS = [
    "list",
    f"{CG_RECONSTRUCT} --recovery reconstruct",
    CG_RECONSTRUCT,
    "chaos cg --recovery reconstruct --spares 6 --schedules 10",
    "chaos cg --recovery reconstruct --spares 2 --schedules 10 --chaos-seed 13",
    "chaos cg --recovery reconstruct --spares 2 --schedules 10 --chaos-seed 99",
    "run linreg --places 8 --iterations 12 --ckpt-interval 4",
    "run linreg --places 8 --iterations 12 --ckpt-interval 4 --ckpt-mode overlapped",
    "run linreg --places 4 --iterations 8 --ckpt-interval 4 --fail-at 5 --victim 2",
    "run linreg --places 4 --iterations 6 --fail-at 5",
    "run linreg --places 4 --iterations 8 --ckpt-interval 4 --trace-out t.jsonl",
    "run linreg --places 4 --iterations 8 --ckpt-interval 4 --fail-at 5 --victim 2 "
    "--trace-out t.jsonl",
    "sweep overlap --max-places 8 --iterations 8 --jobs 1",
    LADDER,
    f"{LADDER} --replicas 2 --placement spread",
    f"{LADDER} --stable-fallback",
    "chaos linreg --schedules 10 --replicas 2 --placement spread",
    "serve --jobs-count 12 --crash-rate 0.5 --pair-rate 0.05 --per-job",
    PARITY_RUN.format(app="linreg", placement="parity:2", mode="replace-redundant"),
    PARITY_RUN.format(app="linreg", placement="parity:4", mode="replace-redundant"),
    PARITY_RUN.format(app="linreg", placement="parity:2", mode="replace-redundant")
    + " --ckpt-delta",
    PARITY_RUN.format(app="linreg", placement="parity:2", mode="shrink"),
    PARITY_RUN.format(app="pagerank", placement="parity:2", mode="replace-redundant"),
    "run linreg --places 6 --iterations 8 --ckpt-interval 3 --mttf 20 --chaos-seed 3",
    "run linreg --places 4 --iterations 8 --ckpt-interval 3 --drop-rate 0.05 "
    "--dup-rate 0.02 --delay-rate 0.1 --delay-seconds 0.01 --straggler 2:4 --corrupt 0.1 "
    "--detect-timeout 1 --heartbeat-interval 0.1 --chaos-seed 5",
    "run pagerank --places 3 --iterations 3 --non-resilient --profile --timeline",
    "run linreg --places 4 --iterations 12 --fail-at 6 --victim 2 --profile --timeline",
    "run pagerank --places 4 --iterations 6 --ckpt-interval 3 --fail-at 4 --victim 1 "
    "--mode replace-redundant --spares 1",
    f"run linreg {SMALL} --spares 1 --fail-at 3 --victim 4",
    "sweep fig2 --max-places 4 --iterations 2 --jobs 1",
    "sweep table3 --max-places 4 --iterations 4 --jobs 1",
    "sweep fig7 --max-places 4 --iterations 16 --jobs 1",
    "sweep table4 --max-places 4 --iterations 16 --jobs 1",
    "chaos linreg --schedules 6 --ckpt-delta --jobs 2",
    "chaos pagerank --schedules 5 --chaos-seed 4 --replicas 1 --placement ring "
    "--stable-fallback",
    "chaos linreg --placement parity:2 --spares 2 --schedules 6",
    "chaos linreg --schedules 6 --drop-rate 0.05 --dup-rate 0.02 --straggler-max 4 "
    "--corrupt 0.05 --detect-timeout 0.5 --partition-rate 0.3",
    "serve --streams 2 --jobs-count 6",
    "serve --jobs-count 8 --drop-rate 0.05 --dup-rate 0.02 --detect-timeout 0.5",
    "serve --jobs-count 8 --economics dedicated --crash-rate 0.3 --repair-mttr 2",
    "serve --jobs-count 8 --economics borrow --crash-rate 0.3 --rack-rate 0.1",
    "serve --jobs-count 6 --placement parity:2",
]

#: The usage-error argv of ``tests/test_cli.py``.
TEST_USAGE_ERRORS = [
    "run nosuchapp",
    "sweep fig99",
    "chaos nosuchapp",
    "run linreg --ckpt-mode bogus",
    "run linreg --placement mirror",
    "sweep fig5 --max-places 4 --iterations 12",
    "sweep table4 --max-places 4 --iterations 12",
    "chaos linreg --recovery reconstruct --schedules 2",
    "chaos cg --recovery reconstruct --placement parity --spares 2 --schedules 2",
    f"run linreg {SMALL} --recovery reconstruct",
    f"run cg {SMALL} --recovery reconstruct --placement parity",
    f"run linreg {SMALL} --ckpt-interval 0",
    "chaos linreg --ckpt-interval 0",
    "serve --ckpt-interval 0",
    f"run linreg {SMALL} --fail-at 3 --victim 0",
    f"run linreg {SMALL} --fail-at 3 --victim 9",
    "serve --places 3 --max-job-places 6",
    f"run linreg {SMALL} --placement parity --replicas 2",
    "chaos linreg --placement parity --replicas 2",
    "serve --placement parity --replicas 2",
    f"run linreg {SMALL} --straggler 99:2",
    "chaos linreg --iterations 1",
    f"run linreg {SMALL} --non-resilient --fail-at 3 --victim 2",
    *(
        f"run linreg {SMALL} --non-resilient {flag}"
        for flag in (
            "--mttf 20", "--spares 1", "--replicas 2", "--placement spread",
            "--stable-fallback", "--ckpt-interval 3", "--ckpt-mode overlapped",
            "--ckpt-delta", "--mode replace-redundant", "--recovery reconstruct",
            "--detect-timeout 1", "--heartbeat-interval 0.1", "--drop-rate 0.1",
            "--dup-rate 0.1", "--delay-rate 0.1", "--delay-seconds 0.1",
            "--straggler 2:4", "--corrupt 0.1", "--chaos-seed 3",
        )
    ),
    f"run linreg {SMALL} --heartbeat-interval 0.1",
]

#: Misconfigurations that escaped the usage-error boundary as a traceback,
#: or ran silently with the offending value ignored.
MISCONFIGURATIONS = [
    f"run linreg {SMALL} --replicas -1",
    "chaos linreg --replicas -1",
    "serve --replicas -1",
    "chaos linreg --spares -1",
    "chaos linreg --drop-rate 2",
    "chaos linreg --corrupt 2",
    "serve --crash-rate 5",
    "serve --drop-rate 2",
    "serve --max-job-places 1",
    "sweep fig2 --iterations 0",
    "chaos linreg --schedules 0",
    "chaos linreg --schedules -2",
    "chaos linreg --places 1",
    f"run linreg {SMALL} --detect-timeout -1",
    "chaos linreg --detect-timeout -1",
    "serve --detect-timeout -1",
    "chaos linreg --straggler-max 0.5",
    f"run linreg {SMALL} --victim 2",
    f"run linreg {SMALL} --fail-at 3 --victim 1 --victim 2",
    "run linreg --places 4 --iterations 6 --fail-at 6",
    "serve --streams 0",
]


def run_cli(argv):
    """``python -m repro *argv*`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            if isinstance(code, str):
                print(code, file=sys.stderr)
                code = 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code or 0, out.getvalue(), err.getvalue()


def rows():
    """One tab-separated line per argv, in a fixed order."""
    lines = []
    saved = os.environ.get("COLUMNS"), os.getcwd()
    # argparse wraps its usage line at the terminal width.
    os.environ["COLUMNS"] = "80"
    try:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)  # --trace-out writes beside the relative path
            for line in FLOWS + TEST_USAGE_ERRORS + MISCONFIGURATIONS:
                code, out, err = run_cli(line.split())
                digest = hashlib.sha256(out.encode()).hexdigest()[:16]
                first = err.splitlines()[0] if err else "-"
                lines.append(f"repro {line}\t{code}\t{digest}\t{first}")
    finally:
        os.chdir(saved[1])
        if saved[0] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[0]
    return lines


def test_cli_flows(benchmark):
    lines = benchmark.pedantic(rows, rounds=1, iterations=1)
    with open(results_path("cli_flows.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    emit("CLI flows", "\n".join(lines))
    assert len(lines) == len(FLOWS) + len(TEST_USAGE_ERRORS) + len(MISCONFIGURATIONS)
