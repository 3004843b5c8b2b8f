"""The four workloads: how one operation is run, timed and checked.

Each workload is a single closed-loop client: the next operation starts only
after the previous one completed and was checked.  An operation is one unit
of user work: a document through `synthesize` and `classify` (design), a
document through `simulate` and `rates` (scan), one CLI process (cold-cli),
or one (N, psi) pair-source plan (pairs).  Its latency is the time spent in
the program, without generating inputs or checking outputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker
import docs
import tracer as tracing

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
#: Upper bound on one CLI process; the slowest (simulate at N=8) takes ~10 s.
CHILD_TIMEOUT_S = 120


@dataclass
class OpResult:
    latency_s: float
    commands: list  # (command, seconds)
    failure: str | None = None
    known_defect: str | None = None
    truth: tuple | None = None  # degeneracy configuration, for slocc.correct_share
    stdout_bytes: int = 0
    cache_entries: int | None = None
    spans: list = field(default_factory=list)  # child-process spans (cold-cli, traced)
    cal_s: float = 0.0  # calibration loop time around the operation, set by the runner


def call_cli(argv: list, stdin_text: str):
    """Run symphot.cli.main in this process; returns (code, stdout, stderr, seconds).

    Anything the CLI raises becomes the code ``"raised <type>"``, which no
    check accepts, so the operation counts as failed.
    """
    from symphot import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the workload keeps running; the check reports it
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue(), seconds


def _checked(command, check, code, stdout, stderr, doc):
    try:
        check(code, stdout, stderr, doc)
    except checker.CheckError as exc:
        return f"{command}: {exc}"
    return None


def _run_commands(commands, doc, truth=None, known_defect=None) -> OpResult:
    result = OpResult(0.0, [], truth=truth, known_defect=known_defect)
    for command in commands:
        code, stdout, stderr, seconds = call_cli([command, "-"], doc.text)
        result.latency_s += seconds
        result.commands.append((command, seconds))
        result.stdout_bytes += len(stdout.encode())
        failure = _checked(command, checker.CLI_CHECKS[command], code, stdout, stderr, doc)
        result.failure = result.failure or failure
    result.cache_entries = tracing.expansion_cache_entries()
    return result


class Design:
    in_process = True

    def ops(self, seed):
        return docs.design_docs(seed)

    def run(self, doc, traced, op_id, workdir):
        return _run_commands(("synthesize", "classify"), doc, doc.truth, doc.known_defect)


class Scan:
    in_process = True

    def ops(self, seed):
        return docs.scan_docs(seed)

    def run(self, doc, traced, op_id, workdir):
        return _run_commands(("simulate", "rates"), doc)


class Pairs:
    in_process = True

    def ops(self, seed):
        return docs.pair_plans(seed)

    def run(self, plan, traced, op_id, workdir):
        from symphot import fock, multiport, schemes

        pols = [fock.PolarizationAmplitude(a, b) for a, b in plan.params]
        start = time.perf_counter()
        state = schemes.dicke_2n_construction(plan.n, plan.kind)
        qubits, p_post = multiport.postselect_one_per_mode(state)
        joint = schemes.ncl_joint_state(plan.n, plan.kind)
        projector = schemes.projector_state(pols, plan.kind)
        residual, p_herald = schemes.project_onto(joint, projector)
        report = schemes.rates(plan.n, pols)
        seconds = time.perf_counter() - start
        result = OpResult(seconds, [("pair_plan", seconds)])
        try:
            checker.check_pair_state(plan.n, plan.kind, qubits.amplitudes, p_post)
            checker.check_heralding(plan.params, dict(residual.items()), p_herald)
            checker.check_rate_report(plan.params, report)
        except checker.CheckError as exc:
            result.failure = f"pair_plan N={plan.n} {plan.kind}: {exc}"
        result.cache_entries = tracing.expansion_cache_entries()
        return result


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ColdCli:
    in_process = False

    def __init__(self, root: Path):
        self.root = root
        self.env = child_env(root)

    def ops(self, seed):
        return docs.cold_cli_invocations(seed)

    def run(self, inv, traced, op_id, workdir):
        spans_path = Path(workdir) / f"child-{op_id}.jsonl"
        if traced:
            argv = [sys.executable, str(LAUNCHER), str(spans_path), str(op_id), *inv.argv]
        else:
            argv = [sys.executable, "-m", "symphot", *inv.argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, input=inv.stdin, capture_output=True, text=True,
                                  env=self.env, cwd=self.root, timeout=CHILD_TIMEOUT_S)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, stdout, stderr = "timeout", "", ""
        seconds = time.perf_counter() - start
        truth = getattr(inv.doc, "truth", None)
        result = OpResult(seconds, [(inv.command, seconds)], truth=truth,
                          stdout_bytes=len(stdout.encode()))
        result.failure = _checked(inv.command, checker.CLI_CHECKS[inv.command],
                                  code, stdout, stderr, inv.doc)
        if traced and spans_path.exists():
            record = tracing.load_spans(spans_path)
            spans_path.unlink()
            result.cache_entries = record.pop(0)["cache_entries"]
            result.spans = record
        return result


def make(name: str, root: Path):
    if name == "cold-cli":
        return ColdCli(root)
    return {"design": Design, "scan": Scan, "pairs": Pairs}[name]()


NAMES = ("design", "scan", "cold-cli", "pairs")
