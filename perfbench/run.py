"""Benchmark of the toric-cobordism certificate engine.

    python3 perfbench/run.py --workload certify-torus --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

Run from the repository root.  Each workload runs in a process of its
own as a closed loop with one client: every op is an in-process
``toric_cobordism.cli.main(argv)`` call on inputs generated from the
seed, and no library object is reused across ops.  Passes over the op
list repeat while one more still fits in ``--seconds``.  Every op's exit
code and output are checked.  End-to-end times are scaled to a
reference host speed by a calibration block timed before, during and
after each op (see ``hostspeed.py``); the raw times are on the detail line.

With ``--trace 0`` the last line of output holds the end-to-end
metrics.  With ``--trace 1`` one untraced pass is followed by passes
under the outside-in tracer, and the last line holds the per-layer
metrics; spans are written to ``perfbench/_traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import hostspeed
import layers
from tracer import Tracer
from workloads import WORKLOADS, Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
SETUP_REPEATS = 5
NO_TRANSLATION = "no delta translation found\n"
# seed-dependent output keys, dropped before an output is digested
SEED_KEYS = (("seed",), ("homology", "seed"), ("homology", "functional"), ("index_profile",))


class SetupError(RuntimeError):
    pass


def import_library() -> SimpleNamespace:
    """Import the package from ``src/`` afresh, dropping earlier imports."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "toric_cobordism"]:
        del sys.modules[name]
    lib = SimpleNamespace(
        **{m: importlib.import_module(f"toric_cobordism.{m}") for m in layers.LAYERS}
    )
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"toric_cobordism imported from {lib.cli.__file__}, not {SRC}")
    return lib


def setup(workload: str, seed: int, workdir: Path):
    """Import plus input generation, repeated; returns (lib, ops, times).

    ``times`` holds each repeat's (raw s, scaled s).  The first repeat
    also pays for the standard-library imports; the median leaves it
    out.  Each repeat starts from a collected heap.
    """
    times = []
    before = hostspeed.calibrate()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        with hostspeed.Sampler() as sampler:
            lib = import_library()
            ops = WORKLOADS[workload](lib, seed, workdir)
        elapsed = perf_counter() - start - sampler.seconds
        after = hostspeed.calibrate()
        times.append((elapsed, hostspeed.scaled(elapsed, before, sampler.sample, after)))
        before = after
    return lib, ops, times


def run_op(lib, argv, sampler=None) -> tuple[int | None, str, str, float]:
    """One CLI call: (exit code, stdout, stderr, seconds).

    A ``hostspeed.Sampler`` is entered around the call, and its blocks'
    time is taken out of the seconds.  An exception escaping the CLI
    breaks its exit-code contract; it is reported in stderr with exit
    code None.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        with sampler or contextlib.nullcontext():
            try:
                code = lib.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = None
        elapsed = perf_counter() - start - (sampler.seconds if sampler else 0.0)
    return code, out.getvalue(), err.getvalue(), elapsed


def output_digest(stdout: str) -> str:
    """sha256 of the output with the seed-dependent keys dropped."""
    if not stdout:
        return hashlib.sha256(b"").hexdigest()
    data = json.loads(stdout)
    for path in SEED_KEYS:
        node = data
        for key in path[:-1]:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        if isinstance(node, dict):
            node.pop(path[-1], None)
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def witness_verifies(lib, op: Op, stdout: str) -> bool:
    """Re-verify an equiv witness against the op's two input files."""
    cp = lib.charpair
    pair1, pair2 = (
        cp.CharacteristicPair.from_json_dict(json.loads(p.read_text(encoding="utf-8")))
        for p in op.pairs
    )
    witness = cp.DeltaTranslation.from_json_dict(json.loads(stdout)["translation"])
    return cp.verify_delta_translation(pair1, pair2, witness)


def check(lib, op: Op, reference: dict | None, code: int, stdout: str) -> str | None:
    """None if the op's result is correct, else the reason it is not."""
    if reference is None:
        return "no recorded reference"
    if code != reference["exit"]:
        return f"exit {code}, expected {reference['exit']}"
    if op.pairs is None:
        if output_digest(stdout) != reference["sha256"]:
            return "output digest differs from the reference"
    elif code == 1 and stdout != NO_TRANSLATION:
        return "unexpected output of a failed search"
    elif code == 0 and not witness_verifies(lib, op, stdout):
        return "witness does not verify"
    return None


class Runner:
    """Runs passes over the op list and records times and failures."""

    def __init__(self, lib, ops: list[Op], references: dict):
        self.lib = lib
        self.ops = ops
        self.references = references
        self.attempted = 0
        self.failures: Counter = Counter()

    def one_pass(self, tracer: Tracer | None = None, label: int = 0) -> tuple[list[float], list[float]]:
        """Raw and scaled op times of one pass.

        Traced passes time no blocks during an op, so that no span holds
        them; their scaled times are not used.
        """
        times, scaled = [], []
        before = hostspeed.calibrate()
        for index, op in enumerate(self.ops):
            gc.collect()
            sampler = hostspeed.Sampler() if tracer is None else None
            if tracer is not None:
                tracer.op = f"{label}:{index}"
                tracer.active = True
            code, stdout, stderr, elapsed = run_op(self.lib, op.argv, sampler)
            if tracer is not None:
                tracer.active = False
            after = hostspeed.calibrate()
            during = sampler.sample if sampler else (0, 0.0)
            scaled.append(hostspeed.scaled(elapsed, before, during, after))
            before = after
            try:
                reason = check(self.lib, op, self.references.get(op.name), code, stdout)
            except (KeyError, TypeError, ValueError) as exc:  # malformed output
                reason = f"unreadable output: {exc!r}"
            self.attempted += 1
            if reason is not None:
                self.failures[op.name] += 1
                print(f"FAILED {op.name}: {reason}\n{stderr}", file=sys.stderr)
            times.append(elapsed)
        return times, scaled

    def passes(self, seconds: float, tracer: Tracer | None = None, first_label: int = 0) -> list[tuple[list[float], list[float]]]:
        """Whole passes within ``seconds``, at least one.

        A pass starts only if one more pass as long as the last one ends
        within ``seconds``, so the run does not overrun by up to a pass.
        """
        done: list[tuple[list[float], list[float]]] = []
        start = last = perf_counter()
        while not done or 2 * perf_counter() - last - start <= seconds:
            last = perf_counter()
            done.append(self.one_pass(tracer, first_label + len(done)))
        return done


def end_to_end(runner: Runner, passes: list[tuple[list[float], list[float]]], setups: list) -> tuple[dict, dict]:
    """Metrics from host-speed-scaled times; raw medians go to the detail."""
    scaled = [p for _, p in passes]
    walls = [sum(p) for p in scaled]
    heaviest = [max(range(len(p)), key=p.__getitem__) for p in scaled]
    samples = sorted(t for p in scaled for t in p)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "heaviest_op_s": (statistics.median(max(p) for p in scaled), "s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(samples, n=10)[8], "ms"),
        "setup_s": (statistics.median(t for _, t in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "passes": len(passes),
        "op_samples": len(samples),
        "heaviest_op": runner.ops[Counter(heaviest).most_common(1)[0][0]].name,
        "op_median_s": {
            op.name: statistics.median(p[i] for p in scaled) for i, op in enumerate(runner.ops)
        },
        "raw_wall_s": statistics.median(sum(times) for times, _ in passes),
        "raw_setup_s": statistics.median(t for t, _ in setups),
    }
    return metrics, detail


def traced(runner: Runner, seconds: float, workload: str, seed: int) -> dict:
    start = perf_counter()
    untraced_wall = sum(runner.one_pass()[0])
    tracer = Tracer(observers=layers.OBSERVERS)
    lib = runner.lib
    tracer.install({m: getattr(lib, m) for m in layers.LAYERS}, probes=layers.PROBES)
    try:
        passes = runner.passes(seconds - (perf_counter() - start), tracer, first_label=1)
    finally:
        tracer.uninstall()
    # a mean, like the per-pass layer times it is compared with
    traced_wall = statistics.fmean(sum(times) for times, _ in passes)
    tracer.write(
        BENCH_DIR / "_traces" / f"{workload}-seed{seed}.jsonl",
        {"workload": workload, "seed": seed, "traced_passes": len(passes)},
    )
    return layers.per_layer_metrics(tracer, len(passes), traced_wall, untraced_wall)


def run_metadata() -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "toric_cobordism").glob("*.py"))
    )
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "src_lines": src_lines}


def run_workload(args) -> int:
    os.environ.pop("TORIC_COBORDISM_SEED", None)  # the CLI would let it override --seed
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        lib, ops, setups = setup(args.workload, args.seed, workdir)
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))
        runner = Runner(lib, ops, references)
        if args.trace:
            metrics = traced(runner, args.seconds, args.workload, args.seed)
            detail = {}
        else:
            metrics, detail = end_to_end(runner, runner.passes(args.seconds), setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(runner.failures.values())
    detail = {"workload": args.workload, "seed": args.seed, **run_metadata(), **detail,
              "fail_ratio": failed / runner.attempted, "failed_ops": dict(runner.failures)}
    print(json.dumps({"detail": detail}))
    for name, (value, unit) in {**metrics, "fail_ratio": (detail["fail_ratio"], "-")}.items():
        print(f"{args.workload:18} {name:45} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name and unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toric_cobordism" / "cli.py").is_file():
        print(f"error: no toric_cobordism sources under {SRC}", file=sys.stderr)
        return 2
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
