"""sqpack benchmark: one workload per fresh process, closed loop, one client.

    python3 perfbench/run.py --workload plan-large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in a child

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`. Everything else about the
run (environment, inputs, per-operation times and hashes, negative
controls, spans) goes to perfbench/results/<workload>-seed<n>-trace<t>.json.
The code under test is the checkout's own src/sqpack; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("plan-large", "verify-pack", "verify-cover")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqpack").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_one(args) -> int:
    # BLAS/OpenMP pools are sized when numpy loads, so pin them first
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import sqpack
    if Path(sqpack.__file__).resolve().parent != SRC / "sqpack":
        print(f"error: imported sqpack from {sqpack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    out = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))
    detail = out.pop("detail")
    detail["environment"] = environment()
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"environment={json.dumps(detail['environment'], sort_keys=True)}")
    for c in detail["controls"]:
        print(f"# negative control {json.dumps(c, sort_keys=True)}")
    for r in detail["results"]:
        if not r["ok"]:
            print(f"# FAILED op {r['input']} {r['kind']} x={r['x']!r}: {r['error']}")
    print(f"# fail_share {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']}); details in {path.relative_to(ROOT)}")
    for name, m in out["metrics"].items():
        print(f"{name:26s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS does not carry over."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        summary[name] = json.loads(lines[-1])
        if not summary[name]["correct"]:
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sqpack" / "__init__.py").is_file():
        print(f"error: no sqpack sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
