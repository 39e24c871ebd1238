#!/usr/bin/env python3
"""Byte check of result files: run a fixed set of experiments, diff two runs.

    python scripts/result_check.py run DIR
    python scripts/result_check.py diff OLD NEW

`run` writes 28 JSON result files into DIR: the 5 shipped configs in
scripts/configs and the 9 benchmark experiments of perfbench/workloads.py,
each at seed 3 with 1000 replicates, once at workers 0 and once at workers
2.  It runs against the `src/` of the checkout the script sits in, so a
copy of the script in another checkout checks that checkout.  It takes
about 11 s on a 2-CPU machine and is not part of the test suite, which
runs only `diff`.

`diff` prints, for each file, "identical" or every changed field (list
positions folded, so `rows.u_n` covers the whole grid) with its largest
relative drift.  It also flags any file whose workers-0 and workers-2
runs differ: results must be byte-identical for any worker count.  Its
exit status is 1 on such a mismatch or on a file present in only one
directory, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 3
REPLICATES = 1000
WORKERS = (0, 2)


def experiments() -> dict[str, dict]:
    """Name -> `extlab run` config, for the shipped configs and the benchmark."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    out = {f"config_{p.stem}": json.loads(p.read_text())
           for p in sorted((ROOT / "scripts" / "configs").glob("*.json"))}
    for workload in WORKLOADS.values():
        for exp in workload.experiments:
            out[f"{workload.name}_{exp.name}"] = exp.config
    return out


def run(out_dir: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from extlab.cli import main

    out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in experiments().items():
            cfg_path = Path(tmp) / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            for workers in WORKERS:
                code = main(["run", "--config", str(cfg_path), "--seed", str(SEED),
                             "--replicates", str(REPLICATES), "--format", "json",
                             "--workers", str(workers),
                             "--out", str(out_dir / f"{name}.w{workers}.json")])
                if code != 0:
                    print(f"{name} at workers {workers}: exit {code}", file=sys.stderr)
                    failed += 1
    return 1 if failed else 0


def leaves(value, path=""):
    """(dotted path, leaf) pairs of a JSON value; list positions are folded."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item, path)
    else:
        yield path, value


def drifts(old: dict, new: dict) -> dict[str, tuple[int, float]]:
    """Field -> (values changed, largest relative drift; inf if not numeric)."""
    a, b = list(leaves(old)), list(leaves(new))
    if [p for p, _ in a] != [p for p, _ in b]:
        return {"(layout)": (1, math.inf)}
    out: dict[str, tuple[int, float]] = {}
    for (path, x), (_, y) in zip(a, b):
        if x == y:
            continue
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        rel = abs(x - y) / max(abs(x), abs(y)) if numeric else math.inf
        count, worst = out.get(path, (0, 0.0))
        out[path] = (count + 1, max(worst, rel))
    return out


def worker_mismatches(root: Path) -> list[str]:
    """Names whose workers-0 and workers-2 files in root differ in any byte."""
    first, second = (f".w{w}.json" for w in WORKERS)
    out = []
    for path in sorted(root.glob(f"*{first}")):
        twin = path.with_name(path.name.replace(first, second))
        if twin.exists() and path.read_bytes() != twin.read_bytes():
            out.append(path.name[: -len(first)])
    return out


def diff(old_dir: Path, new_dir: Path) -> int:
    bad = 0
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.json")})
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            print(f"{name}: only in {old_dir if old.exists() else new_dir}")
            bad += 1
        elif old.read_bytes() == new.read_bytes():
            print(f"{name}: identical")
        else:
            print(f"{name}: changed")
            for path, (count, rel) in drifts(json.loads(old.read_text()),
                                             json.loads(new.read_text())).items():
                size = "not numeric" if rel == math.inf else f"largest relative drift {rel:.3g}"
                print(f"    {path}: {count} value(s), {size}")
    for d in (old_dir, new_dir):
        for name in worker_mismatches(d):
            print(f"WORKER MISMATCH in {d}: {name} differs between workers {WORKERS}")
            bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="write the 28 result files").add_argument("dir", type=Path)
    cmp_ = sub.add_parser("diff", help="compare two result directories")
    cmp_.add_argument("old", type=Path)
    cmp_.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    return run(args.dir) if args.command == "run" else diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
