"""Record the outputs every perfbench run is checked against.

    python3 perfbench/record_expected.py [--seeds K]

For ``SimOptions`` seeds 0..K-1 this runs, each in a fresh interpreter,
the serial cold sweep of the subset (its cached results digested through
the public cache API), Figs. 4-9 rendered from that cache, and the
``design_space`` studies, then writes the digests to
``perfbench/expected.json``.  Run it from the root of a checkout.  Record
again only when the program's outputs change on purpose, which also bumps
``ENGINE_VERSION``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import EXPECTED, Bench, _become_subreaper


def record_seed(root: Path, workdir: Path, seed: int) -> dict:
    bench = Bench(root, workdir, seed, {})
    cache = bench.new_cache()
    samples = [bench.launch("cold", cache_dir=cache)]
    samples.append(bench.launch("verify", verify=(cache,)))
    samples.append(bench.launch("render", cache_dir=cache))
    samples.append(bench.launch("design"))
    for sample in samples:
        if sample.report is None:
            raise SystemExit(f"seed {seed}: {sample.kind} failed: {sample.error}")
    cold, verify, render, design = (s.report for s in samples)
    if cold["failures"] or render["counters"]["simulations"]:
        raise SystemExit(f"seed {seed}: sweep failures or a warm simulation")
    results = verify["caches"][cache]
    for ops in (results, render["ops"], design["ops"]):
        bad = [name for name, value in ops.items() if value.startswith("error")]
        if bad:
            raise SystemExit(f"seed {seed}: {bad[0]}: {ops[bad[0]]}")
    return {"results": results, "figures": render["ops"], "studies": design["ops"]}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("record_expected: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import phase

    _become_subreaper()
    (root / ".perfbench_runs").mkdir(exist_ok=True)
    seeds = {}
    for seed in range(args.seeds):
        workdir = Path(tempfile.mkdtemp(prefix="record-", dir=root / ".perfbench_runs"))
        try:
            seeds[str(seed)] = record_seed(root, workdir, seed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"seed {seed}: recorded", flush=True)
    payload = {
        "scale": phase.SCALE,
        "subset": list(phase.SUBSET),
        "design": list(phase.DESIGN),
        "seeds": seeds,
    }
    EXPECTED.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
