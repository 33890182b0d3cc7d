"""Regenerate bench/reference.json, the stored outputs the benchmark checks.

Usage: python3 bench/make_reference.py

Runs every command of every workload in bench/spec.json, at full and smoke
size, in this process through `refsde.cli.main` with `--threads 1` (output is
byte-identical for any thread count) and the caller's BLAS threading, as the
benchmark runs it.  Seeded workloads are run for each program seed
0 .. reference_seeds-1; the benchmark maps its workload seed
onto that pool.  Density output does not depend on the seed beyond its
`# seed=` line, so it is stored once under the key "any".  The `# seed=` line
is dropped; the benchmark checks it separately.

Regenerate only on purpose: a later change that alters outputs beyond the
tolerances in spec.json must say why before the reference moves.
"""
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from run import with_threads  # noqa: E402
from refsde import cli  # noqa: E402


def run_once(args: list[str], seed: int, tmp: Path) -> list[str]:
    out = tmp / "out.csv"
    argv = with_threads(args, 1) + ["--seed", str(seed), "--out", str(out)]
    if cli.main(argv) != 0:
        raise SystemExit(f"reference run failed: {argv}")
    return out.read_text().splitlines()[1:]


def main() -> int:
    spec = json.loads((BENCH / "spec.json").read_text())
    ref: dict = {}
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        for size, key in (("full", "commands"), ("smoke", "smoke")):
            for name, wl in spec["workloads"].items():
                seeds = range(spec["reference_seeds"]) if wl["seeded"] else [0]
                ref.setdefault(size, {})[name] = {
                    str(s) if wl["seeded"] else "any":
                        [run_once(args, s, tmp) for args in wl[key]]
                    for s in seeds}
                print(f"{size} {name}: {len(seeds)} seed(s)", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
