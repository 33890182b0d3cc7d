"""Run one refsde CLI command in a fresh process, stamping when set-up ends.

Usage: python3 bench/entry.py STAMP_FILE -- REFSDE_ARGS...

Set-up is `import refsde.cli` plus `cli.parse(argv)`, everything before the
first compute call.  Right after it the CLOCK_MONOTONIC reading is written to
STAMP_FILE; the parent read the same system-wide clock just before spawning
this process, so the difference is the fresh-process set-up time.  The parsed
command then runs exactly as `python -m refsde` would run it.
"""
import sys
import time


def main() -> int:
    stamp_path, sep = sys.argv[1:3]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    from refsde import cli
    cfg = cli.parse(sys.argv[3:])
    stamp = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(stamp_path, "w") as f:
        f.write(repr(stamp))
    return cli.main(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
