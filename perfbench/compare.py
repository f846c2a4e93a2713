"""Compare two saved outputs of run.py.

    python3 perfbench/run.py --workload W > base.out
    ...                                      > new.out
    python3 perfbench/compare.py base.out new.out

Prints every metric of both runs with the ratio new/base. The comparison
is flagged, and the exit code is 1, when the two environment records
differ in kernel lane or BLAS thread count: such runs do not measure the
same setting of the program.
"""

from __future__ import annotations

import json
import sys

FLAGGED_FIELDS = ("kernels_compiled", "blas_threads")


def read(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    env = next(json.loads(line)["environment"] for line in lines
               if line.startswith('{"environment"'))
    return env, json.loads(lines[-1])


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, res_a), (env_b, res_b) = read(argv[0]), read(argv[1])
    flags = [f"{k}: {env_a.get(k)} vs {env_b.get(k)}" for k in FLAGGED_FIELDS
             if env_a.get(k) != env_b.get(k)]
    for key in sorted(res_a["metrics"].keys() | res_b["metrics"].keys()):
        a = res_a["metrics"].get(key, {}).get("value")
        b = res_b["metrics"].get(key, {}).get("value")
        unit = (res_a["metrics"].get(key) or res_b["metrics"][key])["unit"]
        ratio = f"{b / a:8.3f}" if a and b is not None else "       -"
        print(f"{key:36s} {a!s:>22} {b!s:>22} {ratio} {unit}")
    for res, path in ((res_a, argv[0]), (res_b, argv[1])):
        if not res["correct"]:
            print(f"{path}: {res['failed']} of {res['attempted']} repetitions failed")
    for flag in flags:
        print(f"FLAG: environments differ in {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
