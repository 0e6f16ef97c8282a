"""Scale probe: lift-entropic requests on laws rescaled by 10^U(-12, 12).

    python3 perfbench/defects.py --seed 1

The timed workloads use unit-scale laws only, because a benchmark workload
must be one on which the program gets every request right. This probe keeps
the known scale defects in view instead: it draws the lift-entropic request
rounds of the same seed, rescales each law (and with it the level-function
knots and the transport radius, which are placed relative to the law), and
checks every result with the same scale-relative reference checks. Mean-variance
requests carry no law and are left out. The last line of standard output is a
JSON summary; a request that fails is listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

import numpy as np

from run import SRC, WORK, fresh_import
from workloads import LIFT_ROUND, LiftEntropic, PoolLaw

ROUNDS = 4  # 24 rescaled requests a round


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if not (SRC / "lambdarisk" / "__init__.py").is_file():
        print(f"error: no lambdarisk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    lr = fresh_import()
    wl = LiftEntropic(args.seed, False, WORK / "defects", SRC)
    wl.setup(lr)
    rng = np.random.default_rng([args.seed, 5])
    attempted, failed = Counter(), Counter()
    for r in range(ROUNDS):
        for i, template in enumerate(LIFT_ROUND):
            kind, n, lam, _ = template
            if n is None:
                continue
            exponent = float(rng.uniform(-12.0, 12.0))
            pool = {n: [PoolLaw(lr, e.values * 10.0**exponent, e.probs) for e in wl.pool[n]]}
            req = wl._request(rng, pool, f"{r}.{i}", template)
            label = f"{kind}:{lam}" if lam else kind
            attempted[label] += 1
            try:
                ok = bool(req.check(req.run()))
            except Exception as exc:  # a raising request is a failed one
                ok = False
                print(f"{label} n={n} scale=1e{exponent:+.1f}: {exc!r}", file=sys.stderr)
            else:
                if not ok:
                    print(f"{label} n={n} scale=1e{exponent:+.1f}: wrong", file=sys.stderr)
            failed[label] += not ok
    total, bad = sum(attempted.values()), sum(failed.values())
    print(json.dumps({
        "seed": args.seed,
        "rescaled": total,
        "failed": bad,
        "failed_share": bad / total,
        "by_kind": {k: [failed[k], attempted[k]] for k in sorted(attempted)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
