"""Cold start of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/coldstart.py --workload mesh --seed 1 --mode setup

``setup`` times ``import pulse2d``, building the workload's evaluator and
its first call.  For ``probe`` the first ``pulse2d.evaluate`` builds the
library's default evaluator, so there the build time includes that one
point.  ``rules`` times ``import pulse2d`` and then the cold Gauss-Legendre
and Gauss-Jacobi rules at M3 in each backend the evaluator builds them in.

Only the standard library is imported before ``import pulse2d``, so the
numpy/scipy/mpmath imports count as part of the cold start.
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "rules"], required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import pulse2d
    out = {"import_s": time.perf_counter() - start}

    import workloads
    spec = workloads.SPECS[args.workload]
    if args.mode == "setup":
        if spec.scalar:
            t, r = workloads.generate(args.workload, args.seed, None)[0]
            start = time.perf_counter()
            pulse2d.evaluate(t, r)
            out["build_s"] = time.perf_counter() - start
            out["first_s"] = 0.0
        else:
            start = time.perf_counter()
            ev = workloads.make_evaluator(args.workload)
            out["build_s"] = time.perf_counter() - start
            t, r = workloads.generate(args.workload, args.seed, ev)[0]
            start = time.perf_counter()
            ev.evaluate_arrays(t, r)
            out["first_s"] = time.perf_counter() - start
        out["setup_s"] = out["import_s"] + out["build_s"] + out["first_s"]
    else:
        from pulse2d.dispatch import make_params
        from pulse2d.numerics import FLOAT64, mp_backend
        from pulse2d.quadrature import gauss_jacobi_m12, gauss_legendre
        # float64 evaluators round their tables from 40-digit rules
        backends = ([mp_backend(spec.dps)] if spec.dps
                    else [FLOAT64, mp_backend(40)])
        sizes = [(bk, make_params(spec.eps, bk).M3) for bk in backends]
        start = time.perf_counter()
        for bk, m3 in sizes:
            gauss_legendre(m3, bk)
            gauss_jacobi_m12(m3, bk)
        out["rule_build_s"] = time.perf_counter() - start
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
