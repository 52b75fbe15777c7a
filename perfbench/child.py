"""One benchmark operation: run ``phasegrid.cli.main(argv)`` in this process.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py --op-json OP.json [--trace --op-id N] -- CLI-ARGS
    python3 perfbench/child.py --facts FACTS.json

It times ``import phasegrid.cli`` and ``parse_config`` of the operation's
config, stamps the monotonic clock when the pipeline is about to start, runs
``main`` and writes these figures (and, with --trace, the per-layer figures)
to OP.json. The exit code is the one ``main`` returns.
"""

import json
import os
import sys
import time

def _write(path, record):
    with open(path, "w") as fh:
        json.dump(record, fh)


def _run(op_json, trace, op_id, argv):
    t0 = time.perf_counter()
    import phasegrid.cli as cli
    t1 = time.perf_counter()
    with open(argv[argv.index("--config") + 1]) as fh:
        cfg = cli.parse_config(fh.read())
    t2 = time.perf_counter()
    record = {"import_s": t1 - t0, "parse_s": t2 - t1,
              "t_ready": time.monotonic()}
    tracer = None
    if trace:
        import warnings

        from tracer import PSEUDO_INVERSE_TEXT, Tracer, TraceError

        tracer = Tracer(op_id, cfg.prune.e_cut if cfg.prune else None)
        try:
            tracer.install()
        except TraceError as exc:
            record["trace_error"] = str(exc)
            _write(op_json, record)
            print(f"error: {exc}", file=sys.stderr)
            return 3
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = cli.main(argv)
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            n_pseudo = sum(PSEUDO_INVERSE_TEXT in str(w.message) for w in caught)
            record["layers"] = tracer.layer_metrics(n_pseudo)
            record["self_by_span"] = tracer.self_by_name()
            record["spans"] = tracer.spans
        record["rc"] = rc
    finally:
        _write(op_json, record)
    return rc


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def facts() -> dict:
    """Software and machine facts that decide whether two runs compare."""
    import numpy as np
    import scipy

    from phasegrid import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    backend = getattr(_kernels, "active_backend", None)
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "numba_imports": has_numba,
        "kernels_backend": backend() if backend else "absent",
    }


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--facts"]:
        _write(args[1], facts())
        sys.exit(0)
    split = args.index("--")
    opts, cli_argv = args[:split], args[split + 1:]
    sys.exit(_run(opts[opts.index("--op-json") + 1], "--trace" in opts,
                  int(opts[opts.index("--op-id") + 1]) if "--op-id" in opts else 0,
                  cli_argv))
