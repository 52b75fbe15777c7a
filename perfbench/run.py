"""phasegrid benchmark: CLI time-to-spectrum, with an optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload desk2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each operation is one fresh child process that runs ``phasegrid.cli.main``
(see child.py). The loop is closed with one client: the next operation is
spawned only after the previous one has exited, until --seconds have
passed. Every operation's outputs are checked against committed references
in perfbench/ref; a failed check counts like a non-zero exit.

Before the timed loop each run makes one untimed ``efficiency`` operation at
hbar = 1/8, a probe of a known defect (the bvn half builds a 29 x 29 = 841
point grid and Grid1D rejects odd sizes). The probe counts in ok_frac and
never in wall_s, so a fix shows up as fewer failures.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 untraced and traced operations alternate and the last line holds
the per-layer metrics (medians over the traced operations; tracer.py). The
full record of a run, machine facts included, is saved under
perfbench/work/results for compare.py.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "work")
CHILD = os.path.join(HERE, "child.py")
OP_TIMEOUT_S = 60

MORSE = ["--config", "configs/morse_bvn.cfg"]
WORKLOADS = {
    # the paper's 2-d pruned bvn case at desk scale: one large pencil
    "desk2d": ["solve", "--config", "configs/triangle_desk.cfg"],
    # 1-d efficiency scan: many small pencils and fgh solves, no 2-d apply
    "efficiency1d": ["efficiency", *MORSE, "--hbars", "1,0.5,0.25"],
    # Monte Carlo volumes: semiclassics and kernels only, no linear algebra
    "scaling_mc": ["scaling", *MORSE, "--energy", "11.25", "--dims", "1,2,3",
                   "--samples", "4000000"],
}
PROBE = ["efficiency", *MORSE, "--hbars", "0.125"]

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio", "bvn_ratio": "ratio"}
PER_LAYER = {
    "fourier_grid.apply_s": "s", "fourier_grid.apply_cols": "count",
    "fourier_grid.solve_fgh_s": "s", "fourier_grid.solve_fgh_calls": "count",
    "fourier_grid.hamiltonian_s": "s",
    "vn_basis.build_basis_s": "s", "vn_basis.build_basis_calls": "count",
    "vn_basis.pseudo_inverse_warnings": "count",
    "pruner.select_s": "s", "pruner.select_calls": "count",
    "pruner.kept_frac": "ratio",
    "solver.assemble_s": "s", "solver.eig_s": "s", "solver.eig_calls": "count",
    "solver.pencil_n": "count", "solver.eig_useful_frac": "ratio",
    "solver.scan_probes": "count",
    "semiclassics.mc_volume_s": "s", "semiclassics.mc_samples": "count",
    "kernels.mc_hits_s": "s", "kernels.mc_hits_calls": "count",
    "kernels.mc_bytes_computed": "bytes",
    "cli.import_s": "s", "cli.parse_s": "s", "cli.write_s": "s",
    "cli.write_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _ref(name):
    with open(os.path.join(HERE, "ref", name)) as fh:
        return fh.read()


def _read_csv(path):
    with open(path) as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    return [dict(zip(header, row)) for row in rows]


# ---------------------------------------------------------------------------
# Correctness checks: (out_dir) -> (ok, reason, bvn_ratio)


def check_desk2d(out):
    ref = json.loads(_ref("desk2d.json"))
    levels = [float(r["energy"]) for r in _read_csv(f"{out}/eigenvalues.csv")]
    below = [e for e in levels if e < ref["e_cut"]]
    cells = _read_csv(f"{out}/cells.csv")
    kept = sum(r["kept"] == "1" for r in cells)
    if (kept, len(cells)) != (ref["n_kept"], ref["n_cells"]):
        return False, f"kept {kept} of {len(cells)} cells", None
    if len(below) != len(ref["levels"]):
        return False, f"{len(below)} levels below e_cut", None
    worst = max(abs(a - b) for a, b in zip(below, ref["levels"]))
    if not worst <= ref["tol"]:
        return False, f"level deviates by {worst:.3g}", None
    return True, "", kept / len(below)


def check_efficiency1d(out):
    with open(f"{out}/efficiency.csv") as fh:
        text = fh.read()
    if text != _ref("efficiency1d.csv"):
        return False, "efficiency.csv differs from the reference", None
    bvn = [r for r in _read_csv(f"{out}/efficiency.csv") if r["method"] == "bvn"]
    return True, "", (sum(int(r["basis_size"]) for r in bvn)
                      / sum(int(r["n_converged"]) for r in bvn))


def check_scaling_mc(out):
    ref = json.loads(_ref("scaling_mc.json"))
    rows = _read_csv(f"{out}/scaling.csv")
    if [int(r["D"]) for r in rows] != [r["D"] for r in ref["rows"]]:
        return False, "dimensions differ from the reference", None
    cells = 0.0
    for row, want in zip(rows, ref["rows"]):
        if int(row["G_exact"]) != want["G_exact"]:
            return False, f"G_exact at D={want['D']} is {row['G_exact']}", None
        v, err = float(row["V_mc"]), float(row["V_mc_stderr"])
        sigma = math.hypot(err, want["V_mc_stderr"])
        if not abs(v - want["V_mc"]) <= 4.0 * sigma:
            return False, f"V_mc at D={want['D']} is {v}, reference " \
                          f"{want['V_mc']} +- {sigma:.3g}", None
        cells += v / (2.0 * math.pi * ref["hbar"]) ** want["D"]
    return True, "", cells / sum(r["G_exact"] for r in ref["rows"])


CHECKS = {"desk2d": check_desk2d, "efficiency1d": check_efficiency1d,
          "scaling_mc": check_scaling_mc}


def check_probe(out):
    rows = _read_csv(f"{out}/efficiency.csv")
    if len(rows) == 2 and all(r["status"] == "ok" for r in rows):
        return True, "", None
    return False, "efficiency.csv lacks two ok rows", None


# ---------------------------------------------------------------------------
# Child processes


def _spawn_and_wait(argv, env, stderr_path):
    """Run argv to completion; returns (monotonic start, exit code, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)

    def on_timeout(signum, frame):
        os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_timeout)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return t0, os.waitstatus_to_exitcode(status), usage


def run_op(cli_argv, out, env, check, trace=False, op_id=0):
    """One operation in a fresh child; returns its measured record."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    op_json = os.path.join(out, "op.json")
    argv = [sys.executable, CHILD, "--op-json", op_json]
    if trace:
        argv += ["--trace", "--op-id", str(op_id)]
    argv += ["--", *cli_argv, "--out", out, "--quiet"]
    t0, rc, usage = _spawn_and_wait(argv, env, os.path.join(out, "stderr.txt"))
    wall = time.monotonic() - t0
    try:
        with open(op_json) as fh:
            child = json.load(fh)
    except (OSError, ValueError):
        child = {}
    if "trace_error" in child:
        sys.exit(f"perfbench: {child['trace_error']}")
    rec = {"wall_s": wall, "rc": rc, "trace": trace,
           "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "setup_s": child["t_ready"] - t0 if "t_ready" in child else None,
           "import_s": child.get("import_s"), "parse_s": child.get("parse_s"),
           "layers": child.get("layers"),
           "self_by_span": child.get("self_by_span"),
           "spans": child.get("spans")}
    if rc != 0:
        with open(os.path.join(out, "stderr.txt")) as fh:
            lines = fh.read().strip().splitlines()
        rec.update(ok=False, why=f"exit {rc}: {lines[-1] if lines else ''}",
                   ratio=None)
        return rec
    try:
        ok, why, ratio = check(out)
    except (OSError, KeyError, ValueError) as exc:
        ok, why, ratio = False, f"unreadable output: {exc!r}", None
    if trace and ok and sum(rec["self_by_span"].values()) > wall:
        ok, why = False, "self times sum to more than the wall time"
    rec.update(ok=ok, why=why, ratio=ratio)
    return rec


def _csv_bytes(out):
    found = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = fh.read()
    return found


# ---------------------------------------------------------------------------
# Facts, metrics, reporting


def _git_commit(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _facts(env, scratch):
    path = os.path.join(scratch, "facts.json")
    err = os.path.join(scratch, "facts.err")
    _, rc, _ = _spawn_and_wait([sys.executable, CHILD, "--facts", path], env, err)
    if rc != 0:
        with open(err) as fh:
            sys.exit(f"perfbench: facts probe failed:\n{fh.read()}")
    with open(path) as fh:
        facts = json.load(fh)
    facts["blas_env"] = {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in os.environ}
    return facts


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def end_to_end(ops, probe):
    good = [op for op in ops if op["ok"]] or ops
    samples = {
        "wall_s": [op["wall_s"] for op in good],
        "setup_s": [op["setup_s"] for op in ops],
        "peak_rss_mb": [op["peak_rss_mb"] for op in ops],
        "bvn_ratio": [op["ratio"] for op in good],
    }
    metrics = {name: (_median(vals), len([v for v in vals if v is not None]))
               for name, vals in samples.items()}
    passed = sum(op["ok"] for op in ops) + probe["ok"]
    metrics["ok_frac"] = (passed / (len(ops) + 1), len(ops) + 1)
    return metrics, END_TO_END


def per_layer(ops):
    traced = [op for op in ops if op["trace"] and op["layers"]]
    plain = [op for op in ops if not op["trace"]]
    metrics = {}
    for name in PER_LAYER:
        if name == "cli.import_s":
            vals = [op["import_s"] for op in traced]
        elif name == "cli.parse_s":
            vals = [op["parse_s"] for op in traced]
        elif name == "trace.overhead_s":
            metrics[name] = (_median(op["wall_s"] for op in traced)
                             - _median(op["wall_s"] for op in plain),
                             len(traced) + len(plain))
            continue
        else:
            vals = [op["layers"][name] for op in traced]
        metrics[name] = (_median(vals), len(vals))
    return metrics, PER_LAYER


def run_workload(name, seed, seconds, trace, root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    scratch = os.path.join(WORK, f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    facts = _facts(env, scratch)
    facts.update(git_commit=_git_commit(root), seed=seed, workload=name,
                 trace=trace, seconds=seconds)
    seed_args = ["--seed", str(seed)]
    # untimed: the known-defect probe, which also warms the import caches
    probe = run_op(PROBE + seed_args, os.path.join(scratch, "probe"), env,
                   check_probe)
    cli_argv = WORKLOADS[name] + seed_args
    check = CHECKS[name]
    ops = []
    deadline = time.monotonic() + seconds
    while len(ops) < 1 + trace or time.monotonic() < deadline:
        i = len(ops)
        traced = bool(trace) and i % 2 == 1
        op = run_op(cli_argv, os.path.join(scratch, f"op{i % 2}"), env,
                    check, trace=traced, op_id=i)
        if traced:
            if op["ok"] and _csv_bytes(os.path.join(scratch, "op1")) != plain_csv:
                op.update(ok=False, why="traced CSVs differ from untraced")
        elif trace:
            plain_csv = _csv_bytes(os.path.join(scratch, "op0"))
        ops.append(op)
    metrics, units = per_layer(ops) if trace else end_to_end(ops, probe)
    failed = [op for op in ops if not op["ok"]]
    result = {"correct": not failed, "attempted": len(ops),
              "failed": len(failed),
              # null, not NaN, when no operation produced the value
              "metrics": {k: {"value": v if math.isfinite(v) else None,
                              "unit": units[k]}
                          for k, (v, _) in metrics.items()}}
    record = {"facts": facts, "result": result,
              "samples": {k: n for k, (_, n) in metrics.items()},
              "probe": {k: probe[k] for k in ("ok", "why", "rc", "wall_s")},
              "ops": ops}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    _report(name, facts, metrics, units, ops, probe)
    return result


def _report(name, facts, metrics, units, ops, probe):
    print(f"# {name}: " + json.dumps(facts, sort_keys=True))
    status = "passed" if probe["ok"] else f"failed ({probe['why']})"
    print(f"# {name}: probe hbar=0.125 {status}")
    for op in ops:
        if not op["ok"]:
            print(f"# {name}: operation failed: {op['why']}")
    n_fail = sum(not op["ok"] for op in ops) + (not probe["ok"])
    print(f"# {name}: fail_frac {n_fail / (len(ops) + 1):.6g} "
          f"({n_fail} of {len(ops) + 1} operations, probe included)")
    traced = [op["self_by_span"] for op in ops if op["self_by_span"]]
    if traced:
        own = {span: _median(op.get(span, 0.0) for op in traced)
               for span in set().union(*traced)}
        top = sorted(own.items(), key=lambda kv: -kv[1])[:5]
        print(f"# {name}: largest self times: "
              + ", ".join(f"{span} {t:.3f} s" for span, t in top))
    for metric, (value, n) in metrics.items():
        print(f"{name:13s} {metric:34s} {value:14.6g} {units[metric]:6s} "
              f"median of n={n}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    needed = ["src/phasegrid/cli.py", "configs/triangle_desk.cfg",
              "configs/morse_bvn.cfg"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: run from the phasegrid repository root; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace,
                                  root) for name in names}
    print(json.dumps(results[args.workload] if args.workload != "all"
                     else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
