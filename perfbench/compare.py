"""Compare two sets of saved benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.json [...] -- NEW.json [...]

The inputs are records that run.py saves under perfbench/work/results. For
every workload and metric it prints each side's median and quartiles and
the change of the medians. Machine and software facts that differ between
any two records are flagged first, because such runs do not compare.
"""

import json
import statistics
import sys

# facts that legitimately differ between runs of one comparison
VARYING = {"seed", "git_commit"}


def _load(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    base, new = _load(argv[:split]), _load(argv[split + 1:])
    facts = {}
    for rec in base + new:
        for key, value in rec["facts"].items():
            if key not in VARYING:
                facts.setdefault(key, set()).add(json.dumps(value, sort_keys=True))
    differing = {k: v for k, v in facts.items() if len(v) > 1
                 and k not in ("workload", "trace")}
    for key, values in sorted(differing.items()):
        print(f"WARNING: fact '{key}' differs between runs: "
              + " vs ".join(sorted(values)))
    groups = {}
    for side, records in (("base", base), ("new", new)):
        for rec in records:
            key = (rec["facts"]["workload"], rec["facts"]["trace"])
            for name, m in rec["result"]["metrics"].items():
                groups.setdefault((*key, name), {"base": [], "new": []})[side].append(
                    (m["value"], m["unit"]))
    for (workload, trace, name), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            continue
        unit = sides["base"][0][1]
        b = _quartiles([v for v, _ in sides["base"]])
        n = _quartiles([v for v, _ in sides["new"]])
        change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
        print(f"{workload:13s} {name:34s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}] "
              f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}] {unit} "
              f"change {change:+.2%} (n={len(sides['base'])}/{len(sides['new'])})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
