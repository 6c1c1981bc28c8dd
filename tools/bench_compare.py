#!/usr/bin/env python3
"""Compares two sets of benchmark runs, parent against change.

    python3 tools/bench_compare.py PARENT.txt CHANGE.txt [--spec BENCHMARK.json]
    python3 tools/bench_compare.py --selftest

Each file holds the concatenated stdout of `benchmark/run.py` runs of one
workload, in the order they ran; run i of PARENT is paired with run i of
CHANGE, so alternate the two sides run by run. The tool refuses runs whose
`fingerprint` lines differ in anything but `source`, or whose workload lines
differ. For every metric it prints each side's median and quartiles, the
change of the medians and the pairs the change won (ties count for neither
side). An end-to-end metric of BENCHMARK.json reads:

    gain        there are at least ten pairs, the change won at least 9/10
                of them and its median is better by more than the parent's
                interquartile range;
    WORSE       the change's median is worse than the parent's by more than
                the metric's bound;
    unresolved  either side's interquartile range is wider than the bound
                and not every change run beats every parent run;
    ok          otherwise.

A rise in the failed share (failed / attempted) is flagged too. A run that
lacks a metric BENCHMARK.json declares for its mode (end-to-end untraced,
per-layer traced) cannot be compared. Exit status: 0 when nothing is
flagged, 1 when a metric is WORSE or the failed share rose, 2 when the runs
cannot be compared.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Refused(Exception):
    pass


def parse_runs(text, label):
    """Splits run.py output into runs: {fingerprint, workload, result}."""
    runs, current = [], None
    for line in text.splitlines():
        if line.startswith("fingerprint "):
            current = {"fingerprint": json.loads(line[len("fingerprint "):]),
                       "workload": None}
        elif current is not None and line.startswith("workload "):
            current["workload"] = line.strip()
        elif current is not None and line.startswith('{"correct"'):
            current["result"] = json.loads(line)
            runs.append(current)
            current = None
    if not runs:
        raise Refused(f"{label}: no complete run.py output found")
    return runs


def check_comparable(parent, change):
    base = None
    for side, runs in (("parent", parent), ("change", change)):
        for i, run in enumerate(runs):
            fp = {k: v for k, v in run["fingerprint"].items() if k != "source"}
            key = (fp, run["workload"])
            if base is None:
                base = key
            elif key[0] != base[0]:
                raise Refused(f"{side} run {i + 1}: fingerprint {fp} differs "
                              f"from {base[0]} beyond its source")
            elif key[1] != base[1]:
                raise Refused(f"{side} run {i + 1}: '{key[1]}' differs from "
                              f"'{base[1]}'")
    if len(parent) != len(change):
        raise Refused(f"{len(parent)} parent runs but {len(change)} change "
                      f"runs: pairs need one of each")
    return base[1]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def compare(parent, change, spec):
    """Returns (report lines, flagged) for two lists of parsed runs."""
    workload = check_comparable(parent, change)
    # run.py prints the end-to-end metrics of untraced runs and the
    # per-layer metrics of traced ones; a declared metric a run lacks would
    # otherwise drop out of the table unseen.
    declared = spec["per_layer" if workload.endswith(" trace 1") else "end_to_end"]
    for side, runs in (("parent", parent), ("change", change)):
        for i, run in enumerate(runs):
            missing = [m["name"] for m in declared
                       if m["name"] not in run["result"]["metrics"]]
            if missing:
                raise Refused(f"{side} run {i + 1} lacks {', '.join(missing)}")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [n for n in parent[0]["result"]["metrics"]
             if all(n in r["result"]["metrics"] for r in parent + change)]
    lines = [f"{workload} -- {len(parent)} pairs",
             f"{'metric':<36} {'parent median [q1, q3]':<34} "
             f"{'change median [q1, q3]':<34} {'delta':>8} {'wins':>6} "
             f"{'bound':>6}  verdict"]
    flagged = False
    for name in names:
        p = [r["result"]["metrics"][name]["value"] for r in parent]
        c = [r["result"]["metrics"][name]["value"] for r in change]
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        pm, cm = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        delta = (cm - pm) / pm if pm else 0.0
        verdict, bound_text = "", ""
        if name in bounds:
            bound = bounds[name]["bound"]
            bound_text = f"{bound:.0%}"
            worse = (cm - pm) if lower else (pm - cm)
            sweep = max(c) < min(p) if lower else min(c) > max(p)
            if worse > bound * abs(pm):
                verdict, flagged = "WORSE", True
            elif len(p) >= 10 and wins >= 0.9 * len(p) and -worse > p3 - p1:
                verdict = "gain"
            elif not sweep and any(
                    m and (hi - lo) > bound * abs(m)
                    for m, lo, hi in ((pm, p1, p3), (cm, c1, c3))):
                verdict = "unresolved"
            else:
                verdict = "ok"
        lines.append(f"{name:<36} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':<34} "
                     f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<34} "
                     f"{delta:>+8.1%} {f'{wins}/{len(p)}':>6} {bound_text:>6}  "
                     f"{verdict}".rstrip())
    shares = []
    for runs in (parent, change):
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        shares.append(failed / attempted if attempted else 0.0)
    lines.append(f"failed share: parent {shares[0]:.4f}, change {shares[1]:.4f}")
    if shares[1] > shares[0]:
        lines.append("FLAG: the failed share rose")
        flagged = True
    return lines, flagged


def canned_run(cpu, source, wall, failed=0, workload="w seed 1 seconds 8 trace 0"):
    fingerprint = {"nproc": 4, "cpu": cpu, "build_type": "Release",
                   "compiler": "12.2", "source": source}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "msgs_per_s": {"value": 100.0 / wall, "unit": "1/s"},
                          "colors": {"value": 40, "unit": "count"}}}
    return (f"fingerprint {json.dumps(fingerprint)}\nworkload {workload}\n"
            f"wall_s {wall} s\n{json.dumps(result)}\n")


def selftest():
    spec = {"end_to_end": [
                {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                {"name": "msgs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
                {"name": "colors", "unit": "count", "better": "lower", "bound": 0.25}],
            "per_layer": []}
    parent_walls = [1.17, 1.12, 1.20, 1.15, 1.18, 1.14, 1.22, 1.16, 1.19, 1.13]
    parent = "".join(canned_run("X", "git:a", w) for w in parent_walls)

    def verdicts(change_text, parent_text=parent):
        lines, flagged = compare(parse_runs(parent_text, "parent"),
                                 parse_runs(change_text, "change"), spec)
        rows = {l.split()[0]: l.split()[-1] for l in lines[2:-1]}
        return rows, flagged, lines

    checks = 0

    def expect(cond, what):
        nonlocal checks
        checks += 1
        if not cond:
            raise AssertionError(what)

    # A clear win on 9 of 10 pairs, by more than the parent's IQR.
    faster = [0.93, 0.90, 0.95, 0.91, 0.94, 0.92, 0.96, 1.30, 0.93, 0.89]
    rows, flagged, _ = verdicts("".join(canned_run("X", "git:b", w) for w in faster))
    expect(rows["wall_s"] == "gain", f"win not reported: {rows}")
    expect(rows["msgs_per_s"] == "gain", f"higher-better win not reported: {rows}")
    expect(rows["colors"] == "ok", f"equal metric not ok: {rows}")
    expect(not flagged, "a clean win was flagged")
    # 8 of 10 is not a gain, nor are five clean wins.
    mixed = faster[:8] + [1.25, 1.30]
    rows, _, _ = verdicts("".join(canned_run("X", "git:b", w) for w in mixed))
    expect(rows["wall_s"] != "gain", "8/10 pairs reported as a gain")
    rows, _, _ = verdicts(
        "".join(canned_run("X", "git:b", w) for w in faster[:5]),
        "".join(canned_run("X", "git:a", w) for w in parent_walls[:5]))
    expect(rows["wall_s"] != "gain", "five pairs reported as a gain")
    # A regression beyond the 25% bound is flagged, in both directions.
    slower = [w * 1.4 for w in parent_walls]
    rows, flagged, _ = verdicts("".join(canned_run("X", "git:b", w) for w in slower))
    expect(rows["wall_s"] == "WORSE" and rows["msgs_per_s"] == "WORSE" and flagged,
           f"regression not flagged: {rows}")
    # A wide spread without a clean sweep is unresolved, not ok.
    wide = [0.8, 1.6, 0.9, 1.5, 1.0, 1.4, 0.85, 1.55, 1.2, 1.1]
    rows, _, _ = verdicts("".join(canned_run("X", "git:b", w) for w in wide))
    expect(rows["wall_s"] == "unresolved", f"wide spread not unresolved: {rows}")
    # A rise in the failed share is flagged.
    failing = "".join(canned_run("X", "git:b", w, failed=int(i == 3))
                      for i, w in enumerate(parent_walls))
    _, flagged, lines = verdicts(failing)
    expect(flagged and "FLAG: the failed share rose" in lines,
           "failed-share rise not flagged")
    # Fingerprints differing beyond `source`, other workloads and unequal
    # run counts are refused.
    for bad, what in (
            ("".join(canned_run("Y", "git:b", w) for w in parent_walls),
             "a different cpu"),
            ("".join(canned_run("X", "git:b", w, workload="w seed 2 seconds 8 trace 0")
                     for w in parent_walls), "a different seed"),
            ("".join(canned_run("X", "git:b", w) for w in parent_walls[:9]),
             "unequal run counts")):
        try:
            verdicts(bad)
        except Refused:
            checks += 1
        else:
            raise AssertionError(f"runs with {what} were compared")
    # A declared metric missing from any run, on either side, is refused.
    full = [canned_run("X", "git:b", w) for w in parent_walls]
    dropped = [full[0].replace('"msgs_per_s"', '"msgs_per_s_gone"')] + full[1:]
    for parent_text, change_text, what in (
            (parent, "".join(dropped), "change"),
            ("".join(dropped), "".join(full), "parent")):
        try:
            verdicts(change_text, parent_text)
        except Refused:
            checks += 1
        else:
            raise AssertionError(f"a {what} run without msgs_per_s was compared")
    try:
        parse_runs("wall_s 1 s\n", "empty")
    except Refused:
        checks += 1
    else:
        raise AssertionError("a file without runs was accepted")
    print(f"bench_compare selftest: {checks} checks passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE files are required")
    with open(args.spec) as f:
        spec = json.load(f)
    try:
        runs = []
        for path, label in ((args.parent, "parent"), (args.change, "change")):
            with open(path) as f:
                runs.append(parse_runs(f.read(), label))
        lines, flagged = compare(runs[0], runs[1], spec)
    except Refused as e:
        print(f"bench_compare: refused: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
