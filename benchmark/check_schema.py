#!/usr/bin/env python3
"""Self-check of the benchmark's schema (stdlib only).

    python3 benchmark/check_schema.py BENCHMARK.json [smoke.json]

Checks BENCHMARK.json against the limits its consumers rely on, and, given
the record of `memxct_bench --smoke --json smoke.json`, that every workload
reported every end-to-end metric untraced and every per-layer metric traced,
in the declared units, with all gates passing, and that each traced run
wrote a Chrome trace-event file. Exits non-zero with one line per problem.
"""
import json
import math
import re
import sys
from pathlib import Path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
METRIC_KEYS = {"end_to_end": {"name", "unit", "better", "bound"},
               "per_layer": {"name", "unit", "better"}}


def check_benchmark(path):
    problems = []
    raw = Path(path).read_bytes()
    if len(raw) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    spec = json.loads(raw)
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != want:
        problems.append(f"top-level keys {sorted(spec)} != {sorted(want)}")
        return spec, problems

    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be 1-32 strings of at most 200 chars")
    for c in cmd:
        if c.startswith("/") or ".." in c.split("/"):
            problems.append(f"command argument {c!r} leaves the repository")

    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1-16 directories")
    for p in paths:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            problems.append(f"path {p!r} is not a plain relative path")

    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        problems.append("run_seconds must be a whole number in 1..60")

    names = []
    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append("there must be 2-8 workloads")
    for w in workloads:
        if set(w) != {"name", "why"}:
            problems.append(f"workload keys {sorted(w)}")
            continue
        names.append(w["name"])
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"why of {w['name']} is not one line of <= 200")

    for section, lo, hi in (("end_to_end", 1, 16), ("per_layer", 1, 128)):
        metrics = spec[section]
        if not lo <= len(metrics) <= hi:
            problems.append(f"{section} must hold {lo}-{hi} metrics")
        for m in metrics:
            if set(m) != METRIC_KEYS[section]:
                problems.append(f"{section} metric keys {sorted(m)}")
                continue
            names.append(m["name"])
            if not UNIT.match(m["unit"]):
                problems.append(f"unit {m['unit']!r} of {m['name']}")
            if m["better"] not in ("lower", "higher"):
                problems.append(f"better of {m['name']} is {m['better']!r}")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']} is not in (0, 0.25]")

    for n in names:
        if not NAME.match(n):
            problems.append(f"name {n!r} breaks the naming rule")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    return spec, problems


def check_smoke(spec, path):
    problems = []
    smoke = json.loads(Path(path).read_text())
    records = {(r["workload"], r["traced"]): r for r in smoke["records"]}
    for w in spec["workloads"]:
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            label = f"{w['name']} ({'traced' if traced else 'untraced'})"
            rec = records.get((w["name"], traced))
            if rec is None:
                problems.append(f"{label}: no smoke record")
                continue
            if not rec["correct"] or rec["failed"]:
                problems.append(f"{label}: gates failed: {rec['errors']}")
            for m in spec[section]:
                got = rec["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{label}: {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} in {got['unit']}")
                elif not (isinstance(got["value"], (int, float)) and
                          math.isfinite(got["value"])):
                    problems.append(f"{label}: {m['name']} is not a number")
        trace = Path(f"{path}.{w['name']}.trace.json")
        try:
            events = json.loads(trace.read_text())["traceEvents"]
            if not any(e["name"] == "solve" for e in events):
                problems.append(f"{trace.name}: no solve span")
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"{trace.name}: unreadable trace ({e})")
    return problems


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec, problems = check_benchmark(argv[1])
    if len(argv) == 3 and not problems:
        problems += check_smoke(spec, argv[2])
    for p in problems:
        print(f"check_schema: {p}")
    if not problems:
        print("check_schema: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
