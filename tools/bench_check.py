#!/usr/bin/env python3
"""Gate a benchmark result against the gates its committed baseline declares.

Usage:
    python3 tools/bench_check.py --current out.json \
        --baseline bench/baselines/NAME.json

The current document is a JSON file, or text whose last non-empty line
is one JSON object (the form pipebench/run.py prints). The baseline is a
committed result of the same bench plus a "gates" list. Each gate reads
one metric of the current document:

    {"metric": "runs[mode=batch,threads=4].speedup_vs_scalar",
     "better": "higher", "max_regression": 0.5}

- "metric": a dotted path. A segment "name[k=v,...]" picks the one
  element of the list "name" whose fields k equal v.
- "better": "higher" or "lower", the direction "max_regression" reads.
- "floor" / "ceiling": absolute bounds, met with equality unless
  "strict" is true. A bound given as a string is a metric path read
  from the current document.
- "max_regression": the largest fractional loss allowed against the
  baseline's own value of the metric.
- "equals": the value the metric must have.

Every failed gate, a gated metric missing from the current document
among them, is printed with its metric named, and the check exits 1.
Only the Python standard library is used.
"""

import argparse
import json
import re
import sys

SEGMENT = re.compile(r"^([^\[\]]+)(?:\[([^\]]+)\])?$")
GATE_KEYS = {"metric", "better", "floor", "ceiling", "strict",
             "max_regression", "equals"}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        sys.exit(f"bench_check: cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except ValueError:
        pass
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        sys.exit(f"bench_check: {path} is neither JSON nor text ending in "
                 f"a JSON line: {exc}")


def resolve(doc, path):
    """The value at `path` in `doc`; KeyError when it is not there."""
    value = doc
    for segment in path.split("."):
        match = SEGMENT.match(segment)
        if not match or not isinstance(value, dict) or match[1] not in value:
            raise KeyError(path)
        value = value[match[1]]
        if match[2]:
            want = dict(pair.split("=", 1) for pair in match[2].split(","))
            picked = [item for item in value if isinstance(item, dict) and
                      all(str(item.get(k)) == v for k, v in want.items())]
            if len(picked) != 1:
                raise KeyError(path)
            value = picked[0]
    return value


def check(gate, current, baseline):
    """A failure message for `gate`, or None when the gate holds."""
    metric = gate["metric"]
    try:
        value = resolve(current, metric)
    except KeyError:
        return f"{metric} is missing from the current run"
    if "equals" in gate and value != gate["equals"]:
        return f"{metric} is {value!r}, must equal {gate['equals']!r}"
    numeric = {"floor", "ceiling", "max_regression"} & set(gate)
    if numeric and (isinstance(value, bool) or
                    not isinstance(value, (int, float))):
        return f"{metric} is {value!r}, not a number"
    strict = gate.get("strict", False)
    for key, sign in (("floor", 1), ("ceiling", -1)):
        if key not in gate:
            continue
        bound = gate[key]
        if isinstance(bound, str):
            try:
                bound = resolve(current, bound)
            except KeyError:
                return f"{metric}: {key} {bound} is missing from the run"
        margin = sign * (value - bound)
        if margin < 0 or (strict and margin == 0):
            return (f"{metric} is {value:g}, past its {key} {bound:g}"
                    f"{' (strict)' if strict else ''}")
    if "max_regression" in gate:
        try:
            base = resolve(baseline, metric)
        except KeyError:
            return f"{metric} is missing from the baseline"
        loss = gate["max_regression"]
        higher = gate["better"] == "higher"
        limit = base * (1 - loss) if higher else base * (1 + loss)
        if (value < limit) if higher else (value > limit):
            return (f"{metric} is {value:g} against baseline {base:g}, "
                    f"past the {loss:g} regression limit {limit:g}")
    return None


def validate(gate):
    unknown = set(gate) - GATE_KEYS
    if "metric" not in gate or unknown:
        sys.exit(f"bench_check: malformed gate {gate}")
    if "max_regression" in gate and gate.get("better") not in (
            "higher", "lower"):
        sys.exit(f"bench_check: gate {gate['metric']} needs "
                 "better: higher|lower")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", required=True,
                    help="result of this run (JSON, or text ending in a "
                         "JSON line)")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline JSON with a gates list")
    args = ap.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)
    gates = baseline.get("gates") if isinstance(baseline, dict) else None
    if not gates:
        sys.exit(f"bench_check: {args.baseline} declares no gates")
    failures = []
    for gate in gates:
        validate(gate)
        failure = check(gate, current, baseline)
        if failure:
            failures.append(failure)
    for failure in failures:
        print(f"bench_check: FAIL: {failure}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"bench_check: OK ({len(gates)} gates of {args.baseline})")


if __name__ == "__main__":
    main()
