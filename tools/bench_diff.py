#!/usr/bin/env python3
"""Compare two bench JSON summaries field by field.

    python3 tools/bench_diff.py A B

Every field is compared exactly (same JSON type, same value; objects with
the same keys, arrays with the same length) except the fields FIELD_RULES
names. Each differing field is printed on stdout, one path per line, as
dotted keys with array indices in brackets (`sweep[3].glitched_frames`).

Exit status: 0 when A and B agree, 1 when a field differs, 2 when an input
cannot be read or parsed.
"""

import argparse
import fnmatch
import json
import sys

IGNORED = "ignored"      # not compared, and may be missing on either side
STRUCTURE = "structure"  # present on both sides with the same JSON type

# The fields not compared exactly, declared once: (bench, path pattern,
# rule). `bench` is the document's "bench" field, "*" for every bench; the
# pattern is matched against the field's path with fnmatch, and the first
# matching row wins.
FIELD_RULES = (
    ("*", "wall_time_s", IGNORED),
    # The microbench's timings move from run to run and machine to machine.
    ("microbench_batch_vs_scalar", "solver.*", STRUCTURE),
    ("microbench_batch_vs_scalar", "oracle_warm.*", STRUCTURE),
    ("microbench_batch_vs_scalar", "transport.steady_tick_ns", STRUCTURE),
    ("microbench_batch_vs_scalar", "link_budget.*", STRUCTURE),
    # Counts the timed passes, so it follows the timings.
    ("microbench_batch_vs_scalar", "oracle_stats.batch_queries", STRUCTURE),
    # The transport's pool high-water mark varies between runs of one build.
    ("microbench_batch_vs_scalar", "transport.arena_bytes", STRUCTURE),
)


def rule_for(bench, path):
    for rule_bench, pattern, rule in FIELD_RULES:
        if rule_bench in ("*", bench) and fnmatch.fnmatchcase(path, pattern):
            return rule
    return None


def kind(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, dict):
        return "object"
    return "null"


def child(path, key):
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def compare(a, b, path, bench, out):
    """Appends one "path: why" line per differing field to `out`."""
    rule = rule_for(bench, path)
    if rule == IGNORED:
        return
    if kind(a) != kind(b):
        out.append(f"{path or '(root)'}: {kind(a)} != {kind(b)}")
        return
    if isinstance(a, dict):
        for key in a:
            if key in b:
                compare(a[key], b[key], child(path, key), bench, out)
            elif rule_for(bench, child(path, key)) != IGNORED:
                out.append(f"{child(path, key)}: only in A")
        for key in b:
            if key not in a and rule_for(bench, child(path, key)) != IGNORED:
                out.append(f"{child(path, key)}: only in B")
    elif isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path or '(root)'}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, child(path, i), bench, out)
    elif rule != STRUCTURE and a != b:
        out.append(f"{path or '(root)'}: {json.dumps(a)} != {json.dumps(b)}")


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(
        description="Compare two bench JSON summaries field by field.")
    parser.add_argument("a", help="first summary (A)")
    parser.add_argument("b", help="second summary (B)")
    args = parser.parse_args()
    a = load(args.a)
    b = load(args.b)
    bench = a.get("bench") if isinstance(a, dict) else None
    differences = []
    compare(a, b, "", bench, differences)
    for line in differences:
        print(line)
    if differences:
        print(f"bench_diff: {len(differences)} field(s) differ",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
