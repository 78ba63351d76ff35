#!/usr/bin/env python3
"""Validate observability JSON exports against checked-in schemas.

Dependency-free (standard library only): implements the small JSON-Schema
subset the checked-in schemas use (type, properties, required, items,
additionalProperties, enum, minimum) instead of requiring the jsonschema
package.

Modes:
  check_metrics_schema.py --schema SCHEMA METRICS_JSON
      Validate a metrics snapshot (fa_trace --metrics output) against
      SCHEMA (tools/metrics_schema.json).

  check_metrics_schema.py --trace SCHEMA TRACE_JSON
      Validate a Chrome trace-event export (fa_trace --trace-out output)
      against SCHEMA (tools/trace_schema.json).

  check_metrics_schema.py --compare-deterministic A_JSON B_JSON
      Assert that the "deterministic" sections of two metrics snapshots are
      identical (the cross-thread-count determinism contract).

  check_metrics_schema.py --health SCHEMA HEARTBEATS_JSONL
      Validate every line of a health-heartbeat JSONL file (fa_trace
      serve/watch --stats-every --stats-out) against SCHEMA
      (tools/health_schema.json).

  check_metrics_schema.py --compare-health A_JSONL B_JSONL
      Assert that two heartbeat files are identical after dropping each
      line's wall-clock "timing" object (the per-tenant heartbeat
      determinism contract across --threads settings).

Exit status: 0 on success, 1 on any violation (each printed to stderr).
"""

import argparse
import json
import sys

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
}


def validate(instance, schema, path, errors):
    """Validate `instance` against the supported JSON-Schema subset."""
    expected = schema.get("type")
    if expected is not None:
        py_type = TYPES[expected]
        ok = isinstance(instance, py_type)
        # bool is a subclass of int in Python; a boolean is not a number.
        if ok and isinstance(instance, bool) and expected in ("number", "integer"):
            ok = False
        if not ok:
            errors.append(f"{path}: expected {expected}, "
                          f"got {type(instance).__name__}")
            return

    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")

    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool) and instance < schema["minimum"]:
        errors.append(f"{path}: {instance} < minimum {schema['minimum']}")

    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                errors.append(f"{path}: missing required key '{key}'")
        properties = schema.get("properties", {})
        for key, value in instance.items():
            if key in properties:
                validate(value, properties[key], f"{path}.{key}", errors)
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected key '{key}'")

    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            validate(item, schema["items"], f"{path}[{i}]", errors)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"{path}: {e}\n")
        sys.exit(1)


def check_schema(schema_path, data_path):
    schema = load(schema_path)
    data = load(data_path)
    errors = []
    validate(data, schema, "$", errors)
    for e in errors:
        sys.stderr.write(f"{data_path}: {e}\n")
    return 1 if errors else 0


def compare_deterministic(a_path, b_path):
    a = load(a_path).get("deterministic")
    b = load(b_path).get("deterministic")
    if a is None or b is None:
        sys.stderr.write("both files must carry a 'deterministic' section\n")
        return 1
    if not a.get("counters"):
        sys.stderr.write(f"{a_path}: deterministic section is empty — "
                         "nothing meaningful was compared\n")
        return 1
    if a != b:
        for key in sorted(set(a) | set(b)):
            if a.get(key) == b.get(key):
                continue
            av = {json.dumps(x, sort_keys=True) for x in a.get(key, [])}
            bv = {json.dumps(x, sort_keys=True) for x in b.get(key, [])}
            for only_a in sorted(av - bv):
                sys.stderr.write(f"only in {a_path} {key}: {only_a}\n")
            for only_b in sorted(bv - av):
                sys.stderr.write(f"only in {b_path} {key}: {only_b}\n")
        sys.stderr.write("deterministic sections differ\n")
        return 1
    print(f"deterministic sections identical "
          f"({len(a.get('counters', []))} counters)")
    return 0


def load_heartbeats(path):
    """Parses a heartbeat JSONL file into (line_number, object) pairs."""
    beats = []
    try:
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    beats.append((number, json.loads(line)))
                except json.JSONDecodeError as e:
                    sys.stderr.write(f"{path}:{number}: {e}\n")
                    sys.exit(1)
    except OSError as e:
        sys.stderr.write(f"{path}: {e}\n")
        sys.exit(1)
    return beats


def check_health(schema_path, data_path):
    schema = load(schema_path)
    beats = load_heartbeats(data_path)
    if not beats:
        sys.stderr.write(f"{data_path}: no heartbeat lines\n")
        return 1
    errors = []
    for number, beat in beats:
        line_errors = []
        validate(beat, schema, "$", line_errors)
        errors.extend(f"line {number} {e}" for e in line_errors)
    for e in errors:
        sys.stderr.write(f"{data_path}: {e}\n")
    if errors:
        return 1
    print(f"{data_path}: ok ({len(beats)} heartbeats)")
    return 0


def compare_health(a_path, b_path):
    def det_lines(path):
        # Drop the wall-clock "timing" object; everything else must match.
        out = []
        for _, beat in load_heartbeats(path):
            beat.pop("timing", None)
            out.append(json.dumps(beat, sort_keys=True))
        return out

    a, b = det_lines(a_path), det_lines(b_path)
    if not a:
        sys.stderr.write(f"{a_path}: no heartbeat lines — "
                         "nothing meaningful was compared\n")
        return 1
    if a != b:
        if len(a) != len(b):
            sys.stderr.write(f"heartbeat counts differ: {len(a)} in {a_path} "
                             f"vs {len(b)} in {b_path}\n")
        for i, (la, lb) in enumerate(zip(a, b), start=1):
            if la != lb:
                sys.stderr.write(f"heartbeat {i} differs:\n"
                                 f"  {a_path}: {la}\n  {b_path}: {lb}\n")
                break
        sys.stderr.write("heartbeat det sections differ\n")
        return 1
    print(f"heartbeat det sections identical ({len(a)} heartbeats)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--schema", metavar="SCHEMA",
                      help="validate a metrics snapshot against SCHEMA")
    mode.add_argument("--trace", metavar="SCHEMA",
                      help="validate a Chrome trace export against SCHEMA")
    mode.add_argument("--health", metavar="SCHEMA",
                      help="validate a heartbeat JSONL file against SCHEMA")
    mode.add_argument("--compare-deterministic", action="store_true",
                      help="compare the deterministic sections of two files")
    mode.add_argument("--compare-health", action="store_true",
                      help="compare two heartbeat files minus wall-clock")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    if args.compare_deterministic:
        if len(args.files) != 2:
            parser.error("--compare-deterministic takes exactly two files")
        return compare_deterministic(args.files[0], args.files[1])
    if args.compare_health:
        if len(args.files) != 2:
            parser.error("--compare-health takes exactly two files")
        return compare_health(args.files[0], args.files[1])
    if args.health:
        if len(args.files) != 1:
            parser.error("--health takes exactly one data file")
        return check_health(args.health, args.files[0])
    schema = args.schema or args.trace
    if len(args.files) != 1:
        parser.error("schema validation takes exactly one data file")
    rc = check_schema(schema, args.files[0])
    if rc == 0:
        print(f"{args.files[0]}: ok")
    return rc


if __name__ == "__main__":
    sys.exit(main())
