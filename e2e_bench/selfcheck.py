#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark at tiny sizes.

For every workload in BENCHMARK.json it runs run.py with --scale tiny
and asserts that:
  - untraced and traced runs pass their output checks and print every
    end-to-end / per-layer metric of BENCHMARK.json with its unit;
  - the traced run's closure check (spans + residual = wall) ran and
    passed, and trace_overhead_frac was reported;
  - both runs print identical simulated statistics (`sim` line);
  - a run with every reference perturbed fails its check and exits
    non-zero, so the checks are live.

    python3 e2e_bench/selfcheck.py

Takes about a minute; exits 0 when every assertion holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, lines, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            problems.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        sims = []
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines, result = run(w, trace)
            tag = "%s --trace %d" % (w, trace)
            expect(code == 0 and result is not None and result["correct"],
                   tag + ": exits 0 with correct=true")
            if result is None:
                continue
            printed = {l.split()[1]: l.split()[3] for l in lines
                       if l.startswith("metric ") and len(l.split()) >= 4}
            missing = [m["name"] for m in names
                       if result["metrics"].get(m["name"], {}).get("unit")
                       != m["unit"] or printed.get(m["name"]) != m["unit"]]
            expect(not missing,
                   tag + ": every metric printed with its unit %s" %
                   (missing or ""))
            checks = [l for l in lines if l.startswith("check ")]
            expect(checks and all(" ok" in l for l in checks),
                   tag + ": %d output checks ran and passed" % len(checks))
            if trace:
                expect(any(l.startswith("check layer_spans_add_up ok")
                           for l in lines),
                       tag + ": layer spans add up to wall time")
                expect("trace_overhead_frac" in result["metrics"],
                       tag + ": trace_overhead_frac reported")
            sims.append([l for l in lines if l.startswith("sim ")])
        expect(len(sims) == 2 and sims[0] and sims[0] == sims[1],
               w + ": simulated statistics identical across runs")

        code, lines, result = run(w, 0, "--inject-mismatch")
        expect(code != 0 and result is not None and not result["correct"]
               and any("FAILED" in l for l in lines if l.startswith("check ")),
               w + ": a perturbed reference fails the run")

    print("selfcheck: %s" % ("all passed" if not problems else
                             "%d failed" % len(problems)))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
