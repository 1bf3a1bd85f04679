#!/usr/bin/env python3
"""Exit-code taxonomy of rabid_cli (docs/ROBUSTNESS.md, core/status.hpp):

    0  success
    1  solution violations (audit failed)
    2  usage error (bad flags)
    3  input or I/O error (malformed circuit, unwritable output)
    4  deadline exceeded (honest partial solution returned)

Usage: exit_codes_test.py <path-to-rabid_cli>
"""

import json
import os
import subprocess
import sys
import tempfile


def run(cli, *args):
    proc = subprocess.run(
        [cli, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=300,
        text=True,
    )
    return proc


def main():
    if len(sys.argv) != 2:
        print("usage: exit_codes_test.py <rabid_cli>", file=sys.stderr)
        return 2
    cli = sys.argv[1]
    failures = []

    def expect(name, proc, code, stderr_contains=None):
        if proc.returncode != code:
            failures.append(
                f"{name}: expected exit {code}, got {proc.returncode}\n"
                f"  stdout: {proc.stdout[-300:]}\n  stderr: {proc.stderr[-300:]}"
            )
        elif stderr_contains and stderr_contains not in proc.stderr:
            failures.append(
                f"{name}: stderr missing {stderr_contains!r}: {proc.stderr[-300:]}"
            )
        else:
            print(f"ok   {name} -> exit {code}")

    # 2: usage errors never reach the flow.
    expect("no-args", run(cli), 2)
    expect("unknown-flag", run(cli, "--bogus"), 2)
    expect("bad-grid", run(cli, "--circuit", "apte", "--grid", "banana"), 2)
    expect("resume-without-dir", run(cli, "--circuit", "apte", "--resume"), 2)
    # Numeric values parse whole, finite and in range, or not at all.
    for name, flag, value in [
        ("threads-not-a-number", "--threads", "abc"),
        ("shards-trailing-junk", "--stage2-shards", "2x"),
        ("stages-trailing-junk", "--stages", "3x"),
        ("vg-negative", "--vg", "-1"),
        ("deadline-infinite", "--deadline-ms", "inf"),
    ]:
        expect(name, run(cli, "--circuit", "apte", flag, value), 2,
               stderr_contains=flag)
    expect("dijkstra-removed", run(cli, "--circuit", "apte", "--dijkstra"), 2,
           stderr_contains="unknown flag --dijkstra")

    # 3: structured input/I-O errors, printed in Status::to_string form.
    expect(
        "unknown-circuit",
        run(cli, "--circuit", "nosuch"),
        3,
        stderr_contains="error[invalid-input]",
    )
    expect(
        "unwritable-output",
        run(cli, "--circuit", "apte",
            "--dump-solution", "/nonexistent/dir/x.sol"),
        3,
        stderr_contains="error[io-error]",
    )
    expect(
        "resume-missing-checkpoint",
        run(cli, "--circuit", "apte", "--resume",
            "--checkpoint-dir", "/nonexistent/rabid-ckpt"),
        3,
        stderr_contains="error[io-error]",
    )

    # 4: deadline expiry (the audit must still be clean -> not exit 1).
    expect(
        "deadline-expired",
        run(cli, "--circuit", "apte", "--deadline-ms", "0.05", "--audit"),
        4,
    )
    # A budget past the clock's range is no deadline at all.
    expect(
        "deadline-beyond-clock-range",
        run(cli, "--circuit", "apte", "--threads", "1",
            "--deadline-ms", "1e13"),
        0,
    )

    # 0: a clean full run, plus checkpoint -> resume reproducing it
    # bit for bit.
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "ckpt")
        os.mkdir(ckpt)
        full = os.path.join(tmp, "full.sol")
        resumed = os.path.join(tmp, "resumed.sol")
        expect(
            "full-run-with-checkpoints",
            run(cli, "--circuit", "apte", "--checkpoint-dir", ckpt,
                "--dump-solution", full),
            0,
        )
        expect(
            "resume-from-checkpoint",
            run(cli, "--circuit", "apte", "--checkpoint-dir", ckpt,
                "--resume", "--audit", "--dump-solution", resumed),
            0,
        )
        if os.path.exists(full) and os.path.exists(resumed):
            with open(full, "rb") as a, open(resumed, "rb") as b:
                if a.read() != b.read():
                    failures.append("resume-from-checkpoint: solution differs "
                                    "from the straight run")
                else:
                    print("ok   resumed solution is bit-identical")

        # 3: a tampered books fingerprint simulates books perturbed
        # between checkpoint and resume (an ECO): the resume must be
        # rejected as stale, not quietly diverge.
        manifest = os.path.join(ckpt, "manifest.json")
        with open(manifest) as f:
            text = f.read()
        import re
        tampered = re.sub(r'"books_fingerprint": "[0-9a-f]+"',
                          '"books_fingerprint": "0000000000000000"', text)
        if tampered == text:
            failures.append("stale-checkpoint: manifest has no "
                            "books_fingerprint to tamper with")
        with open(manifest, "w") as f:
            f.write(tampered)
        expect(
            "stale-checkpoint",
            run(cli, "--circuit", "apte", "--checkpoint-dir", ckpt,
                "--resume"),
            3,
            stderr_contains="error[stale-checkpoint]",
        )

    # 0: every backend writes the same outputs through the one output
    # tail, and every JSON document carries its schema fields.
    required = {
        "report": ["schema", "design", "grid", "stages", "counters",
                   "gauges", "verdict", "audit", "trace"],
        "audit": ["clean", "errors", "warnings", "checks_run",
                  "nets_audited", "violations"],
        "trace": ["traceEvents", "displayTimeUnit", "droppedEvents"],
    }
    for backend, extra in [("rabid", []), ("mcf", []),
                           ("bbp", ["--two-pin"])]:
        with tempfile.TemporaryDirectory() as tmp:
            out = {k: os.path.join(tmp, k + ".json") for k in required}
            sol = os.path.join(tmp, "out.sol")
            name = f"outputs-{backend}"
            expect(name, run(cli, "--circuit", "apte", "--backend", backend,
                             *extra, "--report", out["report"],
                             "--audit-json", out["audit"],
                             "--trace", out["trace"],
                             "--dump-solution", sol), 0)
            for kind, path in out.items():
                try:
                    with open(path) as f:
                        doc = json.load(f)
                except (OSError, ValueError) as e:
                    failures.append(f"{name}: {kind} JSON unreadable: {e}")
                    continue
                missing = [k for k in required[kind] if k not in doc]
                if missing:
                    failures.append(f"{name}: {kind} JSON lacks {missing}")
            if os.path.exists(out["report"]):
                with open(out["report"]) as f:
                    report = json.load(f)
                if (report.get("schema") != "rabid.run_report.v1"
                        or report.get("verdict") != "ok"
                        or not report.get("stages")
                        or not report["audit"].get("run")):
                    failures.append(f"{name}: report schema/verdict/"
                                    "stages/audit wrong")
            if not os.path.exists(sol) or os.path.getsize(sol) == 0:
                failures.append(f"{name}: no solution dump")
        # A deadline is RABID's alone: a usage error for the others.
        if backend != "rabid":
            expect(f"deadline-{backend}",
                   run(cli, "--circuit", "apte", "--backend", backend,
                       *extra, "--deadline-ms", "5"),
                   2, stderr_contains="--backend rabid only")

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("all exit-code cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
