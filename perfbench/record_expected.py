"""Record the output digests the workloads' checks compare against.

Run from the repository root, on a commit whose outputs are known good:

    PYTHONPATH=src python3 perfbench/record_expected.py

It writes ``perfbench/expected.json``.  Re-record only when a change is
meant to alter CLI output, and say so in that change.
"""

import json
import os
import sys

for var in ("NFOLDSUSY_MAX_DERIV", "NFOLDSUSY_DERIV_BOUND"):
    if var in os.environ:
        sys.exit(f"unset {var} before recording")

import workloads  # noqa: E402  (sibling module; needs nfoldsusy importable)
from nfoldsusy import suites  # noqa: E402


def main() -> None:
    code, text = workloads.run_cli(workloads.verify_argv("all"))
    if code != 0:
        sys.exit("verify --suite all failed; refusing to record")
    report = json.loads(text)
    all_sha256 = workloads.digest(text)
    per_suite = {}
    for suite in suites.SUITE_NAMES:
        code, text = workloads.run_cli(workloads.verify_argv(suite))
        per_suite[suite] = {
            "checks": len(json.loads(text)["suites"][0]["checks"]),
            "sha256": workloads.digest(text),
        }
    derive_search = {}
    for argv in workloads.derive_search_commands():
        code, text = workloads.run_cli(argv)
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited {code}; refusing to record")
        derive_search[" ".join(argv)] = workloads.digest(text)
    expected = {
        "verify-all": {
            "total": sum(len(s["checks"]) for s in report["suites"]),
            "all_sha256": all_sha256,
            "suites": per_suite,
        },
        "derive-search": derive_search,
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
