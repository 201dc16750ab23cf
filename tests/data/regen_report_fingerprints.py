"""Regenerate the chaos-free PoolReport fingerprint corpus.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_report_fingerprints.py

Writes ``tests/data/poolreport_fingerprints.json``: one canonical
PoolReport dict per (seed, devices, fault_rate) combination, captured
with chaos disabled and hedging off.  The corpus pins the chaos-free
reports of the one scheduler loop, in which every attempt's outcome is
applied at its completion cycle: any change to retries, breaker trips,
degradations or latencies on these runs shows up field by field.
Regenerate only alongside a deliberate behaviour change, and summarise
the field-level diff in CHANGES.md.

Only fields present at capture time are stored, so counters added by
later PRs (with zero defaults) do not invalidate the corpus.
"""

import json
import pathlib
from dataclasses import asdict

from repro.runtime import serve

CASES = [
    {"seed": seed, "n_devices": devices, "fault_rate": rate}
    for seed in range(15)
    for devices in (1, 2, 4)
    for rate in (0.0, 0.2)
]


def fingerprint(case):
    _, report = serve(n_requests=20, scale=0.04, execution="model",
                      **case)
    return {"case": case, "report": asdict(report)}


def main():
    out = pathlib.Path(__file__).with_name(
        "poolreport_fingerprints.json")
    corpus = [fingerprint(case) for case in CASES]
    out.write_text(json.dumps(corpus, sort_keys=True, indent=0)
                   + "\n")
    print(f"wrote {out} ({len(corpus)} cases)")


if __name__ == "__main__":
    main()
