"""Record the digest of every generated corpus instance in digests.json.

    python3 perfbench/record_digests.py

The corpus workload compares each instance it generates with these
digests and counts a difference as a wrong verdict, so a change that
alters or shrinks the seeded corpora shows.  Re-record only when a change
is meant to alter the corpora, and say so where the change is described.
"""

import json
import os

import run
import units


def main() -> None:
    corpus = {}
    for unit in units.CORPUS_UNITS:
        result = run.sample("corpus", unit, 0, False, record=True)
        if result["wrong"]:
            raise SystemExit(f"{unit}: wrong verdicts {result['problems']}")
        corpus[unit] = result["digests"]
        print(f"{unit}: {len(corpus[unit])} instances")
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump({"corpus": corpus}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
