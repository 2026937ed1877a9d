"""Record the reference CSV rows that the benchmark checks studies against.

usage: python3 perfbench/record_reference.py

Run it from the root of a checkout at the commit whose rows become the
reference; it rewrites perfbench/reference.json.  Each study runs in-process
through `dpglock.study_cli.main`, the entry point of the `dpg-lock` command.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import CSV_HEADER, HERE, ROOT, WORKLOADS, parse_rows


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from dpglock import study_cli

    reference = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        out = Path(work) / "study.csv"
        for studies, _ in WORKLOADS.values():
            for study in studies:
                if study_cli.main([*study.split(), "--out", str(out)]) != 0:
                    print(f"study failed: {study}", file=sys.stderr)
                    return 1
                text = out.read_text()
                comment, header = text.splitlines()[:2]
                if header != CSV_HEADER:
                    print(f"unexpected CSV header {header!r}: {study}", file=sys.stderr)
                    return 1
                rows = [[int(r[0]), *r[1:]] for r in parse_rows(text)]
                reference[study] = {"comment": comment, "rows": rows}
                print(study, "->", rows[-1])
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
