"""One study process of the benchmark.

usage: python3 perfbench/child.py RESULT.json TRACE [dpg-lock arguments...]

Times `import dpglock`, then runs `dpglock.study_cli.main(arguments)`, the
entry point of the `dpg-lock` command.  With TRACE=1 the package's layer
functions are wrapped first (see spans.py), and after the study the solves
are certified and the spans written.  Without dpg-lock arguments the process
only imports the package.  RESULT.json receives the import time, the exit
code, the numpy/scipy versions and, when traced, the spans; it is written
once, at the end, and only when the study returned.
"""

import json
import sys
import time

from spans import Tracer  # standard library only, so it stays out of the import timing


def main(argv) -> int:
    result_path, trace, cli = argv[0], argv[1] == "1", argv[2:]
    start = time.perf_counter()
    import dpglock
    result = {"import_s": time.perf_counter() - start, "rc": 0,
              "versions": {m: sys.modules[m].__version__ for m in ("numpy", "scipy")}}
    if cli:
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install(dpglock)
        result["rc"] = dpglock.study_cli.main(cli)
        if tracer is not None:
            result["certs"] = tracer.certify()
            result.update(tracer.record())
    with open(result_path, "w") as stream:
        json.dump(result, stream)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
