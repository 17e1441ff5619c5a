"""Run ``caserisk pipeline`` once in a fresh interpreter and record its cost.

Started by ``run.py`` as its own process, so that ``ru_maxrss`` covers the
pipeline alone and not the generation of its inputs.  Writes one JSON
object to ``--result``: the import time of ``caserisk``, the wall and CPU
time of the ``pipeline`` call, peak RSS and, with ``--trace``, the
per-layer metrics (spans go to the ``--trace`` file, outside ``--out``).

    python3 bench/pipeline_child.py --src SRC --config CONF --out DIR --result FILE [--trace FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="directory holding the caserisk package")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", type=Path, help="write spans here and report per-layer metrics")
    args = parser.parse_args()

    start = time.perf_counter()
    import caserisk
    import caserisk.cli

    import_s = time.perf_counter() - start
    package = Path(caserisk.__file__).resolve().parent
    if package.parent != args.src.resolve():
        print(f"caserisk was imported from {package}, not from {args.src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    cpu_start = time.process_time()
    start = time.perf_counter()
    rc = caserisk.cli.main(["pipeline", "--config", args.config, "--out", args.out])
    pipeline_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start

    result = {
        "returncode": rc,
        "import_s": import_s,
        "pipeline_s": pipeline_s,
        "cpu_s": cpu_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(args.trace)
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
