"""Run one clusterbispec CLI command with layer tracing installed.

    python3 perfbench/cli_child.py TRACE.json <cli arguments...>
    python3 perfbench/cli_child.py --peak-alloc RESULT.json <cli arguments...>

Exits with the CLI's own exit code.  In the first form the per-layer
totals, the pair count of the largest contrast statistic and the spans are
written to TRACE.json for the parent run to merge.  In the second form,
which the parent runs only after its timed work, the largest contrast
statistic is then re-run under tracemalloc and its peak allocation is
written to RESULT.json.
"""

import json
import sys

import clusterbispec.cli as cli
from tracing import Tracer


def main() -> int:
    peak_alloc = sys.argv[1] == "--peak-alloc"
    out_path, *argv = sys.argv[2:] if peak_alloc else sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    if peak_alloc:
        doc = {"peak_alloc_mb": tracer.peak_alloc_mb()}
    else:
        doc = {**tracer.raw(), "largest_pairs": tracer.largest_pairs, "spans": tracer.spans}
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
