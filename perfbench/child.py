"""Child-process entry point of the benchmark.

::

    child.py setup <workload> <params-json>   # set up, print READY, exit
    child.py work  <workload> <params-json>   # set up, run, report JSON
    child.py serve <workload> <params-json>   # run the traced/untraced server

``work`` with a ``trace_out`` parameter installs the span wrappers of
:mod:`tracing` before anything else runs and writes the spans to that
path when the work is done.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

from run import WORKLOADS as MODULES  # noqa: E402


def main(argv):
    role, workload, params = argv[0], argv[1], json.loads(argv[2])
    common.require_checkout()
    # A fresh directory per child: no child sees another's files.
    tmp_dir = tempfile.mkdtemp(dir=os.environ["TMPDIR"])
    tracer = None
    if params.get("trace_out"):
        import tracing

        tracer = tracing.install()
    module = importlib.import_module(MODULES[workload])
    if role == "setup":
        module.setup(params, tmp_dir)
        print("READY %r" % time.perf_counter(), flush=True)
        return 0
    try:
        if role == "serve":
            return module.serve(params, tmp_dir)
        common.report(module.work(params, tmp_dir))
        return 0
    finally:
        if tracer is not None:
            tracer.dump(params["trace_out"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
