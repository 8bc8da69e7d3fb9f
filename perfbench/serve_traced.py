#!/usr/bin/env python3
"""``repro serve`` with the benchmark's layer wrappers installed.

Usage (from the repository root)::

    python3 perfbench/serve_traced.py SUMMARY.json serve --port 0 ...

Installs :class:`layers.Recorder` before the CLI starts, hands it every
trace the server's tracer keeps (the sink is attached when the CLI
installs its tracer through ``repro.obs.set_tracer``), runs the normal
``repro`` CLI with the remaining arguments, and on a clean shutdown
(SIGINT) writes the recorder's summary to ``SUMMARY.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import Recorder  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.prepare()
    recorder.install()
    import repro.obs as obs

    original = getattr(obs, "set_tracer", None)
    if original is None:
        recorder.missing.append("spans")
    else:
        def set_tracer(tracer):
            recorder.attach(tracer)
            return original(tracer)

        obs.set_tracer = set_tracer
    from repro.cli import main as cli_main

    code = cli_main(argv)
    with open(summary_path, "w") as handle:
        json.dump(recorder.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
