"""Installs the benchmark's span tracer (``perfbench/tracer.py``) in every
interpreter started with ``PERFBENCH_TRACE_DIR`` set and this directory
on ``PYTHONPATH``: the program's main process and the worker processes
it spawns."""

import importlib.util
import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    _path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tracer.py")
    _spec = importlib.util.spec_from_file_location("perfbench_tracer", _path)
    _tracer = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_tracer)
    _tracer.install(os.environ["PERFBENCH_TRACE_DIR"])
