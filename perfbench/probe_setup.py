"""Time one cold set-up in a fresh process and print it in seconds.

Set-up is what a CLI call pays before its first operation: importing the
package (the CLI loads harness and verify), parsing the experiment config
and building it (schedule construction and its irreducibility checks).

Usage: python3 perfbench/probe_setup.py SRC_DIR < config.json
An empty stdin times the imports alone.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import adiatrack.harness  # noqa: E402
import adiatrack.verify  # noqa: E402,F401

text = sys.stdin.read()
if text:
    adiatrack.harness.ExperimentConfig.from_dict(json.loads(text)).build()
print(repr(time.perf_counter() - start))
