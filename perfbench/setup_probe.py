"""Set-up probe: import fockamp.cli and validate the given config files.

    python perfbench/setup_probe.py CONFIG.json [CONFIG.json ...]

This is the work every CLI call does before its command runs; run.py times
whole probe processes, interpreter start included, as setup_s.
"""
import json
import sys

from fockamp import cli

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        cli.validate_config(json.load(fh))
