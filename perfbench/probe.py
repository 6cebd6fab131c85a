"""Set-up probe: a fresh interpreter imports dqwitness and builds one
workload's fixed program objects, then exits.  `run.py` times it from
outside.  Usage: python3 perfbench/probe.py <workload> (PYTHONPATH=src)."""

import sys

import dqwitness

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]].setup(dqwitness)
