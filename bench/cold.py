"""Serve one straightening request in a fresh interpreter; the set-up time of a workload.

Usage: python bench/cold.py 1,3,1,6,2

Imports nothing but codecalc (from the tree's ``src``, through PYTHONPATH),
runs the steps of a ``straighten --algebra b --method code`` request
(``parse_index``, ``encode_code``, ``straighten_code``, ``to_dict`` and
``canonical_json``) and prints the answer.  The caller times the whole process
and checks the answer against the reference route, so the harness's own
imports are not part of the time.
"""

import sys

from codecalc import canonical_json, encode_code, parse_index, straighten_code

print(canonical_json(straighten_code(encode_code(parse_index(sys.argv[1]))).to_dict()))
