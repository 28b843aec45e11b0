import os
import sys

# The benchmark's modules sit one directory up and are imported by name,
# as perfbench/run.py imports them.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
