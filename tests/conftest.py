import os
import sys

# make table_data importable from every test module
sys.path.insert(0, os.path.dirname(__file__))
