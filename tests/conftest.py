import os
import sys

# make table_data importable from every test module, and bench from the
# scripts the tests load
sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
