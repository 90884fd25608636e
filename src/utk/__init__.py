"""utk: a minimal dependent type theory kernel, its proof corpus, and a
finite cubical-sets model calculator."""

import sys

# the parser, elaborator and kernel recurse once or more per level of a term
sys.setrecursionlimit(400000)

__version__ = "0.1.0"
