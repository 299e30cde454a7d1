"""Default budgets and caps of the numeric summation engines.

They live apart from `summation` so that the command line can name them
in its help text and argument checks without loading the engines.
"""

DEFAULT_TERMS = 4000
DEFAULT_TOL = 1e-3
DEFAULT_ORDER_CAP = 8
MAX_ORDER_CAP = 12
